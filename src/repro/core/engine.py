"""Packed-state analysis kernels shared by scalar and batched dispatch.

Each algorithm has two transcriptions: the object backend's scalar
typed handlers (the literal pseudocode, and the semantic reference) and
one packed transcription here.  The packed kernels drive both dispatch
paths — the scalar handlers call them with a singleton event, the batch
path with whole columns:

* FASTTRACK (Algorithms 7/8): :func:`fasttrack_kernel`, which also runs
  every access PACER samples — while sampling PACER *is* FASTTRACK;
* PACER outside sampling periods (Algorithms 12/13):
  :func:`pacer_access_packed`, which the run-bulking loop
  :func:`pacer_kernel` calls for every non-sampling access it cannot
  retire in bulk.

Both kernels hand synchronization and period events to the detector's
one switch, :meth:`~repro.detectors.base.Detector._sync`.

Everything here works on :class:`~repro.core.backend.PackedVarStore`
arrays: epochs are packed ints (:func:`~repro.core.clocks.pack_epoch`),
``0`` is ⊥e, and :data:`~repro.core.backend.READ_SHARED` marks an
inflated read map living in the arena's side table.  The differential
suite holds every kernel to the object backend's races, operation
counts, and footprint words, event for event.
"""

from __future__ import annotations

from itertools import compress as _compress

from ..detectors.base import Race, READ_WRITE, WRITE_READ, WRITE_WRITE
from ..trace.batch import ACCESS01_TABLE, RUN_MASK_TABLE
from .backend import READ_SHARED
from .clocks import TID_BITS, TID_MASK

__all__ = [
    "fasttrack_kernel",
    "pacer_access_packed",
    "pacer_kernel",
]


def fasttrack_kernel(det, kinds, tids, targets, sites, seen0):
    """Algorithms 7/8 over packed arrays (FASTTRACK, both dispatch paths).

    ``seen0`` is the event index before the first event in ``kinds``;
    the scalar handlers pass ``_events_seen - 1`` (``step`` has already
    counted the event), ``FastTrackDetector.apply_batch`` passes
    ``_events_seen``, and :func:`pacer_kernel` the position of each
    sampling run it hands over.

    The detector supplies each thread's clock through ``det._clock_of``
    (which also creates and accounts for a thread's first clock), so
    FASTTRACK and a sampling PACER run this one transcription.  Access
    events never mutate vector clocks, so per-thread clock lookups
    (including the packed ``own`` epoch) are cached across each run of
    accesses and invalidated at every synchronization or period event —
    this is where the packed kernel's throughput comes from.
    """
    arena = det._arena
    index = arena.index
    index_get = index.get
    alloc = arena.alloc
    wep, wsite, windex = arena.wep, arena.wsite, arena.windex
    rep, rsite, rindex = arena.rep, arena.rsite, arena.rindex
    rshared = arena.rshared
    clock_of = det._clock_of
    threads_add = det._threads.add
    races_append = det.races.append
    seen = seen0
    reads = 0
    writes = 0
    words = 0
    last_tid = None
    cache = {}  # tid -> (components, own, packed own epoch)
    cache_get = cache.get
    for k, tid, target, site in zip(kinds, tids, targets, sites):
        seen += 1
        if k <= 1:  # rd / wr (Algorithms 7 and 8)
            if tid != last_tid:
                threads_add(tid)
                last_tid = tid
            entry = cache_get(tid)
            if entry is None:
                c = clock_of(tid)._c
                own = c[tid] if tid < len(c) else 0
                entry = (c, own, (own << TID_BITS) | tid)
                cache[tid] = entry
            c, own, packed_own = entry
            slot = index_get(target)
            if slot is None:
                slot = alloc(target)
                words += 2
            if k == 0:  # rd
                reads += 1
                r = rep[slot]
                if r == packed_own:
                    continue  # same read epoch: no action
                w = wep[slot]
                if w:
                    wt = w & TID_MASK
                    wc = w >> TID_BITS
                    if wc > (c[wt] if wt < len(c) else 0):
                        races_append(
                            Race(target, WRITE_READ, wt, wc, wsite[slot],
                                 tid, site, seen - 1, windex[slot])
                        )
                if r == 0:
                    rep[slot] = packed_own
                    rsite[slot] = site
                    rindex[slot] = seen - 1
                    words += 2
                elif r != READ_SHARED:
                    rt = r & TID_MASK
                    if (r >> TID_BITS) <= (c[rt] if rt < len(c) else 0):
                        rep[slot] = packed_own  # overwrite read epoch
                        rsite[slot] = site
                        rindex[slot] = seen - 1
                    else:
                        # inflate; rt != tid here (a same-thread epoch is
                        # either same-epoch or ordered, handled above)
                        rshared[slot] = {
                            rt: (r >> TID_BITS, rsite[slot], rindex[slot]),
                            tid: (own, site, seen - 1),
                        }
                        rep[slot] = READ_SHARED
                        words += 2
                else:
                    rshared[slot][tid] = (own, site, seen - 1)
                    words += 2
            else:  # wr
                writes += 1
                w = wep[slot]
                if w == packed_own:
                    continue  # same write epoch: no action
                if w:
                    wt = w & TID_MASK
                    wc = w >> TID_BITS
                    if wc > (c[wt] if wt < len(c) else 0):
                        races_append(
                            Race(target, WRITE_WRITE, wt, wc, wsite[slot],
                                 tid, site, seen - 1, windex[slot])
                        )
                r = rep[slot]
                if r:
                    if r != READ_SHARED:
                        rt = r & TID_MASK
                        rc = r >> TID_BITS
                        if rc > (c[rt] if rt < len(c) else 0):
                            races_append(
                                Race(target, READ_WRITE, rt, rc, rsite[slot],
                                     tid, site, seen - 1, rindex[slot])
                            )
                    else:
                        for u, (rc, rs, ri) in rshared[slot].items():
                            if rc > (c[u] if u < len(c) else 0):
                                races_append(
                                    Race(target, READ_WRITE, u, rc, rs,
                                         tid, site, seen - 1, ri)
                                )
                        del rshared[slot]
                    rep[slot] = 0  # modified FASTTRACK: clear read map
                wep[slot] = packed_own
                wsite[slot] = site
                windex[slot] = seen - 1
                words += 2
        elif k >= 10:  # m_enter / m_exit / alloc: no-ops here
            continue
        else:  # synchronization and period events mutate clocks
            det._events_seen = seen
            det._sync(k, tid, target)
            cache.clear()
    det._events_seen = seen
    counters = det.counters
    counters.reads_slow_sampling += reads
    counters.writes_slow_sampling += writes
    counters.words_allocated += words


def pacer_access_packed(det, k, tid, var, site, index):
    """One non-sampling PACER access (Algorithm 12 if ``k == 0``, else 13)
    over packed arrays — the transcription behind the packed scalar
    handlers outside sampling periods and every tracked access of a live
    run in :func:`pacer_kernel`.

    A variable with no metadata takes the inlined fast path.  Otherwise
    the race checks run against the frozen clocks and the Table 4
    discard rules apply, releasing the variable's arena slot once its
    metadata is fully null.  Sampled accesses never come here: they are
    FASTTRACK's and run :func:`fasttrack_kernel`.
    """
    arena = det._arena
    slot = arena.index.get(var)
    counters = det.counters
    if slot is None:  # inlined fast path
        if k:
            counters.writes_fast_nonsampling += 1
        else:
            counters.reads_fast_nonsampling += 1
        return
    if k:
        counters.writes_slow_nonsampling += 1
    else:
        counters.reads_slow_nonsampling += 1
    c = det._thread_meta(tid).clock._c
    own = c[tid] if tid < len(c) else 0
    packed_own = (own << TID_BITS) | tid
    wep, rep = arena.wep, arena.rep
    rshared = arena.rshared
    races_append = det.races.append
    w = wep[slot]
    r = rep[slot]
    if w:
        wt = w & TID_MASK
        wc = w >> TID_BITS
        if wc > (c[wt] if wt < len(c) else 0):
            races_append(
                Race(var, WRITE_WRITE if k else WRITE_READ, wt, wc,
                     arena.wsite[slot], tid, site, index, arena.windex[slot])
            )
    if k == 0:  # rd (Algorithm 12)
        if r:
            if r != READ_SHARED:
                # Table 4 Rule 2: discard a read epoch FASTTRACK would
                # have overwritten; same-epoch (Rule 1) and concurrent
                # (Rule 4) reads are kept.
                rt = r & TID_MASK
                if r != packed_own and (
                    (r >> TID_BITS) <= (c[rt] if rt < len(c) else 0)
                ):
                    rep[slot] = 0
            else:  # Rule 3: drop only t's entry, never deflate
                shared = rshared[slot]
                shared.pop(tid, None)
                if not shared:
                    rep[slot] = 0
                    del rshared[slot]
        if det.discard_metadata and w == 0 and rep[slot] == 0:
            arena.release(var, slot)
        return
    # wr (Algorithm 13)
    if r:
        if r != READ_SHARED:
            rt = r & TID_MASK
            rc = r >> TID_BITS
            if rc > (c[rt] if rt < len(c) else 0):
                races_append(
                    Race(var, READ_WRITE, rt, rc, arena.rsite[slot],
                         tid, site, index, arena.rindex[slot])
                )
        else:
            for u, (rc, rs, ri) in rshared[slot].items():
                if rc > (c[u] if u < len(c) else 0):
                    races_append(
                        Race(var, READ_WRITE, u, rc, rs, tid, site, index, ri)
                    )
    if w == packed_own:
        return  # same epoch: keep the sampled metadata
    wep[slot] = 0  # discard write epoch and read map
    rep[slot] = 0
    rshared.pop(slot, None)
    if det.discard_metadata:
        arena.release(var, slot)


def pacer_kernel(det, kinds, tids, targets, sites, seen0):
    """PACER's run-bulked batch loop over the packed arena.

    Maximal access runs are found with byte-mask scans over the kind
    column.  A sampling run is FASTTRACK's, and goes to
    :func:`fasttrack_kernel` whole.  A non-sampling run disjoint from
    tracked variables is retired in bulk; in any other non-sampling run
    only the accesses to tracked variables pay a
    :func:`pacer_access_packed` call.  No metadata can appear outside
    sampling (nothing allocates without an existing entry), so the
    run-entry probe stays valid for the whole run.
    """
    n = len(kinds)
    kind_bytes = bytes(kinds)
    mask = kind_bytes.translate(RUN_MASK_TABLE)
    access01 = kind_bytes.translate(ACCESS01_TABLE)
    find_break = mask.find
    count_kind = mask.count  # runs: byte 0 = read, 1 = write, 3 = no-op
    arena = det._arena
    tracked = arena.index
    tracked_disjoint = tracked.keys().isdisjoint
    counters = det.counters
    sampling = det.sampling
    reads_fast = 0
    writes_fast = 0
    compress = _compress
    det._threads.update(compress(tids, access01))
    i = 0
    while i < n:
        k = kinds[i]
        if k <= 1 or k >= 10:  # a run starts here; find where it ends
            j = find_break(2, i)
            if j < 0:
                j = n
            if sampling:  # exactly FASTTRACK (Algorithms 7/8)
                fasttrack_kernel(
                    det, kinds[i:j], tids[i:j], targets[i:j], sites[i:j],
                    seen0 + i,
                )
                i = j
                continue
            w = count_kind(1, i, j)
            r = count_kind(0, i, j)
            pure = w + r == j - i  # no riding no-op events in the run
            if not tracked or tracked_disjoint(
                targets[i:j]
                if pure
                else compress(targets[i:j], access01[i:j])
            ):
                # Algorithm 12/13 fast path, retired in bulk
                writes_fast += w
                reads_fast += r
                i = j
                continue
            # live run: most targets still miss the arena, so the
            # Algorithm 12/13 fast path stays inline and only tracked
            # variables pay the per-event call
            for idx in range(i, j):
                k2 = kinds[idx]
                if k2 > 1:
                    continue  # m_enter / m_exit / alloc: no-ops
                if targets[idx] not in tracked:
                    if k2:
                        writes_fast += 1
                    else:
                        reads_fast += 1
                    continue
                pacer_access_packed(
                    det, k2, tids[idx], targets[idx], sites[idx], seen0 + idx
                )
            i = j
            continue
        det._events_seen = seen0 + i + 1
        det._sync(k, tids[i], targets[i])  # synchronization or period event
        sampling = det.sampling
        i += 1
    det._events_seen = seen0 + n
    counters.reads_fast_nonsampling += reads_fast
    counters.writes_fast_nonsampling += writes_fast
