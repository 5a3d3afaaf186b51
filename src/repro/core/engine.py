"""Packed-state analysis kernels shared by scalar and batched dispatch.

Each algorithm has two transcriptions: the object backend's scalar
typed handlers (the literal pseudocode, and the semantic reference) and
one packed transcription here.  The packed kernels drive both dispatch
paths — the scalar handlers call them with a singleton event, the batch
path with whole columns:

* FASTTRACK (Algorithms 7/8): :func:`fasttrack_kernel`, which also runs
  every access PACER samples — while sampling PACER *is* FASTTRACK;
* PACER outside sampling periods (Algorithms 12/13):
  :func:`pacer_tracked`, one loop over the tracked accesses of one
  access run.  The run-bulking loop :func:`pacer_kernel` retires every
  run that touches no tracked variable in bulk and hands each other run
  to it through a C-level filter; the packed scalar handlers hand it a
  single access.

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
    "pacer_kernel",
    "pacer_tracked",
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


def pacer_tracked(det, kinds, tids, targets, sites, seen0, hits):
    """Algorithms 12/13 over the tracked accesses of one non-sampling
    access run, on packed arrays — the one transcription of PACER's
    non-sampling rules on the packed backend.

    ``hits`` yields column indices in trace order; event ``i`` is the
    trace's event ``seen0 + i``.  Each access it yields must be to a
    variable that is tracked when the loop reaches it: the packed scalar
    handlers pass a single index after their fast-path test, and
    :func:`pacer_kernel` a lazy filter of one run's targets, which tests
    each target only after the loop has handled every earlier one, so a
    variable released earlier in the run is not handed over.  A no-op
    event (``m_enter``/``m_exit``/``alloc``) whose target collides with
    a tracked id is skipped by its kind.

    The race checks run against the frozen clocks and the Table 4
    discard rules apply, releasing a slot once its metadata is fully
    null.  A run holds no synchronization or period event, so no clock
    changes inside it: each thread's clock and packed own epoch are
    looked up once per call.  The cases that change nothing come first;
    the thread's own write epoch can never race.  Sampled accesses never
    come here: they are FASTTRACK's and run :func:`fasttrack_kernel`.
    """
    arena = det._arena
    index = arena.index
    release = arena.release
    wep, wsite, windex = arena.wep, arena.wsite, arena.windex
    rep, rsite, rindex = arena.rep, arena.rsite, arena.rindex
    rshared = arena.rshared
    clock_of = det._clock_of
    races_append = det.races.append
    discard = det.discard_metadata
    reads = 0
    writes = 0
    changed = 0
    cache = {}  # tid -> (components, packed own epoch)
    cache_get = cache.get
    for idx in hits:
        k = kinds[idx]
        if k > 1:
            continue  # a no-op event whose target is a tracked id
        var = targets[idx]
        slot = index[var]
        tid = tids[idx]
        entry = cache_get(tid)
        if entry is None:
            c = clock_of(tid)._c
            own = c[tid] if tid < len(c) else 0
            entry = (c, (own << TID_BITS) | tid)
            cache[tid] = entry
        c, packed_own = entry
        w = wep[slot]
        if w and w != packed_own:
            wt = w & TID_MASK
            wc = w >> TID_BITS
            if wc > (c[wt] if wt < len(c) else 0):
                races_append(
                    Race(var, WRITE_WRITE if k else WRITE_READ, wt, wc,
                         wsite[slot], tid, sites[idx], seen0 + idx,
                         windex[slot])
                )
        r = rep[slot]
        if k == 0:  # rd (Algorithm 12)
            reads += 1
            if r == packed_own:
                continue  # Table 4 Rule 1: keep a same-epoch read
            if r == READ_SHARED:  # Rule 3: drop only t's entry, never deflate
                shared = rshared[slot]
                if tid not in shared:
                    continue
                changed += 1
                del shared[tid]
                if shared:
                    continue
                del rshared[slot]
            elif r:
                rt = r & TID_MASK
                if (r >> TID_BITS) > (c[rt] if rt < len(c) else 0):
                    continue  # Rule 4: keep a concurrent read
                changed += 1  # Rule 2: discard what FASTTRACK overwrites
            else:
                continue  # no read metadata to discard
            rep[slot] = 0
            if w == 0 and discard:
                release(var, slot)
            continue
        writes += 1  # wr (Algorithm 13)
        if r == READ_SHARED:
            for u, (rc, rs, ri) in rshared[slot].items():
                if rc > (c[u] if u < len(c) else 0):
                    races_append(
                        Race(var, READ_WRITE, u, rc, rs,
                             tid, sites[idx], seen0 + idx, ri)
                    )
        elif r:
            rt = r & TID_MASK
            rc = r >> TID_BITS
            if rc > (c[rt] if rt < len(c) else 0):
                races_append(
                    Race(var, READ_WRITE, rt, rc, rsite[slot],
                         tid, sites[idx], seen0 + idx, rindex[slot])
                )
        if w == packed_own:
            continue  # same epoch: keep the sampled metadata
        if not (w or r):
            continue  # null metadata, kept tracked only by the ablation
        changed += 1
        wep[slot] = 0  # discard write epoch and read map
        rep[slot] = 0
        rshared.pop(slot, None)
        if discard:
            release(var, slot)
    counters = det.counters
    counters.reads_slow_nonsampling += reads
    counters.writes_slow_nonsampling += writes
    perf = det.perf
    perf.tracked_accesses += reads + writes
    perf.tracked_changes += changed


def pacer_kernel(det, kinds, tids, targets, sites, seen0):
    """PACER's run-bulked batch loop over the packed arena.

    Maximal access runs are found with byte-mask scans over the kind
    column.  A sampling run is FASTTRACK's, and goes to
    :func:`fasttrack_kernel` whole.  A non-sampling run disjoint from
    the tracked variables is retired in bulk.  Any other non-sampling
    run hands :func:`pacer_tracked` a C-level filter of its tracked
    targets, so the untracked majority of a live run is never walked in
    Python.  No metadata can appear outside sampling (nothing allocates
    without an existing entry), so the filter's targets are the only
    ones the Algorithm 12/13 rules can act on.  The fast-path counts are
    taken once per batch: every access neither kernel counted as slow.
    """
    n = len(kinds)
    kind_bytes = bytearray(kinds)  # builds from a list faster than bytes
    mask = kind_bytes.translate(RUN_MASK_TABLE)
    find_break = mask.find
    arena = det._arena
    tracked = arena.index
    tracked_disjoint = tracked.keys().isdisjoint
    is_tracked = tracked.__contains__
    counters = det.counters
    slow_reads_before = (
        counters.reads_slow_sampling + counters.reads_slow_nonsampling
    )
    slow_writes_before = (
        counters.writes_slow_sampling + counters.writes_slow_nonsampling
    )
    bulk_runs = 0
    live_runs = 0
    sampling = det.sampling
    compress = _compress
    det._threads.update(compress(tids, kind_bytes.translate(ACCESS01_TABLE)))
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
            else:
                run = targets[i:j]
                if not tracked or tracked_disjoint(run):
                    bulk_runs += 1  # Algorithm 12/13 fast path, in bulk
                else:
                    live_runs += 1
                    pacer_tracked(
                        det, kinds, tids, targets, sites, seen0,
                        compress(range(i, j), map(is_tracked, run)),
                    )
            i = j
            continue
        det._events_seen = seen0 + i + 1
        det._sync(k, tids[i], targets[i])  # synchronization or period event
        sampling = det.sampling
        i += 1
    det._events_seen = seen0 + n
    # every access of the batch that neither kernel counted as slow took
    # the Algorithm 12/13 fast path
    counters.reads_fast_nonsampling += mask.count(0) - (
        counters.reads_slow_sampling + counters.reads_slow_nonsampling
        - slow_reads_before
    )
    counters.writes_fast_nonsampling += mask.count(1) - (
        counters.writes_slow_sampling + counters.writes_slow_nonsampling
        - slow_writes_before
    )
    perf = det.perf
    perf.bulk_runs += bulk_runs
    perf.live_runs += live_runs
