"""The PACER detector (paper §3, Algorithms 9-13 and 16, Tables 4-7).

PACER divides execution into global *sampling* and *non-sampling*
periods.  While sampling it is exactly FASTTRACK, and runs FASTTRACK's
code: a sampled access goes to
:func:`~repro.detectors.fasttrack.fasttrack_read`/``fasttrack_write``
(object backend) or :func:`~repro.core.engine.fasttrack_kernel`
(packed backend), which read PACER's thread clocks through
:meth:`PacerDetector._clock_of`.  While not sampling it

* performs **no work and allocates no space** for accesses to variables
  with no live metadata (the inlined fast path),
* **discards** read/write metadata that FASTTRACK would have replaced or
  discarded — once a sampled access can no longer be the *last* access to
  race with a future access, it is dropped,
* stops incrementing thread clocks (non-sampling periods are
  *timeless*), and detects the resulting redundant communication with
  **version epochs** (skip joins in O(1)) and **shared clocks** (shallow
  copies at lock releases), eliminating nearly all O(n) work.

The guarantee: a race whose first access falls inside a sampling period
(and is the last access racing with the second) is always reported, so
each dynamic race is detected with probability equal to the sampling
rate.

Deviations from the paper's pseudocode (all justified by its own formal
semantics in Table 7) are listed in DESIGN.md under "errata".

Feature flags (``use_versions``, ``use_sharing``, ``discard_metadata``)
exist for the ablation benchmarks and default to the paper's behaviour.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Optional

from ..detectors.base import Detector, WRITE_READ, WRITE_WRITE
from ..detectors.fasttrack import (
    check_reads,
    check_write,
    fasttrack_read,
    fasttrack_write,
)
from ..trace.batch import EventBatch
from .backend import PackedVarStore
from .clocks import Epoch, TID_BITS, TID_MASK
from .engine import pacer_kernel, pacer_tracked
from .metadata import SyncMeta, ThreadMeta, VarState, footprint_words
from .versioning import VE_BOTTOM, VE_TOP, SharableClock

__all__ = ["PacerDetector"]

#: singleton columns for the scalar-through-loop packed path
_RD = (0,)
_WR = (1,)
_FIRST = (0,)


class PacerDetector(Detector):
    """Sampling race detector with proportional detection and overhead."""

    name = "pacer"

    def __init__(
        self,
        sampling: bool = False,
        use_versions: bool = True,
        use_sharing: bool = True,
        discard_metadata: bool = True,
        reclaim_dead_threads: bool = False,
        backend: Optional[str] = None,
    ) -> None:
        super().__init__(backend)
        self.sampling = sampling
        self.use_versions = use_versions
        self.use_sharing = use_sharing
        self.discard_metadata = discard_metadata
        self.reclaim_dead_threads = reclaim_dead_threads
        self._thread: Dict[int, ThreadMeta] = {}
        self._lock: Dict[int, SyncMeta] = {}
        self._vol: Dict[int, SyncMeta] = {}
        if self.backend_name == "packed":
            self._arena: Optional[PackedVarStore] = PackedVarStore()
            self._vars: Optional[Dict[int, VarState]] = None
        else:
            self._arena = None
            self._vars = {}

    # -- metadata helpers ---------------------------------------------------

    def _thread_meta(self, tid: int) -> ThreadMeta:
        meta = self._thread.get(tid)
        if meta is None:
            meta = ThreadMeta(tid)
            self._thread[tid] = meta
            self.counters.words_allocated += 4
        return meta

    def _clock_of(self, tid: int) -> SharableClock:
        """The thread's clock, as FASTTRACK's access rules read it."""
        return self._thread_meta(tid).clock

    # -- low-level clock operations (Algorithms 9, 10, 11) ---------------------

    def _inc(self, meta: ThreadMeta, tid: int) -> None:
        """Vector clock increment (Algorithm 10): no-op unless sampling."""
        if not self.sampling:
            return
        clock = meta.clock
        if clock.shared:
            clock = clock.clone()
            meta.clock = clock
            self.counters.clones += 1
            self.counters.words_allocated += 1 + len(clock)
        clock.increment(tid)
        meta.ver.increment(tid)
        self.counters.increments += 1

    def _copy_to_sync(self, sync: SyncMeta, tmeta: ThreadMeta, tid: int) -> None:
        """Vector clock copy ``C_o <- C_t`` (Algorithm 9)."""
        if not self.sampling and self.use_sharing:
            tmeta.clock.shared = True
            sync.clock = tmeta.clock  # shallow: share the vector clock
            self.counters.copies_shallow_nonsampling += 1
        else:
            sync.clock = tmeta.clock.clone()  # deep element-by-element copy
            if self.sampling:
                self.counters.copies_deep_sampling += 1
            else:
                self.counters.copies_deep_nonsampling += 1
            self.counters.words_allocated += 1 + len(sync.clock)
        sync.vepoch = tmeta.vepoch(tid)

    def _count_join(self, fast: bool) -> None:
        c = self.counters
        if fast:
            if self.sampling:
                c.joins_fast_sampling += 1
            else:
                c.joins_fast_nonsampling += 1
        else:
            if self.sampling:
                c.joins_slow_sampling += 1
            else:
                c.joins_slow_nonsampling += 1

    def _join_into_thread(
        self,
        tmeta: ThreadMeta,
        tid: int,
        source_clock: Optional[SharableClock],
        source_vepoch: int,
    ) -> None:
        """Vector clock join ``C_t <- C_t ⊔ C_o`` (Algorithm 11 / Table 7).

        ``source_vepoch`` is a packed version epoch (``VE_BOTTOM``,
        ``VE_TOP``, or ``pack_vepoch(v, t)``).

        Rule 4 (version fast path): already received this version — O(1).
        Rule 5 (happens-before): clocks ordered; record the version only.
        Rule 6 (concurrent): real join; clone first if shared.

        One comparison pass (``source_clock.ahead_of``) both picks Rule 5
        or 6 and lists the entries Rule 6 writes.
        """
        if source_clock is None or source_vepoch == VE_BOTTOM:
            # The source clock is the bottom clock; a join is a no-op.
            self._count_join(fast=True)
            return
        real = source_vepoch != VE_TOP
        if real:
            sv_tid = source_vepoch & TID_MASK
            sv_version = source_vepoch >> TID_BITS
            if self.use_versions and tmeta.ver.get(sv_tid) >= sv_version:
                self._count_join(fast=True)  # Rule 4: same version epoch
                return
        self._count_join(fast=False)
        clock = tmeta.clock
        ahead = source_clock.ahead_of(clock)
        if not ahead:
            # Rule 5: ordered; no join needed, just learn the version.
            if real:
                tmeta.ver.set(sv_tid, sv_version)
            return
        # Rule 6: concurrent — write the entries where the source is ahead.
        if clock.shared:
            clock = clock.clone()
            tmeta.clock = clock
            self.counters.clones += 1
            self.counters.words_allocated += 1 + len(clock)
        clock.join(source_clock, ahead)
        tmeta.ver.increment(tid)
        if real:
            tmeta.ver.set(sv_tid, sv_version)

    # -- sampling period boundaries (Table 5) -----------------------------------

    def begin_sampling(self) -> None:
        """Enter a sampling period; increments every thread's clock.

        The increments re-establish *strict* well-formedness (Lemma 5) so
        that clock comparisons imply happens-before inside the period.
        """
        if self.sampling:
            return
        self.sampling = True
        for tid, meta in self._thread.items():
            self._inc(meta, tid)
        obs = self.observer
        if obs is not None:
            obs.on_sampling(True, self._events_seen)

    def end_sampling(self) -> None:
        """Leave a sampling period; time stops advancing."""
        self.sampling = False
        obs = self.observer
        if obs is not None:
            obs.on_sampling(False, self._events_seen)

    # -- synchronization operations ------------------------------------------------

    def acquire(self, tid: int, lock: int) -> None:
        tmeta = self._thread_meta(tid)
        sync = self._lock.get(lock)
        if sync is None:
            self._count_join(fast=True)  # never released: clock is bottom
            return
        self._join_into_thread(tmeta, tid, sync.clock, sync.vepoch)

    def release(self, tid: int, lock: int) -> None:
        tmeta = self._thread_meta(tid)
        sync = self._lock.get(lock)
        if sync is None:
            sync = SyncMeta()
            self._lock[lock] = sync
            self.counters.words_allocated += 2
        self._copy_to_sync(sync, tmeta, tid)
        self._inc(tmeta, tid)

    def fork(self, tid: int, child: int) -> None:
        tmeta = self._thread_meta(tid)
        cmeta = self._thread_meta(child)  # initial state per Equation 7
        self._join_into_thread(cmeta, child, tmeta.clock, tmeta.vepoch(tid))
        self._inc(tmeta, tid)

    def join(self, tid: int, child: int) -> None:
        tmeta = self._thread_meta(tid)
        cmeta = self._thread_meta(child)
        self._join_into_thread(tmeta, tid, cmeta.clock, cmeta.vepoch(child))
        self._inc(cmeta, child)
        cmeta.alive = False
        if self.reclaim_dead_threads:
            # Accordion-style reclamation (§5.1's production note, in its
            # simplest sound form): a joined thread never acts again, and
            # its clock/version vector is never consulted again — the
            # only reader is its (unique) join, which just ran.  Entries
            # *about* the dead thread inside other clocks and read maps
            # survive, so no happens-before information is lost.
            del self._thread[child]

    def vol_read(self, tid: int, vol: int) -> None:
        tmeta = self._thread_meta(tid)
        sync = self._vol.get(vol)
        if sync is None:
            self._count_join(fast=True)  # never written: clock is bottom
            return
        self._join_into_thread(tmeta, tid, sync.clock, sync.vepoch)

    def vol_write(self, tid: int, vol: int) -> None:
        """``C_x <- C_x ⊔ C_t`` (Algorithm 16 as corrected by Table 7).

        If the volatile's clock is subsumed by the thread's (proved by
        version epoch or by comparison), the join degenerates to a copy
        and the volatile keeps a precise version epoch.  Otherwise the
        result mixes several threads' clocks and the version epoch
        becomes ⊤ve.
        """
        tmeta = self._thread_meta(tid)
        sync = self._vol.get(vol)
        if sync is None:
            sync = SyncMeta()
            self._vol[vol] = sync
            self.counters.words_allocated += 2
        ve = sync.vepoch
        subsumes = False
        if ve == VE_BOTTOM:
            subsumes = True
            self._count_join(fast=True)
        elif (
            self.use_versions
            and ve != VE_TOP
            and tmeta.ver.get(ve & TID_MASK) >= (ve >> TID_BITS)
        ):
            subsumes = True  # Table 7 Rule 7: same version epoch
            self._count_join(fast=True)
        else:
            self._count_join(fast=False)
            subsumes = sync.clock.leq(tmeta.clock)  # Rule 8: happens-before
        if subsumes:
            self._copy_to_sync(sync, tmeta, tid)
        else:
            # Rule 9: concurrent writes — join and give up the version epoch.
            clock = sync.clock
            if clock.shared:
                clock = clock.clone()
                sync.clock = clock
                self.counters.clones += 1
                self.counters.words_allocated += 1 + len(clock)
            clock.join(tmeta.clock)
            sync.vepoch = VE_TOP
        self._inc(tmeta, tid)

    # -- batched fast path -----------------------------------------------------------

    def apply_batch(self, batch: EventBatch) -> None:
        """Run-bulked batch loop for PACER's dominant case.

        The paper's whole premise is that at low sampling rates nearly
        every access hits the inlined "no metadata, not sampling" check
        (Algorithms 12/13, first line).  On the packed backend
        :func:`~repro.core.engine.pacer_kernel` takes that to its
        columnar conclusion: it retires whole non-sampling access runs
        that touch no tracked variable in bulk, and walks only the
        tracked accesses of the others.  The object backend, and
        subclasses that hook accesses or method events, take the generic
        batch loop over the scalar handlers.
        """
        cls = type(self)
        if (
            self._arena is None
            or cls.read is not PacerDetector.read
            or cls.write is not PacerDetector.write
            or cls.method_enter is not Detector.method_enter
            or cls.method_exit is not Detector.method_exit
        ):
            super().apply_batch(batch)
            return
        kinds, tids, targets, sites = batch.to_list_columns()
        pacer_kernel(self, kinds, tids, targets, sites, self._events_seen)

    # -- reads and writes (Algorithms 12 and 13, Table 4) ---------------------------

    def read(self, tid: int, var: int, site: int = 0) -> None:
        if self.sampling:
            fasttrack_read(self, tid, var, site)  # exactly FASTTRACK (Algorithm 7)
            return
        if self._arena is not None:
            if var in self._arena.index:
                pacer_tracked(self, _RD, (tid,), (var,), (site,),
                              self._events_seen - 1, _FIRST)
            else:
                self.counters.reads_fast_nonsampling += 1  # inlined fast path
            return
        state = self._vars.get(var)
        if state is None:
            self.counters.reads_fast_nonsampling += 1  # inlined fast path
            return
        self.counters.reads_slow_nonsampling += 1
        clock = self._thread_meta(tid).clock
        # Non-sampling period (Algorithm 12): the race check always runs —
        # clocks are frozen, so same-epoch shortcuts that are safe under
        # FASTTRACK would silently drop sampled races here.
        check_write(self, var, state, clock, tid, site, WRITE_READ)
        r = state.read
        if r is not None:
            if r.is_epoch:
                # Table 4 Rule 2: discard a read epoch FASTTRACK would have
                # overwritten.  A same-epoch read (Rule 1) is *not*
                # overwritten by FASTTRACK, and Rule 4 keeps a concurrent one.
                if r.epoch != Epoch(clock.get(tid), tid) and r.leq_vc(clock):
                    state.read = None
            elif r.discard(tid):  # Rule 3: drop only t's entry
                state.read = None
        self._maybe_discard(var, state)

    def write(self, tid: int, var: int, site: int = 0) -> None:
        if self.sampling:
            fasttrack_write(self, tid, var, site)  # exactly FASTTRACK (Algorithm 8)
            return
        if self._arena is not None:
            if var in self._arena.index:
                pacer_tracked(self, _WR, (tid,), (var,), (site,),
                              self._events_seen - 1, _FIRST)
            else:
                self.counters.writes_fast_nonsampling += 1  # inlined fast path
            return
        state = self._vars.get(var)
        if state is None:
            self.counters.writes_fast_nonsampling += 1  # inlined fast path
            return
        self.counters.writes_slow_nonsampling += 1
        clock = self._thread_meta(tid).clock
        # Non-sampling period (Algorithm 13): checks run even on a
        # same-epoch write — with frozen clocks, sampled reads that race
        # this write would otherwise go unreported.
        check_write(self, var, state, clock, tid, site, WRITE_WRITE)
        check_reads(self, var, state, clock, tid, site)
        if state.write == Epoch(clock.get(tid), tid):
            return  # keep the sampled metadata; nothing to discard
        state.write = None  # discard write epoch and read map
        state.read = None
        self._maybe_discard(var, state)

    def _maybe_discard(self, var: int, state: VarState) -> None:
        """Drop the variable's metadata entirely once fully null."""
        if self.discard_metadata and state.is_null:
            del self._vars[var]

    # -- accounting ----------------------------------------------------------------

    @property
    def tracked_variables(self) -> int:
        """Number of variables with live metadata (space proxy)."""
        if self._arena is not None:
            return len(self._arena)
        return len(self._vars)

    def var_view(self, var: int) -> Optional[VarState]:
        """``var``'s metadata as a :class:`VarState` on either backend.

        Introspection for tests and tools; on the packed backend the view
        is a reconstruction and does not write back to the arena.
        """
        if self._arena is not None:
            return self._arena.view(var)
        return self._vars.get(var)

    def max_clock_entries(self) -> int:
        """Largest live vector clock across threads and sync objects."""
        best = 0
        for meta in self._thread.values():
            if len(meta.clock) > best:
                best = len(meta.clock)
        for table in (self._lock, self._vol):
            for sync in table.values():
                if len(sync.clock) > best:
                    best = len(sync.clock)
        return best

    def footprint_words(self) -> int:
        """Live metadata footprint; shared clocks are counted once."""
        if self._arena is not None:
            var_words = self._arena.words()
        else:
            var_words = sum(state.words() for state in self._vars.values())
        return footprint_words(
            var_words,
            chain(
                (meta.clock for meta in self._thread.values()),
                (sync.clock for sync in self._lock.values()),
                (sync.clock for sync in self._vol.values()),
            ),
            versions=(meta.ver for meta in self._thread.values()),
            # vepoch word + pointer per sync object
            sync_overhead=2 * (len(self._lock) + len(self._vol)),
        )
