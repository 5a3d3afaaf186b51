"""The FASTTRACK detector (paper §2.2, Algorithms 7 and 8).

FASTTRACK replaces the write vector with an *epoch* and the read vector
with an epoch-or-map *read map*, making nearly all access analysis O(1).
Synchronization analysis is unchanged from GENERIC (O(n)).

Following the paper's §2.2 modification, our FASTTRACK clears the read
map when a write supersedes it ("New: clear read map" in Algorithm 8);
this loses nothing — any future access racing with a cleared read also
races with the superseding write — and aligns FASTTRACK's metadata
lifecycle with PACER's.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Optional

from ..core.backend import PackedVarStore
from ..core.clocks import Epoch, ReadMap, VectorClock, epoch_leq_vc
from ..core.engine import fasttrack_kernel
from ..core.metadata import VarState, footprint_words
from ..trace.batch import EventBatch
from .base import Detector, READ_WRITE, WRITE_READ, WRITE_WRITE

__all__ = ["FastTrackDetector"]

#: singleton kind columns for the scalar-through-kernel packed path
_RD = (0,)
_WR = (1,)


class FastTrackDetector(Detector):
    """Sound and precise detector with O(1) common-case access analysis.

    Per-variable state lives behind the state-backend seam: the
    ``object`` backend keeps the :class:`VarState` dict the algorithm map
    points at, the ``packed`` backend (default) an integer-array arena
    driven by :func:`~repro.core.engine.fasttrack_kernel` for scalar and
    batched dispatch alike.
    """

    name = "fasttrack"

    def __init__(self, backend: Optional[str] = None) -> None:
        super().__init__(backend)
        self._thread_clock: Dict[int, VectorClock] = {}
        self._lock_clock: Dict[int, VectorClock] = {}
        self._vol_clock: Dict[int, VectorClock] = {}
        if self.backend_name == "packed":
            self._arena: Optional[PackedVarStore] = PackedVarStore()
            self._vars: Optional[Dict[int, VarState]] = None
        else:
            self._arena = None
            self._vars = {}

    # -- metadata helpers -------------------------------------------------

    def _clock_of(self, tid: int) -> VectorClock:
        clock = self._thread_clock.get(tid)
        if clock is None:
            clock = VectorClock()
            clock.increment(tid)
            self._thread_clock[tid] = clock
            self.counters.words_allocated += 2
        return clock

    def _var(self, var: int) -> VarState:
        state = self._vars.get(var)
        if state is None:
            state = VarState()
            self._vars[var] = state
            self.counters.words_allocated += 2
        return state

    # -- race checks --------------------------------------------------------

    def _check_write(
        self, var: int, state: VarState, clock: VectorClock, tid: int, site: int, kind: str
    ) -> None:
        """check W ⪯ C_t; report a race with the prior write otherwise."""
        w = state.write
        if w is not None and not epoch_leq_vc(w, clock):
            self.report(
                var, kind, w.tid, w.clock, state.write_site, tid, site,
                first_index=state.write_index,
            )

    def _check_reads(
        self, var: int, state: VarState, clock: VectorClock, tid: int, site: int
    ) -> None:
        """check R ⊑ C_t; report read-write races otherwise."""
        r = state.read
        if r is None:
            return
        for u, c, s, i in r.racing_entries(clock):
            self.report(var, READ_WRITE, u, c, s, tid, site, first_index=i)

    # -- accesses (Algorithms 7 and 8) ------------------------------------------

    def read(self, tid: int, var: int, site: int = 0) -> None:
        if self._arena is not None:
            fasttrack_kernel(
                self, _RD, (tid,), (var,), (site,), self._events_seen - 1
            )
            return
        self.counters.reads_slow_sampling += 1
        clock = self._clock_of(tid)
        state = self._var(var)
        own = clock.get(tid)
        r = state.read
        if r is not None and r.is_epoch and r.epoch == Epoch(own, tid):
            return  # same epoch: no action
        self._check_write(var, state, clock, tid, site, WRITE_READ)
        if r is None:
            state.read = ReadMap(tid, own, site, self.now)
            self.counters.words_allocated += 2
        elif r.is_epoch and r.leq_vc(clock):
            r.set_epoch(tid, own, site, self.now)  # overwrite read map
        else:
            r.record(tid, own, site, self.now)  # update (maybe inflating) map
            self.counters.words_allocated += 2

    def write(self, tid: int, var: int, site: int = 0) -> None:
        if self._arena is not None:
            fasttrack_kernel(
                self, _WR, (tid,), (var,), (site,), self._events_seen - 1
            )
            return
        self.counters.writes_slow_sampling += 1
        clock = self._clock_of(tid)
        state = self._var(var)
        own = clock.get(tid)
        if state.write == Epoch(own, tid):
            return  # same epoch: no action
        self._check_write(var, state, clock, tid, site, WRITE_WRITE)
        self._check_reads(var, state, clock, tid, site)
        state.read = None  # modified FASTTRACK: clear read map
        state.write = Epoch(own, tid)
        state.write_site = site
        state.write_index = self.now
        self.counters.words_allocated += 2

    # -- batched fast path ---------------------------------------------------

    def apply_batch(self, batch: EventBatch) -> None:
        """Batched Algorithms 7/8: the packed backend hands whole columns
        to :func:`~repro.core.engine.fasttrack_kernel`.

        The object backend, and subclasses that hook accesses or method
        events (LiteRace), take the generic batch loop so the scalar
        handlers stay in charge.
        """
        cls = type(self)
        if (
            self._arena is None
            or cls.read is not FastTrackDetector.read
            or cls.write is not FastTrackDetector.write
            or cls.method_enter is not Detector.method_enter
            or cls.method_exit is not Detector.method_exit
        ):
            super().apply_batch(batch)
            return
        kinds, tids, targets, sites = batch.to_list_columns()
        fasttrack_kernel(self, kinds, tids, targets, sites, self._events_seen)

    # -- synchronization (same as GENERIC) ----------------------------------------

    def acquire(self, tid: int, lock: int) -> None:
        clock = self._clock_of(tid)
        lock_clock = self._lock_clock.get(lock)
        if lock_clock is not None:
            clock.join(lock_clock)
        self.counters.joins_slow_sampling += 1

    def release(self, tid: int, lock: int) -> None:
        clock = self._clock_of(tid)
        self._lock_clock[lock] = clock.copy()
        self.counters.copies_deep_sampling += 1
        self.counters.words_allocated += 1 + len(clock)
        clock.increment(tid)
        self.counters.increments += 1

    def fork(self, tid: int, child: int) -> None:
        clock = self._clock_of(tid)
        child_clock = clock.copy()
        child_clock.increment(child)
        self._thread_clock[child] = child_clock
        self.counters.copies_deep_sampling += 1
        self.counters.words_allocated += 1 + len(child_clock)
        clock.increment(tid)
        self.counters.increments += 2

    def join(self, tid: int, child: int) -> None:
        clock = self._clock_of(tid)
        child_clock = self._clock_of(child)
        clock.join(child_clock)
        self.counters.joins_slow_sampling += 1
        child_clock.increment(child)
        self.counters.increments += 1

    def vol_read(self, tid: int, vol: int) -> None:
        clock = self._clock_of(tid)
        vol_clock = self._vol_clock.get(vol)
        if vol_clock is not None:
            clock.join(vol_clock)
        self.counters.joins_slow_sampling += 1

    def vol_write(self, tid: int, vol: int) -> None:
        clock = self._clock_of(tid)
        vol_clock = self._vol_clock.get(vol)
        if vol_clock is None:
            vol_clock = VectorClock()
            self._vol_clock[vol] = vol_clock
            self.counters.words_allocated += 1
        vol_clock.join(clock)
        self.counters.joins_slow_sampling += 1
        clock.increment(tid)
        self.counters.increments += 1

    # -- accounting ----------------------------------------------------------

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
        """Largest live vector clock across threads, locks, volatiles."""
        best = 0
        for table in (self._thread_clock, self._lock_clock, self._vol_clock):
            for clock in table.values():
                if len(clock) > best:
                    best = len(clock)
        return best

    def footprint_words(self) -> int:
        if self._arena is not None:
            var_words = self._arena.words()
        else:
            var_words = sum(state.words() for state in self._vars.values())
        return footprint_words(
            var_words,
            chain(
                self._thread_clock.values(),
                self._lock_clock.values(),
                self._vol_clock.values(),
            ),
        )
