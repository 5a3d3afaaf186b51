"""The GENERIC O(n) vector-clock race detector (paper §2.1).

Every data variable keeps a full read vector and write vector; every
synchronization object keeps a vector clock.  All analysis is O(n) in
the number of threads — this is the baseline FASTTRACK and PACER improve
on, and it doubles as the reference implementation for the happens-before
oracle tests (it is sound and precise, merely slow).

GENERIC's synchronization (Algorithms 1-4, 14-15) lives in
:class:`VectorClockDetector`, which FASTTRACK extends too.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterator, Optional, Tuple

from ..core.clocks import VectorClock
from ..core.metadata import footprint_words
from .base import Detector, READ_WRITE, WRITE_READ, WRITE_WRITE

__all__ = ["GenericDetector", "VectorClockDetector"]


class _AccessVector:
    """A per-variable access vector: tid -> (clock, site)."""

    __slots__ = ("entries",)

    def __init__(self) -> None:
        self.entries: Dict[int, Tuple[int, int]] = {}

    def record(self, tid: int, clock: int, site: int, index: int = -1) -> None:
        self.entries[tid] = (clock, site, index)

    def racing(self, clock: VectorClock):
        """Entries ``(tid, clock, site, index)`` not happening-before ``clock``."""
        return [
            (t, c, s, i)
            for t, (c, s, i) in self.entries.items()
            if c > clock.get(t)
        ]

    def words(self) -> int:
        return 1 + 2 * len(self.entries)


class _VarVectors:
    __slots__ = ("reads", "writes")

    def __init__(self) -> None:
        self.reads = _AccessVector()
        self.writes = _AccessVector()


class VectorClockDetector(Detector):
    """GENERIC's synchronization: one vector clock per thread, lock and
    volatile, joined and copied in O(n) (Algorithms 1-4, 14-15).

    GENERIC and FASTTRACK extend it, and Djit+ and LiteRace through
    them; each adds only its per-variable access analysis.
    """

    def __init__(self, backend: Optional[str] = None) -> None:
        super().__init__(backend)
        self._thread_clock: Dict[int, VectorClock] = {}
        self._lock_clock: Dict[int, VectorClock] = {}
        self._vol_clock: Dict[int, VectorClock] = {}

    def _clock_of(self, tid: int) -> VectorClock:
        clock = self._thread_clock.get(tid)
        if clock is None:
            clock = VectorClock()
            clock.increment(tid)
            self._thread_clock[tid] = clock
            self.counters.words_allocated += 2
        return clock

    def _sync_clocks(self) -> Iterator[VectorClock]:
        """Every live thread, lock and volatile clock."""
        return chain(
            self._thread_clock.values(),
            self._lock_clock.values(),
            self._vol_clock.values(),
        )

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


class GenericDetector(VectorClockDetector):
    """Sound and precise detector with O(n) analysis everywhere.

    GENERIC's full read/write vectors have no epoch-compressible layout,
    so both state backends share this one representation; ``backend`` is
    accepted (and carried as a label) for a uniform construction API.
    """

    name = "generic"

    def __init__(self, backend: Optional[str] = None) -> None:
        super().__init__(backend)
        self._vars: Dict[int, _VarVectors] = {}

    # -- metadata helpers ----------------------------------------------------

    def _var(self, var: int) -> _VarVectors:
        state = self._vars.get(var)
        if state is None:
            state = _VarVectors()
            self._vars[var] = state
            self.counters.words_allocated += 2
        return state

    # -- accesses (Algorithms 5 and 6) -----------------------------------------

    def read(self, tid: int, var: int, site: int = 0) -> None:
        self.counters.reads_slow_sampling += 1
        clock = self._clock_of(tid)
        state = self._var(var)
        for u, c, s, i in state.writes.racing(clock):
            self.report(var, WRITE_READ, u, c, s, tid, site, first_index=i)
        state.reads.record(tid, clock.get(tid), site, self.now)
        self.counters.words_allocated += 2

    def write(self, tid: int, var: int, site: int = 0) -> None:
        self.counters.writes_slow_sampling += 1
        clock = self._clock_of(tid)
        state = self._var(var)
        for u, c, s, i in state.writes.racing(clock):
            self.report(var, WRITE_WRITE, u, c, s, tid, site, first_index=i)
        for u, c, s, i in state.reads.racing(clock):
            self.report(var, READ_WRITE, u, c, s, tid, site, first_index=i)
        state.writes.record(tid, clock.get(tid), site, self.now)
        self.counters.words_allocated += 2

    # -- accounting -----------------------------------------------------------

    def footprint_words(self) -> int:
        return footprint_words(
            sum(
                state.reads.words() + state.writes.words()
                for state in self._vars.values()
            ),
            self._sync_clocks(),
        )
