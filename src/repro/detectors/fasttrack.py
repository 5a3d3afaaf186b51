"""The FASTTRACK detector (paper §2.2, Algorithms 7 and 8).

FASTTRACK replaces the write vector with an *epoch* and the read vector
with an epoch-or-map *read map*, making nearly all access analysis O(1).
Synchronization analysis is unchanged from GENERIC (O(n)): it is
inherited from :class:`~repro.detectors.generic.VectorClockDetector`.

Following the paper's §2.2 modification, our FASTTRACK clears the read
map when a write supersedes it ("New: clear read map" in Algorithm 8);
this loses nothing — any future access racing with a cleared read also
races with the superseding write — and aligns FASTTRACK's metadata
lifecycle with PACER's.

Algorithms 7 and 8 are the module functions :func:`fasttrack_read` and
:func:`fasttrack_write`.  They serve any detector that supplies its
thread clocks through ``_clock_of(tid)`` and keeps FASTTRACK's variable
state (the ``object`` backend's :class:`VarState` dict or the ``packed``
backend's arena): :class:`FastTrackDetector`, and
:class:`~repro.core.pacer.PacerDetector` for every access it samples.
PACER's non-sampling accesses reuse the race checks
:func:`check_write` and :func:`check_reads`.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core.backend import PackedVarStore
from ..core.clocks import Epoch, ReadMap, VectorClock, epoch_leq_vc
from ..core.engine import fasttrack_kernel
from ..core.metadata import VarState, footprint_words
from ..trace.batch import EventBatch
from .base import Detector, READ_WRITE, SiteId, WRITE_READ, WRITE_WRITE
from .generic import VectorClockDetector

__all__ = [
    "FastTrackDetector",
    "check_reads",
    "check_write",
    "fasttrack_read",
    "fasttrack_write",
]

#: singleton kind columns for the scalar-through-kernel packed path
_RD = (0,)
_WR = (1,)


# -- race checks ----------------------------------------------------------


def check_write(
    det, var: int, state: VarState, clock: VectorClock, tid: int,
    site: SiteId, kind: str,
) -> None:
    """check W ⪯ C_t; report a race with the prior write otherwise."""
    w = state.write
    if w is not None and not epoch_leq_vc(w, clock):
        det.report(
            var, kind, w.tid, w.clock, state.write_site, tid, site,
            first_index=state.write_index,
        )


def check_reads(
    det, var: int, state: VarState, clock: VectorClock, tid: int, site: SiteId
) -> None:
    """check R ⊑ C_t; report read-write races otherwise."""
    r = state.read
    if r is None:
        return
    for u, c, s, i in r.racing_entries(clock):
        det.report(var, READ_WRITE, u, c, s, tid, site, first_index=i)


# -- accesses (Algorithms 7 and 8) --------------------------------------------


def _var(det, var: int) -> VarState:
    state = det._vars.get(var)
    if state is None:
        state = VarState()
        det._vars[var] = state
        det.counters.words_allocated += 2
    return state


def fasttrack_read(det, tid: int, var: int, site: SiteId = 0) -> None:
    """Algorithm 7: one read, on either state backend."""
    if det._arena is not None:
        fasttrack_kernel(det, _RD, (tid,), (var,), (site,), det._events_seen - 1)
        return
    det.counters.reads_slow_sampling += 1
    clock = det._clock_of(tid)
    state = _var(det, var)
    own = clock.get(tid)
    r = state.read
    if r is not None and r.is_epoch and r.epoch == Epoch(own, tid):
        return  # same epoch: no action
    check_write(det, var, state, clock, tid, site, WRITE_READ)
    if r is None:
        state.read = ReadMap(tid, own, site, det.now)
        det.counters.words_allocated += 2
    elif r.is_epoch and r.leq_vc(clock):
        r.set_epoch(tid, own, site, det.now)  # overwrite read map
    else:
        r.record(tid, own, site, det.now)  # update (maybe inflating) map
        det.counters.words_allocated += 2


def fasttrack_write(det, tid: int, var: int, site: SiteId = 0) -> None:
    """Algorithm 8: one write, on either state backend."""
    if det._arena is not None:
        fasttrack_kernel(det, _WR, (tid,), (var,), (site,), det._events_seen - 1)
        return
    det.counters.writes_slow_sampling += 1
    clock = det._clock_of(tid)
    state = _var(det, var)
    own = clock.get(tid)
    if state.write == Epoch(own, tid):
        return  # same epoch: no action
    check_write(det, var, state, clock, tid, site, WRITE_WRITE)
    check_reads(det, var, state, clock, tid, site)
    state.read = None  # modified FASTTRACK: clear read map
    state.write = Epoch(own, tid)
    state.write_site = site
    state.write_index = det.now
    det.counters.words_allocated += 2


class FastTrackDetector(VectorClockDetector):
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
        if self.backend_name == "packed":
            self._arena: Optional[PackedVarStore] = PackedVarStore()
            self._vars: Optional[Dict[int, VarState]] = None
        else:
            self._arena = None
            self._vars = {}

    # -- accesses (Algorithms 7 and 8) ------------------------------------------

    read = fasttrack_read
    write = fasttrack_write

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
        return max(map(len, self._sync_clocks()), default=0)

    def footprint_words(self) -> int:
        if self._arena is not None:
            var_words = self._arena.words()
        else:
            var_words = sum(state.words() for state in self._vars.values())
        return footprint_words(var_words, self._sync_clocks())
