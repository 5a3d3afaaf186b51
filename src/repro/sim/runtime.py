"""The managed runtime: allocation, nursery GC, and sampling toggling.

This stands in for Jikes RVM (paper §4).  The paper's implementation
turns PACER's sampling on and off at the end of nursery collections,
which occur every 32 MB of allocation.  Crucially, race-detection
metadata allocated *during* sampling makes collections come sooner, so
naive rate-r coin flips at GCs under-sample program work; the paper
corrects the entry probability by measuring work in synchronization
operations.  :class:`Runtime` reproduces that whole mechanism:

* program ops allocate (``Alloc`` ops plus a small per-op allocation);
* the detector's ``counters.words_allocated`` feed the same allocation
  budget while sampling (the bias source);
* at each GC boundary the :class:`~repro.core.sampling.SamplingController`
  decides the next period, and the detector's sampling flag toggles;
* every ``full_gc_every`` collections the runtime records a "full-heap"
  memory snapshot: live program words, object-header overhead, and the
  detector's live metadata (Figure 10's metric);
* sync-op counts per period feed the controller and define the
  *effective sampling rate* (Table 1's metric).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..core.sampling import SamplingController
from ..detectors.base import Detector
from ..trace.events import ALLOC, KIND_TO_ID, SBEGIN, SEND, SYNC_KINDS, Event
from .program import Program
from .scheduler import Scheduler

__all__ = ["RuntimeConfig", "MemorySnapshot", "Runtime"]

#: words are 4 bytes, as on the paper's 32-bit Jikes RVM configuration
BYTES_PER_WORD = 4


@dataclass
class RuntimeConfig:
    """Runtime tunables.

    ``nursery_bytes`` is scaled down from the paper's 32 MB to suit
    simulator-sized workloads; what matters for fidelity is the *ratio*
    between nursery size and allocation rate, which sets how many GC
    (sampling-decision) boundaries a run contains.
    """

    nursery_bytes: int = 2_048
    bytes_per_access: int = 2  # background program allocation per data access
    object_header_words: int = 2  # PACER's added header words (paper §4)
    object_size_words: int = 8  # average live-object payload (space model)
    full_gc_every: int = 4  # full-heap (snapshot) GC frequency
    track_memory: bool = True


@dataclass(frozen=True)
class MemorySnapshot:
    """Live memory at a full-heap GC, in words."""

    step: int  # event count at snapshot time
    program_words: int  # live program data
    header_words: int  # PACER's two header words per live object
    metadata_words: int  # detector metadata (clocks, read maps, ...)

    @property
    def total_words(self) -> int:
        return self.program_words + self.header_words + self.metadata_words


class Runtime:
    """Runs a program under a detector with GC-driven sampling."""

    def __init__(
        self,
        program: Program,
        detector: Detector,
        controller: Optional[SamplingController] = None,
        config: Optional[RuntimeConfig] = None,
        seed: int = 0,
        count_headers: bool = True,
        observer=None,
    ) -> None:
        self.detector = detector
        self.controller = controller
        self.config = config or RuntimeConfig()
        self.count_headers = count_headers
        #: optional :class:`repro.obs.RunObserver` — also attached to the
        #: detector and scheduler so one observer sees the whole run
        self.observer = observer
        if observer is not None:
            observer.attach(detector)
        self._scheduler = Scheduler(
            program, seed=seed, sink=self._on_event, observer=observer
        )
        self._sampling = False
        self._allocated = 0
        self._last_meta_words = 0
        self._gc_count = 0
        self._events = 0
        self._live_objects = 0
        self._live_program_words = 0
        self._sync_this_period = 0
        self.sync_sampled = 0
        self.sync_total = 0
        self.gc_log: List[Tuple[int, bool]] = []
        self.snapshots: List[MemorySnapshot] = []

    # -- the event pump ----------------------------------------------------

    def _analyze(self, k: int, tid: int, target: int, site) -> None:
        """Hand one event, given as its kind id, to the detector.

        With an observer attached the event goes through
        :meth:`~repro.obs.observer.RunObserver.step`, so the flight
        recorder sees every event, sampling markers included, and each
        race is captured as it is reported.
        """
        obs = self.observer
        if obs is None:
            self.detector.step(k, tid, target, site)
        else:
            obs.step(self.detector, k, tid, target, site)

    def _on_event(self, event: Event) -> None:
        self._events += 1
        kind = event.kind
        if kind == ALLOC:
            self._allocated += event.target
            # the event's site field carries the live-object delta
            self._live_objects = max(0, self._live_objects + event.site)
            self._live_program_words = (
                self._live_objects * self.config.object_size_words
            )
        else:
            if kind in SYNC_KINDS:
                self._sync_this_period += 1
                self.sync_total += 1
                if self._sampling:
                    self.sync_sampled += 1
            self._allocated += self.config.bytes_per_access
        before = self.detector.counters.words_allocated
        self._analyze(KIND_TO_ID[kind], event.tid, event.target, event.site)
        # Detector metadata allocation counts against the nursery — this
        # is what shortens sampling periods and biases naive controllers.
        self._allocated += (
            self.detector.counters.words_allocated - before
        ) * BYTES_PER_WORD
        if self._allocated >= self.config.nursery_bytes:
            self._gc()

    def _gc(self) -> None:
        """A nursery collection: sampling decision + optional snapshot."""
        self._allocated = 0
        self._gc_count += 1
        if self.controller is not None:
            self.controller.on_work(self._sync_this_period, self._sampling)
            self._sync_this_period = 0
            next_sampling = self.controller.decide()
            if next_sampling != self._sampling:
                self._analyze(KIND_TO_ID[SBEGIN if next_sampling else SEND], -1, 0, 0)
                self._sampling = next_sampling
        self.gc_log.append((self._events, self._sampling))
        if self.observer is not None:
            # GC boundaries are the live path's probe cadence: they are
            # deterministic in (program, seed) and they bracket exactly
            # the points where sampling decisions happen.
            self.observer.on_gc(self.detector, self._events)
        if self.config.track_memory and self._gc_count % self.config.full_gc_every == 0:
            self._snapshot()

    def _snapshot(self) -> None:
        header = (
            self.config.object_header_words * self._live_objects
            if self.count_headers
            else 0
        )
        self.snapshots.append(
            MemorySnapshot(
                step=self._events,
                program_words=self._live_program_words,
                header_words=header,
                metadata_words=self.detector.footprint_words(),
            )
        )

    # -- public API -----------------------------------------------------------

    def run(self) -> Detector:
        """Execute the program to completion; returns the detector."""
        # Allow the controller to start us inside a sampling period.
        if self.controller is not None and self.controller.decide():
            self._analyze(KIND_TO_ID[SBEGIN], -1, 0, 0)
            self._sampling = True
        self._scheduler.run()
        if self.controller is not None:
            # close the books on the final period
            self.controller.on_work(self._sync_this_period, self._sampling)
            self._sync_this_period = 0
        if self.config.track_memory:
            self._snapshot()
        if self.observer is not None:
            self.observer.on_phase("run", 0, self._events)
            self.observer.finalize(self.detector, self._events)
        return self.detector

    @property
    def effective_sampling_rate(self) -> float:
        """Fraction of synchronization operations inside sampling periods.

        This is Table 1's measurement: sync operations are performed at
        the same rate whether or not PACER samples, so they proxy for
        program work without observer bias.
        """
        return self.sync_sampled / self.sync_total if self.sync_total else 0.0

    @property
    def threads_started(self) -> int:
        return self._scheduler.threads_started

    @property
    def context_switches(self) -> int:
        return self._scheduler.context_switches

    @property
    def scheduler_steps(self) -> int:
        return self._scheduler.steps

    @property
    def max_live_threads(self) -> int:
        return self._scheduler.max_live

    @property
    def events(self) -> int:
        return self._events
