"""Detector framework: the common interface and race reports.

Every detector consumes the event alphabet of Appendix A through one
entry, :meth:`Detector.step`: it takes an event as its kind id
(:data:`~repro.trace.events.KIND_TO_ID`) plus operands, advances the
virtual clock, records which threads acted and calls the typed handler
(:meth:`Detector.read`, :meth:`Detector.acquire`, ...).
:meth:`Detector.apply`, the generic batch loop, the simulator runtime
and the live monitor all feed it, and the packed kernels share its
synchronization switch.  Detectors report races by appending
:class:`Race` records and keep analyzing (real tools do not stop at the
first race; the formal semantics' "stuck" state corresponds to the
first report).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from ..core.backend import resolve_backend
from ..core.stats import OpCounters, PerfCounters
from ..trace.batch import DEFAULT_BATCH_SIZE, EventBatch, iter_batches
from ..trace.events import KIND_TO_ID, Event

__all__ = ["Race", "SiteId", "Detector", "NullDetector", "distinct_races"]

#: Race kinds: first access kind followed by second access kind.
WRITE_WRITE = "ww"
WRITE_READ = "wr"
READ_WRITE = "rw"

#: A program site: synthetic workloads use stable integer ids, while the
#: live frontend (:mod:`repro.live`) records real ``file:line`` strings.
#: Sites are only stored, compared, and rendered — never arithmetic — so
#: both representations flow through every detector and backend.
SiteId = Union[int, str]


@dataclass(frozen=True)
class Race:
    """A reported data race.

    The *first* access is the older one (recorded in metadata); the
    *second* is the access whose analysis detected the race.  ``distinct``
    identity — "each pair of program references" in the paper — is the
    ``(first_site, second_site)`` pair (see :func:`distinct_races`).
    """

    var: int
    kind: str  # one of "ww", "wr", "rw"
    first_tid: int
    first_clock: int
    first_site: SiteId
    second_tid: int
    second_site: SiteId
    index: int = -1  # trace position of the second access, if known
    first_index: int = -1  # trace position of the first access, if known

    @property
    def distinct_key(self) -> Tuple[SiteId, SiteId]:
        """Static identity of the race: the pair of program sites."""
        return (self.first_site, self.second_site)

    @property
    def sig(self) -> Tuple:
        """Full dynamic signature ``(index, first_index, var, kind,
        first_tid, first_site, second_tid, second_site)``: every field but
        ``first_clock``.  Matrix workers ship races in this form
        (``CoreStats.race_sigs``) and exact comparisons use it."""
        return (self.index, self.first_index, self.var, self.kind,
                self.first_tid, self.first_site, self.second_tid,
                self.second_site)

    @classmethod
    def from_sig(cls, sig: Tuple) -> "Race":
        """The race a :attr:`sig` describes; the signature carries no
        ``first_clock``, so it is -1 (unknown)."""
        (index, first_index, var, kind,
         first_tid, first_site, second_tid, second_site) = sig
        return cls(var, kind, first_tid, -1, first_site, second_tid,
                   second_site, index, first_index)

    def __str__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"race[{self.kind}] var={self.var} "
            f"t{self.first_tid}@site{self.first_site} vs "
            f"t{self.second_tid}@site{self.second_site}"
        )


def distinct_races(races: Iterable[Race]) -> Set[Tuple[SiteId, SiteId]]:
    """The set of static (site-pair) races in a report list."""
    return {r.distinct_key for r in races}


class Detector:
    """Base class for all dynamic race detectors.

    Subclasses implement the typed event methods.  The base class
    provides race collection, counters, the one per-event entry
    (:meth:`step`), and bookkeeping of which threads exist (thread 0 is
    implicitly the main thread).
    """

    #: human-readable name used in tables and benchmark output
    name = "abstract"

    def __init__(self, backend: Optional[str] = None) -> None:
        #: resolved state-backend name ("object" or "packed"); detectors
        #: with epoch-compressible per-variable state (FASTTRACK, PACER)
        #: switch storage layouts on it, the rest carry it as a label
        self.backend_name = resolve_backend(backend)
        self.races: List[Race] = []
        self.counters = OpCounters()
        self.perf = PerfCounters()
        #: optional :class:`repro.obs.RunObserver`; every instrumentation
        #: site guards on ``observer is None`` so the disabled path costs
        #: exactly one branch
        self.observer = None
        self._events_seen = 0
        self._threads: Set[int] = set()

    # -- public API --------------------------------------------------------

    def step(self, k: int, tid: int, target: int, site: SiteId = 0) -> None:
        """Analyze one event given as its kind id: the one per-event entry.

        Advances the virtual clock, records the acting thread (and a
        forked child), and calls the typed handler: ids 0/1 go to
        :meth:`read`/:meth:`write`, 2-9 to :meth:`_sync`, 10/11 to the
        method hooks, and 12 (``alloc``) does nothing.
        """
        self._events_seen += 1
        if k <= 1:
            self._threads.add(tid)
            if k:
                self.write(tid, target, site)
            else:
                self.read(tid, target, site)
        elif k <= 9:
            self._sync(k, tid, target)
        elif k == 10:
            self.method_enter(tid, target)
        elif k == 11:
            self.method_exit(tid, target)

    def _sync(self, k: int, tid: int, target: int) -> None:
        """The synchronization and period-marker switch (ids 2-9), shared
        by :meth:`step` and the packed kernels' non-access branch; the
        caller has already advanced the virtual clock."""
        if k >= 8:  # period boundaries carry no acting thread
            if k == 8:
                self.begin_sampling()
            else:
                self.end_sampling()
            return
        self._threads.add(tid)
        if k == 2:
            self.acquire(tid, target)
        elif k == 3:
            self.release(tid, target)
        elif k == 4:
            self._threads.add(target)
            self.fork(tid, target)
        elif k == 5:
            self.join(tid, target)
        elif k == 6:
            self.vol_read(tid, target)
        else:  # k == 7
            self.vol_write(tid, target)

    def apply(self, event: Event) -> None:
        """Analyze one trace event through :meth:`step`."""
        k = KIND_TO_ID.get(event.kind)
        if k is None:
            raise ValueError(f"unknown event kind: {event.kind!r}")
        self.step(k, event.tid, event.target, event.site)

    def run(self, events: Iterable[Event]) -> List[Race]:
        """Analyze a whole trace; returns the accumulated race list.

        With a flight recorder attached the events take the recorded
        replay (:meth:`_run_recorded`), exactly as :meth:`run_batch` does.
        """
        obs = self.observer
        if obs is not None and getattr(obs, "recorder", None) is not None:
            return self._run_recorded(iter_batches(events), obs)
        start = time.perf_counter_ns()
        count = 0
        if obs is None:
            for event in events:
                self.apply(event)
                count += 1
        else:
            cadence = obs.sample_every
            for event in events:
                self.apply(event)
                count += 1
                if self._events_seen % cadence == 0:
                    obs.on_events(self, self._events_seen)
        self.perf.elapsed_ns += time.perf_counter_ns() - start
        self.perf.events += count
        return self.races

    def run_batch(
        self,
        events: Iterable[Event],
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> List[Race]:
        """Analyze a whole trace through the batched fast path.

        Behavior-identical to :meth:`run` — same races, counters, and
        metadata — but events flow as columnar :class:`EventBatch` chunks
        through :meth:`apply_batch`, which FASTTRACK and PACER route to the
        packed engine kernels.  ``events`` may be any event iterable or an
        already encoded :class:`EventBatch`.  An attached flight recorder
        keeps that route: the recorded replay (:meth:`_run_recorded`)
        feeds the same kernels and fills the recorder from the columns.
        """
        obs = self.observer
        if obs is not None and getattr(obs, "recorder", None) is not None:
            return self._run_recorded(iter_batches(events, batch_size), obs)
        start = time.perf_counter_ns()
        count = 0
        batches = 0
        max_batch = 0
        batch_start = start
        for batch in iter_batches(events, batch_size):
            first_vt = self._events_seen
            self.apply_batch(batch)
            n = len(batch)
            count += n
            batches += 1
            if n > max_batch:
                max_batch = n
            if obs is not None:
                now = time.perf_counter_ns()
                obs.on_batch(self, first_vt, n, now - batch_start)
                batch_start = time.perf_counter_ns()
        perf = self.perf
        perf.elapsed_ns += time.perf_counter_ns() - start
        perf.events += count
        perf.batches += batches
        if max_batch > perf.max_batch:
            perf.max_batch = max_batch
        return self.races

    def _run_recorded(self, batches: Iterable[EventBatch], obs) -> List[Race]:
        """Batched replay with flight recording and report-time capture.

        Each batch is cut into segments that end at every global multiple
        of ``obs.sample_every`` and at the batch's end, and each segment
        runs through :meth:`apply_batch`.  Only then is it recorded into
        the observer's :class:`~repro.obs.provenance.FlightRecorder`,
        straight from the columns and up to each new race's ``index``
        before ``obs.on_race`` captures that race — so every race sees
        exactly the rings a record-then-analyze loop would have shown it,
        and races sharing an index share a ring state.  ``obs.on_events``
        probes at the global multiples, so a session fed chunk by chunk
        probes where a single call does.  Used by both :meth:`run` and
        :meth:`run_batch`, so provenance is identical across dispatch
        modes; it observes no batch slices and counts no ``perf.batches``.
        """
        record = obs.recorder.record_columns
        cadence = obs.sample_every
        races = self.races
        start = time.perf_counter_ns()
        count = 0
        for batch in batches:
            kinds, tids, targets, sites = batch.to_list_columns()
            n = len(kinds)
            base = self._events_seen
            lo = 0
            while lo < n:
                hi = min(n, lo + cadence - (base + lo) % cadence)
                known = len(races)
                self.apply_batch(
                    batch if hi - lo == n else EventBatch.from_columns(
                        kinds[lo:hi], tids[lo:hi], targets[lo:hi], sites[lo:hi]
                    )
                )
                done = lo  # the segment's events already in the rings
                for race in races[known:]:
                    first = base + max(done - 1, lo)
                    if not first <= race.index < base + hi:
                        raise RuntimeError(
                            f"race index {race.index} outside "
                            f"[{first}, {base + hi}): a segment's races must "
                            f"fall inside it, in trace order"
                        )
                    upto = race.index - base + 1
                    if upto > done:
                        record(base, kinds, tids, targets, sites, done, upto)
                        done = upto
                    obs.on_race(self, race)
                record(base, kinds, tids, targets, sites, done, hi)
                if (base + hi) % cadence == 0:
                    obs.on_events(self, base + hi)
                lo = hi
            count += n
        self.perf.elapsed_ns += time.perf_counter_ns() - start
        self.perf.events += count
        return races

    def apply_batch(self, batch: EventBatch) -> None:
        """Process one encoded batch.

        The base implementation feeds each event through :meth:`apply`
        (so every detector supports batches); FASTTRACK and PACER
        override it to hand packed-backend batches to
        :mod:`repro.core.engine` whole.
        """
        for event in batch:
            self.apply(event)

    @property
    def distinct_races(self) -> Set[Tuple[SiteId, SiteId]]:
        """Static site-pair identities of all reported races."""
        return distinct_races(self.races)

    @property
    def n_threads(self) -> int:
        """Number of threads observed so far (at least 1)."""
        return max(len(self._threads), 1)

    def footprint_words(self) -> int:
        """Live metadata footprint in words; subclasses refine this."""
        return 0

    @property
    def tracked_variables(self) -> int:
        """Number of variables with live metadata; subclasses refine this."""
        return 0

    def max_clock_entries(self) -> int:
        """Largest live vector clock, in entries; subclasses refine this."""
        return 0

    def obs_sample(self) -> Dict[str, int]:
        """One observability probe of live analysis state.

        Called by :class:`repro.obs.RunObserver` at probe boundaries —
        never per event — so subclasses may do O(live metadata) work
        here.  All values must be deterministic functions of the trace.
        """
        words = self.footprint_words()
        return {
            "footprint_words": words,
            "meta_bytes": words * 4,
            "live_vars": self.tracked_variables,
            "vc_max": self.max_clock_entries(),
            "races": len(self.races),
            "threads": len(self._threads),
        }

    # -- typed events (subclass responsibilities) ---------------------------

    def read(self, tid: int, var: int, site: SiteId = 0) -> None:
        raise NotImplementedError

    def write(self, tid: int, var: int, site: SiteId = 0) -> None:
        raise NotImplementedError

    def acquire(self, tid: int, lock: int) -> None:
        raise NotImplementedError

    def release(self, tid: int, lock: int) -> None:
        raise NotImplementedError

    def fork(self, tid: int, child: int) -> None:
        raise NotImplementedError

    def join(self, tid: int, child: int) -> None:
        raise NotImplementedError

    def vol_read(self, tid: int, vol: int) -> None:
        raise NotImplementedError

    def vol_write(self, tid: int, vol: int) -> None:
        raise NotImplementedError

    def begin_sampling(self) -> None:
        """Enter a global sampling period (analysis no-op for always-on
        detectors; the observer still records the square wave)."""
        obs = self.observer
        if obs is not None:
            obs.on_sampling(True, self._events_seen)

    def end_sampling(self) -> None:
        """Leave a global sampling period (analysis no-op for always-on
        detectors; the observer still records the square wave)."""
        obs = self.observer
        if obs is not None:
            obs.on_sampling(False, self._events_seen)

    def method_enter(self, tid: int, method: int) -> None:
        """Method-entry hook (used by LiteRace; default no-op)."""

    def method_exit(self, tid: int, method: int) -> None:
        """Method-exit hook (used by LiteRace; default no-op)."""

    # -- race reporting helper ----------------------------------------------

    @property
    def now(self) -> int:
        """Index of the event currently being analyzed."""
        return self._events_seen - 1

    def report(
        self,
        var: int,
        kind: str,
        first_tid: int,
        first_clock: int,
        first_site: SiteId,
        second_tid: int,
        second_site: SiteId,
        first_index: int = -1,
    ) -> None:
        """Record a race report; analysis continues afterwards."""
        self.races.append(
            Race(
                var=var,
                kind=kind,
                first_tid=first_tid,
                first_clock=first_clock,
                first_site=first_site,
                second_tid=second_tid,
                second_site=second_site,
                index=self._events_seen - 1,
                first_index=first_index,
            )
        )


class NullDetector(Detector):
    """A detector that analyzes nothing.

    Stands in for the uninstrumented baseline configuration in the
    overhead and space benchmarks ("Base" in Figures 7-10).
    """

    name = "none"

    def read(self, tid: int, var: int, site: int = 0) -> None:
        pass

    def write(self, tid: int, var: int, site: int = 0) -> None:
        pass

    def acquire(self, tid: int, lock: int) -> None:
        pass

    def release(self, tid: int, lock: int) -> None:
        pass

    def fork(self, tid: int, child: int) -> None:
        pass

    def join(self, tid: int, child: int) -> None:
        pass

    def vol_read(self, tid: int, vol: int) -> None:
        pass

    def vol_write(self, tid: int, vol: int) -> None:
        pass
