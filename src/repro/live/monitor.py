"""Online race detection for real Python ``threading`` programs.

The GIL serializes Python bytecodes, so true memory races are rare in
pure Python — but *logical* races (unsynchronized check-then-act,
read-modify-write) are real bugs, and the happens-before analysis that
finds them is identical.  This module instruments real threads, locks,
and shared variables and feeds any :class:`~repro.detectors.base.Detector`
(PACER included) online.

Usage::

    from repro.live import RaceMonitor

    mon = RaceMonitor()                 # FASTTRACK by default
    counter = mon.shared("counter", 0)
    lock = mon.lock("counter_lock")

    def bump():
        with lock:                      # comment this out -> race reported
            counter.set(counter.get() + 1)

    threads = [mon.thread(bump) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    print(mon.detector.races)

Access *sites* default to the caller's ``file:line``, so race reports
point at real source locations.
"""

from __future__ import annotations

import sys
import threading
from typing import Any, Callable, Dict, Optional, Tuple

from ..detectors.base import Detector, SiteId
from ..detectors.fasttrack import FastTrackDetector
from ..obs.quality import build_coverage
from ..obs.reports import build_report, render_report_table
from ..obs.provenance import SyncIndex
from ..trace.events import (
    ACQUIRE,
    FORK,
    JOIN,
    KIND_TO_ID,
    READ,
    RELEASE,
    SBEGIN,
    SEND,
    VOL_READ,
    VOL_WRITE,
    WRITE,
)

__all__ = ["RaceMonitor", "SharedVar", "TrackedLock", "TrackedThread"]


class RaceMonitor:
    """Bridges real ``threading`` activity into a race detector.

    All detector calls are serialized by an internal mutex, so the
    analysis itself never races.  Thread ids, variable ids, and lock ids
    are interned; access *sites* are real ``file:line`` strings (the
    :class:`~repro.detectors.base.Race` site type admits both ints and
    strings), so race reports point straight at source locations.

    Pass ``observer=RunObserver(...)`` to plug a live run into the same
    observability stack as offline runs: :meth:`finalize` then emits the
    standard ``detector_runs``/``events``/``races`` metrics, and an
    observer carrying a :class:`~repro.obs.provenance.FlightRecorder`
    captures per-race context that :meth:`race_report` turns into the
    structured ``repro/race-report/v1`` document.
    """

    def __init__(
        self,
        detector: Optional[Detector] = None,
        observer=None,
    ) -> None:
        self.detector = detector if detector is not None else FastTrackDetector()
        self.observer = observer
        if observer is not None:
            observer.attach(self.detector)
        self._mutex = threading.Lock()
        self._local = threading.local()  # .tid: the thread's detector tid
        self._next_tid = 0
        self._vars: Dict[str, int] = {}
        self._locks: Dict[str, int] = {}
        # a name, or ("exit", tid) for a tracked thread's exit volatile
        self._vols: Dict[Any, int] = {}
        self._sites: Dict[Tuple[str, int], str] = {}
        self._site_names: Dict[str, str] = {}

    # -- interning ----------------------------------------------------------

    def _tid(self) -> int:
        """The calling thread's detector tid, fresh on its first event.

        Held thread-locally, not keyed by ident: CPython hands an exited
        thread's ident to a later thread, which must not inherit the
        dead thread's clock (that hides races) or act as a joined thread.
        """
        local = self._local
        tid = getattr(local, "tid", None)
        if tid is None:
            with self._mutex:
                tid = self._next_tid
                self._next_tid += 1
            local.tid = tid
        return tid

    def _intern(self, table: Dict[Any, int], name: Any, base: int) -> int:
        with self._mutex:
            if name not in table:
                table[name] = base + len(table)
            return table[name]

    def _site(self, depth: int = 2) -> str:
        frame = sys._getframe(depth)
        key = (frame.f_code.co_filename, frame.f_lineno)
        with self._mutex:
            site = self._sites.get(key)
            if site is None:
                site = f"{key[0]}:{key[1]}"
                self._sites[key] = site
                self._site_names[site] = site
            return site

    def site_name(self, site: SiteId) -> str:
        """Source location (``file:line``) for a reported site."""
        if isinstance(site, str):
            return site
        return self._site_names.get(site, f"site#{site}")

    # -- factories ------------------------------------------------------------

    def shared(self, name: str, initial: Any = None) -> "SharedVar":
        """A tracked shared variable (reads/writes are analyzed)."""
        return SharedVar(self, self._intern(self._vars, name, 0), initial)

    def lock(self, name: str) -> "TrackedLock":
        """A tracked reentrant lock (acquire/release create HB edges)."""
        return TrackedLock(self, self._intern(self._locks, name, 100_000))

    def volatile(self, name: str, initial: Any = None) -> "VolatileVar":
        """A tracked volatile variable (java-style release/acquire)."""
        return VolatileVar(self, self._intern(self._vols, name, 200_000), initial)

    def thread(
        self, target: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> "TrackedThread":
        """A tracked thread (start/join create fork/join HB edges)."""
        return TrackedThread(self, target, args, kwargs)

    # -- event entry points (serialized) -----------------------------------------

    def _feed(self, k: int, tid: int, target: int, site: SiteId) -> None:
        """Analyze one event given as its kind id (mutex held).

        :meth:`~repro.detectors.base.Detector.step` advances the virtual
        clock, so live races carry real trace indices.  With an observer
        attached the event goes through
        :meth:`~repro.obs.observer.RunObserver.step`, which also records
        it in the flight recorder and captures every race it raised.
        """
        obs = self.observer
        if obs is None:
            self.detector.step(k, tid, target, site)
        else:
            obs.step(self.detector, k, tid, target, site)

    def on_read(self, var: int, site: SiteId) -> None:
        tid = self._tid()
        with self._mutex:
            self._feed(KIND_TO_ID[READ], tid, var, site)

    def on_write(self, var: int, site: SiteId) -> None:
        tid = self._tid()
        with self._mutex:
            self._feed(KIND_TO_ID[WRITE], tid, var, site)

    def on_acquire(self, lock: int) -> None:
        tid = self._tid()
        with self._mutex:
            self._feed(KIND_TO_ID[ACQUIRE], tid, lock, 0)

    def on_release(self, lock: int) -> None:
        tid = self._tid()
        with self._mutex:
            self._feed(KIND_TO_ID[RELEASE], tid, lock, 0)

    def on_fork(self) -> int:
        """Fork a new thread; returns the fresh tid it must act as."""
        parent = self._tid()
        with self._mutex:
            child = self._next_tid
            self._next_tid += 1
            self._feed(KIND_TO_ID[FORK], parent, child, 0)
        return child

    def on_join(self, child: int) -> None:
        """Join the thread :meth:`on_fork` gave the tid ``child``."""
        tid = self._tid()
        with self._mutex:
            self._feed(KIND_TO_ID[JOIN], tid, child, 0)

    def on_vol_read(self, vol: int) -> None:
        tid = self._tid()
        with self._mutex:
            self._feed(KIND_TO_ID[VOL_READ], tid, vol, 0)

    def on_vol_write(self, vol: int) -> None:
        tid = self._tid()
        with self._mutex:
            self._feed(KIND_TO_ID[VOL_WRITE], tid, vol, 0)

    # -- reporting ----------------------------------------------------------

    def finalize(self) -> None:
        """Flush the observer: emits the standard end-of-run metrics
        (``detector_runs``, ``events``, ``races``) just like an offline
        :meth:`~repro.detectors.base.Detector.run`.  Idempotent; no-op
        without an observer."""
        obs = self.observer
        if obs is None:
            return
        with self._mutex:
            obs.finalize(self.detector, self.detector._events_seen)

    def race_report(self) -> Dict[str, Any]:
        """The live run as a structured ``repro/race-report/v1`` document.

        Witnesses come from the observer's flight recorder when one is
        attached (``source: "recorder"`` — bounded, like online tools),
        and per-race event context from the contexts captured at report
        time.  Safe to call while tracked threads run: the recorder
        snapshot, the contexts and the race list are all read under the
        monitor mutex, so the witnesses explain exactly the races listed.
        """
        det = self.detector
        obs = self.observer
        with self._mutex:
            sync = None
            contexts = None
            if obs is not None:
                rec = getattr(obs, "recorder", None)
                if rec is not None:
                    sync = SyncIndex.from_recorder(rec)
                contexts = obs.race_contexts or None
            return build_report(
                det.races,
                source="live",
                detector=det.name,
                backend=det.backend_name,
                events=det._events_seen,
                contexts=contexts,
                sync=sync,
                site_name=self.site_name,
            )

    def describe_races(self) -> str:
        """Human-readable race report with source locations."""
        return render_report_table(self.race_report())

    def coverage_report(
        self, nominal_rate: Optional[float] = None
    ) -> Dict[str, Any]:
        """The live run's detection-quality accounting as one
        ``repro/coverage-report/v1`` document.

        Sampling marks come from the observer's square wave (fed by
        ``begin_sampling``/``end_sampling``, e.g. via a
        :class:`SamplingDriver`), falling back to the flight recorder's
        marks; counters and races come straight off the detector —
        exactly the evidence offline analysis uses, so live and offline
        coverage agree on the same event sequence.  ``nominal_rate`` is
        the configured sampling rate as a fraction (a driver's
        ``rate``), or None when the run has no dial.
        """
        det = self.detector
        obs = self.observer
        with self._mutex:
            marks = []
            if obs is not None:
                marks = obs.sampling_marks
                if not marks:
                    rec = getattr(obs, "recorder", None)
                    if rec is not None:
                        marks = rec.sampling_marks
            return build_coverage(
                source="live",
                detector=det.name,
                nominal_rate=nominal_rate,
                counters=det.counters.snapshot(),
                marks=marks,
                races=det.races,
                events=det._events_seen,
            )


class SharedVar:
    """A tracked shared variable; ``get``/``set`` feed the detector."""

    __slots__ = ("_monitor", "_var", "_value")

    def __init__(self, monitor: RaceMonitor, var: int, initial: Any) -> None:
        self._monitor = monitor
        self._var = var
        self._value = initial

    def get(self) -> Any:
        self._monitor.on_read(self._var, self._monitor._site())
        return self._value

    def set(self, value: Any) -> None:
        self._monitor.on_write(self._var, self._monitor._site())
        self._value = value


class VolatileVar:
    """A tracked volatile: reads acquire, writes release (JMM-style)."""

    __slots__ = ("_monitor", "_vol", "_value")

    def __init__(self, monitor: RaceMonitor, vol: int, initial: Any) -> None:
        self._monitor = monitor
        self._vol = vol
        self._value = initial

    def get(self) -> Any:
        self._monitor.on_vol_read(self._vol)
        return self._value

    def set(self, value: Any) -> None:
        self._value = value
        self._monitor.on_vol_write(self._vol)


class TrackedLock:
    """A reentrant lock whose acquire/release create HB edges."""

    def __init__(self, monitor: RaceMonitor, lock_id: int) -> None:
        self._monitor = monitor
        self._id = lock_id
        self._lock = threading.RLock()

    def acquire(self) -> None:
        self._lock.acquire()
        self._monitor.on_acquire(self._id)

    def release(self) -> None:
        self._monitor.on_release(self._id)
        self._lock.release()

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.release()


class TrackedThread:
    """A thread wrapper emitting fork/join happens-before edges.

    Appendix A joins a thread once, but ``threading.Thread.join`` may be
    called any number of times, from any number of threads, and each
    call that returns orders the thread's actions before the caller's
    next ones.  So the thread writes its own exit volatile as its last
    act: the first join to find it finished emits ``join``, and every
    later one reads that volatile, which gives it the same edge.
    """

    def __init__(
        self,
        monitor: RaceMonitor,
        target: Callable[..., Any],
        args: Tuple[Any, ...],
        kwargs: Dict[str, Any],
    ) -> None:
        self._monitor = monitor
        self._forked = threading.Event()
        #: the detector tid :meth:`RaceMonitor.on_fork` gave this thread
        self._tid: Optional[int] = None
        self._exit: Optional[VolatileVar] = None
        self._joined = False
        self._join_lock = threading.Lock()

        def runner() -> None:
            # Wait for the parent to record the fork edge, so no child
            # access can be analyzed before the happens-before edge exists.
            self._forked.wait()
            monitor._local.tid = self._tid
            try:
                target(*args, **kwargs)
            finally:
                self._exit.set(None)

        self._thread = threading.Thread(target=runner)

    def start(self) -> None:
        self._thread.start()
        mon = self._monitor
        self._tid = mon.on_fork()
        exit_vol = mon._intern(mon._vols, ("exit", self._tid), 200_000)
        self._exit = VolatileVar(mon, exit_vol, None)
        self._forked.set()

    def join(self, timeout: Optional[float] = None) -> None:
        """Join the thread: the first join that finds it finished emits
        ``join``, every later one reads the thread's exit volatile."""
        self._thread.join(timeout)
        if self._thread.is_alive():
            return
        with self._join_lock:
            first, self._joined = not self._joined, True
        if first:
            self._monitor.on_join(self._tid)
        else:
            self._exit.get()

    def is_alive(self) -> bool:
        return self._thread.is_alive()


class SamplingDriver:
    """Drives PACER's global sampling periods for live programs.

    The simulator toggles sampling at GC boundaries; real Python has no
    GC-boundary hook with the right granularity, so this driver uses a
    wall-clock period (the paper's mechanism is "toggle at periodic
    safepoints with probability r" — the clock stands in for the
    safepoint).  Start it around the threaded section::

        mon = RaceMonitor(detector=PacerDetector())
        driver = SamplingDriver(mon, rate=0.03, period_s=0.005)
        driver.start()
        ...run threads...
        driver.stop()

    All toggles go through the monitor's mutex, so they serialize with
    the analysis exactly like the paper's global sampling flag.
    """

    def __init__(
        self,
        monitor: RaceMonitor,
        rate: float,
        period_s: float = 0.005,
        rng: Optional[Any] = None,
    ) -> None:
        import random as _random

        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        self._monitor = monitor
        self.rate = rate
        self.period_s = period_s
        self._rng = rng or _random.Random()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.periods = 0
        self.sampled_periods = 0
        #: the sampling state fed so far; starts from the detector's own
        #: flag where it has one
        self._sampling = getattr(monitor.detector, "sampling", False)

    def _toggle_once(self) -> None:
        sample = self._rng.random() < self.rate
        self.periods += 1
        if sample:
            self.sampled_periods += 1
        with self._monitor._mutex:
            self._set_sampling(sample)

    def _set_sampling(self, sampling: bool) -> None:
        """Feed ``sbegin``/``send`` through the monitor when sampling
        changes state (mutex held), so period markers reach the detector
        and the flight recorder as trace events, exactly as offline."""
        if sampling != self._sampling:
            self._sampling = sampling
            kind = SBEGIN if sampling else SEND
            self._monitor._feed(KIND_TO_ID[kind], -1, 0, 0)

    def _loop(self) -> None:
        while not self._stop.wait(self.period_s):
            self._toggle_once()

    def start(self) -> "SamplingDriver":
        # decide the first period immediately, so short-lived threaded
        # sections still fall under the intended sampling regime
        self._toggle_once()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
        with self._monitor._mutex:
            self._set_sampling(False)

    def __enter__(self) -> "SamplingDriver":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()
