"""The real-threads frontend (repro.live)."""

import sys
import threading

from repro import PacerDetector
from repro.live import RaceMonitor
from repro.live import monitor as monitor_module
from repro.net.client import ForwardingDetector
from repro.trace.trace import Trace


def spawn_and_join(mon, target, n):
    threads = [mon.thread(target) for _ in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return threads


class TestRacyPrograms:
    def test_unsynchronized_counter_reported(self):
        mon = RaceMonitor()
        counter = mon.shared("counter", 0)

        def bump():
            for _ in range(30):
                counter.set(counter.get() + 1)

        spawn_and_join(mon, bump, 3)
        assert len(mon.detector.races) > 0

    def test_report_names_real_source_lines(self):
        mon = RaceMonitor()
        flag = mon.shared("flag", False)

        def poke():
            flag.set(True)

        spawn_and_join(mon, poke, 2)
        assert mon.detector.races
        text = mon.describe_races()
        assert "test_live.py" in text


class TestCleanPrograms:
    def test_locked_counter_clean(self):
        mon = RaceMonitor()
        counter = mon.shared("counter", 0)
        lock = mon.lock("guard")

        def bump():
            for _ in range(30):
                with lock:
                    counter.set(counter.get() + 1)

        spawn_and_join(mon, bump, 3)
        assert mon.detector.races == []
        assert counter.get() == 90

    def test_fork_join_publication_clean(self):
        mon = RaceMonitor()
        box = mon.shared("box", None)

        def child():
            box.set("written-by-child")

        box.set("init")
        t = mon.thread(child)
        t.start()
        t.join()
        assert box.get() == "written-by-child"
        assert mon.detector.races == []

    def test_volatile_publication_clean(self):
        mon = RaceMonitor()
        data = mon.shared("data", 0)
        ready = mon.volatile("ready", False)

        def producer():
            data.set(42)
            ready.set(True)

        t = mon.thread(producer)
        t.start()
        t.join()  # join also orders, but the volatile edge alone suffices
        assert ready.get() is True
        assert data.get() == 42
        assert mon.detector.races == []


class TestMonitorMachinery:
    def test_custom_detector_accepted(self):
        mon = RaceMonitor(detector=PacerDetector(sampling=True))
        v = mon.shared("v", 0)

        def touch():
            v.set(1)

        spawn_and_join(mon, touch, 2)
        assert len(mon.detector.races) > 0

    def test_variable_names_interned(self):
        mon = RaceMonitor()
        a1 = mon.shared("same", 0)
        a2 = mon.shared("same", 0)
        assert a1._var == a2._var
        assert mon.shared("other", 0)._var != a1._var

    def test_reentrant_tracked_lock(self):
        mon = RaceMonitor()
        lock = mon.lock("re")
        with lock:
            with lock:
                pass  # no deadlock, no error

    def test_site_names_resolvable(self):
        mon = RaceMonitor()
        v = mon.shared("v", 0)
        v.set(1)
        site = next(iter(mon._site_names))
        assert ":" in mon.site_name(site)
        assert mon.site_name(99_999).startswith("site#")


class RecyclingIdents:
    """The ``threading`` module as the monitor sees it, except that every
    thread but the one that built it reports the same ident — as CPython
    does when it hands an exited thread's ident to a new thread."""

    RECYCLED = 4242

    def __init__(self):
        self._owner = threading.get_ident()

    def __getattr__(self, name):
        return getattr(threading, name)

    def get_ident(self):
        ident = threading.get_ident()
        return ident if ident == self._owner else self.RECYCLED


class TestThreadIdentity:
    def _one_after_the_other(self, mon):
        """Two tracked threads write ``x`` in turn; neither is joined
        before the other starts."""
        x = mon.shared("x", 0)
        threads = []
        for value in (1, 2):
            done = threading.Event()

            def write(value=value, done=done):
                x.set(value)
                done.set()

            t = mon.thread(write)
            t.start()
            assert done.wait(10)
            threads.append(t)
        for t in threads:
            t.join(10)
            assert not t.is_alive()

    def test_recycled_ident_gets_a_fresh_tid(self, monkeypatch):
        monkeypatch.setattr(monitor_module, "threading", RecyclingIdents())
        mon = RaceMonitor()
        self._one_after_the_other(mon)
        assert len(mon.detector.races) == 1
        assert sorted(mon.detector._threads) == [0, 1, 2]

    def test_join_names_the_thread_it_forked(self, monkeypatch):
        monkeypatch.setattr(monitor_module, "threading", RecyclingIdents())
        fwd = ForwardingDetector()
        self._one_after_the_other(RaceMonitor(detector=fwd))
        edges = [(e.kind, e.tid, e.target) for e in fwd.buffer
                 if e.kind in ("fork", "join")]
        assert edges == [("fork", 0, 1), ("fork", 0, 2),
                         ("join", 0, 1), ("join", 0, 2)]
        Trace(fwd.buffer).validate()

    def test_untracked_thread_on_a_recycled_ident_is_a_new_thread(
        self, monkeypatch
    ):
        """A plain ``threading.Thread`` handed a joined tracked thread's
        ident acts as a thread of its own, unordered with that one."""
        monkeypatch.setattr(monitor_module, "threading", RecyclingIdents())
        fwd = ForwardingDetector()
        mon = RaceMonitor()
        for m in (mon, RaceMonitor(detector=fwd)):
            x = m.shared("x", 0)
            writer = m.thread(x.set, 1)
            writer.start()
            writer.join(10)
            plain = threading.Thread(target=x.set, args=(2,))
            plain.start()
            plain.join(10)
        assert len(mon.detector.races) == 1
        assert sorted(mon.detector._threads) == [0, 1, 2]
        Trace(fwd.buffer).validate()

    def test_second_join_reads_the_exit_volatile(self):
        fwd = ForwardingDetector()
        mon = RaceMonitor(detector=fwd)
        x = mon.shared("x", 0)
        t = mon.thread(x.set, 1)
        t.start()
        t.join(10)
        t.join(10)  # threading.Thread allows it; Appendix A joins once
        assert not t.is_alive()
        kinds = [e.kind for e in fwd.buffer]
        assert kinds == ["fork", "wr", "vol_wr", "join", "vol_rd"]
        assert fwd.buffer[2].target == fwd.buffer[4].target
        Trace(fwd.buffer).validate()

    def test_concurrent_joins_emit_one_join(self):
        fwd = ForwardingDetector()
        mon = RaceMonitor(detector=fwd)
        x = mon.shared("x", 0)
        child = mon.thread(x.set, 1)
        child.start()
        joiners = [mon.thread(child.join, 10) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for j in joiners:
                j.start()
            for j in joiners:
                j.join(10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in joiners + [child])
        joins = [e for e in fwd.buffer if e.kind == "join"]
        assert [e.target for e in joins].count(child._tid) == 1
        assert len(joins) == 1 + len(joiners)
        # every other joiner reads the child's exit volatile instead
        exit_vol = child._exit._vol
        ordered = [e.tid for e in fwd.buffer
                   if e.kind == "join" and e.target == child._tid
                   or e.kind == "vol_rd" and e.target == exit_vol]
        assert sorted(ordered) == sorted(j._tid for j in joiners)
        Trace(fwd.buffer).validate()

    def test_every_joiner_is_ordered_after_the_thread(self):
        """Two threads join one worker, then read what it wrote: only
        one of them can emit Appendix A's ``join``, and neither races."""
        for det in (None, PacerDetector(sampling=True), ForwardingDetector()):
            mon = RaceMonitor(detector=det)
            result = mon.shared("result", None)
            worker = mon.thread(result.set, 42)

            def await_result():
                worker.join(10)
                assert result.get() == 42

            worker.start()
            spawn_and_join(mon, await_result, 2)
            if isinstance(det, ForwardingDetector):
                Trace(det.buffer).validate()
            else:
                assert mon.detector.races == []


class TestSamplingDriver:
    def _racy_run(self, rate, seed=0):
        import random

        from repro.core.pacer import PacerDetector
        from repro.live import SamplingDriver

        mon = RaceMonitor(detector=PacerDetector())
        v = mon.shared("v", 0)

        def churn():
            for _ in range(300):
                v.set(v.get() + 1)

        driver = SamplingDriver(
            mon, rate=rate, period_s=0.001, rng=random.Random(seed)
        )
        with driver:
            spawn_and_join(mon, churn, 3)
        return mon, driver

    def test_always_sampling_detects(self):
        mon, driver = self._racy_run(rate=1.0)
        assert driver.sampled_periods == driver.periods
        assert len(mon.detector.races) > 0

    def test_never_sampling_detects_nothing(self):
        mon, driver = self._racy_run(rate=0.0)
        assert driver.sampled_periods == 0
        assert mon.detector.races == []
        assert mon.detector.tracked_variables == 0

    def test_stop_leaves_sampling_off(self):
        mon, driver = self._racy_run(rate=1.0)
        assert mon.detector.sampling is False

    def test_rate_validated(self):
        from repro.live import SamplingDriver

        mon = RaceMonitor()
        import pytest

        with pytest.raises(ValueError):
            SamplingDriver(mon, rate=1.5)


class TestFinalizeSemantics:
    """Regression: finalize must be idempotent *and* re-entrant.

    The telemetry server finalizes a session's observer at every
    disconnect and query, then again after a resume delivers more
    events.  Historically the totals were written with ``inc()``, so a
    second finalize double-counted every metric; now they are absolute
    assignments guarded by a state snapshot.
    """

    def _observed_racy_run(self):
        from repro.obs import RunObserver

        obs = RunObserver()
        mon = RaceMonitor(observer=obs)
        counter = mon.shared("counter", 0)

        def bump():
            for _ in range(10):
                counter.set(counter.get() + 1)

        spawn_and_join(mon, bump, 2)
        return mon, obs

    def test_double_finalize_is_a_noop(self):
        mon, obs = self._observed_racy_run()
        mon.finalize()
        first = obs.registry.snapshot()
        first_timeline = len(obs.timeline)
        mon.finalize()
        mon.finalize()
        assert obs.registry.snapshot() == first
        # a repeat with identical detector state emits no extra probe
        assert len(obs.timeline) == first_timeline

    def test_refinalize_after_more_events_refreshes(self):
        mon, obs = self._observed_racy_run()
        mon.finalize()
        events_before = obs.registry.counter("events").value
        races_before = obs.registry.counter("races").value

        counter = mon.shared("counter2", 0)

        def bump():
            for _ in range(10):
                counter.set(counter.get() + 1)

        spawn_and_join(mon, bump, 2)
        mon.finalize()
        reg = obs.registry
        # absolute totals: refreshed to the new state, never doubled
        assert reg.counter("events").value == mon.detector._events_seen
        assert reg.counter("events").value > events_before
        assert reg.counter("races").value == len(mon.detector.races)
        assert reg.counter("races").value >= races_before
        assert reg.counter("distinct_races").value == len(
            mon.detector.distinct_races
        )

    def test_finalize_after_disconnect_matches_offline(self):
        """Server-style finalize(disconnect) + finalize(close) equals a
        single offline finalize over the same events."""
        from repro.cli import DETECTORS
        from repro.obs import RunObserver
        from repro.trace.generator import random_trace

        events = list(random_trace(length=300, seed=3).events)
        half = len(events) // 2

        # offline baseline: one run, one finalize
        base = DETECTORS["fasttrack"]()
        base_obs = RunObserver()
        base_obs.attach(base)
        base.run(events)
        base_obs.finalize(base)

        # streamed shape: finalize mid-stream (disconnect), then resume
        det = DETECTORS["fasttrack"]()
        obs = RunObserver()
        obs.attach(det)
        det.run(events[:half])
        obs.finalize(det)  # disconnect folds progress
        det.run(events[half:])
        obs.finalize(det)  # clean close
        assert obs.registry.snapshot() == base_obs.registry.snapshot()
