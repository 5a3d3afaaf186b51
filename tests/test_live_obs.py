"""Live monitor wired into the observability stack."""

import random
import sys
import threading

from repro.core.pacer import PacerDetector
from repro.live import RaceMonitor, SamplingDriver
from repro.live import monitor as monitor_module
from repro.obs import FlightRecorder, MetricsRegistry, RunObserver, SyncIndex
from repro.obs.reports import validate_report


def observed_monitor(window=32, detector=None):
    registry = MetricsRegistry()
    obs = RunObserver(registry=registry, recorder=FlightRecorder(window=window))
    mon = RaceMonitor(detector=detector, observer=obs)
    return mon, obs, registry


def run_racy(mon, n_threads=2, rounds=5):
    flag = mon.shared("flag", False)

    def poke():
        for _ in range(rounds):
            flag.set(True)

    threads = [mon.thread(poke) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


class TestLiveObserverWiring:
    def test_finalize_emits_offline_style_metrics(self):
        mon, _obs, registry = observed_monitor()
        run_racy(mon)
        mon.finalize()
        counters = registry.snapshot()["counters"]
        run_keys = [k for k in counters if k.startswith("detector_runs")]
        assert run_keys and counters[run_keys[0]] == 1
        assert counters["races"] == len(mon.detector.races) > 0
        assert counters["events"] == mon.detector._events_seen > 0

    def test_finalize_without_observer_is_noop(self):
        mon = RaceMonitor()
        run_racy(mon)
        mon.finalize()  # must not raise

    def test_races_carry_real_indices_and_string_sites(self):
        mon, _obs, _registry = observed_monitor()
        run_racy(mon)
        race = mon.detector.races[0]
        assert race.index >= 0
        assert isinstance(race.first_site, str) and "test_live_obs.py" in race.first_site
        assert isinstance(race.second_site, str)

    def test_on_race_captures_flight_recorder_context(self):
        mon, obs, _registry = observed_monitor()
        run_racy(mon)
        assert len(obs.race_contexts) == len(mon.detector.races) > 0
        ctx = obs.race_contexts[0]
        assert ctx["second"]["events"]
        assert any(
            "test_live_obs.py" in str(ev["site"]) for ev in ctx["second"]["events"]
        )


class TestLiveRaceReport:
    def test_report_validates_and_names_source_lines(self):
        mon, _obs, _registry = observed_monitor()
        run_racy(mon)
        mon.finalize()
        doc = mon.race_report()
        assert validate_report(doc) == []
        assert doc["source"] == "live"
        assert doc["detector"] == mon.detector.name
        assert doc["dynamic_races"] == len(mon.detector.races)
        g = doc["races"][0]
        assert "test_live_obs.py" in g["first_site_name"]
        witness = g["witness"]
        assert witness is not None
        assert witness["source"] == "flight-recorder"
        assert witness["complete"] is False
        assert witness["verdict"] in ("no-release", "sync-gap")

    def test_describe_races_renders_report_table(self):
        mon, _obs, _registry = observed_monitor()
        run_racy(mon)
        text = mon.describe_races()
        assert "test_live_obs.py" in text
        assert "witness" in text

    def test_report_without_observer_still_builds(self):
        mon = RaceMonitor()
        run_racy(mon)
        doc = mon.race_report()
        assert validate_report(doc) == []
        assert doc["races"][0]["witness"] is None
        assert "test_live_obs.py" in doc["races"][0]["first_site_name"]

    def test_recorder_snapshot_taken_under_the_mutex(self, monkeypatch):
        """Tracked threads add to the recorder's per-thread logs while
        they run, so ``race_report`` must copy them under the monitor
        mutex (else: "dictionary changed size during iteration")."""
        mon, _obs, _registry = observed_monitor()
        run_racy(mon)
        held = []

        class Spy(monitor_module.SyncIndex):
            @classmethod
            def from_recorder(cls, recorder):
                held.append(mon._mutex.locked())
                return SyncIndex.from_recorder(recorder)

        monkeypatch.setattr(monitor_module, "SyncIndex", Spy)
        doc = mon.race_report()
        assert held == [True]
        assert validate_report(doc) == []

    def test_reports_while_tracked_threads_run(self):
        """Stress: five waves of 200 tracked threads each take a lock (a
        new sync log per thread) while a reporter loops ``race_report``
        and ``coverage_report``, with a tiny switch interval."""
        mon, _obs, _registry = observed_monitor(detector=PacerDetector())
        lock = mon.lock("L")
        stop = threading.Event()
        errors = []

        def report():
            while not stop.is_set():
                try:
                    assert validate_report(mon.race_report()) == []
                    mon.coverage_report()
                except Exception as exc:  # surfaced by the assert below
                    errors.append(exc)
                    return

        def body():
            with lock:
                pass

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        reporter = threading.Thread(target=report)
        threads = []
        try:
            reporter.start()
            for _ in range(5):
                wave = [mon.thread(body) for _ in range(200)]
                for t in wave:
                    t.start()
                for t in wave:
                    t.join(timeout=30)
                threads += wave
        finally:
            stop.set()
            reporter.join(timeout=30)
            sys.setswitchinterval(old)
        assert not reporter.is_alive()
        assert not any(t.is_alive() for t in threads)
        assert errors == []


class TestLiveSamplingAttribution:
    def test_driver_mirrors_marks_into_recorder(self):
        mon, obs, _registry = observed_monitor(detector=PacerDetector())
        driver = SamplingDriver(
            mon, rate=1.0, period_s=0.5, rng=random.Random(0)
        )
        with driver:
            run_racy(mon, rounds=20)
        marks = obs.recorder.sampling_marks
        assert marks and marks[0][1] is True
        assert marks[-1][1] is False
        mon.finalize()
        doc = mon.race_report()
        assert validate_report(doc) == []
        witnesses = [g["witness"] for g in doc["races"] if g["witness"]]
        assert witnesses
        # always-sampling: every caught race attributes to period 0
        for witness in witnesses:
            assert witness["sampling"] is not None
            assert witness["sampling"]["second_period"] == 0
