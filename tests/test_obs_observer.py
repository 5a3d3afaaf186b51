"""The run observer: probe determinism, sampling wave, disabled-path parity."""

import json

import pytest

from repro.core.pacer import PacerDetector
from repro.core.sampling import BiasCorrectedController
from repro.detectors import FastTrackDetector
from repro.obs import RunObserver, validate_chrome_trace
from repro.sim.runtime import Runtime, RuntimeConfig
from repro.sim.workloads import MICRO, build_program
from repro.trace.events import fork, join, rd, sbegin, send, wr
from repro.trace.generator import random_trace

from helpers import race_sigs


def small_trace():
    """A short trace with one sampling period and one write-write race."""
    return [
        fork(0, 1),
        sbegin(),
        wr(0, 1, site=1),
        wr(1, 1, site=2),  # races with the site-1 write
        rd(0, 2, site=3),
        send(),
        wr(0, 3, site=4),
        join(0, 1),
    ]


def replay(detector, events, batch_size=None):
    if batch_size is None:
        detector.run(events)
    else:
        detector.run_batch(events, batch_size)
    return detector


class TestHooks:
    def test_sampling_square_wave_recorded(self):
        obs = RunObserver()
        det = FastTrackDetector()
        obs.attach(det)
        replay(det, small_trace())
        obs.finalize(det)
        # vt counts applied events, so the sbegin at trace index 1 lands
        # at vt 2 (it is the second event applied)
        assert obs.sampling_marks == [(2, True), (6, False)]
        assert obs.sampling_periods() == [(2, 6)]
        assert obs.registry.counter("sampling_periods").value == 1

    def test_redundant_transitions_deduped(self):
        obs = RunObserver()
        det = FastTrackDetector()
        obs.attach(det)
        det.run([fork(0, 1), sbegin(), sbegin(), wr(0, 1), send(), send()])
        assert len(obs.sampling_marks) == 2

    def test_open_sampling_period_closes_at_final_vt(self):
        obs = RunObserver()
        det = FastTrackDetector()
        obs.attach(det)
        det.run([fork(0, 1), sbegin(), wr(0, 1), wr(1, 2)])
        obs.finalize(det)
        (period,) = obs.sampling_periods()
        assert period == (2, obs.final_vt)

    def test_batch_slices_cover_the_trace(self):
        obs = RunObserver()
        det = FastTrackDetector()
        obs.attach(det)
        replay(det, small_trace(), batch_size=3)
        starts = [vt for vt, _, _ in obs.batch_slices]
        sizes = [n for _, n, _ in obs.batch_slices]
        assert starts == [0, 3, 6]
        assert sum(sizes) == len(small_trace())

    def test_sample_every_must_be_positive(self):
        with pytest.raises(ValueError):
            RunObserver(sample_every=0)

    def test_probe_records_detector_state(self):
        obs = RunObserver()
        det = FastTrackDetector()
        obs.attach(det)
        replay(det, small_trace())
        obs.finalize(det)
        last = obs.timeline[-1]
        for key in ("vt", "sampling", "footprint_words", "live_vars",
                    "races", "threads", "reads_slow", "writes_slow"):
            assert key in last
        assert last["races"] == len(det.races) == 1
        assert last["live_vars"] == det.tracked_variables

    def test_finalize_is_idempotent(self):
        obs = RunObserver()
        det = FastTrackDetector()
        obs.attach(det)
        replay(det, small_trace())
        obs.finalize(det)
        events_once = obs.registry.counter("events").value
        n_probes = len(obs.timeline)
        obs.finalize(det)
        assert obs.registry.counter("events").value == events_once
        assert len(obs.timeline) == n_probes

    def test_finalize_fills_registry_totals(self):
        obs = RunObserver()
        det = FastTrackDetector()
        obs.attach(det)
        replay(det, small_trace(), batch_size=4)
        obs.finalize(det)
        snap = obs.registry.snapshot()["counters"]
        assert snap["events"] == len(small_trace())
        assert snap["races"] == 1
        assert snap["distinct_races"] == 1
        assert snap["batches"] == 2
        assert any(k.startswith("ops{op=") for k in snap)


class TestDeterminism:
    def _timeline(self, batch_size=None, sample_every=4):
        obs = RunObserver(sample_every=sample_every)
        det = FastTrackDetector()
        obs.attach(det)
        replay(det, small_trace(), batch_size)
        obs.finalize(det)
        return obs

    def test_timeline_jsonl_byte_identical_across_runs(self):
        a = self._timeline()
        b = self._timeline()
        assert a.timeline_jsonl() == b.timeline_jsonl()
        assert a.registry.to_json() == b.registry.to_json()

    def test_timeline_rows_are_compact_sorted_json(self):
        obs = self._timeline()
        lines = obs.timeline_jsonl().splitlines()
        assert lines
        for line in lines:
            rec = json.loads(line)
            assert list(rec) == sorted(rec)
            assert json.dumps(rec, sort_keys=True, separators=(",", ":")) == line

    def test_write_timeline_matches_jsonl(self, tmp_path):
        obs = self._timeline()
        path = tmp_path / "t.jsonl"
        obs.write_timeline(path)
        assert path.read_text() == obs.timeline_jsonl()


class TestProbeCadence:
    def _observe(self, events, splits):
        """Scalar ``run`` over ``events``, one call per piece."""
        obs = RunObserver(sample_every=64)
        det = PacerDetector()
        obs.attach(det)
        start = 0
        for end in splits + [len(events)]:
            det.run(events[start:end])
            start = end
        obs.finalize(det)
        return obs

    def test_split_scalar_run_probes_where_one_call_does(self):
        """Probes fall on global multiples of ``sample_every``, not on
        multiples of each call's own event count."""
        events = list(random_trace(sampling_period_prob=0.05))
        one = self._observe(events, [])
        assert [r["vt"] for r in one.timeline] == [64, 128, 192, 256, 320, 360]
        for splits in ([100], [1, 64, 65, 300]):
            split = self._observe(events, splits)
            assert split.timeline_jsonl() == one.timeline_jsonl(), splits
            assert split.registry.snapshot() == one.registry.snapshot(), splits


class TestDisabledParity:
    """Observation must not change what any detector computes."""

    @pytest.mark.parametrize("batch_size", [None, 3])
    def test_fasttrack_results_identical_with_observer(self, batch_size):
        plain = replay(FastTrackDetector(), small_trace(), batch_size)
        observed = FastTrackDetector()
        RunObserver().attach(observed)
        replay(observed, small_trace(), batch_size)
        assert race_sigs(observed.races) == race_sigs(plain.races)
        assert observed.counters.snapshot() == plain.counters.snapshot()
        assert observed.footprint_words() == plain.footprint_words()

    def test_pacer_live_run_identical_with_observer(self):
        def run(observer):
            import random

            runtime = Runtime(
                build_program(MICRO.scaled(0.5), trial_seed=7),
                PacerDetector(),
                controller=BiasCorrectedController(0.25, rng=random.Random(7)),
                config=RuntimeConfig(track_memory=False),
                seed=7,
                observer=observer,
            )
            runtime.run()
            return runtime

        plain = run(None)
        obs = RunObserver()
        observed = run(obs)
        assert race_sigs(observed.detector.races) == race_sigs(plain.detector.races)
        assert observed.detector.counters.snapshot() == plain.detector.counters.snapshot()
        assert observed.events == plain.events
        assert observed.gc_log == plain.gc_log
        # and the observer actually saw the run
        assert obs.registry.counter("gc_count").value == len(plain.gc_log)
        assert obs.registry.counter("events").value == plain.events
        assert obs.timeline


class TestTraceExport:
    def test_full_run_trace_validates(self, tmp_path):
        obs = RunObserver(sample_every=4)
        det = FastTrackDetector()
        obs.attach(det)
        replay(det, small_trace(), batch_size=3)
        obs.finalize(det)
        path = tmp_path / "p.json"
        obs.write_trace(path)
        doc = json.loads(path.read_text())
        assert validate_chrome_trace(doc) == []
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert {"M", "X", "C"} <= phases
        counters = {e["name"] for e in doc["traceEvents"] if e["ph"] == "C"}
        assert len(counters) >= 3
        sampling = [
            e for e in doc["traceEvents"]
            if e["ph"] == "X" and e.get("cat") == "sampling"
        ]
        assert len(sampling) == 1
