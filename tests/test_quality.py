"""Detection-quality accounting (``repro.obs.quality``).

Pins the tentpole contracts of the coverage layer:

* ``repro/coverage-report/v1`` is a pure function of counters, marks,
  and races — byte-identical across state backends and between the
  streamed and offline paths (modulo the ``source`` label);
* the live :class:`RaceMonitor`/:class:`SamplingDriver` records the
  same sampling marks an offline replay of the same event sequence
  sees, and the two coverage documents agree;
* the matrix-level proportionality audit confirms detection ∝ sampling
  rate within the Wilson 95% interval on seeded workloads.
"""

import json
import random

import pytest

from repro.analysis.parallel import expand_matrix, matrix_coverage, run_matrix
from repro.core.backend import BACKENDS
from repro.core.pacer import PacerDetector
from repro.core.sampling import BiasCorrectedController
from repro.detectors import FastTrackDetector
from repro.live import RaceMonitor
from repro.live.monitor import SamplingDriver
from repro.obs import FlightRecorder, RunObserver
from repro.obs.quality import (
    COVERAGE_SCHEMA,
    build_coverage,
    effective_rate_ci,
    merge_coverage,
    render_coverage,
    sync_op_split,
    validate_coverage,
    write_coverage,
)
from repro.sim.runtime import Runtime, RuntimeConfig
from repro.sim.scheduler import run_program
from repro.sim.workloads import WORKLOADS, build_program
from repro.trace.events import fork, rd, sbegin, send, wr

X = 1


def _doc_bytes(doc):
    return json.dumps(doc, indent=2, sort_keys=True).encode()


def _live_run(backend=None, rate=0.1, seed=5, scale=0.4, workload="micro"):
    """One seeded live PACER run; returns (runtime, detector, observer)."""
    detector = PacerDetector(backend=backend)
    obs = RunObserver()
    runtime = Runtime(
        build_program(WORKLOADS[workload].scaled(scale), seed),
        detector,
        controller=BiasCorrectedController(rate, rng=random.Random(seed)),
        config=RuntimeConfig(track_memory=False),
        seed=seed,
        observer=obs,
    )
    runtime.run()
    return runtime, detector, obs


def _live_coverage(backend=None, **kwargs):
    runtime, detector, obs = _live_run(backend=backend, **kwargs)
    return build_coverage(
        source="detect",
        detector=detector.name,
        workload="micro",
        nominal_rate=kwargs.get("rate", 0.1),
        counters=detector.counters.snapshot(),
        marks=obs.sampling_marks,
        races=detector.races,
        events=runtime.events,
    )


class TestBuildAndValidate:
    def test_sync_op_split(self):
        counters = {
            "joins_slow_sampling": 3, "joins_fast_sampling": 4,
            "copies_deep_sampling": 2, "copies_shallow_sampling": 1,
            "joins_slow_nonsampling": 10, "copies_deep_nonsampling": 20,
            "reads_fast_sampling": 999,  # access counters never count
        }
        assert sync_op_split(counters) == (10, 40)

    def test_effective_rate_ci_empty(self):
        assert effective_rate_ci(0, 0) == (0.0, None)

    def test_build_valid_document(self):
        doc = _live_coverage()
        assert doc["schema"] == COVERAGE_SCHEMA
        assert validate_coverage(doc) == []
        assert 0.0 < doc["sync"]["effective_rate"] < 1.0
        assert doc["periods"]["count"] > 0
        # attribution is total: every race is in or out of a period
        races = doc["races"]
        assert races["first_in_period"] + races["unattributed"] == races["dynamic"]

    def test_always_on_detector_rate_is_one(self):
        detector = FastTrackDetector()
        detector.run(run_program(build_program(
            WORKLOADS["micro"].scaled(0.3), 1), seed=1))
        doc = build_coverage(
            source="analyze", detector=detector.name,
            counters=detector.counters.snapshot(), races=detector.races,
            events=detector.perf.events,
        )
        assert validate_coverage(doc) == []
        assert doc["sync"]["effective_rate"] == 1.0
        assert doc["estimate"]["true_dynamic"] == len(detector.races)

    def test_validation_catches_corruption(self):
        doc = _live_coverage()
        bad = json.loads(json.dumps(doc))
        bad["sync"]["sampled"] = bad["sync"]["total"] + 1
        assert validate_coverage(bad)
        bad = json.loads(json.dumps(doc))
        bad["races"]["first_in_period"] = None
        assert validate_coverage(bad)
        del doc["estimate"]
        assert validate_coverage(doc)
        assert validate_coverage("nope")
        assert validate_coverage({"schema": "other/v9"})

    def test_write_is_deterministic(self, tmp_path):
        doc = _live_coverage()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_coverage(a, doc)
        write_coverage(b, json.loads(json.dumps(doc)))
        assert a.read_bytes() == b.read_bytes()

    def test_render_smoke(self):
        text = render_coverage(_live_coverage())
        assert "effective sampling rate" in text
        assert "estimated true dynamic races" in text


class TestAuditor:
    def test_reentrant_accumulation(self):
        """Building coverage is pure: a second build over the same run
        gives an equal document, nothing accumulates between calls."""
        runtime, detector, obs = _live_run()

        def build():
            return build_coverage(
                source="audit", detector=detector.name, nominal_rate=0.1,
                counters=detector.counters.snapshot(),
                marks=obs.sampling_marks, races=detector.races,
                events=runtime.events,
            )

        first = build()
        assert build() == first
        assert validate_coverage(first) == []
        sampled, total = sync_op_split(detector.counters.snapshot())
        assert sampled / total == pytest.approx(
            first["sync"]["effective_rate"], abs=1e-9
        )


class TestMerge:
    def test_merge_pools_sync_ops(self):
        docs = [_live_coverage(seed=s) for s in (1, 2)]
        merged = merge_coverage(docs, source="merged")
        assert validate_coverage(merged) == []
        assert merged["sync"]["sampled"] == sum(
            d["sync"]["sampled"] for d in docs
        )
        assert merged["trials"] == 2
        assert merged["races"]["dynamic"] == sum(
            d["races"]["dynamic"] for d in docs
        )

    def test_merge_is_associative(self):
        docs = [_live_coverage(seed=s) for s in (1, 2, 3)]
        left = merge_coverage([merge_coverage(docs[:2])] + docs[2:])
        right = merge_coverage(docs[:1] + [merge_coverage(docs[1:])])
        # labels collapse identically; compare everything but source
        left.pop("source"), right.pop("source")
        assert left == right

    def test_merge_empty(self):
        doc = merge_coverage([], source="telemetry")
        assert validate_coverage(doc) == []
        assert doc["trials"] == 0 and doc["sync"]["total"] == 0


class TestBackendParity:
    def test_byte_identical_across_backends(self):
        """The acceptance bar: one run's coverage document is the same
        bytes no matter which state backend analyzed it."""
        blobs = {
            backend: _doc_bytes(_live_coverage(backend=backend))
            for backend in BACKENDS
        }
        reference = blobs[BACKENDS[0]]
        assert all(blob == reference for blob in blobs.values()), (
            "coverage documents differ across state backends"
        )


class TestStreamedVsOffline:
    def test_telemetry_equals_offline_modulo_source(self):
        """A streamed session's coverage equals offline analysis of the
        same trace — ``source`` is the only differing field."""
        from repro.net import ResilientClient, ServerConfig, TelemetryServer

        events = [
            fork(0, 1), fork(0, 2),
            sbegin(), wr(1, X, site=11), wr(2, X, site=12), send(),
            rd(1, X, site=13), wr(2, X, site=14),
            sbegin(), rd(1, X, site=15), send(),
        ]
        # offline: the analyze path (observer marks from on_sampling)
        detector = PacerDetector()
        obs = RunObserver()
        obs.attach(detector)
        detector.run(events)
        obs.finalize(detector)
        offline = build_coverage(
            source="analyze", detector=detector.name,
            counters=detector.counters.snapshot(), marks=obs.sampling_marks,
            races=detector.races, events=detector.perf.events,
        )
        with TelemetryServer(
            ServerConfig(shard_mode="inline", n_shards=2)
        ) as server:
            client = ResilientClient(
                server.address, "parity", detector="pacer", chunk_size=3, retries=0
            )
            client.connect()
            client.send_events(events)
            client.close()
            streamed = server.session_doc("parity")["coverage"]
        assert validate_coverage(streamed) == []
        assert streamed["source"] == "telemetry"
        assert offline["source"] == "analyze"
        assert dict(streamed, source=None) == dict(offline, source=None)


class TestLiveOfflineParity:
    def test_sampling_mark_and_coverage_parity(self):
        """Satellite: the live monitor + driver record the same
        sbegin/send marks an offline replay of the same sequence sees,
        and both sides build the same coverage document."""
        monitor = RaceMonitor(
            detector=PacerDetector(),
            observer=RunObserver(recorder=FlightRecorder()),
        )
        driver = SamplingDriver(monitor, rate=0.5, rng=random.Random(9))
        x = monitor.shared("x")
        # drive the period clock by hand: deterministic, single-threaded
        script = []

        def step(n=1):
            for _ in range(n):
                driver._toggle_once()
                script.append(("toggle", driver.sampled_periods))

        step()
        x.set(1)
        x.set(2)
        step(3)
        v = x.get()
        assert v == 2
        step(2)
        x.set(3)
        driver.stop()
        monitor.finalize()
        live_marks = list(monitor.observer.recorder.sampling_marks)
        assert live_marks, "driver recorded no sampling transitions"

        # offline replay: same accesses, sbegin/send at the marked vts —
        # live marks advance the clock like any other event, so each one
        # sits at its own vt and the replay puts it back exactly there
        accesses = iter([
            wr(0, 0, site="a"), wr(0, 0, site="b"),
            rd(0, 0, site="c"), wr(0, 0, site="d"),
        ])
        marks = dict(live_marks)
        events = [
            (sbegin() if marks[vt] else send()) if vt in marks
            else next(accesses)
            for vt in range(len(marks) + 4)
        ]
        assert next(accesses, None) is None
        detector = PacerDetector(sampling=False)
        obs = RunObserver(recorder=FlightRecorder())
        obs.attach(detector)
        detector.run(events)
        obs.finalize(detector)
        offline_marks = list(obs.recorder.sampling_marks)
        assert offline_marks == live_marks
        assert obs.sampling_marks == monitor.observer.sampling_marks

        live_cov = monitor.coverage_report(nominal_rate=0.5)
        offline_cov = build_coverage(
            source="live", detector=detector.name, nominal_rate=0.5,
            counters=detector.counters.snapshot(), marks=obs.sampling_marks,
            races=detector.races, events=detector.perf.events,
        )
        assert validate_coverage(live_cov) == []
        assert live_cov["periods"] == offline_cov["periods"]
        assert live_cov["sync"] == offline_cov["sync"]


class TestMatrixAudit:
    def test_detection_proportional_within_wilson(self):
        """Acceptance: on a seeded workload the audit confirms detection
        rate ∝ sampling rate within the Wilson 95% interval at three
        rates spanning two orders of magnitude."""
        rates = [0.01, 0.1, 0.5]
        tasks = expand_matrix(
            workloads=["pseudojbb"],
            detectors=["fasttrack", "pacer"],
            rates=[None] + rates,
            seeds=range(8),
            scale=0.2,
        )
        results = run_matrix(tasks, jobs=4)
        doc = matrix_coverage(tasks, results)
        assert validate_coverage(doc) == []
        audit = {row["rate"]: row for row in doc["audit"]}
        assert sorted(audit) == rates
        for rate in rates:
            row = audit[rate]
            assert row["baseline"] == "fasttrack"
            assert row["baseline_races"] > 0
            assert row["trials"] == 8
            assert row["expected_occurrences"] > 0
            assert row["consistent"] is True, (
                f"rate {rate}: {row['detected']}/"
                f"{row['expected_occurrences']} dynamic races "
                f"inconsistent with effective rate "
                f"{row['effective_rate']} (CI {row['ci95']})"
            )
        # the curve is monotone in expectation; pin the seeded outcome
        detected = [audit[rate]["detected"] for rate in rates]
        assert detected == sorted(detected)

    def test_jobs_independent(self):
        tasks = expand_matrix(
            workloads=["micro"], detectors=["fasttrack", "pacer"],
            rates=[None, 0.1], seeds=range(2), scale=0.2,
        )
        doc1 = matrix_coverage(tasks, run_matrix(tasks, jobs=1))
        doc2 = matrix_coverage(tasks, run_matrix(tasks, jobs=2))
        assert _doc_bytes(doc1) == _doc_bytes(doc2)


class TestTopQualityPanel:
    def test_quality_keys_always_present(self):
        from repro.net import build_top_status, render_top, validate_top_status

        status = build_top_status({"sessions": [], "report": {}, "metrics": {},
                                   "server": {}})
        assert validate_top_status(status) == []
        qual = status["quality"]
        assert qual["effective_rate"] is None
        assert qual["sync_total"] == 0
        assert "quality:" in render_top(status)
