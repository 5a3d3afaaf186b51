"""Differential parity: streaming detection ≡ offline ``repro analyze``.

The telemetry server's whole claim is that moving detection behind a
wire changes *nothing* about the analysis: a workload streamed through
the server in arbitrary chunks — through real worker processes, across
disconnect/resume, even across an injected worker crash — must yield
byte-identical races, counters, and ``repro/race-report/v1`` documents
to running the same events through a detector in one process.  "Modulo
session metadata" means exactly one field: ``source`` says
``"telemetry"`` instead of ``"analyze"``.

Pinned on both state backends (``object`` and ``packed``) and for both
an always-on detector (FASTTRACK) and the sampling one (PACER).
"""

from __future__ import annotations

import json

import pytest

from repro.cli import DETECTORS
from repro.core.backend import BACKENDS as AVAILABLE_BACKENDS
from repro.net import ResilientClient, ServerConfig, TelemetryServer
from repro.net.client import DEFAULT_CHUNK_SIZE
from repro.obs import RunObserver, SyncIndex
from repro.obs.provenance import DEFAULT_WINDOW, FlightRecorder
from repro.obs.reports import build_report, validate_report
from repro.trace.generator import GeneratorConfig, random_trace

BACKENDS = list(AVAILABLE_BACKENDS)
DETECTOR_NAMES = ["fasttrack", "pacer"]

#: racy seeded workload with sampling periods (exercises PACER's
#: proportionality bookkeeping through the wire too)
TRACE = random_trace(
    GeneratorConfig(length=600, sampling_period_prob=0.05, seed=0)
)
EVENTS = list(TRACE.events)


def offline_report(detector_name: str, backend: str, events=EVENTS):
    """The ``repro analyze --report-out`` pipeline, inline."""
    det = DETECTORS[detector_name](backend=backend)
    obs = RunObserver(recorder=FlightRecorder(window=DEFAULT_WINDOW))
    obs.attach(det)
    det.run(events)
    obs.finalize(det)
    doc = build_report(
        det.races,
        source="analyze",
        detector=det.name,
        backend=det.backend_name,
        rate=None,
        events=det.perf.events,
        contexts=obs.race_contexts,
        sync=SyncIndex.from_trace(events),
        site_name=None,
    )
    return doc, det.counters.snapshot(), obs.registry.snapshot()


def streamed_report(detector_name: str, backend: str, events=EVENTS, **kwargs):
    """The same events pushed through a server session."""
    chunk_size = kwargs.pop("chunk_size", 37)  # odd: never batch-aligned
    config = ServerConfig(n_shards=2, **kwargs)
    with TelemetryServer(config) as server:
        client = ResilientClient(
            server.address,
            "parity",
            detector=detector_name,
            backend=backend,
            chunk_size=chunk_size, retries=0,
        )
        client.connect()
        client.send_events(events)
        summary = client.close()
        doc = server.session_doc("parity")
    return doc, summary


def canonical(report_doc: dict) -> str:
    """Deterministic JSON with the one legitimate difference removed."""
    doc = dict(report_doc)
    doc.pop("source")
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("detector_name", DETECTOR_NAMES)
def test_streamed_report_byte_identical(detector_name, backend):
    off_doc, off_counters, _ = offline_report(detector_name, backend)
    sdoc, summary = streamed_report(
        detector_name, backend, shard_mode="process"
    )
    streamed = sdoc["report"]
    assert streamed["source"] == "telemetry"
    assert off_doc["source"] == "analyze"
    assert canonical(streamed) == canonical(off_doc)
    assert not validate_report(streamed)
    # the operation counters — the paper's cost accounting — match too
    assert sdoc["counters"] == off_counters
    assert summary["events"] == len(EVENTS)
    assert summary["races"] == off_doc["dynamic_races"]
    assert summary["distinct_races"] == off_doc["distinct_races"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_parity_survives_chunking_choices(backend):
    """Chunk size is invisible: 1-event frames equal 500-event frames."""
    off_doc, _, _ = offline_report("fasttrack", backend)
    for chunk_size in (1, 193, 5000):
        sdoc, _ = streamed_report(
            "fasttrack", backend, shard_mode="inline", chunk_size=chunk_size
        )
        assert canonical(sdoc["report"]) == canonical(off_doc), chunk_size


@pytest.mark.parametrize("backend", BACKENDS)
def test_parity_survives_disconnect_and_resume(backend):
    """A mid-stream disconnect plus resume retransmit changes nothing."""
    off_doc, off_counters, _ = offline_report("fasttrack", backend)
    with TelemetryServer(ServerConfig(n_shards=2, shard_mode="process")) as server:
        client = ResilientClient(
            server.address, "parity", detector="fasttrack",
            backend=backend, chunk_size=37, retries=0,
        )
        client.connect()
        half = len(EVENTS) // 2
        client.send_events(EVENTS[:half])
        client.abort()  # dirty disconnect: no CLOSE, unacked state kept
        ack = client.reconnect()
        assert ack.resume_seq <= client.next_seq - 1
        client.send_events(EVENTS[half:])
        summary = client.close()
        sdoc = server.session_doc("parity")
    assert summary["events"] == len(EVENTS)  # exactly-once despite retransmit
    assert canonical(sdoc["report"]) == canonical(off_doc)
    assert sdoc["counters"] == off_counters


@pytest.mark.parametrize("backend", BACKENDS)
def test_parity_survives_worker_crash(backend):
    """A crashed shard worker is respawned and replayed: same report."""
    off_doc, off_counters, _ = offline_report("fasttrack", backend)
    with TelemetryServer(
        ServerConfig(
            n_shards=2,
            shard_mode="process",
            crash_plan={0: 3, 1: 3},  # whichever shard owns the session
        )
    ) as server:
        client = ResilientClient(
            server.address, "parity", detector="fasttrack",
            backend=backend, chunk_size=37, retries=0,
        )
        client.connect()
        client.send_events(EVENTS)
        client.close()
        sdoc = server.session_doc("parity")
        assert server.worker_restarts == 1
    assert canonical(sdoc["report"]) == canonical(off_doc)
    assert sdoc["counters"] == off_counters


def test_multi_session_merge_is_deterministic():
    """Independent sessions fold into one deterministic merged report."""
    docs = []
    for _ in range(2):
        with TelemetryServer(ServerConfig(n_shards=3, shard_mode="inline")) as server:
            for i, detector_name in enumerate(("fasttrack", "pacer", "eraser")):
                client = ResilientClient(
                    server.address, f"s{i}", detector=detector_name,
                    chunk_size=53, retries=0,
                )
                client.connect()
                client.send_events(EVENTS)
                client.close()
            doc = server.query_doc()
            docs.append(doc)
            assert [s["session"] for s in doc["sessions"]] == ["s0", "s1", "s2"]
            assert all(s["state"] == "closed" for s in doc["sessions"])
    merged0, merged1 = docs[0]["report"], docs[1]["report"]
    assert json.dumps(merged0, sort_keys=True) == json.dumps(merged1, sort_keys=True)
    assert merged0["events"] == 3 * len(EVENTS)
    assert not validate_report(merged0)


@pytest.fixture(scope="module")
def long_events():
    """~50k events: past several probe periods (``sample_every`` 4096)."""
    trace = random_trace(
        GeneratorConfig(length=20000, sampling_period_prob=0.05, seed=3)
    )
    return list(trace.events)


def test_metrics_match_offline_totals(long_events):
    """The per-session metrics snapshot carries the offline totals —
    gauge ``high`` peaks too, which depend on where probes fall, so the
    chunk size must not move them — and the report is byte-identical,
    at the client's default chunk size among others."""
    for detector_name in DETECTOR_NAMES:
        for backend in BACKENDS:
            off_doc, _, off_metrics = offline_report(
                detector_name, backend, long_events
            )
            for chunk_size in (37, DEFAULT_CHUNK_SIZE, 5000):
                sdoc, _ = streamed_report(
                    detector_name, backend, long_events,
                    shard_mode="inline", chunk_size=chunk_size,
                )
                assert canonical(sdoc["report"]) == canonical(off_doc), (
                    detector_name, backend, chunk_size)
                streamed = sdoc["metrics"]
                for key in ("counters", "gauges"):
                    for name, value in off_metrics[key].items():
                        assert streamed[key][name] == value, (
                            detector_name, backend, chunk_size, name)
