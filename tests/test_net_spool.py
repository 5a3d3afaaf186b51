"""The replay spool's on-disk format, pinned byte for byte.

A session's spool is ``u32 len || binio document`` per acknowledged
chunk.  The server writes the EVENTS payload it received, unchanged, so
the spool must equal exactly what the client sent.  Spools written by
decoding each chunk and re-encoding it with ``dumps_binary`` have the
same format and must replay through crash recovery to the same report,
and so must spools of v2 documents, which older clients sent.
"""

from __future__ import annotations

import json

from repro.cli import DETECTORS
from repro.net import ResilientClient, ServerConfig, TelemetryServer
from repro.obs import RunObserver, SyncIndex
from repro.obs.provenance import DEFAULT_WINDOW, FlightRecorder
from repro.obs.reports import build_report
from repro.trace.binio import VERSION, VERSION_2, dumps_binary
from repro.trace.generator import GeneratorConfig, random_trace

TRACE = random_trace(
    GeneratorConfig(length=400, sampling_period_prob=0.05, seed=3)
)
EVENTS = list(TRACE.events)
CHUNK = 37


def reencoded_spool(events, chunk_size: int, version: int = VERSION) -> bytes:
    """A spool written chunk by chunk with ``dumps_binary``."""
    out = bytearray()
    for start in range(0, len(events), chunk_size):
        payload = dumps_binary(events[start : start + chunk_size], version)
        out += len(payload).to_bytes(4, "little") + payload
    return bytes(out)


def canonical(report_doc: dict) -> str:
    doc = dict(report_doc)
    doc.pop("source")
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def offline(detector_name: str = "fasttrack"):
    det = DETECTORS[detector_name]()
    obs = RunObserver(recorder=FlightRecorder(window=DEFAULT_WINDOW))
    obs.attach(det)
    det.run(EVENTS)
    obs.finalize(det)
    doc = build_report(
        det.races, source="analyze", detector=det.name,
        backend=det.backend_name, rate=None, events=det.perf.events,
        contexts=obs.race_contexts, sync=SyncIndex.from_trace(TRACE),
        site_name=None,
    )
    return doc, det.counters.snapshot()


def test_spool_holds_exactly_the_sent_payloads(tmp_path, monkeypatch):
    sent = []
    send_chunk = ResilientClient._send_chunk

    def recording(self, chunk):
        sent.append(chunk.data)
        send_chunk(self, chunk)

    monkeypatch.setattr(ResilientClient, "_send_chunk", recording)
    config = ServerConfig(
        n_shards=1, shard_mode="inline", spool_dir=str(tmp_path)
    )
    with TelemetryServer(config) as server:
        client = ResilientClient(server.address, "spooled", chunk_size=CHUNK, retries=0)
        client.connect()
        client.send_events(EVENTS)
        assert client.close()["events"] == len(EVENTS)
    (spool,) = tmp_path.glob("*.spool")
    data = spool.read_bytes()
    assert len(sent) == -(-len(EVENTS) // CHUNK)
    assert data == b"".join(len(p).to_bytes(4, "little") + p for p in sent)
    assert data == reencoded_spool(EVENTS, CHUNK)


def test_reencoded_spool_replays_through_crash_recovery(tmp_path):
    off_doc, off_counters = offline()
    crash_at = 4  # the worker dies on its 4th chunk, after 3 were spooled
    config = ServerConfig(
        n_shards=1, shard_mode="process", spool_dir=str(tmp_path),
        crash_plan={0: crash_at},
    )
    head = (crash_at - 1) * CHUNK
    with TelemetryServer(config) as server:
        client = ResilientClient(
            server.address, "reencoded", detector="fasttrack", chunk_size=CHUNK,
            retries=0,
        )
        client.connect()
        client.send_events(EVENTS[:head])
        client.drain()
        (spool,) = tmp_path.glob("*.spool")
        spool.write_bytes(reencoded_spool(EVENTS[:head], CHUNK))
        client.send_events(EVENTS[head:])
        client.close()
        assert server.worker_restarts == 1
        sdoc = server.session_doc("reencoded")
    assert canonical(sdoc["report"]) == canonical(off_doc)
    assert sdoc["counters"] == off_counters


def test_v2_spool_is_adopted_after_a_restart(tmp_path):
    """A drained server's spool of v2 documents (what an older client
    sent) is adopted by the next server and replayed to the report of
    the uninterrupted run."""
    off_doc, off_counters = offline()
    spool_dir = tmp_path / "spool"

    def config():
        return ServerConfig(
            address=f"unix://{tmp_path}/t.sock", n_shards=1,
            shard_mode="inline", spool_dir=str(spool_dir), drain_timeout=2.0,
        )

    head = 5 * CHUNK
    server = TelemetryServer(config()).start()
    client = ResilientClient(
        server.address, "legacy", detector="fasttrack", chunk_size=CHUNK,
        retries=0,
    )
    client.connect()
    client.send_events(EVENTS[:head])
    client.drain()
    client.abort()
    assert server.drain()["drained"] == 1
    server.stop()
    (spool,) = spool_dir.glob("*.spool")
    spool.write_bytes(reencoded_spool(EVENTS[:head], CHUNK, VERSION_2))

    server = TelemetryServer(config()).start()
    try:
        assert server.adopted_sessions == 1
        assert client.reconnect().resume_seq == head // CHUNK
        client.send_events(EVENTS[head:])
        assert client.close()["events"] == len(EVENTS)
        sdoc = server.session_doc("legacy")
    finally:
        server.stop()
    assert canonical(sdoc["report"]) == canonical(off_doc)
    assert sdoc["counters"] == off_counters
