"""The streaming contract while a session's chunks are pipelined.

The front tier submits each chunk to its shard without waiting for it,
so up to the credit window of a session's chunks are on the shard at
once, and the thread that reads the shard's replies retires them in
sequence order: spool, advance the applied sequence, CREDIT.  These
cases pin what that must not change, each on inline and process shards
where it applies:

* a CREDIT never leaves before its chunk's spool record, and CREDITs
  come in sequence order;
* a refused chunk stops the session exactly there, even with the
  chunks behind it already submitted: the spool, the counters and a
  later resume all see the chunks before it and nothing else;
* a worker crash with several chunks in flight changes nothing;
* a CLOSE right behind the last EVENTS counts every event;
* a dirty disconnect with chunks in flight, then drain and restart,
  leaves a manifest that agrees with the spool and a session that
  resumes to the offline report;
* the window bounds the pipeline, and the shard queue depth shows it.
"""

from __future__ import annotations

import json
import shutil
import socket
import tempfile
import zlib
from pathlib import Path

import pytest

import repro.net.client as client_module
from repro.cli import DETECTORS
from repro.net import ResilientClient, ServerConfig, TelemetryServer
from repro.net.protocol import (
    Close,
    CloseAck,
    Credit,
    EventsChunk,
    FrameDecoder,
    Hello,
    HelloAck,
    PayloadError,
    chunk_events,
    decode_message,
    encode_message,
)
from repro.obs import RunObserver, SyncIndex
from repro.obs.provenance import DEFAULT_WINDOW, FlightRecorder
from repro.obs.reports import build_report
from repro.trace.generator import GeneratorConfig, random_trace

TRACE = random_trace(
    GeneratorConfig(length=600, sampling_period_prob=0.05, seed=0)
)
EVENTS = list(TRACE.events)
CHUNK = 37
CHUNKS = list(chunk_events(EVENTS, CHUNK, 1))
SHARD_MODES = ["inline", "process"]

#: a v2 document of one event with kind id 200, under a valid CRC: only
#: the shard, decoding the records, sees that it is broken
BROKEN_DOC = b"PACR" + bytes([2, 1, 200, 1, 1, 0])
BROKEN_DOC += zlib.crc32(BROKEN_DOC).to_bytes(4, "little")


def offline(events):
    """The ``repro analyze --report-out`` pipeline, inline."""
    det = DETECTORS["fasttrack"]()
    obs = RunObserver(recorder=FlightRecorder(window=DEFAULT_WINDOW))
    obs.attach(det)
    det.run(events)
    obs.finalize(det)
    doc = build_report(
        det.races, source="analyze", detector=det.name,
        backend=det.backend_name, rate=None, events=det.perf.events,
        contexts=obs.race_contexts, sync=SyncIndex.from_trace(events),
        site_name=None,
    )
    return doc, det.counters.snapshot()


def canonical(report_doc: dict) -> str:
    doc = dict(report_doc)
    doc.pop("source")
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def spooled(chunks) -> bytes:
    """The spool bytes of ``chunks``, in order."""
    return b"".join(len(c.data).to_bytes(4, "little") + c.data for c in chunks)


def spool_records(path: Path):
    """The documents of a spool file, in order."""
    data = path.read_bytes() if path.exists() else b""
    records, pos = [], 0
    while pos < len(data):
        size = int.from_bytes(data[pos:pos + 4], "little")
        records.append(data[pos + 4:pos + 4 + size])
        pos += 4 + size
    return records


class Conn:
    """A hand-driven protocol connection over either transport."""

    def __init__(self, address: str):
        kind, target = client_module.parse_address(address)
        family = socket.AF_INET if kind == "tcp" else socket.AF_UNIX
        self.sock = socket.socket(family, socket.SOCK_STREAM)
        self.sock.settimeout(10.0)
        self.sock.connect(target)
        self.decoder = FrameDecoder()
        self.frames = []

    def send(self, msg) -> None:
        self.sock.sendall(encode_message(msg))

    def recv_msg(self):
        while not self.frames:
            data = self.sock.recv(65536)
            assert data, "server closed without a reply"
            self.frames.extend(self.decoder.feed(data))
        return decode_message(self.frames.pop(0))

    def hello(self, name: str, resume: bool = False) -> HelloAck:
        self.send(Hello(session=name, resume=resume))
        ack = self.recv_msg()
        assert isinstance(ack, HelloAck), ack
        return ack

    def close(self) -> None:
        self.sock.close()


def queue_depth_high(server) -> int:
    return server.metrics.gauge("net_shard_queue_depth", shard=0).high


@pytest.mark.parametrize("shard_mode", SHARD_MODES)
def test_credits_follow_their_spool_records_in_order(shard_mode, tmp_path):
    config = ServerConfig(
        n_shards=1, shard_mode=shard_mode, spool_dir=str(tmp_path),
        chunk_delay=0.01,
    )
    with TelemetryServer(config) as server:
        conn = Conn(server.address)
        window = conn.hello("ordered").credits
        for chunk in CHUNKS[:window]:
            conn.send(chunk)
        sent, acked = window, 0
        while acked < len(CHUNKS):
            credit = conn.recv_msg()
            assert isinstance(credit, Credit)
            assert credit.ack == acked + 1  # in seq order, none skipped
            acked = credit.ack
            (spool,) = tmp_path.glob("*.spool")
            records = spool_records(spool)
            # the chunk was spooled before its CREDIT left
            assert records[:acked] == [c.data for c in CHUNKS[:acked]]
            if sent < len(CHUNKS):
                conn.send(CHUNKS[sent])
                sent += 1
        conn.send(Close(seq=len(CHUNKS)))
        ack = conn.recv_msg()
        assert isinstance(ack, CloseAck)
        assert ack.summary["events"] == len(EVENTS)
        conn.close()
        if shard_mode == "process":
            assert queue_depth_high(server) >= 2  # the pipeline was used


@pytest.mark.parametrize("shard_mode", SHARD_MODES)
def test_refused_chunk_ends_the_session_there(shard_mode, tmp_path, monkeypatch):
    refused = 3

    def with_a_broken_chunk(events, size, first):
        for chunk in chunk_events(events, size, first):
            if chunk.seq == refused:
                chunk = EventsChunk.from_data(chunk.seq, BROKEN_DOC, 1)
            yield chunk

    monkeypatch.setattr(client_module, "chunk_events", with_a_broken_chunk)
    config = ServerConfig(
        n_shards=1, shard_mode=shard_mode, spool_dir=str(tmp_path),
        chunk_delay=0.02,
    )
    with TelemetryServer(config) as server:
        client = ResilientClient(
            server.address, "refused", detector="fasttrack",
            chunk_size=CHUNK, retries=0,
        )
        client.connect()
        with pytest.raises(PayloadError, match="unknown kind id 200"):
            client.send_events(EVENTS)
            client.drain()
        assert client.next_seq - 1 > refused  # chunks behind it were sent
        if shard_mode == "process":
            # ...and were on the shard with it
            assert queue_depth_high(server) > refused
        (spool,) = tmp_path.glob("*.spool")
        assert spool.read_bytes() == spooled(CHUNKS[:refused - 1])
        head = EVENTS[:(refused - 1) * CHUNK]
        doc = server.session_doc("refused")
        assert (doc["events"], doc["chunks"]) == (len(head), refused - 1)
        assert doc["counters"] == offline(head)[1]

        # a resume from the refused chunk, with good chunks, completes
        conn = Conn(server.address)
        assert conn.hello("refused", resume=True).resume_seq == refused - 1
        for chunk in CHUNKS[refused - 1:]:
            conn.send(chunk)
            credit = conn.recv_msg()
            assert isinstance(credit, Credit) and credit.ack == chunk.seq
        conn.send(Close(seq=len(CHUNKS)))
        ack = conn.recv_msg()
        assert isinstance(ack, CloseAck)
        assert ack.summary["events"] == len(EVENTS)
        conn.close()
        sdoc = server.session_doc("refused")
    off_doc, off_counters = offline(EVENTS)
    assert canonical(sdoc["report"]) == canonical(off_doc)
    assert sdoc["counters"] == off_counters


def test_worker_crash_with_chunks_in_flight():
    def run(crash_plan):
        config = ServerConfig(
            n_shards=1, shard_mode="process", chunk_delay=0.005,
            crash_plan=crash_plan,
        )
        with TelemetryServer(config) as server:
            client = ResilientClient(
                server.address, "crashy", detector="fasttrack",
                chunk_size=CHUNK, retries=0,
            )
            client.connect()
            client.send_events(EVENTS)
            summary = client.close()
            return {
                "summary": summary,
                "merged": server.query_doc()["report"],
                "session": server.session_doc("crashy"),
                "restarts": server.worker_restarts,
                "depth": queue_depth_high(server),
                "sent": client.next_seq - 1,
            }

    crashed, clean = run({0: 5}), run(None)
    assert (crashed["restarts"], clean["restarts"]) == (1, 0)
    assert crashed["depth"] >= 3  # several chunks were on the shard
    assert json.dumps(crashed["merged"], sort_keys=True) == json.dumps(
        clean["merged"], sort_keys=True
    )
    assert crashed["session"]["chunks"] == crashed["sent"] == len(CHUNKS)
    assert crashed["summary"] == clean["summary"]
    assert canonical(crashed["session"]["report"]) == canonical(offline(EVENTS)[0])


@pytest.mark.parametrize("shard_mode", SHARD_MODES)
def test_close_right_behind_the_last_events_counts_them(shard_mode):
    chunks = CHUNKS[:8]
    config = ServerConfig(n_shards=1, shard_mode=shard_mode, chunk_delay=0.01)
    with TelemetryServer(config) as server:
        conn = Conn(server.address)
        conn.hello("closer")
        for chunk in chunks:
            conn.send(chunk)
        conn.send(Close(seq=len(chunks)))
        acks = [conn.recv_msg() for _ in chunks]
        assert [m.ack for m in acks] == [c.seq for c in chunks]
        ack = conn.recv_msg()
        assert isinstance(ack, CloseAck)
        assert ack.summary["events"] == sum(c.count for c in chunks)
        assert ack.summary["chunks"] == len(chunks)
        conn.close()


@pytest.mark.parametrize("shard_mode", SHARD_MODES)
def test_disconnect_in_flight_then_drain_restart_resume(shard_mode):
    workdir = tempfile.mkdtemp(prefix="repro-net-")
    spool_dir = Path(workdir) / "spool"

    def config():
        return ServerConfig(
            address=f"unix://{workdir}/t.sock", n_shards=1,
            shard_mode=shard_mode, spool_dir=str(spool_dir),
            chunk_delay=0.02, drain_timeout=5.0,
        )

    try:
        server = TelemetryServer(config()).start()
        client = ResilientClient(
            server.address, "drainy", detector="fasttrack",
            chunk_size=CHUNK, retries=0,
        )
        client.connect()
        half = 9 * CHUNK
        client.send_events(EVENTS[:half])
        assert client.unacked  # chunks in flight...
        client.abort()  # ...when the connection dies without CLOSE
        assert server.drain()["drained"] == 1
        server.stop()
        manifest = json.loads((spool_dir / "sessions.json").read_text())
        (entry,) = manifest["sessions"]
        records = spool_records(spool_dir / entry["spool"])
        assert entry["applied_seq"] == entry["chunks"] == len(records)
        assert records == [c.data for c in CHUNKS[:len(records)]]

        server = TelemetryServer(config()).start()
        try:
            assert server.adopted_sessions == 1
            assert client.reconnect().resume_seq == entry["applied_seq"]
            client.send_events(EVENTS[half:])
            summary = client.close()
            sdoc = server.session_doc("drainy")
        finally:
            server.stop()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    assert summary["events"] == len(EVENTS)
    off_doc, off_counters = offline(EVENTS)
    assert canonical(sdoc["report"]) == canonical(off_doc)
    assert sdoc["counters"] == off_counters


@pytest.mark.parametrize("shard_mode", SHARD_MODES)
def test_window_bounds_the_chunks_on_the_shard(shard_mode, tmp_path):
    """A client that ignores its window still gets at most ``credits``
    chunks of its session onto the shard."""
    config = ServerConfig(
        n_shards=1, shard_mode=shard_mode, spool_dir=str(tmp_path),
        credits=2, chunk_delay=0.03,
    )
    chunks = CHUNKS[:8]
    with TelemetryServer(config) as server:
        conn = Conn(server.address)
        conn.hello("greedy")
        for chunk in chunks:
            conn.send(chunk)
        assert [conn.recv_msg().ack for _ in chunks] == [c.seq for c in chunks]
        conn.close()
        depth = queue_depth_high(server)
    assert depth == (2 if shard_mode == "process" else 1)
    (spool,) = tmp_path.glob("*.spool")
    assert spool.read_bytes() == spooled(chunks)


def test_queue_depth_histogram_shows_the_pipeline():
    config = ServerConfig(n_shards=1, shard_mode="process", chunk_delay=0.005)
    with TelemetryServer(config) as server:
        client = ResilientClient(
            server.address, "deep", chunk_size=CHUNK, retries=0
        )
        client.connect()
        client.send_events(EVENTS)
        client.close()
        hist = server.metrics.histogram("net_shard_queue_depth_hist")
    assert hist.buckets[0] == 1
    assert sum(hist.counts[1:]) > 0  # a depth of 2 or more was recorded
