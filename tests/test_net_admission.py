"""Admission control and resume fencing, on TCP and Unix transports.

The two admission paths the resilience layer leans on, pinned over both
socket families the server speaks:

* **Session-limit BUSY** — a full server refuses *new* sessions with
  the named ``busy`` error carrying ``retry_after`` (clients back off
  instead of erroring out), while resumes of existing sessions are
  always admitted: they finish work the server already holds durable
  state for.
* **Resume fencing** — when connections race to resume one session
  (the reconnect storm a server restart causes), the owner token fences
  every superseded connection: its frames get the named
  ``session-state`` error, nothing it sends can interleave into the
  stream, and the final report is exactly the uncontended one.
"""

from __future__ import annotations

import json
import socket
import tempfile
import threading

import pytest

from repro.cli import DETECTORS
from repro.net import (
    ResilientClient,
    ServerConfig,
    TelemetryServer,
)
from repro.net.protocol import (
    ErrorMessage,
    EventsChunk,
    FrameDecoder,
    Hello,
    HelloAck,
    ServerBusy,
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

TRANSPORTS = ["tcp", "unix"]


def make_address(kind: str) -> str:
    if kind == "tcp":
        return "tcp://127.0.0.1:0"
    return f"unix://{tempfile.mkdtemp(prefix='repro-net-')}/t.sock"


class Conn:
    """A hand-driven protocol connection over either transport."""

    def __init__(self, address: str):
        from repro.net.client import parse_address

        kind, target = parse_address(address)
        if kind == "tcp":
            self.sock = socket.create_connection(target, timeout=10.0)
        else:
            self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
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

    def expect_error(self, code: str) -> ErrorMessage:
        msg = self.recv_msg()
        assert isinstance(msg, ErrorMessage), f"expected ERROR, got {msg}"
        assert msg.error_code == code, f"{msg.error_code}: {msg.detail}"
        return msg

    def close(self) -> None:
        self.sock.close()


def offline_report(backend: str = "object"):
    det = DETECTORS["fasttrack"](backend=backend)
    obs = RunObserver(recorder=FlightRecorder(window=DEFAULT_WINDOW))
    obs.attach(det)
    det.run(EVENTS)
    obs.finalize(det)
    return build_report(
        det.races, source="analyze", detector=det.name,
        backend=det.backend_name, rate=None, events=det.perf.events,
        contexts=obs.race_contexts, sync=SyncIndex.from_trace(TRACE),
        site_name=None,
    )


def canonical(report_doc: dict) -> str:
    doc = dict(report_doc)
    doc.pop("source")
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("kind", TRANSPORTS)
def test_session_limit_answers_busy_with_retry_after(kind):
    config = ServerConfig(
        address=make_address(kind), n_shards=1, shard_mode="inline",
        max_sessions=1, busy_retry_after=0.5,
    )
    with TelemetryServer(config) as server:
        first = Conn(server.address)
        first.hello("occupant")
        # a second *new* session is shed with the named BUSY error
        second = Conn(server.address)
        second.send(Hello(session="overflow"))
        err = second.expect_error("busy")
        assert "session limit" in err.detail
        assert err.retry_after == 0.5
        second.close()
        # ...but a resume of the admitted session always passes
        first.close()
        back = Conn(server.address)
        ack = back.hello("occupant", resume=True)
        assert ack.resume_seq == 0
        back.close()
        assert server.metrics.counter("net_shed_sessions").value == 1


@pytest.mark.parametrize("kind", TRANSPORTS)
def test_resilient_client_backs_off_on_busy_then_surfaces_it(kind):
    config = ServerConfig(
        address=make_address(kind), n_shards=1, shard_mode="inline",
        max_sessions=1, busy_retry_after=0.01,
    )
    with TelemetryServer(config) as server:
        occupant = Conn(server.address)
        occupant.hello("occupant")
        rc = ResilientClient(
            server.address, "overflow", retries=2,
            backoff_base=0.001, backoff_max=0.01,
        )
        with pytest.raises(ServerBusy):
            rc.connect()
        assert rc.retry_count == 2  # the budget was spent backing off
        assert rc.backoff_seconds > 0
        occupant.close()


@pytest.mark.parametrize("kind", TRANSPORTS)
def test_resume_fencing_takeover_storm(kind):
    """Racing resumes: only the latest owner's frames are admitted."""
    off_doc = offline_report()
    config = ServerConfig(
        address=make_address(kind), n_shards=1, shard_mode="inline",
    )
    with TelemetryServer(config) as server:
        client = ResilientClient(
            server.address, "storm", backend="object", chunk_size=37, retries=0
        )
        client.connect()
        half = len(EVENTS) // 2
        client.send_events(EVENTS[:half])
        client.abort()  # dirty disconnect: the server still sees it attached

        # the storm: a burst of connections all resuming the session;
        # each takeover fences the previous owner
        flash = []
        acks = []
        for _ in range(4):
            conn = Conn(server.address)
            acks.append(conn.hello("storm", resume=True))
            flash.append(conn)
        loser = flash[-2]
        # every connection is fenced now except the last, and nothing
        # is sending: the applied sequence is frozen at the last ack
        applied = acks[-1].resume_seq
        # the superseded connection's in-flight chunk is rejected with
        # the named fencing error and is NOT applied
        loser.send(
            EventsChunk(seq=applied + 1, events=tuple(EVENTS[:3]))
        )
        err = loser.expect_error("session-state")
        assert "superseded" in err.detail
        for conn in flash:
            conn.close()

        # concurrent flapping: resumes racing from threads must each
        # either win cleanly or be fenced — never corrupt the stream
        def flap():
            conn = Conn(server.address)
            conn.hello("storm", resume=True)
            conn.close()

        threads = [threading.Thread(target=flap) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        # the real client resumes last (one more takeover) and finishes
        ack = client.reconnect()
        assert ack.resume_seq == applied
        client.send_events(EVENTS[half:])
        summary = client.close()
        sdoc = server.session_doc("storm")
        takeovers = server.metrics.counter("net_session_takeovers").value
    assert summary["events"] == len(EVENTS)
    assert canonical(sdoc["report"]) == canonical(off_doc)
    # each sequential flash resume supersedes a still-open owner; the
    # flapping threads and final resume may add more (timing-dependent)
    assert takeovers >= 3
