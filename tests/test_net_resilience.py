"""Service resilience end-to-end: chaos, self-healing, overload, drain.

The four resilience layers, each pinned against the differential-parity
invariant (streamed detection ≡ offline analyze, byte-identical):

* **Wire chaos** — a :class:`~repro.net.chaos.ChaosProxy` between a
  :class:`~repro.net.ResilientClient` and the server injects dropped
  connections, corrupted/truncated frames, duplicates, and delays from
  a seeded fault plan; zero chunks may be lost and the merged report
  must equal the uncontended offline run on every state backend.
* **Self-healing client** — reconnect-with-resume is automatic, the
  backoff schedule is seeded (replayable), ``close()``/``drain()`` are
  exception-safe and idempotent on a dead socket.
* **Overload protection** — per-session spool quotas evict (durably —
  progress survives), the aggregate memory watermark throttles credits
  and answers new sessions BUSY, the sweeper sheds slow clients; every
  refusal is a *named* wire error carrying ``retry_after``.
* **Graceful drain/restart** — ``drain()`` stops accepting, flushes
  spools plus a session manifest, flips ``/healthz`` to 503; a server
  restarted on the same spool directory re-adopts every session and a
  resuming client finishes with a byte-identical report.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cli import DETECTORS
from repro.core.backend import BACKENDS as AVAILABLE_BACKENDS
from repro.net import (
    ChaosProxy,
    ResilientClient,
    ServerConfig,
    TelemetryServer,
)
from repro.net.chaos import wire_plan
from repro.net.protocol import (
    FrameDecoder,
    HandshakeError,
    Hello,
    HelloAck,
    ProtocolError,
    ServerBusy,
    SessionEvicted,
    decode_message,
    encode_message,
)
from repro.obs import RunObserver, SyncIndex
from repro.obs.provenance import DEFAULT_WINDOW, FlightRecorder
from repro.obs.reports import build_report
from repro.trace.generator import GeneratorConfig, random_trace

BACKENDS = list(AVAILABLE_BACKENDS)

TRACE = random_trace(
    GeneratorConfig(length=600, sampling_period_prob=0.05, seed=0)
)
EVENTS = list(TRACE.events)

#: the CI soak plan: every wire fault kind, seed-selected, bounded so
#: the stream always terminates once the budgets are spent
CHAOS_PLAN = (
    "conn_drop@seed%17=3*3;frame_corrupt@seed%19=5*3;"
    "frame_truncate@seed%23=7*2;dup@seed%13=2*4;delay@seed%11=1*5"
)
CHAOS_SEED = 7


def offline_report(detector_name: str, backend: str):
    """The ``repro analyze --report-out`` pipeline, inline."""
    det = DETECTORS[detector_name](backend=backend)
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


def canonical(report_doc: dict) -> str:
    doc = dict(report_doc)
    doc.pop("source")
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


class Conn:
    """A hand-driven protocol connection (TCP or Unix)."""

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

    def close(self) -> None:
        self.sock.close()


# -- wire chaos ---------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_chaos_soak_zero_lost_chunks_byte_identical(backend):
    """Sustained wire faults lose nothing and change nothing."""
    off_doc, off_counters = offline_report("fasttrack", backend)
    config = ServerConfig(
        n_shards=2, shard_mode="inline", busy_retry_after=0.01
    )
    with TelemetryServer(config) as server:
        with ChaosProxy(
            "tcp://127.0.0.1:0", server.address,
            plan=CHAOS_PLAN, seed=CHAOS_SEED,
        ) as proxy:
            client = ResilientClient(
                proxy.address, "chaos", detector="fasttrack",
                backend=backend, chunk_size=37, retries=12,
                backoff_base=0.01, backoff_max=0.2,
            )
            client.connect()
            client.send_events(EVENTS)
            summary = client.close()
            # the chaos actually happened, including link-severing kinds
            assert proxy.fired() > 0
            severed = (
                proxy.stats["conn_drop"] + proxy.stats["frame_corrupt"]
                + proxy.stats["frame_truncate"]
            )
            assert severed > 0
            assert client.retry_count > 0
        sdoc = server.session_doc("chaos")
        retries_metric = server.metrics.counter("net_retries_total").value
    assert summary["events"] == len(EVENTS)  # zero lost chunks
    assert canonical(sdoc["report"]) == canonical(off_doc)
    assert sdoc["counters"] == off_counters
    # the server mined the client's reconnect instants into telemetry
    assert retries_metric >= 1


def test_chaos_plan_is_replayable():
    """The fault decision is a pure function of (plan, seed, position).

    Live runs can't pin whole-run stats (how many frames each
    connection carries depends on thread scheduling), but for any given
    frame *position* the decision must be identical on every run — that
    is what makes a CI failure reproducible from its plan + seed alone.
    """
    from repro.net.chaos import _frame_seed

    def schedule():
        proxy = ChaosProxy(
            "tcp://127.0.0.1:0", "tcp://127.0.0.1:1",
            plan=CHAOS_PLAN, seed=CHAOS_SEED,
        )  # never started: _match needs no sockets
        fired = []
        for conn in range(4):
            for frame in range(40):
                rule = proxy._match(
                    frame, _frame_seed(CHAOS_SEED, conn, frame)
                )
                fired.append(rule.kind if rule else None)
        return fired

    first, second = schedule(), schedule()
    assert first == second
    kinds = {kind for kind in first if kind}
    # every wire kind in the plan fires somewhere in this window, and
    # each respects its *times* budget across the whole schedule
    assert kinds == {"conn_drop", "frame_corrupt", "frame_truncate",
                     "dup", "delay"}
    assert first.count("conn_drop") == 3
    assert first.count("frame_truncate") == 2


def test_transparent_proxy_is_invisible():
    """No plan -> the proxy must not perturb parity at all."""
    off_doc, _ = offline_report("fasttrack", "object")
    with TelemetryServer(ServerConfig(n_shards=1, shard_mode="inline")) as server:
        with ChaosProxy("tcp://127.0.0.1:0", server.address) as proxy:
            client = ResilientClient(
                proxy.address, "clear", backend="object", chunk_size=37, retries=0
            )
            client.connect()
            client.send_events(EVENTS)
            summary = client.close()
            assert proxy.fired() == 0
            assert proxy.stats["frames"] > 0
        sdoc = server.session_doc("clear")
    assert summary["events"] == len(EVENTS)
    assert canonical(sdoc["report"]) == canonical(off_doc)


# -- self-healing client ------------------------------------------------------


def test_backoff_is_seeded_and_replayable(monkeypatch):
    delays = []
    monkeypatch.setattr(time, "sleep", lambda s: delays.append(s))
    schedules = []
    for _ in range(2):
        delays.clear()
        rc = ResilientClient("tcp://127.0.0.1:1", "sess", seed=1234)
        for attempt in range(5):
            rc._backoff(attempt, None)
        schedules.append(list(delays))
        assert rc.backoff_seconds == pytest.approx(sum(delays))
    assert schedules[0] == schedules[1]
    # exponential shape: later attempts never back off less than half
    # the cap would allow at attempt 0
    assert schedules[0][4] > schedules[0][0]


def test_backoff_honors_server_retry_after(monkeypatch):
    delays = []
    monkeypatch.setattr(time, "sleep", lambda s: delays.append(s))
    rc = ResilientClient("tcp://127.0.0.1:1", "sess", seed=1)
    exc = ServerBusy("busy")
    exc.retry_after = 7.5
    rc._backoff(0, exc)
    assert delays == [7.5]  # the advised quiet floors the tiny base delay


def test_close_and_drain_are_exception_safe_on_dead_socket():
    """Satellite regression: a dead socket never raises out of close()."""
    config = ServerConfig(n_shards=1, shard_mode="inline")
    with TelemetryServer(config) as server:
        client = ResilientClient(server.address, "deadsock", chunk_size=37, retries=0)
        client.connect()
        client.send_events(EVENTS[:200])
        assert client.unacked  # chunks sent, credits not yet pumped
        # the transport dies under the client without its knowledge
        client._sock.close()
        summary = client.close()  # must not raise
        assert summary == {}
        assert isinstance(client.close_error, (OSError, ProtocolError))
        # idempotent: a second close is a quiet no-op
        assert client.close() == {}
        # drain() with unacked chunks and no socket names the remedy
        client2 = ResilientClient(server.address, "deadsock2", chunk_size=37, retries=0)
        client2.connect()
        client2.send_events(EVENTS[:200])
        assert client2.unacked
        client2.abort()
        with pytest.raises(ProtocolError, match="resume"):
            client2.drain()
        # ...and the remedy works: resume, drain, close, full summary
        client2.reconnect()
        client2.drain()
        assert not client2.unacked
        client2.send_events(EVENTS[200:])
        summary2 = client2.close()
        assert summary2["events"] == len(EVENTS)


def test_resilient_close_completes_handshake_after_wire_death():
    """The resilient close() re-resumes until the summary arrives."""
    config = ServerConfig(n_shards=1, shard_mode="inline")
    with TelemetryServer(config) as server:
        rc = ResilientClient(
            server.address, "healclose", chunk_size=37,
            backoff_base=0.001, backoff_max=0.01,
        )
        rc.connect()
        rc.send_events(EVENTS)
        rc._sock.close()  # wire dies right before CLOSE
        summary = rc.close()
        assert summary["events"] == len(EVENTS)
        assert rc.retry_count >= 1
        assert rc.close() == summary  # idempotent


def test_second_client_cannot_take_over_a_session_name():
    """A first HELLO refused with "already exists" raises: the name is
    another client's, even when that session is closed."""
    config = ServerConfig(n_shards=1, shard_mode="inline")
    with TelemetryServer(config) as server:
        first = ResilientClient(server.address, "s", chunk_size=50)
        first.connect()
        first.send_events(EVENTS[:312])
        assert first.close()["events"] == 312
        before = server.session_doc("s")
        second = ResilientClient(
            server.address, "s", chunk_size=50,
            backoff_base=0.001, backoff_max=0.01,
        )
        with pytest.raises(HandshakeError, match="already exists"):
            second.connect()
        assert second.retry_count == 0
        assert not second.connected
        after = server.session_doc("s")
    assert after["events"] == before["events"] == 312
    assert canonical(after["report"]) == canonical(before["report"])


def test_lost_first_hello_ack_resumes_the_session_it_opened(monkeypatch):
    """The HELLO opened the session but its ack died on the wire: the
    retry is refused with "already exists" and resumes instead."""
    off_doc, off_counters = offline_report("fasttrack", "object")
    wait_for = ResilientClient._wait_for
    lost = []

    def lose_first_ack(self, kind):
        msg = wait_for(self, kind)
        if isinstance(msg, HelloAck) and not lost:
            lost.append(msg)
            raise ConnectionResetError("HELLO_ACK lost on the wire")
        return msg

    monkeypatch.setattr(ResilientClient, "_wait_for", lose_first_ack)
    config = ServerConfig(n_shards=1, shard_mode="inline")
    with TelemetryServer(config) as server:
        rc = ResilientClient(
            server.address, "half-open", backend="object", chunk_size=37,
            backoff_base=0.001, backoff_max=0.01,
        )
        rc.connect()
        rc.send_events(EVENTS)
        summary = rc.close()
        sdoc = server.session_doc("half-open")
    assert len(lost) == 1
    assert rc.retry_count == 1
    assert summary["events"] == sdoc["events"] == len(EVENTS)
    assert canonical(sdoc["report"]) == canonical(off_doc)
    assert sdoc["counters"] == off_counters


def test_monitor_defaults_to_resilient_client():
    from repro.net.client import TelemetryMonitor

    config = ServerConfig(n_shards=1, shard_mode="inline")
    with TelemetryServer(config) as server:
        tm = TelemetryMonitor(server.address, "mon-resilient")
        assert isinstance(tm.client, ResilientClient)
        counter = tm.shared("counter", 0)
        t = tm.thread(lambda: counter.set(counter.get() + 1))
        t.start()
        t.join()
        summary = tm.close()
        assert summary["events"] > 0


# -- overload protection ------------------------------------------------------


def test_spool_quota_evicts_with_named_error_and_retry_after():
    config = ServerConfig(
        n_shards=1, shard_mode="inline",
        spool_quota_bytes=1, busy_retry_after=0.25,
    )
    with TelemetryServer(config) as server:
        client = ResilientClient(server.address, "piggy", chunk_size=37, retries=0)
        client.connect()
        with pytest.raises(SessionEvicted) as excinfo:
            # chunk 1 is applied+acked then trips the quota; chunk 2 is
            # still unacked, so drain() must pump into the ERROR frame
            client.send_events(EVENTS[:74])
            client.drain()
        assert excinfo.value.retry_after == 0.25
        assert excinfo.value.code == "evicted"
        # shed, not lost: the applied chunk was acked before eviction
        # and the session resumes exactly past it
        ack = client.reconnect()
        assert ack.resume_seq >= 1
        assert server.metrics.counter("net_shed_sessions").value >= 1


def test_resilient_client_completes_despite_quota_evictions():
    """Evict-per-chunk is the worst case: one chunk of progress per
    connection — the self-healing client still finishes, losslessly."""
    off_doc, off_counters = offline_report("fasttrack", "object")
    config = ServerConfig(
        n_shards=1, shard_mode="inline",
        spool_quota_bytes=1, busy_retry_after=0.01,
    )
    with TelemetryServer(config) as server:
        rc = ResilientClient(
            server.address, "evicted-often", backend="object",
            chunk_size=37, retries=6, backoff_base=0.005, backoff_max=0.05,
        )
        rc.connect()
        rc.send_events(EVENTS)
        summary = rc.close()
        assert rc.retry_count > 0
        sdoc = server.session_doc("evicted-often")
    assert summary["events"] == len(EVENTS)
    assert canonical(sdoc["report"]) == canonical(off_doc)
    assert sdoc["counters"] == off_counters


def test_memory_watermark_throttles_credits_and_sheds_new_sessions():
    config = ServerConfig(
        n_shards=1, shard_mode="inline",
        memory_watermark_bytes=1, throttle_delay=0.001,
        busy_retry_after=0.05,
    )
    with TelemetryServer(config) as server:
        client = ResilientClient(server.address, "heavy", chunk_size=37, retries=0)
        client.connect()
        client.send_events(EVENTS)
        summary = client.close()
        assert summary["events"] == len(EVENTS)  # existing sessions finish
        assert server.metrics.counter("net_throttled_credits").value > 0
        # ...but new sessions are refused with BUSY + retry advice
        late = ResilientClient(server.address, "latecomer", retries=0)
        with pytest.raises(ServerBusy) as excinfo:
            late.connect()
        assert excinfo.value.retry_after == 0.05
        # the resilient client treats BUSY as transient and spends its
        # budget before surfacing the same named error
        rc = ResilientClient(
            server.address, "patient", retries=2,
            backoff_base=0.001, backoff_max=0.01,
        )
        with pytest.raises(ServerBusy):
            rc.connect()
        assert rc.retry_count == 2
        doc = server.query_doc()
        assert doc["server"]["resilience"]["shed_sessions"] >= 3
        assert doc["server"]["resilience"]["throttled_credits"] > 0


def test_slow_client_sweeper_evicts_idle_connection():
    config = ServerConfig(
        n_shards=1, shard_mode="inline",
        slow_client_timeout=0.3, busy_retry_after=0.1,
    )
    with TelemetryServer(config) as server:
        conn = Conn(server.address)
        conn.send(Hello(session="sloth"))
        ack = conn.recv_msg()
        assert isinstance(ack, HelloAck)
        # go quiet: the sweeper (accept-loop idle tick) sheds the socket
        err = conn.recv_msg()
        assert err.error_code == "evicted"
        assert err.retry_after == 0.1
        assert "slow-client" in err.detail
        conn.close()
        # the session survives eviction: a resume is welcomed
        conn2 = Conn(server.address)
        conn2.send(Hello(session="sloth", resume=True))
        ack2 = conn2.recv_msg()
        assert isinstance(ack2, HelloAck)
        conn2.close()


# -- graceful drain / restart -------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_drain_restart_resume_byte_identical(backend, sock_dir):
    """The acceptance pin: drain -> restart -> resume ≡ uninterrupted."""
    off_doc, off_counters = offline_report("fasttrack", backend)
    spool = os.path.join(sock_dir, "spool")
    address = f"unix://{sock_dir}/t.sock"

    def config():
        return ServerConfig(
            address=address, n_shards=2, shard_mode="inline",
            spool_dir=spool, drain_timeout=2.0,
        )

    server = TelemetryServer(config()).start()
    client = ResilientClient(
        address, "drainy", detector="fasttrack", backend=backend,
        chunk_size=37, retries=0,
    )
    client.connect()
    assert client._sock.family == socket.AF_UNIX
    half = len(EVENTS) // 2
    client.send_events(EVENTS[:half])
    client.abort()  # dirty disconnect, unacked chunks kept client-side
    drained = server.drain()
    assert drained["lifecycle"] == "drained"
    assert drained["drained"] == 1
    assert server.lifecycle == "drained"
    assert os.path.exists(os.path.join(spool, "sessions.json"))
    server.stop()

    server2 = TelemetryServer(config()).start()
    assert server2.adopted_sessions == 1
    ack = client.reconnect()  # same address: the restarted instance
    assert ack.resume_seq >= 1
    client.send_events(EVENTS[half:])
    summary = client.close()
    sdoc = server2.session_doc("drainy")
    resilience = server2.query_doc()["server"]["resilience"]
    server2.stop()

    assert summary["events"] == len(EVENTS)  # nothing lost across restart
    assert canonical(sdoc["report"]) == canonical(off_doc)
    assert sdoc["counters"] == off_counters
    assert resilience["adopted_sessions"] == 1


def test_drain_is_idempotent_and_observable():
    config = ServerConfig(
        n_shards=1, shard_mode="inline", http="127.0.0.1:0",
    )
    with TelemetryServer(config) as server:
        url = f"http://{server.http_address}"
        assert urllib.request.urlopen(url + "/healthz").read() == b"ok\n"
        status = json.loads(urllib.request.urlopen(url + "/status").read())
        assert status["server"]["lifecycle"] == "serving"
        first = server.drain(timeout=0.5)
        assert first["lifecycle"] == "drained"
        assert server.metrics.gauge("net_drain_seconds").value > 0
        again = server.drain()
        assert again == {"lifecycle": "drained", "drained": 0, "evicted": 0}
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(url + "/healthz")
        assert excinfo.value.code == 503
        assert excinfo.value.read() == b"drained\n"
        status = json.loads(urllib.request.urlopen(url + "/status").read())
        assert status["server"]["lifecycle"] == "drained"


def test_healthz_answers_503_while_draining():
    config = ServerConfig(
        n_shards=1, shard_mode="inline", http="127.0.0.1:0",
        drain_timeout=5.0,
    )
    with TelemetryServer(config) as server:
        url = f"http://{server.http_address}"
        client = ResilientClient(server.address, "lingerer", chunk_size=37, retries=0)
        client.connect()
        client.send_events(EVENTS[:100])
        result = {}
        drainer = threading.Thread(
            target=lambda: result.update(server.drain(timeout=5.0))
        )
        drainer.start()
        deadline = time.monotonic() + 5.0
        while server.lifecycle != "draining":
            assert time.monotonic() < deadline, "drain never started"
            time.sleep(0.01)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(url + "/healthz")
        assert excinfo.value.code == 503
        assert excinfo.value.read() == b"draining\n"
        # the attached session finishes cleanly inside the window
        summary = client.close()
        drainer.join(timeout=10.0)
        assert not drainer.is_alive()
        assert result["evicted"] == 0
        assert summary["events"] == 100


def test_drain_evicts_stragglers_with_named_error():
    config = ServerConfig(
        n_shards=1, shard_mode="inline", busy_retry_after=0.25,
    )
    with TelemetryServer(config) as server:
        conn = Conn(server.address)
        conn.send(Hello(session="straggler"))
        ack = conn.recv_msg()
        assert isinstance(ack, HelloAck)
        drained = server.drain(timeout=0.2)
        assert drained["evicted"] == 1
        err = conn.recv_msg()
        assert err.error_code == "evicted"
        assert err.retry_after == 0.25
        assert "draining" in err.detail
        conn.close()
