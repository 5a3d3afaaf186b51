"""Soak and chaos: the telemetry server under concurrent, hostile load.

One server, many misbehaving clients at once:

* ``REPRO_SOAK_SESSIONS`` (default 8) concurrent sessions streaming
  distinct seeded workloads through real shard worker processes;
* a third of them disconnect mid-stream without CLOSE and resume on a
  fresh connection (retransmit + duplicate-suppression exercised under
  contention);
* a fault-injected shard worker crashes partway through and must be
  respawned and replayed without losing any session;
* a deliberately slow shard plus a tiny credit window drives clients
  into backpressure stalls — and the server's receive buffers must stay
  bounded while they wait.

Afterwards: every session's summary matches what it sent, the roster
shows zero dropped sessions, per-session results equal an uncontended
baseline, and shutdown is clean.  Scaled down in CI smoke via the
environment knob; the defaults hold the whole run to a few seconds.
"""

from __future__ import annotations

import json
import os
import threading

from repro.net import ResilientClient, ServerConfig, TelemetryServer
from repro.net.protocol import DEFAULT_MAX_FRAME
from repro.trace.generator import GeneratorConfig, random_trace

N_SESSIONS = max(2, int(os.environ.get("REPRO_SOAK_SESSIONS", "8")))
EVENTS_PER_SESSION = int(os.environ.get("REPRO_SOAK_EVENTS", "400"))
CHUNK_SIZE = 23


def workload(seed: int):
    trace = random_trace(
        GeneratorConfig(length=EVENTS_PER_SESSION, seed=seed)
    )
    return list(trace.events)


def stream_session(server_address, name, events, *, disconnect, results):
    """One client thread; records its outcome instead of raising."""
    try:
        client = ResilientClient(
            server_address, name, chunk_size=CHUNK_SIZE, timeout=60.0, retries=0
        )
        client.connect()
        if disconnect:
            half = len(events) // 2
            client.send_events(events[:half])
            client.abort()  # dirty mid-stream disconnect
            client.reconnect()
            client.send_events(events[half:])
        else:
            client.send_events(events)
        summary = client.close()
        results[name] = {
            "summary": summary,
            "credit_waits": client.credit_waits,
            "error": None,
        }
    except Exception as exc:  # pragma: no cover - only on failure
        results[name] = {"summary": None, "credit_waits": 0, "error": repr(exc)}


def run_fleet(config: ServerConfig, *, disconnect_every=3):
    """N concurrent sessions against one server; returns all outcomes."""
    workloads = {f"soak-{i:02d}": workload(seed=i) for i in range(N_SESSIONS)}
    results = {}
    with TelemetryServer(config) as server:
        threads = [
            threading.Thread(
                target=stream_session,
                args=(server.address, name, events),
                kwargs={
                    "disconnect": i % disconnect_every == 1,
                    "results": results,
                },
            )
            for i, (name, events) in enumerate(workloads.items())
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
        assert not any(t.is_alive() for t in threads), "client thread hung"
        doc = server.query_doc()
        rx_high = server.rx_buffer_high
        restarts = server.worker_restarts
    return workloads, results, doc, rx_high, restarts


def assert_no_lost_sessions(workloads, results, doc):
    assert set(results) == set(workloads)
    for name, outcome in sorted(results.items()):
        assert outcome["error"] is None, f"{name}: {outcome['error']}"
        assert outcome["summary"]["events"] == len(workloads[name]), name
    roster = {s["session"]: s for s in doc["sessions"]}
    assert set(roster) == set(workloads), "sessions dropped from the roster"
    for name, entry in roster.items():
        assert entry["state"] == "closed", f"{name} not cleanly closed"
        assert entry["events"] == len(workloads[name]), name
    assert doc["report"]["events"] == sum(len(e) for e in workloads.values())


def test_soak_concurrent_sessions_with_chaos():
    """The headline soak: concurrency + disconnects + a worker crash."""
    workloads, results, doc, rx_high, restarts = run_fleet(
        ServerConfig(
            n_shards=2,
            shard_mode="process",
            # both shards own sessions (N >= 2 hashes across 2 shards);
            # shard 0's first worker dies before its 5th events message
            crash_plan={0: 5},
        )
    )
    assert_no_lost_sessions(workloads, results, doc)
    assert restarts == 1, "the crashed worker was recovered exactly once"
    assert doc["server"]["worker_restarts"] == 1
    # bounded memory: the receive high-water mark never exceeds one
    # max-size frame plus a recv chunk, no matter how many clients push
    assert rx_high <= DEFAULT_MAX_FRAME + 65536
    # disconnected sessions really did resume rather than reopen
    assert doc["metrics"]["counters"]["net_sessions_resumed"] >= 1
    assert doc["metrics"]["counters"]["net_sessions_opened"] == N_SESSIONS


def test_soak_results_match_uncontended_baseline():
    """Chaos changes timing, never results: compare to a quiet run."""
    _, chaotic_results, chaotic_doc, _, _ = run_fleet(
        ServerConfig(n_shards=2, shard_mode="process", crash_plan={1: 4})
    )
    _, quiet_results, quiet_doc, _, _ = run_fleet(
        ServerConfig(n_shards=2, shard_mode="process"),
        disconnect_every=10**9,  # nobody disconnects
    )
    def essence(outcome):
        # a disconnect splits the stream into different chunk boundaries,
        # so chunk *counts* may differ; the analysis results must not
        summary = dict(outcome["summary"])
        summary.pop("chunks")
        return summary

    for name in quiet_results:
        assert essence(chaotic_results[name]) == essence(quiet_results[name]), name
    chaotic = {s["session"]: s for s in chaotic_doc["sessions"]}
    quiet = {s["session"]: s for s in quiet_doc["sessions"]}
    for name in quiet:
        for key in ("events", "races", "distinct_races"):
            assert chaotic[name][key] == quiet[name][key], (name, key)
    # and the merged race reports are byte-identical
    assert json.dumps(chaotic_doc["report"], sort_keys=True) == json.dumps(
        quiet_doc["report"], sort_keys=True
    )


def test_backpressure_blocks_fast_writer():
    """A slow shard + tiny credit window must stall the client, not
    balloon the server: credit waits observed, receive buffer bounded."""
    events = workload(seed=99)
    with TelemetryServer(
        ServerConfig(
            n_shards=1,
            shard_mode="process",
            credits=2,
            chunk_delay=0.02,  # 20ms per chunk in the worker
        )
    ) as server:
        client = ResilientClient(
            server.address, "slow", chunk_size=11, timeout=60.0, retries=0
        )
        client.connect()
        client.send_events(events)
        summary = client.close()
        rx_high = server.rx_buffer_high
        doc = server.query_doc()
    assert summary["events"] == len(events)
    # ~36 chunks through a 2-chunk window over a slow shard: the sender
    # must have blocked waiting for credits many times
    assert client.credit_waits >= 10
    assert client.unacked == []
    # the window held: the server never buffered more than the credit
    # window's worth of our tiny frames (far below one max frame)
    assert rx_high < DEFAULT_MAX_FRAME
    assert doc["sessions"][0]["state"] == "closed"


def test_shutdown_finalizes_attached_sessions():
    """stop() with live, un-CLOSEd sessions still folds their results."""
    events = workload(seed=7)
    server = TelemetryServer(ServerConfig(n_shards=2, shard_mode="process"))
    server.start()
    client = ResilientClient(server.address, "abandoned", chunk_size=17, retries=0)
    client.connect()
    client.send_events(events)
    client.drain()  # everything acked, nothing closed
    server.stop()
    doc = server.query_doc(refresh=False)
    roster = {s["session"]: s for s in doc["sessions"]}
    assert roster["abandoned"]["events"] == len(events)
    assert doc["report"]["events"] == len(events)
    client.abort()


def test_stop_is_idempotent():
    server = TelemetryServer(ServerConfig(n_shards=1, shard_mode="inline"))
    server.start()
    server.stop()
    server.stop()
