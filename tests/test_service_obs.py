"""Service-level observability: tracing, Prometheus exposition, ``repro top``.

Pins the cross-process observability contract end to end:

* :mod:`repro.obs.tracing` — bounded span recorders, deterministic
  chunk flow ids, and :func:`assemble_service_trace` producing one
  validator-clean Chrome trace from client + front + shard + merge
  span groups (idempotent: re-assembly never double-rebases).
* :mod:`repro.obs.prom` — text exposition format conformance
  (contiguous families, cumulative ``le`` buckets, ``_sum``/``_count``,
  label escaping) plus the ``series_key`` inverse.
* :mod:`repro.net.top` — the ``repro/top-status/v1`` schema is stable
  across state backends and validated structurally.
* The live stack — a streamed session yields a merged service trace
  spanning client/front/shard pids with matched flow arrows, a scrape
  body over HTTP, and the ``net_rx_buffer_high`` gauge behaving as a
  true high-water mark across connections (the hot-loop regression).
"""

from __future__ import annotations

import json
import urllib.request

import pytest

from repro.net import (
    ResilientClient,
    ServerConfig,
    TelemetryServer,
    build_top_status,
    query_server,
    render_top,
    validate_top_status,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.perfetto import validate_chrome_trace
from repro.obs.prom import parse_series_key, render_prometheus
from repro.obs.tracing import (
    SpanRecorder,
    assemble_service_trace,
    chunk_flow_id,
)
from repro.trace.generator import GeneratorConfig, random_trace

TRACE = random_trace(GeneratorConfig(length=400, seed=7))
EVENTS = list(TRACE.events)
BACKENDS = ["object", "packed"]


def serve(**kwargs):
    cfg = ServerConfig(
        address="tcp://127.0.0.1:0", shard_mode="inline", n_shards=2, **kwargs
    )
    server = TelemetryServer(cfg)
    server.start()
    return server


def stream(server, session="s1", events=EVENTS, **kwargs):
    client = ResilientClient(
        server.address, session, chunk_size=64, retries=0, **kwargs
    )
    client.connect()
    client.send_events(list(events))
    return client.close()


# -- span recorder ------------------------------------------------------------


class TestSpanRecorder:
    def test_span_records_duration_and_args(self):
        rec = SpanRecorder(pid=11)
        start = rec.begin()
        rec.span("work", start, tid=3, args={"seq": 1})
        (ev,) = [e for e in rec.snapshot() if e["ph"] == "X"]
        assert ev["name"] == "work" and ev["pid"] == 11 and ev["tid"] == 3
        assert ev["dur"] >= 0 and ev["args"] == {"seq": 1}

    def test_bounded_recorder_counts_drops(self):
        rec = SpanRecorder(pid=11, max_spans=5)
        for i in range(9):
            rec.span(f"s{i}", rec.begin())
        assert len(rec) == 5
        assert rec.dropped == 4

    def test_flow_emits_matched_start_and_finish(self):
        rec = SpanRecorder(pid=11)
        fid = chunk_flow_id(3, 17)
        rec.span("send", rec.begin(), flow=fid)
        rec.span("apply", rec.begin(), flow_in=fid)
        phases = [e["ph"] for e in rec.snapshot()]
        assert phases.count("s") == 1 and phases.count("f") == 1

    def test_chunk_flow_id_unique_per_session_and_seq(self):
        ids = {chunk_flow_id(t, s) for t in range(1, 4) for s in range(1, 40)}
        assert len(ids) == 3 * 39


class TestAssembleServiceTrace:
    def group(self, pid, events, dropped=0, name=None):
        return {
            "pid": pid,
            "name": name or f"p{pid}",
            "events": events,
            "dropped": dropped,
        }

    def test_merges_rebases_and_validates(self):
        rec_a, rec_b = SpanRecorder(pid=11), SpanRecorder(pid=20)
        fid = chunk_flow_id(1, 1)
        rec_a.span("send", rec_a.begin(), flow=fid)
        rec_b.span("apply", rec_b.begin(), flow_in=fid)
        doc = assemble_service_trace(
            [self.group(11, rec_a.snapshot()), self.group(20, rec_b.snapshot())]
        )
        assert validate_chrome_trace(doc) == []
        tses = [e["ts"] for e in doc["traceEvents"] if e["ph"] != "M"]
        assert min(tses) == 0  # rebased to the earliest span
        assert {e["pid"] for e in doc["traceEvents"]} == {11, 20}

    def test_orphan_flows_are_dropped(self):
        rec = SpanRecorder(pid=11)
        rec.span("send", rec.begin(), flow=chunk_flow_id(1, 1))  # no finish
        doc = assemble_service_trace([self.group(11, rec.snapshot())])
        assert all(e["ph"] not in ("s", "f") for e in doc["traceEvents"])
        assert validate_chrome_trace(doc) == []

    def test_assembly_is_idempotent_over_stored_groups(self):
        # the server stores client span groups and re-assembles per query;
        # a second assembly must not see already-rebased timestamps
        rec = SpanRecorder(pid=101)
        rec.span("connect", rec.begin())
        groups = [self.group(101, rec.snapshot())]
        first = assemble_service_trace(groups)
        second = assemble_service_trace(groups)
        assert first["traceEvents"] == second["traceEvents"]

    def test_dropped_spans_surface_in_envelope(self):
        doc = assemble_service_trace([self.group(11, [], dropped=7)])
        assert doc["otherData"]["spans_dropped"] == 7
        assert doc["otherData"]["schema"] == "repro/service-trace/v1"


# -- prometheus exposition ----------------------------------------------------


class TestPrometheusRendering:
    def registry(self):
        reg = MetricsRegistry()
        reg.counter("net_events_total").inc(1000)
        reg.counter("net_protocol_errors", code="frame-corrupt").inc(2)
        reg.counter("net_protocol_errors", code="handshake").inc(1)
        reg.gauge("net_shard_queue_depth", shard=0).set(3)
        reg.gauge("net_shard_queue_depth", shard=1).set(1)
        h = reg.histogram("net_chunk_lag_us", buckets=(10, 100, 1000))
        for v in (5, 50, 500, 5000):
            h.observe(v)
        return reg

    def test_families_are_contiguous(self):
        text = render_prometheus(self.registry().snapshot())
        family = None
        seen = set()
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            name = line.split("{")[0].split(" ")[0]
            if name != family:
                assert name not in seen, f"family {name} split in two"
                seen.add(name)
                family = name

    def test_histogram_buckets_cumulative_with_inf_sum_count(self):
        text = render_prometheus(self.registry().snapshot())
        lines = [l for l in text.splitlines() if l.startswith("net_chunk_lag_us")]
        buckets = [l for l in lines if "_bucket" in l]
        counts = [int(l.rsplit(" ", 1)[1]) for l in buckets]
        assert counts == sorted(counts), "le buckets must be cumulative"
        assert buckets[-1].startswith('net_chunk_lag_us_bucket{le="+Inf"}')
        assert counts[-1] == 4
        assert any(l == "net_chunk_lag_us_sum 5555" for l in lines)
        assert any(l == "net_chunk_lag_us_count 4" for l in lines)

    def test_type_lines_and_labels(self):
        text = render_prometheus(self.registry().snapshot())
        assert "# TYPE net_events_total counter" in text
        assert "# TYPE net_shard_queue_depth gauge" in text
        assert "# TYPE net_chunk_lag_us histogram" in text
        assert 'net_protocol_errors{code="frame-corrupt"} 2' in text
        assert 'net_shard_queue_depth{shard="0"} 3' in text

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.counter("weird", detail='a"b\\c').inc(1)
        text = render_prometheus(reg.snapshot())
        assert '{detail="a\\"b\\\\c"}' in text

    def test_gauge_high_watermark_is_own_family(self):
        text = render_prometheus(self.registry().snapshot())
        assert "# TYPE net_shard_queue_depth_high gauge" in text
        assert 'net_shard_queue_depth_high{shard="0"} 3' in text

    def test_parse_series_key_inverse(self):
        assert parse_series_key("plain") == ("plain", {})
        name, labels = parse_series_key("x{a=1,b=two}")
        assert name == "x" and labels == {"a": "1", "b": "two"}


# -- metrics determinism (satellite) ------------------------------------------


class TestMetricsMergeDeterminism:
    def labeled_snapshot(self, order):
        reg = MetricsRegistry()
        for shard in order:
            reg.counter("chunks", shard=shard).inc(10 + shard)
            reg.gauge("depth", shard=shard).set(shard)
            reg.histogram("lag", buckets=(10, 100), shard=shard).observe(shard)
        return reg.snapshot()

    def test_merge_snapshot_order_independent_bytes(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for snap in (
            self.labeled_snapshot([0, 1, 2]),
            self.labeled_snapshot([2, 1, 0]),
        ):
            a.merge_snapshot(snap)
        for snap in (
            self.labeled_snapshot([2, 1, 0]),
            self.labeled_snapshot([0, 1, 2]),
        ):
            b.merge_snapshot(snap)
        assert a.to_json() == b.to_json()

    def test_prometheus_text_order_independent(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.merge_snapshot(self.labeled_snapshot([0, 1, 2]))
        b.merge_snapshot(self.labeled_snapshot([2, 1, 0]))
        assert render_prometheus(a.snapshot()) == render_prometheus(b.snapshot())


# -- gauge high-watermark regression ------------------------------------------


class TestRxBufferHighWatermark:
    def test_set_max_only_raises(self):
        g = MetricsRegistry().gauge("g")
        assert g.set_max(100) is True
        assert g.set_max(40) is False
        assert g.value == 100 and g.high == 100
        assert g.set_max(150) is True
        assert g.value == 150 and g.high == 150

    def test_gauge_survives_smaller_later_connection(self):
        # regression: the hot receive loop used .set(), so a later
        # connection with a small buffer erased the true peak
        server = serve()
        try:
            stream(server, "big", EVENTS)
            doc1 = query_server(server.address)
            peak = doc1["server"]["rx_buffer_high"]
            assert peak > 0
            stream(server, "small", EVENTS[:5])
            doc2 = query_server(server.address)
            assert doc2["server"]["rx_buffer_high"] >= peak
            gauges = doc2["metrics"]["gauges"]
            assert gauges["net_rx_buffer_high"]["value"] >= peak
        finally:
            server.stop()


# -- the merged service trace -------------------------------------------------


class TestServiceTrace:
    def test_streamed_session_yields_one_validated_trace(self):
        server = serve()
        try:
            stream(server)
            doc = query_server(server.address, trace=True)
        finally:
            server.stop()
        trace = doc["trace"]
        assert validate_chrome_trace(trace) == []
        pids = {e["pid"] for e in trace["traceEvents"]}
        assert 11 in pids, "front tier spans missing"
        assert 12 in pids, "merge tier spans missing"
        assert any(p >= 20 for p in pids), "shard spans missing"
        assert any(p >= 100 for p in pids), "client spans missing"

    def test_flow_arrows_cross_processes_and_match(self):
        server = serve()
        try:
            stream(server)
            doc = query_server(server.address, trace=True)
        finally:
            server.stop()
        events = doc["trace"]["traceEvents"]
        starts = {e["id"]: e["pid"] for e in events if e["ph"] == "s"}
        finishes = {e["id"]: e["pid"] for e in events if e["ph"] == "f"}
        assert starts and set(starts) == set(finishes)
        crossing = [i for i in starts if starts[i] != finishes[i]]
        assert crossing, "chunk-send -> apply-chunk must cross processes"

    def test_trace_disabled_client_still_streams(self):
        server = serve()
        try:
            summary = stream(server, trace=False)
            assert summary["events"] == len(EVENTS)
            doc = query_server(server.address, trace=True)
            assert validate_chrome_trace(doc["trace"]) == []
        finally:
            server.stop()

    def test_span_batches_dedup_on_reship(self):
        server = serve()
        try:
            client = ResilientClient(server.address, "s1", chunk_size=64, retries=0)
            client.connect()
            client.send_events(EVENTS)
            client.ship_spans()
            client.ship_spans()  # re-ship: same (pid, name), latest wins
            client.close()
            doc = query_server(server.address, trace=True)
        finally:
            server.stop()
        client_pids = [
            p for p in {e["pid"] for e in doc["trace"]["traceEvents"]} if p >= 100
        ]
        assert len(client_pids) == 1

    def test_close_phase_is_traced(self):
        # a two-credit window stalls the stream and leaves chunks in
        # flight at close; neither the client's drain nor the front
        # tier's close span counts as a stall or a reconnect
        server = serve(credits=2)
        try:
            summary = stream(server)
            doc = query_server(server.address, trace=True)
            metrics = server.metrics.snapshot()
        finally:
            server.stop()
        events = doc["trace"]["traceEvents"]
        (drain,) = [e for e in events if e.get("name") == "drain"]
        assert drain["ph"] == "X" and drain["pid"] >= 100
        assert 0 <= drain["args"]["chunks"] <= 2
        (close,) = [e for e in events if e.get("name") == "close"]
        assert close["ph"] == "X" and close["pid"] == 11
        assert close["args"] == {"session": "s1", "seq": summary["chunks"]}
        assert drain["ts"] < close["ts"]
        stalls = [e for e in events if e.get("name") == "credit-stall"]
        assert stalls
        assert metrics["histograms"]["net_credit_stall_us"]["count"] == len(stalls)
        assert metrics["counters"]["net_retries_total"] == 0

    def test_write_trace_artifact(self, tmp_path):
        server = serve()
        try:
            stream(server)
            out = tmp_path / "service-trace.json"
            server.write_trace(out)
        finally:
            server.stop()
        doc = json.loads(out.read_text())
        assert validate_chrome_trace(doc) == []


# -- scrape endpoint ----------------------------------------------------------


class TestHTTPSidecar:
    def test_metrics_status_healthz(self):
        server = serve(http="127.0.0.1:0")
        try:
            stream(server)
            base = f"http://{server.http_address}"
            body = urllib.request.urlopen(f"{base}/metrics").read().decode()
            assert "# TYPE net_events_total counter" in body
            assert f"net_events_total {len(EVENTS)}" in body
            status = json.loads(urllib.request.urlopen(f"{base}/status").read())
            assert status["schema"] == "repro/telemetry-status/v1"
            assert urllib.request.urlopen(f"{base}/healthz").read() == b"ok\n"
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(f"{base}/nope")
        finally:
            server.stop()

    def test_write_metrics_after_stop(self, tmp_path):
        server = serve()
        stream(server)
        server.stop()
        out = tmp_path / "metrics.json"
        server.write_metrics(out)
        snap = json.loads(out.read_text())
        assert snap["counters"]["net_events_total"] == len(EVENTS)
        merged = MetricsRegistry()
        merged.merge_snapshot(snap)  # the dump stays mergeable
        assert merged.counter("net_events_total").value == len(EVENTS)


# -- repro top ----------------------------------------------------------------


class TestTopStatus:
    def status_for(self, backend):
        server = serve()
        try:
            stream(server, backend=backend)
            return build_top_status(query_server(server.address))
        finally:
            server.stop()

    def shapes(self, node):
        if isinstance(node, dict):
            return {k: self.shapes(v) for k, v in node.items()}
        if isinstance(node, list):
            return [self.shapes(v) for v in node]
        return type(node).__name__

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_schema_valid_per_backend(self, backend):
        status = self.status_for(backend)
        assert validate_top_status(status) == []
        assert status["events"]["total"] == len(EVENTS)
        assert status["events"]["per_sec"] is None  # single sample

    def test_key_shape_identical_across_backends(self):
        a, b = (self.status_for(be) for be in BACKENDS)
        assert self.shapes(a) == self.shapes(b)

    def test_rates_from_consecutive_samples(self):
        first = {"events": {"total": 100}, "chunks": {"total": 10}}
        doc = {
            "metrics": {"counters": {"net_events_total": 300,
                                     "net_chunks_total": 20}},
            "server": {"shards": 0},
        }
        status = build_top_status(doc, prev=first, interval=2.0)
        assert status["events"]["per_sec"] == 100.0
        assert status["chunks"]["per_sec"] == 5.0

    def test_validator_flags_missing_and_mistyped(self):
        good = self.status_for("object")
        assert validate_top_status({"schema": "nope"})
        broken = json.loads(json.dumps(good))
        del broken["backpressure"]["credit_stalls"]
        broken["events"]["total"] = "many"
        problems = validate_top_status(broken)
        assert any("credit_stalls" in p for p in problems)
        assert any("events.total" in p for p in problems)

    def test_render_top_mentions_the_vitals(self):
        text = render_top(self.status_for("object"))
        assert "sessions 1" in text
        assert f"events {len(EVENTS):,}" in text
        assert "shard" in text and "backpressure" in text

    def test_quarantined_shard_surfaces(self):
        doc = {
            "metrics": {
                "counters": {},
                "gauges": {
                    "net_shard_up{shard=0}": {"value": 0, "high": 1},
                    "net_shard_quarantined{shard=0}": {"value": 1, "high": 1},
                    "net_shard_restarts{shard=0}": {"value": 3, "high": 3},
                },
            },
            "server": {"shards": 1},
        }
        status = build_top_status(doc)
        assert validate_top_status(status) == []
        shard = status["shards"][0]
        assert shard == {
            "shard": 0,
            "up": False,
            "restarts": 3,
            "quarantined": True,
            "queue_depth": 0,
            "sessions": 0,
        }
        assert "YES" in render_top(status)
