"""The measured process for one workload: timed reps, then the traced pass.

``run.py`` records the input and starts this process, so the peak
memory read here holds the program's own memory and not the set-up's.
It runs one untimed warm-up rep, then timed reps until ``--seconds``
have passed (at least ``--min-reps``), reads peak memory, and with
``--trace 1`` runs the offline and the streamed pipeline once each with
spans around each layer.
The result, including a digest of every rep's output for ``run.py`` to
check against the reference, is written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional

import repro.cli
import repro.net.client
import repro.net.server
from repro.core.backend import BACKENDS
from repro.detectors.base import Detector
from repro.net import FrameDecoder, ResilientClient
from repro.net.shard import SessionHost, ShardPool
from repro.obs import RunObserver, validate_coverage, write_chrome_trace
from repro.trace.batch import EventBatch, encode_batch
from repro.trace.binio import load_trace_binary

from spans import Tracer
from workloads import (
    WORKLOADS,
    Workload,
    digest,
    mark,
    outcome,
    run_cli,
    start_server,
    stop_server,
    sync_only,
    unmarked,
)

#: interleaved rounds per row of the kernel diagnostic rows
ROUNDS = 3

#: PACER rate rows: metric suffix -> sampled share of periods
PACER_RATES = {"r0": 0.0, "r1": 0.01, "r3": 0.03, "r100": 1.0}


# -- one rep of each kind --------------------------------------------------


def _span(tracer: Optional[Tracer], name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def analyze_rep(w: Workload, path: Path, work: Path,
                tracer: Optional[Tracer] = None) -> Dict:
    """One ``repro analyze`` invocation, exactly as a user runs it."""
    coverage = work / "coverage.json"
    argv = ["analyze", str(path), "--batch", "--detector", w.detector,
            "--json", "--coverage-out", str(coverage)]
    start = time.perf_counter_ns()
    with _span(tracer, "cli.analyze"):
        code, out = run_cli(argv)
    end = time.perf_counter_ns()
    doc = json.loads(out)
    problems = validate_coverage(
        json.loads(coverage.read_text(encoding="utf-8")))
    return {
        "wall_s": (end - start) / 1e9,
        "report_ms": (end - start) / 1e6,
        "digest": digest(outcome(doc["races"], doc["distinct_races"],
                                 doc["counters"])),
        "ok": code == 0 and not problems,
        "doc": doc,
        "window": (start, end),
    }


def stream_rep(w: Workload, path: Path, work: Path, name: str,
               tracer: Optional[Tracer] = None) -> Dict:
    """One closed-loop session, doing what ``repro stream`` does."""
    spool = work / f"spool-{name}"
    server = start_server(spool)
    try:
        start = time.perf_counter_ns()
        with _span(tracer, "session"):
            with _span(tracer, "binio.decode_scalar"):
                trace = load_trace_binary(path)
            client = ResilientClient(server.address, name, detector=w.detector)
            client.connect()
            client.send_events(list(trace.events))
            closing = time.perf_counter_ns()
            summary = client.close()
        end = time.perf_counter_ns()
        doc = server.session_doc(name, refresh=False)
        metrics = server.metrics.snapshot()
    finally:
        stop_server(server, spool)
    return {
        "wall_s": (end - start) / 1e9,
        "report_ms": (end - closing) / 1e6,
        "digest": digest(outcome(summary.get("races"),
                                 summary.get("distinct_races"),
                                 doc["counters"])),
        "ok": client.retry_count == 0,
        "doc": doc,
        "window": (start, end),
        "net": {
            "net.chunk_lag_us.mean": _mean(metrics, "net_chunk_lag_us"),
            "net.credit_stall_us.mean": _mean(metrics, "net_credit_stall_us"),
            "net.frame_decode_us.mean": _mean(metrics, "net_frame_decode_us"),
            "net.chunks": metrics["counters"].get("net_chunks_total", 0),
            "net.client.credit_waits": client.credit_waits,
            "net.client.retries": client.retry_count,
        },
    }


def _mean(snapshot: Dict, name: str) -> float:
    hist = snapshot["histograms"].get(name)
    return hist["total"] / hist["count"] if hist and hist["count"] else 0.0


def rep(w: Workload, path: Path, work: Path, index: int) -> Dict:
    if w.stream:
        return stream_rep(w, path, work, f"rep{index}")
    return analyze_rep(w, path, work)


# -- the traced pass -------------------------------------------------------


#: spans around a whole rep; the layers are what runs inside them
ROOT_SPANS = ("cli.analyze", "session")

#: span name -> per-layer metric holding its time, per pipeline
OFFLINE_LAYERS = {
    "binio.decode": "binio.decode_s",
    "batch.columns": "batch.columns_s",
    "kernel": "kernel.s",
    "observer.finalize": "observer.finalize_s",
    "quality.coverage": "quality.coverage_s",
}
STREAM_LAYERS = {
    "binio.decode_scalar": "binio.decode_scalar_s",
    "net.protocol.encode": "net.protocol.encode_s",
    "net.protocol.decode": "net.protocol.decode_s",
    "net.shard.apply": "net.shard.apply_s",
    "net.shard.dispatch": "net.shard.ipc_s",
    "net.shard.finalize": "net.shard.finalize_s",
    "net.front.spool": "net.front.spool_s",
}


def traced_analyze(w: Workload, path: Path, work: Path, tracer: Tracer) -> Dict:
    cli = repro.cli
    with tracer:
        tracer.wrap(cli, "load_trace_columns", "binio.decode")
        tracer.wrap(EventBatch, "to_list_columns", "batch.columns")
        tracer.wrap(EventBatch, "to_numpy_columns", "batch.columns")
        tracer.wrap(Detector, "run_batch", "kernel")
        tracer.wrap(RunObserver, "finalize", "observer.finalize")
        tracer.wrap(cli, "build_coverage", "quality.coverage")
        tracer.wrap(cli, "write_coverage", "quality.coverage")
        return analyze_rep(w, path, work, tracer)


def traced_stream(w: Workload, path: Path, work: Path, tracer: Tracer) -> Dict:
    client, server = repro.net.client, repro.net.server
    with tracer:
        # installed before the server forks its shard worker, which
        # inherits them and saves its spans whenever a session finalizes
        tracer.wrap(SessionHost, "apply", "net.shard.apply")
        tracer.wrap(SessionHost, "finalize_doc", "net.shard.finalize",
                    then=tracer.save_foreign)
        tracer.wrap(ShardPool, "apply", "net.shard.dispatch")
        tracer.wrap(server, "dumps_binary", "net.front.spool")
        tracer.wrap_iter(client, "chunk_events", "net.protocol.encode")
        tracer.wrap(client, "encode_message", "net.protocol.encode")
        tracer.wrap(server, "encode_message", "net.protocol.encode")
        tracer.wrap(FrameDecoder, "feed", "net.protocol.decode")
        tracer.wrap(client, "decode_message", "net.protocol.decode")
        tracer.wrap(server, "decode_message", "net.protocol.decode")
        result = stream_rep(w, path, work, "traced", tracer)
    tracer.load_foreign()
    return result


def kernel_counts(doc: Dict, stream: bool) -> Dict[str, float]:
    """Operation counts of the run (Table 3 columns) from its output."""
    c = doc["counters"]
    accesses = sum(v for k, v in c.items()
                   if k.startswith(("reads_", "writes_")))
    fast = sum(v for k, v in c.items()
               if k.startswith(("reads_fast", "writes_fast")))
    if stream:
        footprint, races = doc["footprint_words"], doc["races"]
    else:
        footprint = doc["metrics"]["gauges"]["footprint_words"]["value"]
        races = len(doc["races"])
    return {
        "kernel.footprint_words": footprint,
        "kernel.races": races,
        "kernel.fast_path_frac": fast / accesses if accesses else 0.0,
        "kernel.joins": sum(v for k, v in c.items() if k.startswith("joins_")),
        "kernel.shallow_copies": sum(
            v for k, v in c.items() if k.startswith("copies_shallow")),
        "kernel.deep_copies": sum(
            v for k, v in c.items() if k.startswith("copies_deep")),
    }


def _interleaved(runs: Dict[str, tuple]) -> Dict[str, float]:
    """Median replay rate per key over ``ROUNDS`` alternating rounds."""
    rates: Dict[str, List[float]] = {key: [] for key in runs}
    for _ in range(ROUNDS):
        for key, (detector, batch, backend) in runs.items():
            det = repro.cli.DETECTORS[detector](backend=backend)
            det.run_batch(batch)
            rates[key].append(det.perf.events_per_sec)
    return {key: statistics.median(v) for key, v in rates.items()}


def kernel_rates(w: Workload, events: List) -> Dict[str, float]:
    """Batched replay rates on pre-converted columns (diagnostic rows)."""
    batch = encode_batch(events)
    if "packed-np" in BACKENDS:
        batch.to_numpy_columns()
    out = {f"kernel.ev_per_s.{b}": 0.0 for b in ("object", "packed", "packed-np")}
    out.update(_interleaved(
        {f"kernel.ev_per_s.{b}": (w.detector, batch, b) for b in BACKENDS}))
    base = unmarked(events)
    inputs = {"sync_only": sync_only(mark(base, 0.01))}
    inputs.update({k: mark(base, r) for k, r in PACER_RATES.items()})
    out.update(_interleaved(
        {f"kernel.pacer_ev_per_s.{k}": ("pacer", encode_batch(v), None)
         for k, v in inputs.items()}))
    return out


def layer_metrics(w: Workload, path: Path, work: Path, median_wall: float,
                  trace_out: Optional[Path] = None) -> Dict:
    """The traced pass: per-layer times, counts, and diagnostics.

    Both pipelines run once on the workload's input, the one its timed
    reps measure and the other one, so every layer is measured on every
    workload.  A pipeline's remainder (``cli.other_s``,
    ``net.front.other_s``) is its traced run's wall time minus its layer
    times, so the layers of one run add up to that run.
    """
    offline, stream = Tracer(work), Tracer(work)
    analyzed = traced_analyze(w, path, work, offline)
    streamed = traced_stream(w, path, work, stream)
    if trace_out is not None:
        write_chrome_trace(trace_out,
                           offline.trace_events() + stream.trace_events())
    layers = {}
    for tracer, result, spans, other in (
        (offline, analyzed, OFFLINE_LAYERS, "cli.other_s"),
        (stream, streamed, STREAM_LAYERS, "net.front.other_s"),
    ):
        # the front thread's dispatch span waits for the shard process:
        # it counts only while nothing else runs, which is pipe IPC
        times = tracer.layer_times(result["window"], exclude=ROOT_SPANS,
                                   waits=("net.shard.dispatch",))
        mine = {metric: times.get(span, 0.0) for span, metric in spans.items()}
        covered = sum(mine.values())
        layers.update(mine)
        layers[other] = result["wall_s"] - covered
        result["covered_frac"] = covered / result["wall_s"]
    own = streamed if w.stream else analyzed
    layers["trace_overhead_frac"] = own["wall_s"] / median_wall - 1
    layers.update(kernel_counts(own["doc"], w.stream))
    layers.update(streamed["net"])
    layers.update(kernel_rates(w, list(load_trace_binary(path).events)))
    return {
        "metrics": layers,
        "checks": [dict(stream=is_stream, digest=r["digest"], ok=r["ok"])
                   for is_stream, r in ((False, analyzed), (True, streamed))],
        "covered_frac": own["covered_frac"],
    }


# -- main ------------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--input", required=True, type=Path,
                   help="binary trace file run.py recorded")
    p.add_argument("--work-dir", required=True, type=Path)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--min-reps", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trace-out", type=Path, default=None)
    p.add_argument("--out", required=True, type=Path)
    args = p.parse_args(argv)
    w = WORKLOADS[args.workload]

    rep(w, args.input, args.work_dir, 0)  # warm-up, untimed
    reps = []
    deadline = time.perf_counter() + args.seconds
    while len(reps) < args.min_reps or time.perf_counter() < deadline:
        index = len(reps) + 1
        try:
            result = rep(w, args.input, args.work_dir, index)
        except Exception as exc:  # noqa: BLE001 - a failed rep is counted
            print(f"rep {index} failed: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            result = {"ok": False, "digest": None}
        reps.append({k: result.get(k) for k in
                     ("wall_s", "report_ms", "digest", "ok")})
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if w.stream:
        peak_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    doc = {"workload": w.name, "reps": reps, "peak_rss_mb": peak_kb / 1024}
    walls = [r["wall_s"] for r in reps if r["wall_s"] is not None]
    if args.trace and walls:
        doc["traced"] = layer_metrics(w, args.input, args.work_dir,
                                      statistics.median(walls), args.trace_out)
    tmp = args.out.with_suffix(".tmp")
    tmp.write_text(json.dumps(doc), encoding="utf-8")
    os.replace(tmp, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
