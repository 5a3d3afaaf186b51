"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``workloads`` — list the bundled synthetic benchmarks.
* ``record``    — run a workload and write its trace to a file.
* ``analyze``   — run a detector over a trace file and report races
  (``--batch`` uses the columnar batched fast path — binary traces are
  then mmap-decoded straight into columns; both modes print events/sec
  and ns/event from the detector's perf counters).
* ``oracle``    — exact happens-before ground truth for a trace file.
* ``explain``   — replay a trace (or a seeded workload) with a flight
  recorder attached and explain every distinct race: happens-before
  witness, sampling attribution, surrounding event context, and (for
  PACER) why each unreported shortest race was discarded.
* ``detect``    — run a workload live under a detector (PACER with a
  sampling rate, or any always-on detector).
* ``profile``   — run a workload live with full observability: metrics
  snapshot (``metrics.json``), virtual-time probe timeline
  (``timeline.jsonl``), and a Chrome-trace/Perfetto profile
  (``profile.trace.json``, loadable in ui.perfetto.dev).
* ``matrix``    — run a (workload × detector × rate × seed) experiment
  matrix, optionally fanned across worker processes with ``--jobs``.
  Fan-out runs under a crash-isolated supervisor: per-trial wall-clock
  timeouts, bounded retries, poison-task quarantine
  (``--quarantine-out``), crash-safe progress journaling
  (``--checkpoint``/``--resume``), and deterministic chaos testing
  (``--fault-plan`` / ``$REPRO_FAULT_PLAN``) — see docs/ROBUSTNESS.md.
* ``verify-trace`` — integrity-check a trace file: structure plus the
  binary format's CRC32 trailer, ``--validate`` for feasibility.
* ``convert``   — convert traces between the text and binary formats.
* ``serve``     — run the race-telemetry server: accepts streamed
  event sessions over TCP/Unix sockets, shards them onto detector
  worker processes, and serves the continuously merged race report
  (see docs/TELEMETRY.md).
* ``stream``    — stream a trace file to a running server as one
  session (through the self-healing ``ResilientClient``:
  reconnect-with-resume, ``--retries``/``--backoff``) and print the
  server's summary.
* ``chaos-proxy`` — deterministic fault-injecting proxy between clients
  and a server (``conn_drop``/``frame_corrupt``/… wire faults from
  ``--fault-plan``), for resilience soaks.
* ``report``    — query a running server's live merged report
  (``--follow`` to poll).
* ``coverage``  — audit detection quality for one run: sync-op-weighted
  effective sampling rate, per-period race attribution, and the
  proportional estimate of the true race count
  (``repro/coverage-report/v1``).

``analyze`` and ``matrix`` accept ``--json`` for machine-readable output
(races + counters + metrics), and ``analyze``/``detect``/``matrix`` all
take ``--metrics-out``/``--trace-out`` (plus ``--timeline-out`` where a
single run produces a timeline), ``--report-out`` for the structured
race report (``repro/race-report/v1``; shard-merged deterministically on
``matrix``), and ``--coverage-out`` for the detection-quality coverage
report (``repro/coverage-report/v1``; on ``matrix`` it carries the
rate-vs-detection curve and the proportionality audit).  Trace file formats are auto-detected (binary traces start
with the ``PACR`` magic); ``--format`` forces one.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional

from .analysis.checkpoint import CheckpointError, CheckpointJournal
from .analysis.parallel import (
    DETECTOR_FACTORIES,
    default_jobs,
    expand_matrix,
    matrix_coverage,
    matrix_report,
    merge_matrix,
    run_matrix,
)
from .analysis.supervisor import (
    MatrixIncompleteError,
    SupervisorConfig,
    run_supervised,
)
from .analysis.tables import render_table
from .core.backend import BACKENDS, DEFAULT_BACKEND
from .core.pacer import PacerDetector
from .core.sampling import BiasCorrectedController
from .obs import (
    FlightRecorder,
    RunObserver,
    SyncIndex,
    build_coverage,
    build_report,
    matrix_trace_events,
    render_coverage,
    render_report_markdown,
    render_report_table,
    write_chrome_trace,
    write_coverage,
    write_report,
)
from .obs.observer import DEFAULT_SAMPLE_EVERY
from .obs.provenance import DEFAULT_WINDOW
from .detectors import (
    Detector,
    DjitPlusDetector,
    EraserDetector,
    FastTrackDetector,
    GenericDetector,
    GoldilocksDetector,
    LiteRaceDetector,
)
from .sim.runtime import Runtime, RuntimeConfig
from .sim.scheduler import run_program
from .sim.workloads import WORKLOADS, build_program, describe_site
from .trace.batch import DEFAULT_BATCH_SIZE
from .trace.binio import (
    MAGIC,
    describe_binary,
    dump_trace_binary,
    load_trace_binary,
    load_trace_columns,
)
from .trace.oracle import HBOracle
from .trace.textio import dump_trace, load_trace
from .trace.trace import Trace, TraceError, TraceFormatError
from .util.faults import FAULT_PLAN_ENV, FaultPlan, FaultPlanError

__all__ = ["main", "DETECTORS"]

DETECTORS: Dict[str, Callable[..., Detector]] = {
    "pacer": PacerDetector,
    "fasttrack": FastTrackDetector,
    "generic": GenericDetector,
    "djit": DjitPlusDetector,
    "goldilocks": GoldilocksDetector,
    "literace": LiteRaceDetector,
    "eraser": EraserDetector,
}


def _load(path: Path, fmt: str) -> Trace:
    if fmt == "auto":
        fmt = "binary" if path.read_bytes()[:4] == MAGIC else "text"
    if fmt == "binary":
        return load_trace_binary(path)
    return load_trace(path)


def _dump(trace, path: Path, fmt: str) -> None:
    if fmt == "auto":
        fmt = "binary" if path.suffix in (".bin", ".pacr") else "text"
    if fmt == "binary":
        dump_trace_binary(trace, path)
    else:
        dump_trace(trace, path)


def _print_races(detector: Detector, limit: int) -> None:
    print(
        f"{detector.name}: {len(detector.races)} race reports, "
        f"{len(detector.distinct_races)} distinct site pairs"
    )
    rows = [
        [r.kind, r.var, f"t{r.first_tid}@{r.first_site}", f"t{r.second_tid}@{r.second_site}", r.index]
        for r in detector.races[:limit]
    ]
    if rows:
        print(render_table(["kind", "var", "first", "second", "at event"], rows))
    if len(detector.races) > limit:
        print(f"... and {len(detector.races) - limit} more (raise --limit)")


# -- observability plumbing ---------------------------------------------------


def _wants_observer(args) -> bool:
    return bool(
        getattr(args, "json", False)
        or getattr(args, "metrics_out", None)
        or getattr(args, "timeline_out", None)
        or getattr(args, "trace_out", None)
        or getattr(args, "report_out", None)
        or getattr(args, "coverage_out", None)
    )


def _make_observer(args) -> Optional[RunObserver]:
    """An observer when any observability output was requested, else None
    (the disabled path: detectors see a single untaken branch).  A race
    report sink additionally attaches a flight recorder, which opts the
    run into per-event context capture."""
    if not _wants_observer(args):
        return None
    recorder = None
    if getattr(args, "report_out", None):
        recorder = FlightRecorder(window=getattr(args, "window", DEFAULT_WINDOW))
    return RunObserver(
        sample_every=getattr(args, "sample_every", None) or DEFAULT_SAMPLE_EVERY,
        recorder=recorder,
    )


def _write_report_output(
    obs: Optional[RunObserver],
    detector: Detector,
    args,
    source: str,
    events: int,
    rate: Optional[float] = None,
    sync: Optional[SyncIndex] = None,
    site_name=None,
    quiet: bool = False,
) -> None:
    """Build and write the structured race report when requested."""
    if not getattr(args, "report_out", None) or obs is None:
        return
    if sync is None and obs.recorder is not None:
        sync = SyncIndex.from_recorder(obs.recorder)
    doc = build_report(
        detector.races,
        source=source,
        detector=detector.name,
        backend=detector.backend_name,
        rate=rate,
        events=events,
        contexts=obs.race_contexts,
        sync=sync,
        site_name=site_name,
    )
    write_report(Path(args.report_out), doc)
    if not quiet:
        print(f"wrote race report to {args.report_out}")


def _write_coverage_output(
    obs: Optional[RunObserver],
    detector: Detector,
    args,
    source: str,
    events: int,
    rate: Optional[float] = None,
    workload: Optional[str] = None,
    quiet: bool = False,
) -> None:
    """Build and write the detection-quality coverage report when requested.

    The document deliberately omits the state backend, so the same run is
    byte-identical across ``--state-backend`` choices (the quality suite
    pins this).
    """
    if not getattr(args, "coverage_out", None):
        return
    doc = build_coverage(
        source=source,
        detector=detector.name,
        workload=workload,
        nominal_rate=rate,
        counters=detector.counters.snapshot(),
        marks=obs.sampling_marks if obs is not None else (),
        races=detector.races,
        events=events,
    )
    write_coverage(Path(args.coverage_out), doc)
    if not quiet:
        print(f"wrote coverage report to {args.coverage_out}")


def _write_obs_outputs(obs: Optional[RunObserver], args, quiet: bool = False) -> None:
    if obs is None:
        return
    if getattr(args, "metrics_out", None):
        obs.write_metrics(Path(args.metrics_out))
        if not quiet:
            print(f"wrote metrics snapshot to {args.metrics_out}")
    if getattr(args, "timeline_out", None):
        obs.write_timeline(Path(args.timeline_out))
        if not quiet:
            print(f"wrote probe timeline to {args.timeline_out}")
    if getattr(args, "trace_out", None):
        obs.write_trace(Path(args.trace_out))
        if not quiet:
            print(
                f"wrote Perfetto trace to {args.trace_out} "
                f"(open in ui.perfetto.dev)"
            )


def _add_obs_arguments(
    p,
    metrics_default: Optional[str] = None,
    timeline_default: Optional[str] = None,
    trace_default: Optional[str] = None,
) -> None:
    """Attach the shared observability flags to a subparser."""
    p.add_argument(
        "--metrics-out", default=metrics_default, metavar="PATH",
        help="write a deterministic metrics snapshot as JSON",
    )
    p.add_argument(
        "--timeline-out", default=timeline_default, metavar="PATH",
        help="write the virtual-time probe timeline as JSONL",
    )
    p.add_argument(
        "--trace-out", default=trace_default, metavar="PATH",
        help="write a Chrome-trace/Perfetto profile (load in ui.perfetto.dev)",
    )
    p.add_argument(
        "--report-out", default=None, metavar="PATH",
        help="write a structured race report (repro/race-report/v1 JSON); "
        "attaches a flight recorder for per-race context capture",
    )
    p.add_argument(
        "--coverage-out", default=None, metavar="PATH",
        help="write the detection-quality coverage report "
        "(repro/coverage-report/v1 JSON): effective sampling rate, "
        "race attribution, and estimated true race count",
    )
    p.add_argument(
        "--sample-every", type=int, default=DEFAULT_SAMPLE_EVERY, metavar="N",
        help="virtual-time distance between detector-state probes "
        f"(default {DEFAULT_SAMPLE_EVERY})",
    )


def _add_backend_argument(p) -> None:
    p.add_argument(
        "--state-backend", choices=BACKENDS, default=None,
        help="detector state representation "
        f"(default: $REPRO_STATE_BACKEND or '{DEFAULT_BACKEND}'); "
        "both backends report identical races",
    )


def _race_dict(race) -> Dict:
    return {
        "var": race.var,
        "kind": race.kind,
        "first_tid": race.first_tid,
        "first_clock": race.first_clock,
        "first_site": race.first_site,
        "second_tid": race.second_tid,
        "second_site": race.second_site,
        "index": race.index,
        "first_index": race.first_index,
    }


def _perf_dict(perf) -> Dict:
    return {
        "events": perf.events,
        "elapsed_ns": perf.elapsed_ns,
        "batches": perf.batches,
        "max_batch": perf.max_batch,
        "events_per_sec": round(perf.events_per_sec, 1),
        "ns_per_event": round(perf.ns_per_event, 1),
    }


def _print_json(doc: Dict) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


# -- commands -----------------------------------------------------------------


def cmd_workloads(_args) -> int:
    rows = [
        [name, spec.threads_total, spec.max_live, len(spec.racy_sites), spec.iterations]
        for name, spec in sorted(WORKLOADS.items())
    ]
    print(
        render_table(
            ["workload", "threads", "max live", "injected races", "hot iterations"],
            rows,
        )
    )
    return 0


def cmd_record(args) -> int:
    spec = WORKLOADS[args.workload].scaled(args.scale)
    trace = run_program(build_program(spec, args.seed), seed=args.seed)
    _dump(trace, Path(args.output), args.format)
    print(f"wrote {len(trace)} events to {args.output}")
    return 0


def cmd_analyze(args) -> int:
    path = Path(args.trace)
    fmt = args.format
    if fmt == "auto":
        fmt = "binary" if path.read_bytes()[:4] == MAGIC else "text"
    trace = None
    columns = None
    if args.batch and fmt == "binary":
        # zero-copy fast path: mmap the file and decode the wire format
        # straight into EventBatch columns
        columns = load_trace_columns(path)
    else:
        trace = _load(path, fmt)
    detector = DETECTORS[args.detector](backend=args.state_backend)
    obs = _make_observer(args)
    if obs is not None:
        obs.attach(detector)
    if args.batch:
        detector.run_batch(columns if columns is not None else trace,
                           batch_size=args.batch_size)
    else:
        detector.run(trace)
    if obs is not None:
        obs.finalize(detector)
    # the whole trace is in memory, so witnesses come from the exact sync
    # index rather than the bounded flight-recorder window
    _write_report_output(
        obs, detector, args, "analyze", detector.perf.events,
        sync=(SyncIndex.from_trace(columns if columns is not None else trace)
              if args.report_out else None),
        quiet=args.json,
    )
    _write_coverage_output(
        obs, detector, args, "analyze", detector.perf.events, quiet=args.json
    )
    if args.json:
        _print_json(
            {
                "command": "analyze",
                "trace": args.trace,
                "detector": detector.name,
                "events": detector.perf.events,
                "races": [_race_dict(r) for r in detector.races],
                "distinct_races": sorted(detector.distinct_races),
                "counters": detector.counters.snapshot(),
                "metrics": obs.registry.snapshot() if obs is not None else None,
                "perf": _perf_dict(detector.perf),
            }
        )
        _write_obs_outputs(obs, args, quiet=True)
    else:
        print(f"perf: {detector.perf.summary()}")
        _print_races(detector, args.limit)
        _write_obs_outputs(obs, args)
    return 1 if detector.races and args.fail_on_race else 0


def cmd_oracle(args) -> int:
    trace = _load(Path(args.trace), args.format)
    oracle = HBOracle(trace)
    races = oracle.all_races()
    print(
        f"{len(trace)} events, {len(oracle.accesses)} accesses, "
        f"{len(races)} racing pairs on {len(oracle.racy_variables())} variables"
    )
    rows = [
        [r.kind, r.first.var, f"t{r.first.tid}@{r.first.site}",
         f"t{r.second.tid}@{r.second.site}", r.first.index, r.second.index]
        for r in races[: args.limit]
    ]
    if rows:
        print(render_table(["kind", "var", "first", "second", "i", "j"], rows))
    return 0


def cmd_detect(args) -> int:
    spec = WORKLOADS[args.workload].scaled(args.scale)
    detector = DETECTORS[args.detector](backend=args.state_backend)
    controller = None
    if args.rate is not None:
        if args.detector != "pacer":
            print("--rate only applies to the pacer detector", file=sys.stderr)
            return 2
        controller = BiasCorrectedController(
            args.rate / 100.0, rng=random.Random(args.seed)
        )
    obs = _make_observer(args)
    runtime = Runtime(
        build_program(spec, args.seed),
        detector,
        controller=controller,
        config=RuntimeConfig(track_memory=False),
        seed=args.seed,
        observer=obs,
    )
    runtime.run()
    if controller is not None:
        print(f"effective sampling rate: {runtime.effective_sampling_rate:.2%}")
    _print_races(detector, args.limit)
    _write_obs_outputs(obs, args)
    _write_report_output(
        obs, detector, args, "detect", runtime.events,
        rate=None if args.rate is None else args.rate / 100.0,
        site_name=describe_site,
    )
    _write_coverage_output(
        obs, detector, args, "detect", runtime.events,
        rate=None if args.rate is None else args.rate / 100.0,
        workload=args.workload,
    )
    return 0


def cmd_profile(args) -> int:
    """Run a workload live with full observability and write all sinks."""
    spec = WORKLOADS[args.workload].scaled(args.scale)
    detector = DETECTORS[args.detector](backend=args.state_backend)
    controller = None
    if args.detector == "pacer":
        rate = 10.0 if args.rate is None else args.rate
        controller = BiasCorrectedController(
            rate / 100.0, rng=random.Random(args.seed)
        )
    elif args.rate is not None:
        print("--rate only applies to the pacer detector", file=sys.stderr)
        return 2
    obs = RunObserver(sample_every=args.sample_every)
    runtime = Runtime(
        build_program(spec, args.seed),
        detector,
        controller=controller,
        config=RuntimeConfig(),
        seed=args.seed,
        observer=obs,
    )
    runtime.run()
    periods = obs.sampling_periods()
    sampled_vt = sum(end - begin for begin, end in periods)
    print(
        f"{detector.name} on {args.workload}: {runtime.events} events, "
        f"{len(detector.races)} race reports "
        f"({len(detector.distinct_races)} distinct)"
    )
    if controller is not None:
        print(
            f"sampling: {len(periods)} periods covering {sampled_vt} of "
            f"{runtime.events} events "
            f"(effective rate {runtime.effective_sampling_rate:.2%})"
        )
    print(
        f"probes: {len(obs.timeline)} timeline samples, "
        f"{len(runtime.gc_log)} GC boundaries, "
        f"{runtime.context_switches} context switches"
    )
    _write_obs_outputs(obs, args)
    _write_report_output(
        obs, detector, args, "profile", runtime.events,
        rate=None if controller is None else controller.rate,
        site_name=describe_site,
    )
    _write_coverage_output(
        obs, detector, args, "profile", runtime.events,
        rate=None if controller is None else controller.rate,
        workload=args.workload,
    )
    return 0


def _quarantine_summary(doc: Dict) -> List[str]:
    """Human lines for the quarantine section of a matrix run."""
    lines = [
        f"QUARANTINED {len(doc['quarantined'])} of {doc['total_tasks']} "
        f"trial(s) after exhausting retries:"
    ]
    for entry in doc["quarantined"]:
        kinds: Dict[str, int] = {}
        for failure in entry["failures"]:
            kinds[failure["kind"]] = kinds.get(failure["kind"], 0) + 1
        history = ", ".join(f"{k} x{n}" for k, n in sorted(kinds.items()))
        rate = "-" if entry["rate"] is None else f"{entry['rate']:.0%}"
        lines.append(
            f"  #{entry['index']} {entry['workload']}/{entry['detector']} "
            f"rate {rate} seed {entry['seed']}: "
            f"{entry['attempts']} attempts ({history})"
        )
    return lines


def cmd_matrix(args) -> int:
    rates = [r / 100.0 for r in args.rates] if args.rates else [None]
    tasks = expand_matrix(
        workloads=args.workloads,
        detectors=args.detectors,
        rates=rates,
        seeds=range(args.seeds),
        scale=args.scale,
        backend=args.state_backend,
    )

    fault_plan = None
    fault_text = args.fault_plan or os.environ.get(FAULT_PLAN_ENV, "")
    if fault_text.strip():
        try:
            fault_plan = FaultPlan.parse(fault_text)
        except FaultPlanError as exc:
            print(f"bad fault plan: {exc}", file=sys.stderr)
            return 2

    journal = completed = None
    if args.resume and not args.checkpoint:
        print("--resume requires --checkpoint PATH", file=sys.stderr)
        return 2
    if args.checkpoint:
        path = Path(args.checkpoint)
        try:
            if args.resume and path.exists():
                journal = CheckpointJournal.resume(path, tasks)
                completed = dict(journal.completed)
                if not args.json:
                    print(
                        f"resuming from {path}: {len(completed)} of "
                        f"{len(tasks)} trial(s) already journaled"
                    )
            else:
                journal = CheckpointJournal.create(path, tasks)
        except CheckpointError as exc:
            print(f"checkpoint error: {exc}", file=sys.stderr)
            return 2

    quarantine_doc = None
    supervised = args.jobs > 1 or fault_plan is not None or journal is not None
    if supervised:
        config = SupervisorConfig(
            jobs=max(1, args.jobs),
            task_timeout=args.task_timeout if args.task_timeout > 0 else None,
            max_attempts=args.max_attempts,
            quarantine=not args.no_quarantine,
            fault_plan=fault_plan,
        )
        on_result = journal.record if journal is not None else None
        try:
            outcome = run_supervised(
                tasks, config, completed=completed, on_result=on_result
            )
        except MatrixIncompleteError as exc:
            print(f"matrix failed: {exc}", file=sys.stderr)
            return 1
        pairs = outcome.surviving_pairs(tasks)
        quarantine_doc = outcome.quarantine_doc()
    else:
        results = run_matrix(tasks, jobs=args.jobs)
        pairs = list(zip(tasks, results))

    live_tasks = [task for task, _ in pairs]
    live_results = [stats for _, stats in pairs]
    merged = merge_matrix(live_tasks, live_results)

    if args.quarantine_out:
        doc = quarantine_doc or {
            "schema": "repro/quarantine/v1",
            "total_tasks": len(tasks),
            "completed": len(pairs),
            "quarantined": [],
            "counters": {},
        }
        with open(args.quarantine_out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        if not args.json:
            print(f"wrote quarantine report to {args.quarantine_out}")
    if args.metrics_out:
        _write_matrix_metrics(Path(args.metrics_out), merged)
        if not args.json:
            print(f"wrote merged metrics snapshot to {args.metrics_out}")
    if args.report_out:
        write_report(Path(args.report_out), matrix_report(live_tasks, live_results))
        if not args.json:
            print(f"wrote merged race report to {args.report_out}")
    if args.coverage_out:
        write_coverage(
            Path(args.coverage_out), matrix_coverage(live_tasks, live_results)
        )
        if not args.json:
            print(f"wrote matrix coverage report to {args.coverage_out}")
    if args.trace_out:
        write_chrome_trace(
            Path(args.trace_out), matrix_trace_events(pairs)
        )
        if not args.json:
            print(
                f"wrote matrix coverage trace to {args.trace_out} "
                f"(open in ui.perfetto.dev)"
            )
    if args.json:
        cells = []
        for (workload, detector, rate), stats in sorted(merged.items(), key=str):
            cells.append(
                {
                    "workload": workload,
                    "detector": detector,
                    "rate": rate,
                    "events": stats.events,
                    "races": stats.races,
                    "distinct_races": stats.distinct_races,
                    "effective_rate": round(stats.effective_rate, 6),
                    "counters": stats.counters,
                    "metrics": stats.metrics,
                    "perf": _perf_dict(stats.perf),
                }
            )
        _print_json(
            {
                "command": "matrix",
                "trials": len(tasks),
                "completed": len(pairs),
                "jobs": args.jobs,
                "cells": cells,
                "quarantine": quarantine_doc,
            }
        )
        return 0
    rows = []
    for (workload, detector, rate), stats in sorted(merged.items(), key=str):
        rows.append(
            [
                workload,
                detector,
                "-" if rate is None else f"{rate:.0%}",
                stats.events,
                stats.races,
                stats.distinct_races,
                f"{stats.effective_rate:.2%}",
                f"{stats.perf.events_per_sec:,.0f}",
            ]
        )
    print(
        render_table(
            ["workload", "detector", "rate", "events", "races",
             "distinct", "eff rate", "events/s"],
            rows,
        )
    )
    print(
        f"{len(tasks)} trials over {args.jobs} job(s); "
        f"per-trial results are independent of --jobs"
    )
    if quarantine_doc and quarantine_doc["quarantined"]:
        for line in _quarantine_summary(quarantine_doc):
            print(line)
    return 0


def _write_matrix_metrics(path: Path, merged) -> None:
    """Write the merged per-cell metrics as deterministic JSON.

    Only trace-determined values appear (``CoreStats.metrics``,
    counters, race counts — never wall-clock perf), so the file is
    byte-identical for any ``--jobs`` value; the obs test suite pins
    this.
    """
    cells = {}
    for (workload, detector, rate), stats in merged.items():
        key = f"{workload}/{detector}/{'-' if rate is None else rate}"
        cells[key] = {
            "events": stats.events,
            "races": stats.races,
            "distinct_races": stats.distinct_races,
            "effective_rate": round(stats.effective_rate, 9),
            "counters": stats.counters,
            "metrics": stats.metrics,
        }
    doc = {"command": "matrix", "cells": cells}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _pacer_discard_attribution(trace, detector, sync: SyncIndex, cap: int = 50) -> List[Dict]:
    """Why each unreported shortest race was discarded (PACER only).

    Compares the happens-before oracle's *reportable* races — the pairs a
    precise always-on detector reports — against PACER's actual reports.
    PACER's guarantee is that a race is reported iff its first access
    falls in a sampling period; the attribution names the period (or its
    absence) for every miss.
    """
    reported = {(r.var, r.index) for r in detector.races}
    out: List[Dict] = []
    for pair in HBOracle(trace).reportable_races():
        key = (pair.first.var, pair.second.index)
        if key in reported:
            continue
        period = sync.period_of(pair.first.index)
        if period is None:
            reason = (
                f"first access (vt {pair.first.index}) fell outside every "
                f"sampling period — discarded per the paper's Table 4 rules"
            )
        else:
            reason = (
                f"first access was inside sampling period {period} yet the "
                f"race went unreported — unexpected for PACER; check the "
                f"detector"
            )
        out.append(
            {
                "kind": pair.kind,
                "var": pair.first.var,
                "first_vt": pair.first.index,
                "second_vt": pair.second.index,
                "first_site": pair.first.site,
                "second_site": pair.second.site,
                "first_tid": pair.first.tid,
                "second_tid": pair.second.tid,
                "reason": reason,
            }
        )
        if len(out) >= cap:
            break
    return out


def cmd_explain(args) -> int:
    """Replay a trace (or a seeded workload) and explain each race."""
    path = Path(args.trace)
    site_resolver = None
    if path.exists():
        trace = _load(path, args.format)
    elif args.trace in WORKLOADS:
        spec = WORKLOADS[args.trace].scaled(args.scale)
        trace = run_program(build_program(spec, args.seed), seed=args.seed)
        site_resolver = describe_site
    else:
        print(
            f"{args.trace!r} is neither a trace file nor a workload "
            f"(choices: {', '.join(sorted(WORKLOADS))})",
            file=sys.stderr,
        )
        return 2
    detector = DETECTORS[args.detector](backend=args.state_backend)
    recorder = FlightRecorder(window=args.window)
    obs = RunObserver(
        sample_every=args.sample_every or DEFAULT_SAMPLE_EVERY, recorder=recorder
    )
    obs.attach(detector)
    detector.run(trace)
    obs.finalize(detector)
    sync = SyncIndex.from_trace(trace)
    discarded = None
    if args.detector == "pacer":
        discarded = _pacer_discard_attribution(trace, detector, sync)
    doc = build_report(
        detector.races,
        source="explain",
        detector=detector.name,
        backend=detector.backend_name,
        rate=None,
        events=len(trace),
        contexts=obs.race_contexts,
        sync=sync,
        site_name=site_resolver,
        discarded=discarded,
    )
    if args.report_out:
        write_report(Path(args.report_out), doc)
    if args.markdown_out:
        with open(args.markdown_out, "w", encoding="utf-8") as fh:
            fh.write(render_report_markdown(doc, limit=args.races))
    if args.trace_out:
        obs.write_trace(Path(args.trace_out))
    if args.json:
        _print_json(doc)
        return 0
    print(render_report_table(doc, limit=args.limit))
    for n, race in enumerate(doc["races"][: args.races], start=1):
        witness = race.get("witness")
        if witness is None:
            continue
        first = race.get("first_site_name") or race["first_site"]
        second = race.get("second_site_name") or race["second_site"]
        print(f"\nrace {n}: {first} x {second} [{'+'.join(race['kinds'])}]")
        print(f"  {witness['verdict']}: {witness['summary']}")
        sampling = witness.get("sampling")
        if sampling:
            print(
                f"  sampling: first access in period {sampling['first_period']}, "
                f"second in {sampling['second_period']} "
                f"(of {sampling['n_periods']})"
            )
        context = race.get("context") or {}
        for side, label in ((context.get("first"), "first"),
                            (context.get("second"), "second")):
            if not side:
                continue
            mark = "" if side.get("complete") else " (window truncated)"
            print(f"  {label} access context — t{side['tid']}{mark}:")
            for ev in side["events"]:
                print(
                    f"    vt {ev['vt']:>6}  {ev['kind']:<7} "
                    f"target={ev['target']} site={ev['site']}"
                )
    if discarded:
        print(f"\n{len(discarded)} shortest race(s) went unreported:")
        for entry in discarded[: args.races]:
            print(
                f"  [{entry['kind']}] var {entry['var']} "
                f"vt {entry['first_vt']} vs {entry['second_vt']}: "
                f"{entry['reason']}"
            )
    for out, label in (
        (args.report_out, "race report"),
        (args.markdown_out, "Markdown report"),
        (args.trace_out, "Perfetto trace"),
    ):
        if out:
            print(f"wrote {label} to {out}")
    return 0


def cmd_coverage(args) -> int:
    """Audit detection quality for one run (``repro coverage``).

    Accepts either a trace file (replayed through the detector) or a
    workload name (run live, seeded — the live path is the only one that
    exercises PACER sampling periods).  Prints the rendered
    ``repro/coverage-report/v1`` summary; ``--out`` writes the JSON
    document, ``--json`` prints it instead of the rendering.
    """
    path = Path(args.trace)
    detector = DETECTORS[args.detector](backend=args.state_backend)
    obs = RunObserver(sample_every=DEFAULT_SAMPLE_EVERY)
    rate = None
    workload = None
    if path.exists():
        if args.rate is not None:
            print("--rate only applies to live workload runs", file=sys.stderr)
            return 2
        trace = _load(path, args.format)
        obs.attach(detector)
        detector.run(trace)
        obs.finalize(detector)
        events = detector.perf.events
    elif args.trace in WORKLOADS:
        workload = args.trace
        spec = WORKLOADS[args.trace].scaled(args.scale)
        controller = None
        if args.detector == "pacer":
            rate = (10.0 if args.rate is None else args.rate) / 100.0
            controller = BiasCorrectedController(
                rate, rng=random.Random(args.seed)
            )
        elif args.rate is not None:
            print("--rate only applies to the pacer detector", file=sys.stderr)
            return 2
        runtime = Runtime(
            build_program(spec, args.seed),
            detector,
            controller=controller,
            config=RuntimeConfig(track_memory=False),
            seed=args.seed,
            observer=obs,
        )
        runtime.run()
        events = runtime.events
    else:
        print(
            f"{args.trace!r} is neither a trace file nor a workload "
            f"(choices: {', '.join(sorted(WORKLOADS))})",
            file=sys.stderr,
        )
        return 2
    doc = build_coverage(
        source="coverage",
        detector=detector.name,
        workload=workload,
        nominal_rate=rate,
        counters=detector.counters.snapshot(),
        marks=obs.sampling_marks,
        races=detector.races,
        events=events,
    )
    if args.out:
        write_coverage(Path(args.out), doc)
    if args.json:
        _print_json(doc)
        return 0
    print(render_coverage(doc))
    if args.out:
        print(f"wrote coverage report to {args.out}")
    return 0


def cmd_convert(args) -> int:
    trace = _load(Path(args.input), "auto")
    _dump(trace, Path(args.output), args.format)
    print(f"converted {len(trace)} events -> {args.output}")
    return 0


def cmd_verify_trace(args) -> int:
    """Integrity-check a trace file without analyzing it.

    Binary traces get the full structural walk plus the v2 CRC32
    trailer check; text traces are parsed line by line.  ``--validate``
    additionally checks trace feasibility (fork-before-run etc.).
    Exit 0 on a sound file, 1 on any integrity failure.
    """
    path = Path(args.trace)
    try:
        data = path.read_bytes()
    except OSError as exc:
        print(f"FAIL {path}: {exc}", file=sys.stderr)
        return 1
    try:
        if data[:4] == MAGIC:
            info = describe_binary(data, validate=args.validate)
        else:
            trace = load_trace(path)
            if args.validate:
                trace.validate()
            info = {
                "format": "text",
                "version": None,
                "events": len(trace),
                "bytes": len(data),
                "crc32": None,
                "checksummed": False,
            }
    except (TraceFormatError, TraceError) as exc:
        if args.json:
            _print_json({"command": "verify-trace", "trace": str(path),
                         "ok": False, "error": str(exc)})
        else:
            print(f"FAIL {path}: {exc}", file=sys.stderr)
        return 1
    info["validated"] = bool(args.validate)
    if args.json:
        _print_json({"command": "verify-trace", "trace": str(path),
                     "ok": True, **info})
    else:
        version = "text" if info["version"] is None else f"v{info['version']}"
        crc = f", crc32 {info['crc32']} OK" if info["checksummed"] else ""
        feasible = ", feasible" if args.validate else ""
        print(
            f"OK {path}: {info['events']} events, {version}, "
            f"{info['bytes']} bytes{crc}{feasible}"
        )
    return 0


def cmd_serve(args) -> int:
    """Run the race-telemetry server until SIGTERM/^C (or ``--duration``).

    Shutdown is always a *graceful drain*: stop accepting, wait for
    in-flight chunks, flush spools plus a session manifest, then write
    the final status/trace/metrics artifacts.  A restarted server
    pointed at the same ``--spool-dir`` re-adopts the drained sessions
    so resuming clients lose nothing.
    """
    import signal
    import threading

    from .net import ServerConfig, TelemetryServer

    config = ServerConfig(
        address=args.address,
        n_shards=args.shards,
        shard_mode=args.shard_mode,
        credits=args.credits,
        max_sessions=args.max_sessions,
        spool_dir=args.spool_dir,
        log_path=args.log_out,
        http=args.http,
        spool_quota_bytes=args.spool_quota,
        memory_watermark_bytes=args.memory_watermark,
        slow_client_timeout=args.slow_client_timeout,
        drain_timeout=args.drain_timeout,
    )
    server = TelemetryServer(config)
    server.start()
    # the bound address (port 0 resolves on bind) for scripted clients
    if args.address_file:
        Path(args.address_file).write_text(server.address + "\n", encoding="utf-8")
    print(f"serving {server.address} "
          f"({args.shards} {args.shard_mode} shard(s), "
          f"{args.credits}-chunk credit window)", flush=True)
    if server.http_address:
        print(f"observability http on {server.http_address} "
              "(/metrics /status /healthz)", flush=True)
    if server.adopted_sessions:
        print(f"re-adopted {server.adopted_sessions} spooled session(s)",
              flush=True)

    # SIGTERM/SIGINT trip the event instead of killing the process, so
    # shutdown always goes through drain(): no accepted chunk is lost
    stop_event = threading.Event()
    old_handlers = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            old_handlers[signum] = signal.signal(
                signum, lambda *_: stop_event.set()
            )
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass
    try:
        try:
            stop_event.wait(timeout=args.duration)
        except KeyboardInterrupt:  # pragma: no cover - interactive path
            pass
    finally:
        for signum, handler in old_handlers.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):  # pragma: no cover
                pass
        drained = server.drain()
        print(
            f"drained in {drained['seconds']:.3f}s "
            f"({drained['drained']} session(s), "
            f"{drained['evicted']} evicted)", flush=True,
        )
        doc = server.query_doc()
        if args.status_out:
            with open(args.status_out, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, sort_keys=True, indent=2)
                fh.write("\n")
        # the merged service trace needs live shards: write before stop()
        if args.trace_out:
            server.write_trace(args.trace_out)
        server.stop()
        # stop() finalizes every session, so the metrics fold is complete
        if args.metrics_out:
            server.write_metrics(args.metrics_out)
    report = doc["report"]
    print(
        f"served {len(doc['sessions'])} session(s): {report['events']} events, "
        f"{report['dynamic_races']} race(s), {report['distinct_races']} distinct"
    )
    return 0


def cmd_stream(args) -> int:
    """Stream a trace file to a telemetry server as one session.

    Streams through :class:`~repro.net.ResilientClient`, so transient
    connection loss, corrupted frames, and BUSY pushback are absorbed by
    reconnect-with-resume inside the ``--retries`` budget.
    """
    from .net import ResilientClient

    trace = _load(Path(args.trace), args.format)
    client = ResilientClient(
        args.address,
        args.session,
        detector=args.detector,
        backend=args.state_backend,
        chunk_size=args.chunk_size,
        retries=args.retries,
        backoff_base=args.backoff,
    )
    client.connect()
    client.send_events(list(trace.events))
    summary = client.close()
    if args.json:
        _print_json(
            {
                "command": "stream",
                "trace": args.trace,
                "address": args.address,
                "credit_waits": client.credit_waits,
                "retries": client.retry_count,
                **summary,
            }
        )
    elif not summary:
        # close() exhausted its retry budget without a server summary;
        # every acked chunk is still durable server-side for a resume
        print(
            f"stream interrupted after {client.events_sent} event(s); "
            f"server summary unavailable ({client.retry_count} retries)",
            file=sys.stderr,
        )
        return 1
    else:
        retried = (
            f" ({client.retry_count} reconnect(s))" if client.retry_count
            else ""
        )
        print(
            f"streamed {summary['events']} events in {summary['chunks']} "
            f"chunk(s) as session {summary['session']!r}: "
            f"{summary['races']} race(s), "
            f"{summary['distinct_races']} distinct{retried}"
        )
    return 1 if summary.get("races") and args.fail_on_race else 0


def cmd_chaos_proxy(args) -> int:
    """Run a deterministic fault-injecting proxy in front of a server.

    Sits between telemetry clients and a running ``repro serve``
    instance and injects wire faults from ``--fault-plan`` (or
    ``$REPRO_FAULT_PLAN``) — the CI chaos soak points clients here and
    asserts the merged report is byte-identical to an offline analyze.
    """
    import time

    from .net.chaos import ChaosProxy, wire_plan

    plan = None
    fault_text = args.fault_plan or os.environ.get(FAULT_PLAN_ENV, "")
    if fault_text.strip():
        try:
            plan = wire_plan(fault_text)
        except FaultPlanError as exc:
            print(f"bad fault plan: {exc}", file=sys.stderr)
            return 2
    proxy = ChaosProxy(
        args.listen,
        args.upstream,
        plan=plan,
        seed=args.seed,
        stall_seconds=args.stall_seconds,
    )
    proxy.start()
    if args.address_file:
        Path(args.address_file).write_text(proxy.address + "\n", encoding="utf-8")
    spec = proxy.plan_spec() or "<transparent>"
    print(f"chaos proxy {proxy.address} -> {args.upstream} "
          f"(plan {spec!r}, seed {args.seed})", flush=True)
    try:
        if args.duration is not None:
            time.sleep(args.duration)
        else:  # pragma: no cover - interactive path
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass
    finally:
        proxy.stop()
    stats = dict(proxy.stats)
    if args.json:
        _print_json({
            "command": "chaos-proxy",
            "listen": proxy.address,
            "upstream": args.upstream,
            "plan": proxy.plan_spec(),
            "seed": args.seed,
            "fired": proxy.fired(),
            "stats": stats,
        })
    else:
        print(
            f"proxied {stats['connections']} connection(s), "
            f"{stats['frames']} frame(s); {proxy.fired()} fault(s) fired"
        )
    return 0


def cmd_net_report(args) -> int:
    """Query a telemetry server's live merged report (optionally follow)."""
    import time

    from .net import query_server

    want_trace = bool(args.trace_out)
    while True:
        doc = query_server(args.address, trace=want_trace)
        if args.report_out:
            write_report(Path(args.report_out), doc["report"])
        if args.metrics_out:
            # round-trip through a registry for the canonical byte format
            from .obs.metrics import MetricsRegistry

            registry = MetricsRegistry()
            registry.merge_snapshot(doc.get("metrics", {}))
            registry.write_json(args.metrics_out)
        if args.trace_out:
            if doc.get("trace_truncated"):
                print(
                    "warning: service trace exceeded the frame limit; "
                    "use `repro serve --trace-out` instead",
                    file=sys.stderr,
                )
            elif "trace" in doc:
                with open(args.trace_out, "w", encoding="utf-8") as fh:
                    json.dump(doc["trace"], fh, sort_keys=True)
                    fh.write("\n")
        if args.prom:
            from .obs.prom import render_prometheus

            print(render_prometheus(doc.get("metrics", {})), end="")
        elif args.json:
            _print_json(doc)
        else:
            report = doc["report"]
            print(
                f"{args.address}: {len(doc['sessions'])} session(s), "
                f"{report['events']} events, {report['dynamic_races']} "
                f"race(s), {report['distinct_races']} distinct"
            )
            for sess in doc["sessions"]:
                print(
                    f"  {sess['session']:<24} {sess['state']:<9} "
                    f"shard {sess['shard']}  seq {sess['applied_seq']:<6} "
                    f"{sess['events']:>8} events  {sess['races']:>4} race(s)"
                )
        if not args.follow:
            return 0
        time.sleep(args.interval)


def cmd_top(args) -> int:
    """Live operator console over a telemetry server (``repro top``)."""
    import time

    from .net import build_top_status, query_server, render_top

    if args.once:
        status = build_top_status(query_server(args.address))
        if args.json:
            _print_json(status)
        else:
            print(render_top(status), end="")
        return 0
    prev = None
    try:
        while True:  # pragma: no cover - interactive path
            started = time.monotonic()
            status = build_top_status(
                query_server(args.address),
                prev=prev,
                interval=args.interval if prev is not None else None,
            )
            if args.json:
                _print_json(status)
            else:
                # clear screen + home, like watch(1)
                print("\x1b[2J\x1b[H" + render_top(status), end="", flush=True)
            prev = status
            time.sleep(max(args.interval - (time.monotonic() - started), 0.05))
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        return 0


def cmd_bench(args) -> int:
    """Run the core-operations benchmark (``repro bench``).

    Replays the benchmark workload through every available state
    backend, writes ``BENCH_core.json``, and appends the timestamped
    result to ``BENCH_history.jsonl`` next to it.
    """
    from .bench import check_gates, emit_json

    code = emit_json(
        args.out, size=args.size, repeats=args.repeats,
        gate_size=args.gate_size, gate_rounds=args.gate_rounds,
    )
    if code == 0 and args.check:
        code = check_gates(args.out)
    return code


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="PACER proportional race detection toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list bundled workloads").set_defaults(
        func=cmd_workloads
    )

    p = sub.add_parser("record", help="run a workload and save its trace")
    p.add_argument("workload", choices=sorted(WORKLOADS))
    p.add_argument("output")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=float, default=1.0, help="hot-loop scale factor")
    p.add_argument("--format", choices=["auto", "text", "binary"], default="auto")
    p.set_defaults(func=cmd_record)

    p = sub.add_parser("analyze", help="run a detector over a trace file")
    p.add_argument("trace")
    p.add_argument("--detector", choices=sorted(DETECTORS), default="fasttrack")
    p.add_argument("--format", choices=["auto", "text", "binary"], default="auto")
    p.add_argument("--limit", type=int, default=20)
    p.add_argument(
        "--fail-on-race", action="store_true", help="exit 1 if races are found"
    )
    p.add_argument(
        "--batch",
        action="store_true",
        help="use the columnar batched fast path (identical results)",
    )
    p.add_argument(
        "--batch-size",
        type=int,
        default=DEFAULT_BATCH_SIZE,
        help="events per batch with --batch",
    )
    p.add_argument(
        "--json", action="store_true",
        help="machine-readable output: races + counters + metrics",
    )
    _add_backend_argument(p)
    _add_obs_arguments(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "explain",
        help="replay a trace (or workload) and explain each race with a "
        "happens-before witness and flight-recorder context",
    )
    p.add_argument(
        "trace",
        help="a trace file, or a workload name to generate one (seeded)",
    )
    p.add_argument("--detector", choices=sorted(DETECTORS), default="fasttrack")
    p.add_argument("--format", choices=["auto", "text", "binary"], default="auto")
    p.add_argument("--seed", type=int, default=0, help="workload trial seed")
    p.add_argument("--scale", type=float, default=1.0, help="workload scale factor")
    p.add_argument(
        "--races", type=int, default=5, metavar="N",
        help="number of distinct races to detail (default 5)",
    )
    p.add_argument("--limit", type=int, default=20, help="table rows")
    p.add_argument(
        "--window", type=int, default=DEFAULT_WINDOW, metavar="N",
        help=f"flight-recorder events kept per thread (default {DEFAULT_WINDOW})",
    )
    p.add_argument(
        "--report-out", default=None, metavar="PATH",
        help="write the structured race report (repro/race-report/v1 JSON)",
    )
    p.add_argument(
        "--markdown-out", default=None, metavar="PATH",
        help="write the report rendered as Markdown",
    )
    p.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write a Perfetto trace with race flow arrows "
        "(open in ui.perfetto.dev)",
    )
    p.add_argument(
        "--sample-every", type=int, default=DEFAULT_SAMPLE_EVERY, metavar="N",
        help="probe cadence for the bundled Perfetto trace",
    )
    p.add_argument(
        "--json", action="store_true",
        help="print the report document instead of tables",
    )
    _add_backend_argument(p)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("oracle", help="exact happens-before ground truth")
    p.add_argument("trace")
    p.add_argument("--format", choices=["auto", "text", "binary"], default="auto")
    p.add_argument("--limit", type=int, default=20)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("detect", help="run a workload live under a detector")
    p.add_argument("workload", choices=sorted(WORKLOADS))
    p.add_argument("--detector", choices=sorted(DETECTORS), default="pacer")
    p.add_argument(
        "--rate", type=float, default=None, help="PACER sampling rate in percent"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--limit", type=int, default=20)
    _add_backend_argument(p)
    _add_obs_arguments(p)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser(
        "profile",
        help="run a workload with full observability (metrics, timeline, "
        "Perfetto trace)",
    )
    p.add_argument("workload", choices=sorted(WORKLOADS))
    p.add_argument("--detector", choices=sorted(DETECTORS), default="pacer")
    p.add_argument(
        "--rate", type=float, default=None,
        help="PACER sampling rate in percent (default 10 for pacer)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=float, default=1.0)
    _add_backend_argument(p)
    _add_obs_arguments(
        p,
        metrics_default="metrics.json",
        timeline_default="timeline.jsonl",
        trace_default="profile.trace.json",
    )
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser(
        "matrix", help="run an experiment matrix, optionally in parallel"
    )
    p.add_argument(
        "--workloads", nargs="+", choices=sorted(WORKLOADS),
        default=sorted(WORKLOADS),
    )
    p.add_argument(
        "--detectors", nargs="+", choices=sorted(DETECTOR_FACTORIES),
        default=["fasttrack", "pacer"],
    )
    p.add_argument(
        "--rates", nargs="*", type=float, default=[3.0],
        help="PACER sampling rates in percent (always-on detectors ignore)",
    )
    p.add_argument("--seeds", type=int, default=3, help="trials per cell")
    p.add_argument(
        "--jobs", type=int, default=default_jobs(),
        help="worker processes (default: REPRO_JOBS or 1)",
    )
    p.add_argument("--scale", type=float, default=0.5)
    p.add_argument(
        "--json", action="store_true",
        help="machine-readable output: per-cell races + counters + metrics",
    )
    p.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the merged, jobs-independent metrics snapshot as JSON",
    )
    p.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write a Perfetto coverage trace of the matrix (one span per trial)",
    )
    p.add_argument(
        "--report-out", default=None, metavar="PATH",
        help="write the merged, jobs-independent race report as JSON",
    )
    p.add_argument(
        "--coverage-out", default=None, metavar="PATH",
        help="write the merged detection-quality coverage report "
        "(repro/coverage-report/v1) with the rate-vs-detection curve "
        "and per-cell proportionality audit",
    )
    p.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="journal every completed trial to PATH (append-only JSONL "
        "with per-record CRCs, written via atomic rename)",
    )
    p.add_argument(
        "--resume", action="store_true",
        help="replay the --checkpoint journal and run only the remaining "
        "trials; rejects a journal written for a different matrix",
    )
    p.add_argument(
        "--task-timeout", type=float, default=300.0, metavar="SECONDS",
        help="per-trial wall-clock budget under supervision; a trial past "
        "it is killed and retried (default 300; 0 disables)",
    )
    p.add_argument(
        "--max-attempts", type=int, default=3, metavar="K",
        help="tries per trial before quarantine (default 3)",
    )
    p.add_argument(
        "--fault-plan", default=None, metavar="PLAN",
        help="deterministic fault-injection plan for chaos testing "
        f"(grammar in docs/ROBUSTNESS.md; default: ${FAULT_PLAN_ENV})",
    )
    p.add_argument(
        "--quarantine-out", default=None, metavar="PATH",
        help="write the structured quarantine report "
        "(repro/quarantine/v1 JSON; empty when nothing failed)",
    )
    p.add_argument(
        "--no-quarantine", action="store_true",
        help="strict mode: abort (naming the dropped trials) instead of "
        "quarantining tasks that exhaust their retries",
    )
    _add_backend_argument(p)
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser(
        "verify-trace",
        help="integrity-check a trace file (structure + CRC32 trailer)",
    )
    p.add_argument("trace")
    p.add_argument(
        "--validate", action="store_true",
        help="also check trace feasibility, not just encoding integrity",
    )
    p.add_argument(
        "--json", action="store_true",
        help="machine-readable verification verdict",
    )
    p.set_defaults(func=cmd_verify_trace)

    p = sub.add_parser("serve", help="run the race-telemetry server")
    p.add_argument(
        "--address", default="tcp://127.0.0.1:0",
        help="tcp://host:port or unix:///path (port 0 picks a free port)",
    )
    p.add_argument(
        "--address-file",
        help="write the bound address here (for scripted clients)",
    )
    p.add_argument("--shards", type=int, default=2, help="detector workers")
    p.add_argument(
        "--shard-mode", choices=["process", "inline"], default="process",
        help="worker processes, or in-process shards (tests/debugging)",
    )
    p.add_argument(
        "--credits", type=int, default=8,
        help="per-session credit window (chunks in flight)",
    )
    p.add_argument("--max-sessions", type=int, default=64)
    p.add_argument(
        "--spool-dir",
        help="session spool directory (default: private tempdir)",
    )
    p.add_argument("--log-out", help="append server log lines to this file")
    p.add_argument(
        "--status-out",
        help="write the final status document (JSON) on shutdown",
    )
    p.add_argument(
        "--duration", type=float, default=None,
        help="serve for N seconds then exit (default: until ^C)",
    )
    p.add_argument(
        "--http", metavar="HOST:PORT",
        help="expose /metrics (Prometheus), /status, /healthz over HTTP "
        "(port 0 picks a free port)",
    )
    p.add_argument(
        "--metrics-out", metavar="PATH",
        help="write the final mergeable metrics snapshot (JSON) on shutdown",
    )
    p.add_argument(
        "--trace-out", metavar="PATH",
        help="write the merged service Perfetto trace on shutdown",
    )
    p.add_argument(
        "--spool-quota", type=int, default=None, metavar="BYTES",
        help="per-session spool disk quota; sessions over it are evicted "
        "(resumable after the server restarts or sheds load)",
    )
    p.add_argument(
        "--memory-watermark", type=int, default=None, metavar="BYTES",
        help="aggregate spool watermark: above it new sessions get BUSY "
        "and credit grants are throttled",
    )
    p.add_argument(
        "--slow-client-timeout", type=float, default=None, metavar="SECONDS",
        help="evict attached sessions idle longer than this",
    )
    p.add_argument(
        "--drain-timeout", type=float, default=10.0, metavar="SECONDS",
        help="graceful-drain wait for in-flight sessions on shutdown "
        "(default 10)",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("stream", help="stream a trace file to a server")
    p.add_argument("trace")
    p.add_argument("--address", required=True, help="server address")
    p.add_argument("--session", required=True, help="session name")
    p.add_argument("--detector", choices=sorted(DETECTORS), default="fasttrack")
    p.add_argument("--format", choices=["auto", "text", "binary"], default="auto")
    p.add_argument(
        "--chunk-size", type=int, default=512, help="events per frame"
    )
    p.add_argument(
        "--fail-on-race", action="store_true", help="exit 1 if races are found"
    )
    p.add_argument(
        "--retries", type=int, default=8,
        help="reconnect-with-resume budget per operation (default 8)",
    )
    p.add_argument(
        "--backoff", type=float, default=0.05, metavar="SECONDS",
        help="base reconnect backoff; doubles per attempt, jittered "
        "(default 0.05)",
    )
    p.add_argument("--json", action="store_true")
    _add_backend_argument(p)
    p.set_defaults(func=cmd_stream)

    p = sub.add_parser(
        "chaos-proxy",
        help="deterministic fault-injecting proxy for a telemetry server",
    )
    p.add_argument(
        "--listen", default="tcp://127.0.0.1:0",
        help="address to listen on (port 0 picks a free port)",
    )
    p.add_argument(
        "--upstream", required=True,
        help="the real telemetry server's address",
    )
    p.add_argument(
        "--fault-plan", default=None, metavar="PLAN",
        help="wire fault plan, e.g. 'conn_drop@seed%%5=1;frame_corrupt@7' "
        f"(default: ${FAULT_PLAN_ENV}; empty = transparent proxy)",
    )
    p.add_argument("--seed", type=int, default=0, help="fault-plan seed")
    p.add_argument(
        "--stall-seconds", type=float, default=0.35,
        help="pause injected by 'stall' faults (default 0.35)",
    )
    p.add_argument(
        "--address-file",
        help="write the bound listen address here (for scripted clients)",
    )
    p.add_argument(
        "--duration", type=float, default=None,
        help="proxy for N seconds then exit (default: until ^C)",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_chaos_proxy)

    p = sub.add_parser("report", help="query a server's live merged report")
    p.add_argument("--address", required=True, help="server address")
    p.add_argument(
        "--follow", action="store_true",
        help="keep polling every --interval seconds",
    )
    p.add_argument("--interval", type=float, default=2.0)
    p.add_argument("--json", action="store_true")
    p.add_argument(
        "--report-out",
        help="write the merged repro/race-report/v1 document here",
    )
    p.add_argument(
        "--metrics-out", metavar="PATH",
        help="write the server's merged metrics snapshot (JSON) here",
    )
    p.add_argument(
        "--trace-out", metavar="PATH",
        help="request and write the merged service Perfetto trace here",
    )
    p.add_argument(
        "--prom", action="store_true",
        help="print the metrics in Prometheus text format instead",
    )
    p.set_defaults(func=cmd_net_report)

    p = sub.add_parser("top", help="live operator console for a server")
    p.add_argument("--address", required=True, help="server address")
    p.add_argument(
        "--interval", type=float, default=2.0,
        help="refresh interval in seconds (default 2)",
    )
    p.add_argument(
        "--once", action="store_true",
        help="print one sample and exit (rates are null)",
    )
    p.add_argument(
        "--json", action="store_true",
        help="emit repro/top-status/v1 JSON instead of the dashboard",
    )
    p.set_defaults(func=cmd_top)

    p = sub.add_parser(
        "bench",
        help="run the core-operations benchmark and write BENCH_core.json",
    )
    p.add_argument("--out", default="BENCH_core.json",
                   help="output path (history appends next to it)")
    p.add_argument("--size", type=float, default=0.7,
                   help="workload size multiplier for the per-backend rows")
    p.add_argument("--repeats", type=int, default=3,
                   help="best-of-N repeats for the per-backend rows")
    p.add_argument("--gate-size", type=float, default=1.0,
                   help="workload size for the interleaved speedup gates")
    p.add_argument("--gate-rounds", type=int, default=5,
                   help="interleaved baseline/contender round count")
    p.add_argument("--check", action="store_true",
                   help="exit nonzero if any speedup gate misses its target")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "coverage",
        help="audit detection quality: effective sampling rate, race "
        "attribution, and estimated true race count",
    )
    p.add_argument(
        "trace",
        help="a trace file, or a workload name to run live (seeded)",
    )
    p.add_argument("--detector", choices=sorted(DETECTORS), default="pacer")
    p.add_argument("--format", choices=["auto", "text", "binary"], default="auto")
    p.add_argument(
        "--rate", type=float, default=None,
        help="PACER sampling rate in percent (default 10 for pacer; "
        "live workload runs only)",
    )
    p.add_argument("--seed", type=int, default=0, help="workload trial seed")
    p.add_argument("--scale", type=float, default=1.0, help="workload scale factor")
    p.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the repro/coverage-report/v1 JSON document",
    )
    p.add_argument(
        "--json", action="store_true",
        help="print the coverage document instead of the summary",
    )
    _add_backend_argument(p)
    p.set_defaults(func=cmd_coverage)

    p = sub.add_parser("convert", help="convert between trace formats")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--format", choices=["auto", "text", "binary"], default="auto")
    p.set_defaults(func=cmd_convert)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
