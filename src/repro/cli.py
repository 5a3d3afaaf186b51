"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``workloads`` — list the bundled synthetic benchmarks.
* ``record``    — run a workload and write its trace to a file.
* ``analyze``   — run a detector over a trace file and report races
  (``--batch`` selects batched dispatch; both modes print events/sec
  and ns/event from the detector's perf counters).
* ``oracle``    — exact happens-before ground truth for a trace file.
* ``explain``   — replay a trace (or a seeded workload) with a flight
  recorder attached and explain every distinct race: happens-before
  witness, sampling attribution, surrounding event context, and (for
  PACER) why each unreported shortest race was discarded.
* ``detect``    — run a workload live under a detector (PACER at
  ``--rate`` percent, default 10, or any always-on detector).
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

A flag that means the same thing on several commands is declared once,
in :data:`_FLAGS`, and every run artifact (``--report-out``,
``--metrics-out``, ...) is written by :func:`_write_artifacts`; the
README tabulates which command takes which.  The single-run commands
(``analyze``, ``explain``, ``detect``, ``profile``, ``coverage``) share
one pipeline: :func:`_load` reads a trace, :func:`_run` runs the
detector over it or over a live workload, and :func:`_report` and
:func:`_coverage` document the run.  A trace file is binary when it
starts with the ``PACR`` magic and text otherwise; every command reads
binary traces through the column reader of :mod:`repro.trace.binio`,
and only ``record`` and ``convert`` take ``--format``, to choose what
they write.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

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
from .obs.metrics import MetricsRegistry
from .obs.observer import DEFAULT_SAMPLE_EVERY
from .obs.provenance import DEFAULT_WINDOW
from .detectors import Detector
from .sim.runtime import Runtime, RuntimeConfig
from .sim.scheduler import run_program
from .sim.workloads import WORKLOADS, build_program, describe_site
from .trace.binio import (
    MAGIC,
    describe_binary,
    dump_trace_binary,
    load_trace_columns,
)
from .trace.oracle import HBOracle
from .trace.textio import dump_trace, load_trace
from .trace.trace import FeasibilityChecker, Trace, TraceError, TraceFormatError
from .util.faults import FAULT_PLAN_ENV, FaultPlan, FaultPlanError

__all__ = ["main", "DETECTORS"]

#: the detectors a command can name: every matrix factory but the
#: no-op ``none`` baseline
DETECTORS: Dict[str, Callable[..., Detector]] = {
    name: factory
    for name, factory in DETECTOR_FACTORIES.items()
    if name != "none"
}


class _UsageError(Exception):
    """A bad flag combination: :func:`main` prints it and exits 2."""


class _BadTrace(Exception):
    """A trace a command cannot use: :func:`main` prints it and exits 3."""


def _count(args, dest: str) -> int:
    """The value of a count flag; below 1 it is a usage error."""
    value = getattr(args, dest)
    if value < 1:
        flag = "--" + dest.replace("_", "-")
        raise _UsageError(f"{flag} must be at least 1, got {value}")
    return value


def _address(args, dest: str, parse: Optional[Callable] = None) -> str:
    """The value of an address flag; one that ``parse`` rejects (by
    default: not ``tcp://host:port`` or ``unix://path``) is a usage
    error."""
    from .net.transport import parse_address

    value = getattr(args, dest)
    try:
        (parse or parse_address)(value)
    except ValueError as exc:
        raise _UsageError(f"--{dest}: {exc}") from None
    return value


class _Stdout:
    """``sys.stdout`` while a command runs.

    Once the reader has gone (a write or flush raised
    :class:`BrokenPipeError`, as under ``repro ... | head -1``), the rest
    of the command's text is dropped: the command still does its work,
    writes every artifact it was asked for and returns its exit code.
    """

    def __init__(self, stream) -> None:
        self.stream = stream
        # Python sets sys.stdout to None when fd 1 is closed at start
        self.gone = stream is None

    def write(self, text: str) -> int:
        if not self.gone:
            try:
                return self.stream.write(text)
            except BrokenPipeError:
                self.gone = True
        return len(text)

    def flush(self) -> None:
        if not self.gone:
            try:
                self.stream.flush()
            except BrokenPipeError:
                self.gone = True

    def __getattr__(self, name: str):
        return getattr(self.stream, name)


def _stdout_gone() -> bool:
    """Flush stdout; whether its reader has gone (polling commands stop
    then)."""
    sys.stdout.flush()
    return getattr(sys.stdout, "gone", False)


def _server_failed(address: str, exc: Exception) -> int:
    """Report a failed exchange with a telemetry server; exit code 1."""
    print(f"telemetry server {address}: {type(exc).__name__}: {exc}",
          file=sys.stderr)
    return 1


def _load(path: Path):
    """Read a trace file and check its feasibility.

    A file that starts with the ``PACR`` magic is a binary trace, decoded
    into an :class:`~repro.trace.batch.EventBatch` of list columns; any
    other file is a text trace (whose first token is an event kind, a
    ``#`` or blank, never the magic), parsed into a :class:`Trace`.
    Both iterate as events.  Raises :class:`_BadTrace`.
    """
    try:
        with open(path, "rb") as fh:
            binary = fh.read(4) == MAGIC
        if not binary:
            return load_trace(path)
        batch = load_trace_columns(path)
        FeasibilityChecker().check(0, *batch.to_list_columns())
        return batch
    except (OSError, TraceFormatError, TraceError) as exc:
        raise _BadTrace(f"cannot use trace {path}: {exc}") from None


def _dump(trace, path: Path, fmt: str) -> None:
    if fmt == "auto":
        fmt = "binary" if path.suffix in (".bin", ".pacr") else "text"
    if fmt == "binary":
        dump_trace_binary(trace, path)
    else:
        dump_trace(trace, path)


def _record(workload: str, args) -> Trace:
    """Run ``workload`` at ``--scale`` with ``--seed`` into a trace."""
    spec = WORKLOADS[workload].scaled(args.scale)
    return run_program(build_program(spec, args.seed), seed=args.seed)


def _resolve_trace(args) -> Tuple[Optional[Path], Optional[str]]:
    """The ``trace`` argument of ``explain``/``coverage``: a trace file
    ``(path, None)`` or a workload name ``(None, workload)``."""
    path = Path(args.trace)
    if path.exists():
        return path, None
    if args.trace in WORKLOADS:
        return None, args.trace
    raise _UsageError(
        f"{args.trace!r} is neither a trace file nor a workload "
        f"(choices: {', '.join(sorted(WORKLOADS))})"
    )


#: the sampling rate, in percent, of a live PACER run without ``--rate``
DEFAULT_RATE = 10.0


def _run(
    args, obs: Optional[RunObserver], trace=None,
    workload: Optional[str] = None, track_memory: bool = False,
) -> Tuple[Detector, int, Optional[float], Optional[Runtime]]:
    """Run ``--detector`` on ``--state-backend`` under ``obs``: the one
    run step of ``analyze``, ``explain``, ``detect``, ``profile`` and
    ``coverage``.

    With ``trace`` the detector replays it (batched under ``--batch``);
    otherwise it runs ``workload`` live, and PACER samples at ``--rate``
    percent, default :data:`DEFAULT_RATE`.  ``--rate`` on a replay or
    with another detector is a usage error.  Returns the detector, the
    number of events it saw, the nominal rate as a fraction (None
    without a sampling controller) and the live runtime (None for a
    replay).
    """
    rate = getattr(args, "rate", None)
    detector = DETECTORS[args.detector](backend=args.state_backend)
    if trace is not None:
        if rate is not None:
            raise _UsageError("--rate only applies to live workload runs")
        if obs is not None:
            obs.attach(detector)
        if getattr(args, "batch", False):
            detector.run_batch(trace)
        else:
            detector.run(trace)
        if obs is not None:
            obs.finalize(detector)
        return detector, detector.perf.events, None, None
    controller = None
    if args.detector == "pacer":
        controller = BiasCorrectedController(
            (DEFAULT_RATE if rate is None else rate) / 100.0,
            rng=random.Random(args.seed),
        )
    elif rate is not None:
        raise _UsageError("--rate only applies to the pacer detector")
    # the runtime attaches and finalizes the observer itself
    runtime = Runtime(
        build_program(WORKLOADS[workload].scaled(args.scale), args.seed),
        detector,
        controller=controller,
        config=RuntimeConfig(track_memory=track_memory),
        seed=args.seed,
        observer=obs,
    )
    runtime.run()
    rate = None if controller is None else controller.rate
    return detector, runtime.events, rate, runtime


def _read_fault_plan(args, parse: Callable):
    """``--fault-plan`` (default ``$REPRO_FAULT_PLAN``) through ``parse``,
    or None when both are empty."""
    text = args.fault_plan or os.environ.get(FAULT_PLAN_ENV, "")
    if not text.strip():
        return None
    try:
        return parse(text)
    except FaultPlanError as exc:
        raise _UsageError(f"bad fault plan: {exc}") from None


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


# -- run artifacts -------------------------------------------------------------

#: artifact flag dest -> what the "wrote ..." line calls the file
_ARTIFACTS = {
    "report_out": "race report",
    "coverage_out": "coverage report",
    "out": "coverage report",  # ``coverage --out``
    "metrics_out": "metrics snapshot",
    "timeline_out": "probe timeline",
    "trace_out": "Perfetto trace",
    "markdown_out": "Markdown report",
    "quarantine_out": "quarantine report",
    "status_out": "status document",
}


def _write_json(doc, path=None, indent: Optional[int] = 2) -> None:
    """``doc`` as sorted-key JSON plus a newline: into ``path``, or
    printed when no path is given."""
    text = json.dumps(doc, indent=indent, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _write_artifacts(args, quiet: bool = False, **writers: Callable) -> None:
    """Write every run artifact the command line asked for.

    ``writers`` maps an artifact flag's dest (``report_out``, ...) to a
    function that writes that artifact to a path.  A writer runs only
    when its flag is set, so nothing is built for an unrequested
    artifact; each written file is announced unless ``quiet``.
    """
    for dest, write in writers.items():
        path = getattr(args, dest)
        if path:
            write(Path(path))
            if not quiet:
                print(f"wrote {_ARTIFACTS[dest]} to {path}")


def _make_observer(args, always: bool = False) -> Optional[RunObserver]:
    """An observer when ``always`` (``profile``), ``--json`` or any
    artifact was requested, else None (the disabled path: detectors see
    a single untaken branch).  A race report sink additionally attaches
    a flight recorder, which opts the run into per-event context
    capture."""
    sample_every = _count(args, "sample_every")
    if not (
        always
        or getattr(args, "json", False)
        or args.metrics_out or args.timeline_out or args.trace_out
        or args.report_out or args.coverage_out
    ):
        return None
    return RunObserver(
        sample_every=sample_every,
        recorder=FlightRecorder() if args.report_out else None,
    )


def _report(
    detector: Detector, obs: RunObserver, source: str, events: int,
    rate: Optional[float] = None, site_name=None,
    sync: Optional[SyncIndex] = None, discarded: Optional[List[Dict]] = None,
) -> Dict:
    """The race report of one observed run.

    Witnesses come from ``sync``, the exact sync index of the trace when
    the whole trace is in memory, else from the flight recorder's
    bounded window.
    """
    if sync is None and obs.recorder is not None:
        sync = SyncIndex.from_recorder(obs.recorder)
    return build_report(
        detector.races,
        source=source,
        detector=detector.name,
        backend=detector.backend_name,
        rate=rate,
        events=events,
        contexts=obs.race_contexts,
        sync=sync,
        site_name=site_name,
        discarded=discarded,
    )


def _coverage(
    detector: Detector, obs: RunObserver, source: str, events: int,
    rate: Optional[float] = None, workload: Optional[str] = None,
) -> Dict:
    """The coverage document of one observed run.  It deliberately
    omits the state backend, so the same run is byte-identical across
    ``--state-backend`` choices (the quality suite pins this)."""
    return build_coverage(
        source=source,
        detector=detector.name,
        workload=workload,
        nominal_rate=rate,
        counters=detector.counters.snapshot(),
        marks=obs.sampling_marks,
        races=detector.races,
        events=events,
    )


def _write_run_artifacts(
    args,
    obs: Optional[RunObserver],
    detector: Detector,
    source: str,
    events: int,
    rate: Optional[float] = None,
    workload: Optional[str] = None,
    site_name=None,
    trace=None,
    quiet: bool = False,
) -> None:
    """The artifacts of one observed detector run (``analyze``,
    ``detect``, ``profile``)."""
    if obs is None:
        return
    _write_artifacts(
        args, quiet=quiet,
        report_out=lambda path: write_report(path, _report(
            detector, obs, source, events, rate, site_name,
            None if trace is None else SyncIndex.from_trace(trace),
        )),
        coverage_out=lambda path: write_coverage(path, _coverage(
            detector, obs, source, events, rate, workload
        )),
        metrics_out=obs.write_metrics,
        timeline_out=obs.write_timeline,
        trace_out=obs.write_trace,
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
        "bulk_runs": perf.bulk_runs,
        "live_runs": perf.live_runs,
        "tracked_accesses": perf.tracked_accesses,
        "tracked_changes": perf.tracked_changes,
    }


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
    trace = _record(args.workload, args)
    _dump(trace, Path(args.output), args.format)
    print(f"wrote {len(trace)} events to {args.output}")
    return 0


def cmd_analyze(args) -> int:
    trace = _load(Path(args.trace))
    obs = _make_observer(args)
    detector, events, _, _ = _run(args, obs, trace=trace)
    if args.json:
        _write_json(
            {
                "command": "analyze",
                "trace": args.trace,
                "detector": detector.name,
                "events": events,
                "races": [_race_dict(r) for r in detector.races],
                "distinct_races": sorted(detector.distinct_races),
                "counters": detector.counters.snapshot(),
                "metrics": obs.registry.snapshot(),
                "perf": _perf_dict(detector.perf),
            }
        )
    else:
        print(f"perf: {detector.perf.summary()}")
        _print_races(detector, args.limit)
    _write_run_artifacts(
        args, obs, detector, "analyze", events, trace=trace, quiet=args.json,
    )
    return 1 if detector.races and args.fail_on_race else 0


def cmd_oracle(args) -> int:
    trace = _load(Path(args.trace))
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
    obs = _make_observer(args)
    detector, events, rate, runtime = _run(args, obs, workload=args.workload)
    if rate is not None:
        print(f"effective sampling rate: {runtime.effective_sampling_rate:.2%}")
    _print_races(detector, args.limit)
    _write_run_artifacts(
        args, obs, detector, "detect", events, rate=rate,
        workload=args.workload, site_name=describe_site,
    )
    return 0


def cmd_profile(args) -> int:
    """Run a workload live with full observability and write all sinks."""
    obs = _make_observer(args, always=True)
    detector, events, rate, runtime = _run(
        args, obs, workload=args.workload, track_memory=True
    )
    periods = obs.sampling_periods()
    sampled_vt = sum(end - begin for begin, end in periods)
    print(
        f"{detector.name} on {args.workload}: {events} events, "
        f"{len(detector.races)} race reports "
        f"({len(detector.distinct_races)} distinct)"
    )
    if rate is not None:
        print(
            f"sampling: {len(periods)} periods covering {sampled_vt} of "
            f"{events} events "
            f"(effective rate {runtime.effective_sampling_rate:.2%})"
        )
    print(
        f"probes: {len(obs.timeline)} timeline samples, "
        f"{len(runtime.gc_log)} GC boundaries, "
        f"{runtime.context_switches} context switches"
    )
    _write_run_artifacts(
        args, obs, detector, "profile", events, rate=rate,
        workload=args.workload, site_name=describe_site,
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
    fault_plan = _read_fault_plan(args, FaultPlan.parse)

    journal = completed = None
    if args.resume and not args.checkpoint:
        raise _UsageError("--resume requires --checkpoint PATH")
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
            raise _UsageError(f"checkpoint error: {exc}") from None

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

    _write_artifacts(
        args, quiet=args.json,
        quarantine_out=lambda path: _write_json(quarantine_doc or {
            "schema": "repro/quarantine/v1",
            "total_tasks": len(tasks),
            "completed": len(pairs),
            "quarantined": [],
            "counters": {},
        }, path),
        metrics_out=lambda path: _write_matrix_metrics(path, merged),
        report_out=lambda path: write_report(
            path, matrix_report(live_tasks, live_results)
        ),
        coverage_out=lambda path: write_coverage(
            path, matrix_coverage(live_tasks, live_results)
        ),
        trace_out=lambda path: write_chrome_trace(
            path, matrix_trace_events(pairs)
        ),
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
        _write_json(
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
    _write_json({"command": "matrix", "cells": cells}, path)


def _pacer_discard_attribution(
    trace, detector, sync: SyncIndex, cap: int = 50
) -> List[Dict]:
    """Why each unreported shortest race was discarded (PACER only).

    Compares the happens-before oracle's *reportable* races — the pairs a
    precise always-on detector reports — against PACER's actual reports.
    PACER's guarantee is that a race is reported iff its first access
    falls in a sampling period; the attribution names the period (or its
    absence) for every miss.  ``sync`` is the trace's exact sync index.
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
    path, workload = _resolve_trace(args)
    trace = _load(path) if workload is None else _record(workload, args)
    obs = RunObserver(
        sample_every=_count(args, "sample_every"),
        recorder=FlightRecorder(window=_count(args, "window")),
    )
    detector, events, _, _ = _run(args, obs, trace=trace)
    sync = SyncIndex.from_trace(trace)
    discarded = None
    if args.detector == "pacer":
        discarded = _pacer_discard_attribution(trace, detector, sync)
    doc = _report(
        detector, obs, "explain", events,
        site_name=None if workload is None else describe_site,
        sync=sync, discarded=discarded,
    )
    writers = dict(
        report_out=lambda path: write_report(path, doc),
        markdown_out=lambda path: path.write_text(
            render_report_markdown(doc, limit=args.races), encoding="utf-8"
        ),
        trace_out=obs.write_trace,
    )
    if args.json:
        _write_json(doc)
        _write_artifacts(args, quiet=True, **writers)
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
    _write_artifacts(args, **writers)
    return 0


def cmd_coverage(args) -> int:
    """Audit detection quality for one run (``repro coverage``).

    Accepts either a trace file (replayed through the detector) or a
    workload name (run live, seeded — the live path is the only one that
    exercises PACER sampling periods).  Prints the rendered
    ``repro/coverage-report/v1`` summary; ``--out`` writes the JSON
    document, ``--json`` prints it instead of the rendering.
    """
    path, workload = _resolve_trace(args)
    trace = None if path is None else _load(path)
    obs = RunObserver(sample_every=DEFAULT_SAMPLE_EVERY)
    detector, events, rate, _ = _run(args, obs, trace=trace, workload=workload)
    doc = _coverage(detector, obs, "coverage", events, rate, workload)
    if args.json:
        _write_json(doc)
    else:
        print(render_coverage(doc))
    _write_artifacts(args, quiet=args.json, out=lambda path: write_coverage(path, doc))
    return 0


def cmd_convert(args) -> int:
    trace = _load(Path(args.input))
    _dump(trace, Path(args.output), args.format)
    print(f"converted {len(trace)} events -> {args.output}")
    return 0


def cmd_verify_trace(args) -> int:
    """Integrity-check a trace file without analyzing it.

    Binary traces get the full structural walk plus the CRC32 trailer
    check (v2 and v3); text traces are parsed line by line.  ``--validate``
    additionally checks trace feasibility (fork-before-run etc.).
    Exit 0 on a sound file, 1 on any integrity failure.
    """
    path = Path(args.trace)
    try:
        data = path.read_bytes()
        if data[:4] == MAGIC:
            info = describe_binary(data, validate=args.validate)
        else:
            trace = load_trace(path, validate=args.validate)
            info = {
                "format": "text",
                "version": None,
                "events": len(trace),
                "bytes": len(data),
                "crc32": None,
                "checksummed": False,
            }
    except (OSError, TraceFormatError, TraceError) as exc:
        if args.json:
            _write_json({"command": "verify-trace", "trace": str(path),
                         "ok": False, "error": str(exc)})
        else:
            print(f"FAIL {path}: {exc}", file=sys.stderr)
        return 1
    info["validated"] = bool(args.validate)
    if args.json:
        _write_json({"command": "verify-trace", "trace": str(path),
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
    from .net.http import parse_http_address

    config = ServerConfig(
        address=_address(args, "address"),
        n_shards=_count(args, "shards"),
        shard_mode=args.shard_mode,
        credits=_count(args, "credits"),
        max_sessions=_count(args, "max_sessions"),
        spool_dir=args.spool_dir,
        log_path=args.log_out,
        http=args.http and _address(args, "http", parse_http_address),
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
        # the merged service trace needs live shards: write before stop()
        _write_artifacts(
            args, quiet=True,
            status_out=lambda path: _write_json(doc, path),
            trace_out=server.write_trace,
        )
        server.stop()
        # stop() finalizes every session, so the metrics fold is complete
        _write_artifacts(args, quiet=True, metrics_out=server.write_metrics)
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
    reconnect-with-resume inside the ``--retries`` budget.  Exits 1 when
    the server refuses the session, cannot be reached within the budget,
    or never closes the session, in either output mode.
    """
    from .net import ProtocolError, ResilientClient

    address = _address(args, "address")
    trace = _load(Path(args.trace))
    client = ResilientClient(
        address,
        args.session,
        detector=args.detector,
        backend=args.state_backend,
        chunk_size=_count(args, "chunk_size"),
        retries=args.retries,
        backoff_base=args.backoff,
    )
    try:
        client.connect()
        client.send_events(list(trace))
    except (OSError, ProtocolError) as exc:
        return _server_failed(address, exc)
    summary = client.close()
    if args.json:
        _write_json(
            {
                "command": "stream",
                "trace": args.trace,
                "address": address,
                "credit_waits": client.credit_waits,
                "retries": client.retry_count,
                **summary,
            }
        )
    elif summary:
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
    if not summary:
        # close() exhausted its retry budget without a server summary;
        # every acked chunk is still durable server-side for a resume
        print(
            f"stream interrupted after {client.events_sent} event(s); "
            f"server summary unavailable ({client.retry_count} retries)",
            file=sys.stderr,
        )
        return 1
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

    proxy = ChaosProxy(
        _address(args, "listen"),
        _address(args, "upstream"),
        plan=_read_fault_plan(args, wire_plan),
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
        _write_json({
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

    from .net import ProtocolError, query_server

    address = _address(args, "address")
    while True:
        try:
            doc = query_server(address, trace=bool(args.trace_out))
        except (OSError, ProtocolError) as exc:
            return _server_failed(address, exc)

        def write_metrics(path: Path) -> None:
            # round-trip through a registry for the canonical byte format
            registry = MetricsRegistry()
            registry.merge_snapshot(doc.get("metrics", {}))
            registry.write_json(path)

        def write_trace(path: Path) -> None:
            if doc.get("trace_truncated"):
                print(
                    "warning: service trace exceeded the frame limit; "
                    "use `repro serve --trace-out` instead",
                    file=sys.stderr,
                )
            elif "trace" in doc:
                _write_json(doc["trace"], path, indent=None)

        _write_artifacts(
            args, quiet=True,
            report_out=lambda path: write_report(path, doc["report"]),
            metrics_out=write_metrics,
            trace_out=write_trace,
        )
        if args.prom:
            from .obs.prom import render_prometheus

            print(render_prometheus(doc.get("metrics", {})), end="")
        elif args.json:
            _write_json(doc)
        else:
            report = doc["report"]
            print(
                f"{address}: {len(doc['sessions'])} session(s), "
                f"{report['events']} events, {report['dynamic_races']} "
                f"race(s), {report['distinct_races']} distinct"
            )
            for sess in doc["sessions"]:
                print(
                    f"  {sess['session']:<24} {sess['state']:<9} "
                    f"shard {sess['shard']}  seq {sess['applied_seq']:<6} "
                    f"{sess['events']:>8} events  {sess['races']:>4} race(s)"
                )
        if not args.follow or _stdout_gone():
            return 0
        time.sleep(args.interval)


def cmd_top(args) -> int:
    """Live operator console over a telemetry server (``repro top``)."""
    import time

    from .net import ProtocolError, build_top_status, query_server, render_top

    address = _address(args, "address")
    prev = None
    try:
        while True:
            started = time.monotonic()
            try:
                doc = query_server(address)
            except (OSError, ProtocolError) as exc:
                return _server_failed(address, exc)
            status = build_top_status(
                doc, prev=prev,
                interval=args.interval if prev is not None else None,
            )
            if args.json:
                _write_json(status)
            elif args.once:
                print(render_top(status), end="")
            else:  # pragma: no cover - interactive path
                # clear screen + home, like watch(1)
                print("\x1b[2J\x1b[H" + render_top(status), end="", flush=True)
            if args.once or _stdout_gone():
                return 0
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

_PATH = dict(default=None, metavar="PATH")

#: every flag that means the same thing on several commands, declared
#: once: dest -> (option strings, ``add_argument`` keywords)
_FLAGS: Dict[str, Tuple[Tuple[str, ...], Dict]] = {
    # -- run flags
    "trace": (("trace",), dict(
        help="a trace file (explain and coverage also take a workload "
        "name and run it seeded)",
    )),
    "workload": (("workload",), dict(choices=sorted(WORKLOADS))),
    "output": (("output",), dict(help="trace file to write")),
    "format": (("--format",), dict(
        choices=["auto", "text", "binary"], default="auto",
        help="trace format to write (auto: binary for a .pacr/.bin "
        "suffix, else text)",
    )),
    "detector": (("--detector",), dict(
        choices=sorted(DETECTORS), default="fasttrack",
    )),
    "state_backend": (("--state-backend",), dict(
        choices=BACKENDS, default=None,
        help="detector state representation "
        f"(default: $REPRO_STATE_BACKEND or '{DEFAULT_BACKEND}'); "
        "both backends report identical races",
    )),
    "seed": (("--seed",), dict(
        type=int, default=0,
        help="seed of the workload trial (chaos-proxy: of the fault plan)",
    )),
    "scale": (("--scale",), dict(
        type=float, default=1.0, help="workload hot-loop scale factor",
    )),
    "rate": (("--rate",), dict(
        type=float, default=None,
        help="PACER sampling rate in percent, live workload runs only "
        f"(default {DEFAULT_RATE:g})",
    )),
    "limit": (("--limit",), dict(
        type=int, default=20, help="race table rows to print",
    )),
    "fail_on_race": (("--fail-on-race",), dict(
        action="store_true", help="exit 1 if races are found",
    )),
    "fault_plan": (("--fault-plan",), dict(
        default=None, metavar="PLAN",
        help="deterministic fault-injection plan: trial faults for matrix, "
        "wire faults for chaos-proxy, e.g. "
        "'conn_drop@seed%%5=1;frame_corrupt@7' (grammar in "
        f"docs/ROBUSTNESS.md; default: ${FAULT_PLAN_ENV}; empty = none)",
    )),
    "address": (("--address",), dict(
        required=True,
        help="server address, tcp://host:port or unix:///path "
        "(serve: port 0 picks a free port)",
    )),
    "address_file": (("--address-file",), dict(
        help="write the bound address here (for scripted clients)",
    )),
    "duration": (("--duration",), dict(
        type=float, default=None,
        help="run for N seconds then exit (default: until ^C)",
    )),
    "interval": (("--interval",), dict(
        type=float, default=2.0,
        help="seconds between polls (default 2)",
    )),
    # -- artifact flags
    "metrics_out": (("--metrics-out",), dict(
        _PATH, help="write the metrics snapshot as deterministic JSON "
        "(merged over trials, shards or sessions where there are several)",
    )),
    "timeline_out": (("--timeline-out",), dict(
        _PATH, help="write the virtual-time probe timeline as JSONL",
    )),
    "trace_out": (("--trace-out",), dict(
        _PATH, help="write a Chrome-trace/Perfetto trace (load in "
        "ui.perfetto.dev): the run's profile, a matrix's coverage map, "
        "or a server's merged service trace",
    )),
    "report_out": (("--report-out",), dict(
        _PATH, help="write the structured race report "
        "(repro/race-report/v1 JSON; merged on matrix and report); a "
        "single run attaches a flight recorder for per-race context",
    )),
    "coverage_out": (("--coverage-out",), dict(
        _PATH, help="write the detection-quality coverage report "
        "(repro/coverage-report/v1 JSON): effective sampling rate, race "
        "attribution, estimated true race count; on matrix also the "
        "rate-vs-detection curve and proportionality audit",
    )),
    "sample_every": (("--sample-every",), dict(
        type=int, default=DEFAULT_SAMPLE_EVERY, metavar="N",
        help="virtual-time distance between detector-state probes "
        f"(default {DEFAULT_SAMPLE_EVERY})",
    )),
    "json": (("--json",), dict(
        action="store_true", help="print machine-readable JSON instead of text",
    )),
}


def _add_flags(p, *dests: str, **defaults) -> None:
    """Declare shared flags from :data:`_FLAGS` on subparser ``p``.

    Keyword arguments declare a flag with a command-specific default; a
    required flag given a default (``serve --address``) is optional.
    """
    for dest in (*dests, *defaults):
        flags, kwargs = _FLAGS[dest]
        if dest in defaults:
            kwargs = dict(kwargs, default=defaults[dest])
            kwargs.pop("required", None)
        p.add_argument(*flags, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="PACER proportional race detection toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list bundled workloads").set_defaults(
        func=cmd_workloads
    )

    p = sub.add_parser("record", help="run a workload and save its trace")
    _add_flags(p, "workload", "output", "seed", "scale", "format")
    p.set_defaults(func=cmd_record)

    p = sub.add_parser("analyze", help="run a detector over a trace file")
    _add_flags(p, "trace", "detector", "limit", "fail_on_race")
    p.add_argument(
        "--batch",
        action="store_true",
        help="use the columnar batched fast path (identical results)",
    )
    _add_flags(
        p, "json", "state_backend", "metrics_out", "timeline_out",
        "trace_out", "report_out", "coverage_out", "sample_every",
    )
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "explain",
        help="replay a trace (or workload) and explain each race with a "
        "happens-before witness and flight-recorder context",
    )
    _add_flags(p, "trace", "detector", "seed", "scale")
    p.add_argument(
        "--races", type=int, default=5, metavar="N",
        help="number of distinct races to detail (default 5)",
    )
    _add_flags(p, "limit")
    p.add_argument(
        "--window", type=int, default=DEFAULT_WINDOW, metavar="N",
        help=f"flight-recorder events kept per thread (default {DEFAULT_WINDOW})",
    )
    _add_flags(p, "report_out")
    p.add_argument(
        "--markdown-out", default=None, metavar="PATH",
        help="write the report rendered as Markdown",
    )
    _add_flags(p, "trace_out", "sample_every", "json", "state_backend")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("oracle", help="exact happens-before ground truth")
    _add_flags(p, "trace", "limit")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("detect", help="run a workload live under a detector")
    _add_flags(
        p, "workload", "rate", "seed", "scale", "limit", "state_backend",
        "metrics_out", "timeline_out", "trace_out", "report_out",
        "coverage_out", "sample_every", detector="pacer",
    )
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser(
        "profile",
        help="run a workload with full observability (metrics, timeline, "
        "Perfetto trace)",
    )
    _add_flags(
        p, "workload", "rate", "seed", "scale", "state_backend",
        "report_out", "coverage_out", "sample_every", detector="pacer",
        metrics_out="metrics.json", timeline_out="timeline.jsonl",
        trace_out="profile.trace.json",
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
    _add_flags(
        p, "json", "metrics_out", "trace_out", "report_out", "coverage_out",
        "state_backend", "fault_plan", scale=0.5,
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
        "--quarantine-out", default=None, metavar="PATH",
        help="write the structured quarantine report "
        "(repro/quarantine/v1 JSON; empty when nothing failed)",
    )
    p.add_argument(
        "--no-quarantine", action="store_true",
        help="strict mode: abort (naming the dropped trials) instead of "
        "quarantining tasks that exhaust their retries",
    )
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser(
        "verify-trace",
        help="integrity-check a trace file (structure + CRC32 trailer)",
    )
    _add_flags(p, "trace")
    p.add_argument(
        "--validate", action="store_true",
        help="also check trace feasibility, not just encoding integrity",
    )
    _add_flags(p, "json")
    p.set_defaults(func=cmd_verify_trace)

    p = sub.add_parser("serve", help="run the race-telemetry server")
    _add_flags(p, "address_file", address="tcp://127.0.0.1:0")
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
        "--http", metavar="HOST:PORT",
        help="expose /metrics (Prometheus), /status, /healthz over HTTP "
        "(port 0 picks a free port)",
    )
    _add_flags(p, "duration", "metrics_out", "trace_out")
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
    _add_flags(p, "trace", "address")
    p.add_argument("--session", required=True, help="session name")
    _add_flags(p, "detector")
    p.add_argument(
        "--chunk-size", type=int, default=512, help="events per frame"
    )
    _add_flags(p, "fail_on_race")
    p.add_argument(
        "--retries", type=int, default=8,
        help="reconnect-with-resume budget per operation (default 8)",
    )
    p.add_argument(
        "--backoff", type=float, default=0.05, metavar="SECONDS",
        help="base reconnect backoff; doubles per attempt, jittered "
        "(default 0.05)",
    )
    _add_flags(p, "json", "state_backend")
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
    _add_flags(p, "fault_plan", "seed")
    p.add_argument(
        "--stall-seconds", type=float, default=0.35,
        help="pause injected by 'stall' faults (default 0.35)",
    )
    _add_flags(p, "address_file", "duration", "json")
    p.set_defaults(func=cmd_chaos_proxy)

    p = sub.add_parser("report", help="query a server's live merged report")
    _add_flags(p, "address")
    p.add_argument(
        "--follow", action="store_true",
        help="keep polling every --interval seconds",
    )
    _add_flags(p, "interval", "json", "report_out", "metrics_out", "trace_out")
    p.add_argument(
        "--prom", action="store_true",
        help="print the metrics in Prometheus text format instead",
    )
    p.set_defaults(func=cmd_net_report)

    p = sub.add_parser("top", help="live operator console for a server")
    _add_flags(p, "address", "interval")
    p.add_argument(
        "--once", action="store_true",
        help="print one sample and exit (rates are null)",
    )
    _add_flags(p, "json")
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
    _add_flags(p, "trace", "rate", "seed", "scale", detector="pacer")
    p.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the repro/coverage-report/v1 JSON document",
    )
    _add_flags(p, "json", "state_backend")
    p.set_defaults(func=cmd_coverage)

    p = sub.add_parser("convert", help="convert between trace formats")
    p.add_argument("input")
    _add_flags(p, "output", "format")
    p.set_defaults(func=cmd_convert)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    stdout = sys.stdout = _Stdout(sys.stdout)
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 2
    except _BadTrace as exc:
        print(exc, file=sys.stderr)
        return 3
    finally:
        stdout.flush()
        real = sys.stdout = stdout.stream
        if stdout.gone and real is not None and real is sys.__stdout__:
            # the interpreter flushes stdout once more on exit: let that
            # flush go to /dev/null instead of the closed pipe
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, real.fileno())
            os.close(devnull)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
