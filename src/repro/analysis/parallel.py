"""Sharded parallel experiment runner.

The evaluation matrix — (workload × detector × sampling rate × seed) —
is embarrassingly parallel, but only if each trial is deterministic on
its own: PACER's accuracy claims (§5) are statements about *distributions
over seeds*, so a run that changes results when fanned across processes
would be unusable as evidence.  This module makes the fan-out safe by
construction:

* every trial is described by a picklable, frozen :class:`TrialTask`;
* all randomness derives from :func:`task_seed`, a CRC-based hash of the
  task's own fields (never Python's builtin ``hash``, which varies with
  ``PYTHONHASHSEED``);
* workers ship back :class:`~repro.core.stats.CoreStats` — the
  deterministic result core, with wall-clock excluded from equality —
  keyed by task index, so output order is independent of the number of
  jobs and of shard scheduling.

``run_matrix(tasks, jobs=N)`` therefore returns *the same list* for any
``N``; the determinism regression tests pin this.  Fan-out runs under
the crash-isolated supervisor (:mod:`repro.analysis.supervisor`), which
adds per-trial timeouts, bounded retries, and poison-task quarantine on
top of the same determinism contract; checkpoint/resume journaling
lives in :mod:`repro.analysis.checkpoint`.
"""

from __future__ import annotations

import os
import sys
import time
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.pacer import PacerDetector
from ..core.sampling import BiasCorrectedController
from ..core.stats import CoreStats, PerfCounters
from ..detectors import (
    Detector,
    DjitPlusDetector,
    EraserDetector,
    FastTrackDetector,
    GenericDetector,
    GoldilocksDetector,
    LiteRaceDetector,
    NullDetector,
)
from ..detectors.base import Race
from ..sim.runtime import Runtime, RuntimeConfig
from ..sim.workloads.base import WORKLOADS, build_program

__all__ = [
    "TrialTask",
    "DETECTOR_FACTORIES",
    "task_seed",
    "expand_matrix",
    "run_trial_task",
    "trial_metrics",
    "run_matrix",
    "merge_matrix",
    "matrix_report",
    "matrix_coverage",
    "default_jobs",
    "require_complete",
]

#: name -> detector factory taking an optional ``backend`` keyword
#: (picklable by name, not object)
DETECTOR_FACTORIES: Dict[str, Callable[..., Detector]] = {
    "pacer": PacerDetector,
    "fasttrack": FastTrackDetector,
    "generic": GenericDetector,
    "djit": DjitPlusDetector,
    "goldilocks": GoldilocksDetector,
    "literace": LiteRaceDetector,
    "eraser": EraserDetector,
    "none": NullDetector,
}


@dataclass(frozen=True)
class TrialTask:
    """One cell of the experiment matrix: everything a worker needs."""

    workload: str
    detector: str
    rate: Optional[float]  # PACER sampling rate; None for always-on
    seed: int
    scale: float = 1.0
    #: state backend name; None resolves to the process-wide default.
    #: Deliberately excluded from :func:`task_seed` — both backends must
    #: reproduce the same trial, which the differential suite asserts.
    backend: Optional[str] = None


def task_seed(task: TrialTask) -> int:
    """Deterministic per-trial RNG seed, stable across processes.

    Derived with CRC32 over the task's canonical text form; Python's
    builtin ``hash`` is off-limits here because string hashing is
    randomized per interpreter unless ``PYTHONHASHSEED`` is pinned.
    """
    rate_part = "none" if task.rate is None else f"{task.rate:.6f}"
    text = f"{task.workload}|{task.detector}|{rate_part}|{task.seed}|{task.scale:.6f}"
    return (zlib.crc32(text.encode("ascii")) << 16) ^ task.seed


def expand_matrix(
    workloads: Iterable[str],
    detectors: Iterable[str],
    rates: Iterable[Optional[float]],
    seeds: Iterable[int],
    scale: float = 1.0,
    backend: Optional[str] = None,
) -> List[TrialTask]:
    """The full cartesian matrix, in deterministic row-major order.

    ``rates`` entries other than ``None`` only apply to the ``pacer``
    detector; for always-on detectors the rate axis collapses to one
    trial (rate ``None``) instead of duplicating identical runs.
    """
    tasks: List[TrialTask] = []
    for workload in workloads:
        for detector in detectors:
            det_rates = list(rates) if detector == "pacer" else [None]
            for rate in det_rates:
                for seed in seeds:
                    tasks.append(
                        TrialTask(workload, detector, rate, seed, scale, backend)
                    )
    return tasks


def run_trial_task(task: TrialTask) -> CoreStats:
    """Execute one trial and distill it into a :class:`CoreStats`.

    Pure function of the task: no module-level RNG, no environment
    dependence, so it yields identical results in-process and in any
    worker process.
    """
    import random

    spec = WORKLOADS[task.workload].scaled(task.scale)
    factory = DETECTOR_FACTORIES[task.detector]
    detector = factory(backend=task.backend)
    controller = None
    if task.rate is not None:
        if task.detector != "pacer":
            raise ValueError(f"rate only applies to pacer, not {task.detector!r}")
        controller = BiasCorrectedController(
            task.rate, rng=random.Random(task_seed(task))
        )
    runtime = Runtime(
        build_program(spec, trial_seed=task.seed),
        detector,
        controller=controller,
        config=RuntimeConfig(track_memory=False),
        seed=task.seed,
    )
    start = time.perf_counter_ns()
    runtime.run()
    elapsed = time.perf_counter_ns() - start
    perf = PerfCounters(events=runtime.events, elapsed_ns=elapsed)
    perf.merge(detector.perf)
    metrics = trial_metrics(runtime, detector)
    return CoreStats(
        workload=task.workload,
        detector=task.detector,
        rate=task.rate,
        seed=task.seed,
        events=runtime.events,
        races=len(detector.races),
        race_sigs=tuple(r.sig for r in detector.races),
        distinct_keys=tuple(sorted(detector.distinct_races)),
        effective_rate=runtime.effective_sampling_rate,
        counters=detector.counters.snapshot(),
        perf=perf,
        metrics=metrics,
    )


def trial_metrics(runtime: Runtime, detector: Detector) -> Dict[str, int]:
    """Deterministic end-of-run observability metrics for one trial.

    Everything here is a function of (workload, detector, rate, seed) —
    never of wall-clock time — so shipped between shards and merged with
    :func:`repro.obs.metrics.merge_metric_dicts` the result is
    byte-identical for any ``--jobs`` value.  ``max_``-prefixed keys
    take the maximum under merge; the rest sum.
    """
    gc_log = runtime.gc_log
    periods = sum(
        1
        for i, (_, sampling) in enumerate(gc_log)
        if sampling and (i == 0 or not gc_log[i - 1][1])
    )
    return {
        "events": runtime.events,
        "gc_count": len(gc_log),
        "sampling_periods": periods,
        "sync_total": runtime.sync_total,
        "sync_sampled": runtime.sync_sampled,
        "context_switches": runtime.context_switches,
        "scheduler_steps": runtime.scheduler_steps,
        "threads_started": runtime.threads_started,
        "max_live_threads": runtime.max_live_threads,
        "footprint_words_final": detector.footprint_words(),
        "live_vars_final": detector.tracked_variables,
        "max_clock_entries": detector.max_clock_entries(),
    }


def default_jobs() -> int:
    """Job count from ``REPRO_JOBS`` (default 1: sequential, no pool).

    An unparsable value is *announced*, not swallowed: silently running
    a supposed ``REPRO_JOBS=8x`` campaign sequentially wastes hours.
    """
    raw = os.environ.get("REPRO_JOBS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        print(
            f"repro: ignoring unparsable REPRO_JOBS={raw!r} "
            f"(want an integer); running with 1 job",
            file=sys.stderr,
        )
        return 1


def require_complete(
    tasks: Sequence[TrialTask],
    results: Sequence[Optional[CoreStats]],
    allowed_missing: Iterable[int] = (),
) -> None:
    """Raise unless every non-quarantined task produced a result.

    The error names each dropped trial's (workload, detector, rate,
    seed) — an index alone is useless three hours into a campaign.
    """
    allowed = set(allowed_missing)
    dropped = [
        (i, tasks[i])
        for i, stats in enumerate(results)
        if stats is None and i not in allowed
    ]
    if dropped:
        names = ", ".join(
            f"#{i} (workload={t.workload!r}, detector={t.detector!r}, "
            f"rate={t.rate}, seed={t.seed})"
            for i, t in dropped
        )
        raise RuntimeError(f"matrix dropped {len(dropped)} task(s): {names}")


def run_matrix(tasks: Sequence[TrialTask], jobs: int = 1) -> List[CoreStats]:
    """Run the matrix, optionally fanned across supervised workers.

    With ``jobs > 1`` trials run under the crash-isolated supervisor
    (:func:`repro.analysis.supervisor.run_supervised`) in strict mode:
    worker deaths and wedged trials are retried transparently, and a
    trial that cannot complete raises
    :class:`~repro.analysis.supervisor.MatrixIncompleteError` naming the
    dropped (workload, detector, rate, seed) — never a silent gap.
    Results are sewn back in task-index order, so the returned list is
    identical for any ``jobs`` value and any retry/completion schedule,
    which the determinism tests assert.
    """
    if jobs <= 1 or len(tasks) <= 1:
        results: List[CoreStats] = [run_trial_task(task) for task in tasks]
        return results
    # local import: supervisor imports this module for TrialTask et al.
    from .supervisor import SupervisorConfig, run_supervised

    outcome = run_supervised(
        tasks,
        SupervisorConfig(jobs=jobs, task_timeout=None, quarantine=False),
    )
    require_complete(tasks, outcome.results)
    return [stats for stats in outcome.results if stats is not None]


def matrix_report(
    tasks: Sequence[TrialTask],
    results: Sequence[CoreStats],
    source: str = "matrix",
) -> Dict:
    """One merged race-report document for a whole matrix run.

    Each trial's document comes from :func:`~repro.obs.reports.build_report`
    over its ``race_sigs`` (the deterministic result core workers already
    ship — no flight recorder crosses process boundaries, so there are
    no witnesses or contexts); :func:`~repro.obs.reports.merge_reports`
    folds them in task order, so like the merged metrics the document is
    byte-identical for any ``--jobs`` value.
    """
    # imported here to keep module import light and cycle-free
    from ..obs.reports import build_report, merge_reports

    docs = [
        build_report(
            [Race.from_sig(sig) for sig in stats.race_sigs],
            source=source,
            detector=task.detector,
            backend=task.backend,
            rate=task.rate,
            events=stats.events,
        )
        for task, stats in zip(tasks, results)
    ]
    return merge_reports(docs, source=source)


#: baseline preference order for the proportionality audit: the first
#: always-on *precise* detector present in the matrix anchors the
#: denominator (what a full-rate run would have reported)
_AUDIT_BASELINES = ("fasttrack", "djit", "generic", "goldilocks")


def matrix_coverage(
    tasks: Sequence[TrialTask],
    results: Sequence[CoreStats],
    source: str = "matrix",
) -> Dict:
    """One merged coverage document for a whole matrix run.

    Each trial's ``repro/coverage-report/v1`` document comes from
    :func:`~repro.obs.quality.build_coverage` over the counters and
    ``race_sigs`` workers already ship (no sampling marks, so
    attribution is null); :func:`~repro.obs.quality.merge_coverage`
    folds them into one global accounting, extended with two
    matrix-only sections:

    * ``curve`` — one row per (workload, detector, rate) cell: trials,
      events, dynamic races, and the sync-op-weighted effective rate —
      the live rate-vs-detection curve data behind the paper's
      Figure 3–5 proportionality plots;
    * ``audit`` — for every sampled-detector cell that shares a
      workload with an always-on precise baseline in the same matrix:
      the paper's Figure 3 dynamic detection ratio.  The baseline's
      per-trial dynamic race count ``k`` gives the cell's detection
      opportunities (``k * trials``); PACER's guarantee says each is
      reported with probability ``r``, so the observed fraction's
      Wilson 95% interval should contain the cell's effective rate —
      the same claim :mod:`~repro.analysis.experiments` checks offline
      (``dynamic_detection_rate`` tracking ``mean_effective_rate``).

    Everything derives from ``CoreStats`` in deterministic group order,
    so the document is byte-identical for any ``--jobs`` value and any
    state backend.
    """
    # imported here to keep module import light and cycle-free
    from ..obs.quality import (
        build_coverage,
        effective_rate_ci,
        merge_coverage,
        sync_op_split,
    )
    from .statistics import wilson_interval

    docs = [
        build_coverage(
            source=source,
            detector=task.detector,
            workload=task.workload,
            nominal_rate=task.rate,
            counters=stats.counters,
            races=[Race.from_sig(sig) for sig in stats.race_sigs],
            events=stats.events,
        )
        for task, stats in zip(tasks, results)
    ]
    merged = merge_coverage(docs, source=source)

    groups: Dict[Tuple, List[CoreStats]] = {}
    for task, stats in zip(tasks, results):
        key = (task.workload, task.detector, task.rate)
        groups.setdefault(key, []).append(stats)

    curve: List[Dict] = []
    cells: Dict[Tuple, Dict] = {}
    for key in sorted(groups, key=str):
        workload, detector, rate = key
        group = groups[key]
        sampled = 0
        total = 0
        for stats in group:
            s, t = sync_op_split(stats.counters)
            sampled += s
            total += t
        eff, _ = effective_rate_ci(sampled, total)
        row = {
            "workload": workload,
            "detector": detector,
            "rate": rate,
            "trials": len(group),
            "events": sum(s.events for s in group),
            "dynamic_races": sum(s.races for s in group),
            "sync_sampled": sampled,
            "sync_total": total,
            "effective_rate": round(eff, 9),
        }
        curve.append(row)
        cells[key] = row

    audit: List[Dict] = []
    for row in curve:
        if row["rate"] is None:
            continue
        baseline_row = None
        for name in _AUDIT_BASELINES:
            baseline_row = cells.get((row["workload"], name, None))
            if baseline_row is not None:
                break
        if baseline_row is None:
            continue
        trials = row["trials"]
        detected = row["dynamic_races"]
        baseline_races = baseline_row["dynamic_races"]
        # Figure 3's metric: the baseline saw k dynamic races per trial,
        # so this cell had ~k*trials detection opportunities, each
        # reported with probability r — the observed fraction's Wilson
        # interval should contain the effective rate
        occurrences = baseline_races / baseline_row["trials"]
        slots = round(occurrences * trials)
        fraction = None
        ci = None
        consistent = None
        if slots > 0:
            fraction = round(detected / slots, 9)
            lo, hi = wilson_interval(min(detected, slots), slots)
            ci = [round(lo, 9), round(hi, 9)]
            consistent = lo <= row["effective_rate"] <= hi
        audit.append(
            {
                "workload": row["workload"],
                "detector": row["detector"],
                "rate": row["rate"],
                "baseline": baseline_row["detector"],
                "detected": detected,
                "trials": trials,
                "baseline_races": baseline_races,
                "occurrences_per_trial": round(occurrences, 9),
                "expected_occurrences": slots,
                "observed_fraction": fraction,
                "effective_rate": row["effective_rate"],
                "ci95": ci,
                "consistent": consistent,
            }
        )

    merged["curve"] = curve
    merged["audit"] = audit
    return merged


def merge_matrix(
    tasks: Sequence[TrialTask],
    results: Sequence[CoreStats],
    by: Tuple[str, ...] = ("workload", "detector", "rate"),
) -> Dict[Tuple, CoreStats]:
    """Group per-trial results and merge each group's :class:`CoreStats`.

    ``by`` names TrialTask fields; the default folds the seed axis, one
    merged record per (workload, detector, rate) cell.
    """
    groups: Dict[Tuple, List[CoreStats]] = {}
    for task, stats in zip(tasks, results):
        key = tuple(getattr(task, field) for field in by)
        groups.setdefault(key, []).append(stats)
    return {key: CoreStats.merge(group) for key, group in groups.items()}
