"""Core-operations benchmark: state backends under batched replay.

This is the engine behind ``repro bench`` and the importable half of
``benchmarks/bench_core_operations.py``: it records a fixed workload
trace, replays it through both state backends (``object`` and
``packed``), and writes the machine-readable evidence file
``BENCH_core.json`` (each write also appends a timestamped line to
``BENCH_history.jsonl`` so regressions can be traced across runs).

Measurement methodology
-----------------------

Shared machines drift: the same replay can swing 2x slower between two
back-to-back sweeps as neighbors come and go.  Timing all of backend A
and then all of backend B bakes that drift into the ratio, so every
gated ratio is measured **interleaved** (:func:`interleaved`): a
warm-up run of each side, then rounds that alternate which side runs
first, taking the *median of per-round ratios*.  Each ratio compares two
runs executed milliseconds apart, which cancels machine-level drift; the
median discards rounds where a neighbor landed mid-pair.  The packed
speedup gate here and the smoke, observability and state gates of
``benchmarks/bench_core_operations.py`` all measure this way.
Per-backend absolute throughputs are still reported best-of-N (the usual
minimum-noise estimator), but no gate reads them.
"""

from __future__ import annotations

import statistics
import time
from functools import lru_cache
from typing import Callable, Dict, List, Tuple

from .core.backend import BACKENDS
from .core.pacer import PacerDetector
from .detectors import FastTrackDetector
from .sim.scheduler import Scheduler
from .sim.workloads import WORKLOADS, build_program
from .trace.batch import encode_batch

__all__ = [
    "BATCH_CONFIGS",
    "PACKED_SPEEDUP_TARGET",
    "recorded_trace",
    "marked_trace",
    "backend_comparison",
    "interleaved",
    "interleaved_speedup",
    "emit_json",
    "check_gates",
    "write_bench_json",
    "append_bench_history",
]

#: the packed backend must beat the object backend's *batched* replay by
#: this factor on the layout-bound (fasttrack) config.  Object batched
#: replay is the generic per-event loop over the scalar handlers (the
#: pseudocode reference), so the gate measures the packed kernel against
#: the reference implementation.  Set about 20% below the lowest of 12
#: interleaved rounds measured on a 2-vCPU x86-64 Xeon VM under
#: CPython 3.11 (lowest 4.42x, median 4.77x), leaving room for
#: run-to-run noise.
PACKED_SPEEDUP_TARGET = 3.5

#: the gate's metric label.  ``scripts/bench_trend.py`` keys series on the
#: "X vs Y backend" pair, so the baseline carries its own name: ratios
#: against the object reference handlers must not share a series with
#: ratios against a different object baseline.
PACKED_GATE_METRIC = ("batched replay throughput, packed vs object-reference "
                      "backend (interleaved median ratio)")

#: workload the backend rows and the speedup gate replay
BENCH_WORKLOAD = "pseudojbb"


@lru_cache(maxsize=None)
def recorded_trace(name: str, trial_seed: int = 0, size: float = 0.7) -> tuple:
    """A fixed recorded trace of one workload (for replay timing)."""
    spec = WORKLOADS[name].scaled(size)
    events: List = []
    scheduler = Scheduler(build_program(spec, trial_seed), seed=trial_seed,
                          sink=events.append)
    scheduler.run()
    return tuple(events)


def marked_trace(name: str, rate: float, period: int = 400,
                 trial_seed: int = 0, size: float = 0.7) -> list:
    """A recorded trace with sampling-period markers inserted.

    Splits the trace into fixed-size periods and marks a deterministic
    fraction ``rate`` of them as sampling periods (spread evenly), so
    replay benchmarks measure PACER at an exact effective rate.
    """
    from .trace.events import sbegin, send

    base = recorded_trace(name, trial_seed, size)
    n_periods = max(1, (len(base) + period - 1) // period)
    sampled = set()
    if rate >= 1.0:
        sampled = set(range(n_periods))
    elif rate > 0:
        want = max(1, round(rate * n_periods))
        step = n_periods / want
        sampled = {int(i * step) for i in range(want)}
    events = []
    sampling = False
    for i in range(n_periods):
        should = i in sampled
        if should and not sampling:
            events.append(sbegin())
            sampling = True
        elif not should and sampling:
            events.append(send())
            sampling = False
        events.extend(base[i * period:(i + 1) * period])
    if sampling:
        events.append(send())
    return events


#: (label, detector factory, trace builder).  FASTTRACK replays a plain
#: recorded trace; PACER replays the paper's low-rate regime (r=1% with
#: period markers), where the non-sampling bulk path dominates.
BATCH_CONFIGS = [
    ("fasttrack", FastTrackDetector,
     lambda size: list(recorded_trace(BENCH_WORKLOAD, size=size))),
    ("pacer r=1%", PacerDetector,
     lambda size: marked_trace(BENCH_WORKLOAD, 0.01, size=size)),
]


def _best_rate(run, repeats):
    """Best-of-N events/sec (minimum-noise estimate on a busy machine)."""
    return max(run() for _ in range(repeats))


def backend_comparison(size=0.7, repeats=3):
    """Per (config, backend): throughput and end-of-replay footprint.

    Returns ``[(label, backend, n_events, scalar ev/s, batched ev/s,
    footprint words), ...]`` over every backend.  Footprints are
    trace-determined, so equal footprints across backends double as a
    space-parity check.
    """
    rows = []
    for label, factory, build in BATCH_CONFIGS:
        events = build(size)
        encoded = encode_batch(events)
        for backend in BACKENDS:

            def scalar():
                det = factory(backend=backend)
                det.run(events)
                return det.perf.events_per_sec

            def batched():
                det = factory(backend=backend)
                det.run_batch(encoded)
                return det.perf.events_per_sec

            probe = factory(backend=backend)
            probe.run_batch(encoded)
            rows.append(
                (label, backend, len(events), _best_rate(scalar, repeats),
                 _best_rate(batched, repeats), probe.footprint_words())
            )
    return rows


def interleaved(baseline: Callable[[], float], contender: Callable[[], float],
                rounds: int = 5) -> Tuple[float, float, float]:
    """Compare two rates (higher is better) the drift-robust way.

    Runs each side once to warm allocators and code paths, then
    ``rounds`` rounds that alternate which side runs first.  Returns
    ``(median of per-round contender/baseline ratios, median baseline
    rate, median contender rate)`` — see the module docstring for why
    this beats comparing two best-of-N sweeps on shared boxes.
    """
    baseline(), contender()
    ratios, base_rates, cont_rates = [], [], []
    for i in range(rounds):
        if i % 2:
            cont = contender()
            base = baseline()
        else:
            base = baseline()
            cont = contender()
        ratios.append(cont / base)
        base_rates.append(base)
        cont_rates.append(cont)
    return (statistics.median(ratios), statistics.median(base_rates),
            statistics.median(cont_rates))


def interleaved_speedup(contender: str, baseline: str = "object",
                        config: str = "fasttrack", size: float = 1.0,
                        rounds: int = 5):
    """Batched-replay speedup of one backend over another, measured by
    :func:`interleaved`; returns ``(median ratio, events)``."""
    label, factory, build = next(c for c in BATCH_CONFIGS if c[0] == config)
    events = build(size)
    encoded = encode_batch(events)

    def run(backend):
        det = factory(backend=backend)
        det.run_batch(encoded)
        return det.perf.events_per_sec

    speedup, _, _ = interleaved(
        lambda: run(baseline), lambda: run(contender), rounds
    )
    return speedup, len(events)


def write_bench_json(path, doc: Dict) -> None:
    """Write one benchmark's machine-readable results (CI artifact).

    Stable formatting (sorted keys, trailing newline) so committed
    evidence files diff cleanly between runs.  Each write also appends a
    timestamped copy to ``BENCH_history.jsonl`` next to ``path`` — one
    JSON object per line — so regressions can be traced across runs
    without digging through CI artifact archives.
    """
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    append_bench_history(path, doc)


def append_bench_history(path, doc: Dict) -> None:
    """Append ``doc`` (timestamped) to the sibling ``BENCH_history.jsonl``."""
    import json
    from pathlib import Path

    entry = {
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        **doc,
    }
    history = Path(path).resolve().parent / "BENCH_history.jsonl"
    with open(history, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    print(f"appended {history.name}")


def _print_table(header, rows):
    from .analysis import render_table

    print(render_table(header, rows))


def print_backend_rows(rows):
    _print_table(
        ["detector", "backend", "events", "scalar ev/s", "batched ev/s",
         "footprint words"],
        [[label, backend, n, f"{s:,.0f}", f"{b:,.0f}", f"{fp:,}"]
         for label, backend, n, s, b, fp in rows],
    )


def emit_json(path, size=0.7, repeats=3, gate_size=1.0, gate_rounds=5) -> int:
    """Run the backend comparison and write ``path`` (BENCH_core.json).

    The per-backend rows use ``size``/``repeats`` best-of-N sweeps; the
    speedup gates use interleaved ``gate_size``/``gate_rounds`` runs.
    """
    rows = backend_comparison(size=size, repeats=repeats)
    print("\nState backends: batched replay throughput + footprint")
    print_backend_rows(rows)
    packed_speedup, n_events = interleaved_speedup(
        "packed", size=gate_size, rounds=gate_rounds)
    gates = [{
        "config": "fasttrack",
        "metric": PACKED_GATE_METRIC,
        "events": n_events,
        "speedup": round(packed_speedup, 3),
        "target": PACKED_SPEEDUP_TARGET,
    }]
    print(f"packed vs object-reference batched replay (fasttrack): "
          f"{packed_speedup:.2f}x (target {PACKED_SPEEDUP_TARGET}x)")
    doc = {
        "bench": "core_operations",
        "workload": BENCH_WORKLOAD,
        "size": size,
        "backends": list(BACKENDS),
        "methodology": "per-backend rows best-of-N; gate speedups from "
                       "interleaved alternating runs, median of per-round "
                       "ratios (robust to machine drift)",
        "rows": [
            {
                "detector": label,
                "backend": backend,
                "events": n,
                "scalar_events_per_sec": round(s, 1),
                "batched_events_per_sec": round(b, 1),
                "footprint_words": fp,
            }
            for label, backend, n, s, b, fp in rows
        ],
        "gate": gates[0],
        "gates": gates,
    }
    write_bench_json(path, doc)
    return 0


def check_gates(path) -> int:
    """Enforce the speedup targets recorded in a BENCH_core.json file.

    Returns nonzero if any gate's measured speedup is below its target —
    the strict form of the CI throughput gate (``repro bench --check``).
    """
    import json

    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    gates = doc.get("gates") or [doc["gate"]]
    failures = [g for g in gates if g["speedup"] < g["target"]]
    for g in gates:
        status = "OK" if g["speedup"] >= g["target"] else "FAIL"
        print(f"gate {status}: {g['metric']}: {g['speedup']}x "
              f"(target {g['target']}x)")
    return 1 if failures else 0
