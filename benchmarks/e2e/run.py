"""The repository benchmark: three ``repro analyze`` workloads and a streamed session.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace 0|1] [--json OUT] [--smoke]

Each workload runs in its own measured subprocess (``worker.py``), one
after another.  Before it starts, this process records the workload's
input three times (``setup_s`` is the median set-up) and compares the
input with the fingerprint recorded in ``fingerprints.json``.  After it
ends, this process computes the reference answer with the pseudocode
path (scalar dispatch, object backend) and checks every rep's output
against it.

Every metric is printed as ``workload metric value unit``.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json, or with ``--trace 1`` its per-layer metrics.  The exit
code is non-zero when any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: set-ups per run; setup_s is their median
SETUP_RUNS = 3

#: a measured process that runs longer than this is stopped
WORKER_TIMEOUT_S = 150


class BenchmarkError(Exception):
    """The benchmark could not measure (as opposed to a wrong answer)."""


def load_spec() -> Dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_workload(name: str, args, work: Path, trace_out: Optional[Path]) -> Dict:
    """Set up, measure and check one workload; returns its result document."""
    import workloads

    w = workloads.WORKLOADS[name]
    wdir = work / name
    wdir.mkdir(parents=True)
    path = wdir / "input.pacr"
    setups: List[float] = []
    for _ in range(SETUP_RUNS):
        seconds, events = workloads.setup(w, args.seed, path, wdir, args.smoke)
        setups.append(seconds)
    fingerprint = workloads.fingerprint(events)
    del events
    recorded = None if args.smoke else workloads.expected_fingerprint(name, args.seed)
    if recorded is not None and recorded != fingerprint:
        raise BenchmarkError(
            f"{name}: input for seed {args.seed} changed: recorded {recorded}, "
            f"now {fingerprint}; repro.sim no longer produces the inputs "
            f"this benchmark measures")

    out = wdir / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--input", str(path), "--work-dir", str(wdir), "--out", str(out),
           "--seconds", str(args.seconds), "--min-reps", str(args.min_reps),
           "--trace", str(args.trace)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    env = {k: v for k, v in os.environ.items()
           if k not in ("REPRO_STATE_BACKEND", "REPRO_JOBS")}
    env["PYTHONPATH"] = str(SRC)
    try:
        proc = subprocess.run(cmd, env=env, cwd=str(ROOT),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(
            f"{name}: worker stopped after {WORKER_TIMEOUT_S} s") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchmarkError(f"{name}: worker exited {proc.returncode}")
    result = json.loads(out.read_text(encoding="utf-8"))

    ref = workloads.reference(w, path)
    want = {stream: workloads.digest(workloads.expected_outcome(ref, stream))
            for stream in (False, True)}
    checked = [dict(r, stream=w.stream) for r in result["reps"]]
    traced = result.get("traced")
    if traced is not None:
        checked += traced["checks"]
    failed = sum(1 for r in checked
                 if not r["ok"] or r["digest"] != want[r["stream"]])

    timed = [r for r in result["reps"] if r.get("wall_s")]
    if not timed:
        raise BenchmarkError(f"{name}: no rep completed")
    metrics = {
        # the least disturbed rep: on a shared machine the fastest rep
        # varies less between runs than the median rep does
        "events_per_s": fingerprint["events"] / min(r["wall_s"] for r in timed),
        "report_ms": statistics.median(r["report_ms"] for r in timed),
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }
    if traced is not None:
        metrics.update(traced["metrics"])
    return {
        "workload": name,
        "seed": args.seed,
        "smoke": args.smoke,
        "trace": args.trace,
        "fingerprint": fingerprint,
        "attempted": len(checked),
        "failed": failed,
        "failed_frac": failed / len(checked),
        "setups_s": setups,
        "reps": result["reps"],
        "covered_frac": traced["covered_frac"] if traced else None,
        "metrics": metrics,
    }


def parse_args(argv, names: List[str], run_seconds: int):
    p = argparse.ArgumentParser(
        description="PACER end-to-end benchmark (see benchmarks/e2e/README.md)")
    p.add_argument("--workload", action="append", choices=names,
                   help="workload to run (repeatable; default: all, in order)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the recorded inputs (default 0)")
    p.add_argument("--seconds", type=float, default=run_seconds,
                   help=f"timed phase per workload (default {run_seconds})")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: add the traced pass and report per-layer metrics")
    p.add_argument("--json", type=Path, default=None, metavar="OUT",
                   help="directory for result and Chrome-trace JSON files")
    p.add_argument("--smoke", action="store_true",
                   help="inputs 1/16 of full size and exactly 2 reps")
    args = p.parse_args(argv)
    args.workload = args.workload or names
    args.min_reps = 2 if args.smoke else 3
    if args.smoke:
        args.seconds = 0
    return args


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    args = parse_args(argv, names, spec["run_seconds"])
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no program source under {SRC}", file=sys.stderr)
        return 2
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    if args.json is not None:
        args.json.mkdir(parents=True, exist_ok=True)

    section = "per_layer" if args.trace else "end_to_end"
    printed = spec["end_to_end"] + (spec["per_layer"] if args.trace else [])
    work = HERE / ".work" / str(os.getpid())
    results = []
    try:
        for name in args.workload:
            stem = f"{name}.seed{args.seed}"
            trace_out = (args.json / f"{stem}.trace.json"
                         if args.json is not None and args.trace else None)
            doc = run_workload(name, args, work, trace_out)
            missing = [m["name"] for m in printed
                       if m["name"] not in doc["metrics"]]
            if missing:
                raise BenchmarkError(f"{name}: metrics not measured: {missing}")
            for m in printed:
                print(f"{name} {m['name']} {doc['metrics'][m['name']]:.6g} "
                      f"{m['unit']}")
            print(f"{name} failed_frac {doc['failed_frac']:.6g} fraction")
            if doc["covered_frac"] is not None:
                print(f"{name} layers_covered_frac {doc['covered_frac']:.6g} "
                      f"fraction")
            if args.json is not None:
                (args.json / f"{stem}.json").write_text(
                    json.dumps(doc, indent=1, sort_keys=True), encoding="utf-8")
            results.append(doc)
    except BenchmarkError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass

    single = len(results) == 1
    metrics = {}
    for doc in results:
        for m in spec[section]:
            key = m["name"] if single else f"{doc['workload']}/{m['name']}"
            metrics[key] = {"value": doc["metrics"][m["name"]], "unit": m["unit"]}
    failed = sum(doc["failed"] for doc in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(doc["attempted"] for doc in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
