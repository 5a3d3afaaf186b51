"""Judge a change against its parent commit from two sets of benchmark runs.

    python3 benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the result files ``run.py --json DIR`` writes
(``<workload>.seed<N>.json``).  Runs pair up by workload and seed, so
run the two commits alternately with the same seeds, at least
``MIN_PAIRS`` pairs.  One row per workload and end-to-end metric of
BENCHMARK.json, labelled:

* gain: the change wins at least 90% of the pairs and the medians
  differ by more than the parent's interquartile range;
* regression: the change's median is worse than the parent's by more
  than the metric's bound;
* unresolved: either side's interquartile range, as a share of its
  median, is wider than the bound, unless every run of the change
  reads better than every run of the parent;
* no change: otherwise.

Every ratio is printed with its base.  Exits 1 when any row is a
regression.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: fewer pairs than this can never show a gain
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(directory: Path) -> Dict[Tuple[str, int], Dict[str, float]]:
    """``(workload, seed) -> {metric: value}`` for every result file."""
    runs = {}
    for path in sorted(directory.glob("*.seed*.json")):
        if path.name.endswith(".trace.json"):
            continue
        doc = json.loads(path.read_text(encoding="utf-8"))
        runs[(doc["workload"], doc["seed"])] = doc["metrics"]
    return runs


def quartiles(values: List[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent: List[float], change: List[float], better: str,
            bound: float) -> Tuple[str, int]:
    """The row's label and the number of pairs the change won."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    pm, cm = statistics.median(parent), statistics.median(change)
    p1, p3 = quartiles(parent)
    c1, c3 = quartiles(change)
    if (len(parent) >= MIN_PAIRS and wins >= WIN_SHARE * len(parent)
            and sign * (cm - pm) > p3 - p1):
        return "gain", wins
    if sign * (pm - cm) > bound * abs(pm):
        return "regression", wins
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if (p3 - p1 > bound * abs(pm) or c3 - c1 > bound * abs(cm)) and not all_better:
        return "unresolved", wins
    return "no change", wins


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, help="result files of the parent commit")
    p.add_argument("change", type=Path, help="result files of the change")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parent, change = load_runs(args.parent), load_runs(args.change)
    keys = sorted(set(parent) & set(change))
    if not keys:
        print("compare.py: no (workload, seed) pair in both directories",
              file=sys.stderr)
        return 2
    workloads = sorted({w for w, _ in keys})
    labels = []
    for workload in workloads:
        seeds = [s for w, s in keys if w == workload]
        if len(seeds) < MIN_PAIRS:
            print(f"# {workload}: {len(seeds)} pair(s), fewer than "
                  f"{MIN_PAIRS}: no gain can be shown")
        for m in spec["end_to_end"]:
            name = m["name"]
            pv = [parent[(workload, s)][name] for s in seeds]
            cv = [change[(workload, s)][name] for s in seeds]
            label, wins = verdict(pv, cv, m["better"], m["bound"])
            labels.append(label)
            pm, cm = statistics.median(pv), statistics.median(cv)
            p1, p3 = quartiles(pv)
            c1, c3 = quartiles(cv)
            ratio = cm / pm if pm else float("nan")
            print(f"{workload} {name}: {label}; change/parent = {ratio:.4f} "
                  f"of parent median {pm:.6g} {m['unit']} "
                  f"(parent q1-q3 {p1:.6g}-{p3:.6g}, change median {cm:.6g} "
                  f"q1-q3 {c1:.6g}-{c3:.6g}; change won {wins}/{len(seeds)} "
                  f"pairs; bound {m['bound']:.0%}, {m['better']} is better)")
    return 1 if "regression" in labels else 0


if __name__ == "__main__":
    sys.exit(main())
