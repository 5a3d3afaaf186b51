#!/usr/bin/env python
"""Run-over-run speedup trend from ``BENCH_history.jsonl``.

``repro bench --record`` appends one JSON document per benchmark run;
this is the reader side: a per-gate trend table (speedup, delta vs the
previous run, ratio vs the first recorded run, gate verdict) so a
regression shows up as a trend, not a single noisy sample.

    python scripts/bench_trend.py                # all gates
    python scripts/bench_trend.py --metric reference  # filter by label text
    python scripts/bench_trend.py --json         # machine-readable

Stdlib only (plus the repo's own table renderer).  A missing or empty
history exits 2 with a one-line explanation on stderr — a CI step that
*expected* a trend must fail loudly, not print an empty table and pass.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.tables import render_table  # noqa: E402

_PAIR = re.compile(r"([\w-]+) vs ([\w-]+) backend")


def gate_label(gate: Dict) -> str:
    """Short stable label for one gate across metric-wording changes."""
    match = _PAIR.search(gate.get("metric", ""))
    if match:
        return f"{match.group(1)} vs {match.group(2)}"
    return gate.get("metric", "?")


def load_history(path: Path) -> List[Dict]:
    records = []
    with open(path, encoding="utf-8") as fh:
        for i, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                print(f"warning: {path}:{i + 1}: bad JSON ({exc})",
                      file=sys.stderr)
    records.sort(key=lambda r: r.get("recorded_at", ""))
    return records


def collect_trends(records: List[Dict]) -> Dict[str, List[Dict]]:
    """Label -> chronological list of {recorded_at, speedup, target}."""
    trends: Dict[str, List[Dict]] = {}
    for record in records:
        # early records carried a single "gate"; later ones a "gates" list
        gates = record.get("gates") or (
            [record["gate"]] if record.get("gate") else []
        )
        for gate in gates:
            if not isinstance(gate.get("speedup"), (int, float)):
                continue
            trends.setdefault(gate_label(gate), []).append(
                {
                    "recorded_at": record.get("recorded_at", "?"),
                    "speedup": gate["speedup"],
                    "target": gate.get("target"),
                }
            )
    return trends


def render_trend(label: str, samples: List[Dict]) -> str:
    first = samples[0]["speedup"]
    rows = []
    prev = None
    for i, sample in enumerate(samples):
        speedup = sample["speedup"]
        target = sample["target"]
        rows.append(
            [
                i + 1,
                sample["recorded_at"],
                f"{speedup:.3f}x",
                "-" if prev is None else f"{speedup - prev:+.3f}",
                f"{speedup / first:.2f}x" if first else "-",
                "-" if target is None else f"{target:.1f}x",
                "-" if target is None else ("ok" if speedup >= target else "MISS"),
            ]
        )
        prev = speedup
    return render_table(
        ["run", "recorded_at", "speedup", "d prev", "vs first", "target",
         "gate"],
        rows,
        title=f"speedup trend - {label}",
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="render run-over-run gate-speedup trends from "
        "BENCH_history.jsonl"
    )
    parser.add_argument(
        "history", nargs="?", default=str(REPO_ROOT / "BENCH_history.jsonl"),
        help="history file (default: BENCH_history.jsonl at the repo root)",
    )
    parser.add_argument(
        "--metric", default=None,
        help="only gates whose label contains this substring",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the trend data as JSON instead of tables",
    )
    args = parser.parse_args(argv)

    path = Path(args.history)
    if not path.exists():
        print(
            f"error: no benchmark history at {path} "
            "(run `repro bench --record` first)",
            file=sys.stderr,
        )
        return 2
    trends = collect_trends(load_history(path))
    if not trends:
        print(
            f"error: {path} contains no gate samples "
            "(empty or unrecognized history)",
            file=sys.stderr,
        )
        return 2
    if args.metric:
        trends = {
            label: samples for label, samples in trends.items()
            if args.metric.lower() in label.lower()
        }
        if not trends:
            print(
                f"error: no gate label matches --metric {args.metric!r}",
                file=sys.stderr,
            )
            return 2
    if args.as_json:
        print(json.dumps(trends, indent=2, sort_keys=True))
        return 0
    blocks = [render_trend(label, trends[label]) for label in sorted(trends)]
    print("\n\n".join(blocks))
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BrokenPipeError:  # e.g. piped into `head`
        raise SystemExit(0)
