"""``scripts/bench_trend.py`` exit-code contract.

A CI step that expects a trend must fail loudly when there is nothing
to render: missing or empty history is exit 2 with a one-line stderr
explanation — never a traceback, never a green no-op.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from repro.bench import PACKED_GATE_METRIC

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_trend.py"


def run(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), *argv], capture_output=True, text=True
    )


def test_missing_history_exits_nonzero_with_message(tmp_path):
    out = run(str(tmp_path / "nope.jsonl"))
    assert out.returncode == 2
    assert "no benchmark history" in out.stderr
    assert "repro bench --record" in out.stderr
    assert "Traceback" not in out.stderr


def test_empty_history_exits_nonzero_with_message(tmp_path):
    path = tmp_path / "BENCH_history.jsonl"
    path.write_text("")
    out = run(str(path))
    assert out.returncode == 2
    assert "no gate samples" in out.stderr
    assert "Traceback" not in out.stderr


def test_unmatched_metric_filter_exits_nonzero(tmp_path):
    path = tmp_path / "BENCH_history.jsonl"
    record = {
        "recorded_at": "2026-01-01T00:00:00",
        "gates": [{"metric": "packed vs object backend speedup",
                   "speedup": 1.5, "target": 1.2}],
    }
    path.write_text(json.dumps(record) + "\n")
    out = run(str(path), "--metric", "does-not-exist")
    assert out.returncode == 2
    assert "--metric" in out.stderr


def test_valid_history_renders_and_exits_zero(tmp_path):
    path = tmp_path / "BENCH_history.jsonl"
    records = [
        {
            "recorded_at": f"2026-01-0{i}T00:00:00",
            "gates": [{"metric": "packed vs object backend speedup",
                       "speedup": 1.4 + i / 10, "target": 1.2}],
        }
        for i in (1, 2)
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    out = run(str(path))
    assert out.returncode == 0
    assert "speedup trend" in out.stdout
    as_json = run(str(path), "--json")
    assert as_json.returncode == 0
    assert "packed vs object" in json.loads(as_json.stdout) or json.loads(
        as_json.stdout
    )


def test_reference_baseline_is_its_own_series(tmp_path):
    """The packed gate's baseline changed from the inlined object batch
    loop to the object reference handlers; the relabelled metric must
    start a new series rather than chart the jump as a speedup."""
    path = tmp_path / "BENCH_history.jsonl"
    old = {
        "recorded_at": "2026-01-01T00:00:00",
        "gates": [{"metric": "batched replay throughput, packed vs object "
                             "backend (interleaved median ratio)",
                   "speedup": 1.65, "target": 1.5}],
    }
    new = {
        "recorded_at": "2026-01-02T00:00:00",
        "gates": [{"metric": PACKED_GATE_METRIC,
                   "speedup": 4.75, "target": 3.5}],
    }
    path.write_text(json.dumps(old) + "\n" + json.dumps(new) + "\n")
    out = run(str(path), "--json")
    assert out.returncode == 0
    trends = json.loads(out.stdout)
    assert sorted(trends) == ["packed vs object", "packed vs object-reference"]
    assert [s["speedup"] for s in trends["packed vs object"]] == [1.65]
    assert [s["speedup"] for s in trends["packed vs object-reference"]] == [4.75]
