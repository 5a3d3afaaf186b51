"""Tests of the end-to-end benchmark harness: ``pytest benchmarks/e2e``.

Runs every workload at ``--smoke`` size (inputs 1/16 of full size, two
reps), so the whole module takes well under a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for _path in (str(ROOT / "src"), str(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.obs import validate_chrome_trace  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmarks/e2e/run.py"), *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    proc = _run("--smoke", "--trace", "1", "--json", str(out))
    assert proc.returncode == 0, proc.stderr
    return proc, out


def test_every_metric_is_emitted_with_its_unit(smoke):
    proc, out = smoke
    lines = proc.stdout.splitlines()
    printed = {}
    for line in lines[:-1]:
        workload, metric, value, unit = line.split(" ")
        printed[(workload, metric)] = (float(value), unit)
    for w in SPEC["workloads"]:
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            value, unit = printed[(w["name"], m["name"])]
            assert unit == m["unit"]
            assert math.isfinite(value)
        assert printed[(w["name"], "failed_frac")][0] == 0
        doc = json.loads((out / f"{w['name']}.seed0.json").read_text())
        for m in SPEC["end_to_end"]:
            assert doc["metrics"][m["name"]] > 0
        trace = json.loads((out / f"{w['name']}.seed0.trace.json").read_text())
        assert trace["traceEvents"] and not validate_chrome_trace(trace)
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= len(SPEC["workloads"])
    assert len(result["metrics"]) == len(SPEC["workloads"]) * len(SPEC["per_layer"])


def test_tampered_reference_fails_the_run(monkeypatch, tmp_path, capsys):
    real = workloads.reference

    def one_race_dropped(w, path):
        doc = real(w, path)
        assert doc["races"], "the smoke input must have a race to drop"
        doc["races"] = doc["races"][1:]
        return doc

    monkeypatch.setattr(workloads, "reference", one_race_dropped)
    code = run.main(["--smoke", "--workload", "analyze-fasttrack",
                     "--json", str(tmp_path)])
    assert code != 0
    doc = json.loads((tmp_path / "analyze-fasttrack.seed0.json").read_text())
    assert doc["failed_frac"] > 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"] is False


def test_compare_reports_no_change_for_identical_runs(smoke, capsys):
    _, out = smoke
    assert compare.main([str(out), str(out)]) == 0
    rows = [r for r in capsys.readouterr().out.splitlines()
            if not r.startswith("#")]
    assert len(rows) == len(SPEC["workloads"]) * len(SPEC["end_to_end"])
    assert all(": no change;" in r for r in rows)


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks/e2e",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = _run("--workload", "analyze-pacer-r1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_layer_times_share_concurrent_moments(tmp_path):
    tracer = Tracer(tmp_path)
    # thread 1: a [0, 100) holding child b [20, 60); thread 2: c [40, 80);
    # w waits on thread 3 over [0, 120)
    tracer.spans = [
        ["a", -1, 0, 100, 1, 1], ["b", 0, 20, 60, 1, 1],
        ["c", -1, 40, 80, 1, 2], ["w", -1, 0, 120, 1, 3],
    ]
    times = {k: v * 1e9 for k, v in tracer.layer_times(waits=("w",)).items()}
    assert times == pytest.approx({"a": 20 + 10 + 20, "b": 20 + 10,
                                   "c": 10 + 10, "w": 20})
    one_thread = tracer.layer_times(exclude=("c", "w"))
    assert one_thread["a"] * 1e9 == pytest.approx(60)
    assert one_thread["b"] * 1e9 == pytest.approx(40)
