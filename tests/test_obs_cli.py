"""Observability through the CLI: profile, --json, and obs output files."""

import json

import pytest

from repro.cli import main
from repro.obs import validate_chrome_trace
from repro.obs.reports import validate_report
from repro.trace.binio import dump_trace_binary
from repro.trace.events import fork, wr
from repro.trace.textio import dump_trace


@pytest.fixture
def racy_trace(tmp_path):
    path = tmp_path / "racy.txt"
    dump_trace([fork(0, 1), wr(0, 1, 1), wr(1, 1, 2)], path)
    return path


class TestProfile:
    def test_profile_micro_emits_valid_artifacts(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        timeline = tmp_path / "timeline.jsonl"
        trace = tmp_path / "profile.trace.json"
        assert main(
            [
                "profile", "micro", "--scale", "0.5", "--rate", "50",
                "--metrics-out", str(metrics),
                "--timeline-out", str(timeline),
                "--trace-out", str(trace),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "events" in out and "probes" in out

        doc = json.loads(trace.read_text())
        assert validate_chrome_trace(doc) == []
        counters = {e["name"] for e in doc["traceEvents"] if e["ph"] == "C"}
        assert len(counters) >= 3
        assert any(
            e.get("cat") == "sampling"
            for e in doc["traceEvents"]
            if e["ph"] == "X"
        )

        snap = json.loads(metrics.read_text())
        assert snap["counters"]["events"] > 0
        for line in timeline.read_text().splitlines():
            assert "vt" in json.loads(line)

    def test_profile_is_deterministic(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            metrics = tmp_path / f"{name}.json"
            timeline = tmp_path / f"{name}.jsonl"
            assert main(
                [
                    "profile", "micro", "--scale", "0.5", "--seed", "3",
                    "--metrics-out", str(metrics),
                    "--timeline-out", str(timeline),
                    "--trace-out", str(tmp_path / f"{name}.trace.json"),
                ]
            ) == 0
            outs.append((metrics.read_bytes(), timeline.read_bytes()))
        assert outs[0] == outs[1]

    def test_profile_rejects_rate_for_always_on_detectors(self):
        assert main(
            ["profile", "micro", "--detector", "fasttrack", "--rate", "5",
             "--metrics-out", "/dev/null"]
        ) == 2


class TestAnalyzeJson:
    def test_json_document_shape(self, racy_trace, capsys):
        assert main(
            ["analyze", str(racy_trace), "--detector", "fasttrack", "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "analyze"
        assert doc["detector"] == "fasttrack"
        assert doc["events"] == 3
        assert len(doc["races"]) == 1
        assert doc["races"][0]["kind"] == "ww"
        assert doc["distinct_races"] == [[1, 2]]
        assert "counters" in doc and "metrics" in doc and "perf" in doc

    def test_json_scalar_and_batch_agree(self, racy_trace, capsys):
        main(["analyze", str(racy_trace), "--json"])
        scalar = json.loads(capsys.readouterr().out)
        main(["analyze", str(racy_trace), "--batch", "--json"])
        batched = json.loads(capsys.readouterr().out)
        assert scalar["races"] == batched["races"]
        assert scalar["events"] == batched["events"]

    def test_obs_outputs_written(self, racy_trace, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        trace_out = tmp_path / "p.json"
        assert main(
            [
                "analyze", str(racy_trace), "--batch",
                "--metrics-out", str(metrics),
                "--trace-out", str(trace_out),
            ]
        ) == 0
        assert json.loads(metrics.read_text())["counters"]["events"] == 3
        assert validate_chrome_trace(json.loads(trace_out.read_text())) == []


@pytest.mark.parametrize("dispatch", [[], ["--batch"]], ids=["scalar", "batch"])
def test_timeline_ends_with_one_row_at_final_vt(dispatch, tmp_path):
    # 3 x 4096 events: the last cadence probe falls on the final vt, and
    # a binary trace is one batch, so finalize must not probe again
    path = tmp_path / "t.pacr"
    dump_trace_binary(
        [fork(0, 1)] + [wr(i % 2, i % 7, i % 5) for i in range(3 * 4096 - 1)],
        path,
    )
    timeline = tmp_path / "timeline.jsonl"
    assert main(["analyze", str(path), "--timeline-out", str(timeline),
                 *dispatch]) == 0
    vts = [json.loads(line)["vt"] for line in timeline.read_text().splitlines()]
    assert vts[-1] == 3 * 4096
    assert vts == sorted(set(vts))


class TestDetectObs:
    def test_detect_writes_obs_outputs(self, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        timeline = tmp_path / "t.jsonl"
        assert main(
            [
                "detect", "micro", "--detector", "fasttrack", "--scale", "0.5",
                "--metrics-out", str(metrics),
                "--timeline-out", str(timeline),
            ]
        ) == 0
        snap = json.loads(metrics.read_text())
        assert snap["counters"]["events"] > 0
        assert snap["counters"]["gc_count"] > 0
        assert timeline.read_text().strip()


class TestLiveRaceReports:
    """``detect`` and ``profile`` reports carry the evidence an offline
    ``analyze`` of the same run does: flight-recorder context and a
    witness for every race, with the same verdicts."""

    @staticmethod
    def _report(tmp_path, name, argv):
        path = tmp_path / f"{name}.report.json"
        assert main(argv + ["--report-out", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert validate_report(doc) == []
        assert doc["races"]
        return doc

    @staticmethod
    def _verdicts(doc):
        return {
            (r["first_site"], r["second_site"]): r["witness"]["verdict"]
            for r in doc["races"]
        }

    @pytest.mark.parametrize("command", ["detect", "profile"])
    def test_live_report_matches_offline_analyze(self, command, tmp_path, capsys):
        sinks = [
            "--metrics-out", str(tmp_path / "m.json"),
            "--timeline-out", str(tmp_path / "t.jsonl"),
            "--trace-out", str(tmp_path / "p.trace.json"),
        ]
        live = self._report(
            tmp_path, command,
            [command, "micro", "--seed", "0", "--detector", "fasttrack", *sinks],
        )
        for race in live["races"]:
            assert race["context"] is not None
            assert race["witness"] is not None
        trace = tmp_path / "micro.pacr"
        assert main(["record", "micro", str(trace), "--seed", "0",
                     "--format", "binary"]) == 0
        offline = self._report(
            tmp_path, "analyze",
            ["analyze", str(trace), "--detector", "fasttrack"],
        )
        assert self._verdicts(live) == self._verdicts(offline)
        assert "sync-gap" in self._verdicts(live).values()

    def test_pacer_witnesses_name_sampling_periods(self, tmp_path, capsys):
        doc = self._report(
            tmp_path, "pacer",
            ["detect", "micro", "--seed", "0", "--detector", "pacer",
             "--rate", "25"],
        )
        for race in doc["races"]:
            assert race["witness"]["sampling"] is not None


class TestMatrixJson:
    def _run(self, tmp_path, jobs, tag):
        metrics = tmp_path / f"m{tag}.json"
        assert main(
            [
                "matrix", "--workloads", "micro",
                "--detectors", "fasttrack", "pacer",
                "--rates", "10", "--seeds", "2", "--scale", "0.4",
                "--jobs", str(jobs),
                "--metrics-out", str(metrics),
            ]
        ) == 0
        return metrics.read_bytes()

    def test_metrics_out_identical_across_jobs(self, tmp_path, capsys):
        assert self._run(tmp_path, 1, "a") == self._run(tmp_path, 2, "b")

    def test_json_cells(self, tmp_path, capsys):
        assert main(
            [
                "matrix", "--workloads", "micro", "--detectors", "fasttrack",
                "--seeds", "2", "--scale", "0.4", "--json",
            ]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "matrix"
        (cell,) = doc["cells"]
        assert cell["workload"] == "micro"
        assert cell["detector"] == "fasttrack"
        assert cell["rate"] is None
        assert cell["events"] > 0
        assert isinstance(cell["races"], int)
        assert "metrics" in cell and "counters" in cell and "perf" in cell

    def test_matrix_trace_out_validates(self, tmp_path, capsys):
        trace = tmp_path / "matrix.trace.json"
        assert main(
            [
                "matrix", "--workloads", "micro", "--detectors", "fasttrack",
                "--seeds", "2", "--scale", "0.4", "--trace-out", str(trace),
            ]
        ) == 0
        doc = json.loads(trace.read_text())
        assert validate_chrome_trace(doc) == []
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(spans) == 2  # one per trial
