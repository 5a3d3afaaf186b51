"""The ``python -m repro`` command-line interface."""

import json
import sys
from pathlib import Path

import pytest

from repro.cli import DETECTORS, main
from repro.trace.binio import load_trace_binary
from repro.trace.textio import dump_trace, load_trace
from repro.trace.events import fork, wr


class TestWorkloadsCommand:
    def test_lists_all(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("eclipse", "hsqldb", "xalan", "pseudojbb"):
            assert name in out


class TestRecordAnalyze:
    def test_record_then_analyze(self, tmp_path, capsys):
        path = tmp_path / "trace.txt"
        assert main(["record", "pseudojbb", str(path), "--scale", "0.15"]) == 0
        assert path.exists()
        assert main(["analyze", str(path), "--detector", "fasttrack"]) == 0
        out = capsys.readouterr().out
        assert "race reports" in out

    def test_record_binary(self, tmp_path):
        path = tmp_path / "trace.bin"
        assert main(
            ["record", "xalan", str(path), "--scale", "0.1", "--format", "binary"]
        ) == 0
        assert load_trace_binary(path).n_accesses > 0

    def test_analyze_autodetects_binary(self, tmp_path, capsys):
        path = tmp_path / "t.pacr"
        main(["record", "pseudojbb", str(path), "--scale", "0.15", "--format", "binary"])
        assert main(["analyze", str(path)]) == 0

    def test_batch_analyze_reads_the_file_once(
        self, tmp_path, capsys, monkeypatch
    ):
        # the format sniff reads four bytes and the column reader the
        # file's bytes, once
        path = tmp_path / "t.pacr"
        main(["record", "pseudojbb", str(path), "--scale", "0.15", "--format", "binary"])
        reads = []
        read_bytes = Path.read_bytes

        def counted(self):
            reads.append(self)
            return read_bytes(self)

        monkeypatch.setattr(Path, "read_bytes", counted)
        assert main(["analyze", str(path), "--batch"]) == 0
        assert "race reports" in capsys.readouterr().out
        assert reads == [path]

    def test_fail_on_race_exit_code(self, tmp_path):
        path = tmp_path / "racy.txt"
        dump_trace([fork(0, 1), wr(0, 1, 1), wr(1, 1, 2)], path)
        assert main(["analyze", str(path), "--fail-on-race"]) == 1
        assert main(["analyze", str(path)]) == 0

    @pytest.mark.parametrize("detector", sorted(DETECTORS))
    def test_every_detector_runs(self, detector, tmp_path, capsys):
        path = tmp_path / "t.txt"
        dump_trace([fork(0, 1), wr(0, 1, 1), wr(1, 1, 2)], path)
        assert main(["analyze", str(path), "--detector", detector]) == 0


class TestOracle:
    def test_oracle_summary(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        dump_trace([fork(0, 1), wr(0, 1, 1), wr(1, 1, 2)], path)
        assert main(["oracle", str(path)]) == 0
        out = capsys.readouterr().out
        assert "1 racing pairs" in out


class TestDetect:
    def test_pacer_with_rate(self, capsys):
        assert main(
            ["detect", "pseudojbb", "--rate", "50", "--scale", "0.15"]
        ) == 0
        out = capsys.readouterr().out
        assert "effective sampling rate" in out

    def test_rate_rejected_for_other_detectors(self, capsys):
        assert main(
            ["detect", "pseudojbb", "--detector", "fasttrack", "--rate", "5"]
        ) == 2

    def test_fasttrack_detect(self, capsys):
        assert main(
            ["detect", "pseudojbb", "--detector", "fasttrack", "--scale", "0.15"]
        ) == 0
        assert "race reports" in capsys.readouterr().out

    def test_pacer_samples_without_rate(self, tmp_path, capsys):
        # a live PACER run samples at the default rate, as profile and
        # coverage do; without sampling it could never report a race
        coverage = tmp_path / "c.json"
        assert main(
            ["detect", "micro", "--seed", "3", "--coverage-out", str(coverage)]
        ) == 0
        assert "effective sampling rate" in capsys.readouterr().out
        doc = json.loads(coverage.read_text())
        assert doc["nominal_rate"] == 0.1
        assert doc["periods"]["count"] > 0


#: each count flag below 1, where the command reads it
COUNT_FLAGS = [
    (["serve", "--credits", "0"], "--credits"),
    (["serve", "--shards", "0"], "--shards"),
    (["serve", "--max-sessions", "0"], "--max-sessions"),
    (["stream", "{trace}", "--address", "tcp://127.0.0.1:1", "--session", "s",
      "--chunk-size", "0"], "--chunk-size"),
    (["analyze", "{trace}", "--sample-every", "-5"], "--sample-every"),
    (["analyze", "{trace}", "--json", "--sample-every", "0"], "--sample-every"),
    (["explain", "{trace}", "--sample-every", "0"], "--sample-every"),
    (["detect", "micro", "--sample-every", "0"], "--sample-every"),
    (["profile", "micro", "--sample-every", "0"], "--sample-every"),
    (["explain", "micro", "--window", "0"], "--window"),
]


@pytest.mark.parametrize(
    "argv,flag", COUNT_FLAGS,
    ids=[f"{argv[0]} {flag} {argv[-1]}" for argv, flag in COUNT_FLAGS],
)
def test_count_flag_below_one_is_a_usage_error(argv, flag, tmp_path, capsys):
    path = tmp_path / "t.txt"
    dump_trace([fork(0, 1), wr(0, 1, 1), wr(1, 1, 2)], path)
    assert main([arg.format(trace=path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{flag} must be at least 1")
    assert captured.err.count("\n") == 1


#: each address flag given without its tcp:// or unix:// scheme
ADDRESS_FLAGS = [
    (["stream", "{trace}", "--session", "s", "--address", "127.0.0.1:9"],
     "--address"),
    (["report", "--address", "127.0.0.1:9"], "--address"),
    (["top", "--once", "--address", "127.0.0.1:9"], "--address"),
    (["serve", "--duration", "0.1", "--address", "127.0.0.1:9"], "--address"),
    (["chaos-proxy", "--duration", "0.1", "--upstream", "tcp://127.0.0.1:9",
      "--listen", "127.0.0.1:0"], "--listen"),
    (["chaos-proxy", "--duration", "0.1", "--upstream", "127.0.0.1:9"],
     "--upstream"),
    (["serve", "--duration", "0.5", "--http", "bogus:xx"], "--http"),
]


@pytest.mark.parametrize(
    "argv,flag", ADDRESS_FLAGS,
    ids=[f"{argv[0]} {flag}" for argv, flag in ADDRESS_FLAGS],
)
def test_malformed_address_is_a_usage_error(argv, flag, tmp_path, capsys):
    path = tmp_path / "t.txt"
    dump_trace([fork(0, 1), wr(0, 1, 1), wr(1, 1, 2)], path)
    assert main([arg.format(trace=path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{flag}: ")
    assert captured.err.count("\n") == 1


class _GoneAfterFirstWrite:
    """A stdout whose reader goes away after the first write."""

    def __init__(self):
        self.writes = 0

    def write(self, text):
        self.writes += 1
        if self.writes > 1:
            raise BrokenPipeError(32, "Broken pipe")
        return len(text)

    def flush(self):
        if self.writes > 1:
            raise BrokenPipeError(32, "Broken pipe")


#: commands that print before they write their artifacts
CLOSED_STDOUT_RUNS = {
    "analyze": ["analyze", "{trace}", "--batch", "--detector", "pacer",
                "--metrics-out", "{out}/m.json", "--coverage-out", "{out}/c.json"],
    "detect": ["detect", "micro", "--seed", "1", "--detector", "pacer",
               "--rate", "25", "--report-out", "{out}/r.json",
               "--metrics-out", "{out}/m2.json"],
}


@pytest.mark.parametrize("command", sorted(CLOSED_STDOUT_RUNS))
def test_closed_stdout_keeps_the_work(command, tmp_path, monkeypatch, capsys):
    # a closed stdout drops the command's text, not its exit code or
    # its artifacts, which match those of a run that printed everything;
    # None is the stdout of a process started with fd 1 closed
    trace = tmp_path / "t.pacr"
    assert main(["record", "micro", str(trace), "--seed", "1",
                 "--format", "binary"]) == 0
    stdouts = {"printed": sys.stdout, "closed": _GoneAfterFirstWrite(),
               "none": None}
    files = {}
    for name, stdout in stdouts.items():
        out = tmp_path / name
        out.mkdir()
        argv = [a.format(trace=trace, out=out)
                for a in CLOSED_STDOUT_RUNS[command]]
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(argv) == 0
        assert sys.stdout is stdout
        files[name] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert len(files["printed"]) == 2
    assert files["closed"] == files["printed"] == files["none"]
    assert capsys.readouterr().err == ""


class TestConvert:
    def test_text_to_binary_and_back(self, tmp_path, capsys):
        text = tmp_path / "t.txt"
        dump_trace([fork(0, 1), wr(0, 1, 1)], text)
        binary = tmp_path / "t.bin"
        assert main(["convert", str(text), str(binary), "--format", "binary"]) == 0
        back = tmp_path / "back.txt"
        assert main(["convert", str(binary), str(back), "--format", "text"]) == 0
        assert load_trace(back).events == load_trace(text).events


class TestVerifyTrace:
    def _record_binary(self, tmp_path, capsys):
        path = tmp_path / "t.pacr"
        assert main(["record", "micro", str(path), "--seed", "1",
                     "--scale", "0.4", "--format", "binary"]) == 0
        capsys.readouterr()  # drop record's own chatter
        return path

    def test_ok_binary(self, tmp_path, capsys):
        path = self._record_binary(tmp_path, capsys)
        assert main(["verify-trace", str(path), "--validate"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"OK {path}:")
        assert "v3" in out and "crc32" in out and "feasible" in out

    def test_ok_text(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        dump_trace([fork(0, 1), wr(1, 5, 9)], path)
        assert main(["verify-trace", str(path)]) == 0
        assert "2 events, text" in capsys.readouterr().out

    def test_corrupt_binary_fails(self, tmp_path, capsys):
        path = self._record_binary(tmp_path, capsys)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))
        assert main(["verify-trace", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"FAIL {path}:")

    def test_json_output(self, tmp_path, capsys):
        import json

        path = self._record_binary(tmp_path, capsys)
        assert main(["verify-trace", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["version"] == 3
        assert doc["checksummed"] is True
        assert doc["events"] > 0

    def test_json_failure(self, tmp_path, capsys):
        import json

        path = self._record_binary(tmp_path, capsys)
        path.write_bytes(path.read_bytes()[:-2])
        assert main(["verify-trace", str(path), "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is False and "error" in doc

    def test_missing_file(self, tmp_path, capsys):
        assert main(["verify-trace", str(tmp_path / "nope.pacr")]) == 1
        assert capsys.readouterr().err.startswith("FAIL ")


class TestMatrixRobustness:
    MATRIX = ["matrix", "--workloads", "micro", "--detectors", "fasttrack",
              "--seeds", "2", "--scale", "0.4"]

    def test_resume_requires_checkpoint(self, capsys):
        assert main(self.MATRIX + ["--resume"]) == 2
        assert "--resume requires --checkpoint" in capsys.readouterr().err

    def test_bad_fault_plan_rejected(self, capsys):
        assert main(self.MATRIX + ["--fault-plan", "zap@3"]) == 2
        assert "bad fault plan" in capsys.readouterr().err

    def test_checkpoint_then_resume_is_byte_identical(self, tmp_path, capsys):
        ck = tmp_path / "ck.jsonl"
        m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
        assert main(self.MATRIX + ["--checkpoint", str(ck),
                                   "--metrics-out", str(m1)]) == 0
        assert ck.exists()
        # resume of a finished journal reruns nothing, re-merges the same
        assert main(self.MATRIX + ["--checkpoint", str(ck), "--resume",
                                   "--metrics-out", str(m2)]) == 0
        assert "2 of 2 trial(s) already journaled" in capsys.readouterr().out
        assert m1.read_bytes() == m2.read_bytes()

    def test_resume_rejects_different_matrix(self, tmp_path, capsys):
        ck = tmp_path / "ck.jsonl"
        assert main(self.MATRIX + ["--checkpoint", str(ck)]) == 0
        other = list(self.MATRIX)
        other[other.index("2")] = "3"  # --seeds 3: a different campaign
        assert main(other + ["--checkpoint", str(ck), "--resume"]) == 2
        assert "different task matrix" in capsys.readouterr().err

    def test_poison_task_quarantined_not_fatal(self, tmp_path, capsys):
        import json

        qpath = tmp_path / "q.json"
        assert main(self.MATRIX + ["--fault-plan", "raise@0*inf",
                                   "--quarantine-out", str(qpath)]) == 0
        doc = json.loads(qpath.read_text())
        (entry,) = doc["quarantined"]
        assert entry["workload"] == "micro"
        assert entry["seed"] == 0
        out = capsys.readouterr().out
        assert "quarantined" in out

    def test_no_quarantine_makes_poison_fatal(self, capsys):
        assert main(self.MATRIX + ["--fault-plan", "raise@0*inf",
                                   "--no-quarantine"]) == 1
        err = capsys.readouterr().err
        assert "dropped 1 task(s)" in err
        assert "detector='fasttrack'" in err
