"""Checkpoint journal + deterministic resume.

The core claim: an interrupted matrix campaign, resumed from its
journal, produces merged metrics and a merged race report *byte
identical* to a single uninterrupted run — on either state backend.
Plus the journal's own integrity story: per-record CRCs, torn-tail
tolerance, and fingerprint binding to the exact task matrix.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.checkpoint import (
    CHECKPOINT_SCHEMA,
    CheckpointError,
    CheckpointJournal,
    CheckpointMismatch,
    matrix_fingerprint,
    stats_from_doc,
    stats_to_doc,
)
from repro.analysis.parallel import (
    expand_matrix,
    matrix_report,
    merge_matrix,
    run_trial_task,
)
from repro.analysis.supervisor import SupervisorConfig, run_supervised
from repro.cli import _write_matrix_metrics
from repro.obs.reports import write_report

SCALE = 0.25


def _tasks(backend=None):
    return expand_matrix(
        workloads=["micro"],
        detectors=["fasttrack", "pacer"],
        rates=[0.05],
        seeds=range(2),
        scale=SCALE,
        backend=backend,
    )


TASKS = _tasks()


@pytest.fixture(scope="module")
def clean_results():
    return [run_trial_task(task) for task in TASKS]


class TestStatsRoundTrip:
    def test_json_round_trip_is_exact(self, clean_results):
        for stats in clean_results:
            doc = json.loads(json.dumps(stats_to_doc(stats)))
            again = stats_from_doc(doc)
            assert again == stats
            assert again.race_sigs == stats.race_sigs
            assert again.distinct_keys == stats.distinct_keys
            assert again.counters == stats.counters
            assert again.metrics == stats.metrics
            assert again.effective_rate == stats.effective_rate
            assert again.perf == stats.perf

    def test_string_sites_survive(self, clean_results):
        """Live-monitor sites are file:line strings; tuples restore."""
        from dataclasses import replace

        stats = replace(
            clean_results[0],
            race_sigs=((5, 1, "obj.x", "ww", 0, "a.py:3", 1, "b.py:9"),),
            distinct_keys=(("a.py:3", "b.py:9"),),
        )
        again = stats_from_doc(json.loads(json.dumps(stats_to_doc(stats))))
        assert again.race_sigs == stats.race_sigs
        assert again.distinct_keys == stats.distinct_keys


class TestFingerprint:
    def test_sensitive_to_every_axis(self):
        base = matrix_fingerprint(TASKS)
        assert base == matrix_fingerprint(_tasks())
        assert base != matrix_fingerprint(TASKS[:-1])
        assert base != matrix_fingerprint(_tasks(backend="object"))
        other = expand_matrix(["micro"], ["fasttrack", "pacer"], [0.06],
                              range(2), scale=SCALE)
        assert base != matrix_fingerprint(other)


class TestJournal:
    def test_create_record_resume(self, tmp_path, clean_results):
        path = tmp_path / "ck.jsonl"
        journal = CheckpointJournal.create(path, TASKS)
        journal.record(0, clean_results[0])
        journal.record(2, clean_results[2])
        assert journal.remaining == len(TASKS) - 2

        again = CheckpointJournal.resume(path, TASKS)
        assert set(again.completed) == {0, 2}
        assert again.completed[0] == clean_results[0]
        assert again.completed[2] == clean_results[2]

    def test_header_schema_and_crc_on_every_line(self, tmp_path, clean_results):
        path = tmp_path / "ck.jsonl"
        journal = CheckpointJournal.create(path, TASKS)
        journal.record(1, clean_results[1])
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["schema"] == CHECKPOINT_SCHEMA
        assert header["tasks"] == len(TASKS)
        for line in lines:
            assert isinstance(json.loads(line)["crc"], int)

    def test_duplicate_record_is_idempotent(self, tmp_path, clean_results):
        path = tmp_path / "ck.jsonl"
        journal = CheckpointJournal.create(path, TASKS)
        journal.record(0, clean_results[0])
        journal.record(0, clean_results[0])
        assert len(path.read_text().splitlines()) == 2  # header + one record

    def test_torn_tail_tolerated(self, tmp_path, clean_results):
        """A half-written final line is the interrupted append; that
        trial simply reruns."""
        path = tmp_path / "ck.jsonl"
        journal = CheckpointJournal.create(path, TASKS)
        journal.record(0, clean_results[0])
        journal.record(1, clean_results[1])
        text = path.read_text()
        path.write_text(text[: len(text) // 2 * 2 - 40])  # shear the tail
        again = CheckpointJournal.resume(path, TASKS)
        assert set(again.completed) == {0}

    def test_mid_journal_corruption_rejected(self, tmp_path, clean_results):
        path = tmp_path / "ck.jsonl"
        journal = CheckpointJournal.create(path, TASKS)
        journal.record(0, clean_results[0])
        journal.record(1, clean_results[1])
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record["stats"]["events"] += 1  # damage without updating the CRC
        lines[1] = json.dumps(record, sort_keys=True, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="CRC"):
            CheckpointJournal.resume(path, TASKS)

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        CheckpointJournal.create(path, TASKS)
        other = expand_matrix(["micro"], ["fasttrack", "pacer"], [0.07],
                              range(2), scale=SCALE)
        with pytest.raises(CheckpointMismatch, match="different task matrix"):
            CheckpointJournal.resume(path, other)

    def test_out_of_range_index_rejected(self, tmp_path, clean_results):
        path = tmp_path / "ck.jsonl"
        journal = CheckpointJournal.create(path, TASKS)
        journal.record(0, clean_results[0])
        # a journal for the full matrix cannot resume a shrunken one:
        # the fingerprint covers every task, so it fails the match
        with pytest.raises(CheckpointMismatch, match="different task matrix"):
            CheckpointJournal.resume(path, TASKS[:1])

    def test_missing_file_is_checkpoint_error(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            CheckpointJournal.resume(tmp_path / "nope.jsonl", TASKS)


@pytest.mark.parametrize("backend", ["object", "packed"])
class TestDeterministicResume:
    """Interrupt at the halfway mark, resume, compare bytes."""

    def test_resumed_equals_uninterrupted(self, tmp_path, backend):
        tasks = _tasks(backend=backend)
        uninterrupted = [run_trial_task(task) for task in tasks]

        # "interrupted run": the journal holds the first half only —
        # exactly the on-disk state after a mid-campaign kill
        path = tmp_path / "ck.jsonl"
        journal = CheckpointJournal.create(path, tasks)
        half = len(tasks) // 2
        for index in range(half):
            journal.record(index, uninterrupted[index])

        resumed_journal = CheckpointJournal.resume(path, tasks)
        assert len(resumed_journal.completed) == half
        outcome = run_supervised(
            tasks,
            SupervisorConfig(jobs=2, task_timeout=30.0, backoff_base=0.0),
            completed=dict(resumed_journal.completed),
            on_result=resumed_journal.record,
        )
        assert outcome.results == uninterrupted
        # the journal now covers the full campaign and replays exactly
        assert set(CheckpointJournal.resume(path, tasks).completed) \
            == set(range(len(tasks)))

        # merged metrics: byte-for-byte
        merged_a = merge_matrix(tasks, uninterrupted)
        merged_b = merge_matrix(tasks, outcome.results)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        _write_matrix_metrics(a, merged_a)
        _write_matrix_metrics(b, merged_b)
        assert a.read_bytes() == b.read_bytes()

        # merged race report: byte-for-byte
        ra, rb = tmp_path / "a.report.json", tmp_path / "b.report.json"
        write_report(ra, matrix_report(tasks, uninterrupted))
        write_report(rb, matrix_report(tasks, outcome.results))
        assert ra.read_bytes() == rb.read_bytes()
