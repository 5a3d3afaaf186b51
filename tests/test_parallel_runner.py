"""Determinism regressions for the sharded parallel experiment runner.

The §5 accuracy methodology only makes sense if a trial is a pure
function of its :class:`TrialTask`: fanning the matrix across processes
must not change a single result.  These tests pin that from three
angles — recorded traces are byte-identical across runs of the same
seed, ``run_matrix`` output is invariant in the number of jobs and in
shard ordering, and per-trial seeding never goes through Python's
randomized builtin ``hash``.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.parallel import (
    TrialTask,
    default_jobs,
    expand_matrix,
    merge_matrix,
    run_matrix,
    run_trial_task,
    task_seed,
)
from repro.sim.scheduler import run_program
from repro.sim.workloads import WORKLOADS, build_program
from repro.trace.binio import dumps_binary

SCALE = 0.12  # keep trials small; determinism is scale-independent

TASKS = expand_matrix(
    workloads=["pseudojbb", "xalan"],
    detectors=["fasttrack", "pacer"],
    rates=[0.05, 0.25],
    seeds=range(3),
    scale=SCALE,
)


def _record_bytes(workload: str, seed: int) -> bytes:
    spec = WORKLOADS[workload].scaled(SCALE)
    trace = run_program(build_program(spec, trial_seed=seed), seed=seed)
    return dumps_binary(trace)


@pytest.mark.parametrize("workload", ["pseudojbb", "hsqldb"])
def test_same_seed_records_byte_identical_traces(workload):
    first = _record_bytes(workload, seed=5)
    second = _record_bytes(workload, seed=5)
    assert first == second
    assert first != _record_bytes(workload, seed=6)


def test_task_seed_is_stable_and_hash_free():
    """Seeds are CRC-derived: stable values, not PYTHONHASHSEED-dependent."""
    task = TrialTask("pseudojbb", "pacer", 0.05, 3, 0.5)
    assert task_seed(task) == task_seed(TrialTask("pseudojbb", "pacer", 0.05, 3, 0.5))
    # distinct cells get distinct seeds (the controller RNGs must differ)
    seeds = {task_seed(t) for t in TASKS}
    assert len(seeds) == len(TASKS)


def test_trial_task_is_pure():
    task = TrialTask("xalan", "pacer", 0.25, 1, SCALE)
    a = run_trial_task(task)
    random.seed(1234)  # global RNG state must be irrelevant
    b = run_trial_task(task)
    assert a == b
    assert a.race_sigs == b.race_sigs
    assert a.counters == b.counters


def test_run_matrix_output_independent_of_jobs():
    sequential = run_matrix(TASKS, jobs=1)
    fanned = run_matrix(TASKS, jobs=3)
    assert sequential == fanned
    # wall-clock perf differs between runs but is excluded from equality
    assert [s.race_sigs for s in sequential] == [s.race_sigs for s in fanned]
    assert [s.counters for s in sequential] == [s.counters for s in fanned]


def test_run_matrix_output_independent_of_task_order():
    forward = run_matrix(TASKS, jobs=2)
    shuffled = list(TASKS)
    random.Random(7).shuffle(shuffled)
    backward = run_matrix(shuffled, jobs=2)
    by_task_fwd = dict(zip(TASKS, forward))
    by_task_bwd = dict(zip(shuffled, backward))
    assert by_task_fwd == by_task_bwd


def test_merge_matrix_folds_seeds():
    results = run_matrix(TASKS, jobs=1)
    merged = merge_matrix(TASKS, results)
    keys = set(merged)
    assert ("pseudojbb", "fasttrack", None) in keys
    assert ("xalan", "pacer", 0.25) in keys
    cell = merged[("pseudojbb", "pacer", 0.05)]
    parts = [
        s for t, s in zip(TASKS, results)
        if (t.workload, t.detector, t.rate) == ("pseudojbb", "pacer", 0.05)
    ]
    assert cell.events == sum(p.events for p in parts)
    assert cell.races == sum(p.races for p in parts)
    assert cell.race_sigs == tuple(
        sig for p in parts for sig in p.race_sigs
    )
    assert cell.distinct_keys == tuple(
        sorted({k for p in parts for k in p.distinct_keys})
    )


def test_rate_rejected_for_non_pacer():
    with pytest.raises(ValueError):
        run_trial_task(TrialTask("xalan", "fasttrack", 0.5, 0, SCALE))


class TestDefaultJobs:
    def test_env_parsed(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "6")
        assert default_jobs() == 6

    def test_unset_means_sequential(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() == 1

    def test_nonpositive_clamped_silently(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_JOBS", "-3")
        assert default_jobs() == 1
        assert capsys.readouterr().err == ""

    def test_unparsable_value_warns_on_stderr(self, monkeypatch, capsys):
        """A typo'd REPRO_JOBS=8x must not silently serialise a campaign."""
        monkeypatch.setenv("REPRO_JOBS", "8x")
        assert default_jobs() == 1
        err = capsys.readouterr().err
        assert "REPRO_JOBS" in err
        assert "'8x'" in err
        assert "1 job" in err
