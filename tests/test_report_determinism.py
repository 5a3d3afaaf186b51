"""Race reports are byte-identical across execution strategies.

The report document is part of the deterministic result core: the same
trace must produce the same bytes whether dispatch is scalar or batched,
whether detector state lives in the object or the packed backend, and —
for matrix runs — however many worker processes fan the trials out.  The
single intentional exception is the top-level ``backend`` label, which
truthfully names the backend that ran; the backend axis normalizes that
one field and nothing else.
"""

import json

import pytest

from repro.analysis.parallel import expand_matrix, matrix_report, run_matrix
from repro.cli import main

#: (workload, seed, scale) cells; three seeded workloads per the issue
WORKLOADS = [
    ("micro", 3, 1.0),
    ("pseudojbb", 0, 0.15),
    ("xalan", 1, 0.1),
]


@pytest.fixture(scope="module", params=WORKLOADS, ids=lambda w: w[0])
def recorded(request, tmp_path_factory):
    workload, seed, scale = request.param
    path = tmp_path_factory.mktemp("traces") / f"{workload}.txt"
    assert main(
        ["record", workload, str(path), "--seed", str(seed), "--scale", str(scale)]
    ) == 0
    return path


def analyze_report(trace, out, *extra):
    assert main(
        ["analyze", str(trace), "--report-out", str(out), *extra]
    ) == 0
    return out.read_bytes()


class TestDispatchAxis:
    def test_scalar_vs_batched_byte_equal(self, recorded, tmp_path):
        scalar = analyze_report(recorded, tmp_path / "scalar.json")
        batched = analyze_report(recorded, tmp_path / "batched.json", "--batch")
        assert scalar == batched
        assert json.loads(scalar)["dynamic_races"] > 0

    def test_binary_column_reader_byte_equal(self, recorded, tmp_path):
        """``--batch`` on a binary trace reads columns and indexes
        them for the witnesses: still the scalar run's bytes."""
        binary = tmp_path / "trace.pacr"
        assert main(["convert", str(recorded), str(binary), "--format", "binary"]) == 0
        scalar = analyze_report(binary, tmp_path / "scalar.json")
        columns = analyze_report(binary, tmp_path / "columns.json", "--batch")
        assert scalar == columns


class TestBackendAxis:
    def test_object_vs_packed_byte_equal_modulo_label(self, recorded, tmp_path):
        obj = analyze_report(
            recorded, tmp_path / "object.json", "--state-backend", "object"
        )
        packed = analyze_report(
            recorded, tmp_path / "packed.json", "--state-backend", "packed"
        )
        obj_doc = json.loads(obj)
        packed_doc = json.loads(packed)
        assert obj_doc.pop("backend") == "object"
        assert packed_doc.pop("backend") == "packed"
        # with the label popped, every remaining byte must agree
        assert json.dumps(obj_doc, sort_keys=True) == json.dumps(
            packed_doc, sort_keys=True
        )


class TestJobsAxis:
    def test_matrix_report_independent_of_jobs(self):
        tasks = expand_matrix(
            workloads=[w for w, _, _ in WORKLOADS],
            detectors=["fasttrack"],
            rates=[None],
            seeds=range(2),
            scale=0.1,
        )
        serial = matrix_report(tasks, run_matrix(tasks, jobs=1))
        fanned = matrix_report(tasks, run_matrix(tasks, jobs=4))
        assert json.dumps(serial, sort_keys=True) == json.dumps(
            fanned, sort_keys=True
        )
        assert serial["dynamic_races"] > 0
