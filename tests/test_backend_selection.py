"""Backend-selection errors.

``resolve_backend`` is the single funnel every layer goes through —
CLI flags, the ``REPRO_STATE_BACKEND`` environment variable, detector
constructors, net handshakes.  These tests pin its error surface:
unknown names — including the retired ``packed-np`` — fail with a
stable message naming the available backends.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.backend import BACKENDS, DEFAULT_BACKEND, resolve_backend
from repro.detectors import FastTrackDetector

#: names no backend answers to; ``packed-np`` was a NumPy backend that
#: has been removed and must now read as any other unknown name
UNKNOWN = ("slab-of-wasps", "packed-np")


def test_backend_universe_is_consistent():
    assert BACKENDS == ("object", "packed")
    assert DEFAULT_BACKEND in BACKENDS


def test_resolve_explicit_and_default():
    assert resolve_backend("object") == "object"
    assert resolve_backend("packed") == "packed"
    assert resolve_backend(None) == DEFAULT_BACKEND


def test_resolve_unknown_backend_names_choices():
    for bad in UNKNOWN:
        with pytest.raises(ValueError) as exc:
            resolve_backend(bad)
        msg = str(exc.value)
        assert f"unknown state backend {bad!r}" in msg
        assert str(BACKENDS) in msg


def test_environment_variable_is_honored(monkeypatch):
    monkeypatch.setenv("REPRO_STATE_BACKEND", "object")
    assert resolve_backend(None) == "object"
    # an explicit argument wins over the environment
    assert resolve_backend("packed") == "packed"
    # the empty string means "unset", not "backend named ''"
    monkeypatch.setenv("REPRO_STATE_BACKEND", "")
    assert resolve_backend(None) == DEFAULT_BACKEND


def test_environment_variable_unknown_value(monkeypatch):
    for bad in ("nope",) + UNKNOWN:
        monkeypatch.setenv("REPRO_STATE_BACKEND", bad)
        with pytest.raises(ValueError, match=f"unknown state backend '{bad}'"):
            resolve_backend(None)


def test_detector_constructor_rejects_unknown_backend():
    with pytest.raises(ValueError, match="unknown state backend"):
        FastTrackDetector(backend="bogus")


def test_cli_rejects_unknown_backend(capsys):
    from repro.cli import main

    for bad in ("bogus",) + UNKNOWN:
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--workload", "micro", "--state-backend", bad])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--state-backend" in err
        for name in BACKENDS:
            assert name in err


def test_cli_and_server_import_without_numpy(tmp_path):
    """No command imports NumPy: loading the CLI and the service front,
    and analyzing and verifying a binary trace, leave it out of
    ``sys.modules`` (every shard worker would pay its memory otherwise)."""
    code = (
        "import sys, repro.cli, repro.net.server\n"
        "from repro.trace.binio import dump_trace_binary\n"
        "from repro.trace.events import fork, wr\n"
        "path = sys.argv[1]\n"
        "dump_trace_binary([fork(0, 1), wr(0, 3, 1), wr(1, 3, 2)], path)\n"
        "codes = [repro.cli.main(argv + [path]) for argv in (\n"
        "    ['analyze'], ['analyze', '--batch', '--detector', 'pacer'],\n"
        "    ['verify-trace', '--validate'])]\n"
        "print(codes, 'numpy' in sys.modules)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "t.pacr")], env=env,
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.splitlines()[-1] == "[0, 0, 0] False"
