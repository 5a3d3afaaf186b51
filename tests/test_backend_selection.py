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


def test_cli_and_server_import_without_numpy():
    """NumPy serves only the binio column reader, which imports it on
    first use: loading the CLI and the service front must not pull it in
    (every shard worker would pay its memory otherwise)."""
    code = (
        "import sys, repro.cli, repro.net.server; "
        "print('numpy' in sys.modules)"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True,
    )
    assert out.stdout.strip() == "False"

