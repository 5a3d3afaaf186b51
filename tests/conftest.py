"""Pytest configuration: make tests/ importable for shared helpers, and
fixtures the net suites share."""

import shutil
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def sock_dir():
    """A fresh directory whose path is short enough for a Unix socket
    (``sockaddr_un`` holds about 100 bytes, which ``tmp_path`` can
    exceed), removed at teardown."""
    path = tempfile.mkdtemp(prefix="repro-net-")
    yield path
    shutil.rmtree(path, ignore_errors=True)
