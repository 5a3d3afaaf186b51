"""Every ``path.py::name`` reference in docs/ALGORITHM_MAP.md resolves.

The map sends reviewers from each algorithm of the paper to the code
that transcribes it.  A rename or a deletion that forgets the map leaves
it pointing at nothing, so each reference is resolved here against the
named file's definitions, read with :mod:`ast` and never imported.
Paths under ``repro/`` are relative to ``src/``, the others to the
repository root.  ``a/b`` names two definitions in one file, and
``Cls.attr`` a definition inside a class.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MAP = ROOT / "docs" / "ALGORITHM_MAP.md"
REFERENCE = re.compile(r"`([\w/]+\.py)::([\w./]+)`")


def _references():
    text = MAP.read_text(encoding="utf-8")
    return sorted({m.groups() for m in REFERENCE.finditer(text)})


def _defined(body):
    """Names a module or class body defines, each with its own body."""
    names = {}
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names[node.name] = node.body
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names[target.id] = []
        elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name):
            names[node.target.id] = []
    return names


def test_map_has_references():
    assert len(_references()) >= 30


@pytest.mark.parametrize("path,names", _references(),
                         ids=lambda value: value)
def test_reference_resolves(path, names):
    source = (ROOT / "src" / path if path.startswith("repro/")
              else ROOT / path)
    assert source.is_file(), f"{path} does not exist"
    module = ast.parse(source.read_text(encoding="utf-8"))
    for name in names.split("/"):
        body = module.body
        for part in name.split("."):
            defined = _defined(body)
            assert part in defined, f"{path} defines no {name}"
            body = defined[part]
