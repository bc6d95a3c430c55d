"""The package's runtime dependencies are what its modules import: the
third-party top-level names imported anywhere in `src/smdpsynth` equal the
`[project].dependencies` of `pyproject.toml`. Test-only packages (SciPy
for the reference oracles, pytest) belong in the `test` extra."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def imported_top_level(path):
    """Top-level names of the absolute imports in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_third_party_imports_equal_runtime_dependencies():
    src = ROOT / "src" / "smdpsynth"
    imported = set().union(*map(imported_top_level, src.rglob("*.py")))
    third_party = imported - set(sys.stdlib_module_names) - {"smdpsynth"}
    with open(ROOT / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", d).group().lower()
                for d in project["dependencies"]}
    assert third_party == declared
    assert "scipy" in {re.match(r"[A-Za-z0-9_.-]+", d).group().lower()
                       for d in project["optional-dependencies"]["test"]}
