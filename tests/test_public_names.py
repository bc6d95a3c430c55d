"""Every public name of the package has a reader outside the tests: each
non-module name that `smdpsynth/__init__.py` exports, and each public
function and method that a `def` in the package defines, appears as a
NAME token in the package's other modules, in `bench/` or in `demos/`.
The name a `def` or `class` statement defines does not count as a use."""

import inspect
import tokenize
from pathlib import Path

import smdpsynth

ROOT = Path(__file__).resolve().parents[1]


def used_names(paths):
    """The NAME tokens of the files, minus the name right after each `def`
    and `class` keyword."""
    names = set()
    for path in paths:
        with tokenize.open(path) as f:
            prev = None
            for tok in tokenize.generate_tokens(f.readline):
                if tok.type == tokenize.NAME and prev not in ("def", "class"):
                    names.add(tok.string)
                if tok.type not in (tokenize.NL, tokenize.COMMENT):
                    prev = tok.string
    return names


def defined_names(paths):
    """The public names that `def` statements in the files define, with
    the file each is first defined in."""
    names = {}
    for path in paths:
        with tokenize.open(path) as f:
            prev = None
            for tok in tokenize.generate_tokens(f.readline):
                if (tok.type == tokenize.NAME and prev == "def"
                        and not tok.string.startswith("_")):
                    names.setdefault(tok.string, path.name)
                if tok.type not in (tokenize.NL, tokenize.COMMENT):
                    prev = tok.string
    return names


SRC = sorted((ROOT / "src" / "smdpsynth").glob("*.py"))
READERS = ([f for f in SRC if f.name != "__init__.py"]
           + sorted((ROOT / "bench").glob("*.py"))
           + sorted((ROOT / "demos").glob("*.py")))


def test_every_export_has_a_reader_outside_the_tests():
    used = used_names(READERS)
    exported = [n for n, v in vars(smdpsynth).items()
                if not n.startswith("_") and not inspect.ismodule(v)]
    assert exported
    assert [n for n in exported if n not in used] == []


def test_every_public_function_and_method_has_a_reader_outside_the_tests():
    """A function or method that only the tests call belongs with them,
    in `tests/conftest.py` or `tests/oracles.py`."""
    used = used_names(READERS)
    defined = defined_names(SRC)
    assert len(defined) > 50
    assert sorted(f"{where}: {n}" for n, where in defined.items()
                  if n not in used) == []
