"""Every public name of the package has a reader outside the tests: each
non-module name that `smdpsynth/__init__.py` exports appears as a NAME
token in the package's other modules, in `bench/` or in `demos/`. The name
a `def` or `class` statement defines does not count as a use."""

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


def test_every_export_has_a_reader_outside_the_tests():
    src = ROOT / "src" / "smdpsynth"
    files = [f for f in src.glob("*.py") if f.name != "__init__.py"]
    files += sorted((ROOT / "bench").glob("*.py"))
    files += sorted((ROOT / "demos").glob("*.py"))
    used = used_names(files)
    exported = [n for n, v in vars(smdpsynth).items()
                if not n.startswith("_") and not inspect.ismodule(v)]
    assert exported
    assert [n for n in exported if n not in used] == []
