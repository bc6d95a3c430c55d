"""The package surface that the benchmark in `bench/` calls.

The benchmark's own smoke tests (`python3 -m pytest bench`) run it end to
end; these check, in the package's suite, that every layer the tracer
wraps still resolves and that every workload still runs one smoke
operation, whose only tolerated failure is paper-learn's known planning
defect. The benchmark's modules are loaded from their files, without
writing bytecode next to them.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}",
                                                  BENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_every_traced_layer_resolves():
    targets = load("tracer").TARGETS
    assert targets
    missing = [f"{module}.{attr}" for module, attr, _, _ in targets
               if not callable(getattr(importlib.import_module(module), attr,
                                       None))]
    assert missing == []


@pytest.mark.parametrize("name", ["desk", "paper-learn", "paper-oracle"])
def test_smoke_operation(name, tmp_path):
    """Set-up and one smoke operation of each workload: any error other
    than paper-learn's known planning defect fails the operation, and
    every check holds."""
    workloads = load("workloads")
    E = importlib.import_module("smdpsynth.experiment")
    work = workloads.WORKLOADS[name](str(tmp_path), smoke=True)
    work.setup(E)
    rec = work.op(E, 97)
    assert rec.checks and all(rec.checks.values())
    if rec.plan_failure is not None:
        assert name == "paper-learn"
        assert rec.plan_failure["type"] == "EmptyPredictiveRow"
        assert workloads.KNOWN_PLAN_DEFECT in rec.plan_failure["message"]
