"""Smoke tests of the benchmark; run `python3 -m pytest bench` from the
repository root. Each runs the benchmark with `--smoke`, so a renamed layer
function, a broken wrapper or a lost metric shows in seconds."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = ROOT / ".bench_out" / "tests"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
from tracer import Tracer  # noqa: E402


def bench(root, *args):
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--seed", "3",
         "--seconds", "0", "--smoke", *args],
        cwd=root, capture_output=True, text=True, timeout=170)


def result(proc):
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    return doc


def test_spec_follows_the_format():
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert SPEC["paths"] == ["bench"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in SPEC["workloads"] + metrics]
    assert len(names) == len(set(names))
    assert all(name.match(n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(m["better"] in ("lower", "higher") for m in metrics)
    assert all(re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", m["unit"])
               for m in metrics)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])
    assert isinstance(SPEC["run_seconds"], int)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = bench(ROOT, "--workload", workload, "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = result(proc)
    assert doc["correct"] and doc["attempted"] >= 1 and doc["failed"] == 0
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in doc["metrics"].items()} \
        == {m["name"]: m["unit"] for m in spec}
    if trace == "1":
        assert doc["metrics"]["trace.missing"]["value"] == 0
    else:
        assert all(m["value"] > 0 for m in doc["metrics"].values())
    for name, m in doc["metrics"].items():
        assert re.search(rf"^  {re.escape(name)} = \S+ {re.escape(m['unit'])}$",
                         proc.stdout, re.M)


def test_paper_learn_keeps_the_planning_defect_visible():
    proc = bench(ROOT, "--workload", "paper-learn")
    assert "known defect: planning failed" in proc.stdout
    assert re.search(r"^  failed_frac = 1 frac$", proc.stdout, re.M)


def test_all_workloads_in_one_command():
    proc = bench(ROOT, "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = result(proc)
    assert doc["correct"]
    assert {k.split("/")[0] for k in doc["metrics"]} == set(WORKLOADS)


def _copy_checkout(name, with_src):
    dest = SCRATCH / name
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    ignore = shutil.ignore_patterns("__pycache__")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, dest / path, ignore=ignore)
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    return dest


def test_fails_without_the_package():
    root = _copy_checkout("bare", with_src=False)
    t0 = time.monotonic()
    proc = bench(root, "--workload", WORKLOADS[0])
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert time.monotonic() - t0 < 60


def test_failed_check_exits_nonzero():
    root = _copy_checkout("mutant", with_src=True)
    src = root / "src" / "smdpsynth" / "experiment.py"
    text = src.read_text()
    assert '"vi_residual": rq.residual,' in text
    src.write_text(text.replace('"vi_residual": rq.residual,',
                                '"vi_residual": 1.0,', 1))
    proc = bench(root, "--workload", "paper-oracle")
    assert proc.returncode == 1
    assert result(proc)["correct"] is False
    assert "check vi_residual < tol: FAIL" in proc.stdout


def test_tracer_reports_missing_targets():
    tracer = Tracer()
    with tracer.installed([("json", "no_such_layer", "x", None),
                           ("no_such_module", "f", "y", None)]):
        pass
    assert tracer.missing == ["json.no_such_layer", "no_such_module.f"]


def test_tracer_self_time_and_scoped_counts(monkeypatch):
    mod = types.ModuleType("fake_layers")

    def inner(n):
        time.sleep(0.01)
        return n

    def outer(n):
        time.sleep(0.01)
        return mod.inner(n) + 1

    mod.inner, mod.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fake_layers", mod)
    tracer = Tracer()
    targets = [("fake_layers", "inner", "layer.inner",
                lambda r, a, k: {"inner.n": r}),
               ("fake_layers", "outer", "layer.outer", None)]
    with tracer.scope("op") as scope, tracer.installed(targets):
        assert mod.outer(4) == 5
    assert mod.outer is outer and mod.inner is inner

    tot = tracer.scope_totals(scope)
    calls, incl, own = tot["layer.outer"]
    assert calls == 1 and incl >= 0.02
    assert own == pytest.approx(incl - tot["layer.inner"][1])
    assert tot["bench.op"][0] == 1
    assert tracer.scope_counts(scope) == {"inner.n": 4}
