"""Benchmark of the smdpsynth pipeline, run from the repository root.

    python3 bench/run.py --workload desk --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --seed 0 --seconds 30        # every workload
    python3 bench/run.py --workload desk --seconds 1 --smoke

One run imports the package from ./src, sets the workload up several times
(`setup_s` is the median), then repeats the workload's operation for
`--seconds` seconds, each operation on its own master seed derived from
`--seed`, and checks every operation's outputs. It prints every metric by
name with its unit; the last line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The end-to-end metrics of
BENCHMARK.json come from `--trace 0`. `--trace 1` alternates untraced and
traced operations on the same seeds and reports the per-layer metrics of
the traced ones, plus `trace.overhead_frac`. `--smoke` shrinks every
budget so that broken wiring shows in seconds.

Without `--workload`, each workload runs in a fresh process of its own, one
after the other. BLAS and OpenMP threads are pinned to 1 and no worker pool
is started. Bundles, result documents and spans go to ./.bench_out.
The exit status is 1 when a correctness check fails and 2 when ./src does
not hold the package.
"""

from __future__ import annotations

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:        # before NumPy loads its BLAS
    os.environ[_var] = "1"
sys.dont_write_bytecode = True  # leave the source tree as checked out

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    PAPER_LEARN_CAP, QUALITY_UNITS, SMOKE, WORKLOADS,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 9
SMOKE_SETUP_REPS = 3

# metric name -> unit, as BENCHMARK.json defines them
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# per-layer times are per operation, except for the layers that run in
# set-up (tableau, automata, product build): those are per set-up. A time
# `<layer>_s` is the inclusive duration of that layer's spans; any other
# name is a work count.
SETUP_METRICS = ("tableau.ltl_to_cba_s", "tableau.cba_states",
                 "automata.determinize_s", "automata.dkcba_states",
                 "product.build_s", "product.states", "product.pairs")
OP_SECONDS = ("bayes.refresh_s", "bayes.query_s", "product.sample_s",
              "reach.qlearn_s", "risk.vi_s", "risk.eval_s",
              "product.max_reach_s", "product.exact_winning_s",
              "product.policy_reach_s", "risk.build_model_s",
              "experiment.oracle_s", "experiment.topup_s",
              "experiment.export_s")
NO_SPANS = (0, 0.0, 0.0)      # calls, inclusive and self seconds
OP_COUNTS = ("bayes.pairs_folded", "bayes.rows_built", "winning.episodes",
             "winning.steps", "winning.observations", "winning.converged",
             "winning.w_p_final", "reach.updates", "risk.vi_iterations")


class SetupError(Exception):
    """The checkout does not hold the package the benchmark measures."""


def fresh_import():
    """Import the package from ./src anew, dropping any earlier copy."""
    for mod in [m for m in sys.modules
                if m == "smdpsynth" or m.startswith("smdpsynth.")]:
        del sys.modules[mod]
    return importlib.import_module("smdpsynth.experiment")


def environment(args, reps):
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "setup_reps": reps,
        "paper_learn_cap": SMOKE["paper-learn"]["learn_episodes"]
        if args.smoke else PAPER_LEARN_CAP,
    }


def layer_metrics(tracer, scope_id):
    """Per-layer values of one traced operation."""
    tot = tracer.scope_totals(scope_id)
    cnt = tracer.scope_counts(scope_id)
    m = {name: tot.get(name[:-2], NO_SPANS)[1] for name in OP_SECONDS}
    m.update({name: cnt.get(name, 0) for name in OP_COUNTS})
    m["bayes.refresh_calls"] = tot.get("bayes.refresh", NO_SPANS)[0]
    m["product.sample_calls"] = tot.get("product.sample", NO_SPANS)[0]
    m["winning.self_s"] = tot.get("winning", NO_SPANS)[2]
    m["experiment.self_s"] = tot.get("experiment.run", NO_SPANS)[2]
    episodes = m["winning.episodes"]
    m["winning.ms_per_episode"] = (1e3 * tot.get("winning", NO_SPANS)[1]
                                   / episodes if episodes else 0.0)
    m["winning.episodes_to_exact"] = cnt.get("winning.episodes_to_exact", -1)
    m["reach.updates_per_s"] = (m["reach.updates"] / m["reach.qlearn_s"]
                                if m["reach.qlearn_s"] else 0.0)
    return m


def setup_metrics(tracer, scope_id):
    tot = tracer.scope_totals(scope_id)
    cnt = tracer.scope_counts(scope_id)
    return {name: tot.get(name[:-2], NO_SPANS)[1] if name.endswith("_s")
            else cnt.get(name, 0) for name in SETUP_METRICS}


def median_of(rows):
    return {key: statistics.median(row[key] for row in rows)
            for key in rows[0]}


def run_workload(args):
    if not (SRC / "smdpsynth" / "__init__.py").is_file():
        raise SetupError(f"no package at {SRC / 'smdpsynth'}")
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](str(OUT), smoke=args.smoke)
    reps = SMOKE_SETUP_REPS if args.smoke else SETUP_REPS
    tracer = Tracer() if args.trace else None

    setup_s, setup_scopes = [], []
    for _ in range(reps):
        with tracer.scope("setup") if tracer else nullcontext() as sid:
            t0 = time.process_time()
            E = fresh_import()
            with tracer.installed() if tracer else nullcontext():
                wl.setup(E)
            setup_s.append(time.process_time() - t0)
        setup_scopes.append(sid)
    if not Path(E.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"imported {E.__file__}, not the package in {SRC}")

    failures = []

    def attempt(seed, out, traced=False):
        try:
            if traced:
                with tracer.scope("op") as sid, tracer.installed():
                    out.append(wl.op(E, seed))
                op_scopes.append(sid)
            else:
                out.append(wl.op(E, seed))
        except Exception as exc:
            failures.append({"seed": seed, "traced": traced,
                             "type": type(exc).__name__, "message": str(exc),
                             "traceback": traceback.format_exc()})
            return False
        return True

    # each operation gets its own master seed; a traced run repeats every
    # seed with the wrappers installed
    seeds = np.random.SeedSequence(args.seed).generate_state(256)
    records, traced_records, op_scopes = [], [], []
    t_start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - t_start < args.seconds:
        seed = int(seeds[k % len(seeds)])
        k += 1
        if attempt(seed, records) and tracer:
            attempt(seed, traced_records, traced=True)

    attempted = k
    failed = len({f["seed"] for f in failures})
    correct = bool(records) and all(
        ok for rec in records + traced_records for ok in rec.checks.values())
    plan_failed = sum(rec.plan_failure is not None for rec in records)
    doc = {
        "env": environment(args, reps),
        "ops": [{"seconds": r.seconds, "wall": r.wall, "seeds": r.seeds,
                 "parts": r.parts, "checks": r.checks, "quality": r.quality,
                 "plan_failure": r.plan_failure,
                 "escaped_warnings": r.escaped_warnings,
                 "escaped_mass": r.escaped_mass} for r in records],
        "failures": failures,
        "setup_s_all": setup_s,
        # the issue's failed_frac: failed operations, the known planning
        # failure of paper-learn included, over attempted ones
        "failed_frac": (failed + plan_failed) / attempted,
    }

    if not tracer:
        units = END_TO_END_UNITS
        metrics = {"setup_s": statistics.median(setup_s),
                   "peak_rss_mb": resource.getrusage(
                       resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        if records:
            metrics["op_s"] = statistics.median(r.seconds for r in records)
    else:
        units = PER_LAYER_UNITS
        metrics = median_of([setup_metrics(tracer, s) for s in setup_scopes])
        metrics["failed_frac"] = doc["failed_frac"]
        metrics["trace.missing"] = len(tracer.missing)
        doc["trace_missing"] = tracer.missing
        if traced_records:
            metrics.update(median_of([layer_metrics(tracer, s)
                                      for s in op_scopes]))
            metrics["risk.escaped_warnings"] = statistics.median(
                r.escaped_warnings for r in traced_records)
            metrics["risk.escaped_mass"] = statistics.median(
                r.escaped_mass for r in traced_records)
            metrics["trace.overhead_frac"] = (
                statistics.median(r.seconds for r in traced_records)
                / statistics.median(r.seconds for r in records) - 1.0)
        tracer.save(OUT / f"{args.workload}-seed{args.seed}.spans.npz")
    doc["metrics"] = {name: {"value": metrics[name], "unit": units[name]}
                      for name in units if name in metrics}
    correct = correct and len(doc["metrics"]) == len(units)
    with open(OUT / f"{args.workload}-trace{args.trace}-seed{args.seed}.json",
              "w") as fh:
        json.dump(doc, fh, indent=1, default=str)
    report(doc, records, traced_records, attempted, failed, failures)
    return {"correct": correct, "attempted": attempted,
            "failed": failed, "metrics": doc["metrics"]}


def report(doc, records, traced_records, attempted, failed, failures):
    """Human-readable lines: environment, metrics, stage times, quality,
    known defects and checks."""
    env = doc["env"]
    print(f"workload {env['workload']}: seed {env['seed']}, "
          f"{env['seconds']} s, trace {env['trace']}, smoke {env['smoke']}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"operations: {attempted} attempted, {failed} failed")
    print("seeds " + json.dumps([r.seeds for r in records]))
    for name, m in doc["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if records:
        print(f"  op_wall_s = {statistics.median(r.wall for r in records):.6g}"
              f" s (wall clock, median of {len(records)})")
    parts = sorted({key for r in records for key in r.parts})
    for key in parts:
        vals = [r.parts[key] for r in records if key in r.parts]
        print(f"  {key} = {statistics.median(vals):.6g} s "
              f"(median of {len(vals)})")
    if "plan_s" not in parts and any(r.plan_failure for r in records):
        print("  plan_s = n/a (no planning operation succeeded)")
    if "failed_frac" not in doc["metrics"]:
        print(f"  failed_frac = {doc['failed_frac']:.6g} frac")
    for key in sorted({key for r in records for key in r.quality}):
        vals = [r.quality[key] for r in records]
        print(f"  {key} = {float(np.mean(vals)):.6g} {QUALITY_UNITS[key]} "
              f"(mean of {len(vals)})")
    print(f"escaped-mass warnings: "
          f"{sum(r.escaped_warnings for r in records)} over "
          f"{len(records)} operations")
    for r in records:
        if r.plan_failure:
            f = r.plan_failure
            print(f"known defect: planning failed on seed "
                  f"{r.seeds['master']}: {f['type']} at pair {f['pair']}")
    for fail in failures:
        print(f"FAILED seed {fail['seed']}: {fail['type']}: "
              f"{fail['message']}")
    checked = records + traced_records
    for name in sorted({n for r in checked for n in r.checks}):
        oks = [r.checks[name] for r in checked if name in r.checks]
        print(f"check {name}: {'pass' if all(oks) else 'FAIL'} "
              f"({sum(oks)}/{len(oks)})")
    if doc.get("trace_missing"):
        print(f"trace: missing layer functions {doc['trace_missing']}")


def run_all(args):
    """Each workload in a fresh process of its own, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke
                                              else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
        if proc.returncode not in (0, 1) or not lines:
            merged["correct"] = False
            continue
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for key, m in res["metrics"].items():
            merged["metrics"][f"{name}/{key}"] = m
    print(json.dumps(merged))
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny budgets: checks wiring in seconds")
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_workload(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
