"""Command line front end: run experiments, dump exact references, self-test.

Subcommands:
  run <config>      execute an experiment described by a JSON config file
  oracle <config>   write only the exact winning region and reach table
  check             fast built-in self-test battery

Without a config file, `run` and `oracle` use the built-in presets; pass
--paper-scale for the large one. --seed, --reps, and --out override the
corresponding config fields, and the SMDPSYNTH_OUT environment variable
overrides the output directory when --out is absent.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .automata import determinize_kcba
from .errors import ConfigError, SmdpsynthError
from .experiment import (
    ExperimentConfig, build_pipeline, desk_config, paper_config,
    run_experiment,
)
from .ltl import parse_ltl
from .product import exact_max_reach_probability, exact_winning_region
from .risk import RiskModel, extract_pi_win, risk_value_iteration
from .smdp import Exponential, Smdp
from .tableau import ltl_to_cba
from .winning import LearnerConfig, run_algorithm1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smdpsynth",
        description="Learn and synthesize dwell-aware safe policies.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (("run", "run a full experiment"),
                            ("oracle", "write the exact references only")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("config", nargs="?", default=None,
                         help="JSON config file (default: built-in preset)")
        cmd.add_argument("--paper-scale", action="store_true",
                         help="use the large built-in preset")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the master seed")
        cmd.add_argument("--reps", type=int, default=None,
                         help="override the repetition count")
        cmd.add_argument("--out", default=None,
                         help="override the output directory")

    sub.add_parser("check", help="run the built-in self-test battery")
    return parser


def _load_config(args) -> ExperimentConfig:
    if args.config is not None:
        if args.paper_scale:
            raise SystemExit("--paper-scale replaces the config file; "
                             "pass one or the other")
        try:
            with open(args.config) as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as e:
            raise ConfigError(
                f"cannot read config file {args.config!r}: {e}") from None
        if not isinstance(doc, dict):
            raise ConfigError(
                f"config file {args.config!r} does not hold a JSON object")
        cfg = ExperimentConfig.from_json_dict(doc)
    elif args.paper_scale:
        cfg = paper_config()
    else:
        cfg = desk_config()

    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.reps is not None:
        cfg = replace(cfg, repetitions=args.reps)
    out = args.out or os.environ.get("SMDPSYNTH_OUT")
    if out:
        cfg = replace(cfg, out_dir=out)
    return cfg


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    art = run_experiment(cfg)
    agg = art.summary["aggregate"]
    print(f"wrote {sorted(art.files)} to {art.out_dir}")
    for key in sorted(agg):
        print(f"  {key}: {agg[key]}")
    return 0


def _cmd_oracle(args) -> int:
    cfg = _load_config(args)
    _, p = build_pipeline(cfg)
    w, w_p = exact_winning_region(p)
    v = exact_max_reach_probability(p, w)
    doc = {
        "n_product_states": p.n_states,
        "initial": p.initial,
        "w": sorted(w),
        "w_p": sorted([i, a] for i, a in w_p),
        "reach": {str(i): float(v[i]) for i in range(p.n_states)},
        "reach_at_initial": float(v[p.initial]),
    }
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, "oracle.json")
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    print(f"wrote {path}: |W| = {len(w)}, |W_p| = {len(w_p)}, "
          f"reach at initial = {doc['reach_at_initial']:.6f}")
    return 0


def _expect(ok, what):
    """Fail a check with an explicit raise, so the battery also tests
    under `python -O`, which strips `assert` statements."""
    if not ok:
        raise AssertionError(what)


def _check_monitor_structure():
    ap = ("a", "b", "c")
    aut = ltl_to_cba(parse_ltl("G F a & G F b & G !c"), ap=ap)
    for k in (0, 1, 2):
        d = determinize_kcba(aut, k)
        n_letters = 2 ** len(ap)
        for row in d.delta:
            _expect(len(row) == n_letters,
                    f"K={k}: a row has {len(row)} letters, not {n_letters}")
            _expect(all(0 <= t < d.n_states for t in row),
                    f"K={k}: a transition leaves the state range")
        _expect(d.sink is not None, f"K={k}: no sink")
        _expect(d.accepting == frozenset([d.sink]),
                f"K={k}: accepting set is not the sink")
        _expect(all(d.delta[d.sink][s] == d.sink for s in range(n_letters)),
                f"K={k}: the sink is not absorbing")


def _check_lasso_agreement():
    from .automata import OmegaAutomaton, lasso_accepted_kcba

    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        n_letters = 2
        rows = [[tuple(np.flatnonzero(rng.random(n) < 0.5))
                 for _ in range(n_letters)] for _ in range(n)]
        acc = {i for i in range(n) if rng.random() < 0.4}
        aut = OmegaAutomaton(("p",), rows, 0, acc)
        k = int(rng.integers(0, 3))
        d = determinize_kcba(aut, k)
        for stem_len in (0, 1, 2):
            for cycle_len in (1, 2):
                for word in range(n_letters ** (stem_len + cycle_len)):
                    letters = [(word // n_letters ** i) % n_letters
                               for i in range(stem_len + cycle_len)]
                    stem, cycle = letters[:stem_len], letters[stem_len:]
                    state = d.initial
                    for s in stem:
                        state = d.step(state, s)
                    safe = state not in d.accepting
                    for _ in range(d.n_states + 1):
                        for s in cycle:
                            state = d.step(state, s)
                            if state in d.accepting:
                                safe = False
                    _expect(safe == lasso_accepted_kcba(aut, k, stem, cycle),
                            f"monitor and lasso disagree on {stem}{cycle}")


def _check_learner_exact():
    trans = {(0, "a"): [(0, 1.0)], (0, "b"): [(1, 1.0)],
             (1, "a"): [(1, 1.0)]}
    dwell = {(0, "a", 0): Exponential(1.0), (0, "b", 1): Exponential(2.0),
             (1, "a", 1): Exponential(1.0)}
    m = Smdp(2, ("a", "b"), trans, dwell, 0, ("c",), [0, 1])
    from .product import build_product

    d = determinize_kcba(ltl_to_cba(parse_ltl("G !c"), ap=("c",)), 0)
    p = build_product(m, d)
    res = run_algorithm1(p, LearnerConfig(episode_budget=300, step_cap=20,
                                          patience=30, min_tries=5, seed=0))
    w, w_p = exact_winning_region(p)
    _expect(res.w == w and res.w_p == w_p, "learned region is not exact")
    _expect(res.monotone_violations == 0, "learned region grew")


def _check_risk_closed_form():
    rm = RiskModel(ids=[0], pair_ptr=[0, 1], row_ptr=[0, 1], succ=[0],
                   prob=[1.0], risk=[1.0], gamma_r=0.9)
    rq = risk_value_iteration(rm, tol=1e-12)
    _expect(abs(rq.q[0] - 10.0) < 1e-9, f"Q = {rq.q[0]!r}, not 10")
    _expect(extract_pi_win(rm, rq).tolist() == [0], "greedy policy is not a")


def _check_experiment_smoke():
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        cfg = desk_config(learn_episodes=2000, reach_episodes=2000,
                          paths=3, horizon=20, repetitions=1, seed=0,
                          out_dir=tmp)
        art = run_experiment(cfg)
        agg = art.summary["aggregate"]
        _expect(agg["monotone_violations"] == 0, "learned region grew")
        _expect(agg["w_exact_frac"] == 1.0, "learned region is not exact")
        _expect(all(os.path.exists(path) for path in art.files.values()),
                "bundle file missing")


def _cmd_check() -> int:
    checks = [
        ("monitor structure", _check_monitor_structure),
        ("bounded-word agreement", _check_lasso_agreement),
        ("learner exactness", _check_learner_exact),
        ("risk closed form", _check_risk_closed_form),
        ("experiment smoke run", _check_experiment_smoke),
    ]
    failed = 0
    for name, fn in checks:
        try:
            fn()
        except Exception as e:   # report all failures, then exit nonzero
            failed += 1
            print(f"FAIL {name}: {e!r}")
        else:
            print(f"ok   {name}")
    return 1 if failed else 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "oracle":
            return _cmd_oracle(args)
        return _cmd_check()
    except SmdpsynthError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
