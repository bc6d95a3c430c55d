"""The three benchmark workloads: set-up, one operation, and its checks.

Each workload receives the freshly imported `smdpsynth.experiment` module
and calls the layers through its attributes, which are the same names the
pipeline resolves internally, so the traced run sees every call.

  desk          run_experiment(desk_config(...)): the CLI's default `run`
  paper-learn   paper preset: capped run_algorithm1, qlearn_transient, then
                the planning calls of experiment._run_rep in their order
  paper-oracle  paper preset: oracle_reference, then
                policy_reach_probability of the oracle's transient policy
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

# learner episode cap of paper-learn; far below convergence, so the
# unconverged-region planning defect stays in view
PAPER_LEARN_CAP = 100
VI_TOL = 1e-9          # risk_value_iteration's default stopping tolerance
REACH_TOL = 1e-6
# exact |W| and |W_p| of each preset's product
REGION_SIZES = {"paper": (2423, 6554), "desk": (42, 77)}

# planning on an unconverged region fails with this message (ROADMAP item
# 4); it is recorded as a planning failure, any other error fails the
# operation
KNOWN_PLAN_DEFECT = "has no predictive mass inside the region"
ESCAPE_RE = re.compile(r"renormalized (\S+) predictive mass escaping")
PAIR_RE = re.compile(r"pair \((\d+),(\w+)\)")

# quality metrics: deterministic for a fixed seed, so a speed change that
# moves one is a regression
QUALITY_UNITS = {
    "w_exact_frac": "frac", "ind_final_mean": "frac",
    "reach_gap_max_mean": "prob", "risk_gap_rel_max_mean": "frac",
    "policy_optimal_frac_mean": "frac", "reach_at_initial": "prob",
    "pi_tr_reach_gap_max": "prob",
}

# budgets of the fast smoke mode, which checks wiring, not speed
SMOKE = {
    "desk": dict(learn_episodes=3000, reach_episodes=300, paths=3,
                 horizon=20),
    "paper-learn": dict(learn_episodes=3, reach_episodes=50),
}


@dataclass
class OpRecord:
    """Timings, check results, quality and seeds of one operation, and the
    planning failure if the known defect showed."""

    seconds: float = 0.0     # CPU seconds of the whole operation
    wall: float = 0.0        # its wall-clock seconds
    parts: dict = field(default_factory=dict)      # stage -> CPU seconds
    checks: dict = field(default_factory=dict)     # check name -> bool
    quality: dict = field(default_factory=dict)
    seeds: dict = field(default_factory=dict)
    plan_failure: dict | None = None
    escaped_warnings: int = 0
    escaped_mass: float = 0.0


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _note_escapes(rec, caught):
    """Count the planner's renormalized-mass warnings instead of printing
    them; the mass is read back from each message (3 significant digits)."""
    for w in caught:
        m = ESCAPE_RE.search(str(w.message))
        if m:
            rec.escaped_warnings += 1
            rec.escaped_mass += float(m.group(1))


def _rep_seeds(master):
    """Learner, reach and top-up seeds of repetition 0, derived from the
    master seed exactly as run_experiment derives them."""
    st = np.random.SeedSequence(master).spawn(2)[0].generate_state(3)
    return int(st[0]), int(st[1]), int(st[2])


class Desk:
    name = "desk"

    def __init__(self, out_dir, smoke=False):
        self.out_dir = os.path.join(out_dir, "desk-bundle")
        self.overrides = SMOKE["desk"] if smoke else {}

    def setup(self, E):
        self.cfg = E.desk_config(workers=1, repetitions=1,
                                 out_dir=self.out_dir, **self.overrides)
        self.p = E.build_pipeline(self.cfg)[1]
        self.w_p = E.exact_winning_region(self.p)[1]

    def op(self, E, seed):
        rec = OpRecord()
        cfg = replace(self.cfg, seed=seed)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            w0, t0 = time.perf_counter(), time.process_time()
            art = E.run_experiment(cfg)
            rec.seconds = time.process_time() - t0
            rec.wall = time.perf_counter() - w0
        _note_escapes(rec, caught)
        rec.parts["run_s"] = rec.seconds
        summary, rep = art.summary, art.summary["repetitions"][0]
        with open(art.files["summary.json"]) as fh:
            on_disk = json.load(fh)
        agg = summary["aggregate"]
        rec.seeds = {"master": seed, "learn": rep["learn_seed"],
                     "reach": rep["reach_seed"]}
        rec.checks = {
            "monotone_violations == 0": agg["monotone_violations"] == 0,
            "learned W_p superset of exact W_p":
                {tuple(pr) for pr in rep["w_p"]} >= self.w_p,
            "vi_residual < tol": max(rep["vi_residual"],
                                     summary["oracle"]["vi_residual"]) < VI_TOL,
            "summary.json hashes match the bundle": all(
                _sha256(os.path.join(self.out_dir, name)) == digest
                for name, digest in on_disk["artifacts"].items()),
        }
        rec.quality = {k: agg[k] for k in (
            "w_exact_frac", "ind_final_mean", "reach_gap_max_mean",
            "risk_gap_rel_max_mean", "policy_optimal_frac_mean")}
        return rec


class PaperLearn:
    name = "paper-learn"

    def __init__(self, out_dir, smoke=False):
        self.overrides = SMOKE["paper-learn"] if smoke else {}

    def setup(self, E):
        self.cfg = E.paper_config(workers=1, **{
            "learn_episodes": PAPER_LEARN_CAP, **self.overrides})
        self.p = E.build_pipeline(self.cfg)[1]
        self.w_p = E.exact_winning_region(self.p)[1]

    def op(self, E, seed):
        rec = OpRecord()
        cfg, p = replace(self.cfg, seed=seed), self.p
        learn_seed, reach_seed, topup_seed = _rep_seeds(seed)
        rec.seeds = {"master": seed, "learn": learn_seed, "reach": reach_seed,
                     "topup": topup_seed}
        w0, t0 = time.perf_counter(), time.process_time()
        res = E.run_algorithm1(p, cfg.learner_config(learn_seed),
                               oracle_w_p=self.w_p)
        t1 = time.process_time()
        tq = E.qlearn_transient(p, res.w, cfg.reward_spec(),
                                cfg.schedule(reach_seed))
        pi_tr = E.extract_pi_tr(p, res.w, tq)
        t2 = time.process_time()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                rq = self._plan(E, cfg, res, pi_tr, topup_seed)
            except Exception as exc:
                if KNOWN_PLAN_DEFECT not in str(exc):
                    raise
                rq = None
                m = PAIR_RE.search(str(exc))
                rec.plan_failure = {"type": type(exc).__name__,
                                    "message": str(exc),
                                    "pair": [int(m.group(1)), m.group(2)]
                                    if m else None}
        t3 = time.process_time()
        rec.seconds, rec.wall = t3 - t0, time.perf_counter() - w0
        _note_escapes(rec, caught)
        rec.parts = {"learn_s": t1 - t0, "qlearn_s": t2 - t1}
        if rq is not None:
            rec.parts["plan_s"] = t3 - t2
        rec.checks = {
            "monotone_violations == 0": res.monotone_violations == 0,
            "learned W_p superset of exact W_p": res.w_p >= self.w_p,
        }
        if rq is not None:
            rec.checks["vi_residual < tol"] = rq.residual < VI_TOL
        rec.quality = {"ind_final_mean": float(res.progress[-1]["ind"])}
        return rec

    def _plan(self, E, cfg, res, pi_tr, topup_seed):
        """The planning calls of experiment._run_rep, in its order."""
        p = self.p
        tpost, dpost, store = (res.transition_posterior, res.dwell_posterior,
                               res.store)
        before = len(store)
        E.top_up_observations(p, res.w_p, store, cfg.min_observations,
                              np.random.default_rng(topup_seed))
        if len(store) != before:
            tpost, dpost = E.update_posteriors(
                store, sorted(res.w_p),
                pool=lambda pair: (p.states[pair[0]][0], pair[1]))
        rm = E.build_risk_model(p, res.w, res.w_p, tpost, dpost,
                                functional=E.parse_functional(cfg.functional),
                                gamma_r=cfg.gamma_r)
        rq = E.risk_value_iteration(rm)
        pi_win = E.extract_pi_win(rm, rq)
        E.combine_policy(p, res.w, pi_win, pi_tr)
        return rq


class PaperOracle:
    name = "paper-oracle"

    def __init__(self, out_dir, smoke=False):
        self.preset = "desk" if smoke else "paper"

    def setup(self, E):
        make = E.desk_config if self.preset == "desk" else E.paper_config
        self.cfg = make(workers=1)
        self.p = E.build_pipeline(self.cfg)[1]

    def op(self, E, seed):
        rec = OpRecord(seeds={"master": seed})
        p = self.p
        w0, t0 = time.perf_counter(), time.process_time()
        oracle = E.oracle_reference(p, E.parse_functional(self.cfg.functional),
                                    self.cfg.gamma_r)
        t1 = time.process_time()
        v = E.policy_reach_probability(p, oracle["pi_tr"], oracle["w"])
        t2 = time.process_time()
        rec.seconds, rec.wall = t2 - t0, time.perf_counter() - w0
        rec.parts = {"oracle_s": rec.seconds,
                     "oracle_reference_s": t1 - t0,
                     "policy_reach_s": t2 - t1}
        transient = [i for i in range(p.n_states) if i not in oracle["w"]]
        gap = float(np.max(np.abs(v[transient] - oracle["v_opt"][transient]),
                           initial=0.0))
        rec.checks = {
            "|W|, |W_p| exact": (len(oracle["w"]), len(oracle["w_p"]))
                == REGION_SIZES[self.preset],
            "vi_residual < tol": oracle["vi_residual"] < VI_TOL,
            "greedy pi_tr reach == v_opt": gap <= REACH_TOL,
        }
        rec.quality = {"reach_at_initial": float(oracle["v_opt"][p.initial]),
                       "pi_tr_reach_gap_max": gap}
        return rec


WORKLOADS = {w.name: w for w in (Desk, PaperLearn, PaperOracle)}
