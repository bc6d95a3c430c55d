"""End-to-end driver: learn, plan, evaluate, and export one artifact bundle.

A run is described by a single ExperimentConfig. For every repetition it
executes the three phases (winning-region learning, transient Q-learning,
risk value iteration plus policy combination) on seeds derived from one
master seed, compares against exact references when the product is small
enough, and writes a deterministic bundle into the output directory:

  summary.json   metrics, config echo, and a hash manifest of the bundle
  policy.json    combined policy of the first repetition, with provenance
  indk.csv       per-episode mean of the winning-pair agreement ratio
  paths.jsonl    sample paths under the first repetition's policy
  progress.csv   raw per-episode traces (wall clock included, unhashed)

Everything except progress.csv is byte-identical across runs that share a
master seed.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from itertools import cycle, islice

import numpy as np

from .automata import determinize_kcba
from .bayes import MeanPlusSigma, Quantile, risk_of, update_posteriors
from .errors import ConfigError
from .ltl import parse_ltl
from .product import (
    _best_actions, build_product, exact_max_reach_probability,
    exact_winning_region, policy_reach_probability, sample_product_step,
)
from .reach import (
    QLearnSchedule, RewardDiscountSpec, extract_pi_tr, qlearn_transient,
)
from .risk import (
    build_risk_model, combine_policy, evaluate_policy_risk, extract_pi_win,
    risk_model_from_product, risk_value_iteration,
)
from .smdp import load_scenario
from .tableau import ltl_to_cba
from .winning import LearnerConfig, run_algorithm1

DESK_SCENARIO = {
    "grid": {"width": 4, "height": 4, "initial": [4, 4],
             "labels": {"a": [[1, 1]], "b": [[2, 1]], "c": [[2, 4]]}},
}

PAPER_SCENARIO = {
    "grid": {"width": 5, "height": 5, "initial": [5, 5],
             "labels": {"a": [[1, 3]], "b": [[5, 3]], "c": [[3, 4]]}},
    "dwell": {"map": "paper"},
}

RECURRENCE_FORMULA = "G F a & G F b & G !c"


@dataclass
class ExperimentConfig:
    """One experiment: scenario, objective, budgets, output location."""

    scenario: dict
    formula: str
    k: int = 5
    gamma: float = 0.9999            # transient-phase discount
    gamma_acc: float = 0.9           # discount inside the losing sink
    r_n: float = -1.0                # penalty level of the losing sink
    gamma_r: float = 0.9             # risk-phase discount
    posterior_period: int = 1        # episodes between posterior refreshes
    functional: dict | None = None   # risk functional document
    learn_episodes: int = 20_000
    learn_step_cap: int = 60
    patience: int = 250
    min_tries: int = 10
    reach_episodes: int = 16_000
    reach_step_cap: int = 400
    min_observations: int = 0        # observations over all pools
    paths: int = 100                 # sample paths to export
    horizon: int = 200               # decisions per sample path
    repetitions: int = 1
    seed: int = 0
    out_dir: str = "results"
    workers: int = 0                 # 0 = one process per repetition, capped
    # largest product granted exact references; their solves are sparse
    # (rows × successors), so the cap bounds oracle run time
    oracle_cap: int = 50_000

    def __post_init__(self):
        if self.functional is None:
            self.functional = {"kind": "mean_plus_sigma", "lam": 1.0}
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if self.k < 0:
            raise ConfigError("k must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0 <= self.gamma_r < 1:
            raise ConfigError(f"gamma_r must be in [0,1), got {self.gamma_r}")
        if min(self.min_observations, self.paths, self.horizon,
               self.workers, self.oracle_cap) < 0:
            raise ConfigError("counts and caps must be nonnegative")
        parse_functional(self.functional)
        self.learner_config(0)
        self.reward_spec()
        self.schedule(0)

    def learner_config(self, seed) -> LearnerConfig:
        return LearnerConfig(posterior_period=self.posterior_period,
                             episode_budget=self.learn_episodes,
                             step_cap=self.learn_step_cap,
                             patience=self.patience,
                             min_tries=self.min_tries, seed=seed)

    def reward_spec(self) -> RewardDiscountSpec:
        return RewardDiscountSpec(gamma=self.gamma, gamma_acc=self.gamma_acc,
                                  r_n=self.r_n)

    def schedule(self, seed) -> QLearnSchedule:
        return QLearnSchedule(episodes=self.reach_episodes,
                              step_cap=self.reach_step_cap, seed=seed)

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        extra = sorted(set(doc) - known)
        if extra:
            raise ConfigError(f"unknown config fields: {extra}")
        if "scenario" not in doc or "formula" not in doc:
            raise ConfigError("config needs 'scenario' and 'formula'")
        return cls(**doc)


def desk_config(**overrides) -> ExperimentConfig:
    """Small-grid default: 4x4, bound 5, budgets sized for a desk run."""
    base = dict(scenario=copy.deepcopy(DESK_SCENARIO),
                formula=RECURRENCE_FORMULA)
    base.update(overrides)
    return ExperimentConfig(**base)


def paper_config(**overrides) -> ExperimentConfig:
    """Large-grid preset: 5x5, bound 20, long budgets; minutes, not seconds."""
    base = dict(scenario=copy.deepcopy(PAPER_SCENARIO),
                formula=RECURRENCE_FORMULA, k=20,
                learn_episodes=12_000, learn_step_cap=200, patience=500,
                reach_episodes=5_000, posterior_period=1)
    base.update(overrides)
    return ExperimentConfig(**base)


def parse_functional(doc: dict):
    kind = doc.get("kind")
    if kind == "mean_plus_sigma":
        return MeanPlusSigma(float(doc.get("lam", 1.0)))
    if kind == "quantile":
        return Quantile(float(doc.get("alpha", 0.5)))
    raise ConfigError(f"unknown risk functional kind {kind!r}")


def build_pipeline(cfg: ExperimentConfig):
    """Scenario model and its product with the bound-k safety monitor."""
    model = load_scenario(cfg.scenario)
    aut = ltl_to_cba(parse_ltl(cfg.formula), ap=model.ap)
    return model, build_product(model, determinize_kcba(aut, cfg.k))


def true_risk_fn(p, functional):
    """The risk functional evaluated on the model's actual dwells, as a
    callable (i, a, j) on product ids. The risk of a transition depends
    only on the dwell of its model triple (s, a, s'), so it is computed
    once per triple and then looked up."""
    s_of, dwell = p._s_of, p.m.dwell
    risks = {}

    def fn(i, a, j):
        key = (s_of[i], a, s_of[j])
        r = risks.get(key)
        if r is None:
            r = risks[key] = risk_of(dwell[key], functional)
        return r
    return fn


def oracle_reference(p, functional, gamma_r) -> dict:
    """Exact winning structure, best reach probabilities, the optimal
    combined policy with its exact risk values, and per-state sets of
    optimal actions (ties included) for agreement scoring.

    Outside W the optimal actions are those within 1e-9 of the best
    one-step reach value, taken for every transient state at once from
    one array pass over their rows (`product._best_actions`); the
    transient policy picks the first of them in the model's action order.
    Inside W they are the risk-VI actions within a relative 1e-8 of the
    minimum. Every risk is computed once per model triple."""
    w, w_p = exact_winning_region(p)
    v_opt = exact_max_reach_probability(p, w)
    pi_tr = {}
    optimal = {}
    transient = [i for i in range(p.n_states) if i not in w]
    for i, acts in zip(transient, _best_actions(p, transient, v_opt, 1e-9)):
        pi_tr[i] = acts[0]
        optimal[i] = frozenset(acts)
    risk = true_risk_fn(p, functional)
    rm = risk_model_from_product(p, w, w_p, risk, gamma_r=gamma_r)
    rq = risk_value_iteration(rm)
    pi_win = extract_pi_win(rm, rq)
    for i, acts in rm.allowed.items():
        best = min(rq.q[(i, a)] for a in acts)
        tol = 1e-8 * max(1.0, abs(best))
        optimal[i] = frozenset(a for a in acts if rq.q[(i, a)] <= best + tol)
    return {
        "w": w, "w_p": w_p, "v_opt": v_opt,
        "pi": combine_policy(p, w, pi_win, pi_tr),
        "pi_win": pi_win, "pi_tr": pi_tr, "optimal": optimal,
        "v_risk": evaluate_policy_risk(p, pi_win, risk, gamma_r),
        "vi_residual": rq.residual,
    }


def top_up_observations(p, w_p, store, target, rng):
    """Extra sampling of the pools (model pairs) of the winning pairs:
    first one observation for any pool the store has no data on (the
    planner needs an estimate per pool), then round-robin over the pools
    until the store holds `target` observations over all pools.

    Each pool draws through its copy of lowest pair id among the
    `p.pair_ids` of `w_p`, and pools go in the order of those copies.
    Every draw goes through `sample_product_step`."""
    pid = np.sort(p.pair_ids(w_p))
    pid = pid[np.sort(np.unique(p.pair_model[pid], return_index=True)[1])]
    reps = [(i, p._s_of[i], a)
            for i, a in zip(p.owner[pid].tolist(), p.pair_actions(pid))]
    for i, s, a in reps:
        if (s, a) not in store:
            j, tau, s2 = sample_product_step(p, i, a, rng)
            store.append(s, a, s2, tau)
    # each append adds exactly one observation
    for i, s, a in islice(cycle(reps), max(0, target - len(store))):
        j, tau, s2 = sample_product_step(p, i, a, rng)
        store.append(s, a, s2, tau)


def _run_rep(job):
    """One repetition, self-contained for process-pool execution."""
    cfg, rep, learn_seed, reach_seed, topup_seed, oracle_w_p = job
    t0 = time.perf_counter()
    _, p = build_pipeline(cfg)

    res = run_algorithm1(p, cfg.learner_config(learn_seed),
                         oracle_w_p=oracle_w_p)
    tpost, dpost = res.transition_posterior, res.dwell_posterior
    store = res.store
    before = len(store)
    top_up_observations(p, res.w_p, store, cfg.min_observations,
                        np.random.default_rng(topup_seed))
    if len(store) != before:
        pools = np.unique(p.pair_model[p.pair_ids(res.w_p)]).tolist()
        tpost, dpost = update_posteriors(
            store, [p.model_pairs[q] for q in pools])

    tq = qlearn_transient(p, res.w, cfg.reward_spec(),
                          cfg.schedule(reach_seed))
    pi_tr = extract_pi_tr(p, res.w, tq)

    functional = parse_functional(cfg.functional)
    rm = build_risk_model(p, res.w, res.w_p, tpost, dpost,
                          functional=functional, gamma_r=cfg.gamma_r)
    rq = risk_value_iteration(rm)
    pi_win = extract_pi_win(rm, rq)
    pi = combine_policy(p, res.w, pi_win, pi_tr)

    reach = policy_reach_probability(p, pi_tr, res.w)
    risk = true_risk_fn(p, functional)
    v_risk = evaluate_policy_risk(p, pi_win, risk, cfg.gamma_r) if res.w else {}

    return {
        "rep": rep, "learn_seed": learn_seed, "reach_seed": reach_seed,
        "episodes": res.episodes, "converged": res.converged,
        "monotone_violations": res.monotone_violations,
        "observations": len(store),
        "w": sorted(res.w), "w_p": sorted(res.w_p),
        "policy": {str(i): a for i, a in sorted(pi.items())},
        "vi_residual": float(rq.residual),
        "vi_iterations": rq.iterations,
        "escaped_mass": float(sum(rm.escaped.values())),
        "qlearn_tail": float(tq.cauchy_tail),
        "reach": {str(i): float(reach[i]) for i in range(p.n_states)
                  if i not in res.w},
        "risk_values": {str(i): float(v) for i, v in sorted(v_risk.items())},
        "progress": res.progress,
        "wall": time.perf_counter() - t0,
    }


def export_sample_paths(p, policy, n, horizon, rng) -> list:
    """Labeled sample paths from the initial state under a total positional
    policy; JSONL-ready records, header first."""
    records = [{"record": "header", "paths": n, "horizon": horizon,
                "initial": p.initial}]
    m = p.m
    # per model state: its name and its label list
    state_names = m.names
    state_labels = [m.labels_of(s) for s in range(m.n_states)]
    for _ in range(n):
        i = p.initial
        s = p._s_of[i]
        states, names = [i], [state_names[s]]
        labels = [list(state_labels[s])]
        actions, dwells = [], []
        for _ in range(horizon):
            a = policy[i]
            j, tau, s2 = sample_product_step(p, i, a, rng)
            actions.append(a)
            dwells.append(float(tau))
            states.append(j)
            names.append(state_names[s2])
            labels.append(list(state_labels[s2]))
            i = j
        records.append({"record": "path", "states": states, "names": names,
                        "labels": labels, "actions": actions,
                        "dwells": dwells})
    return records


def _dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


def config_fingerprint(cfg_doc: dict) -> str:
    """Hash of the experiment identity: the config minus the fields that
    only say where and how wide to run (out_dir, workers)."""
    core = {k: v for k, v in cfg_doc.items() if k not in ("out_dir",
                                                          "workers")}
    return hashlib.sha256(_dumps(core).encode()).hexdigest()


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _strip_rep(rep: dict) -> dict:
    out = {k: v for k, v in rep.items() if k not in ("progress", "wall")}
    ind_rows = [row["ind"] for row in rep["progress"] if "ind" in row]
    out["ind_final"] = float(ind_rows[-1]) if ind_rows else None
    return out


def _aggregate(reps, oracle, n_states) -> dict:
    agg = {
        "episodes_mean": float(np.mean([r["episodes"] for r in reps])),
        "observations_total": int(sum(r["observations"] for r in reps)),
        "converged_frac": float(np.mean([r["converged"] for r in reps])),
        "monotone_violations": int(sum(r["monotone_violations"]
                                       for r in reps)),
        "vi_residual_max": float(max(r["vi_residual"] for r in reps)),
    }
    if oracle is None:
        return agg
    w0, wp0 = sorted(oracle["w"]), sorted(oracle["w_p"])
    agg["w_exact_frac"] = float(np.mean(
        [r["w"] == w0 and r["w_p"] == wp0 for r in reps]))
    finals = [r["ind_final"] for r in reps if r.get("ind_final") is not None]
    agg["ind_final_mean"] = float(np.mean(finals)) if finals else None

    gaps = []
    for r in reps:
        gap = 0.0
        for key, v in r["reach"].items():
            gap = max(gap, float(oracle["v_opt"][int(key)]) - v)
        gaps.append(gap)
    agg["reach_gap_max_mean"] = float(np.mean(gaps))

    pi0 = oracle["pi"]
    agg["policy_agreement_mean"] = float(np.mean(
        [np.mean([r["policy"][str(i)] == pi0[i] for i in range(n_states)])
         for r in reps]))
    opt = oracle["optimal"]
    agg["policy_optimal_frac_mean"] = float(np.mean(
        [np.mean([r["policy"][str(i)] in opt[i] for i in range(n_states)])
         for r in reps]))

    rels = []
    for r in reps:
        worst = 0.0
        for i in sorted(oracle["w"]):
            v0 = oracle["v_risk"][i]
            v1 = r["risk_values"].get(str(i))
            if v1 is not None and abs(v0) > 1e-12:
                worst = max(worst, abs(v1 - v0) / abs(v0))
        rels.append(worst)
    agg["risk_gap_rel_max_mean"] = float(np.mean(rels))
    return agg


@dataclass
class ExperimentArtifacts:
    """Where the bundle landed, plus the parsed summary document."""

    out_dir: str
    summary: dict
    files: dict


def run_experiment(cfg: ExperimentConfig) -> ExperimentArtifacts:
    _, p = build_pipeline(cfg)
    oracle = None
    if p.n_states <= cfg.oracle_cap:
        oracle = oracle_reference(p, parse_functional(cfg.functional),
                                  cfg.gamma_r)

    master = np.random.SeedSequence(cfg.seed)
    seqs = master.spawn(cfg.repetitions + 1)
    jobs = []
    for r in range(cfg.repetitions):
        st = seqs[r].generate_state(3)
        jobs.append((cfg, r, int(st[0]), int(st[1]), int(st[2]),
                     oracle["w_p"] if oracle else None))

    workers = cfg.workers or min(cfg.repetitions, os.cpu_count() or 1)
    if workers > 1 and cfg.repetitions > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            reps = list(ex.map(_run_rep, jobs))
    else:
        reps = [_run_rep(job) for job in jobs]

    os.makedirs(cfg.out_dir, exist_ok=True)
    files = {name: os.path.join(cfg.out_dir, name)
             for name in ("summary.json", "policy.json", "indk.csv",
                          "paths.jsonl", "progress.csv")}

    with open(files["progress.csv"], "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["rep", "episode", "w", "w_p", "boundary", "steps",
                     "wall", "ind"])
        for rep in reps:
            for row in rep["progress"]:
                wr.writerow([rep["rep"], row["episode"], row["w"],
                             row["w_p"], row["boundary"], row["steps"],
                             f"{row['wall']:.6f}",
                             f"{row['ind']:.6f}" if "ind" in row else ""])

    curves = [[row["ind"] for row in rep["progress"] if "ind" in row]
              for rep in reps]
    curves = [c for c in curves if c]
    with open(files["indk.csv"], "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["episode", "ind"])
        if curves:
            for e in range(max(len(c) for c in curves)):
                vals = [c[e] if e < len(c) else c[-1] for c in curves]
                wr.writerow([e + 1, f"{float(np.mean(vals)):.6f}"])

    cfg_doc = cfg.to_json_dict()
    cfg_sha = config_fingerprint(cfg_doc)
    rep0 = reps[0]
    policy_doc = {
        "policy": rep0["policy"],
        "winning_states": rep0["w"],
        "winning_pairs": [list(pair) for pair in rep0["w_p"]],
        "risk_values": rep0["risk_values"],
        "reach": rep0["reach"],
        "provenance": {
            "config_sha256": cfg_sha,
            "master_seed": cfg.seed,
            "rep": 0,
            "learn_seed": rep0["learn_seed"],
            "reach_seed": rep0["reach_seed"],
            "observations": rep0["observations"],
            "episodes": rep0["episodes"],
            "converged": rep0["converged"],
            "vi_residual": rep0["vi_residual"],
        },
    }
    with open(files["policy.json"], "w") as fh:
        fh.write(_dumps(policy_doc) + "\n")

    paths_rng = np.random.default_rng(seqs[-1])
    pi0 = {int(i): a for i, a in rep0["policy"].items()}
    with open(files["paths.jsonl"], "w") as fh:
        for rec in export_sample_paths(p, pi0, cfg.paths, cfg.horizon,
                                       paths_rng):
            fh.write(json.dumps(rec, sort_keys=True,
                                separators=(",", ":")) + "\n")

    oracle_doc = None
    if oracle is not None:
        oracle_doc = {
            "w_size": len(oracle["w"]),
            "w_p_size": len(oracle["w_p"]),
            "reach_at_initial": float(oracle["v_opt"][p.initial]),
            "risk_at_initial": (
                float(oracle["v_risk"][p.initial])
                if p.initial in oracle["v_risk"] else None),
            "vi_residual": float(oracle["vi_residual"]),
        }
    stripped = [_strip_rep(rep) for rep in reps]
    summary = {
        "config": cfg_doc,
        "config_sha256": cfg_sha,
        "n_product_states": p.n_states,
        "oracle": oracle_doc,
        "repetitions": stripped,
        "aggregate": _aggregate(stripped, oracle, p.n_states),
        "artifacts": {name: _sha256(files[name])
                      for name in ("policy.json", "indk.csv", "paths.jsonl")},
    }
    with open(files["summary.json"], "w") as fh:
        fh.write(_dumps(summary) + "\n")

    return ExperimentArtifacts(out_dir=cfg.out_dir, summary=summary,
                               files=files)
