"""End-to-end experiment driver: config handling, artifact bundle,
determinism, sample-path export."""

import csv
import importlib.util
import io
import json
import os
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from smdpsynth import (
    ActionNotEnabled, ConfigError, DomainGap, ExperimentConfig, MeanPlusSigma,
    ObservationStore, Quantile, build_pipeline, config_fingerprint,
    desk_config, exact_winning_region, export_sample_paths, oracle_reference,
    paper_config, parse_functional, run_algorithm1, run_experiment,
    top_up_observations, update_posteriors,
)
from smdpsynth.experiment import true_edge_risk
from smdpsynth.product import PairSet, ProductSmdp, \
    policy_reach_probability
from smdpsynth.risk import risk_model_from_product, risk_value_iteration

from conftest import (
    dwell_stats, exported_paths, grid4_product, successor_counts,
)
from oracles import (
    ObservationStoreReference, export_sample_paths_reference,
    top_up_observations_reference,
)


SMALL = dict(learn_episodes=2000, reach_episodes=2000, paths=20, horizon=40,
             repetitions=1, seed=0)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp")
    cfg = desk_config(out_dir=str(out), **SMALL)
    return cfg, run_experiment(cfg)


# ---------------------------------------------------------------- config

def test_config_rejects_bad_fields():
    with pytest.raises(ConfigError):
        desk_config(repetitions=0)
    with pytest.raises(ConfigError):
        desk_config(k=-1)
    with pytest.raises(ConfigError):
        desk_config(gamma_r=1.0)
    with pytest.raises(ConfigError):
        desk_config(paths=-1)
    with pytest.raises(ConfigError):
        desk_config(functional={"kind": "mystery"})


COUNT_FIELDS = ("k", "posterior_period", "learn_episodes", "learn_step_cap",
                "patience", "min_tries", "reach_episodes", "reach_step_cap",
                "min_observations", "paths", "horizon", "repetitions",
                "seed", "workers", "oracle_cap")


@pytest.mark.parametrize("name", COUNT_FIELDS)
def test_config_rejects_non_integer_counts(name):
    """A count must be an int, and not a bool: the error names the field
    and its value at config time, before any work is done."""
    for bad in (2.5, 3.0, "3", True, None):
        with pytest.raises(ConfigError, match=re.escape(
                f"{name} must be an integer, got {bad!r}")):
            desk_config(**{name: bad})


@pytest.mark.parametrize("name", ("gamma", "gamma_acc", "r_n", "gamma_r"))
def test_config_rejects_non_real_levels(name):
    """A discount or a reward level must be a finite real number, and not
    a bool: the error names the field and its value at config time."""
    for bad in ("0.5", None, True, float("nan"), float("inf"), [0.5]):
        with pytest.raises(ConfigError, match=re.escape(
                f"{name} must be a finite real number, got {bad!r}")):
            desk_config(**{name: bad})


@pytest.mark.parametrize("doc, field", [
    ("x", "functional"), (["mean_plus_sigma"], "functional"),
    ({"kind": "quantile", "alpha": "a"}, "functional alpha"),
    ({"kind": "quantile", "alpha": None}, "functional alpha"),
    ({"kind": "mean_plus_sigma", "lam": "0.5"}, "functional lam"),
    ({"kind": "mean_plus_sigma", "lam": False}, "functional lam"),
    ({"kind": "mean_plus_sigma", "lam": float("nan")}, "functional lam"),
])
def test_config_rejects_malformed_functional(doc, field):
    with pytest.raises(ConfigError, match=f"^{field} must be a"):
        desk_config(functional=doc)
    with pytest.raises(ConfigError, match=f"^{field} must be a"):
        parse_functional(doc)


def test_config_rejects_non_string_formula_and_non_dict_scenario():
    for bad in (3, None, ["G !c"]):
        with pytest.raises(ConfigError, match=re.escape(
                f"formula must be a string, got {bad!r}")):
            desk_config(formula=bad)
    for bad in ([], "grid", None):
        with pytest.raises(ConfigError, match=re.escape(
                f"scenario must be a dict, got {bad!r}")):
            desk_config(scenario=bad)


def test_config_accepts_numeric_levels_of_any_real_type():
    cfg = desk_config(gamma=np.float64(0.99), r_n=-2, gamma_r=0,
                      functional={"kind": "quantile", "alpha": 1})
    assert cfg.reward_spec().r_n == -2
    assert parse_functional(cfg.functional) == Quantile(1.0)


def test_config_json_round_trip():
    cfg = desk_config(seed=7, min_observations=50)
    doc = json.loads(json.dumps(cfg.to_json_dict()))
    assert ExperimentConfig.from_json_dict(doc) == cfg


def test_config_rejects_unknown_fields():
    doc = desk_config().to_json_dict()
    doc["episodes"] = 10
    with pytest.raises(ConfigError, match="unknown config fields"):
        ExperimentConfig.from_json_dict(doc)
    with pytest.raises(ConfigError, match="scenario"):
        ExperimentConfig.from_json_dict({"formula": "G !c"})


@pytest.mark.parametrize("doc, key", [
    ({"kind": "quantile", "alhpa": 0.9}, "alhpa"),
    ({"kind": "quantile", "alpha": 0.9, "lam": 1.0}, "lam"),
    ({"kind": "mean_plus_sigma", "alpha": 0.5}, "alpha"),
])
def test_config_rejects_unknown_functional_keys(doc, key):
    """A misspelled or misplaced parameter is refused, not replaced by
    the default."""
    message = f"^unknown key {key!r} in a {doc['kind']} functional$"
    with pytest.raises(ConfigError, match=message):
        parse_functional(doc)
    with pytest.raises(ConfigError, match=message):
        desk_config(functional=doc)


def test_parse_functional_dispatch():
    f = parse_functional({"kind": "mean_plus_sigma", "lam": 0.5})
    assert isinstance(f, MeanPlusSigma) and f.lam == 0.5
    g = parse_functional({"kind": "quantile", "alpha": 0.9})
    assert isinstance(g, Quantile) and g.alpha == 0.9


def test_fingerprint_ignores_location_fields():
    a = desk_config(out_dir="x", workers=1).to_json_dict()
    b = desk_config(out_dir="y", workers=4).to_json_dict()
    c = desk_config(seed=1).to_json_dict()
    assert config_fingerprint(a) == config_fingerprint(b)
    assert config_fingerprint(a) != config_fingerprint(c)


def test_paper_preset_scales_up():
    cfg = paper_config()
    assert cfg.k == 20
    assert cfg.scenario["grid"]["width"] == 5


def test_paper_preset_oracle():
    """The paper preset's exact solvers: region sizes, reach probability
    and risk VI convergence, and the greedy transient policy attaining the
    optimal reach probability."""
    cfg = paper_config()
    p = build_pipeline(cfg)[1]
    functional = parse_functional(cfg.functional)
    oracle = oracle_reference(p, functional, cfg.gamma_r)
    w = oracle["w"]
    assert (len(w), len(oracle["w_p"])) == (2423, 6554)
    assert oracle["v_opt"][p.initial] == 1.0
    rm = risk_model_from_product(p, w, oracle["w_p"],
                                 true_edge_risk(p, functional), cfg.gamma_r)
    rq = risk_value_iteration(rm)
    assert rq.iterations == 270 and rq.residual < 1e-9
    assert rq.residual == oracle["vi_residual"]
    v = policy_reach_probability(p, oracle["pi_tr"], w)
    transient = [i for i in range(p.n_states) if i not in w]
    assert np.max(np.abs(v[transient] - oracle["v_opt"][transient])) <= 1e-6


# ------------------------------------------------------------- artifacts

def test_bundle_files_exist(small_run):
    _, art = small_run
    assert sorted(art.files) == ["indk.csv", "paths.jsonl", "policy.json",
                                 "progress.csv", "summary.json"]
    for path in art.files.values():
        assert os.path.exists(path)


def test_summary_records_required_quantities(small_run):
    _, art = small_run
    s = art.summary
    assert s["oracle"]["w_size"] == 42 and s["oracle"]["w_p_size"] == 77
    rep = s["repetitions"][0]
    assert sorted(rep["w"]) == rep["w"] and len(rep["w"]) == 42
    assert rep["ind_final"] == 1.0
    assert rep["observations"] > 0
    assert rep["vi_residual"] < 1e-9
    agg = s["aggregate"]
    assert agg["w_exact_frac"] == 1.0
    assert agg["reach_gap_max_mean"] <= 0.02
    assert agg["monotone_violations"] == 0
    assert s["config"] == desk_config(out_dir=art.out_dir,
                                      **SMALL).to_json_dict()


def test_policy_json_provenance(small_run):
    cfg, art = small_run
    doc = json.load(open(art.files["policy.json"]))
    assert doc["provenance"]["config_sha256"] == \
        config_fingerprint(cfg.to_json_dict())
    assert doc["provenance"]["master_seed"] == cfg.seed
    assert doc["winning_states"] == art.summary["repetitions"][0]["w"]
    n = art.summary["n_product_states"]
    assert sorted(map(int, doc["policy"])) == list(range(n))


def test_indk_curve_monotone_from_below(small_run):
    _, art = small_run
    with open(art.files["indk.csv"]) as fh:
        rows = list(csv.DictReader(fh))
    vals = [float(r["ind"]) for r in rows]
    assert vals, "expected a nonempty agreement curve"
    assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
    assert vals[0] < vals[-1] == 1.0


def test_paths_jsonl_shape(small_run):
    cfg, art = small_run
    lines = open(art.files["paths.jsonl"]).read().splitlines()
    header = json.loads(lines[0])
    assert header["record"] == "header" and header["paths"] == cfg.paths
    assert len(lines) == cfg.paths + 1
    for line in lines[1:]:
        rec = json.loads(line)
        assert rec["record"] == "path"
        assert len(rec["states"]) == cfg.horizon + 1
        assert len(rec["actions"]) == len(rec["dwells"]) == cfg.horizon
        assert all(t >= 0 for t in rec["dwells"])


def test_paths_stay_winning_after_entry(small_run):
    """Once a rollout reaches the winning region it never leaves it and
    never visits an accepting product state."""
    _, art = small_run
    cfg, _ = small_run
    _, p = build_pipeline(cfg)
    w, _ = exact_winning_region(p)
    lines = open(art.files["paths.jsonl"]).read().splitlines()
    entered = 0
    for line in lines[1:]:
        states = json.loads(line)["states"]
        inside = False
        for i in states:
            inside = inside or i in w
            if inside:
                assert i in w
                assert i not in p.accepting
        entered += inside
    assert entered == len(lines) - 1


# ----------------------------------------------------------- determinism

def test_demo07_bundle_is_pinned(tmp_path):
    """demos/07_full_experiment.py's config, rerun: the committed bundle
    hashes and the whole summary (output location aside) come back."""
    committed = json.loads((Path(__file__).resolve().parents[1] / "results"
                            / "demo07" / "summary.json").read_text())
    cfg = desk_config(learn_episodes=4000, reach_episodes=64_000, paths=25,
                      horizon=60, repetitions=2, seed=7,
                      out_dir=str(tmp_path))
    art = run_experiment(cfg)
    summary = json.loads(Path(art.files["summary.json"]).read_text())
    assert summary["artifacts"] == committed["artifacts"]
    del summary["config"]["out_dir"], committed["config"]["out_dir"]
    assert summary == committed


def test_same_seed_same_bytes(tmp_path):
    cfg = desk_config(out_dir=str(tmp_path / "a"), learn_episodes=1500,
                      reach_episodes=1000, paths=5, horizon=20, seed=2)
    art1 = run_experiment(cfg)
    first = open(art1.files["summary.json"], "rb").read()
    art2 = run_experiment(cfg)
    assert open(art2.files["summary.json"], "rb").read() == first

    moved = desk_config(out_dir=str(tmp_path / "b"), learn_episodes=1500,
                        reach_episodes=1000, paths=5, horizon=20, seed=2)
    art3 = run_experiment(moved)
    assert art3.summary["artifacts"] == art1.summary["artifacts"]
    for name in ("policy.json", "indk.csv", "paths.jsonl"):
        assert open(art3.files[name], "rb").read() == \
            open(art1.files[name], "rb").read()


def test_parallel_reps_match_serial(tmp_path):
    base = dict(learn_episodes=1500, reach_episodes=1000, paths=5,
                horizon=20, repetitions=2, seed=4)
    serial = run_experiment(desk_config(out_dir=str(tmp_path / "s"),
                                        workers=1, **base))
    parallel = run_experiment(desk_config(out_dir=str(tmp_path / "p"),
                                          workers=2, **base))
    assert serial.summary["artifacts"] == parallel.summary["artifacts"]
    assert serial.summary["aggregate"] == parallel.summary["aggregate"]
    assert serial.summary["repetitions"] == parallel.summary["repetitions"]


def test_distinct_seeds_distinct_reps(small_run):
    _, art = small_run
    reps = art.summary["repetitions"]
    assert len({r["learn_seed"] for r in reps} |
               {r["reach_seed"] for r in reps}) == 2 * len(reps)


# ------------------------------------------------------------ components

def test_export_paths_edge_cases():
    p = grid4_product()
    rng = np.random.default_rng(0)
    first = p.pair_ptr[:-1]             # each state's first action
    only_header = exported_paths(p, first, 0, 10, rng)
    assert len(only_header) == 1 and only_header[0]["record"] == "header"

    pinned = exported_paths(p, first, 3, 0, rng)
    assert len(pinned) == 4
    for rec in pinned[1:]:
        assert rec["states"] == [p.initial]
        assert rec["actions"] == [] and rec["dwells"] == []
        assert rec["names"] == [p.m.names[p.states[p.initial][0]]]

    # a policy that leaves a state without a choice is refused, not read
    # as the last pair's action
    partial = first.copy()
    partial[5] = -1
    with pytest.raises(DomainGap, match="^state 5 has no policy entry$"):
        exported_paths(p, partial, 1, 1, rng)


def _random_policy(p, rng):
    """A policy array choosing a uniformly drawn action at every state."""
    lo, hi = p.pair_ptr[:-1], p.pair_ptr[1:]
    return lo + rng.integers(hi - lo)


@pytest.mark.parametrize("n, horizon, seed", [
    (0, 10, 0), (3, 0, 1), (1, 1, 2), (4, 30, 3), (6, 25, 4), (2, 80, 5),
])
def test_export_writes_the_reference_bytes(n, horizon, seed):
    """Streamed path by path, the export writes the bytes of the records
    built whole and then dumped, and leaves the generator where the
    reference leaves it."""
    p = grid4_product()
    policy = _random_policy(p, np.random.default_rng(100 + seed))
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    out = io.StringIO()
    export_sample_paths(p, policy, n, horizon, rng, out)
    assert out.getvalue() == export_sample_paths_reference(
        p, policy, n, horizon, ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_refused_policy_writes_nothing():
    """The policy check runs before the header: a refused policy leaves
    `out` empty and the generator untouched."""
    p = grid4_product()
    first = p.pair_ptr[:-1]
    unset, foreign = first.copy(), first.copy()
    unset[5] = -1
    foreign[5] = p.pair_ptr[6]          # a pair of state 6
    for error, policy in ((DomainGap, unset), (DomainGap, first[:-1]),
                          (ActionNotEnabled, foreign)):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        out = io.StringIO()
        with pytest.raises(error):
            export_sample_paths(p, policy, 3, 10, rng, out)
        assert out.getvalue() == ""
        assert rng.bit_generator.state == before


class _Discard:
    """A text sink that drops what it is given."""

    def write(self, text):
        return len(text)


def _export_peak(p, policy, n):
    """tracemalloc's peak over one export of `n` paths of 200 steps."""
    tracemalloc.start()
    try:
        export_sample_paths(p, policy, n, 200, np.random.default_rng(0),
                            _Discard())
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_export_memory_does_not_grow_with_path_count():
    _, p = build_pipeline(desk_config())
    policy = _random_policy(p, np.random.default_rng(1))
    _export_peak(p, policy, 1)          # builds the sampler's lazy tables
    small, large = _export_peak(p, policy, 10), _export_peak(p, policy, 400)
    assert abs(large - small) < 0.25 * 2 ** 20


def test_run_turns_no_tuple_into_a_pair_id(tmp_path, monkeypatch):
    """A small desk run, oracle included, hands `ProductSmdp.pair_ids`
    nothing but PairSets of its own product: the planners and every
    policy hold pair ids, so no (i, a) tuple is converted back into
    one."""
    real = ProductSmdp.pair_ids
    calls = []

    def sets_only(self, pairs):
        if not (isinstance(pairs, PairSet) and pairs._key is self._key):
            raise AssertionError(f"pair_ids got a {type(pairs).__name__}")
        calls.append(len(pairs))
        return real(self, pairs)

    monkeypatch.setattr(ProductSmdp, "pair_ids", sets_only)
    art = run_experiment(desk_config(
        learn_episodes=2000, reach_episodes=300, paths=2, horizon=5,
        workers=1, out_dir=str(tmp_path)))
    assert art.summary["oracle"] is not None and calls


def pools_of(p, w_p):
    """The model pairs (s, a) whose product copies (i, a) are in w_p."""
    return {(p.states[i][0], a) for i, a in w_p}


def test_top_up_covers_every_pair_and_target():
    p = grid4_product()
    _, w_p = exact_winning_region(p)
    store = ObservationStore()
    rng = np.random.default_rng(3)
    top_up_observations(p, w_p, store, 0, rng)
    assert len(store) == len(pools_of(p, w_p))
    assert store.pairs() == pools_of(p, w_p)

    top_up_observations(p, w_p, store, 500, rng)
    assert len(store) == 500
    top_up_observations(p, set(), store, 10 ** 6, rng)
    assert len(store) == 500


def test_top_up_matches_reference():
    """Top-ups from an empty, a partial and an over-full store, into the
    one-dict store and into the two-dict reference: the same observations
    in the same order and the generators left in the same state."""
    p = grid4_product()
    _, w_p = exact_winning_region(p)
    pairs = sorted(w_p)
    for seed, (n_pre, target) in enumerate([(0, 0), (0, 300), (40, 300),
                                            (5, 120), (400, 100)]):
        rng = np.random.default_rng(seed)
        store, ref = ObservationStore(), ObservationStoreReference()
        for k in range(n_pre):
            i, a = pairs[int(rng.integers(len(pairs)))]
            s = p.states[i][0]
            store.append(s, a, s, 0.25 * k)
            ref.append(s, a, s, 0.25 * k)
        rng_got = np.random.default_rng(100 + seed)
        rng_ref = np.random.default_rng(100 + seed)
        top_up_observations(p, w_p, store, target, rng_got)
        top_up_observations_reference(p, w_p, ref, target, rng_ref)
        assert rng_got.bit_generator.state == rng_ref.bit_generator.state
        assert len(store) == len(ref)
        if n_pre == 0:
            assert len(store) == max(target, len(pools_of(p, w_p)))
        assert store.pairs() == ref.pairs()
        assert store.take_touched() == ref.take_touched()
        for s, a in store.pairs():
            assert successor_counts(store, s, a) == ref.successor_counts(s, a)
            for s2 in successor_counts(store, s, a):
                n, total = dwell_stats(store, s, a, s2)
                n_ref, total_ref = ref.dwell_stats(s, a, s2)
                assert n == n_ref and total.hex() == total_ref.hex()


@pytest.mark.parametrize("preset,n_pools", [(desk_config, 28),
                                            (paper_config, 88)])
def test_top_up_first_pass_draws_once_per_pool(preset, n_pools, monkeypatch):
    """From an empty store, the first pass draws once for each pool of the
    exact W_p, through its copy of lowest product id, in that order."""
    import smdpsynth.experiment as experiment

    p = build_pipeline(preset())[1]
    _, w_p = exact_winning_region(p)
    reps = {}
    for i, a in w_p:
        key = (p.states[i][0], a)
        reps[key] = min(reps.get(key, (i, a)), (i, a))
    assert len(reps) == n_pools
    store = ObservationStore()
    drawn = []
    real = experiment.sample_product_step

    def counted(*args):
        drawn.append(args[1])
        return real(*args)

    monkeypatch.setattr(experiment, "sample_product_step", counted)
    top_up_observations(p, w_p, store, 0, np.random.default_rng(0))
    assert drawn == p.pair_ids(sorted(
        reps.values(), key=lambda pair: (pair[0], p.enabled(pair[0])
                                         .index(pair[1])))).tolist()
    assert len(store) == n_pools and store.pairs() == set(reps)
    assert all(sum(successor_counts(store, *key).values()) == 1
               for key in reps)


def test_bench_posterior_call_gives_the_learner_rows():
    """The benchmark's planning step rebuilds the posteriors with
    `update_posteriors(store, sorted(w_p), pool=...)`: on a learner's own
    store, that gives the learner's rows for the pools of W_p, which every
    converged run has observed."""
    cfg = desk_config()
    p = build_pipeline(cfg)[1]
    res = run_algorithm1(p, cfg.learner_config(3))
    assert res.converged
    pool = lambda pair: (p.states[pair[0]][0], pair[1])  # noqa: E731
    tpost, dpost = update_posteriors(res.store, sorted(res.w_p), pool=pool)
    assert tpost.pairs() == pools_of(p, res.w_p)
    learned_t = res.transition_posterior.to_json_dict()
    learned_d = res.dwell_posterior.to_json_dict()
    assert tpost.to_json_dict().items() <= learned_t.items()
    assert dpost.to_json_dict().items() <= learned_d.items()
    # the learner's other rows are pools whose copies all left W_p^k
    assert res.transition_posterior.pairs() == res.store.pairs()


def test_tracer_targets_resolve():
    """Every (module, attribute) the benchmark's tracer wraps exists, so a
    rename cannot silently drop a layer from the traced run."""
    tracer = _load_tracer()
    for module, attr, _layer, _counter in tracer.TARGETS:
        assert callable(getattr(importlib.import_module(module), attr)), \
            f"{module}.{attr}"


def test_top_up_draws_through_experiment_sampler(monkeypatch):
    """The top-up draws every observation through the name
    `smdpsynth.experiment.sample_product_step`, one call per observation,
    which is where the traced benchmark counts `product.sample_calls`."""
    import smdpsynth.experiment as experiment

    calls = []
    real = experiment.sample_product_step

    def counted(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(experiment, "sample_product_step", counted)
    p = grid4_product()
    _, w_p = exact_winning_region(p)
    store = ObservationStore()
    i, a = min(w_p)
    store.append(p.states[i][0], a, p.states[i][0], 1.0)
    experiment.top_up_observations(p, w_p, store, 500,
                                   np.random.default_rng(4))
    assert len(calls) == len(store) - 1 == 499
    assert (i, a) not in calls[:len(pools_of(p, w_p)) - 1]

    tracer = _load_tracer().Tracer()
    store = ObservationStore()
    calls.clear()
    with tracer.installed(), tracer.scope("op") as scope:
        experiment.top_up_observations(p, w_p, store, 200,
                                       np.random.default_rng(5))
    totals = tracer.scope_totals(scope)
    assert totals["product.sample"][0] == len(calls) == len(store) == 200
    assert totals["experiment.topup"][0] == 1


def _load_tracer():
    """bench/tracer.py as a module, loaded without writing bytecode next
    to it."""
    path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_min_observations_reaches_posterior(tmp_path):
    cfg = desk_config(out_dir=str(tmp_path), learn_episodes=1500,
                      reach_episodes=1000, paths=0, horizon=10,
                      min_observations=30_000, seed=6)
    art = run_experiment(cfg)
    rep = art.summary["repetitions"][0]
    assert rep["observations"] == 30_000
    assert art.summary["aggregate"]["risk_gap_rel_max_mean"] < 0.05
