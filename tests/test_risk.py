import itertools
import math
import warnings

import numpy as np
import pytest

import smdpsynth.risk
from smdpsynth import (
    DomainGap, EmptyPredictiveRow, Exponential, InvalidRiskModel,
    LearnerConfig, MeanPlusSigma, MomentUndefined, NoAllowedAction,
    NonfiniteRisk, NotConverged, ObservationStore, PolicyLeavesW, Quantile,
    Smdp, SmdpsynthError, UntrackedPair, build_pipeline, desk_config,
    exact_winning_region, paper_config, run_algorithm1, sample_product_step,
    top_up_observations, update_posteriors,
)
from smdpsynth.bayes import DirichletPosterior, GammaPosterior
from smdpsynth.product import build_product
from smdpsynth.risk import (
    RiskModel, RiskQ, build_risk_model, combine_policy, evaluate_policy_risk,
    extract_pi_win, risk_model_from_product, risk_value_iteration,
)

from conftest import (
    cycle4_product, grid4_product, m1_product, product_dwell, product_row,
    random_product, risk_model, risk_rows, risky3_product, trivial_monitor,
)
from oracles import build_risk_model_reference, lift_reference


def loop1(gamma_r=0.9, risk=1.0):
    return risk_model({(0, "a"): ((0,), (1.0,))}, {(0, "a", 0): risk},
                      {0: ("a",)}, gamma_r=gamma_r)


def two_arms():
    return risk_model(
        {(0, "x"): ((1,), (1.0,)), (0, "y"): ((1,), (1.0,)),
         (1, "z"): ((1,), (1.0,))},
        {(0, "x", 1): 1.0, (0, "y", 1): 2.0, (1, "z", 1): 0.0},
        {0: ("x", "y"), 1: ("z",)})


def true_risk(p):
    # mean plus one sigma; sigma equals the mean for exponential dwells
    def f(i, a, j):
        return 2.0 * product_dwell(p, i, a, j).mean()
    return f


# --- model validation -----------------------------------------------------

def test_risk_model_validation():
    with pytest.raises(ValueError):
        loop1(gamma_r=1.0)
    with pytest.raises(ValueError):
        risk_model({}, {}, {0: ()})
    with pytest.raises(ValueError):
        risk_model({(0, "a"): ((0,), (0.5,))}, {(0, "a", 0): 1.0},
                   {0: ("a",)})
    with pytest.raises(ValueError):
        risk_model({(0, "a"): ((7,), (1.0,))}, {(0, "a", 7): 1.0},
                   {0: ("a",)})


def test_risk_model_validation_errors_are_typed():
    bad = [dict(trans={}, risks={}, allowed={0: ("a",)}, gamma_r=1.0),
           dict(trans={}, risks={}, allowed={0: ()}),
           dict(trans={(0, "a"): ((0,), (0.5,))}, risks={(0, "a", 0): 1.0},
                allowed={0: ("a",)}),
           dict(trans={(0, "a"): ((7,), (1.0,))}, risks={(0, "a", 7): 1.0},
                allowed={0: ("a",)})]
    for kwargs in bad:
        with pytest.raises(InvalidRiskModel) as err:
            risk_model(**kwargs)
        assert isinstance(err.value, SmdpsynthError)
        assert isinstance(err.value, ValueError)


def three_rows(changes):
    """Three valid rows over states 0 and 1, with some entries replaced or
    added: `changes` maps (i, a, j) to a (probability, risk) pair."""
    rows = {(0, "x"): {0: (0.5, 1.0), 1: (0.5, 2.0)},
            (0, "y"): {1: (1.0, 0.5)},
            (1, "x"): {0: (0.25, 0.0), 1: (0.75, 3.0)}}
    for (i, a, j), entry in changes.items():
        rows[(i, a)][j] = entry
    trans = {pair: (tuple(row), tuple(pr for pr, _ in row.values()))
             for pair, row in rows.items()}
    risks = {(i, a, j): r for (i, a), row in rows.items()
             for j, (_, r) in row.items()}
    return trans, risks, {0: ("x", "y"), 1: ("x",)}


@pytest.mark.parametrize("changes, err_type, message", [
    ({(0, "y", 1): (0.5, 0.5), (1, "x", 1): (0.5, 3.0)},
     InvalidRiskModel, "row (0,y) does not sum to one"),
    ({(0, "y", 2): (0.0, 0.5), (1, "x", 2): (0.0, 0.5)},
     InvalidRiskModel, "row (0,y) leaves the winning region"),
    ({(1, "x", 1): (0.75, 3.0), (0, "y", 1): (1.0, -1.0)},
     NonfiniteRisk, "risk of (0,y,1) is -1.0"),
    ({(1, "x", 0): (0.25, float("nan")), (0, "x", 1): (0.5, math.inf)},
     NonfiniteRisk, "risk of (0,x,1) is inf"),
])
def test_risk_model_validation_names_first_offending_pair(
        changes, err_type, message):
    trans, risks, allowed = three_rows(changes)
    with pytest.raises(err_type) as err:
        risk_model(trans, risks, allowed)
    assert str(err.value) == message
    assert isinstance(err.value, SmdpsynthError)


def test_risk_model_rejects_malformed_rows():
    ok = dict(pairs=[(0, "a")], row_ptr=[0, 1], succ=[0], prob=[1.0],
              risk=[1.0], allowed={0: ("a",)})
    RiskModel(**ok)
    for change in (dict(row_ptr=[0, 2]), dict(row_ptr=[1, 1]),
                   dict(row_ptr=[0]), dict(risk=[1.0, 1.0]),
                   dict(prob=[])):
        with pytest.raises(InvalidRiskModel, match="compressed sparse rows"):
            RiskModel(**{**ok, **change})


# --- value iteration --------------------------------------------------------

def test_vi_self_loop_geometric():
    rq = risk_value_iteration(loop1(), tol=1e-9)
    assert rq.q[(0, "a")] == pytest.approx(10.0, abs=2e-8)
    assert rq.residual < 1e-9
    assert rq.iterations == len(rq.residuals) >= 1


def test_vi_sweep_cap(monkeypatch):
    monkeypatch.setattr(smdpsynth.risk, "MAX_SWEEPS", 1)
    with pytest.raises(NotConverged, match="risk value iteration") as err:
        risk_value_iteration(loop1())
    assert err.value.residual == 1.0


def test_vi_two_arms_and_greedy():
    rq = risk_value_iteration(two_arms())
    assert rq.q[(0, "x")] == pytest.approx(1.0)
    assert rq.q[(0, "y")] == pytest.approx(2.0)
    assert extract_pi_win(two_arms(), rq)[0] == "x"


def test_greedy_tiebreak_first_allowed():
    rm = two_arms()
    rq = RiskQ(q={(0, "x"): 1.0, (0, "y"): 1.0, (1, "z"): 0.0},
               residual=0.0, iterations=0)
    assert extract_pi_win(rm, rq)[0] == "x"
    assert extract_pi_win(rm, rq)[1] == "z"


def test_vi_residuals_contract():
    rq = risk_value_iteration(loop1(), tol=1e-9)
    rs = rq.residuals
    assert all(x <= y + 1e-15 for x, y in zip(rs[1:], rs))


def random_risk_model(rng, n=20, gamma_r=0.9):
    trans = {}
    risks = {}
    allowed = {}
    for i in range(n):
        for a in ("x", "y"):
            k = int(rng.integers(1, 4))
            succs = tuple(int(s) for s in rng.choice(n, size=k,
                                                     replace=False))
            probs = rng.dirichlet(np.ones(k))
            trans[(i, a)] = (succs, tuple(float(p) for p in probs))
            for j in succs:
                risks[(i, a, j)] = float(rng.uniform(0, 1))
        allowed[i] = ("x", "y")
    return risk_model(trans, risks, allowed, gamma_r=gamma_r)


def horizon_reference(rm, horizon):
    rows = risk_rows(rm)
    q = {pair: 0.0 for pair in rows}
    for _ in range(horizon):
        best = {i: min(q[(i, a)] for a in acts)
                for i, acts in rm.allowed.items()}
        q = {pair: sum(pr * (r + rm.gamma_r * best[j])
                       for j, pr, r in zip(*row))
             for pair, row in rows.items()}
    return q


def test_vi_matches_truncated_horizon_oracle():
    rng = np.random.default_rng(17)
    rm = random_risk_model(rng)
    tol = 1e-9
    rq = risk_value_iteration(rm, tol=tol)
    maxrisk = float(rm.risk.max())
    horizon = 1
    while rm.gamma_r ** horizon * maxrisk / (1 - rm.gamma_r) >= tol:
        horizon += 1
    ref = horizon_reference(rm, horizon)
    # VI stops within tol*gamma/(1-gamma) of the fixed point, the reference
    # within tol of it
    slack = tol * (1 + rm.gamma_r / (1 - rm.gamma_r))
    for pair, v in rq.q.items():
        assert v == pytest.approx(ref[pair], abs=slack)
        assert 0.0 <= v <= maxrisk / (1 - rm.gamma_r)


def test_vi_rejects_nonfinite_risk():
    rm = loop1()
    rm.risk[0] = float("inf")
    with pytest.raises(NonfiniteRisk):
        risk_value_iteration(rm)
    with pytest.raises(ValueError):
        risk_value_iteration(loop1(), tol=0.0)


def assert_matches_scalar_reference(rm):
    from oracles import risk_value_iteration_scalar
    rq = risk_value_iteration(rm)
    q, residuals = risk_value_iteration_scalar(rm)
    assert list(rq.q.items()) == list(q.items())
    assert all(type(v) is float for v in rq.q.values())
    assert rq.residuals == residuals
    assert rq.iterations == len(residuals)
    assert rq.residual == residuals[-1]
    return rq


def test_vi_bitwise_on_hand_built_models():
    assert_matches_scalar_reference(loop1())
    assert_matches_scalar_reference(two_arms())
    assert_matches_scalar_reference(random_risk_model(
        np.random.default_rng(5)))
    # pairs listed out of state order, mixed row lengths and a state with
    # one action: the per-state minimum must regroup them
    interleaved = risk_model(
        {(1, "y"): ((0, 2), (0.25, 0.75)), (0, "x"): ((1,), (1.0,)),
         (2, "x"): ((2, 0, 1), (0.5, 0.125, 0.375)),
         (1, "x"): ((1,), (1.0,))},
        {(1, "y", 0): 0.3, (1, "y", 2): 1.7, (0, "x", 1): 0.1,
         (2, "x", 2): 0.9, (2, "x", 0): 2.5, (2, "x", 1): 0.0,
         (1, "x", 1): 1.1},
        {2: ("x",), 0: ("x",), 1: ("x", "y")}, gamma_r=0.95)
    assert_matches_scalar_reference(interleaved)


def test_vi_bitwise_on_desk_models():
    """The desk oracle's model and one built from learned posteriors (a
    short learner run topped up on the exact region)."""
    cfg = desk_config()
    p = build_pipeline(cfg)[1]
    w, w_p = exact_winning_region(p)
    rm = risk_model_from_product(p, w, w_p, true_risk(p), gamma_r=0.9)
    assert assert_matches_scalar_reference(rm).iterations == 191

    res = run_algorithm1(p, LearnerConfig(episode_budget=50, step_cap=50,
                                          seed=1))
    top_up_observations(p, w_p, res.store, len(res.store) + 200,
                        np.random.default_rng(2))
    tpost, dpost = update_posteriors(
        res.store, sorted(w_p),
        pool=lambda pair: (p.states[pair[0]][0], pair[1]))
    assert_matches_scalar_reference(build_risk_model(p, w, w_p, tpost, dpost))


def test_vi_bitwise_on_paper_oracle_model():
    p = build_pipeline(paper_config())[1]
    w, w_p = exact_winning_region(p)
    rm = risk_model_from_product(p, w, w_p, true_risk(p), gamma_r=0.9)
    assert len(rm.pairs) == len(w_p) == 6554
    assert_matches_scalar_reference(rm)


def exact_model_reference(p, w, w_p, risk_fn, gamma_r=0.9):
    """risk_model_from_product one winning pair at a time: its product
    row, one risk_fn call per transition, pairs by state and then in the
    model's action order, as are the allowed tuples."""
    pairs = sorted(w_p, key=lambda pair: (pair[0],
                                          p.enabled(pair[0]).index(pair[1])))
    trans = {pair: product_row(p, *pair) for pair in pairs}
    risks = {(i, a, j): risk_fn(i, a, j) for (i, a), (succs, _) in
             trans.items() for j in succs}
    acts = {}
    for i, a in pairs:
        acts.setdefault(i, set()).add(a)
    allowed = {i: tuple(a for a in p.enabled(i) if a in acts[i])
               for i in sorted(acts)}
    return risk_model(trans, risks, allowed, gamma_r=gamma_r)


def test_exact_model_gathers_one_risk_per_model_edge():
    """The same rows, risks (float.hex) and allowed tuples as the per-pair
    reference, from one risk_fn call per model edge in the region."""
    products = [grid4_product(5), build_pipeline(desk_config())[1]]
    rng = np.random.default_rng(12)
    products += [random_product(rng, n=int(rng.integers(3, 8)),
                                actions=("y", "x", "z"), c_prob=0.2)
                 for _ in range(30)]
    for p in products:
        w, w_p = exact_winning_region(p)
        calls = []

        def fn(i, a, j):
            calls.append((p.states[i][0], a, p.states[j][0]))
            return 2.0 * product_dwell(p, i, a, j).mean() + 0.1 * len(str(a))
        got = risk_model_from_product(p, w, w_p, fn, gamma_r=0.8)
        assert len(calls) == len(set(calls))
        want = exact_model_reference(p, w, w_p, fn, gamma_r=0.8)
        assert got.pairs == want.pairs
        assert got.row_ptr.tolist() == want.row_ptr.tolist()
        assert got.succ.tolist() == want.succ.tolist()
        assert _hexes(got.prob.tolist()) == _hexes(want.prob.tolist())
        assert _hexes(got.risk.tolist()) == _hexes(want.risk.tolist())
        assert list(got.allowed.items()) == list(want.allowed.items())


def test_exact_model_names_first_offending_pair():
    """A bad risk in a pair sorted before the first pair that leaves the
    region is reported; one sorted after it is not reached."""
    p = risky3_product()
    w, w_p = exact_winning_region(p)
    safe = next(iter(w))
    leaving = w_p | {(p.initial, "x")}
    region = w | {p.initial}
    assert p.initial < safe

    def bad_at(state):
        def fn(i, a, j):
            return math.inf if i == state else 1.0
        return fn
    with pytest.raises(InvalidRiskModel,
                       match=f"pair \\({p.initial},x\\) leaves"):
        risk_model_from_product(p, region, leaving, bad_at(safe))
    with pytest.raises(NonfiniteRisk, match=f"risk of \\({safe},x,{safe}\\)"):
        risk_model_from_product(p, w, w_p, bad_at(safe))


def test_risk_errors_are_typed():
    p = risky3_product()
    w, w_p = exact_winning_region(p)
    # both of the initial state's actions can reach the c-labeled state
    leaving = {(p.initial, "x"), (p.initial, "y")}
    with pytest.raises(InvalidRiskModel, match="leaves the winning region"):
        risk_model_from_product(p, w | {p.initial}, w_p | leaving,
                                lambda i, a, j: 1.0)
    with pytest.raises(InvalidRiskModel, match="tol must be positive"):
        risk_value_iteration(loop1(), tol=0.0)
    with pytest.raises(InvalidRiskModel, match=r"gamma_r must be in \[0,1\)"):
        evaluate_policy_risk(p, {}, lambda i, a, j: 1.0, 1.0)
    for err_type in (SmdpsynthError, ValueError):
        assert issubclass(InvalidRiskModel, err_type)


# --- building the model from posteriors -----------------------------------------

def test_build_from_learned_m1():
    p = m1_product()
    res = run_algorithm1(p, LearnerConfig(episode_budget=150,
                                          step_cap=25, seed=1))
    rm = build_risk_model(p, res.w, res.w_p, res.transition_posterior,
                          res.dwell_posterior)
    assert rm.allowed == {p.initial: ("a",)}
    succs, probs, (r,) = risk_rows(rm)[(p.initial, "a")]
    assert (succs, probs) == ((p.initial,), (1.0,))
    assert rm.escaped == {}
    # ample data on the unit-rate loop: mu + sigma approaches 2
    assert r == pytest.approx(2.0, rel=0.2)


def split_store(p):
    """Observations for risky3's initial pair: most stay safe, some do not.
    They are stored under the model pairs of the initial and the safe
    state."""
    store = ObservationStore()
    i0 = p.initial
    safe_pid = next(i for i, (s, _f) in enumerate(p.states) if s == 1)
    for _ in range(9):
        store.append(p.states[i0][0], "x", 1, 0.5)
    store.append(p.states[i0][0], "x", 2, 0.5)
    for _ in range(5):
        store.append(1, "x", 1, 0.5)
    return store, i0, safe_pid


def test_build_renormalizes_escaping_mass():
    p = risky3_product()
    store, i0, safe_pid = split_store(p)
    w = {i0, safe_pid}
    w_p = [(i0, "x"), (safe_pid, "x")]
    tpost, dpost = update_posteriors(
        store, w_p, pool=lambda pair: (p.states[pair[0]][0], pair[1]))
    with pytest.warns(UserWarning, match="renormalized"):
        rm = build_risk_model(p, w, w_p, tpost, dpost)
    assert rm.escaped[(i0, "x")] == pytest.approx(2 / 12)
    assert risk_rows(rm)[(i0, "x")][:2] == ((safe_pid,), (1.0,))


def test_build_rejects_fully_escaping_pair():
    p = risky3_product()
    store, i0, safe_pid = split_store(p)
    w_p = [(i0, "x"), (safe_pid, "x")]
    tpost, dpost = update_posteriors(
        store, w_p, pool=lambda pair: (p.states[pair[0]][0], pair[1]))
    with pytest.raises(EmptyPredictiveRow, match="no predictive mass"):
        build_risk_model(p, {i0}, [(i0, "x")], tpost, dpost)


def test_build_errors_are_typed():
    """A hand-built posterior whose only candidate lifts outside W, and a
    winning state without a winning pair: both raise package errors, which
    the CLI reports as `error:` with exit status 2."""
    p = risky3_product()
    i0 = p.initial
    safe_pid = next(i for i, (s, _f) in enumerate(p.states) if s == 1)
    tpost = DirichletPosterior({(0, "x"): ((2,), np.array([3.0])),
                                (1, "x"): ((1,), np.array([3.0]))})
    dpost = GammaPosterior({(0, "x", 2): (3.0, 1.0), (1, "x", 1): (3.0, 1.0)})
    with pytest.raises(EmptyPredictiveRow) as err:
        build_risk_model(p, {i0, safe_pid}, [(i0, "x")], tpost, dpost)
    assert isinstance(err.value, SmdpsynthError)
    assert str(err.value) == \
        f"pair ({i0},x) has no predictive mass inside the region"
    with pytest.raises(NoAllowedAction,
                       match=f"winning state {i0} has no winning pair"):
        build_risk_model(p, {i0, safe_pid}, [(safe_pid, "x")], tpost, dpost)


def test_build_surfaces_undefined_moments():
    """Gamma(2, 1) dwell posteriors, the prior itself, have a Lomax
    predictive without a variance."""
    p = cycle4_product()
    w = set(range(p.n_states))
    w_p = [(i, "f") for i in range(p.n_states)]
    tpost = DirichletPosterior({(s, "f"): (((s + 1) % 4,), np.array([1.0]))
                                for s in range(4)})
    dpost = GammaPosterior({(s, "f", (s + 1) % 4): (2.0, 1.0)
                            for s in range(4)})
    with pytest.raises(MomentUndefined):
        build_risk_model(p, w, w_p, tpost, dpost,
                         functional=MeanPlusSigma(1.0))
    rm = build_risk_model(p, w, w_p, tpost, dpost,
                          functional=Quantile(0.5))
    assert all(v > 0 for v in rm.risk.tolist())


def _capture(build, *args, **kwargs):
    """(model, or (error type, message)) and the warnings raised, each as
    (category, message, filename), with every warning recorded."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = build(*args, **kwargs)
        except SmdpsynthError as exc:
            out = (type(exc), str(exc))
    return out, [(w.category, str(w.message), w.filename) for w in caught]


def _hexes(xs):
    return [(type(x), float.hex(x)) for x in xs]


def assert_same_as_reference(p, w, w_p, tpost, dpost, **kwargs):
    """build_risk_model and the per-copy reference agree: trans, risks,
    allowed and escaped with float.hex equality and in the same order, or
    the same error; the same warnings in the same order, each attributed
    to this file. Returns the model (or the error) and the warnings."""
    got, got_warn = _capture(build_risk_model, p, w, w_p, tpost, dpost,
                             **kwargs)
    want, want_warn = _capture(build_risk_model_reference, p, w, w_p, tpost,
                               dpost, **kwargs)
    assert got_warn == want_warn
    assert all(filename == __file__ for _, _, filename in got_warn)
    if isinstance(want, tuple):
        assert got == want
        return got, got_warn
    assert got.pairs == want.pairs
    assert got.row_ptr.tolist() == want.row_ptr.tolist()
    assert got.succ.tolist() == want.succ.tolist()
    assert _hexes(got.prob.tolist()) == _hexes(want.prob.tolist())
    assert _hexes(got.risk.tolist()) == _hexes(want.risk.tolist())
    assert list(got.allowed.items()) == list(want.allowed.items())
    assert list(got.escaped) == list(want.escaped)
    assert _hexes(got.escaped.values()) == _hexes(want.escaped.values())
    assert got.gamma_r == want.gamma_r
    return got, got_warn


def pooled(p):
    return lambda pair: (p.states[pair[0]][0], pair[1])


def test_build_matches_reference_on_desk():
    """A learned desk model on the learned and on the exact region."""
    cfg = desk_config()
    p = build_pipeline(cfg)[1]
    w, w_p = exact_winning_region(p)
    res = run_algorithm1(p, LearnerConfig(episode_budget=50, step_cap=50,
                                          seed=1))
    top_up_observations(p, res.w_p, res.store, len(res.store) + 300,
                        np.random.default_rng(2))
    tpost, dpost = update_posteriors(res.store, sorted(res.w_p),
                                     pool=pooled(p))
    for region in ((w, w_p), (res.w, res.w_p)):
        assert_same_as_reference(p, *region, tpost, dpost, gamma_r=0.95)
        assert_same_as_reference(p, *region, tpost, dpost,
                                 functional=Quantile(0.5))


def test_build_matches_reference_on_random_products():
    """Random products whose region keeps every non-accepting state, or on
    odd seeds all but one: rows lose predictive mass to successors
    outside the region (warnings), some lose all of it
    (EmptyPredictiveRow). Every copy is observed one to four times, so
    every pool has a posterior row."""
    outcomes = set()
    for seed in range(40):
        rng = np.random.default_rng(seed)
        p = random_product(rng, n=int(rng.integers(3, 8)), c_prob=0.3)
        w = {i for i in range(p.n_states) if i not in p.accepting}
        if seed % 2 and len(w) > 1:
            w.discard(sorted(w)[int(rng.integers(len(w)))])
        w_p = [(i, a) for i in sorted(w) for a in p.enabled(i)]
        if not w_p:
            continue
        store = ObservationStore()
        for i, a in w_p:
            for _ in range(int(rng.integers(1, 5))):
                _, tau, s2 = sample_product_step(p, i, a, rng)
                store.append(p.states[i][0], a, s2, tau)
        tpost, dpost = update_posteriors(store, w_p, pool=pooled(p))
        out, warned = assert_same_as_reference(
            p, w, w_p, tpost, dpost, functional=Quantile(0.5))
        outcomes.add(("error" if isinstance(out, tuple) else "model",
                      bool(warned)))
    assert {("model", True), ("error", True), ("error", False)} <= outcomes


def test_build_rejects_candidate_outside_model_row():
    """Candidates are observed successors, so each lies in its model row.
    A hand-built posterior with one outside it is refused, naming the
    first copy that reads it, as the per-copy reference does."""
    p = risky3_product()
    i0 = p.initial
    safe_pid = next(i for i, (s, _f) in enumerate(p.states) if s == 1)
    tpost = DirichletPosterior({
        (0, "x"): ((1, 2), np.array([3.0, 1.0])),
        (1, "x"): ((0, 1), np.array([1.0, 3.0]))})
    dpost = GammaPosterior({(s, "x", s2): (3.0 + s2, 1.5)
                            for s in (0, 1) for s2 in (0, 1, 2)})
    assert 0 not in p.m.trans_row(1, "x")[0]
    w = {i0, safe_pid}
    w_p = [(i0, "x"), (safe_pid, "x")]
    out, warned = assert_same_as_reference(p, w, w_p, tpost, dpost)
    assert [msg for _, msg, _ in warned] == [
        f"pair ({i0},x): renormalized 0.25 predictive mass escaping the "
        "winning region"]
    assert out == (InvalidRiskModel,
                   f"pair ({safe_pid},x): candidate successor 0 is not in "
                   "the row of model pair (1,x)")
    assert issubclass(InvalidRiskModel, SmdpsynthError)


def paper_learned(learn_seed, topup_seed):
    """The paper product and its 100-episode learner run on `learn_seed`,
    topped up as a planning repetition does, with pooled posteriors."""
    cfg = paper_config(learn_episodes=100)
    p = build_pipeline(cfg)[1]
    res = run_algorithm1(p, cfg.learner_config(learn_seed))
    top_up_observations(p, res.w_p, res.store, cfg.min_observations,
                        np.random.default_rng(topup_seed))
    tpost, dpost = update_posteriors(res.store, sorted(res.w_p),
                                     pool=pooled(p))
    return p, res, tpost, dpost, cfg.gamma_r


def test_build_matches_reference_on_paper_learner():
    """Paper preset, 100-episode learner and top-up: the unconverged region
    fails planning with the same EmptyPredictiveRow, with the same
    warnings (none before the failing pair on this seed)."""
    p, res, tpost, dpost, gamma_r = paper_learned(1, 101)
    out, warned = assert_same_as_reference(p, res.w, res.w_p, tpost, dpost,
                                           gamma_r=gamma_r)
    assert out == (EmptyPredictiveRow,
                   "pair (4700,DL) has no predictive mass inside the region")
    assert warned == []


def test_build_matches_reference_on_paper_learner_with_escaped_mass():
    """A paper learner seed whose failing copy comes after a copy that
    renormalizes escaping mass: the warning comes first, attributed to
    the caller."""
    p, res, tpost, dpost, gamma_r = paper_learned(1841685271, 862057200)
    out, warned = assert_same_as_reference(p, res.w, res.w_p, tpost, dpost,
                                           gamma_r=gamma_r)
    assert out == (EmptyPredictiveRow,
                   "pair (4099,DR) has no predictive mass inside the region")
    assert [msg for _, msg, _ in warned] == [
        "pair (4099,DL): renormalized 0.5 predictive mass escaping the "
        "winning region"]


def test_build_work_is_once_per_pool_and_per_kept_triple(monkeypatch):
    """On the paper 100-episode region, the predictive row of a pool is
    read once, at its first copy, and a risk is evaluated once per model
    triple that a copy before the failing one keeps, in the order in which
    copies first keep them."""
    p, res, tpost, dpost, gamma_r = paper_learned(1, 101)
    pools, triples = [], []
    for i, a in sorted(res.w_p, key=lambda pair: (pair[0], str(pair[1]))):
        s = p.states[i][0]
        if (s, a) not in pools:
            pools.append((s, a))
        if (i, a) == (4700, "DL"):
            break
        for s2 in tpost.row(s, a)[0]:
            if lift_reference(p, i, s2) in res.w and (s, a, s2) not in triples:
                triples.append((s, a, s2))

    calls = {"successors": [], "transition": [], "dwell": [], "risk": 0}

    def recorded(name, fn):
        def wrapper(post, *key):
            calls[name].append(key)
            return fn(post, *key)
        return wrapper

    def counted(fn):
        def wrapper(dist, functional):
            calls["risk"] += 1
            return fn(dist, functional)
        return wrapper

    for name in ("successors", "transition", "dwell"):
        attr = f"predictive_{name}"
        monkeypatch.setattr(smdpsynth.risk, attr,
                            recorded(name, getattr(smdpsynth.risk, attr)))
    monkeypatch.setattr(smdpsynth.risk, "risk_of",
                        counted(smdpsynth.risk.risk_of))
    with pytest.raises(EmptyPredictiveRow, match=r"pair \(4700,DL\)"):
        build_risk_model(p, res.w, res.w_p, tpost, dpost, gamma_r=gamma_r)
    assert len(pools) <= len(p.model_pairs)
    assert calls["successors"] == calls["transition"] == pools
    assert calls["dwell"] == triples
    assert calls["risk"] == len(triples)


def ring_posteriors(missing=(), no_variance=()):
    """Posteriors for cycle4, whose product ids are its model states: the
    candidate of pair (s, a) is its model successor (s + 1) % 4. The
    pairs of `missing` have no row; the triples of the pairs of
    `no_variance` get a Gamma(1.5, 1) dwell posterior, whose Lomax
    predictive has no variance, the others Gamma(5, 1)."""
    pairs = [(s, a) for s in range(4) for a in "fs"]
    tpost = DirichletPosterior({(s, a): (((s + 1) % 4,), np.array([2.0]))
                                for s, a in pairs if (s, a) not in missing})
    dpost = GammaPosterior({(s, a, (s + 1) % 4):
                            (1.5 if (s, a) in no_variance else 5.0, 1.0)
                            for s, a in pairs})
    return tpost, dpost


NO_MASS = (EmptyPredictiveRow,
           "pair (1,f) has no predictive mass inside the region")
NO_VARIANCE = (MomentUndefined, "Lomax variance needs shape > 2, got 1.5")


@pytest.mark.parametrize("missing, no_variance, want", [
    # a risk error whose triple is first kept after the empty copy (1,f),
    # and one whose triple is first kept before it
    ((), [(3, "f")], NO_MASS),
    ((), [(0, "s")], NO_VARIANCE),
    # a pool without a posterior row whose first copy comes after the
    # empty copy, and one whose first copy comes before it
    ([(3, "s")], (), NO_MASS),
    ([(0, "s")], (), (UntrackedPair, "pair (0,s) has no posterior")),
    # a pool without a posterior row after a risk error
    ([(3, "s")], [(0, "f")], NO_VARIANCE),
])
def test_build_raises_at_the_first_failing_copy(missing, no_variance, want):
    """Region {0, 1, 3} of cycle4: copy (1,f) keeps no candidate. The
    build raises the error a loop over the copies (0,f), (0,s), (1,f),
    (1,s), (3,f), (3,s) meets first."""
    p = cycle4_product()
    tpost, dpost = ring_posteriors(missing, no_variance)
    w = {0, 1, 3}
    w_p = [(i, a) for i in sorted(w) for a in "fs"]
    out, warned = assert_same_as_reference(p, w, w_p, tpost, dpost)
    assert out == want and warned == []


def test_build_warns_before_a_kept_successor_without_moments():
    """A copy that renormalizes and keeps a successor whose dwell
    predictive has no variance: the warning, then MomentUndefined."""
    p = risky3_product()
    i0 = p.initial
    safe_pid = next(i for i, (s, _f) in enumerate(p.states) if s == 1)
    tpost = DirichletPosterior({(0, "x"): ((1, 2), np.array([3.0, 1.0])),
                                (1, "x"): ((1,), np.array([3.0]))})
    dpost = GammaPosterior({(0, "x", 1): (1.5, 1.0), (0, "x", 2): (3.0, 1.0),
                            (1, "x", 1): (3.0, 1.0)})
    out, warned = assert_same_as_reference(
        p, {i0, safe_pid}, [(i0, "x"), (safe_pid, "x")], tpost, dpost)
    assert [msg for _, msg, _ in warned] == [
        f"pair ({i0},x): renormalized 0.25 predictive mass escaping the "
        "winning region"]
    assert out == NO_VARIANCE


def test_build_of_an_empty_w_p():
    """No winning pair: an empty model for an empty region, and
    NoAllowedAction for a winning state without a pair."""
    p = cycle4_product()
    tpost, dpost = ring_posteriors()
    out, warned = assert_same_as_reference(p, set(), [], tpost, dpost)
    assert out.pairs == [] and out.row_ptr.tolist() == [0]
    assert out.allowed == {} and warned == []
    out, _ = assert_same_as_reference(p, {2}, [], tpost, dpost)
    assert out == (NoAllowedAction, "winning state 2 has no winning pair")


# --- combining policies -----------------------------------------------------------

def test_combine_dispatch():
    p = risky3_product()
    w, _ = exact_winning_region(p)
    inside = next(iter(w))
    pi_win = {inside: "x"}
    pi_tr = {i: "x" for i in range(p.n_states) if i not in w}
    combined = combine_policy(p, w, pi_win, pi_tr)
    assert combined[inside] == "x"
    assert set(combined) == set(range(p.n_states))
    with pytest.raises(DomainGap):
        combine_policy(p, w, {}, pi_tr)


def test_combine_full_winning_region():
    p = cycle4_product()
    pi_win = {i: "f" for i in range(p.n_states)}
    combined = combine_policy(p, set(range(p.n_states)), pi_win, {})
    assert combined == pi_win


# --- exact policy evaluation ---------------------------------------------------------

def test_evaluate_self_loop():
    m = Smdp(1, ("a",), {(0, "a"): [(0, 1.0)]},
             {(0, "a", 0): Exponential(1.0)}, 0, ("c",), [0])
    p = build_product(m, trivial_monitor())
    v = evaluate_policy_risk(p, {0: "a"}, lambda i, a, j: 1.0, 0.9)
    assert v[0] == pytest.approx(10.0)


def test_evaluate_zero_discount_is_one_step_risk():
    p = cycle4_product()
    pi = {i: "s" for i in range(p.n_states)}
    risk = true_risk(p)
    v = evaluate_policy_risk(p, pi, risk, 0.0)
    for i in range(p.n_states):
        j = product_row(p, i, "s")[0][0]
        assert v[i] == pytest.approx(risk(i, "s", j))


def test_evaluate_rejects_leaving_policy():
    p = m1_product()
    with pytest.raises(PolicyLeavesW):
        evaluate_policy_risk(p, {p.initial: "b"}, lambda i, a, j: 1.0, 0.9)


def test_pi_win_exhaustively_optimal():
    p = cycle4_product()
    w = frozenset(range(p.n_states))
    w_p = [(i, a) for i in w for a in p.enabled(i)]
    risk = true_risk(p)
    rm = risk_model_from_product(p, w, w_p, risk, gamma_r=0.9)
    rq = risk_value_iteration(rm, tol=1e-12)
    pi_win = extract_pi_win(rm, rq)
    assert all(pi_win[i] == "f" for i in w)
    v_win = evaluate_policy_risk(p, pi_win, risk, 0.9)
    states = sorted(w)
    for choice in itertools.product(*(rm.allowed[i] for i in states)):
        pol = dict(zip(states, choice))
        v = evaluate_policy_risk(p, pol, risk, 0.9)
        for i in states:
            assert v_win[i] <= v[i] + 1e-9
    for i in states:
        assert v_win[i] == pytest.approx(min(rq.q[(i, a)]
                                             for a in rm.allowed[i]),
                                         abs=1e-6)


def test_rollouts_under_pi_win_take_less_risk():
    from smdpsynth.product import sample_product_step

    p = grid4_product(5)
    w, w_p = exact_winning_region(p)
    risk = true_risk(p)
    rm = risk_model_from_product(p, w, w_p, risk, gamma_r=0.9)
    rq = risk_value_iteration(rm)
    pi_win = extract_pi_win(rm, rq)

    def rollout(policy, seed, steps=10_000):
        rng = np.random.default_rng(seed)
        i = next(iter(sorted(w)))
        total = 0.0
        for _ in range(steps):
            a = policy(i, rng)
            j, _tau, _s2 = sample_product_step(p, i, a, rng)
            total += risk(i, a, j)
            i = j
        return total / steps

    greedy = rollout(lambda i, rng: pi_win[i], seed=5)
    uniform = rollout(
        lambda i, rng: rm.allowed[i][int(rng.integers(len(rm.allowed[i])))],
        seed=5)
    assert greedy < uniform
