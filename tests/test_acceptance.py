"""Release gates: the core guarantees checked end to end at full scale.

One test per gate, each printing a single summary line; budgets and
tolerances are pinned here. The large-grid preset check is opt-in via
SMDPSYNTH_PAPER_SCALE=1 because it runs for minutes.
"""

import itertools
import os
import time

import numpy as np
import pytest

from smdpsynth import (
    Exponential, LearnerConfig, MeanPlusSigma, ObservationStore,
    QLearnSchedule, RewardDiscountSpec, Smdp, build_pipeline,
    build_risk_model, combine_policy, evaluate_policy_risk,
    exact_max_reach_probability, exact_winning_region,
    extract_pi_tr, extract_pi_win, lasso_accepted_kcba, determinize_kcba,
    ltl_to_cba,
    paper_config, parse_ltl, policy_reach_probability, predictive_dwell,
    predictive_successors, predictive_transition, qlearn_transient,
    risk_model_from_product, risk_value_iteration, run_algorithm1,
    sample_product_step, sample_step, update_posteriors,
)
from smdpsynth.experiment import oracle_reference, top_up_observations, \
    true_risk_fn

from conftest import (
    cycle4_product, grid4_product, m1_model, m1_product, random_cba,
    risk_model,
)


def _monitor_accepts(d, stem, cycle):
    """Deterministic verdict on stem.cycle^omega: True iff the absorbing
    accepting sink is never entered. Stops once a cycle-start state repeats."""
    state = d.initial
    acc = d.accepting
    for s in stem:
        state = d.step(state, s)
        if state in acc:
            return False
    seen = set()
    while state not in seen:
        seen.add(state)
        for s in cycle:
            state = d.step(state, s)
            if state in acc:
                return False
    return True


@pytest.fixture(scope="module")
def automaton_suite():
    """100 random nondeterministic automata with their determinizations,
    plus the monitors used by the models in this suite."""
    rng = np.random.default_rng(20260816)
    suite = []
    for _ in range(100):
        aut = random_cba(rng, max_states=5, max_ap=2)
        k = int(rng.integers(0, 4))
        suite.append((aut, k, determinize_kcba(aut, k)))
    recurrence = ltl_to_cba(parse_ltl("G F a & G F b & G !c"),
                            ap=("a", "b", "c"))
    safety = ltl_to_cba(parse_ltl("G !c"), ap=("c",))
    for aut, k in ((recurrence, 0), (recurrence, 2), (recurrence, 5),
                   (safety, 0)):
        suite.append((aut, k, determinize_kcba(aut, k)))
    return suite


@pytest.fixture(scope="module")
def desk_pipeline():
    """Converged learning pipeline on the 4x4 grid at bound 5: exact
    winning region, trained transient policy, exact references."""
    p = grid4_product(5)
    w, w_p = exact_winning_region(p)
    res = run_algorithm1(p, LearnerConfig(episode_budget=20_000, step_cap=60,
                                          patience=250, min_tries=10,
                                          seed=11))
    assert res.converged and res.w == w and res.w_p == w_p
    # deep states are visited almost only via their forced episode starts,
    # so per-pair visit counts (hence the late-phase step size) are what
    # closes the last Q gaps; 4x the count any 8-seed-clean budget needs
    tq = qlearn_transient(p, w,
                          RewardDiscountSpec(gamma=0.9999, gamma_acc=0.9,
                                             r_n=-1.0),
                          QLearnSchedule(episodes=384_000, step_cap=400,
                                         seed=12))
    functional = MeanPlusSigma(1.0)
    return {
        "p": p, "w": w, "w_p": w_p, "res": res,
        "pi_tr": extract_pi_tr(p, w, tq),
        "functional": functional,
        "oracle": oracle_reference(p, functional, 0.9),
    }


def test_gate1_bounded_word_language_equivalence(automaton_suite):
    t0 = time.perf_counter()
    mismatches = lassos = 0
    for aut, k, d in automaton_suite[:100]:
        nl = aut.n_letters
        for length in range(1, 6):
            for word in itertools.product(range(nl), repeat=length):
                for cut in range(length):
                    lassos += 1
                    det = _monitor_accepts(d, word[:cut], word[cut:])
                    ref = lasso_accepted_kcba(aut, k, word[:cut], word[cut:])
                    mismatches += det != ref
    elapsed = time.perf_counter() - t0
    assert mismatches == 0
    assert elapsed < 60.0
    print(f"PASS gate 1: 0/{lassos} lasso verdicts disagree over "
          f"100 automata ({elapsed:.1f}s)")


def test_gate2_monitor_structural_soundness(automaton_suite):
    violations = 0
    for _, k, d in automaton_suite:
        nl, n = d.n_letters, d.n_states
        violations += len(d.delta) != n
        for row in d.delta:
            violations += len(row) != nl
            violations += any(not isinstance(t, int) or not 0 <= t < n
                              for t in row)
        if d.sink is None:
            violations += d.accepting != frozenset()
        else:
            violations += d.accepting != frozenset([d.sink])
            violations += any(d.delta[d.sink][s] != d.sink
                              for s in range(nl))
            violations += d.profiles[d.sink] is not None
        for i, prof in enumerate(d.profiles):
            if i == d.sink:
                continue
            violations += any(not -1 <= c <= d.bound for c in prof)
    assert violations == 0
    print(f"PASS gate 2: deterministic/complete/singleton-sink over "
          f"{len(automaton_suite)} automata, 0 violations")


def test_gate3_learner_recovers_exact_region_across_seeds():
    fixtures = [
        ("two-state", m1_product(),
         dict(episode_budget=2000, step_cap=20, patience=50, min_tries=5)),
        ("grid 4x4", grid4_product(5),
         dict(episode_budget=20_000, step_cap=60, patience=250,
              min_tries=10)),
    ]
    report = []
    for name, p, knobs in fixtures:
        w, w_p = exact_winning_region(p)
        exact = monotone = 0
        for seed in range(50):
            res = run_algorithm1(p, LearnerConfig(seed=seed, **knobs))
            exact += res.w == w and res.w_p == w_p
            monotone += res.monotone_violations
        assert exact >= 49, f"{name}: only {exact}/50 runs exact"
        assert monotone == 0
        report.append(f"{name} {exact}/50")
    print(f"PASS gate 3: exact winning region in {', '.join(report)} "
          f"seeded runs, 0 monotone violations")


@pytest.mark.skipif(not os.environ.get("SMDPSYNTH_PAPER_SCALE"),
                    reason="large preset; enable with SMDPSYNTH_PAPER_SCALE=1")
def test_gate3_large_preset_agreement_curve():
    cfg = paper_config()
    _, p = build_pipeline(cfg)
    _, w_p = exact_winning_region(p)
    res = run_algorithm1(p, cfg.learner_config(0), oracle_w_p=w_p)
    curve = [row["ind"] for row in res.progress if "ind" in row]
    assert curve, "agreement curve never recorded"
    assert all(b >= a - 1e-12 for a, b in zip(curve, curve[1:]))
    assert curve[-1] >= 0.95
    print(f"PASS gate 3 (large preset): agreement curve monotone, "
          f"final {curve[-1]:.3f} after {res.episodes} episodes")


def _posterior_errors(m, rng, n=10_000):
    pairs = [(s, a) for s in range(m.n_states) for a in m._enabled[s]]
    store = ObservationStore()
    for s, a in pairs:
        for _ in range(n):
            s2, tau = sample_step(m, s, a, rng)
            store.append(s, a, s2, tau)
    tpost, dpost = update_posteriors(store, pairs)
    worst_tv = worst_rel = 0.0
    for s, a in pairs:
        succs, probs = m.trans_row(s, a)
        est = dict(zip(predictive_successors(tpost, s, a),
                       predictive_transition(tpost, s, a)))
        true = dict(zip(succs, probs))
        worst_tv = max(worst_tv, 0.5 * sum(
            abs(est.get(k, 0.0) - true.get(k, 0.0))
            for k in set(est) | set(true)))
        for s2 in succs:
            mu = predictive_dwell(dpost, s, a, s2).mean()
            mu0 = m.dwell[(s, a, s2)].mean()
            worst_rel = max(worst_rel, abs(mu - mu0) / mu0)
    return worst_tv, worst_rel


def test_gate4_posterior_concentration_two_state_models():
    branchy = Smdp(
        2, ("a", "b"),
        {(0, "a"): [(0, 0.7), (1, 0.3)], (0, "b"): [(1, 1.0)],
         (1, "a"): [(0, 0.4), (1, 0.6)]},
        {(0, "a", 0): Exponential(1.0), (0, "a", 1): Exponential(3.0),
         (0, "b", 1): Exponential(2.0), (1, "a", 0): Exponential(0.5),
         (1, "a", 1): Exponential(1.0)},
        0, ("c",), [0, 0])
    rng = np.random.default_rng(4)
    worst_tv = worst_rel = 0.0
    for m in (m1_model(), branchy):
        tv, rel = _posterior_errors(m, rng)
        worst_tv, worst_rel = max(worst_tv, tv), max(worst_rel, rel)
    assert worst_tv < 0.02
    assert worst_rel < 0.05
    print(f"PASS gate 4: at 1e4 samples/pair, max TV {worst_tv:.4f} < 0.02, "
          f"max dwell-mean error {worst_rel:.2%} < 5%")


def test_gate5_transient_policy_near_optimal_reach(desk_pipeline):
    worst = 0.0
    cases = [(desk_pipeline["p"], desk_pipeline["w"],
              desk_pipeline["pi_tr"])]
    p1 = m1_product()
    w1, _ = exact_winning_region(p1)
    tq1 = qlearn_transient(p1, w1,
                           RewardDiscountSpec(gamma=0.9999, gamma_acc=0.9,
                                              r_n=-1.0),
                           QLearnSchedule(episodes=3000, step_cap=50,
                                          seed=3))
    cases.append((p1, w1, extract_pi_tr(p1, w1, tq1)))
    for p, w, pi_tr in cases:
        v_star = exact_max_reach_probability(p, w)
        v_pi = policy_reach_probability(p, pi_tr, w)
        worst = max(worst, max((v_star[i] - v_pi[i]
                                for i in range(p.n_states) if i not in w),
                               default=0.0))
    assert worst <= 0.02
    print(f"PASS gate 5: greedy transient policy within {worst:.4f} <= 0.02 "
          f"of the optimal reach probability at every transient state")


def test_gate6_risk_vi_exact_and_exhaustively_optimal():
    rm0 = risk_model({(0, "a"): ((0,), (1.0,))}, {(0, "a", 0): 1.0},
                     {0: ("a",)}, gamma_r=0.9)
    # the sweep stops at residual < tol, which leaves up to tol*g/(1-g)
    # to the fixed point; a tighter tol buys the closed-form match
    rq0 = risk_value_iteration(rm0, tol=1e-12)
    assert abs(rq0.q[(0, "a")] - 10.0) < 1e-9
    assert rq0.residual < 1e-9

    checked = 0
    for p in (cycle4_product(), m1_product()):
        w, w_p = exact_winning_region(p)
        risk = true_risk_fn(p, MeanPlusSigma(1.0))
        rm = risk_model_from_product(p, w, w_p, risk, gamma_r=0.9)
        rq = risk_value_iteration(rm)
        assert rq.residual < 1e-9
        pi_win = extract_pi_win(rm, rq)
        v_win = evaluate_policy_risk(p, pi_win, risk, 0.9)
        states = sorted(w)
        n_pol = int(np.prod([len(rm.allowed[i]) for i in states]))
        assert n_pol <= 10_000
        for choice in itertools.product(*(rm.allowed[i] for i in states)):
            v = evaluate_policy_risk(p, dict(zip(states, choice)), risk, 0.9)
            assert all(v_win[i] <= v[i] + 1e-9 for i in states)
            checked += 1
    print(f"PASS gate 6: residuals < 1e-9, self-loop value exact, greedy "
          f"risk policy pointwise optimal against {checked} enumerated "
          f"policies")


def test_gate7_pipeline_policy_stabilizes_with_data(desk_pipeline):
    p, w, w_p = (desk_pipeline[k] for k in ("p", "w", "w_p"))
    functional = desk_pipeline["functional"]
    oracle = desk_pipeline["oracle"]
    risk = true_risk_fn(p, functional)
    pool = lambda pair: (p.states[pair[0]][0], pair[1])
    by_scale = {}
    for scale in (100, 1000, 10_000):
        store = ObservationStore()
        top_up_observations(p, w_p, store, scale,
                            np.random.default_rng(scale))
        assert len(store) >= scale
        tpost, dpost = update_posteriors(store, sorted(w_p), pool=pool)
        rm = build_risk_model(p, w, w_p, tpost, dpost,
                              functional=functional, gamma_r=0.9)
        pi_win = extract_pi_win(rm, risk_value_iteration(rm))
        pi = combine_policy(p, w, pi_win, desk_pipeline["pi_tr"])
        frac = float(np.mean([pi[i] in oracle["optimal"][i]
                              for i in range(p.n_states)]))
        v = evaluate_policy_risk(p, pi_win, risk, 0.9)
        gap = max(abs(v[i] - oracle["v_risk"][i]) / abs(oracle["v_risk"][i])
                  for i in w)
        by_scale[scale] = (frac, gap)
    frac, gap = by_scale[10_000]
    assert frac >= 0.95
    assert gap <= 0.05
    trend = ", ".join(f"1e{int(np.log10(s))}: {f:.3f}"
                      for s, (f, _) in by_scale.items())
    print(f"PASS gate 7: oracle-optimal action fraction {trend}; at the "
          f"largest scale {frac:.3f} >= 0.95 with value gap {gap:.2%} <= 5%")


def test_gate8_combined_policy_never_hits_accepting(desk_pipeline):
    p, w, res = (desk_pipeline[k] for k in ("p", "w", "res"))
    rm = build_risk_model(p, w, res.w_p, res.transition_posterior,
                          res.dwell_posterior,
                          functional=desk_pipeline["functional"],
                          gamma_r=0.9)
    pi_win = extract_pi_win(rm, risk_value_iteration(rm))
    pi = combine_policy(p, w, pi_win, desk_pipeline["pi_tr"])
    rng = np.random.default_rng(21)
    starts = sorted(w)
    hits = 0
    for r in range(1000):
        i = starts[r % len(starts)]
        for _ in range(1000):
            i, _, _ = sample_product_step(p, i, pi[i], rng)
            if i in p.accepting:
                hits += 1
                break
    assert hits == 0
    print("PASS gate 8: 1000 rollouts of 1000 steps from every winning "
          "state, 0 entries into the accepting sink")
