import dataclasses
import hashlib
import json
from bisect import bisect_right

import numpy as np
import pytest

import smdpsynth.winning
from smdpsynth import (
    EmptyWinningCandidate, Exponential, InvalidDistribution, LearnerConfig,
    NoAllowedAction, Smdp, WinningLearner, build_pipeline, desk_config,
    determinize_kcba, exact_winning_region, ind_k, ltl_to_cba, paper_config,
    parse_ltl, run_algorithm1,
)
from smdpsynth.product import build_product
from smdpsynth.winning import UNSEEN_SCORE, _cdf, _np_sum, _softmax_probs

from conftest import (
    FixedRng, grid4_product, m1_model, m1_product, random_product,
    successor_counts,
)


def pid(p, i, a):
    """The pair id of (i, a)."""
    return int(p.pair_ids([(i, a)])[0])


def c_monitor(K=0):
    return determinize_kcba(ltl_to_cba(parse_ltl("G !c"), ap=("c",)), K)


def relabeled_m1(labels):
    m = m1_model()
    return Smdp(2, ("a", "b"),
                {(0, "a"): [(0, 1.0)], (0, "b"): [(1, 1.0)],
                 (1, "a"): [(1, 1.0)]},
                {(0, "a", 0): Exponential(1.0), (0, "b", 1): Exponential(2.0),
                 (1, "a", 1): Exponential(1.0)},
                0, m.ap, labels, names=m.names)


# --- config ----------------------------------------------------------------

def test_config_validation():
    for bad in [dict(posterior_period=0), dict(step_cap=0),
                dict(min_tries=-1)]:
        with pytest.raises(ValueError):
            LearnerConfig(**bad)


# --- softmax policy helper ---------------------------------------------------

def softmax(actions, scores, temperature, epsilon):
    """`_softmax_probs` keyed by action."""
    return dict(zip(actions, _softmax_probs(scores, temperature, epsilon)))


def test_softmax_equal_scores_no_mixing():
    dist = softmax(["a", "b"], [3.0, 3.0], 1.0, 0.0)
    assert dist == {"a": pytest.approx(0.5), "b": pytest.approx(0.5)}


def test_softmax_monotone_in_score():
    dist = softmax(["a", "b", "c"], [1.0, 2.0, 0.5], 1.0, 0.05)
    assert dist["b"] > dist["a"] > dist["c"]


def test_softmax_low_temperature_concentrates():
    dist = softmax(["hi", "lo"], [1.0, 0.0], 1e-6, 0.0)
    assert dist["hi"] == pytest.approx(1.0)
    assert dist["lo"] == pytest.approx(0.0)


def test_softmax_outmass_example():
    dist = softmax(["out", "in"], [1.0, 0.0], 0.1, 0.0)
    assert dist["in"] < 1e-4
    assert dist["out"] > 0.999


def test_softmax_is_distribution_with_mixing():
    rng = np.random.default_rng(3)
    for _ in range(30):
        k = int(rng.integers(1, 6))
        scores = rng.normal(size=k) * 10
        acts = list(range(k))
        dist = softmax(acts, scores, float(rng.uniform(0.05, 5)), 0.05)
        assert sum(dist.values()) == pytest.approx(1.0)
        assert all(v >= 0.05 / k - 1e-12 for v in dist.values())
        order = sorted(acts, key=lambda a: scores[a])
        probs = [dist[a] for a in order]
        assert all(x <= y + 1e-12 for x, y in zip(probs, probs[1:]))


def test_softmax_no_actions():
    """A state whose pairs have all left W_p^k gets no policy to draw
    from: `_explore` raises before any softmax."""
    p = m1_product()
    learner = WinningLearner(p, LearnerConfig(seed=0))
    mid = doomed_m1_state(p)
    learner.w_p.discard(pid(p, mid, "a"))
    with pytest.raises(NoAllowedAction):
        learner._explore(mid)


# --- action draw ---------------------------------------------------------------
# The draw must consume the generator exactly as the Generator.choice draw
# it replaced, or every seeded run (and the demo07 bundle) changes. The
# learner draws `bisect_right(_cdf(probs), rng.random())`, with `_cdf`
# memoized; `draw_index_reference` rebuilds the cumulative sums per draw.

def random_scores(rng, k):
    """Score vectors of the shapes the learner produces, and more: ties,
    unexplored pairs mixed with small entropies, rounded values with
    partial ties, wide spreads."""
    kind = int(rng.integers(4))
    if kind == 0:
        return [float(rng.uniform(-2, 2))] * k
    if kind == 1:
        return [UNSEEN_SCORE if rng.random() < 0.5
                else float(rng.uniform(-3, 0.5)) for _ in range(k)]
    if kind == 2:
        return [float(x) for x in np.round(rng.uniform(0, 1, size=k), 1)]
    return [float(x) for x in rng.normal(size=k) * 10]


def test_np_sum_matches_numpy_bitwise():
    rng = np.random.default_rng(2)
    for _ in range(20_000):
        n = int(rng.integers(1, 13))
        xs = rng.random(n) * 10.0 ** rng.integers(-8, 4, size=n)
        assert _np_sum(xs.tolist()).hex() == float(xs.sum()).hex()


def test_action_draw_matches_choice_reference():
    from oracles import (
        choice_action_reference, draw_index_reference,
        softmax_policy_reference,
    )
    gen = np.random.default_rng(7)
    for seed in range(5):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(400):
            k = int(gen.integers(1, 5))
            acts = list("abcd"[:k])
            scores = random_scores(gen, k)
            temperature = float(gen.uniform(0.05, 5))
            epsilon = (0.0, 0.05, float(gen.random()))[int(gen.integers(3))]
            dist = softmax_policy_reference(acts, scores, temperature,
                                            epsilon)
            probs = _softmax_probs(scores, temperature, epsilon)
            assert probs == list(dist.values())
            twin = np.random.default_rng()
            twin.bit_generator.state = rng.bit_generator.state
            got = bisect_right(_cdf(probs), rng.random())
            assert got == choice_action_reference(dist, ref)
            assert got == draw_index_reference(probs, twin)
            assert rng.bit_generator.state == ref.bit_generator.state \
                == twin.bit_generator.state


def test_action_draw_on_cumulative_boundaries():
    """A uniform draw exactly on a cumulative probability, or one ulp to
    either side, picks the index `Generator.choice` would: the same
    cumulative values, bit for bit, searched from the right."""
    from oracles import draw_index_reference
    gen = np.random.default_rng(11)
    for _ in range(300):
        k = int(gen.integers(1, 5))
        probs = _softmax_probs(random_scores(gen, k),
                               float(gen.uniform(0.05, 5)),
                               (0.0, 0.05)[int(gen.integers(2))])
        p = np.array(probs) / np.array(probs).sum()
        cdf = p.cumsum()
        cdf /= cdf[-1]
        assert _cdf(probs) == cdf.tolist()
        for c in cdf[:-1]:
            for u in (np.nextafter(c, 0.0), c, np.nextafter(c, 1.0)):
                assert bisect_right(_cdf(probs), float(u)) \
                    == draw_index_reference(probs, FixedRng(float(u))) \
                    == int(cdf.searchsorted(u, side="right"))


def test_learner_action_draw_matches_choice_reference():
    from oracles import choice_action_reference
    p = grid4_product(5)
    learner = WinningLearner(p, LearnerConfig(seed=13, step_cap=40))
    for _ in range(200):
        learner.run_episode()
    # some states have left W^k, and some still choose between actions
    assert len(learner.w) < p.n_states - len(p.accepting)
    assert any(len(learner._allowed(i)) > 1 for i in learner.w)
    learner.rng = np.random.default_rng(3)
    ref = np.random.default_rng(3)
    for i in sorted(learner.w) * 5:
        k = learner._sample_action(i)
        dist = explore(learner, i)
        a = list(dist)[choice_action_reference(dist, ref)]
        assert k == pid(p, i, a)
        assert learner.rng.bit_generator.state == ref.bit_generator.state


class CountingLearner(WinningLearner):
    """Records every drawn action and counts the exploration policies
    actually computed."""

    def __init__(self, *args, **kwargs):
        self.draws, self.computed = [], 0
        super().__init__(*args, **kwargs)

    def _explore(self, i):
        self.computed += 1
        return super()._explore(i)

    def _sample_action(self, i):
        k = super()._sample_action(i)
        self.draws.append((i, k))
        return k


class UnmemoizedLearner(CountingLearner):
    """Recomputes the exploration policy on every draw."""

    def _sample_action(self, i):
        self._draw_cache.clear()
        return super()._sample_action(i)


def test_action_draw_memo_skips_recomputation_bit_identically():
    p = grid4_product(5)
    cfg = LearnerConfig(seed=21, step_cap=60, posterior_period=1)
    memo, fresh = CountingLearner(p, cfg), UnmemoizedLearner(p, cfg)
    for learner in (memo, fresh):
        for _ in range(1000):
            learner.run_episode()
    assert memo.draws == fresh.draws
    assert list(memo.w_p) == list(fresh.w_p)
    assert memo.rng.bit_generator.state == fresh.rng.bit_generator.state
    assert fresh.computed == len(fresh.draws)
    skipped = len(memo.draws) - memo.computed
    assert 0.4 * len(memo.draws) < skipped < len(memo.draws)
    # the memo holds the state's policy and its cumulative weights
    learner = CountingLearner(p, cfg)
    i = next(iter(learner.w))
    learner._sample_action(i)
    pids, probs = learner._explore(i)
    assert learner._draw_cache[i] == (pids, probs, _cdf(probs))
    assert pids == [k for k in range(p.pair_ptr[i], p.pair_ptr[i + 1])
                    if k in learner.w_p]

    # debug_checks recompute the policy beside every draw, memoized or not
    checked = CountingLearner(p, dataclasses.replace(cfg, debug_checks=True))
    for _ in range(300):
        checked.run_episode()
    assert checked.draws == memo.draws[:len(checked.draws)]


@pytest.mark.parametrize("weights", [[0.5, float("nan")],
                                     [float("inf"), 1.0],
                                     [0.6, -0.1, 0.5], [0.0, 0.0]])
def test_action_draw_rejects_invalid_weights(weights):
    from oracles import draw_index_reference
    with pytest.raises(InvalidDistribution):
        _cdf(weights)
    rng = np.random.default_rng(0)
    with pytest.raises(InvalidDistribution):
        draw_index_reference(weights, rng)
    assert rng.bit_generator.state == np.random.default_rng(0) \
        .bit_generator.state
    probs = np.array(weights)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError):
        rng.choice(len(probs), p=probs / probs.sum())
    assert issubclass(InvalidDistribution, ValueError)


def test_nan_entropy_score_raises_instead_of_drawing(monkeypatch):
    p = grid4_product(5)
    learner = WinningLearner(p, LearnerConfig(seed=0))
    i = next(iter(learner.w))
    monkeypatch.setattr(learner, "_ent_score", lambda s, a: float("nan"))
    state = learner.rng.bit_generator.state
    with np.errstate(invalid="ignore"), pytest.raises(ValueError):
        learner._sample_action(i)
    assert learner.rng.bit_generator.state == state


# --- exit update ---------------------------------------------------------------
# The learner's exit update, on m1: the doomed state's lone pair exits W into
# the accepting sink. In the paper's Q terms the first exit update puts the
# pair's value below 0, so the pair leaves W_p^k at once.

def exit_learner():
    p = m1_product()
    learner = WinningLearner(p, LearnerConfig(step_cap=10, seed=0))
    return p, learner, doomed_m1_state(p), next(iter(p.accepting))


def test_q_update_fixed_point():
    """Pairs whose observed successors stay inside W^k are never removed."""
    p, learner, _, _ = exit_learner()
    for _ in range(50):
        learner.run_episode()
    i0 = p.initial
    assert pid(p, i0, "a") in learner.w_p and i0 in learner.w


def test_q_update_exit_drops_pair():
    """An episode that leaves W^k removes the pair it left by."""
    p, learner, mid, _ = exit_learner()
    learner._sample_start = lambda: (mid, pid(p, mid, "a"))
    learner.run_episode()
    assert learner.progress[-1]["steps"] == 1
    assert pid(p, mid, "a") not in learner.w_p and mid not in learner.w
    assert pid(p, p.initial, "a") in learner.w_p and p.initial in learner.w
    assert learner._zero_actions[mid] == 0
    learner._check_consistency()


def record_successors(monkeypatch):
    """Make the learner's sampler record the product successors it draws,
    as {(i, a): {j, ...}}, and return that dict."""
    seen = {}
    sample = smdpsynth.winning.sample_product_step

    def recorded(p, k, rng):
        step = sample(p, k, rng)
        pair = (int(p.owner[k]), p.pair_actions([k])[0])
        seen.setdefault(pair, set()).add(step[0])
        return step

    monkeypatch.setattr(smdpsynth.winning, "sample_product_step", recorded)
    return seen


def test_exit_keeps_pool_data_and_posterior_row(monkeypatch):
    """Observations belong to the model pair, which every copy shares: the
    pair that exits leaves W_p^k, but its pool keeps the counts and the
    posterior row built from them."""
    seen = record_successors(monkeypatch)
    p, learner, mid, _ = exit_learner()
    learner._sample_start = lambda: (mid, pid(p, mid, "a"))
    learner.run_episode()
    learner._refresh_posteriors()
    assert pid(p, mid, "a") not in learner.w_p
    (j,) = seen[(mid, "a")]
    s, s2 = p.states[mid][0], p.states[j][0]
    assert successor_counts(learner.store, s, "a") == {s2: 1}
    row = learner.tpost.to_json_dict()[f"{s}/a"]
    assert row == {"candidates": [s2], "concentration": [2.0]}
    learner._sample_start = lambda: (p.initial, None)
    for _ in range(20):
        learner.run_episode()
    learner._refresh_posteriors()
    assert successor_counts(learner.store, s, "a") == {s2: 1}
    assert learner.tpost.to_json_dict()[f"{s}/a"] == row
    learner._check_consistency()


# --- learner initialization ----------------------------------------------------

def test_init_excludes_exactly_accepting():
    p = m1_product()
    learner = WinningLearner(p, LearnerConfig(seed=0))
    assert set(learner.w) == set(range(p.n_states)) - p.accepting
    assert set(learner.w_p) == {pid(p, i, a) for i in range(p.n_states)
                                if i not in p.accepting
                                for a in p.enabled(i)}


def test_init_no_accepting_keeps_everything():
    p = build_product(relabeled_m1([0, 0]), c_monitor())
    learner = WinningLearner(p, LearnerConfig(seed=0))
    assert set(learner.w) == set(range(p.n_states))


def test_init_all_accepting_raises():
    from smdpsynth import OmegaAutomaton

    always_bad = determinize_kcba(
        OmegaAutomaton(("c",), [[(0,), (0,)]], 0, {0}), 0)
    p = build_product(relabeled_m1([0, 0]), always_bad)
    assert p.accepting == frozenset(range(p.n_states))
    with pytest.raises(EmptyWinningCandidate):
        WinningLearner(p, LearnerConfig(seed=0))


def test_init_sets_match_nested_loop_construction():
    """W^k, W_p^k, `_under` and `_zero_actions` start as a loop over the
    states and their enabled actions builds them, in its order (pair-id
    order), with Python ints for states; `_under` is a copy."""
    rng = np.random.default_rng(11)
    products = [build_pipeline(desk_config())[1],
                build_pipeline(paper_config())[1]]
    products += [random_product(rng, n=int(rng.integers(3, 9)),
                                actions=("x", "y", "z"), c_prob=c_prob)
                 for c_prob in (0.0, 0.3, 0.6) for _ in range(20)]
    checked = 0
    for p in products:
        w, w_p, zero, k = [], [], {}, 0
        for i in range(p.n_states):
            for a in p.enabled(i):
                if i not in p.accepting:
                    w_p.append(k)
                    assert p.pair_ids([(i, a)]).tolist() == [k]
                k += 1
            if i not in p.accepting:
                w.append(i)
                zero[i] = len(p.enabled(i))
        if not w:
            continue
        learner = WinningLearner(p, LearnerConfig(seed=0))
        assert list(learner.w) == w and list(learner.w_p) == w_p
        assert list(learner._under) == w_p
        assert list(learner._zero_actions.items()) == list(zero.items())
        assert all(type(i) is int for i in learner.w)
        assert all(type(k) is int for k in learner.w_p)
        learner._under.discard(w_p[0])
        assert w_p[0] in learner.w_p and list(learner.w_p) == w_p
        checked += 1
    assert checked > 50
    assert list(WinningLearner(products[0],
                               LearnerConfig(seed=0, min_tries=0))._under) \
        == []


# --- exploration policy on a live learner -------------------------------------

def explore(learner, i):
    """`_explore` at i as {action: probability}."""
    pids, probs = learner._explore(i)
    return dict(zip(learner.p.pair_actions(pids), probs))


def test_pi_ent_prefers_unseen():
    p = m1_product()
    learner = WinningLearner(p, LearnerConfig(seed=0))
    i0 = p.initial
    for _ in range(20):
        learner.store.append(p.states[i0][0], "a", 0, 1.0)
    learner._refresh_posteriors()
    dist = explore(learner, i0)
    assert dist["b"] > dist["a"]
    assert sum(dist.values()) == pytest.approx(1.0)


def doomed_m1_state(p):
    """The pid of the model state that reached c: its lone action is losing."""
    return next(i for i in range(p.n_states)
                if i not in p.accepting and i != p.initial)


def test_pi_ex_outside_region_raises():
    p = m1_product()
    learner = WinningLearner(p, LearnerConfig(seed=0))
    with pytest.raises(NoAllowedAction):
        learner._explore(next(iter(p.accepting)))


# --- full runs -------------------------------------------------------------------

def test_m1_learns_exact_region():
    p = m1_product()
    w, w_p = exact_winning_region(p)
    cfg = LearnerConfig(episode_budget=200, step_cap=25, seed=1)
    res = run_algorithm1(p, cfg, oracle_w_p=w_p)
    assert res.w == w
    assert res.w_p == w_p
    assert res.monotone_violations == 0
    assert not res.converged
    assert res.episodes == 200


def test_m1_converges_with_patience():
    p = m1_product()
    w, w_p = exact_winning_region(p)
    cfg = LearnerConfig(episode_budget=2000, step_cap=25, patience=30,
                        min_tries=5, seed=3, debug_checks=True)
    res = run_algorithm1(p, cfg)
    assert res.converged
    assert res.episodes < 2000
    assert res.w == w and res.w_p == w_p
    assert len(res.store) == sum(row["steps"] for row in res.progress)


def test_unreachable_accepting_converges_at_start():
    p = build_product(relabeled_m1([0, 0]), c_monitor())
    cfg = LearnerConfig(episode_budget=5000, step_cap=10, patience=20,
                        min_tries=1, seed=0)
    res = run_algorithm1(p, cfg)
    assert res.converged
    assert res.w == frozenset(range(p.n_states))
    assert res.w_p == frozenset((i, a) for i in range(p.n_states)
                                for a in p.enabled(i))
    assert all(row["w"] == p.n_states for row in res.progress)


def test_m1_posterior_concentrates_on_safe_loop():
    from smdpsynth import predictive_successors, predictive_transition

    p = m1_product()
    cfg = LearnerConfig(episode_budget=100, step_cap=25, seed=5)
    res = run_algorithm1(p, cfg)
    model_pair = (p.states[p.initial][0], "a")
    cands = predictive_successors(res.transition_posterior, *model_pair)
    row = predictive_transition(res.transition_posterior, *model_pair)
    assert cands == (0,)
    assert row[0] == pytest.approx(1.0)


def test_grid4_reaches_full_agreement():
    p = grid4_product(5)
    w, w_p = exact_winning_region(p)
    cfg = LearnerConfig(seed=7, episode_budget=20000, step_cap=60,
                        patience=250, min_tries=10)
    res = run_algorithm1(p, cfg, oracle_w_p=w_p)
    assert res.converged
    assert res.w == w
    assert res.w_p == w_p
    assert res.monotone_violations == 0
    inds = [row["ind"] for row in res.progress]
    assert inds[-1] == 1.0
    assert all(x <= y + 1e-12 for x, y in zip(inds, inds[1:]))
    assert len(res.store) == sum(row["steps"] for row in res.progress)


def test_grid4_incremental_sets_match_reference():
    """debug_checks re-derives W^k and the per-state W_p^k action counts
    every episode."""
    p = grid4_product(5)
    cfg = LearnerConfig(seed=7, episode_budget=300, step_cap=60,
                        debug_checks=True)
    res = run_algorithm1(p, cfg)
    assert res.episodes == 300 and res.monotone_violations == 0
    assert len(res.w_p) < sum(len(p.enabled(i)) for i in range(p.n_states)
                              if i not in p.accepting)


def test_paper_preset_refreshes_match_full_rebuild():
    """debug_checks compares every incremental refresh with a full rebuild;
    the paper preset has about 224 product copies per model pair."""
    cfg = paper_config()
    _, p = build_pipeline(cfg)
    lc = dataclasses.replace(cfg.learner_config(5), episode_budget=40,
                             debug_checks=True)
    res = run_algorithm1(p, lc)
    assert res.episodes == 40 and res.monotone_violations == 0
    assert len(res.store) > 0


def test_consistency_check_flags_action_count_drift():
    p, learner, _, _ = exit_learner()
    learner._zero_actions[p.initial] += 1
    with pytest.raises(AssertionError, match="action counts"):
        learner._check_consistency()


def test_consistency_check_flags_accepting_state():
    p, learner, _, acc = exit_learner()
    learner.w.add(acc)
    learner.w_p.add(pid(p, acc, p.enabled(acc)[0]))
    with pytest.raises(AssertionError, match="accepting"):
        learner._check_consistency()


def test_learner_sound_on_random_products(monkeypatch):
    """W^k contains W and W_p^k contains W_p, and every pair the learner
    dropped has an observed successor outside W^k: a removal needs a
    transition that really occurred."""
    seen = record_successors(monkeypatch)
    rng = np.random.default_rng(2024)
    removed = 0
    for c_prob in (0.15, 0.3):
        seed = 0
        while seed < 25:
            p = random_product(rng, c_prob=c_prob)
            if len(p.accepting) == p.n_states:
                continue
            w, w_p = exact_winning_region(p)
            seen.clear()
            learner = WinningLearner(p, LearnerConfig(
                episode_budget=200, step_cap=30, seed=seed,
                debug_checks=True))
            res = learner.run()
            assert res.w >= w and res.w_p >= w_p
            assert res.monotone_violations == 0
            assert p.pair_ids(res.w_p).tolist() == sorted(learner.w_p)
            for i in set(range(p.n_states)) - p.accepting:
                for a in p.enabled(i):
                    if (i, a) not in res.w_p:
                        removed += 1
                        assert any(j not in res.w for j in seen[(i, a)])
            seed += 1
    assert removed > 0


def test_runs_are_deterministic_per_seed():
    p = m1_product()
    cfg = LearnerConfig(episode_budget=60, step_cap=20, seed=11)
    r1 = run_algorithm1(p, cfg)
    r2 = run_algorithm1(p, cfg)
    assert r1.w_p == r2.w_p
    assert r1.w == r2.w
    assert [row["steps"] for row in r1.progress] \
        == [row["steps"] for row in r2.progress]


# Hashes of the per-episode (|W^k|, |W_p^k|, steps) rows and
# the final W_p^k of seeded runs. How the learner stores its sets may
# change; which draws and removals it makes, and in what order, may not.
PINNED_GRID4_TRAJECTORIES = {
    0: "c5a00e18f242d1dca8e2809bcecf5f9929294ad4db9c0718af642271f4d1f527",
    1: "9c8e7c7fca27be2bfa3c8d2bffcf37ffd3d2219c6094622b3019aea4955f1b1c",
    2: "42667ebfd55e25a92898db66338850a6df8bb1acc97941017040a0d948be8a88",
}
PINNED_PAPER_TRAJECTORY = \
    "5faadfc524492fdf454112c087f3f212bbb814e273657e1c8493f954cbc21d9b"


def trajectory_digest(res):
    doc = {"rows": [[row["w"], row["w_p"], row["steps"]]
                    for row in res.progress],
           "w_p": sorted([i, a] for i, a in res.w_p)}
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


@pytest.mark.parametrize("seed", sorted(PINNED_GRID4_TRAJECTORIES))
def test_grid4_trajectory_is_pinned(seed):
    cfg = LearnerConfig(seed=seed, episode_budget=2000, step_cap=60,
                        patience=250, min_tries=10)
    res = run_algorithm1(grid4_product(5), cfg)
    assert res.converged
    assert trajectory_digest(res) == PINNED_GRID4_TRAJECTORIES[seed]


def test_paper_trajectory_is_pinned():
    cfg = paper_config()
    _, p = build_pipeline(cfg)
    res = run_algorithm1(p, dataclasses.replace(cfg.learner_config(1),
                                                episode_budget=100))
    assert res.episodes == 100 and not res.converged
    assert trajectory_digest(res) == PINNED_PAPER_TRAJECTORY


def test_progress_rows_schema():
    p = m1_product()
    _, w_p = exact_winning_region(p)
    res = run_algorithm1(p, LearnerConfig(episode_budget=30, step_cap=10,
                                          seed=2), oracle_w_p=w_p)
    assert len(res.progress) == res.episodes
    for row in res.progress:
        assert {"episode", "w", "w_p", "steps", "wall", "ind"} <= set(row)
        assert 0 < row["ind"] <= 1.0 or np.isnan(row["ind"])


def test_ind_k_values():
    assert ind_k({1, 2}, {1, 2, 3, 4}) == pytest.approx(0.5)
    with pytest.raises(ZeroDivisionError):
        ind_k({1}, set())


def test_policies_stay_valid_during_learning():
    p = grid4_product(5)
    cfg = LearnerConfig(seed=13, episode_budget=300, step_cap=40)
    learner = WinningLearner(p, cfg)
    for _ in range(300):
        learner.run_episode()
    rng = np.random.default_rng(0)
    states = list(learner.w)
    for _ in range(12):
        i = states[int(rng.integers(len(states)))]
        dist = explore(learner, i)
        assert sum(dist.values()) == pytest.approx(1.0)
        acts = sorted(dist, key=lambda a: learner._ent_score(p._s_of[i], a))
        probs = [dist[a] for a in acts]
        assert all(x <= y + 1e-12 for x, y in zip(probs, probs[1:]))


def test_debug_checks_compare_action_draw_without_drawing(monkeypatch):
    p = grid4_product(5)
    cfg = LearnerConfig(seed=13, episode_budget=150, step_cap=40)
    plain = run_algorithm1(p, cfg)
    checked = run_algorithm1(p, dataclasses.replace(cfg, debug_checks=True))
    assert checked.w_p == plain.w_p
    assert [row["steps"] for row in checked.progress] \
        == [row["steps"] for row in plain.progress]

    # a memoized draw that no longer matches a fresh `_explore` is caught
    # before the draw
    learner = WinningLearner(p, dataclasses.replace(cfg))
    learner._sample_action(p.initial)
    learner.cfg.debug_checks = True
    exact = learner._explore

    def nudged(i):
        pids, probs = exact(i)
        return pids, [float(np.nextafter(v, 2.0)) for v in probs]

    monkeypatch.setattr(learner, "_explore", nudged)
    state = learner.rng.bit_generator.state
    with pytest.raises(AssertionError, match="exploration policy"):
        learner._sample_action(p.initial)
    assert learner.rng.bit_generator.state == state
