import json

import numpy as np
import pytest
from scipy import stats

from smdpsynth import Empirical, Exponential, MomentUndefined
from smdpsynth.bayes import (
    DirichletPosterior, DwellPredictive, GammaPosterior, MeanPlusSigma,
    ObservationStore, Quantile, dwell_entropy, predictive_dwell,
    predictive_successors, predictive_transition, risk_of,
    transition_entropy, update_posteriors,
)
from smdpsynth.errors import (
    InvalidDistribution, InvalidObservation, SmdpsynthError, UntrackedPair,
    UntrackedTriple,
)

from conftest import dwell_stats, lomax_survival, posterior_triples, \
    successor_counts
from oracles import (
    ObservationStoreReference, dwell_entropy_reference,
    transition_entropy_reference, update_posteriors_reference,
)


def store_of(*obs):
    store = ObservationStore()
    for o in obs:
        store.append(*o)
    return store


# conjugate updates

def test_dirichlet_counts_added_to_prior():
    store = store_of((0, "a", 2, 1.0), (0, "a", 0, 1.0), (0, "a", 0, 1.0),
                     (0, "a", 1, 1.0), (0, "a", 2, 1.0))
    post, _ = update_posteriors(store, {(0, "a")})
    cands, conc = post.row(0, "a")
    assert cands == (0, 1, 2)
    assert conc.tolist() == [3.0, 2.0, 3.0]
    assert predictive_transition(post, 0, "a").tolist() == [3 / 8, 1 / 4,
                                                             3 / 8]


def test_gamma_counts_and_sums():
    store = store_of((0, "a", 1, 1.0), (0, "a", 1, 3.0))
    _, gpost = update_posteriors(store, {(0, "a")})
    assert gpost.params(0, "a", 1) == (4.0, 5.0)


def test_no_observations_returns_prior():
    """Candidates are observed successors, so a pair with no data keeps
    the prior over an empty support: a row with no candidates, which
    queries treat as untracked, and no dwell triple."""
    post, gpost = update_posteriors(ObservationStore(), {(0, "a")})
    assert post.to_json_dict() == {"0/a": {"candidates": [],
                                           "concentration": []}}
    assert gpost.to_json_dict() == {}
    with pytest.raises(UntrackedPair):
        predictive_transition(post, 0, "a")


def test_batch_equals_sequential():
    rng = np.random.default_rng(5)
    obs = [(0, "a", int(rng.integers(3)), float(rng.exponential()))
           for _ in range(50)]
    batch, gbatch = update_posteriors(store_of(*obs), {(0, "a")})
    for perm_seed in range(3):
        r = np.random.default_rng(perm_seed)
        shuffled = [obs[i] for i in r.permutation(len(obs))]
        post, gpost = update_posteriors(store_of(*shuffled), {(0, "a")})
        assert post.row(0, "a")[0] == batch.row(0, "a")[0]
        assert np.array_equal(post.row(0, "a")[1], batch.row(0, "a")[1])
        for t in posterior_triples(gbatch):
            assert gpost.params(*t) == pytest.approx(gbatch.params(*t))


def test_only_requested_pairs_tracked():
    store = store_of((0, "a", 1, 1.0), (1, "a", 0, 1.0))
    post, gpost = update_posteriors(store, {(0, "a")})
    with pytest.raises(UntrackedPair):
        predictive_transition(post, 1, "a")
    with pytest.raises(UntrackedTriple):
        predictive_dwell(gpost, 1, "a", 0)


def test_negative_dwell_rejected():
    store = ObservationStore()
    with pytest.raises(ValueError):
        store.append(0, "a", 1, -0.5)


@pytest.mark.parametrize("tau", [-0.5, float("nan"), float("inf"),
                                 float("-inf")])
def test_invalid_dwell_rejected_at_append(tau):
    """A NaN or infinite dwell would turn the Gamma rate into nan and only
    fail much later as NonfiniteRisk; append rejects it, naming the pair
    and the value, and records nothing."""
    store = store_of((0, "a", 1, 0.5))
    store.take_touched()
    with pytest.raises(InvalidObservation) as err:
        store.append(0, "a", 2, tau)
    assert isinstance(err.value, SmdpsynthError)
    assert isinstance(err.value, ValueError)
    assert "(0,a) -> 2" in str(err.value) and repr(tau) in str(err.value)
    assert len(store) == 1 and store.take_touched() == set()
    assert successor_counts(store, 0, "a") == {1: 1}


def test_store_matches_two_dict_reference():
    """Random append sequences on the one-dict store and the two-dict
    reference: same size, pairs, counts, dwell aggregates, touched pairs
    and posteriors, bit for bit, with and without pooling copies."""
    rng = np.random.default_rng(11)
    for trial in range(20):
        store, ref = ObservationStore(), ObservationStoreReference()
        pairs = [(s, a) for s in range(4) for a in ("a", "b")]
        for _ in range(int(rng.integers(1, 200))):
            s, a = pairs[int(rng.integers(len(pairs)))]
            s2 = int(rng.integers(4))
            tau = float(rng.exponential(1.0)) if rng.random() < 0.9 else 0.0
            store.append(s, a, s2, tau)
            ref.append(s, a, s2, tau)
            if rng.random() < 0.2:
                assert store.take_touched() == ref.take_touched()
        assert len(store) == len(ref)
        assert store.pairs() == ref.pairs()
        assert store.take_touched() == ref.take_touched()
        for s, a in pairs:
            assert ((s, a) in store) == ((s, a) in ref)
            assert successor_counts(store, s, a) == ref.successor_counts(s, a)
            for s2 in range(5):
                n, total = dwell_stats(store, s, a, s2)
                n_ref, total_ref = ref.dwell_stats(s, a, s2)
                assert n == n_ref and total.hex() == total_ref.hex()
        if trial % 2:
            # copies (s, a) of the stored pair (s % 4, a); some never occur
            copies = [(s, a) for s in range(12) for a in ("a", "b")]
            pool = lambda pair: (pair[0] % 4, pair[1])  # noqa: E731
            order = [copies[k] for k in rng.permutation(len(copies))[:10]]
        else:
            pool = None
            order = [pairs[k] for k in rng.permutation(len(pairs))]
        got = update_posteriors(store, order, pool=pool)
        want = update_posteriors_reference(ref, order, pool=pool)
        if pool:
            assert got[0].pairs() == set(map(pool, order))
        for post, post_ref in zip(got, want):
            assert json.dumps(post.to_json_dict()) == \
                json.dumps(post_ref.to_json_dict())


def test_store_hands_over_touched_pairs():
    store = ObservationStore()
    store.append(0, "a", 1, 0.5)
    store.append(0, "a", 2, 0.5)
    store.append(1, "b", 1, 0.5)
    assert store.take_touched() == {(0, "a"), (1, "b")}
    assert store.take_touched() == set()
    store.append(0, "a", 1, 0.5)
    assert store.take_touched() == {(0, "a")}
    assert (0, "a") in store and (1, "b") in store and (3, "a") not in store
    assert len(store) == 4 and successor_counts(store, 0, "a") == {1: 2, 2: 1}


def test_pool_builds_one_row_per_key_from_its_data():
    """With `pool`, the rows are the distinct keys of the given pairs, each
    built from that key's own data, whatever copies map to it."""
    store = store_of((0, "a", 1, 0.5), (0, "a", 1, 1.5), (0, "a", 2, 1.0),
                     (1, "a", 0, 2.0))
    copies = [(4, "a"), (8, "a"), (5, "a"), (9, "a")]
    post, gpost = update_posteriors(store, copies,
                                    pool=lambda pair: (pair[0] % 4, pair[1]))
    direct = update_posteriors(store, [(0, "a"), (1, "a")])
    assert post.to_json_dict() == direct[0].to_json_dict()
    assert gpost.to_json_dict() == direct[1].to_json_dict()
    assert post.row(0, "a")[1].tolist() == [3.0, 2.0]
    assert gpost.params(0, "a", 1) == (4.0, 3.0)
    assert gpost.params(1, "a", 0) == (3.0, 3.0)


def test_predictive_rows_are_distributions():
    rng = np.random.default_rng(9)
    store = ObservationStore()
    for _ in range(200):
        store.append(int(rng.integers(3)), "a", int(rng.integers(4)),
                     float(rng.exponential()))
    pairs = {(s, "a") for s in range(3)}
    post, _ = update_posteriors(store, pairs)
    for s in range(3):
        row = predictive_transition(post, s, "a")
        assert np.all(row >= 0)
        assert abs(row.sum() - 1.0) < 1e-12


def test_posterior_concentrates_on_true_row():
    true_row = np.array([0.5, 0.5])
    rng = np.random.default_rng(123)
    errs = []
    for n in (100, 1000, 10_000):
        store = ObservationStore()
        draws = rng.choice(2, size=n, p=true_row)
        for d in draws:
            store.append(0, "a", int(d), 1.0)
        post, _ = update_posteriors(store, {(0, "a")})
        assert predictive_successors(post, 0, "a") == (0, 1)
        row = predictive_transition(post, 0, "a")
        errs.append(0.5 * np.abs(row - true_row).sum())
    assert errs[2] < 0.02
    assert errs[2] < errs[0]


def test_dwell_predictive_concentrates_on_true_mean():
    rate = 4.0
    rng = np.random.default_rng(321)
    errs = []
    for n in (100, 1000, 10_000):
        store = ObservationStore()
        for tau in rng.exponential(1 / rate, size=n):
            store.append(0, "a", 1, float(tau))
        _, gpost = update_posteriors(store, {(0, "a")})
        mean = predictive_dwell(gpost, 0, "a", 1).mean()
        errs.append(abs(mean - 1 / rate) / (1 / rate))
    assert errs[2] < 0.05
    assert errs[2] < errs[0]


# predictive dwell (Lomax)

def test_lomax_mean_closed_form():
    store = store_of((0, "a", 1, 1.0), (0, "a", 1, 3.0))
    _, gpost = update_posteriors(store, {(0, "a")})
    assert predictive_dwell(gpost, 0, "a", 1).mean() == pytest.approx(5 / 3)


def test_lomax_mean_undefined_at_shape_one():
    with pytest.raises(MomentUndefined):
        DwellPredictive(shape=1.0, scale=5.0).mean()
    with pytest.raises(MomentUndefined):
        DwellPredictive(shape=0.5, scale=5.0).mean()


def test_lomax_variance_undefined_at_shape_two():
    with pytest.raises(MomentUndefined):
        DwellPredictive(shape=2.0, scale=1.0).variance()


def test_lomax_survival():
    d = DwellPredictive(shape=4.0, scale=5.0)
    assert lomax_survival(d, 0.0) == 1.0
    assert lomax_survival(d, 5.0) == pytest.approx(2.0 ** -4)
    assert d.survival_quantile(1.0) == 0.0


# entropies

def test_dirichlet_entropy_uniform_is_zero():
    post = DirichletPosterior({(0, "a"): ((0, 1), np.array([1.0, 1.0]))})
    assert transition_entropy(post, 0, "a") == pytest.approx(0.0, abs=1e-12)


def test_dirichlet_entropy_matches_scipy():
    store = store_of((0, "a", 0, 1.0), (0, "a", 1, 1.0), (0, "a", 1, 1.0),
                     (0, "a", 2, 1.0))
    post, _ = update_posteriors(store, {(0, "a")})
    _, conc = post.row(0, "a")
    assert transition_entropy(post, 0, "a") == pytest.approx(
        stats.dirichlet(conc).entropy())


def random_concentrations(rng):
    """Dirichlet concentrations of one to twelve candidates: the prior plus
    counts, as the learner builds them, or fractional values."""
    k = int(rng.integers(1, 13))
    if rng.random() < 0.5:
        return 1.0 + rng.poisson(rng.uniform(0.0, 40.0), size=k)
    return rng.uniform(0.05, 60.0, size=k)


def test_entropies_match_scipy_array_formula_bitwise():
    """Both entropies equal the SciPy array expressions bit for bit on
    100,000 random rows each, with a memo shared across calls and
    without one; rows of eight or more candidates take NumPy's pairwise
    sum."""
    rng = np.random.default_rng(41)
    memo, long_rows = {}, 0
    for _ in range(100_000):
        conc = random_concentrations(rng)
        long_rows += len(conc) >= 8
        post = DirichletPosterior({(0, "a"): (tuple(range(len(conc))), conc)})
        want = transition_entropy_reference(conc).hex()
        assert transition_entropy(post, 0, "a", memo).hex() == want
        if rng.random() < 0.1:
            assert transition_entropy(post, 0, "a").hex() == want
        shape = 2.0 + float(rng.integers(0, 60)) if rng.random() < 0.5 \
            else float(rng.uniform(0.05, 60.0))
        rate = float(rng.uniform(0.01, 500.0))
        gpost = GammaPosterior({(0, "a", 1): (shape, rate)})
        want = dwell_entropy_reference(shape, rate).hex()
        assert dwell_entropy(gpost, 0, "a", 1, memo).hex() == want
        if rng.random() < 0.1:
            assert dwell_entropy(gpost, 0, "a", 1).hex() == want
    assert long_rows > 10_000


@pytest.mark.parametrize("bad", [0.0, -1.5, np.nan, np.inf])
def test_entropies_reject_parameters_outside_the_domain(bad):
    """A concentration or shape that is not finite and positive raises
    InvalidDistribution naming it, where it used to give an inf or NaN
    entropy that failed only later, in the learner's action draw."""
    post = DirichletPosterior({(0, "a"): ((0, 1), np.array([2.0, bad]))})
    with pytest.raises(InvalidDistribution, match=f"argument {bad!r} "):
        transition_entropy(post, 0, "a")
    gpost = GammaPosterior({(0, "a", 1): (bad, 1.0)})
    memo = {}
    with pytest.raises(InvalidDistribution, match=f"argument {bad!r} "):
        dwell_entropy(gpost, 0, "a", 1, memo)
    assert memo == {}


def test_gamma_entropy_closed_form():
    # Gamma(k, rate b) has entropy k - log b + log G(k) + (1 - k) psi(k):
    # 1 + euler_gamma for the prior (2, 1), 2 euler_gamma for (3, 2)
    gpost = GammaPosterior({(0, "a", 1): (2.0, 1.0)})
    assert dwell_entropy(gpost, 0, "a", 1) == pytest.approx(
        1.0 + np.euler_gamma)
    assert dwell_entropy(gpost, 0, "a", 1) == pytest.approx(
        stats.gamma(2.0, scale=1.0).entropy())
    _, gpost2 = update_posteriors(store_of((0, "a", 1, 1.0)), {(0, "a")})
    assert gpost2.params(0, "a", 1) == (3.0, 2.0)
    assert dwell_entropy(gpost2, 0, "a", 1) == pytest.approx(
        2.0 * np.euler_gamma)


def test_entropy_decreases_with_data():
    store = store_of((0, "a", 0, 1.0), (0, "a", 1, 1.0))
    before, gbefore = update_posteriors(store, {(0, "a")})
    for _ in range(100):
        store.append(0, "a", 0, 1.0)
    after, gafter = update_posteriors(store, {(0, "a")})
    assert transition_entropy(after, 0, "a") < transition_entropy(before, 0, "a")
    assert dwell_entropy(gafter, 0, "a", 0) < dwell_entropy(gbefore, 0, "a", 0)
    assert dwell_entropy(gafter, 0, "a", 0) < 1.0


# risk functionals

def test_risk_functional_validation():
    with pytest.raises(ValueError):
        Quantile(0.0)
    with pytest.raises(ValueError):
        Quantile(1.5)
    with pytest.raises(ValueError):
        MeanPlusSigma(-0.1)
    with pytest.raises(ValueError):
        MeanPlusSigma(1.01)


def test_risk_exponential_closed_forms():
    d = Exponential(2.0)
    assert risk_of(d, MeanPlusSigma(1.0)) == pytest.approx(1.0)
    assert risk_of(d, MeanPlusSigma(0.0)) == pytest.approx(0.5)
    assert risk_of(d, Quantile(0.05)) == pytest.approx(1.4978661, abs=1e-6)


def test_risk_lomax_median_frozen():
    d = DwellPredictive(shape=4.0, scale=5.0)
    assert risk_of(d, Quantile(0.5)) == pytest.approx(0.946036, abs=1e-6)
    # numeric inversion of the survival function agrees
    ts = np.linspace(0, 10, 2_000_001)
    idx = int(np.searchsorted(-((1 + ts / 5.0) ** -4.0), -0.5))
    assert abs(ts[idx] - risk_of(d, Quantile(0.5))) < 1e-4


def test_risk_lomax_mean_plus_sigma_needs_moments():
    with pytest.raises(MomentUndefined):
        risk_of(DwellPredictive(shape=2.0, scale=1.0), MeanPlusSigma(0.5))
    v = risk_of(DwellPredictive(shape=4.0, scale=5.0), MeanPlusSigma(0.0))
    assert v == pytest.approx(5 / 3)


def test_risk_empirical():
    d = Empirical([1.0, 2.0, 3.0, 4.0])
    assert risk_of(d, MeanPlusSigma(0.0)) == pytest.approx(2.5)
    assert risk_of(d, MeanPlusSigma(1.0)) == pytest.approx(2.5 + np.sqrt(1.25))
    # survival drops below 0.5 exactly at the third sample
    assert risk_of(d, Quantile(0.5)) == 3.0
    # all samples positive: survival stays 1 until the smallest sample
    assert risk_of(d, Quantile(1.0)) == 1.0
    assert risk_of(d, Quantile(0.24)) == 4.0


def test_risk_quantile_against_sampling():
    d = Exponential(0.7)
    rng = np.random.default_rng(13)
    draws = rng.exponential(1 / 0.7, size=200_000)
    for alpha in (0.05, 0.3, 0.9):
        t = risk_of(d, Quantile(alpha))
        assert abs(np.mean(draws > t) - alpha) < 0.01


# export

def test_posterior_json_snapshot():
    store = store_of((0, "a", 1, 2.0), (0, "a", 1, 1.0))
    post, gpost = update_posteriors(store, {(0, "a")})
    doc = json.loads(json.dumps(
        {"transition": post.to_json_dict(), "dwell": gpost.to_json_dict()}))
    assert doc["transition"]["0/a"] == {"candidates": [1],
                                        "concentration": [3.0]}
    assert doc["dwell"]["0/a/1"] == {"shape": 4.0, "rate": 4.0}
