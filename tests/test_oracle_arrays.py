"""The exact oracle on flat arrays: the safety fixpoint, the greedy
transient extraction, the padded per-state minimum and maximum, and the
per-triple risks, against the scalar references in oracles.py."""

import time

import numpy as np
import pytest

import smdpsynth.experiment as E
from smdpsynth import build_pipeline, desk_config, paper_config
from smdpsynth.bayes import MeanPlusSigma, risk_of
from smdpsynth.product import (
    _best_actions, _pad, _row_values, _state_rows,
    exact_max_reach_probability, exact_winning_region,
)

from conftest import chain_product, grid4_product, product_dwell, \
    product_row, product_rows, random_product
from oracles import exact_winning_region_reference, greedy_transient_reference


@pytest.fixture(scope="module")
def presets():
    return {"grid4": grid4_product(5),
            "desk": build_pipeline(desk_config())[1],
            "paper": build_pipeline(paper_config())[1]}


def random_products(n_products=300, seed=5):
    """Random products against the K=0 monitor of "G !c", every third one
    with more c labels, so empty, partial and full regions all occur."""
    rng = np.random.default_rng(seed)
    for k in range(n_products):
        yield random_product(rng, n=int(rng.integers(3, 9)),
                             c_prob=(0.15, 0.3, 0.6)[k % 3])


def test_winning_region_matches_cascade_on_presets(presets):
    for p in presets.values():
        assert exact_winning_region(p) == exact_winning_region_reference(p)


def test_winning_region_matches_cascade_on_random_products():
    sizes = set()
    for p in random_products():
        w, w_p = exact_winning_region(p)
        assert (w, w_p) == exact_winning_region_reference(p)
        sizes.add("empty" if not w else "all" if len(w) == p.n_states
                  else "part")
    assert sizes == {"empty", "all", "part"}


def test_winning_region_edge_products():
    rng = np.random.default_rng(2)
    # every state labeled c: the initial state has read c already
    doomed = random_product(rng, c_prob=1.0)
    assert exact_winning_region(doomed) == (frozenset(), frozenset())
    # the never-accepting monitor: every state and pair wins
    free = random_product(rng)
    w, w_p = exact_winning_region(free)
    assert w == frozenset(range(free.n_states))
    assert w_p == frozenset(product_rows(free))
    for p in (doomed, free):
        assert exact_winning_region(p) == exact_winning_region_reference(p)


def test_safety_fixpoint_is_linear_on_a_deep_cascade():
    """A sweep per cascade level would take minutes here (50,000 levels
    over 100,000 successor entries); the worklist takes well under a
    second."""
    p = chain_product(50_000)
    assert p.n_states >= 50_000
    t0 = time.process_time()
    w, w_p = exact_winning_region(p)
    assert time.process_time() - t0 < 5.0
    assert w == frozenset() and w_p == frozenset()


def test_product_rows_never_repeat_a_successor(presets):
    """Two distinct model successors lift to two distinct product states,
    so the fixpoint may count each row entry as its own successor."""
    products = list(presets.values()) + list(random_products(100, seed=8))
    for p in products:
        for succs, _ in product_rows(p).values():
            assert len(set(succs)) == len(succs)


def test_row_values_equal_np_dot_on_presets(presets):
    """The preset rows are (1.0,) or (0.5, 0.5), whose products are exact,
    so the column-by-column sums give np.dot's value bit for bit. On
    random rows BLAS may fuse a multiply and an add, and the two sums can
    differ in the last bit."""
    products = [(p, True) for p in presets.values()] \
        + [(p, False) for p in random_products(60, seed=3)]
    for p, exact in products:
        v = np.random.default_rng(0).random(p.n_states)
        states = list(range(p.n_states))
        acts, succ, prob, _ = _state_rows(p, states)
        vals = _row_values(succ, prob, v)
        rows = [product_row(p, i, a) for i, row_acts in zip(states, acts)
                for a in row_acts]
        assert vals[-1] == -np.inf and len(vals) == len(rows) + 1
        for got, (succs, probs) in zip(vals.tolist(), rows):
            ref = float(np.dot(probs, v[list(succs)]))
            if exact:
                assert got == ref
            else:
                assert got == pytest.approx(ref, rel=1e-15, abs=0)


def test_greedy_actions_match_np_dot_reference(presets):
    """The same near-best action sets as one np.dot per row, on the
    presets and on random products, whose row values may differ from
    np.dot's in the last bit."""
    products = list(presets.values()) + list(random_products(100, seed=9))
    for p in products:
        w, _ = exact_winning_region(p)
        v_opt = exact_max_reach_probability(p, w)
        transient = [i for i in range(p.n_states) if i not in w]
        _, ref = greedy_transient_reference(p, w, v_opt)
        got = _best_actions(p, transient, v_opt, 1e-9)
        assert dict(zip(transient, got)) == ref


def test_oracle_transient_policy_matches_reference(presets):
    functional = MeanPlusSigma(1.0)
    for name in ("grid4", "desk"):
        p = presets[name]
        oracle = E.oracle_reference(p, functional, 0.9)
        _, ref = greedy_transient_reference(p, oracle["w"], oracle["v_opt"])
        assert oracle["pi_tr"] == {i: acts[0] for i, acts in ref.items()}
        assert {i: oracle["optimal"][i] for i in ref} \
            == {i: frozenset(acts) for i, acts in ref.items()}


@pytest.mark.parametrize("name, ufunc, fill", [("min", np.minimum, np.inf),
                                               ("max", np.maximum, -np.inf)])
def test_padded_min_max_equal_reduceat(name, ufunc, fill):
    rng = np.random.default_rng(4)
    for _ in range(200):
        lens = rng.integers(1, 6, size=int(rng.integers(1, 40)))
        n = int(lens.sum())
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        members = rng.permutation(n)
        starts = np.cumsum(lens) - lens
        ref = ufunc.reduceat(values[members], starts)
        padded = np.append(values, fill)[_pad(lens, members, n, np.intp)]
        got = getattr(padded, name)(axis=0)
        assert got.tobytes() == ref.tobytes()


def test_true_risk_computed_once_per_model_triple(presets, monkeypatch):
    p = presets["desk"]
    functional = MeanPlusSigma(1.0)
    calls = []

    def counted(dist, f):
        calls.append(dist)
        return risk_of(dist, f)

    monkeypatch.setattr(E, "risk_of", counted)
    fn = E.true_risk_fn(p, functional)
    triples = set()
    rows = product_rows(p)
    for (i, a), (succs, _) in rows.items():
        for j in succs:
            got = fn(i, a, j)
            assert got == risk_of(product_dwell(p, i, a, j), functional)
            triples.add((p.states[i][0], a, p.states[j][0]))
    assert len(calls) == len(triples) < sum(
        len(succs) for succs, _ in rows.values())
