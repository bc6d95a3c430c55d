import copy
import pickle

import numpy as np
import pytest

import smdpsynth.product
from smdpsynth import (
    ActionNotEnabled, AlphabetMismatch, Empirical, Exponential, NotConverged,
    OmegaAutomaton, Smdp, UnknownState, build_pipeline, desk_config,
    determinize_kcba, ltl_to_cba, paper_config, parse_ltl, run_algorithm1,
    sample_step,
)
from smdpsynth.product import (
    PairSet, build_product, exact_max_reach_probability,
    exact_winning_region, policy_reach_probability, sample_product_step,
)

from conftest import (
    grid4_model, grid4_product, m1_model, m1_product, product_row,
    product_rows, random_product,
)
from oracles import lift_reference


def safety_monitor(ap=("c",), K=0):
    return determinize_kcba(ltl_to_cba(parse_ltl("G !c"), ap=ap), K)


def as_trans_dict(p):
    return {(i, a): list(zip(*row)) for (i, a), row in product_rows(p).items()}


# construction

def test_alphabet_must_match():
    with pytest.raises(AlphabetMismatch):
        build_product(grid4_model(), safety_monitor(ap=("c",)))


def test_m1_product_shape():
    p = m1_product()
    assert p.n_states <= 2 * p.d.n_states
    assert p.initial == 0
    assert p.states[0][0] == 0
    # entering s1 reads the c label and trips the monitor
    assert any(i in p.accepting for i, (s, _) in enumerate(p.states)
               if s == 1)


def test_m1_winning_region_exact():
    p = m1_product()
    w, w_p = exact_winning_region(p)
    assert w == {p.initial}
    assert w_p == {(p.initial, "a")}


def test_initial_label_consumed_before_start():
    # relabel s0 with c: the initial automaton component has already read
    # the c and the run is doomed, so the winning region is empty
    trans = {(0, "a"): [(0, 1.0)]}
    dwell = {(0, "a", 0): Exponential(1.0)}
    m = Smdp(1, ("a",), trans, dwell, 0, ("c",), [1])
    d = safety_monitor()
    p = build_product(m, d)
    assert p.states[p.initial][1] == d.step(d.initial, 1)
    assert p.states[p.initial][1] != d.initial
    w, w_p = exact_winning_region(p)
    assert w == frozenset() and w_p == frozenset()


def test_trivial_monitor_product_isomorphic():
    # one non-accepting absorbing automaton state: product mirrors the model
    base = OmegaAutomaton(("a", "b", "c"), [[(0,)] * 8], 0, set())
    d = determinize_kcba(base, 0)
    m = grid4_model()
    p = build_product(m, d)
    assert p.n_states == m.n_states
    assert p.accepting == frozenset()
    for (i, a), (succs, probs) in product_rows(p).items():
        ms, mp = m.trans_row(p.states[i][0], a)
        assert tuple(p.states[j][0] for j in succs) == ms and probs == mp


def test_grid_product_rows_stochastic():
    p = grid4_product(K=5)
    for (i, a), (succs, probs) in product_rows(p).items():
        assert abs(sum(probs) - 1.0) <= 1e-9
        assert len(set(succs)) == len(succs)


def test_product_dwell_inherited():
    p = m1_product()
    (succs, _) = product_row(p, p.initial, "b")
    s, s2 = p._s_of[p.initial], p._s_of[succs[0]]
    d = p.m.dwell[(s, "b", s2)]
    assert d.kind == "exponential" and d.rate == 2.0


def assert_row_lift_matches_reference(p):
    """The lift of position c of a pair's model row, the entry at c of
    its product row, is `lift_reference`'s, for every pair and every model
    successor in its row."""
    for k, q in enumerate(p.pair_model.tolist()):
        i, lo = int(p.owner[k]), p.model_row_ptr[q]
        for c, s2 in enumerate(
                p.model_succ[lo:p.model_row_ptr[q + 1]].tolist()):
            assert int(p.succ[p.row_ptr[k] + c]) == lift_reference(p, i, s2)


def test_lift_matches_product_rows():
    """On grid4; `assert_matches_fifo_reference` checks the presets and
    the random products."""
    assert_row_lift_matches_reference(grid4_product(K=5))


def assert_sampler_matches_reference(p, pairs, seed, draws):
    """The same transitions, dwells and generator state after every draw."""
    from oracles import sample_product_step_reference
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for i, a in pairs:
        for _ in range(draws):
            assert sample_product_step(p, i, a, rng) \
                == sample_product_step_reference(p, i, a, ref)
            assert rng.bit_generator.state == ref.bit_generator.state


def test_sampler_matches_cumsum_reference():
    p = build_pipeline(desk_config())[1]
    for seed in (0, 1, 97):
        assert_sampler_matches_reference(p, sorted(product_rows(p)), seed,
                                         4)


def test_sampler_matches_cumsum_reference_on_paper_pairs():
    p = build_pipeline(paper_config())[1]
    keys = sorted(product_rows(p))
    rng = np.random.default_rng(5)
    pairs = [keys[int(k)] for k in rng.choice(len(keys), size=3000,
                                               replace=False)]
    assert_sampler_matches_reference(p, pairs, 97, 3)


def test_sampler_matches_reference_on_random_products():
    """Rows of one to three successors with arbitrary probabilities, where
    a draw can land on any position of the row."""
    for seed in range(20):
        p = random_product(np.random.default_rng(seed))
        assert_sampler_matches_reference(p, sorted(product_rows(p)), seed,
                                         20)


def test_sampler_errors():
    p = grid4_product(K=5)
    rng = np.random.default_rng(0)
    with pytest.raises(UnknownState):
        sample_product_step(p, p.n_states, "UL", rng)
    with pytest.raises(ActionNotEnabled):
        sample_product_step(p, p.initial, "nope", rng)
    assert rng.bit_generator.state == np.random.default_rng(0) \
        .bit_generator.state


def mixed_dwell_product(rng):
    """A random product whose dwells mix Exponential and Empirical
    distributions, against the K=0 monitor of "G !c"; states enable a
    prefix of three actions."""
    n, actions = int(rng.integers(3, 8)), ("x", "y", "z")
    trans, dwell = {}, {}
    for s in range(n):
        for a in actions[:int(rng.integers(1, 4))]:
            k = int(rng.integers(1, 4))
            succs = [int(t) for t in rng.choice(n, size=k, replace=False)]
            trans[(s, a)] = list(zip(succs, rng.dirichlet(np.ones(k))))
            for t in succs:
                dwell[(s, a, t)] = Exponential(rng.uniform(0.1, 5.0)) \
                    if rng.random() < 0.5 else Empirical(
                        rng.uniform(0.0, 3.0, size=int(rng.integers(1, 5))))
    labels = [int(rng.random() < 0.3) for _ in range(n)]
    m = Smdp(n, actions, trans, dwell, 0, ("c",), labels)
    return build_product(m, safety_monitor())


def test_sampler_matches_model_sampler_on_random_products():
    """Every product draw is the model's draw from the copy's model state,
    lifted: the same successor, dwell and generator state after every
    draw, Empirical dwells included, and the same typed error, drawing
    nothing, for a bad state or action."""
    gen = np.random.default_rng(8)
    for seed in range(200):
        p = mixed_dwell_product(gen)
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        pairs = [(i, a) for i in range(p.n_states) for a in p.enabled(i)]
        for k in gen.integers(len(pairs), size=40).tolist():
            i, a = pairs[k]
            j, tau, s2 = sample_product_step(p, i, a, rng)
            assert (s2, tau) == sample_step(p.m, p.states[i][0], a, ref)
            assert j == lift_reference(p, i, s2) and type(j) is int
            assert rng.bit_generator.state == ref.bit_generator.state
        for i, s, a in [(p.n_states, p.m.n_states, "x"), (-1, -1, "x"),
                        (0, 0, "nope")] + [
                (i, p.states[i][0], b) for i in range(p.n_states)
                for b in ("y", "z") if b not in p.enabled(i)][:2]:
            for draw, args in [(sample_product_step, (p, i, a, rng)),
                               (sample_step, (p.m, s, a, ref))]:
                with pytest.raises((UnknownState, ActionNotEnabled)) as err:
                    draw(*args)
                assert err.type is (UnknownState if a == "x"
                                    else ActionNotEnabled)
        assert rng.bit_generator.state == ref.bit_generator.state


def test_build_deterministic():
    p1, p2 = grid4_product(K=5), grid4_product(K=5)
    assert p1.states == p2.states
    assert product_rows(p1) == product_rows(p2)
    assert p1.accepting == p2.accepting


# the flat layout against the FIFO breadth-first reference

def varied_products(n_products, seed):
    """Random products with one to three actions, against the
    never-accepting monitor or the K=0 and K=2 monitors of "G !c", with
    several label densities."""
    rng = np.random.default_rng(seed)
    for k in range(n_products):
        actions = ("x", "y", "z")[:int(rng.integers(1, 4))]
        c_prob = (0.0, 0.1, 0.3, 0.6)[k % 4]
        p = random_product(rng, n=int(rng.integers(3, 10)), actions=actions,
                           c_prob=c_prob)
        if k % 8 == 5:      # same model, a monitor that counts to 2
            p = build_product(p.m, safety_monitor(K=2))
        yield p


def assert_matches_fifo_reference(p):
    from oracles import product_reference
    states, _, accepting, rows = product_reference(p.m, p.d)
    assert p.states == states
    assert p.n_states == len(states) and p.accepting == accepting
    got = product_rows(p)
    assert list(got.items()) == list(rows.items())
    for (i, a), (succs, probs) in rows.items():
        assert all(type(j) is int for j in got[(i, a)][0])
    assert_row_lift_matches_reference(p)


def assert_layout_invariants(p):
    """Pairs in state order, then in each state's action order; rows in
    model-row order; every product edge lifts its model edge."""
    owner, pair_ptr, row_ptr = p.owner, p.pair_ptr, p.row_ptr
    assert (np.diff(owner) >= 0).all()
    assert (np.diff(pair_ptr) >= 1).all() and (np.diff(row_ptr) >= 1).all()
    assert pair_ptr[0] == 0 and pair_ptr[-1] == len(owner)
    assert row_ptr[0] == 0 and row_ptr[-1] == len(p.succ) == len(p.edge)
    assert owner.tolist() == np.repeat(np.arange(p.n_states),
                                       np.diff(pair_ptr)).tolist()
    for i in range(p.n_states):
        s = p.states[i][0]
        ks = range(pair_ptr[i], pair_ptr[i + 1])
        assert [p.model_pairs[p.pair_model[k]] for k in ks] \
            == [(s, a) for a in p.enabled(i)]
        assert p.pair_ids((i, a) for a in p.enabled(i)).tolist() == list(ks)
        for k in ks:
            q = p.pair_model[k]
            lo, hi = p.model_row_ptr[q], p.model_row_ptr[q + 1]
            edges = p.edge[row_ptr[k]:row_ptr[k + 1]]
            assert edges.tolist() == list(range(lo, hi))
            assert [p.states[j][0] for j in p.succ[row_ptr[k]:row_ptr[k + 1]]] \
                == p.model_succ[edges].tolist()


def test_flat_build_matches_fifo_reference_on_presets():
    for p in (grid4_product(K=5), build_pipeline(desk_config())[1],
              build_pipeline(paper_config())[1]):
        assert_matches_fifo_reference(p)
        assert_layout_invariants(p)


def test_flat_build_matches_fifo_reference_on_random_products():
    sizes = set()
    for p in varied_products(240, seed=31):
        assert_matches_fifo_reference(p)
        assert_layout_invariants(p)
        sizes.add((len(p.m.actions), p.n_states > p.m.n_states))
    assert sizes == {(n, grown) for n in (1, 2, 3) for grown in (False, True)}


def assert_pair_ids_match_per_pair_arithmetic(p, rng):
    """pair_ids of every pair, in a random order, against the per-pair
    arithmetic it replaces: the state's first pair plus the action's
    place among the state's enabled actions."""
    pairs = [(i, a) for i in range(p.n_states) for a in p.enabled(i)]
    pairs = [pairs[k] for k in rng.permutation(len(pairs))]
    ids = p.pair_ids(pairs)
    assert ids.dtype == np.intp
    assert ids.tolist() == [int(p.pair_ptr[i]) + p.enabled(i).index(a)
                            for i, a in pairs]


def test_pair_ids_match_per_pair_arithmetic():
    rng = np.random.default_rng(5)
    for p in (build_pipeline(desk_config())[1],
              build_pipeline(paper_config())[1]):
        assert_pair_ids_match_per_pair_arithmetic(p, rng)
    for p in varied_products(300, seed=43):
        assert_pair_ids_match_per_pair_arithmetic(p, rng)


def test_pair_ids_of_no_pairs_is_an_empty_intp_array():
    p = m1_product()
    for pairs in ([], (), set(), iter(())):
        ids = p.pair_ids(pairs)
        assert ids.dtype == np.intp and ids.shape == (0,)


def test_pair_ids_name_the_first_bad_pair():
    """m1's product: state 0 enables a and b, the absorbing state only a."""
    p = m1_product()
    sink = next(i for i in range(p.n_states) if p.enabled(i) == ("a",))
    good = [(0, "b"), (sink, "a")]
    with pytest.raises(UnknownState, match=f"product state {p.n_states} "):
        p.pair_ids(good + [(p.n_states, "a"), (sink, "b")])
    with pytest.raises(UnknownState, match="product state -1 "):
        p.pair_ids(good + [(-1, "a")])
    with pytest.raises(ActionNotEnabled, match=f"action 'b' not enabled in "
                       f"product state {sink}"):
        p.pair_ids(good + [(sink, "b"), (p.n_states, "a")])
    with pytest.raises(ActionNotEnabled, match="action 'nope' not enabled"):
        p.pair_ids(good + [(0, "nope")])


def test_pair_set_hands_its_ids_to_pair_ids(monkeypatch):
    """A PairSet equals and hashes as the frozenset of its pairs and
    carries their sorted ids, which its own product's `pair_ids` returns
    as the tuple path would, sorted; another product, or a set operation,
    reads tuples. Comparisons within one product read no tuple."""
    rng = np.random.default_rng(17)
    products = [build_pipeline(desk_config())[1]] + list(
        varied_products(40, seed=53))
    for p, other in zip(products, products[1:] + products[:1]):
        ids = rng.permutation(len(p.owner))[:int(rng.integers(len(p.owner)
                                                              + 1))]
        ws = p.pair_set(ids)
        pairs = [(int(p.owner[k]), p.pair_actions([k])[0]) for k in ids]
        assert type(ws) is PairSet and ws == frozenset(pairs)
        assert hash(ws) == hash(frozenset(ws)) == hash(frozenset(pairs))
        assert p.pair_ids(ws) is ws.ids and not ws.ids.flags.writeable
        assert ws.ids.tolist() == sorted(ids.tolist()) \
            == sorted(p.pair_ids(list(ws)).tolist())
        assert type(ws | frozenset()) is frozenset
        # membership: exactly the pairs, and False for anything else
        assert all(pair in ws for pair in pairs)
        assert not any(pair in ws
                       for pair in set(product_rows(p)) - set(pairs))
        for stranger in (0, "0a", None, (0,), (0, "x", 0), (0, "nope"),
                         (-1, p.enabled(0)[0]),
                         (p.n_states, p.enabled(0)[0])):
            assert stranger not in ws
        # another product looks the tuples up in its own layout
        try:
            want = other.pair_ids(list(ws))
        except (UnknownState, ActionNotEnabled) as exc:
            with pytest.raises(type(exc)):
                other.pair_ids(ws)
        else:
            assert other.pair_ids(ws).tolist() == want.tolist()
        # copies keep the pairs and the ids
        for twin in (copy.copy(ws), copy.deepcopy(ws),
                     pickle.loads(pickle.dumps(ws))):
            assert type(twin) is PairSet and twin == ws
            assert twin.ids.tolist() == ws.ids.tolist()
            assert np.sort(p.pair_ids(twin)).tolist() == ws.ids.tolist()
        assert p.pair_ids(copy.copy(ws)) is ws.ids
        q, twin = pickle.loads(pickle.dumps((p, ws)))
        assert q.pair_ids(twin) is twin.ids
        # repeated ids count once; ids outside the product are refused
        assert p.pair_set(np.concatenate([ids, ids])) == ws
        assert len(p.pair_set(np.concatenate([ids, ids]))) == len(ws)
        for bad in (-1, len(p.owner)):
            with pytest.raises(UnknownState, match=f"pair id {bad} "):
                p.pair_set([0, bad, -7])
    desk = products[0]
    w_p = exact_winning_region(desk)[1]
    assert type(w_p) is PairSet
    assert w_p.ids.tolist() == sorted(desk.pair_ids(list(w_p)).tolist())
    # a pickled set carries its ids, never its product: `run_experiment`
    # ships the exact W_p to every worker
    assert len(pickle.dumps(w_p)) * 10 < len(pickle.dumps(desk))

    # within one product, comparisons and `pair_ids` never iterate
    every = desk.pair_set(np.arange(len(desk.owner)))
    cfg = desk_config()
    learned = run_algorithm1(desk, cfg.learner_config(0),
                             oracle_w_p=w_p).w_p

    def no_tuples(self):
        raise AssertionError("a PairSet was iterated")

    monkeypatch.setattr(PairSet, "__iter__", no_tuples)
    assert learned >= w_p and w_p <= learned and every > w_p
    assert w_p < every and not every <= w_p and not w_p > every
    assert w_p == desk.pair_set(w_p.ids[::-1]) and w_p != every
    assert desk.pair_ids(w_p) is w_p.ids


def test_pair_set_of_every_paper_pair_peaks_under_1_mib():
    """The PairSet of all 22,388 paper pairs holds arrays, not tuples: a
    frozenset of those tuples peaks at about 4.7 MiB to build."""
    import tracemalloc

    p = build_pipeline(paper_config())[1]
    ids = np.arange(len(p.owner))
    tracemalloc.start()
    try:
        ws = p.pair_set(ids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ws) == 22_388 and peak < 1 << 20


def test_flat_build_of_a_deep_chain_matches_reference():
    """One level per state: the level loop must still number a long
    narrow search as the FIFO search does."""
    trans = {(s, "x"): [(s, 0.5), ((s + 1) % 300, 0.5)] for s in range(300)}
    dwell = {(s, "x", t): Exponential(1.0) for (s, _), row in trans.items()
             for t, _ in row}
    m = Smdp(300, ("x",), trans, dwell, 0, ("c",),
             [int(s % 7 == 3) for s in range(300)])
    p = build_product(m, safety_monitor(K=1))
    assert_matches_fifo_reference(p)
    assert_layout_invariants(p)


RETAINED_PAPER_PRODUCT = """
import gc, tracemalloc
from smdpsynth import build_pipeline, paper_config
from smdpsynth.product import build_product

m, p = build_pipeline(paper_config())
d = p.d
del p
gc.collect()
tracemalloc.start()
p = build_product(m, d)
gc.collect()
print(tracemalloc.get_traced_memory()[0])
"""


def test_paper_product_retains_at_most_3_5_mb():
    """What the paper product keeps alive after its build, traced in a
    fresh interpreter: the flat layout, `states`, `index` and the
    simulator's mirrors."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [x for x in [env.get("PYTHONPATH")] if x])
    proc = subprocess.run([sys.executable, "-c", RETAINED_PAPER_PRODUCT],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.split()[-1]) <= 3_500_000


# winning region

def test_empty_accepting_wins_everywhere():
    base = OmegaAutomaton(("a", "b", "c"), [[(0,)] * 8], 0, set())
    p = build_product(grid4_model(), determinize_kcba(base, 0))
    w, w_p = exact_winning_region(p)
    assert w == frozenset(range(p.n_states))
    assert w_p == {(i, a) for i in range(p.n_states) for a in p.enabled(i)}


def test_all_roads_accepting_lose_everywhere():
    # every cell labeled c: no policy avoids the monitor
    from smdpsynth import GridConfig, build_gridworld
    cells = [(x, y) for x in (1, 2) for y in (1, 2)]
    m = build_gridworld(GridConfig(width=2, height=2, initial=(1, 1),
                                   labels={"c": cells}))
    p = build_product(m, safety_monitor())
    w, w_p = exact_winning_region(p)
    assert w == frozenset() and w_p == frozenset()


def test_grid4_winning_region_frozen():
    p = grid4_product(K=5)
    w, w_p = exact_winning_region(p)
    assert p.n_states == 205
    assert len(w) == 42 and len(w_p) == 77
    assert p.initial in w


def test_winning_region_disjoint_from_accepting_and_closed():
    p = grid4_product(K=5)
    w, w_p = exact_winning_region(p)
    assert not (w & p.accepting)
    for i in w:
        safe = [a for a in p.enabled(i)
                if all(j in w for j in product_row(p, i, a)[0])]
        assert safe, f"state {i} in W has no safe action"
        assert {(i, a) for a in safe} <= w_p
    for (i, a) in w_p:
        assert i in w
        assert all(j in w for j in product_row(p, i, a)[0])


def test_safe_walk_never_accepting():
    p = grid4_product(K=5)
    w, w_p = exact_winning_region(p)
    safe_actions = {}
    for (i, a) in sorted(w_p):
        safe_actions.setdefault(i, []).append(a)
    rng = np.random.default_rng(2024)
    i = p.initial
    for _ in range(100_000):
        a = safe_actions[i][int(rng.integers(len(safe_actions[i])))]
        succs, probs = product_row(p, i, a)
        i = succs[int(np.searchsorted(np.cumsum(probs), rng.random()))]
        assert i not in p.accepting
        assert i in w


# max reachability

def chain3():
    """3 states, 2 actions; state 2 is the target, tuned so the actions
    genuinely compete."""
    trans = {
        (0, "x"): [(0, 0.5), (1, 0.5)],
        (0, "y"): [(0, 0.9), (2, 0.1)],
        (1, "x"): [(2, 1.0)],
        (1, "y"): [(0, 0.5), (1, 0.5)],
        (2, "x"): [(2, 1.0)],
    }
    dwell = {k3: Exponential(1.0) for (s, a), row in trans.items()
             for k3 in [(s, a, t) for t, _ in row]}
    return Smdp(3, ("x", "y"), trans, dwell, 0, (), [0, 0, 0])


def chain3_product():
    base = OmegaAutomaton((), [[(0,)]], 0, set())
    return build_product(chain3(), determinize_kcba(base, 0))


def test_reach_probability_on_target_is_one():
    p = grid4_product(K=5)
    w, _ = exact_winning_region(p)
    v = exact_max_reach_probability(p, w)
    assert all(v[i] == 1.0 for i in w)
    assert np.all(v >= 0.0) and np.all(v <= 1.0)


def test_reach_probability_sweep_cap(monkeypatch):
    p = grid4_product(K=5)
    w, _ = exact_winning_region(p)
    monkeypatch.setattr(smdpsynth.product, "MAX_SWEEPS", 1)
    with pytest.raises(NotConverged, match="max-reach") as err:
        exact_max_reach_probability(p, w)
    assert err.value.solver == "max-reach value iteration"
    assert err.value.residual >= 1e-12


def test_reach_probability_one_step_closed_form():
    trans = {
        (0, "go"): [(1, 0.5), (2, 0.5)],
        (1, "go"): [(1, 1.0)],
        (2, "go"): [(2, 1.0)],
    }
    dwell = {(0, "go", 1): Exponential(1), (0, "go", 2): Exponential(1),
             (1, "go", 1): Exponential(1), (2, "go", 2): Exponential(1)}
    m = Smdp(3, ("go",), trans, dwell, 0, (), [0, 0, 0])
    base = OmegaAutomaton((), [[(0,)]], 0, set())
    p = build_product(m, determinize_kcba(base, 0))
    v = exact_max_reach_probability(p, {1})
    assert v[0] == pytest.approx(0.5, abs=1e-12)
    assert v[1] == 1.0 and v[2] == pytest.approx(0.0, abs=1e-12)


def test_reach_probability_matches_policy_enumeration():
    from oracles import max_reach_by_policy_enumeration
    p = chain3_product()
    v = exact_max_reach_probability(p, {2})
    allowed = {i: p.enabled(i) for i in range(p.n_states)}
    ref = max_reach_by_policy_enumeration(as_trans_dict(p), allowed, {2},
                                          p.n_states)
    assert np.allclose(v, ref, atol=1e-9)


def test_max_reach_matches_gauss_seidel_reference_on_grid4():
    from oracles import max_reach_gauss_seidel
    p = grid4_product(K=5)
    w, _ = exact_winning_region(p)
    for target in (w, set(sorted(w)[:10])):
        ref = max_reach_gauss_seidel(p, target)
        assert np.array_equal(exact_max_reach_probability(p, target), ref)


def test_max_reach_on_random_products():
    """Jacobi sweeps against the Gauss-Seidel reference and the exact value
    of policy enumeration. Both solvers stop on a sup-norm residual below
    1e-12, which bounds the last sweep's change, not the distance to the
    fixed point: on slowly mixing rows each ends up to about 1e-9 away."""
    from oracles import max_reach_by_policy_enumeration, max_reach_gauss_seidel
    for seed in range(40):
        rng = np.random.default_rng(seed)
        p = random_product(rng)
        size = min(p.n_states, int(rng.integers(1, 3)))
        target = {int(t) for t in rng.choice(p.n_states, size=size,
                                             replace=False)}
        v = exact_max_reach_probability(p, target)
        ref = max_reach_gauss_seidel(p, target)
        exact = max_reach_by_policy_enumeration(
            as_trans_dict(p), {i: p.enabled(i) for i in range(p.n_states)},
            target, p.n_states)
        assert np.allclose(v, ref, rtol=0, atol=1e-9)
        assert np.allclose(v, exact, rtol=0, atol=1e-9)


def test_max_reach_edge_targets():
    from oracles import max_reach_gauss_seidel
    p = grid4_product(K=5)
    every = set(range(p.n_states))
    assert np.array_equal(exact_max_reach_probability(p, every),
                          np.ones(p.n_states))
    assert np.array_equal(exact_max_reach_probability(p, set()),
                          np.zeros(p.n_states))
    # m1: nothing returns to the initial state once it leaves
    p = m1_product()
    v = exact_max_reach_probability(p, {p.initial})
    expected = np.zeros(p.n_states)
    expected[p.initial] = 1.0
    assert np.array_equal(v, expected)
    assert np.array_equal(v, max_reach_gauss_seidel(p, {p.initial}))


def test_reach_probability_monotone_in_target():
    p = grid4_product(K=5)
    w, _ = exact_winning_region(p)
    some = set(sorted(w)[:10])
    v_small = exact_max_reach_probability(p, some)
    v_big = exact_max_reach_probability(p, w)
    assert np.all(v_big >= v_small - 1e-12)


def test_policy_reach_matches_oracle():
    from oracles import reach_probability_under_policy
    p = chain3_product()
    target = {2}
    for policy in [{0: "x", 1: "x", 2: "x"}, {0: "y", 1: "y", 2: "x"},
                   {0: "y", 1: "x", 2: "x"}]:
        v = policy_reach_probability(p, policy, target)
        ref = reach_probability_under_policy(as_trans_dict(p), policy, target,
                                             p.n_states)
        assert np.allclose(v, ref, atol=1e-12)


def test_policy_reach_bitwise_on_grid4():
    """The safety fixpoint's dying states are the oracle's states that can
    reach the target, and the reach values under both policies are dyadic
    (0, 1/8, 1/4, 1/2, 1), so the component-wise solve and the oracle's
    dense solve agree to the bit."""
    from oracles import reach_probability_under_policy
    p = grid4_product(K=5)
    w, _ = exact_winning_region(p)
    rng = np.random.default_rng(4)
    v_opt = exact_max_reach_probability(p, w)
    greedy = {}
    for i in range(p.n_states):
        acts = p.enabled(i)
        vals = [float(np.dot(product_row(p, i, a)[1],
                             v_opt[list(product_row(p, i, a)[0])]))
                for a in acts]
        greedy[i] = acts[int(np.argmax(vals))]
    uniform = {i: p.enabled(i)[int(rng.integers(len(p.enabled(i))))]
               for i in range(p.n_states)}
    for policy in (greedy, uniform):
        v = policy_reach_probability(p, policy, w)
        ref = reach_probability_under_policy(as_trans_dict(p), policy, w,
                                             p.n_states)
        assert np.array_equal(v, ref)


def test_policy_reach_never_beats_optimum():
    from oracles import enumerate_positional_policies
    p = chain3_product()
    v = exact_max_reach_probability(p, {2})
    allowed = {i: p.enabled(i) for i in range(p.n_states)}
    best = np.zeros(p.n_states)
    for policy in enumerate_positional_policies(allowed):
        vp = policy_reach_probability(p, policy, {2})
        assert np.all(vp <= v + 1e-9)
        best = np.maximum(best, vp)
    assert np.allclose(best, v, atol=1e-9)
