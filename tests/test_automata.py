"""Lasso acceptance, counting determinization, and sink-set tests."""

import numpy as np
import pytest

from smdpsynth import (
    EmptyCycle,
    OmegaAutomaton,
    determinize_kcba,
    lasso_accepted_kcba,
)
from smdpsynth.automata import is_cyclic, sccs

from conftest import automaton_from_json, automaton_to_json, is_complete, \
    is_deterministic, random_cba, to_omega_automaton
from oracles import (
    all_lassos, cba_accepts_by_run_enumeration, cyclic_sccs_reference,
    kcba_accepts_by_run_enumeration, lasso_accepted_cba, reachable_from,
)


def test_lasso_accepted_cba_b1(b1):
    assert lasso_accepted_cba(b1, [1, 1], [0]) is True       # two visits, finite
    assert lasso_accepted_cba(b1, [], [1]) is False          # infinitely many 1s
    assert lasso_accepted_cba(b1, [], [0]) is True           # never enters Acc


def test_lasso_accepted_kcba_b1(b1):
    assert lasso_accepted_kcba(b1, 2, [1, 1], [0]) is True   # 2 <= 2
    assert lasso_accepted_kcba(b1, 1, [1, 1], [0]) is False  # 2 > 1
    assert lasso_accepted_kcba(b1, 5, [], [1]) is False      # visits unbounded


def test_empty_cycle_rejected(b1):
    with pytest.raises(EmptyCycle):
        lasso_accepted_cba(b1, [0], [])
    with pytest.raises(EmptyCycle):
        lasso_accepted_kcba(b1, 1, [0], [])


def test_cba_matches_run_enumeration():
    rng = np.random.default_rng(411)
    for _ in range(120):
        aut = random_cba(rng)
        for stem, cyc in all_lassos(aut.n_letters, 4):
            assert lasso_accepted_cba(aut, stem, cyc) == \
                cba_accepts_by_run_enumeration(aut, stem, cyc)


def test_kcba_matches_run_enumeration():
    rng = np.random.default_rng(412)
    for _ in range(60):
        aut = random_cba(rng)
        K = int(rng.integers(0, 4))
        for stem, cyc in all_lassos(aut.n_letters, 4):
            assert lasso_accepted_kcba(aut, K, stem, cyc) == \
                kcba_accepts_by_run_enumeration(aut, K, stem, cyc)


def test_kcba_with_huge_bound_matches_cba(b1):
    """A bound no lasso can exhaust reduces the counting check to the plain one."""
    rng = np.random.default_rng(413)
    for _ in range(40):
        aut = random_cba(rng)
        for stem, cyc in all_lassos(aut.n_letters, 4):
            big = 4 * aut.n_states * (len(stem) + len(cyc))
            assert lasso_accepted_kcba(aut, big, stem, cyc) == \
                lasso_accepted_cba(aut, stem, cyc)


def test_determinize_b1_k1_structure(b1):
    d = determinize_kcba(b1, 1)
    assert d.bound == 1
    assert d.n_states == 4
    assert d.profiles[d.initial] == (0, -1)
    profs = set(p for p in d.profiles if p is not None)
    assert profs == {(0, -1), (-1, 1), (1, -1)}
    assert d.sink is not None and d.profiles[d.sink] is None
    # the count-2 profile collapses into the sink
    one = d.profiles.index((-1, 1))
    assert d.delta[one][1] == d.sink
    assert d.delta[d.sink] == [d.sink, d.sink]


def test_determinize_empty_acc_has_no_sink():
    aut = OmegaAutomaton(("p",), [[(0,), (1,)], [(0,), (1,)]], 0, set())
    for K in (0, 1, 3):
        d = determinize_kcba(aut, K)
        assert d.sink is None
        assert d.accepting == frozenset()
        omega = to_omega_automaton(d)
        for stem, cyc in all_lassos(2, 4):
            assert lasso_accepted_kcba(omega, 0, stem, cyc) is True


def test_determinize_accepting_initial_state():
    """x^I in Acc counts its first visit; K=0 then dooms every word."""
    aut = OmegaAutomaton(("p",), [[(0,), (0,)]], 0, {0})
    d = determinize_kcba(aut, 0)
    assert d.initial == d.sink
    d1 = determinize_kcba(aut, 1)
    assert d1.profiles[d1.initial] == (1,)


def test_eq3_on_b1(b1):
    """Bounded counting semantics equals the 0-bounded check on the determinization."""
    for K in (0, 1, 2):
        det = to_omega_automaton(determinize_kcba(b1, K))
        for stem, cyc in all_lassos(2, 5):
            assert lasso_accepted_kcba(b1, K, stem, cyc) == \
                lasso_accepted_kcba(det, 0, stem, cyc)


def test_determinize_deterministic_complete():
    rng = np.random.default_rng(414)
    for _ in range(60):
        aut = random_cba(rng)
        d = determinize_kcba(aut, int(rng.integers(0, 4)))
        omega = to_omega_automaton(d)
        assert is_deterministic(omega)
        assert is_complete(omega)
        for row in d.delta:
            assert len(row) == d.n_letters
            for tgt in row:
                assert 0 <= tgt < d.n_states


def test_k_monotone_acceptance():
    rng = np.random.default_rng(415)
    for _ in range(40):
        aut = random_cba(rng)
        for stem, cyc in all_lassos(aut.n_letters, 4):
            verdicts = [lasso_accepted_kcba(aut, K, stem, cyc) for K in range(4)]
            for lo, hi in zip(verdicts, verdicts[1:]):
                assert hi >= lo    # accepted at K stays accepted at K+1


def test_sink_absorbs_random_walk(b1):
    d = determinize_kcba(b1, 1)
    rng = np.random.default_rng(416)
    state = d.initial
    entered = False
    for _ in range(10 ** 4):
        state = d.step(state, int(rng.integers(d.n_letters)))
        if state == d.sink:
            entered = True
        if entered:
            assert state == d.sink
    assert entered


def is_sink_set(aut, states):
    """True if every transition out of `states` stays inside `states`."""
    return all(y in states for x in states for succs in aut.delta[x]
               for y in succs)


def test_is_sink_set(b1):
    d = determinize_kcba(b1, 1)
    omega = to_omega_automaton(d)
    assert is_sink_set(omega, {d.sink}) is True
    assert is_sink_set(omega, set(range(omega.n_states))) is True
    assert is_sink_set(b1, {1}) is False    # x1 --0--> x0 leaves


def test_json_round_trip(b1):
    rng = np.random.default_rng(417)
    for aut in [b1] + [random_cba(rng) for _ in range(20)]:
        doc = automaton_to_json(aut)
        back = automaton_from_json(doc)
        assert back.ap == aut.ap
        assert back.delta == aut.delta
        assert back.initial == aut.initial
        assert back.accepting == aut.accepting
        assert automaton_to_json(back) == doc


def test_json_field_order_stable(b1):
    assert list(automaton_to_json(b1)) == ["states", "alphabet", "ap", "transitions", "initial", "accepting"]


def random_graph(rng):
    """Random directed graph on 1..12 nodes as successor lists, with
    self-loops and a density drawn per graph."""
    n = int(rng.integers(1, 13))
    density = rng.uniform(0.05, 0.4)
    return [[y for y in range(n) if rng.random() < density]
            for _ in range(n)]


def test_sccs_on_random_graphs():
    """Every node in exactly one component, components are the classes of
    mutual reachability, every edge stays in its component or points into
    one yielded earlier, and the cyclic ones are the old single-root
    stream, order included."""
    rng = np.random.default_rng(6)
    sizes = set()
    for _ in range(400):
        adj = random_graph(rng)
        n = len(adj)
        succs = adj.__getitem__
        roots = [int(x) for x in rng.permutation(n)]
        comps = list(sccs(roots, succs))
        order = {x: k for k, comp in enumerate(comps) for x in comp}
        assert sorted(x for comp in comps for x in comp) == list(range(n))
        reach = [reachable_from(x, succs) for x in range(n)]
        for comp in comps:
            sizes.add(len(comp))
            for x in comp:
                assert set(comp) == {y for y in reach[x] if x in reach[y]}
        for x in range(n):
            assert all(order[y] <= order[x] for y in adj[x])
        for root in range(n):
            got = [comp for comp in sccs([root], succs)
                   if is_cyclic(comp, succs)]
            assert got == list(cyclic_sccs_reference(root, succs))
            assert {x for comp in sccs([root], succs) for x in comp} \
                == reach[root]
    assert max(sizes) >= 5


def test_sccs_stops_early():
    """A consumer that stops after the first component leaves later roots
    unvisited."""
    asked = []

    def succs(x):
        asked.append(x)
        return [x + 1] if x < 1000 else []

    assert next(sccs([0, 5000], succs)) == [1000]
    assert asked == list(range(1001))
