import numpy as np
import pytest

from smdpsynth import (
    Exponential, Smdp, build_pipeline, desk_config, determinize_kcba,
    exact_max_reach_probability, exact_winning_region, ltl_to_cba, parse_ltl,
    policy_reach_probability,
)
from smdpsynth.product import build_product
from smdpsynth.reach import (
    QLearnSchedule, RewardDiscountSpec, TransientQ, extract_pi_tr,
    qlearn_transient,
)

from conftest import grid4_product, random_product, risky3_product


SPEC = RewardDiscountSpec()


def pid(p, i, a):
    """The pair id of (i, a)."""
    return int(p.pair_ids([(i, a)])[0])


def test_spec_validation():
    for bad in [dict(gamma=0.0), dict(gamma=1.0), dict(gamma_acc=1.0),
                dict(gamma_acc=0.0), dict(r_n=0.0), dict(r_n=1.0)]:
        with pytest.raises(ValueError):
            RewardDiscountSpec(**bad)
    for bad in [dict(episodes=0), dict(step_cap=0)]:
        with pytest.raises(ValueError):
            QLearnSchedule(**bad)


def test_sure_entry_to_winning_learns_zero():
    trans = {(0, "x"): [(1, 1.0)], (1, "x"): [(1, 1.0)]}
    dwell = {(s, a, s2): Exponential(1.0)
             for (s, a), row in trans.items() for s2, _ in row}
    m = Smdp(2, ("x",), trans, dwell, 0, ("c",), [0, 0])
    d = determinize_kcba(ltl_to_cba(parse_ltl("G !c"), ap=("c",)), 0)
    p = build_product(m, d)
    pid1 = next(i for i in range(p.n_states) if i != p.initial)
    tq = qlearn_transient(p, {pid1}, SPEC,
                          QLearnSchedule(episodes=50, step_cap=10, seed=0))
    assert tq.q[pid(p, p.initial, "x")] == 0.0


def test_doomed_states_learn_penalty_level():
    p = risky3_product()
    w, _ = exact_winning_region(p)
    tq = qlearn_transient(p, w, SPEC,
                          QLearnSchedule(episodes=2000, step_cap=50, seed=0))
    acc = next(iter(p.accepting))
    doomed = next(i for i in range(p.n_states)
                  if i not in w and i != p.initial and i != acc)
    assert tq.q[pid(p, doomed, "x")] == pytest.approx(SPEC.r_n, abs=1e-9)
    assert tq.q[pid(p, acc, "x")] == SPEC.r_n


def test_risky3_greedy_matches_oracle():
    p = risky3_product()
    w, _ = exact_winning_region(p)
    tq = qlearn_transient(p, w, SPEC,
                          QLearnSchedule(episodes=4000, step_cap=50, seed=0))
    pi = extract_pi_tr(p, w, tq)
    assert pi[p.initial] == pid(p, p.initial, "x")
    opt = exact_max_reach_probability(p, w)
    got = policy_reach_probability(p, pi, w)
    assert opt[p.initial] == pytest.approx(0.9)
    for i in range(p.n_states):
        if i not in w:
            assert got[i] == pytest.approx(opt[i], abs=0.02)


def test_q_values_stay_in_range():
    p = risky3_product()
    w, _ = exact_winning_region(p)
    tq = qlearn_transient(p, w, SPEC,
                          QLearnSchedule(episodes=3000, step_cap=50, seed=2))
    for v in tq.q.tolist():
        assert SPEC.r_n <= v <= 0.0
    assert all(d >= 0.0 for d in tq.deltas)


def test_schedule_eventually_quiets_down():
    p = risky3_product()
    w, _ = exact_winning_region(p)
    tq = qlearn_transient(p, w, SPEC,
                          QLearnSchedule(episodes=80_000, step_cap=50,
                                         seed=0))
    assert tq.cauchy_tail < 1e-3
    assert tq.q[pid(p, p.initial, "x")] == pytest.approx(-0.1, abs=0.02)


def test_extract_greedy_and_tiebreak():
    p = risky3_product()
    w, _ = exact_winning_region(p)
    x, y = pid(p, p.initial, "x"), pid(p, p.initial, "y")
    q = np.zeros(len(p.owner))
    q[[x, y]] = -0.5, -0.1
    tq = TransientQ(q=q, visits=np.zeros(len(p.owner), dtype=np.intp),
                    episodes=0, updates=0, cauchy_tail=0.0)
    assert extract_pi_tr(p, w, tq)[p.initial] == y
    q[x] = -0.1
    assert extract_pi_tr(p, w, tq)[p.initial] == x


def test_every_transient_pair_visited():
    p = risky3_product()
    w, _ = exact_winning_region(p)
    tq = qlearn_transient(p, w, SPEC,
                          QLearnSchedule(episodes=500, step_cap=50, seed=3))
    for i in range(p.n_states):
        if i not in w and i not in p.accepting:
            for a in p.enabled(i):
                assert tq.visits[pid(p, i, a)] > 0


def test_empty_transient_set():
    from conftest import m1_model

    m = m1_model()
    safe = Smdp(2, ("a", "b"),
                {(0, "a"): [(0, 1.0)], (0, "b"): [(1, 1.0)],
                 (1, "a"): [(1, 1.0)]},
                {(0, "a", 0): Exponential(1.0), (0, "b", 1): Exponential(2.0),
                 (1, "a", 1): Exponential(1.0)},
                0, m.ap, [0, 0], names=m.names)
    d = determinize_kcba(ltl_to_cba(parse_ltl("G !c"), ap=("c",)), 0)
    p = build_product(safe, d)
    w, _ = exact_winning_region(p)
    assert w == frozenset(range(p.n_states))
    tq = qlearn_transient(p, w, SPEC, QLearnSchedule(episodes=10, seed=0))
    assert not tq.q.any() and not tq.visits.any() and tq.episodes == 0
    assert extract_pi_tr(p, w, tq).tolist() == [-1] * p.n_states


def test_grid4_policy_near_optimal_everywhere():
    p = grid4_product(5)
    w, _ = exact_winning_region(p)
    tq = qlearn_transient(p, w, SPEC,
                          QLearnSchedule(episodes=16_000, step_cap=100,
                                         seed=1))
    pi = extract_pi_tr(p, w, tq)
    opt = exact_max_reach_probability(p, w)
    got = policy_reach_probability(p, pi, w)
    for i in range(p.n_states):
        if i not in w:
            assert got[i] == pytest.approx(opt[i], abs=0.02)


def test_learning_is_deterministic_per_seed():
    p = risky3_product()
    w, _ = exact_winning_region(p)
    sched = QLearnSchedule(episodes=300, step_cap=20, seed=9)
    t1 = qlearn_transient(p, w, SPEC, sched)
    t2 = qlearn_transient(p, w, SPEC, sched)
    assert t1.q.tobytes() == t2.q.tobytes()
    assert t1.updates == t2.updates


def assert_matches_reference_loop(p, w, schedule):
    """q, visits, deltas, updates and cauchy_tail bit for bit."""
    from oracles import qlearn_transient_reference
    tq = qlearn_transient(p, w, SPEC, schedule)
    q, visits, deltas = qlearn_transient_reference(p, w, SPEC, schedule)
    assert deltas, "the schedule should make updates"
    ids = p.pair_ids(list(q))
    assert [v.hex() for v in tq.q[ids].tolist()] \
        == [v.hex() for v in q.values()]
    assert np.delete(tq.q, ids).tolist() == [0.0] * (len(p.owner) - len(q))
    want = np.zeros(len(p.owner), dtype=np.intp)
    want[p.pair_ids(list(visits))] = list(visits.values())
    assert tq.visits.tolist() == want.tolist()
    assert [d.hex() for d in tq.deltas] == [d.hex() for d in deltas]
    assert tq.updates == len(deltas)
    assert tq.cauchy_tail.hex() == max(deltas[-max(1, len(deltas) // 10):]) \
        .hex()


def test_qlearn_matches_reference_loop_on_desk():
    cfg = desk_config()
    p = build_pipeline(cfg)[1]
    w, _ = exact_winning_region(p)
    assert_matches_reference_loop(p, w, cfg.schedule(97))


def test_qlearn_matches_reference_loop_on_random_products():
    checked = 0
    for seed in range(20):
        p = random_product(np.random.default_rng(seed), c_prob=0.3)
        w, _ = exact_winning_region(p)
        if set(range(p.n_states)) - w - p.accepting:    # a start exists
            assert_matches_reference_loop(
                p, w, QLearnSchedule(episodes=300, step_cap=30, seed=seed))
            checked += 1
    assert checked >= 5
