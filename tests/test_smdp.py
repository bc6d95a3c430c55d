import numpy as np
import pytest

from smdpsynth import (
    ActionNotEnabled, ConfigError, Empirical, Exponential, GridConfig,
    GRID_ACTIONS, Smdp, UnknownState, build_gridworld, export_sample_paths,
    load_scenario, sample_step,
)
from smdpsynth.product import build_product

from conftest import trivial_monitor


def sid(x, y, w=5):
    return (y - 1) * w + (x - 1)


def two_state(p=0.5):
    trans = {
        (0, "a"): [(0, p), (1, 1 - p)],
        (0, "b"): [(1, 1.0)],
        (1, "a"): [(1, 1.0)],
    }
    dwell = {
        (0, "a", 0): Exponential(2.0),
        (0, "a", 1): Exponential(2.0),
        (0, "b", 1): Exponential(1.0),
        (1, "a", 1): Exponential(1.0),
    }
    return Smdp(2, ("a", "b"), trans, dwell, 0, ("c",), [0, 1])


# dwell distributions

def test_exponential_validation():
    with pytest.raises(ValueError):
        Exponential(0.0)
    with pytest.raises(ValueError):
        Exponential(-3)
    assert Exponential(4).mean() == 0.25


def test_empirical_validation():
    with pytest.raises(ValueError):
        Empirical([])
    with pytest.raises(ValueError):
        Empirical([1.0, -0.5])
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="finite"):
            Empirical([1.0, bad])
    d = Empirical([1.0, 3.0])
    assert d.mean() == 2.0


def test_empirical_resamples_recorded_values():
    d = Empirical([0.25, 4.0, 7.5])
    rng = np.random.default_rng(1)
    draws = {d.sample(rng) for _ in range(200)}
    assert draws == {0.25, 4.0, 7.5}


# model validation

def test_rows_must_be_stochastic():
    trans = {(0, "a"): [(0, 0.5), (1, 0.4)]}
    dwell = {(0, "a", 0): Exponential(1), (0, "a", 1): Exponential(1)}
    with pytest.raises(ValueError):
        Smdp(2, ("a",), {**trans, (1, "a"): [(1, 1.0)]},
             {**dwell, (1, "a", 1): Exponential(1)}, 0, (), [0, 0])


def test_every_state_needs_an_action():
    trans = {(0, "a"): [(1, 1.0)]}
    dwell = {(0, "a", 1): Exponential(1)}
    with pytest.raises(ValueError):
        Smdp(2, ("a",), trans, dwell, 0, (), [0, 0])


def test_dwell_required_on_positive_transitions():
    trans = {(0, "a"): [(0, 0.5), (1, 0.5)], (1, "a"): [(1, 1.0)]}
    dwell = {(0, "a", 0): Exponential(1), (1, "a", 1): Exponential(1)}
    with pytest.raises(ValueError):
        Smdp(2, ("a",), trans, dwell, 0, (), [0, 0])


def test_label_mask_range_checked():
    trans = {(0, "a"): [(0, 1.0)]}
    dwell = {(0, "a", 0): Exponential(1)}
    with pytest.raises(ValueError):
        Smdp(1, ("a",), trans, dwell, 0, ("p",), [2])


def test_duplicate_successors_rejected():
    trans = {(0, "a"): [(0, 0.5), (0, 0.5)]}
    dwell = {(0, "a", 0): Exponential(1)}
    with pytest.raises(ValueError):
        Smdp(1, ("a",), trans, dwell, 0, (), [0])


# enabled actions: the model's `_enabled`, read by product states through
# `ProductSmdp.enabled`

def test_enabled_actions_grid_interior_and_corner():
    m = build_gridworld()
    assert m._enabled[sid(5, 5)] == GRID_ACTIONS
    assert m._enabled[sid(1, 1)] == GRID_ACTIONS


def test_enabled_actions_partial():
    m = two_state()
    assert m._enabled[0] == ("a", "b")
    assert m._enabled[1] == ("a",)
    p = build_product(m, trivial_monitor())
    assert [p.enabled(i) for i in range(p.n_states)] \
        == [m._enabled[s] for s, _ in p.states]


def test_enabled_actions_unknown_state():
    p = build_product(two_state(), trivial_monitor())
    with pytest.raises(UnknownState):
        p.enabled(p.n_states)
    with pytest.raises(UnknownState):
        p.enabled(-1)


# sample_step

def test_sample_step_requires_enabled_action():
    m = two_state()
    with pytest.raises(ActionNotEnabled):
        sample_step(m, 1, "b", np.random.default_rng(0))


def test_sample_step_transition_frequencies():
    m = two_state()
    rng = np.random.default_rng(7)
    n = 100_000
    hits = sum(sample_step(m, 0, "a", rng)[0] == 1 for _ in range(n))
    assert abs(hits / n - 0.5) < 0.01


def test_sample_step_exponential_dwell_mean():
    m = two_state()
    rng = np.random.default_rng(11)
    n = 100_000
    total = sum(sample_step(m, 0, "a", rng)[1] for _ in range(n))
    assert abs(total / n - 0.5) < 0.01


def test_sample_step_seed_determinism():
    m = two_state()
    r1, r2 = np.random.default_rng(42), np.random.default_rng(42)
    seq1 = [sample_step(m, 0, "a", r1) for _ in range(100)]
    seq2 = [sample_step(m, 0, "a", r2) for _ in range(100)]
    assert seq1 == seq2


def test_sample_step_matches_cumsum_reference():
    """The same successors, dwells and generator state after every draw,
    on rows of one to four successors and both dwell kinds."""
    from oracles import sample_step_reference
    gen = np.random.default_rng(4)
    trans, dwell = {}, {}
    for s in range(5):
        for a in ("x", "y"):
            k = int(gen.integers(1, 5))
            succs = [int(t) for t in gen.choice(5, size=k, replace=False)]
            trans[(s, a)] = list(zip(succs, gen.dirichlet(np.ones(k))))
            for t in succs:
                dwell[(s, a, t)] = Exponential(float(gen.uniform(0.5, 5))) \
                    if gen.random() < 0.5 else Empirical(gen.uniform(0, 3, 4))
    m = Smdp(5, ("x", "y"), trans, dwell, 0, ("c",), [0] * 5)
    for model in (m, build_gridworld()):
        rng, ref = np.random.default_rng(9), np.random.default_rng(9)
        for (s, a) in sorted(model._rows):
            for _ in range(25):
                assert sample_step(model, s, a, rng) \
                    == sample_step_reference(model, s, a, ref)
                assert rng.bit_generator.state == ref.bit_generator.state


def test_sample_step_clamps_past_last_cumulative():
    """A row may sum to 1 - 1e-10; a draw above its last cumulative
    probability takes the last successor."""
    from conftest import FixedRng
    trans = {(0, "a"): [(0, 0.5), (1, 0.5 - 1e-10)], (1, "a"): [(1, 1.0)]}
    dwell = {(0, "a", 0): Exponential(1.0), (0, "a", 1): Exponential(4.0),
             (1, "a", 1): Exponential(1.0)}
    m = Smdp(2, ("a",), trans, dwell, 0, ("c",), [0, 0])
    assert sample_step(m, 0, "a", FixedRng(1.0 - 2 ** -53)) == (1, 0.25)
    assert sample_step(m, 0, "a", FixedRng(0.5)) == (1, 0.25)
    assert sample_step(m, 0, "a", FixedRng(0.25)) == (0, 1.0)


def test_sample_step_unknown_state():
    with pytest.raises(UnknownState):
        sample_step(two_state(), 2, "a", np.random.default_rng(0))


# policy rollouts: `export_sample_paths` on the product with the
# never-accepting monitor

def rollout(m, policy, horizon, seed):
    """One sample path of `policy` (keyed by product state) on m's product
    with the never-accepting monitor: (product states, model states,
    actions, dwells)."""
    p = build_product(m, trivial_monitor(m.ap))
    _, rec = export_sample_paths(p, policy, 1, horizon,
                                 np.random.default_rng(seed))
    return (rec["states"], [p.states[i][0] for i in rec["states"]],
            rec["actions"], rec["dwells"])


def test_simulate_exact_horizon_and_absorption():
    states, model_states, actions, dwells = rollout(
        two_state(), {0: "b", 1: "a"}, 50, 3)
    assert len(actions) == len(dwells) == 50 and len(states) == 51
    assert model_states[0] == 0 and model_states[1] == 1
    assert all(s == 1 for s in model_states[1:])
    assert all(t >= 0 for t in dwells)


def test_simulate_determinism():
    m = build_gridworld()
    rng = np.random.default_rng(99)
    n = build_product(m, trivial_monitor(m.ap)).n_states
    pol = {i: GRID_ACTIONS[int(rng.integers(4))] for i in range(n)}
    assert rollout(m, pol, 200, 99) == rollout(m, pol, 200, 99)


# gridworld construction

def test_grid_default_shape():
    m = build_gridworld()
    assert m.n_states == 25
    assert m.initial == sid(5, 5)
    assert m.names[m.initial] == "(5,5)"
    assert m.ap == ("a", "b", "c")


def test_grid_labels():
    m = build_gridworld()
    assert m.labels_of(sid(1, 3)) == ("a",)
    assert m.labels_of(sid(5, 3)) == ("b",)
    assert m.labels_of(sid(3, 4)) == ("c",)
    assert m.labels_of(sid(2, 2)) == ()
    assert m.letter_of(sid(1, 3)) == 1


def test_grid_interior_action_splits():
    m = build_gridworld()
    succs, probs = m.trans_row(sid(3, 3), "UR")
    assert set(succs) == {sid(3, 4), sid(4, 3)}
    assert probs == (0.5, 0.5)


def test_grid_wall_redirects_whole_mass():
    m = build_gridworld()
    # at (5,5) the up component is blocked, so UL puts all mass on left
    succs, probs = m.trans_row(sid(5, 5), "UL")
    assert succs == (sid(4, 5),) and probs == (1.0,)


def test_grid_double_block_self_loops():
    m = build_gridworld()
    succs, probs = m.trans_row(sid(1, 1), "DL")
    assert succs == (sid(1, 1),) and probs == (1.0,)


def test_grid_single_cell_absorbing():
    m = build_gridworld(GridConfig(width=1, height=1, initial=(1, 1),
                                   labels={}))
    assert m.n_states == 1
    for act in GRID_ACTIONS:
        assert m.trans_row(0, act) == ((0,), (1.0,))


def test_grid_rows_are_stochastic_everywhere():
    m = build_gridworld()
    for s in range(m.n_states):
        for a in m._enabled[s]:
            _, probs = m.trans_row(s, a)
            assert abs(sum(probs) - 1.0) < 1e-12


def test_grid_label_overlap_rejected():
    with pytest.raises(ConfigError):
        build_gridworld(GridConfig(labels={"a": [(1, 3)], "b": [(1, 3)]}))


def test_grid_label_out_of_range_rejected():
    with pytest.raises(ConfigError):
        build_gridworld(GridConfig(labels={"a": [(0, 3)]}))
    with pytest.raises(ConfigError):
        build_gridworld(GridConfig(labels={"a": [(1, 6)]}))


def test_grid_initial_out_of_range_rejected():
    with pytest.raises(ConfigError):
        build_gridworld(GridConfig(initial=(6, 5)))


def test_grid_default_dwell_rates():
    m = build_gridworld()
    assert m.dwell[(sid(3, 3), "UR", sid(4, 3))].rate == pytest.approx(10.0)
    assert m.dwell[(sid(1, 1), "UR", sid(2, 1))].rate == pytest.approx(10 / 3)
    assert m.dwell[(sid(5, 5), "UL", sid(4, 5))].rate == pytest.approx(10 / 3)


def test_grid_paper_dwell_rates_floored():
    m = build_gridworld(GridConfig(dwell="paper"))
    assert m.dwell[(sid(5, 5), "UL", sid(4, 5))].rate == pytest.approx(20.0)
    assert m.dwell[(sid(3, 3), "UR", sid(4, 3))].rate == pytest.approx(1e-3)
    assert m.dwell[(sid(1, 1), "UR", sid(2, 1))].rate == pytest.approx(1e-3)


def test_grid_explicit_dwell_table():
    table = {(x, y): 1.0 + x for x in (1,) for y in (1,)}
    m = build_gridworld(GridConfig(width=1, height=1, initial=(1, 1),
                                   labels={}, dwell=table))
    assert m.dwell[(0, "UL", 0)].rate == 2.0
    with pytest.raises(ConfigError):
        build_gridworld(GridConfig(width=2, height=1, initial=(1, 1),
                                   labels={}, dwell=table))


# scenario documents

def test_scenario_grid_document():
    doc = {
        "grid": {"width": 4, "height": 4, "initial": [1, 1],
                 "labels": {"a": [[1, 2]], "b": [[4, 2]], "c": [[2, 4]]}},
        "dwell": {"map": "default"},
    }
    m = load_scenario(doc)
    assert m.n_states == 16
    assert m.initial == 0
    assert m.labels_of(1 * 4 + 0) == ("a",)


def test_scenario_generic_tables():
    doc = {
        "states": ["s0", "s1"],
        "actions": ["go", "stay"],
        "initial": "s0",
        "transitions": {
            "s0": {"go": {"s0": 0.25, "s1": 0.75}, "stay": {"s0": 1.0}},
            "s1": {"stay": {"s1": 1.0}},
        },
        "dwell": {
            "s0/go/s0": {"kind": "exponential", "rate": 2.0},
            "s0/go/s1": {"kind": "empirical", "samples": [1.0, 2.0]},
            "s0/stay/s0": {"kind": "exponential", "rate": 1.0},
            "s1/stay/s1": {"kind": "exponential", "rate": 1.0},
        },
        "labels": {"s1": ["goal"]},
    }
    m = load_scenario(doc)
    assert m.n_states == 2
    assert m.ap == ("goal",)
    assert m._enabled[0] == ("go", "stay")
    assert m._enabled[1] == ("stay",)
    assert m.labels_of(1) == ("goal",)
    assert m.dwell[(0, "go", 1)].kind == "empirical"


def test_scenario_missing_section():
    with pytest.raises(ConfigError):
        load_scenario({"states": ["s0"], "actions": ["a"], "initial": "s0",
                       "transitions": {"s0": {"a": {"s0": 1.0}}}})


def test_scenario_unknown_dwell_kind():
    doc = {
        "states": ["s0"], "actions": ["a"], "initial": "s0",
        "transitions": {"s0": {"a": {"s0": 1.0}}},
        "dwell": {"s0/a/s0": {"kind": "weibull", "shape": 2}},
    }
    with pytest.raises(ConfigError):
        load_scenario(doc)


def test_scenario_invalid_rows_become_config_errors():
    doc = {
        "states": ["s0"], "actions": ["a"], "initial": "s0",
        "transitions": {"s0": {"a": {"s0": 0.9}}},
        "dwell": {"s0/a/s0": {"kind": "exponential", "rate": 1.0}},
    }
    with pytest.raises(ConfigError):
        load_scenario(doc)
