import numpy as np
import pytest

from smdpsynth import OmegaAutomaton


@pytest.fixture
def b1():
    """Two-state automaton over one atom: counts how many 1-letters it reads.

    x0 --0--> x0, x0 --1--> x1, x1 --1--> x1, x1 --0--> x0; accepting {x1},
    so Visits(x1) = number of 1s in the word.
    """
    delta = [
        [(0,), (1,)],
        [(0,), (1,)],
    ]
    return OmegaAutomaton(("p",), delta, 0, {1})


def random_cba(rng, max_states=5, max_ap=2):
    """Random (possibly incomplete, nondeterministic) one-acceptance-set automaton."""
    n = int(rng.integers(1, max_states + 1))
    n_ap = int(rng.integers(1, max_ap + 1))
    ap = tuple("pqrs"[:n_ap])
    nl = 2 ** n_ap
    delta = []
    for _ in range(n):
        row = []
        for _ in range(nl):
            k = int(rng.integers(0, n + 1))
            row.append(tuple(sorted(rng.choice(n, size=k, replace=False))) if k else ())
        delta.append(row)
    acc = {int(x) for x in range(n) if rng.random() < 0.4}
    return OmegaAutomaton(ap, delta, int(rng.integers(n)), acc)


def m1_model():
    """Two-state model: staying put under `a` is safe, `b` enters the
    c-labeled absorbing state."""
    from smdpsynth import Exponential, Smdp

    trans = {
        (0, "a"): [(0, 1.0)],
        (0, "b"): [(1, 1.0)],
        (1, "a"): [(1, 1.0)],
    }
    dwell = {
        (0, "a", 0): Exponential(1.0),
        (0, "b", 1): Exponential(2.0),
        (1, "a", 1): Exponential(1.0),
    }
    return Smdp(2, ("a", "b"), trans, dwell, 0, ("c",), [0, 1],
                names=("s0", "s1"))


def m1_product():
    """m1_model against the K=0 monitor of "G !c"."""
    from smdpsynth import determinize_kcba, ltl_to_cba, parse_ltl
    from smdpsynth.product import build_product

    d = determinize_kcba(ltl_to_cba(parse_ltl("G !c"), ap=("c",)), 0)
    return build_product(m1_model(), d)


GRID4_LABELS = {"a": [(1, 1)], "b": [(2, 1)], "c": [(2, 4)]}


def grid4_model():
    """4x4 grid with a/b on adjacent bottom cells reachable by a surely
    enforceable two-step cycle, start at the opposite corner."""
    from smdpsynth import GridConfig, build_gridworld

    return build_gridworld(GridConfig(width=4, height=4, initial=(4, 4),
                                      labels=GRID4_LABELS))


def grid4_product(K=5):
    """The 4x4 fixture against "G F a & G F b & G !c" at the given bound."""
    from smdpsynth import determinize_kcba, ltl_to_cba, parse_ltl
    from smdpsynth.product import build_product

    aut = ltl_to_cba(parse_ltl("G F a & G F b & G !c"), ap=("a", "b", "c"))
    return build_product(grid4_model(), determinize_kcba(aut, K))


def risky3_model():
    """Start state chooses between a 0.9 and a 0.5 chance of staying safe;
    both other states absorb, one of them labeled c."""
    from smdpsynth import Exponential, Smdp

    trans = {
        (0, "x"): [(1, 0.9), (2, 0.1)],
        (0, "y"): [(1, 0.5), (2, 0.5)],
        (1, "x"): [(1, 1.0)],
        (2, "x"): [(2, 1.0)],
    }
    dwell = {(s, a, s2): Exponential(1.0)
             for (s, a), row in trans.items() for s2, _ in row}
    return Smdp(3, ("x", "y"), trans, dwell, 0, ("c",), [0, 0, 1])


def risky3_product():
    from smdpsynth import determinize_kcba, ltl_to_cba, parse_ltl
    from smdpsynth.product import build_product

    d = determinize_kcba(ltl_to_cba(parse_ltl("G !c"), ap=("c",)), 0)
    return build_product(risky3_model(), d)


def trivial_monitor(ap=("c",)):
    """Deterministic monitor that never accepts: every state wins."""
    from smdpsynth import OmegaAutomaton, determinize_kcba

    n_letters = 2 ** len(ap)
    aut = OmegaAutomaton(ap, [[(0,)] * n_letters], 0, set())
    return determinize_kcba(aut, 0)


def cycle4_model():
    """Four-state ring; both actions advance the ring but the fast one has
    a much shorter dwell, so it is the lower-risk choice everywhere."""
    from smdpsynth import Exponential, Smdp

    trans = {}
    dwell = {}
    for i in range(4):
        j = (i + 1) % 4
        trans[(i, "f")] = [(j, 1.0)]
        trans[(i, "s")] = [(j, 1.0)]
        dwell[(i, "f", j)] = Exponential(5.0)
        dwell[(i, "s", j)] = Exponential(1.0)
    return Smdp(4, ("f", "s"), trans, dwell, 0, ("c",), [0, 0, 0, 0])


def cycle4_product():
    from smdpsynth.product import build_product

    return build_product(cycle4_model(), trivial_monitor())


def random_product(rng, n=6, actions=("x", "y"), c_prob=0.0):
    """Random model: each state enables a prefix of `actions`, each row has
    one to three successors. With c_prob = 0, against the never-accepting
    monitor; otherwise each state is labeled c with that probability and
    the monitor is the K=0 one of "G !c"."""
    from smdpsynth import (
        Exponential, Smdp, determinize_kcba, ltl_to_cba, parse_ltl,
    )
    from smdpsynth.product import build_product

    trans, dwell = {}, {}
    for s in range(n):
        for a in actions[:int(rng.integers(1, len(actions) + 1))]:
            k = int(rng.integers(1, 4))
            succs = [int(t) for t in rng.choice(n, size=k, replace=False)]
            trans[(s, a)] = list(zip(succs, rng.dirichlet(np.ones(k))))
            for t in succs:
                dwell[(s, a, t)] = Exponential(1.0)
    if c_prob == 0.0:
        labels, d = [0] * n, trivial_monitor()
    else:
        labels = [int(rng.random() < c_prob) for _ in range(n)]
        d = determinize_kcba(ltl_to_cba(parse_ltl("G !c"), ap=("c",)), 0)
    m = Smdp(n, actions, trans, dwell, 0, ("c",), labels)
    return build_product(m, d)


def chain_product(n):
    """n model states in a line, each staying or stepping on with even
    odds; the last one is labeled c. Under "G !c" every state loses, but
    only because its successor does: the cascade is as deep as the
    chain."""
    from smdpsynth import (
        Exponential, Smdp, determinize_kcba, ltl_to_cba, parse_ltl,
    )
    from smdpsynth.product import build_product

    trans, dwell = {}, {}
    for s in range(n - 1):
        trans[(s, "x")] = [(s, 0.5), (s + 1, 0.5)]
        dwell[(s, "x", s)] = dwell[(s, "x", s + 1)] = Exponential(1.0)
    trans[(n - 1, "x")] = [(n - 1, 1.0)]
    dwell[(n - 1, "x", n - 1)] = Exponential(1.0)
    m = Smdp(n, ("x",), trans, dwell, 0, ("c",), [0] * (n - 1) + [1])
    d = determinize_kcba(ltl_to_cba(parse_ltl("G !c"), ap=("c",)), 0)
    return build_product(m, d)


class FixedRng:
    """Stand-in generator whose uniform draw is fixed, to put a draw
    exactly on, or just beside, a cumulative probability. Exponential
    draws return their scale."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u

    def exponential(self, scale):
        return scale


def product_rows(p):
    """Every row of a product as {(i, a): (successors, probabilities)}, in
    pair-id order: state by state, each state's actions in the model's
    order. Read off the flat layout: pair k's entries are
    `row_ptr[k]:row_ptr[k + 1]` of `succ`, and of `model_prob[edge]` for
    their probabilities; tuples of Python numbers."""
    succ, prob = p.succ.tolist(), p.model_prob[p.edge].tolist()
    ptr = p.row_ptr.tolist()
    acts = [p.model_pairs[q][1] for q in p.pair_model.tolist()]
    return {(i, a): (tuple(succ[lo:hi]), tuple(prob[lo:hi]))
            for i, a, lo, hi in zip(p.owner.tolist(), acts, ptr, ptr[1:])}


def product_row(p, i, a):
    """The row of pair (i, a) as (successors, probabilities), read off the
    flat layout like `product_rows`; UnknownState or ActionNotEnabled
    if (i, a) is not a pair of the product."""
    k = int(p.pair_ids([(i, a)])[0])
    lo, hi = int(p.row_ptr[k]), int(p.row_ptr[k + 1])
    return (tuple(p.succ[lo:hi].tolist()),
            tuple(p.model_prob[p.edge[lo:hi]].tolist()))


def product_dwell(p, i, a, j):
    """The dwell distribution of product transition (i, a, j): the
    model's, for the model triple it lifts."""
    return p.m.dwell[(p.states[i][0], a, p.states[j][0])]


def risk_model(trans, risks, allowed, gamma_r=0.9, escaped=None):
    """A RiskModel from rows written out as dicts: `trans` maps (i, a) to
    (successors, probabilities), `risks` maps (i, a, j) to the risk of
    that transition. Rows keep the order of `trans`."""
    from smdpsynth.risk import RiskModel

    row_ptr, succ, prob, risk = [0], [], [], []
    for (i, a), (succs, probs) in trans.items():
        succ += succs
        prob += probs
        risk += [risks[(i, a, j)] for j in succs]
        row_ptr.append(len(succ))
    return RiskModel(pairs=list(trans), row_ptr=row_ptr, succ=succ,
                     prob=prob, risk=risk, allowed=allowed, gamma_r=gamma_r,
                     escaped={} if escaped is None else escaped)


def risk_rows(rm):
    """The rows of a RiskModel as {(i, a): (successors, probabilities,
    risks)}, tuples of Python numbers, in row order."""
    succ, prob, risk = rm.succ.tolist(), rm.prob.tolist(), rm.risk.tolist()
    ptr = rm.row_ptr.tolist()
    return {pair: (tuple(succ[lo:hi]), tuple(prob[lo:hi]),
                   tuple(risk[lo:hi]))
            for pair, lo, hi in zip(rm.pairs, ptr, ptr[1:])}
