"""Product of an SMDP with a deterministic counting automaton, plus exact
oracles for the winning region and maximal reachability probabilities."""

from __future__ import annotations

from collections import deque

import numpy as np

from .automata import Dkcba, sccs
from .errors import (
    ActionNotEnabled, AlphabetMismatch, NotConverged, UnknownState,
)
from .smdp import Smdp, _draw_step

# sweeps after which max-reach value iteration gives up with NotConverged
MAX_SWEEPS = 100_000


class ProductSmdp:
    """Synchronous product, materialized over the reachable states only.

    A product state pairs a model state with the automaton state reached
    after reading the labels of every model state seen so far, the label of
    the current one included. Dwell distributions carry over from the model
    unchanged. `accepting` collects the product states whose automaton
    component is accepting; staying outside it forever is the safety
    objective the learner works toward.
    """

    def __init__(self, m: Smdp, d: Dkcba):
        if m.ap != d.ap:
            raise AlphabetMismatch(
                f"model ap {m.ap} does not match automaton ap {d.ap}")
        self.m = m
        self.d = d

        f0 = d.step(d.initial, m.letter_of(m.initial))
        init = (m.initial, f0)
        index = {init: 0}
        states = [init]
        rows = {}
        queue = deque([init])
        while queue:
            s, f = queue.popleft()
            pid = index[(s, f)]
            for a in m._enabled[s]:
                succs, probs = m.trans_row(s, a)
                pids = []
                for s2 in succs:
                    f2 = d.step(f, m.letter_of(s2))
                    key = (s2, f2)
                    nid = index.get(key)
                    if nid is None:
                        nid = len(states)
                        index[key] = nid
                        states.append(key)
                        queue.append(key)
                    pids.append(nid)
                # successors in model-row order: sample_product_step
                # indexes this row with the model's draw
                rows[(pid, a)] = (tuple(pids), probs)

        self.states = tuple(states)
        self.index = index
        self.n_states = len(states)
        self.initial = 0
        self._rows = rows
        acc_d = d.accepting
        self.accepting = frozenset(
            i for i, (_, f) in enumerate(states) if f in acc_d)

    def check_state(self, i):
        if not 0 <= i < self.n_states:
            raise UnknownState(f"product state {i} not in 0..{self.n_states - 1}")

    def enabled(self, i):
        self.check_state(i)
        return self.m._enabled[self.states[i][0]]

    def trans_row(self, i, a):
        self.check_state(i)
        row = self._rows.get((i, a))
        if row is None:
            raise ActionNotEnabled(f"action {a!r} not enabled in product state {i}")
        return row

    def lift(self, i, s2):
        """Product successor of state i when the model moves to s2: the
        automaton reads the label of s2. None if that pair was never
        reached (a successor no transition of i can produce)."""
        f2 = self.d.step(self.states[i][1], self.m.letter_of(s2))
        return self.index.get((s2, f2))

    def dwell_of(self, i, a, j):
        s, _ = self.states[i]
        s2, _ = self.states[j]
        return self.m.dwell[(s, a, s2)]

    def to_json_dict(self, winning=None, winning_pairs=None):
        doc = {
            "states": [[self.m.names[s], f] for s, f in self.states],
            "actions": list(self.m.actions),
            "initial": self.initial,
            "accepting": sorted(self.accepting),
            "transitions": {
                f"{i}/{a}": {str(j): p for j, p in zip(*row)}
                for (i, a), row in sorted(self._rows.items(),
                                          key=lambda kv: (kv[0][0], kv[0][1]))
            },
        }
        if winning is not None:
            doc["winning_states"] = sorted(winning)
        if winning_pairs is not None:
            doc["winning_pairs"] = sorted([i, a] for i, a in winning_pairs)
        return doc


def build_product(m: Smdp, d: Dkcba) -> ProductSmdp:
    """BFS-indexed reachable product of a model and a counting automaton."""
    return ProductSmdp(m, d)


def sample_product_step(p: ProductSmdp, i, a, rng):
    """Draw one product transition; returns (j, tau, model_successor).

    The model's draw (`sample_step`'s, with the same random draws) picks
    position k of the model row; the product row lists its successors in
    the model row's order, so its k-th entry is the lifted successor. This
    is the simulator interface the learner sees, which never reads the
    transition table directly.
    """
    p.check_state(i)
    k, s2, tau = _draw_step(p.m, p.states[i][0], a, rng)
    return p._rows[(i, a)][0][k], tau, s2


def exact_winning_region(p: ProductSmdp):
    """Greatest fixpoint of the stay-safe operator.

    Returns (W, W_p): the states from which the accepting set is avoidable
    with probability one, and the state-action pairs whose whole successor
    support stays inside W. Exact; used as the reference the learner is
    measured against.
    """
    alive = [True] * p.n_states
    for i in p.accepting:
        alive[i] = False

    preds = {}
    bad_count = {}
    good_actions = [0] * p.n_states
    for (i, a), (succs, _) in p._rows.items():
        bad = sum(1 for j in set(succs) if not alive[j])
        bad_count[(i, a)] = bad
        if bad == 0:
            good_actions[i] += 1
        for j in set(succs):
            preds.setdefault(j, []).append((i, a))

    # accepting states were dead before the counts were taken, so only
    # states flipping dead now need to cascade
    dead = deque()
    for i in range(p.n_states):
        if alive[i] and good_actions[i] == 0:
            alive[i] = False
            dead.append(i)

    while dead:
        j = dead.popleft()
        for (i, a) in preds.get(j, ()):
            bad_count[(i, a)] += 1
            if bad_count[(i, a)] == 1:
                good_actions[i] -= 1
                if good_actions[i] == 0 and alive[i]:
                    alive[i] = False
                    dead.append(i)

    w = frozenset(i for i in range(p.n_states) if alive[i])
    w_p = frozenset((i, a) for (i, a), (succs, _) in p._rows.items()
                    if alive[i] and all(alive[j] for j in succs))
    return w, w_p


def exact_max_reach_probability(p: ProductSmdp, target) -> np.ndarray:
    """max_pi Pr(reach target from each state), by value iteration.

    Target states are pinned at 1. Each sweep is a Jacobi update: every
    non-target row is evaluated against the previous sweep's values, then
    each state takes the maximum over its rows. Iteration stops when the
    sup-norm residual drops below 1e-12, and raises NotConverged after
    MAX_SWEEPS sweeps.
    """
    target = set(target)
    for i in target:
        p.check_state(i)
    v = np.zeros(p.n_states)
    for i in target:
        v[i] = 1.0
    by_state = {}
    for (i, a), row in p._rows.items():
        if i not in target:
            by_state.setdefault(i, []).append(row)
    states = np.fromiter(by_state, dtype=np.intp, count=len(by_state))
    rows = [row for options in by_state.values() for row in options]
    starts = np.cumsum([0] + [len(o) for o in by_state.values()])[:-1]
    succ, prob = _pack_rows([s for s, _ in rows], [pr for _, pr in rows])

    for _ in range(MAX_SWEEPS):
        vals = np.zeros(len(rows))
        for k in range(len(succ)):
            vals += prob[k] * v[succ[k]]
        best = np.maximum.reduceat(vals, starts)
        residual = float(np.max(np.abs(best - v[states]), initial=0.0))
        v[states] = best
        if residual < 1e-12:
            return v
    raise NotConverged("max-reach value iteration", residual, MAX_SWEEPS)


def _pack_rows(succs, *values):
    """Column-major padded arrays for rows of varying length.

    `succs` holds one sequence of successor indices per row; each of
    `values` holds one equal-length sequence of floats per row
    (probabilities, risks). Returns one array of shape (width, n_rows) for
    each, width being the longest row, so a sweep accumulates column k of
    every row at once, in the same left-to-right order as a loop over the
    row. Padding is index 0 with value 0.0: with the probability among
    `values`, a padded entry adds exactly 0.0 to its row's sum.
    """
    n = len(succs)
    lens = np.fromiter(map(len, succs), dtype=np.intp, count=n)
    width = int(lens.max(initial=0))
    col = np.repeat(np.arange(n), lens)
    pos = np.arange(col.size) - np.repeat(np.cumsum(lens) - lens, lens)
    packed = []
    for seqs, dtype in [(succs, np.intp)] + [(vs, float) for vs in values]:
        arr = np.zeros((width, n), dtype=dtype)
        arr[pos, col] = [x for seq in seqs for x in seq]
        packed.append(arr)
    return packed


def policy_reach_probability(p: ProductSmdp, policy, target) -> np.ndarray:
    """Pr(reach target from each state) under a fixed positional policy.

    The unknowns are the non-target states that can reach the target under
    the policy (one backward search over its predecessor lists); every
    other state gets 0 and target states 1. Their system
    v_i = sum_{j in target} P(j|i) + sum_{j unknown} P(j|i) v_j is solved
    exactly by `_solve_by_components`, over the policy's rows, one strongly
    connected component at a time: memory grows with rows × successors plus
    the square of the largest component, never with n².
    """
    target = set(target)
    for i in target:
        p.check_state(i)
    succ_of = {}
    for i in range(p.n_states):
        if i in target:
            continue
        a = policy[i] if hasattr(policy, "__getitem__") else policy(i)
        succ_of[i] = p.trans_row(i, a)

    # backward search from the target over the policy's predecessor lists
    preds = {}
    for i, (succs, _) in succ_of.items():
        for j in succs:
            preds.setdefault(j, []).append(i)
    can = set(target)
    stack = list(target)
    while stack:
        for i in preds.get(stack.pop(), ()):
            if i not in can:
                can.add(i)
                stack.append(i)

    unknown = sorted(can - target)
    pos = {i: k for k, i in enumerate(unknown)}
    succs, coefs, const = [], [], []
    for i in unknown:
        row_succ, row_coef, c = [], [], 0.0
        for j, pr in zip(*succ_of[i]):
            if j in target:
                c += pr
            elif j in pos:
                row_succ.append(pos[j])
                row_coef.append(pr)
        succs.append(row_succ)
        coefs.append(row_coef)
        const.append(c)

    v = np.zeros(p.n_states)
    for i in target:
        v[i] = 1.0
    v[unknown] = _solve_by_components(succs, coefs, const)
    return v


def _solve_by_components(succs, coefs, const) -> list:
    """Solve v_i = const[i] + sum_k coefs[i][k] v_{succs[i][k]} exactly;
    returns v as a list of floats.

    The system is given by its sparse rows: unknown i depends on the
    unknowns listed in succs[i] with the matching coefficients. It is
    solved one strongly connected component of that dependency graph at a
    time, sinks first, so every unknown a component refers to outside
    itself is already known. A single unknown is the closed form
    (const_i + sum_{j != i} a_ij v_j) / (1 - a_ii); a larger component
    gets a dense k×k solve. Memory is O(rows × successors + k²) for the
    largest component k. The system must be nonsingular on every
    component (a discounted or target-reaching policy system is).
    """
    v = [0.0] * len(const)
    for comp in sccs(range(len(const)), succs.__getitem__):
        if len(comp) == 1:
            i = comp[0]
            rhs, diag = const[i], 0.0
            for j, a in zip(succs[i], coefs[i]):
                if j == i:
                    diag += a
                else:
                    rhs += a * v[j]
            v[i] = rhs / (1.0 - diag)
            continue
        local = {i: k for k, i in enumerate(comp)}
        mat = np.eye(len(comp))
        rhs = np.array([const[i] for i in comp])
        for i in comp:
            row = local[i]
            for j, a in zip(succs[i], coefs[i]):
                k = local.get(j)
                if k is None:
                    rhs[row] += a * v[j]
                else:
                    mat[row, k] -= a
        for i, x in zip(comp, np.linalg.solve(mat, rhs).tolist()):
            v[i] = x
    return v
