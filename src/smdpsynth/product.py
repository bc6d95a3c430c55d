"""Product of an SMDP with a deterministic counting automaton, plus exact
oracles for the winning region and maximal reachability probabilities."""

from __future__ import annotations

from collections import deque
from itertools import chain, compress

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
    measured against. The product's rows are packed into flat arrays on
    every call and handed to `_safety_fixpoint`, accepting states dead
    from the start. A product row never lists a successor twice: model
    rows refuse duplicates, and two distinct model successors lift to two
    distinct product states.
    """
    pairs = list(p._rows)
    succs = [succ for succ, _ in p._rows.values()]
    row_ptr = np.zeros(len(succs) + 1, dtype=np.intp)
    np.cumsum(np.fromiter(map(len, succs), dtype=np.intp, count=len(succs)),
              out=row_ptr[1:])
    succ = np.fromiter(chain.from_iterable(succs), dtype=np.intp,
                       count=int(row_ptr[-1]))
    owner = np.fromiter((i for i, _ in pairs), dtype=np.intp,
                        count=len(pairs))
    dead = np.zeros(p.n_states, dtype=bool)
    dead[np.fromiter(p.accepting, dtype=np.intp)] = True
    alive, safe = _safety_fixpoint(owner, row_ptr, succ, dead)
    w = frozenset(np.flatnonzero(alive).tolist())
    w_p = frozenset(compress(pairs, safe.tolist()))
    return w, w_p


def _safety_fixpoint(owner, row_ptr, succ, dead):
    """Greatest stay-safe fixpoint over a support given as flat CSR arrays.

    Pair k belongs to state `owner[k]` and may move to the states
    `succ[row_ptr[k]:row_ptr[k + 1]]`, none of them listed twice. `dead`
    marks the states lost from the start, one entry per state. A state
    survives while it has a safe pair: one whose successors all survive.
    Returns (alive, safe), boolean masks over the states and the pairs.

    The initial counts of dead successors per pair and of safe pairs per
    state come from `bincount`, the predecessor lists from one stable
    argsort of the successors. The worklist cascade then touches each
    (dying state, predecessor pair) edge once, so the cost is
    O(pairs + successors) however deep the cascade runs.
    """
    n_states, n_pairs = len(dead), len(owner)
    edge_pair = np.repeat(np.arange(n_pairs), np.diff(row_ptr))
    bad = np.bincount(edge_pair[dead[succ]], minlength=n_pairs)
    good = np.bincount(owner[bad == 0], minlength=n_states)
    pred = edge_pair[np.argsort(succ, kind="stable")].tolist()
    pred_ptr = np.zeros(n_states + 1, dtype=np.intp)
    np.cumsum(np.bincount(succ, minlength=n_states), out=pred_ptr[1:])
    pred_ptr = pred_ptr.tolist()

    # the states dead from the start are in the counts already; only the
    # states dying now cascade
    dying = ~dead & (good == 0)
    alive = (~dead & ~dying).tolist()
    bad, good, owner_of = bad.tolist(), good.tolist(), owner.tolist()
    queue = np.flatnonzero(dying).tolist()
    for j in queue:          # grows while it is read: a FIFO worklist
        for k in pred[pred_ptr[j]:pred_ptr[j + 1]]:
            bad[k] += 1
            if bad[k] == 1:
                i = owner_of[k]
                good[i] -= 1
                if good[i] == 0 and alive[i]:
                    alive[i] = False
                    queue.append(i)
    alive = np.array(alive, dtype=bool)
    return alive, alive[owner] & (np.array(bad, dtype=np.intp) == 0)


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
    states = [i for i in range(p.n_states) if i not in target]
    _, succ, prob, group = _state_rows(p, states)
    states = np.array(states, dtype=np.intp)

    for _ in range(MAX_SWEEPS):
        best = _row_values(succ, prob, v)[group].max(axis=0)
        residual = float(np.max(np.abs(best - v[states]), initial=0.0))
        v[states] = best
        if residual < 1e-12:
            return v
    raise NotConverged("max-reach value iteration", residual, MAX_SWEEPS)


def _best_actions(p: ProductSmdp, states, v, tol) -> list:
    """Per state of `states`, its enabled actions whose row value
    sum_j P(j|i,a) v_j is at least the state's best value minus `tol`, in
    the model's action order. The values of all the rows come from one
    column-major pass, as in `exact_max_reach_probability`."""
    acts, succ, prob, group = _state_rows(p, states)
    vals = _row_values(succ, prob, v)
    best = vals[group].max(axis=0)
    keep = iter((vals[:-1] >= np.repeat(best - tol, list(map(len, acts))))
                .tolist())
    return [[a for a in row_acts if next(keep)] for row_acts in acts]


def _state_rows(p: ProductSmdp, states):
    """The rows of every enabled action of `states`, packed for sweeps.

    Returns (acts, succ, prob, group): each state's enabled actions in the
    model's order; `_pack_rows`' successor and probability arrays over
    those rows, one state's rows after another; and the (width,
    len(states)) positions of each state's rows among them, padded with
    the number of rows, the trailing slot of `_row_values`.
    """
    enabled, of = p.m._enabled, p.states
    acts = [enabled[of[i][0]] for i in states]
    rows = [p._rows[(i, a)] for i, row_acts in zip(states, acts)
            for a in row_acts]
    succ, prob = _pack_rows([s for s, _ in rows], [pr for _, pr in rows])
    lens = np.fromiter(map(len, acts), dtype=np.intp, count=len(acts))
    group = _pad(lens, np.arange(len(rows)), len(rows), np.intp)
    return acts, succ, prob, group


def _row_values(succ, prob, v) -> np.ndarray:
    """sum_j P(j|row) v_j of every packed row, accumulated column by
    column, followed by one -inf: the slot that `_state_rows`' padding
    points at, so a per-state maximum over `vals[group]` never picks it.
    The maximum is exact, so it equals `np.maximum.reduceat` over the
    rows bit for bit."""
    vals = np.zeros(succ.shape[1] + 1)
    vals[-1] = -np.inf
    rows = vals[:-1]
    for k in range(len(succ)):
        rows += prob[k] * v[succ[k]]
    return vals


def _pack_rows(succs, *values):
    """Column-major padded arrays for rows of varying length.

    `succs` holds one sequence of successor indices per row; each of
    `values` holds one equal-length sequence of floats per row
    (probabilities, risks). Returns one array of shape (width, n_rows) for
    each, as `_pad` lays them out, so a sweep accumulates column k of
    every row at once, in the same left-to-right order as a loop over the
    row. Padding is index 0 with value 0.0: with the probability among
    `values`, a padded entry adds exactly 0.0 to its row's sum.
    """
    lens = np.fromiter(map(len, succs), dtype=np.intp, count=len(succs))
    packed = [_pad(lens, [x for seq in succs for x in seq], 0, np.intp)]
    for vs in values:
        packed.append(_pad(lens, [x for seq in vs for x in seq], 0.0, float))
    return packed


def _pad(lens, flat, fill, dtype) -> np.ndarray:
    """Consecutive rows of `flat`, of lengths `lens`, as the columns of a
    (width, len(lens)) array padded with `fill`. The width is the longest
    row, and at least 1, so a reduction over axis 0 is defined even when
    there are no rows."""
    n = len(lens)
    col = np.repeat(np.arange(n), lens)
    pos = np.arange(col.size) - np.repeat(np.cumsum(lens) - lens, lens)
    arr = np.full((int(lens.max(initial=1)), n), fill, dtype=dtype)
    arr[pos, col] = flat
    return arr


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
