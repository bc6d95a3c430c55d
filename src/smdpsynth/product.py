"""Product of an SMDP with a deterministic counting automaton, plus exact
oracles for the winning region and maximal reachability probabilities."""

from __future__ import annotations

from array import array
from itertools import repeat
from operator import itemgetter

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

    States get ids in breadth-first discovery order (`states[i]` is the
    (model state, automaton state) pair of id i, `index` its inverse).
    The transitions are stored once, as flat arrays in pair-id order. A
    pair is a state with one of its enabled actions; pair ids run through
    the states in id order and, within a state, through its actions in
    the model's order, and `pair_ids` maps (i, a) tuples to them:

    - `pair_ptr`: state i owns the pairs `pair_ptr[i]:pair_ptr[i + 1]`;
    - `owner[k]`: the state of pair k; `pair_model[k]`: its model pair,
      an index into `model_pairs`, the model's (s, a) in the same order;
    - `row_ptr`: pair k's successors are `succ[row_ptr[k]:row_ptr[k + 1]]`,
      in the order of the model row they lift, so sampling can index a
      row with the model's draw;
    - `edge[e]`: the model transition that product edge e lifts, an index
      into the model's flat rows `model_succ` and `model_prob` (model pair
      q's entries are `model_row_ptr[q]:model_row_ptr[q + 1]`). It gives
      each product edge its probability and its model triple.

    A product row never lists a successor twice: model rows refuse
    duplicates, and two distinct model successors lift to two distinct
    product states.
    """

    def __init__(self, m: Smdp, d: Dkcba):
        if m.ap != d.ap:
            raise AlphabetMismatch(
                f"model ap {m.ap} does not match automaton ap {d.ap}")
        self.m = m
        self.d = d

        # the model's rows, flat, in state then action order
        self.model_pairs = tuple((s, a) for s in range(m.n_states)
                                 for a in m._enabled[s])
        rows = [m._rows[pair] for pair in self.model_pairs]
        model_pair_ptr = _offsets(list(map(len, m._enabled)))
        self.model_row_ptr = _offsets([len(succs) for succs, _ in rows])
        self.model_succ = np.array([s2 for succs, _ in rows for s2 in succs],
                                   dtype=np.intp)
        self.model_prob = np.array([pr for _, probs in rows for pr in probs])
        # (s, action code) -> offset of the pair among those of any state
        # over s, or -1 (the last column takes unknown actions), and
        # (s, a) -> offset of its row's first edge among their edges
        code = self._code = dict(zip(m.actions, range(len(m.actions))))
        self._pair_at = np.full((m.n_states, len(code) + 1), -1, np.intp)
        self._edge_at = {}
        for q, (s, a) in enumerate(self.model_pairs):
            lo = model_pair_ptr[s]
            self._pair_at[s, code[a]] = q - lo
            self._edge_at[(s, a)] = int(self.model_row_ptr[q]
                                        - self.model_row_ptr[lo])

        # model state s owns the model edges edge_lo[s]:edge_lo[s + 1],
        # its rows one after another in action order
        edge_lo = self.model_row_ptr[model_pair_ptr]
        n_edges = np.diff(edge_lo)
        delta = np.asarray(d.delta, dtype=np.intp).reshape(d.n_states,
                                                           d.n_letters)
        label = np.asarray(m.labels, dtype=np.intp)[self.model_succ]

        def succ_keys(s, f):
            """The model edges of each state (s, f) and the keys of the
            states they lead to."""
            e = _ranges(edge_lo[s], n_edges[s])
            return e, self.model_succ[e] * d.n_states + delta[
                np.repeat(f, n_edges[s]), label[e]]

        key_id = _bfs(m, d, succ_keys)
        reached = np.flatnonzero(key_id >= 0)
        keys = np.empty_like(reached)
        keys[key_id[reached]] = reached
        self.n_states = len(keys)
        self.initial = 0
        s_of, f_of = np.divmod(keys, d.n_states)
        self._model_state = s_of
        self.states = tuple(zip(s_of.tolist(), f_of.tolist()))
        self.index = dict(zip(self.states, range(self.n_states)))
        self.accepting = frozenset(np.flatnonzero(
            np.isin(f_of, list(d.accepting))).tolist())

        n_pairs = np.diff(model_pair_ptr)[s_of]
        self.pair_ptr = _offsets(n_pairs)
        self.owner = np.repeat(np.arange(self.n_states), n_pairs)
        self.pair_model = _ranges(model_pair_ptr[s_of], n_pairs)
        self.row_ptr = _offsets(
            np.diff(self.model_row_ptr)[self.pair_model])
        self.edge, succ_key = succ_keys(s_of, f_of)
        self.succ = key_id[succ_key]
        # Python-int mirrors for the simulator's per-step lookups: the
        # successors, and the first edge of every state
        self._succ_at = array("q", self.succ.astype(np.int64).tobytes())
        self._edge_base = self.row_ptr[self.pair_ptr[:-1]].tolist()

    def check_state(self, i):
        if not 0 <= i < self.n_states:
            raise UnknownState(f"product state {i} not in 0..{self.n_states - 1}")

    def enabled(self, i):
        self.check_state(i)
        return self.m._enabled[self.states[i][0]]

    def pair_ids(self, pairs) -> np.ndarray:
        """Ids of the pairs (i, a) of `pairs`, in the order given, as an
        intp array gathered in one pass. UnknownState or ActionNotEnabled
        names the first tuple that is not a pair of the product."""
        pairs = list(pairs)
        i = np.fromiter(map(itemgetter(0), pairs), np.intp, len(pairs))
        code = np.fromiter(map(self._code.get, map(itemgetter(1), pairs),
                               repeat(-1)), np.intp, len(pairs))
        ok = (i >= 0) & (i < self.n_states)
        at = np.where(ok, self._pair_at[self._model_state[i * ok], code], -1)
        if (at < 0).any():
            i, a = pairs[int(np.argmax(at < 0))]
            self.check_state(i)
            raise ActionNotEnabled(
                f"action {a!r} not enabled in product state {i}")
        return self.pair_ptr[i] + at

    def pair_actions(self, pairs) -> list:
        """The action of each pair id in `pairs`."""
        acts = [a for _, a in self.model_pairs]
        return list(map(acts.__getitem__, self.pair_model[pairs].tolist()))

    def trans_row(self, i, a):
        """(successor ids, probabilities) of pair (i, a): the successors
        are read off the flat layout, the probabilities are the model
        row's own tuple."""
        self.check_state(i)
        s = self.states[i][0]
        at = self._edge_at.get((s, a))
        if at is None:
            raise ActionNotEnabled(f"action {a!r} not enabled in product state {i}")
        probs = self.m._rows[(s, a)][1]
        lo = self._edge_base[i] + at
        return tuple(self._succ_at[lo:lo + len(probs)]), probs

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
                f"{i}/{a}": {str(j): p for j, p in zip(*self.trans_row(i, a))}
                for i, a in sorted((i, a) for i in range(self.n_states)
                                   for a in self.enabled(i))
            },
        }
        if winning is not None:
            doc["winning_states"] = sorted(winning)
        if winning_pairs is not None:
            doc["winning_pairs"] = sorted([i, a] for i, a in winning_pairs)
        return doc


def _offsets(lens) -> np.ndarray:
    """Row offsets of consecutive rows of lengths `lens`: 0, then their
    running sums."""
    out = np.zeros(len(lens) + 1, dtype=np.intp)
    np.cumsum(lens, out=out[1:])
    return out


def _ranges(starts, lens) -> np.ndarray:
    """The index ranges starts[r]:starts[r] + lens[r], concatenated."""
    shift = starts - (np.cumsum(lens) - lens)
    return np.repeat(shift, lens) + np.arange(int(lens.sum()))


def _bfs(m, d, succ_keys) -> np.ndarray:
    """Breadth-first search of the reachable product, one level at a time.

    A product state is the key s * |F| + f (|F| automaton states);
    `succ_keys(s, f)` returns, for arrays of states, their model edges in
    pair-id order and the keys those edges lead to. Each level looks its
    successor keys up in a dense key -> id table and numbers the keys not
    seen before in the order of their first occurrence (`np.unique`'s
    first indices, sorted). The frontier holds consecutive ids in
    increasing order, so this is exactly the numbering of a FIFO search
    that pops one state at a time. Returns the table, -1 for unreached
    keys.
    """
    n_f = d.n_states
    key_id = np.full(m.n_states * n_f, -1, dtype=np.intp)
    frontier = np.array(
        [m.initial * n_f + d.step(d.initial, m.letter_of(m.initial))],
        dtype=np.intp)
    key_id[frontier] = 0
    n = 0
    while frontier.size:
        n += frontier.size
        k = succ_keys(*np.divmod(frontier, n_f))[1]
        frontier = k[key_id[k] < 0]
        if frontier.size > 1:
            new, first = np.unique(frontier, return_index=True)
            frontier = new[np.argsort(first)]
        key_id[frontier] = np.arange(n, n + frontier.size)
    return key_id


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
    s = p.states[i][0]
    k, s2, tau = _draw_step(p.m, s, a, rng)
    return p._succ_at[p._edge_base[i] + p._edge_at[(s, a)] + k], tau, s2


def exact_winning_region(p: ProductSmdp):
    """Greatest fixpoint of the stay-safe operator.

    Returns (W, W_p): the states from which the accepting set is avoidable
    with probability one, and the state-action pairs whose whole successor
    support stays inside W. Exact; used as the reference the learner is
    measured against. `_safety_fixpoint` runs on the product's stored
    flat layout, accepting states dead from the start; only the surviving
    pairs are turned into (i, a) tuples.
    """
    dead = np.zeros(p.n_states, dtype=bool)
    dead[list(p.accepting)] = True
    alive, safe = _safety_fixpoint(p.owner, p.row_ptr, p.succ, dead)
    safe = np.flatnonzero(safe)
    w = frozenset(np.flatnonzero(alive).tolist())
    w_p = frozenset(zip(p.owner[safe].tolist(), p.pair_actions(safe)))
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
    """The rows of every enabled action of `states`, padded for sweeps.

    Returns (acts, succ, prob, group): each state's enabled actions in the
    model's order; the successor and probability arrays of those rows, one
    state's rows after another, gathered from the flat layout and padded
    by `_pad` (index 0, probability 0.0); and the (width, len(states))
    positions of each state's rows among them, padded with the number of
    rows, the trailing slot of `_row_values`.
    """
    enabled, of = p.m._enabled, p.states
    acts = [enabled[of[i][0]] for i in states]
    states = np.asarray(states, dtype=np.intp)
    n_pairs = p.pair_ptr[states + 1] - p.pair_ptr[states]
    pairs = _ranges(p.pair_ptr[states], n_pairs)
    lens = p.row_ptr[pairs + 1] - p.row_ptr[pairs]
    edges = _ranges(p.row_ptr[pairs], lens)
    succ = _pad(lens, p.succ[edges], 0, np.intp)
    prob = _pad(lens, p.model_prob[p.edge[edges]], 0.0, float)
    group = _pad(n_pairs, np.arange(len(pairs)), len(pairs), np.intp)
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
