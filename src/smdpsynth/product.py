"""Product of an SMDP with a deterministic counting automaton, plus exact
oracles for the winning region and maximal reachability probabilities."""

from __future__ import annotations

from array import array
from collections.abc import Set
from itertools import repeat
from numbers import Integral
from operator import itemgetter

import numpy as np

from .automata import Dkcba, sccs
from .errors import (
    ActionNotEnabled, AlphabetMismatch, DomainGap, NotConverged,
    UnknownState,
)
from .smdp import Smdp, _draw

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

    States get ids in breadth-first discovery order. `states[i]` is the
    (model state, automaton state) pair of id i; the package itself reads
    only the model state, through `_s_of`, and keeps `states` for callers
    outside it (benchmarks, demos, scripts) that want the tuples.
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

    The automaton is known, so a model step (s, a, s') taken by pair k has
    one product successor, its lift: the entry of pair k's row at the
    position c of s' in the model row, `succ[row_ptr[k] + c]`. The risk
    model's assembly lifts this way, and so does the sampler: it draws
    position c from the draw row of model pair `pair_model[k]`.

    `pair_set` turns pair ids into a `PairSet`: a read-only set of the
    pairs (i, a) that holds only their sorted ids, owner states and
    action codes, never the product, and makes a tuple only when it is
    iterated. `pair_ids` hands a PairSet's ids back without reading a
    tuple.
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
        # over s, or -1 (the last column takes unknown actions)
        code = self._code = dict(zip(m.actions, range(len(m.actions))))
        self._pair_at = np.full((m.n_states, len(code) + 1), -1, np.intp)
        # the action code of each model pair, for PairSets
        self._model_code = np.array(
            [code[a] for _, a in self.model_pairs],
            dtype=np.min_scalar_type(max(len(code) - 1, 0)))
        for q, (s, a) in enumerate(self.model_pairs):
            self._pair_at[s, code[a]] = q - model_pair_ptr[s]
        # the model's draw row of each model pair
        self._draw_rows = list(map(m._draw.__getitem__, self.model_pairs))

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
        # successors, the model pair and first edge of every pair, and the
        # model state of every state
        self._succ_at = array("q", self.succ.astype(np.int64).tobytes())
        self._model_at = array("q", self.pair_model.astype(np.int64)
                               .tobytes())
        self._row_at = array("q", self.row_ptr.astype(np.int64).tobytes())
        self._s_of = s_of.tolist()
        # marks the PairSets of this product
        self._key = object()

    def check_state(self, i):
        if not 0 <= i < self.n_states:
            raise UnknownState(f"product state {i} not in 0..{self.n_states - 1}")

    def enabled(self, i):
        self.check_state(i)
        return self.m._enabled[self._s_of[i]]

    def pair_ids(self, pairs) -> np.ndarray:
        """Ids of the pairs (i, a) of `pairs`, in the order given, as an
        intp array gathered in one pass. UnknownState or ActionNotEnabled
        names the first tuple that is not a pair of the product. A
        PairSet of this product returns its sorted ids, read-only."""
        if isinstance(pairs, PairSet) and pairs._key is self._key:
            return pairs.ids
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

    def pair_actions(self, ids) -> list:
        """The action of each pair id in `ids`. UnknownState names the
        first id outside 0..len(owner) - 1."""
        acts = [a for _, a in self.model_pairs]
        return list(map(acts.__getitem__,
                        self.pair_model[self._checked_ids(ids)].tolist()))

    def pair_set(self, ids) -> "PairSet":
        """The pairs (i, a) of the pair ids `ids`, as a PairSet; a
        repeated id counts once. UnknownState names the first id outside
        0..len(owner) - 1."""
        ids = self._checked_ids(ids)
        # sorted, each id once; `np.unique` gives the same ids, but took
        # 4.2 ms against 0.2 ms for 22,388 ids under NumPy 2.4
        ids = np.sort(ids)
        first = np.ones(len(ids), dtype=bool)
        first[1:] = ids[1:] != ids[:-1]
        ids = ids[first]
        return PairSet(ids, self.owner[ids],
                       self._model_code[self.pair_model[ids]],
                       self.m.actions, self._key)

    def _checked_ids(self, ids) -> np.ndarray:
        """`ids` as an intp array; UnknownState names the first id outside
        0..len(owner) - 1."""
        ids = np.asarray(ids, dtype=np.intp)
        bad = (ids < 0) | (ids >= len(self.owner))
        if bad.any():
            raise UnknownState(f"pair id {ids[np.argmax(bad)]} not in "
                               f"0..{len(self.owner) - 1}")
        return ids


class PairSet(Set):
    """A read-only set of pairs (i, a) of one product, held as their pair
    ids. Made by `ProductSmdp.pair_set`, it keeps the sorted, distinct
    ids as `ids`, the state and the action code of each, the model's
    action names and its product's key, and nothing else of the product.

    It is a `collections.abc.Set` and compares and hashes as the
    frozenset of its pairs does. Iteration makes the tuples in pair-id
    order, on demand, and keeps none. Membership finds the pair's state
    among the sorted states by binary search and its action among that
    state's codes; anything that is not a pair of the set's product is
    False. Between two sets of the same product, `==`, `<=`, `>=`, `<`
    and `>` compare the ids and read no tuple, and the product's
    `pair_ids` returns `ids`; any other product reads the tuples. Set
    operations give plain frozensets. A shallow copy belongs to the same
    product; a deep copy or an unpickled set belongs to the product
    copied or pickled with it, if any, and otherwise takes the tuple
    path. Its arrays are read-only.
    """

    __slots__ = ("ids", "_owner", "_code", "_actions", "_key")

    def __init__(self, ids, owner, code, actions, key):
        for arr in (ids, owner, code):
            arr.flags.writeable = False
        self.ids, self._owner, self._code = ids, owner, code
        self._actions, self._key = actions, key

    def __reduce__(self):
        return type(self), (self.ids, self._owner, self._code,
                            self._actions, self._key)

    def __len__(self):
        return len(self.ids)

    def __iter__(self):
        return zip(self._owner.tolist(),
                   map(self._actions.__getitem__, self._code.tolist()))

    def __contains__(self, pair):
        if not (isinstance(pair, tuple) and len(pair) == 2):
            return False
        i, a = pair
        if not (isinstance(i, Integral) and a in self._actions):
            return False
        lo, hi = np.searchsorted(self._owner, (i, i + 1)).tolist()
        return self._actions.index(a) in self._code[lo:hi].tolist()

    def __repr__(self):
        return f"PairSet({list(self)!r})"

    @classmethod
    def _from_iterable(cls, it):
        return frozenset(it)

    def _same_product(self, other):
        return isinstance(other, PairSet) and other._key is self._key

    # `Set` derives ==, < and > from these two
    def __le__(self, other):
        if self._same_product(other):
            return _within(self.ids, other.ids)
        return super().__le__(other)

    def __ge__(self, other):
        if self._same_product(other):
            return _within(other.ids, self.ids)
        return super().__ge__(other)

    def __hash__(self):
        return self._hash()


def _within(a, b) -> bool:
    """Whether every id of the sorted array `a` is in the sorted array
    `b`, by one binary search per id."""
    return len(a) <= len(b) and (len(a) == 0 or np.array_equal(
        b.take(np.searchsorted(b, a), mode="clip"), a))


def _offsets(lens) -> np.ndarray:
    """Row offsets of consecutive rows of lengths `lens`: 0, then their
    running sums."""
    out = np.zeros(len(lens) + 1, dtype=np.intp)
    np.cumsum(lens, out=out[1:])
    return out


def _state_mask(p: ProductSmdp, states) -> np.ndarray:
    """A boolean mask over the product states, True at the ids of the
    iterable `states`; UnknownState names the first id outside
    0..n_states - 1."""
    ids = np.fromiter(states, dtype=np.intp)
    bad = (ids < 0) | (ids >= p.n_states)
    if bad.any():
        p.check_state(int(ids[np.argmax(bad)]))
    mask = np.zeros(p.n_states, dtype=bool)
    mask[ids] = True
    return mask


def _first_positions(keys, n) -> np.ndarray:
    """The position of the first occurrence of each distinct value of the
    integer array `keys` (values in 0..n - 1), in increasing order: the
    sorted `np.unique(keys, return_index=True)[1]`, but one pass over an
    array of length n in place of a sort of `keys` (0.08 against 1.8 ms
    for 22,000 keys over 100 values under NumPy 2.4)."""
    first = np.full(n, len(keys), dtype=np.intp)
    np.minimum.at(first, keys, np.arange(len(keys)))
    return np.sort(first[first < len(keys)])


def _pool_copies(p: ProductSmdp, w_p):
    """The ascending pair ids of the pairs `w_p`, and among them the
    first copy (lowest id) of each pool, in pair-id order. A pool is a
    model pair; its copies, the product pairs over it, share its
    dynamics and its posterior."""
    pid = np.sort(p.pair_ids(w_p))
    return pid, pid[_first_positions(p.pair_model[pid], len(p.model_pairs))]


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


def sample_product_step(p: ProductSmdp, k, rng):
    """Draw one transition of pair id k; returns (j, tau, model_successor).

    `sample_step`'s draw (the same random draws) on the draw row of pair
    k's model pair picks position c of the model row; the product row
    lists its successors in the model row's order, so its c-th entry is
    the lifted successor. UnknownState, drawing nothing, for an id outside
    0..len(owner) - 1. This is the simulator interface the learner sees,
    which never reads the transition table directly.
    """
    if not 0 <= k < len(p._model_at):
        raise UnknownState(f"pair id {k} not in 0..{len(p._model_at) - 1}")
    cum, succs, samplers = p._draw_rows[p._model_at[k]]
    c, tau = _draw(cum, samplers, rng)
    return p._succ_at[p._row_at[k] + c], tau, succs[c]


def exact_winning_region(p: ProductSmdp):
    """Greatest fixpoint of the stay-safe operator.

    Returns (W, W_p): the states from which the accepting set is avoidable
    with probability one, and the state-action pairs whose whole successor
    support stays inside W. Exact; used as the reference the learner is
    measured against. `_safety_fixpoint` runs on the product's stored
    flat layout, accepting states dead from the start; W_p is the
    PairSet of the surviving pair ids.
    """
    dead = _state_mask(p, p.accepting)
    alive, safe = _safety_fixpoint(p.owner, p.row_ptr, p.succ, dead)
    return frozenset(np.flatnonzero(alive).tolist()), \
        p.pair_set(np.flatnonzero(safe))


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
    # an array, read one dying state's slice at a time: as a list, its
    # Python ints would be the largest allocation of the solve
    pred = edge_pair[np.argsort(succ, kind="stable")]
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
        for k in pred[pred_ptr[j]:pred_ptr[j + 1]].tolist():
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
    each state takes the maximum over its rows (`_row_best`). Iteration
    stops when the sup-norm residual drops below 1e-12, and raises
    NotConverged after MAX_SWEEPS sweeps. UnknownState names the first
    target outside the product.
    """
    v = _state_mask(p, target).astype(float)
    states = np.flatnonzero(v == 0.0)
    rows = _state_rows(p, states)

    for _ in range(MAX_SWEEPS):
        best = _row_best(rows, v, len(states))[1]
        residual = float(np.max(np.abs(best - v[states]), initial=0.0))
        v[states] = best
        if residual < 1e-12:
            return v
    raise NotConverged("max-reach value iteration", residual, MAX_SWEEPS)


def _best_actions(p: ProductSmdp, states, v, tol):
    """The pair ids of `states`, each state's in the model's action order,
    and a mask of those whose row value sum_j P(j|i,a) v_j is at least
    their state's best value minus `tol`, all from one `_row_best`
    sweep, as in `exact_max_reach_probability`."""
    rows = _state_rows(p, states)
    vals, best = _row_best(rows, v, len(states))
    pairs, group = rows[:2]
    return pairs, vals >= (best - tol)[group]


def _state_rows(p: ProductSmdp, states):
    """The rows of every enabled action of `states`, read from the flat
    layout.

    Returns (pairs, group, row, succ, prob): the pair ids of `states`,
    one state's after another; the position in `states` of each pair's
    state; and, for each entry of their rows in row order, the position
    of its row in `pairs`, its successor and its probability.
    """
    states = np.asarray(states, dtype=np.intp)
    n_pairs = p.pair_ptr[states + 1] - p.pair_ptr[states]
    pairs = _ranges(p.pair_ptr[states], n_pairs)
    lens, edges = _pair_rows(p, pairs)
    return (pairs, np.repeat(np.arange(len(states)), n_pairs),
            np.repeat(np.arange(len(pairs)), lens), p.succ[edges],
            p.model_prob[p.edge[edges]])


def _row_best(rows, v, n):
    """One sweep over `_state_rows`' rows of n states: the value
    sum_j P(j|row) v_j of every row, and the largest of each state's.
    `bincount` adds each row's entries in input order, so a row sums left
    to right as a loop over it would; a maximum is exact in any order, so
    `maximum.at` into -inf gives `np.maximum.reduceat`'s bit for bit."""
    pairs, group, row, succ, prob = rows
    vals = np.bincount(row, weights=prob * v[succ], minlength=len(pairs))
    best = np.full(n, -np.inf)
    np.maximum.at(best, group, vals)
    return vals, best


def _pair_rows(p: ProductSmdp, pids):
    """The rows of the pair ids `pids`, gathered from the flat layout:
    their lengths, and the positions of their entries in `succ` and
    `edge`, one row after another in row order."""
    lens = p.row_ptr[pids + 1] - p.row_ptr[pids]
    return lens, _ranges(p.row_ptr[pids], lens)


def policy_reach_probability(p: ProductSmdp, policy, target) -> np.ndarray:
    """Pr(reach target from each state) under a policy array that chooses
    at every non-target state, as `_policy_pairs` checks.

    Its rows, one pair per non-target state, come from one gather of the
    flat layout. The unknowns are the states that die in `_safety_fixpoint`
    over those rows with the target dead: exactly those that can reach the
    target. Every other state gets 0 and target states 1. The unknowns'
    system
    v_i = sum_{j in target} P(j|i) + sum_{j unknown} P(j|i) v_j is solved
    exactly by `_solve_by_components`, one strongly connected component at
    a time: memory grows with rows × successors plus the square of the
    largest component, never with n². UnknownState names the first target
    outside the product.
    """
    dead = _state_mask(p, target)
    states = np.flatnonzero(~dead)
    pids = _policy_pairs(p, policy, states)
    lens, edges = _pair_rows(p, pids)
    succ = p.succ[edges]
    alive, _ = _safety_fixpoint(states, _offsets(lens), succ, dead)

    # unknown i's entries in row order: a target successor adds its
    # probability to the constant, an unknown one is a coefficient, any
    # other (value 0) drops out
    unknown = ~alive & ~dead
    n_unknown = int(np.count_nonzero(unknown))
    pos = np.full(p.n_states, -1, dtype=np.intp)
    pos[unknown] = np.arange(n_unknown)
    row = np.repeat(pos[states], lens)
    prob = p.model_prob[p.edge[edges]]
    hit, var = (row >= 0) & dead[succ], (row >= 0) & (pos[succ] >= 0)
    const = np.bincount(row[hit], weights=prob[hit], minlength=n_unknown)

    v = dead.astype(float)
    v[unknown] = _solve_by_components(row[var], pos[succ[var]], prob[var],
                                      const)
    return v


def _policy_pairs(p: ProductSmdp, policy, states) -> np.ndarray:
    """The pair ids that the policy array `policy` chooses at `states`.
    DomainGap if it has not one entry per state or leaves one of `states`
    at -1, ActionNotEnabled if it chooses no pair of that state."""
    policy = np.asarray(policy, dtype=np.intp)
    if policy.shape != (p.n_states,):
        raise DomainGap(f"policy has {len(policy)} entries for "
                        f"{p.n_states} states")
    pids = policy[states]
    ok = (pids >= 0) & (pids < len(p.owner))
    ok[ok] = p.owner[pids[ok]] == states[ok]
    if not ok.all():
        i, k = int(states[~ok][0]), int(pids[~ok][0])
        if k == -1:
            raise DomainGap(f"state {i} has no policy entry")
        raise ActionNotEnabled(f"pair id {k} is not one of state {i}'s")
    return pids


def _greedy_policy(owner, ids, key, n_states) -> np.ndarray:
    """The policy array over `n_states` states that gives each state in
    `owner` (the state of each of the ascending pair ids `ids`) the first
    of its ids of least `key`, found by a stable sort on (state, key), so
    ties go to the action listed first; -1 to every other state."""
    order = np.lexsort((key, owner))
    first = order[np.flatnonzero(np.diff(owner[order], prepend=-1))]
    policy = np.full(n_states, -1, dtype=np.intp)
    policy[owner[first]] = ids[first]
    return policy


def _solve_by_components(row, col, coef, const) -> list:
    """Solve v_i = const[i] + sum_e coef[e] v_{col[e]} over the entries e
    of row i exactly; returns v as a list of floats.

    The system is given as flat arrays of its sparse entries, `row` in
    ascending order: unknown i depends on the unknowns `col[e]` of its
    entries, with coefficients `coef[e]`, in the order given. It is
    solved one strongly connected component of that dependency graph at a
    time, sinks first, so every unknown a component refers to outside
    itself is already known. A single unknown is the closed form
    (const_i + sum_{j != i} a_ij v_j) / (1 - a_ii); a larger component
    gets a dense k×k solve. Memory is O(rows × successors + k²) for the
    largest component k. The system must be nonsingular on every
    component (a discounted or target-reaching policy system is).
    """
    n = len(const)
    ptr = _offsets(np.bincount(row, minlength=n)).tolist()
    col, coef, const = col.tolist(), coef.tolist(), const.tolist()
    succs = [col[lo:hi] for lo, hi in zip(ptr, ptr[1:])]
    coefs = [coef[lo:hi] for lo, hi in zip(ptr, ptr[1:])]
    v = [0.0] * n
    for comp in sccs(range(n), succs.__getitem__):
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
            at = local[i]
            for j, a in zip(succs[i], coefs[i]):
                k = local.get(j)
                if k is None:
                    rhs[at] += a * v[j]
                else:
                    mat[at, k] -= a
        for i, x in zip(comp, np.linalg.solve(mat, rhs).tolist()):
            v[i] = x
    return v
