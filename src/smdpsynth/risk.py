"""Dwell-time risk minimization inside the winning region.

The estimated transition law and a per-transition risk (a functional of
the predictive dwell distribution) define a discounted minimization
problem over the winning pairs only, so any greedy policy of its fixed
point keeps the region invariant while minimizing accumulated risk. Value
iteration solves it; the transient policy fills in the rest of the state
space.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .bayes import MeanPlusSigma, predictive_dwell, predictive_successors, \
    predictive_transition, risk_of
from .errors import (
    DomainGap, EmptyPredictiveRow, InvalidRiskModel, NoAllowedAction,
    NonfiniteRisk, NotConverged, PolicyLeavesW, UntrackedPair,
)
from .product import (
    ProductSmdp, _offsets, _pad, _pair_rows, _ranges, _solve_by_components,
)

# sweeps after which risk value iteration gives up with NotConverged
MAX_SWEEPS = 100_000


@dataclass
class RiskModel:
    """Estimated dynamics and risks restricted to the winning pairs, as
    compressed sparse rows (CSR).

    Row k is the winning pair `pairs[k]` = (i, a). Its entries are
    `row_ptr[k]:row_ptr[k + 1]` of the flat arrays `succ` (successor
    product ids), `prob` (probabilities) and `risk` (the risk of each
    transition). `allowed` maps every winning state to its actions that
    have a row, in the model's action order; `escaped` maps a pair to the
    predictive mass renormalized away from its row.

    Construction checks the discount, that no allowed tuple is empty, and
    that every row sums to one, stays among the allowed states and has
    finite nonnegative risks, naming the first offending pair.
    """

    pairs: list
    row_ptr: np.ndarray
    succ: np.ndarray
    prob: np.ndarray
    risk: np.ndarray
    allowed: dict
    gamma_r: float = 0.9
    escaped: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0 <= self.gamma_r < 1:
            raise InvalidRiskModel(
                f"gamma_r must be in [0,1), got {self.gamma_r}")
        for i, acts in self.allowed.items():
            if not acts:
                raise InvalidRiskModel(f"state {i} has no allowed action")
        self.row_ptr = np.asarray(self.row_ptr, dtype=np.intp)
        self.succ = np.asarray(self.succ, dtype=np.intp)
        self.prob = np.asarray(self.prob, dtype=float)
        self.risk = np.asarray(self.risk, dtype=float)
        n, lens = len(self.pairs), np.diff(self.row_ptr)
        if (len(self.row_ptr) != n + 1 or self.row_ptr[0] != 0
                or (lens < 0).any()
                or not len(self.succ) == len(self.prob) == len(self.risk)
                == self.row_ptr[-1]):
            raise InvalidRiskModel(
                "rows must be compressed sparse rows, one per pair")
        row = np.repeat(np.arange(n), lens)
        # the same left-to-right sum per row as a loop over it
        off = np.abs(np.bincount(row, weights=self.prob, minlength=n)
                     - 1.0) > 1e-9
        inside = np.zeros(max(self.allowed, default=-1) + 1, dtype=bool)
        inside[list(self.allowed)] = True
        known = (self.succ >= 0) & (self.succ < len(inside))
        leaves = ~known
        leaves[known] = ~inside[self.succ[known]]
        leaving = np.bincount(row[leaves], minlength=n) > 0
        bad = np.flatnonzero(off | leaving)
        if bad.size:
            k = int(bad[0])
            i, a = self.pairs[k]
            raise InvalidRiskModel(
                f"row ({i},{a}) does not sum to one" if off[k] else
                f"row ({i},{a}) leaves the winning region")
        _check_risks(self)


def _check_risks(rm):
    """NonfiniteRisk naming the first transition of `rm` whose risk is
    not finite and nonnegative, if there is one."""
    bad = np.flatnonzero(~((rm.risk >= 0) & (rm.risk < math.inf)))
    if bad.size:
        e = int(bad[0])
        i, a = rm.pairs[int(np.searchsorted(rm.row_ptr, e, side="right")) - 1]
        _checked(float(rm.risk[e]), i, a, int(rm.succ[e]))


def build_risk_model(p: ProductSmdp, w, w_p, tpost, dpost,
                     functional=None, gamma_r=0.9) -> RiskModel:
    """Assemble the planner's model from the learned posteriors.

    Posterior rows are keyed by model pair; successors are lifted back to
    product states. Predictive mass on successors outside the winning
    region (possible under estimation noise) is renormalized away with a
    warning; a pair left with no mass at all raises EmptyPredictiveRow.
    Risks must come out finite and nonnegative.

    The copies (i, a) of W_p go in (state, action name) order. Copies of
    a model pair (pool) share its posterior, so the work is split three
    ways. Per pool, once, at its first copy: the predictive successors and
    probabilities, and each successor's position in the model row (one
    outside it raises InvalidRiskModel). Per copy, in array passes: each
    candidate is lifted through its position in the copy's product row
    and tested against W, and the kept mass is summed in row order, so a
    copy that keeps every candidate gets its pool's normalized row and one
    that keeps some renormalizes them. Per model triple (s, a, s'): one
    risk of the predictive dwell, when a copy first keeps it. Warnings,
    errors and risks come in the order of a loop over the copies, up to
    the first error.
    """
    functional = functional or MeanPlusSigma(1.0)
    w = frozenset(w)
    pid = p.pair_ids(w_p)
    rank = {n: r for r, n in enumerate(sorted({str(a) for a in p.m.actions}))}
    rank = np.array([rank[str(a)] for _, a in p.model_pairs], dtype=np.intp)
    pid = pid[np.lexsort((rank[p.pair_model[pid]], p.owner[pid]))]
    pool = p.pair_model[pid]

    # pool q's candidates, positions and probabilities are the slots
    # lo[q]:lo[q] + n[q]; a pool that fails stops the copies at its first
    lo, n = np.zeros((2, len(p.model_pairs)), dtype=np.intp)
    slot_succ, slot_at, slot_pr = [], [], []
    stop, err = len(pid), None
    for k in np.sort(np.unique(pool, return_index=True)[1]).tolist():
        s, a = p.model_pairs[pool[k]]
        at = {s2: c for c, s2 in enumerate(p.m._rows[(s, a)][0])}
        try:
            row = predictive_successors(tpost, s, a)
        except UntrackedPair as exc:
            stop, err = k, exc
            break
        outside = [s2 for s2 in row if s2 not in at]
        if outside:
            stop, err = k, InvalidRiskModel(
                f"pair ({p.owner[pid[k]]},{a}): candidate successor "
                f"{outside[0]} is not in the row of model pair ({s},{a})")
            break
        lo[pool[k]], n[pool[k]] = len(slot_succ), len(row)
        slot_succ += row
        slot_at += [at[s2] for s2 in row]
        slot_pr += list(predictive_transition(tpost, s, a))

    # one entry per candidate of each copy before the stop: its slot, and
    # its successor in the copy's product row, tested against W
    lens = n[pool[:stop]]
    cand = _ranges(lo[pool[:stop]], lens)
    lifted = p.succ[np.repeat(p.row_ptr[pid[:stop]], lens)
                    + np.array(slot_at, dtype=np.intp)[cand]]
    kept = np.isin(np.arange(p.n_states), list(w))[lifted]
    copy = np.repeat(np.arange(stop), lens)
    pr = np.array(slot_pr, dtype=float)[cand]
    total = np.bincount(copy[kept], weights=pr[kept], minlength=stop)
    lost = np.bincount(copy[~kept], weights=pr[~kept], minlength=stop)
    n_kept = np.bincount(copy[kept], minlength=stop)
    empty = np.flatnonzero(n_kept == 0)
    if empty.size:
        stop = int(empty[0])
        err = EmptyPredictiveRow("pair ({},{}) has no predictive mass inside "
                                 "the region".format(*_pair(p, pid[stop])))

    # in loop order: a partial copy's warning at its first entry, then the
    # risk of each triple at the entry that first keeps it
    first = _offsets(lens[:stop])
    ke = np.flatnonzero(kept[:first[-1]])
    ke = ke[np.unique(cand[ke], return_index=True)[1]]
    risk, escaped = np.zeros(len(slot_succ)), {}
    warn = first[:-1][lost[:stop] > 0.0]
    for e in np.sort(np.concatenate([2 * warn, 2 * ke + 1])).tolist():
        e, is_risk = divmod(e, 2)
        i, a = _pair(p, pid[copy[e]])
        if is_risk:
            risk[cand[e]] = _checked(risk_of(predictive_dwell(
                dpost, p._s_of[i], a, slot_succ[cand[e]]), functional),
                i, a, int(lifted[e]))
        else:
            escaped[(i, a)] = lost[copy[e]]
            # attributed to the caller of build_risk_model
            warnings.warn(
                f"pair ({i},{a}): renormalized {escaped[(i, a)]:.3g} "
                "predictive mass escaping the winning region", stacklevel=2)
    if err is not None:
        raise err
    return _assemble(p, w, pid, n_kept, lifted[kept], (pr / total[copy])[kept],
                     risk[cand[kept]], gamma_r, escaped)


def risk_model_from_product(p: ProductSmdp, w, w_p, risk_fn,
                            gamma_r=0.9) -> RiskModel:
    """Exact-model counterpart of build_risk_model, for oracles and tests.

    Uses the product's true rows restricted to the winning pairs, gathered
    from its flat layout, in pair-id order. `risk_fn` is a callable
    (i, a, j) -> value on product ids that depends only on the model
    triple (s, a, s') of the transition, like `true_risk_fn`'s: it is
    called once per model edge, at the first product transition that lifts
    it, and every product transition gets its model edge's risk. Winning
    pairs whose true support leaves the region are rejected; errors name
    the first offending pair in pair-id order.
    """
    w = frozenset(w)
    pids = np.sort(p.pair_ids(w_p))
    lens, edges = _pair_rows(p, pids)
    succ = p.succ[edges]
    row = np.repeat(np.arange(len(pids)), lens)
    leaving = row[~np.isin(np.arange(p.n_states), list(w))[succ]]
    stop = int(leaving[0]) if leaving.size else len(pids)

    model_edge = p.edge[edges]
    uniq, first, inverse = np.unique(model_edge, return_index=True,
                                     return_inverse=True)
    risks = np.zeros(len(uniq))
    for e in np.sort(first[row[first] < stop]).tolist():
        i, a = _pair(p, pids[row[e]])
        j = int(succ[e])
        risks[inverse[e]] = _checked(risk_fn(i, a, j), i, a, j)
    if stop < len(pids):
        raise InvalidRiskModel("pair ({},{}) leaves the winning region"
                               .format(*_pair(p, pids[stop])))
    return _assemble(p, w, pids, lens, succ, p.model_prob[model_edge],
                     risks[inverse], gamma_r, {})


def _pair(p, k):
    """(i, a) of product pair id k."""
    return int(p.owner[k]), p.model_pairs[p.pair_model[k]][1]


def _checked(r, i, a, j):
    """r itself if it is a finite nonnegative risk; NonfiniteRisk
    otherwise."""
    if not 0 <= r < math.inf:
        raise NonfiniteRisk(f"risk of ({i},{a},{j}) is {r!r}")
    return r


def _assemble(p, w, pids, lens, succ, prob, risk, gamma_r,
              escaped) -> RiskModel:
    """Shared core of both builders: the rows of the winning pairs with
    product pair ids `pids`, of lengths `lens`, with their flat
    successors, probabilities and checked risks, become a RiskModel with
    an allowed action tuple for every winning state, in the model's
    action order."""
    # ties in the greedy policy break toward the earliest enabled action,
    # so allowed tuples keep the model's action order, pair-id order
    allowed, ids = {}, np.sort(pids)
    for i, a in zip(p.owner[ids].tolist(), p.pair_actions(ids)):
        allowed[i] = allowed.get(i, ()) + (a,)
    for i in w:
        if i not in allowed:
            raise NoAllowedAction(f"winning state {i} has no winning pair")
    return RiskModel(
        pairs=list(zip(p.owner[pids].tolist(), p.pair_actions(pids))),
        row_ptr=_offsets(lens), succ=succ, prob=prob, risk=risk,
        allowed=allowed, gamma_r=gamma_r, escaped=escaped)


@dataclass
class RiskQ:
    """Fixed point of the discounted risk recursion on winning pairs."""

    q: dict
    residual: float
    iterations: int
    residuals: list = field(repr=False, default_factory=list)


def risk_value_iteration(rm: RiskModel, tol=1e-9) -> RiskQ:
    """Iterate Q(s,a) = sum_j T(j|s,a) (risk(s,a,j) + g_r min_a' Q(j,a'))
    to a sup-norm residual below tol; raises NotConverged after MAX_SWEEPS
    sweeps.

    Each sweep updates every pair from the previous sweep's state minima
    (Jacobi), as array operations over the model's rows, laid out by
    `_pad` straight from its CSR arrays: column k holds entry k of every
    row, so each row sums left to right as a loop over it would, and a
    padded entry (successor 0, probability and risk 0.0) adds exactly 0.0.
    The minima come from a (width, states) array of each state's pairs
    padded with +inf, exact like any minimum.
    """
    if tol <= 0:
        raise InvalidRiskModel(f"tol must be positive, got {tol}")
    _check_risks(rm)
    pairs = rm.pairs
    state_of = np.zeros(max(rm.allowed, default=-1) + 1, dtype=np.intp)
    state_of[list(rm.allowed)] = np.arange(len(rm.allowed))
    pair_of = {pair: k for k, pair in enumerate(pairs)}
    # each state's pairs in allowed order, padded with the +inf slot after
    # the last pair, for the per-state minimum
    group = _pad(np.fromiter(map(len, rm.allowed.values()), dtype=np.intp,
                             count=len(rm.allowed)),
                 [pair_of[(i, a)] for i, acts in rm.allowed.items()
                  for a in acts], len(pairs), np.intp)
    q_inf = np.full(len(pairs) + 1, np.inf)
    lens = np.diff(rm.row_ptr)
    succ = _pad(lens, state_of[rm.succ], 0, np.intp)
    prob = _pad(lens, rm.prob, 0.0, float)
    risk = _pad(lens, rm.risk, 0.0, float)
    q = np.zeros(len(pairs))
    best = np.zeros(len(rm.allowed))
    residuals = []
    for _ in range(MAX_SWEEPS):
        new = np.zeros(len(pairs))
        for k in range(len(succ)):
            new += prob[k] * (risk[k] + rm.gamma_r * best[succ[k]])
        residual = float(np.max(np.abs(new - q), initial=0.0))
        q = new
        q_inf[:-1] = q
        best = q_inf[group].min(axis=0)
        residuals.append(residual)
        if residual < tol:
            return RiskQ(q=dict(zip(pairs, q.tolist())), residual=residual,
                         iterations=len(residuals), residuals=residuals)
    raise NotConverged("risk value iteration", residual, MAX_SWEEPS)


def extract_pi_win(rm: RiskModel, rq: RiskQ) -> dict:
    """Positional risk-greedy policy: argmin of Q over the allowed actions,
    ties broken toward the action listed first."""
    pi = {}
    for i, acts in rm.allowed.items():
        best, best_v = None, None
        for a in acts:
            v = rq.q[(i, a)]
            if best_v is None or v < best_v:
                best, best_v = a, v
        pi[i] = best
    return pi


def combine_policy(p: ProductSmdp, w, pi_win, pi_tr) -> dict:
    """Case split: the risk policy inside the winning region, the
    reachability policy outside it."""
    w = frozenset(w)
    combined = {}
    for i in range(p.n_states):
        src = pi_win if i in w else pi_tr
        if i not in src:
            raise DomainGap(f"state {i} has no policy entry")
        combined[i] = src[i]
    return combined


def evaluate_policy_risk(p: ProductSmdp, pi, risk, gamma_r) -> dict:
    """Exact discounted risk of a region-preserving policy, per state.

    `pi` maps each state of its domain to an action; `risk` is a callable
    (i, a, j) -> value on product ids, called once per transition of the
    policy, in sorted-state, row order. The policy's rows are gathered
    from the flat layout in one pass, and the system
    v_i = sum_j P(j|i) risk(i, pi_i, j) + gamma_r sum_j P(j|i) v_j over the
    policy's states is solved exactly by `_solve_by_components`, one
    strongly connected component of the policy's graph at a time: memory
    grows with rows × successors plus the square of the largest component,
    never with n². Raises PolicyLeavesW at the first transition, in the
    same order, whose successor is outside the policy's domain.
    """
    if not 0 <= gamma_r < 1:
        raise InvalidRiskModel(f"gamma_r must be in [0,1), got {gamma_r}")
    states = sorted(pi)
    lens, edges = _pair_rows(p, p.pair_ids([(i, pi[i]) for i in states]))
    succ, owner = p.succ[edges], np.repeat(states, lens).astype(np.intp)
    pos = np.full(p.n_states, -1, dtype=np.intp)
    pos[states] = np.arange(len(states))
    leaving = np.flatnonzero(pos[succ] < 0)
    if leaving.size:
        i, j = int(owner[leaving[0]]), int(succ[leaving[0]])
        raise PolicyLeavesW(
            f"action {pi[i]} at state {i} reaches {j} outside W")
    prob = p.model_prob[p.edge[edges]]
    i_of = owner.tolist()
    risks = np.array(list(map(risk, i_of, map(pi.__getitem__, i_of),
                              succ.tolist())), dtype=float)
    row = pos[owner]
    const = np.bincount(row, weights=prob * risks, minlength=len(states))
    return dict(zip(states, _solve_by_components(
        row, pos[succ], gamma_r * prob, const)))
