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
    NonfiniteRisk, NotConverged, PolicyLeavesW,
)
from .product import (
    ProductSmdp, _offsets, _pad, _ranges, _solve_by_components,
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

    Product copies of a model state share its posterior, so the work is
    split three ways. Per model pair (s, a): the predictive successors and
    probabilities, each successor's position in the model row, and the
    normalized row, computed once. The candidates are observed successors,
    so each lies in the model row; one that does not raises
    InvalidRiskModel. Per model triple (s, a, s'): one risk of the
    predictive dwell, computed when a copy first keeps that successor. Per
    copy (i, a): each candidate is lifted through its position in the
    product row and tested against W; a copy that keeps every candidate
    appends the pool's normalized row and risks, and one that drops some
    renormalizes what it keeps.
    """
    functional = functional or MeanPlusSigma(1.0)
    w = frozenset(w)
    escaped = {}
    states, succ_at, edge_base = p.states, p._succ_at, p._edge_base
    pools = {}

    def pool(i, s, a):
        """[successors, probabilities, positions of the successors in the
        model row, normalized row, risks] for copy (i, a) of (s, a). The
        normalized row is filled when a copy first keeps every successor,
        each risk when a copy first keeps its successor."""
        cands = predictive_successors(tpost, s, a)
        at = {s2: k for k, s2 in enumerate(p.m._rows[(s, a)][0])}
        outside = [s2 for s2 in cands if s2 not in at]
        if outside:
            raise InvalidRiskModel(
                f"pair ({i},{a}): candidate successor {outside[0]} is not "
                f"in the row of model pair ({s},{a})")
        return [cands, list(predictive_transition(tpost, s, a)),
                [at[s2] for s2 in cands], None, [None] * len(cands)]

    def risk_at(pl, c, i, a, j):
        r = pl[4][c]
        if r is None:
            r = pl[4][c] = _checked(
                risk_of(predictive_dwell(dpost, states[i][0], a, pl[0][c]),
                        functional), i, a, j)
        return r

    pairs, pids, lens, succ, prob, risk = [], [], [], [], [], []
    for pair in sorted(w_p, key=lambda pair: (pair[0], str(pair[1]))):
        i, a = pair
        s = states[i][0]
        pid = p.pair_id(i, a)
        pl = pools.get((s, a))
        if pl is None:
            pl = pools[(s, a)] = pool(i, s, a)
        cands, prs, ks, full, rks = pl
        lo = edge_base[i] + p._edge_at[(s, a)]
        succs = [succ_at[lo + k] for k in ks]
        if w.issuperset(succs):
            if full is None:
                total = sum(prs)
                full = pl[3] = [pr / total for pr in prs]
                for c, j in enumerate(succs):
                    risk_at(pl, c, i, a, j)
            probs, rs = full, rks
        else:
            kept, lost = [], 0.0
            for c, j in enumerate(succs):
                if j in w:
                    kept.append(c)
                else:
                    lost += prs[c]
            if not kept:
                raise EmptyPredictiveRow(
                    f"pair ({i},{a}) has no predictive mass inside the "
                    "region")
            if lost > 0.0:
                # attributed to the caller of build_risk_model
                warnings.warn(
                    f"pair ({i},{a}): renormalized {lost:.3g} predictive "
                    "mass escaping the winning region", stacklevel=2)
                escaped[(i, a)] = lost
            total = sum(prs[c] for c in kept)
            succs = [succs[c] for c in kept]
            probs = [prs[c] / total for c in kept]
            rs = [risk_at(pl, c, i, a, j) for c, j in zip(kept, succs)]
        pairs.append(pair)
        pids.append(pid)
        lens.append(len(succs))
        succ += succs
        prob += probs
        risk += rs
    return _assemble(p, w, pairs, pids, lens, succ, prob, risk, gamma_r,
                     escaped)


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
    pids = np.sort(np.array([p.pair_id(i, a) for i, a in w_p],
                            dtype=np.intp))
    pairs = list(zip(p.owner[pids].tolist(), p.pair_actions(pids)))

    lens = p.row_ptr[pids + 1] - p.row_ptr[pids]
    edges = _ranges(p.row_ptr[pids], lens)
    succ = p.succ[edges]
    inside = np.zeros(p.n_states, dtype=bool)
    inside[list(w)] = True
    row = np.repeat(np.arange(len(pids)), lens)
    leaving = row[~inside[succ]]
    stop = int(leaving[0]) if leaving.size else len(pids)

    model_edge = p.edge[edges]
    uniq, first, inverse = np.unique(model_edge, return_index=True,
                                     return_inverse=True)
    risks = np.zeros(len(uniq))
    for u in np.argsort(first).tolist():
        e = int(first[u])
        k = int(row[e])
        if k >= stop:
            break
        i, a = pairs[k]
        j = int(succ[e])
        risks[u] = _checked(risk_fn(i, a, j), i, a, j)
    if stop < len(pids):
        i, a = pairs[stop]
        raise InvalidRiskModel(f"pair ({i},{a}) leaves the winning region")
    return _assemble(p, w, pairs, pids, lens, succ, p.model_prob[model_edge],
                     risks[inverse], gamma_r, {})


def _checked(r, i, a, j):
    """r itself if it is a finite nonnegative risk; NonfiniteRisk
    otherwise."""
    if not 0 <= r < math.inf:
        raise NonfiniteRisk(f"risk of ({i},{a},{j}) is {r!r}")
    return r


def _assemble(p, w, pairs, pids, lens, succ, prob, risk, gamma_r,
              escaped) -> RiskModel:
    """Shared core of both builders: the rows of the winning pairs
    `pairs` (product pair ids `pids`), of lengths `lens`, with their flat
    successors, probabilities and checked risks, become a RiskModel with
    an allowed action tuple for every winning state, in the model's
    action order."""
    # ties in the greedy policy break toward the earliest enabled action,
    # so each allowed tuple keeps the model's action order: the order in
    # which sorted pair ids list a state's actions
    pids = np.sort(np.asarray(pids, dtype=np.intp))
    allowed = {}
    for i, a in zip(p.owner[pids].tolist(), p.pair_actions(pids)):
        acts = allowed.get(i)
        if acts is None:
            allowed[i] = [a]
        else:
            acts.append(a)
    for i in w:
        if i not in allowed:
            raise NoAllowedAction(f"winning state {i} has no winning pair")
    return RiskModel(
        pairs=pairs, row_ptr=_offsets(lens),
        succ=np.asarray(succ, dtype=np.intp),
        prob=np.asarray(prob, dtype=float),
        risk=np.asarray(risk, dtype=float),
        allowed={i: tuple(acts) for i, acts in allowed.items()},
        gamma_r=gamma_r, escaped=escaped)


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

    `risk` is a callable (i, a, j) -> value on product ids. The system
    v_i = sum_j P(j|i) risk(i, pi_i, j) + gamma_r sum_j P(j|i) v_j over the
    policy's states is solved exactly by `_solve_by_components`, one
    strongly connected component of the policy's graph at a time: memory
    grows with rows × successors plus the square of the largest component,
    never with n². Raises PolicyLeavesW if any chosen action has successor
    mass outside the policy's domain.
    """
    if not 0 <= gamma_r < 1:
        raise InvalidRiskModel(f"gamma_r must be in [0,1), got {gamma_r}")
    states = sorted(pi)
    idx = {i: k for k, i in enumerate(states)}
    succs, coefs, const = [], [], []
    for i in states:
        row_succ, row_coef, c = [], [], 0.0
        for j, pr in zip(*p.trans_row(i, pi[i])):
            if j not in idx:
                raise PolicyLeavesW(
                    f"action {pi[i]} at state {i} reaches {j} outside W")
            c += pr * risk(i, pi[i], j)
            row_succ.append(idx[j])
            row_coef.append(gamma_r * pr)
        succs.append(row_succ)
        coefs.append(row_coef)
        const.append(c)
    return dict(zip(states, _solve_by_components(succs, coefs, const)))
