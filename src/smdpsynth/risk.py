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
from operator import itemgetter

import numpy as np

from .bayes import MeanPlusSigma, predictive_dwell, predictive_successors, \
    predictive_transition, risk_of
from .errors import (
    DomainGap, EmptyPredictiveRow, InvalidRiskModel, NoAllowedAction,
    NonfiniteRisk, NotConverged, PolicyLeavesW,
)
from .product import ProductSmdp, _pack_rows, _pad, _solve_by_components

# sweeps after which risk value iteration gives up with NotConverged
MAX_SWEEPS = 100_000


@dataclass
class RiskModel:
    """Estimated dynamics and risks restricted to the winning pairs."""

    trans: dict                  # (i, a) -> (successor pids, probs)
    risks: dict                  # (i, a, j) -> nonnegative risk
    allowed: dict                # i -> tuple of actions with (i, a) winning
    gamma_r: float = 0.9
    escaped: dict = field(default_factory=dict)   # (i, a) -> renormalized mass

    def __post_init__(self):
        if not 0 <= self.gamma_r < 1:
            raise InvalidRiskModel(
                f"gamma_r must be in [0,1), got {self.gamma_r}")
        for i, acts in self.allowed.items():
            if not acts:
                raise InvalidRiskModel(f"state {i} has no allowed action")
        for (i, a), (succs, probs) in self.trans.items():
            if abs(sum(probs) - 1.0) > 1e-9:
                raise InvalidRiskModel(f"row ({i},{a}) does not sum to one")
            for j in succs:
                if j not in self.allowed:
                    raise InvalidRiskModel(
                        f"row ({i},{a}) leaves the winning region")


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
    normalized row, computed once. Per model triple (s, a, s'): one risk
    of the predictive dwell, computed when a copy first keeps that
    successor. Per copy (i, a): each candidate is lifted through its
    position in the product row (`p.lift` only for a candidate outside
    the model row) and tested against W; a copy that keeps every candidate
    reuses the pool's normalized row, and one that drops some renormalizes
    what it keeps.
    """
    functional = functional or MeanPlusSigma(1.0)
    w = frozenset(w)
    escaped = {}
    states, prows = p.states, p._rows
    pools = {}

    def pool(s, a):
        """[successors, probabilities, getter of the lifted successors from
        a product row's successor tuple (None if a successor is outside the
        model row), normalized row, risks]. The normalized row is filled
        when a copy first keeps every successor, each risk when a copy
        first keeps its successor."""
        cands = predictive_successors(tpost, s, a)
        succs = p.m._rows.get((s, a), ((),))[0]
        at = {s2: k for k, s2 in enumerate(succs)}
        ks = [at.get(s2) for s2 in cands]
        if None in ks:
            get = None
        elif ks == list(range(len(succs))):
            get = tuple                 # the product row's own tuple
        elif len(ks) > 1:
            get = itemgetter(*ks)
        else:
            get = lambda t, k=ks[0]: (t[k],)   # noqa: E731
        return [cands, list(predictive_transition(tpost, s, a)), get, None,
                [None] * len(cands)]

    def risk_at(pl, c, i, a, j):
        r = pl[4][c]
        if r is None:
            r = pl[4][c] = _checked(
                risk_of(predictive_dwell(dpost, states[i][0], a, pl[0][c]),
                        functional), i, a, j)
        return r

    def row(pair):
        i, a = pair
        s = states[i][0]
        pl = pools.get((s, a))
        if pl is None:
            pl = pools[(s, a)] = pool(s, a)
        cands, prs, get, full, rks = pl
        succs = get(prows[pair][0]) if get else \
            tuple(p.lift(i, s2) for s2 in cands)
        if w.issuperset(succs):
            if full is None:
                total = sum(prs)
                full = pl[3] = tuple(pr / total for pr in prs)
                for c, j in enumerate(succs):
                    risk_at(pl, c, i, a, j)
            return succs, full, rks
        kept, lost = [], 0.0
        for c, j in enumerate(succs):
            if j in w:
                kept.append(c)
            else:
                lost += prs[c]
        if not kept:
            raise EmptyPredictiveRow(
                f"pair ({i},{a}) has no predictive mass inside the region")
        if lost > 0.0:
            # attributed to the caller of build_risk_model
            warnings.warn(
                f"pair ({i},{a}): renormalized {lost:.3g} predictive mass "
                "escaping the winning region", stacklevel=4)
            escaped[(i, a)] = lost
        probs = [prs[c] for c in kept]
        total = sum(probs)
        return (tuple(succs[c] for c in kept),
                tuple(pr / total for pr in probs),
                [risk_at(pl, c, i, a, succs[c]) for c in kept])

    return _assemble(p, w, w_p, row, gamma_r, escaped)


def risk_model_from_product(p: ProductSmdp, w, w_p, risk_fn,
                            gamma_r=0.9) -> RiskModel:
    """Exact-model counterpart of build_risk_model, for oracles and tests.

    Uses the product's true rows restricted to the winning pairs; `risk_fn`
    is a callable (i, a, j) -> value on product ids, called once per
    successor (`true_risk_fn` computes one risk per model triple). Winning
    pairs whose true support leaves the region are rejected.
    """
    w = frozenset(w)
    prows = p._rows

    def row(pair):
        i, a = pair
        succs, probs = prows.get(pair) or p.trans_row(i, a)
        if not w.issuperset(succs):
            raise InvalidRiskModel(
                f"pair ({i},{a}) leaves the winning region")
        rs = []
        for j in succs:
            rs.append(_checked(risk_fn(i, a, j), i, a, j))
        return succs, probs, rs

    return _assemble(p, w, w_p, row, gamma_r, {})


def _checked(r, i, a, j):
    """r itself if it is a finite nonnegative risk; NonfiniteRisk
    otherwise."""
    if not 0 <= r < math.inf:
        raise NonfiniteRisk(f"risk of ({i},{a},{j}) is {r!r}")
    return r


def _assemble(p, w, w_p, row, gamma_r, escaped) -> RiskModel:
    """Shared core of both builders: one row (successors, probabilities,
    checked risks) per winning pair, in sorted pair order, and an allowed
    action tuple for every winning state."""
    trans = {}
    risks = {}
    acts_of = {}
    for pair in sorted(w_p, key=lambda pair: (pair[0], str(pair[1]))):
        i, a = pair
        succs, probs, rs = row(pair)
        trans[pair] = (succs, probs)
        for j, r in zip(succs, rs):
            risks[(i, a, j)] = r
        acts = acts_of.get(i)
        if acts is None:
            acts_of[i] = [a]
        else:
            acts.append(a)
    for i in w:
        if i not in acts_of:
            raise NoAllowedAction(f"winning state {i} has no winning pair")
    # ties in the greedy policy break toward the earliest enabled action,
    # so keep each allowed tuple in the model's action order
    enabled, states = p.m._enabled, p.states
    allowed = {i: tuple(a for a in enabled[states[i][0]] if a in acts)
               for i, acts in acts_of.items()}
    return RiskModel(trans=trans, risks=risks, allowed=allowed,
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
    (Jacobi), as array operations over the packed rows; the minima come
    from a (width, states) array of each state's pairs padded with +inf,
    exact like any minimum.
    """
    if tol <= 0:
        raise InvalidRiskModel(f"tol must be positive, got {tol}")
    for key, r in rm.risks.items():
        if not math.isfinite(r):
            raise NonfiniteRisk(f"risk of {key} is {r!r}")
    pairs = list(rm.trans)
    state_of = {i: k for k, i in enumerate(rm.allowed)}
    pair_of = {pair: k for k, pair in enumerate(pairs)}
    # each state's pairs in allowed order, padded with the +inf slot after
    # the last pair, for the per-state minimum
    group = _pad(np.fromiter(map(len, rm.allowed.values()), dtype=np.intp,
                             count=len(rm.allowed)),
                 [pair_of[(i, a)] for i, acts in rm.allowed.items()
                  for a in acts], len(pairs), np.intp)
    q_inf = np.full(len(pairs) + 1, np.inf)
    rows = list(rm.trans.values())
    succ, prob, risk = _pack_rows(
        [[state_of[j] for j in succs] for succs, _ in rows],
        [probs for _, probs in rows],
        [[rm.risks[(i, a, j)] for j in succs]
         for (i, a), (succs, _) in zip(pairs, rows)])
    q = np.zeros(len(pairs))
    best = np.zeros(len(state_of))
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
