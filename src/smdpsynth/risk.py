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
    """
    functional = functional or MeanPlusSigma(1.0)
    w = frozenset(w)
    escaped = {}

    def row(i, a):
        s = p.states[i][0]
        succs, probs = [], []
        lost = 0.0
        for s2, pr in zip(predictive_successors(tpost, s, a),
                          predictive_transition(tpost, s, a)):
            j = p.lift(i, s2)
            if j is None or j not in w:
                lost += pr
            else:
                succs.append(j)
                probs.append(pr)
        if not succs:
            raise EmptyPredictiveRow(
                f"pair ({i},{a}) has no predictive mass inside the region")
        if lost > 0.0:
            # attributed to the caller of build_risk_model
            warnings.warn(
                f"pair ({i},{a}): renormalized {lost:.3g} predictive mass "
                "escaping the winning region", stacklevel=4)
            escaped[(i, a)] = lost
        total = sum(probs)
        return tuple(succs), tuple(pr / total for pr in probs)

    def risk(i, a, j):
        s, s2 = p.states[i][0], p.states[j][0]
        return risk_of(predictive_dwell(dpost, s, a, s2), functional)

    return _assemble(p, w, w_p, row, risk, gamma_r, escaped)


def risk_model_from_product(p: ProductSmdp, w, w_p, risk_fn,
                            gamma_r=0.9) -> RiskModel:
    """Exact-model counterpart of build_risk_model, for oracles and tests.

    Uses the product's true rows restricted to the winning pairs; `risk_fn`
    is a callable (i, a, j) -> value on product ids. Winning pairs whose
    true support leaves the region are rejected.
    """
    w = frozenset(w)

    def row(i, a):
        succs, probs = p.trans_row(i, a)
        if any(j not in w for j in succs):
            raise InvalidRiskModel(
                f"pair ({i},{a}) leaves the winning region")
        return tuple(succs), tuple(probs)

    return _assemble(p, w, w_p, row, risk_fn, gamma_r, {})


def _assemble(p, w, w_p, row, risk_fn, gamma_r, escaped) -> RiskModel:
    """Shared core of both builders: one row (successors, probabilities)
    per winning pair, a finite nonnegative risk per successor, and an
    allowed action tuple for every winning state."""
    trans = {}
    risks = {}
    allowed = {}
    for (i, a) in sorted(w_p, key=lambda pair: (pair[0], str(pair[1]))):
        succs, probs = row(i, a)
        trans[(i, a)] = (succs, probs)
        for j in succs:
            r = risk_fn(i, a, j)
            if not math.isfinite(r) or r < 0:
                raise NonfiniteRisk(f"risk of ({i},{a},{j}) is {r!r}")
            risks[(i, a, j)] = r
        allowed.setdefault(i, []).append(a)
    for i in w:
        if i not in allowed:
            raise NoAllowedAction(f"winning state {i} has no winning pair")
    # ties in the greedy policy break toward the earliest enabled action,
    # so keep each allowed tuple in the model's action order
    allowed = {i: tuple(a for a in p.enabled(i) if a in acts)
               for i, acts in allowed.items()}
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
