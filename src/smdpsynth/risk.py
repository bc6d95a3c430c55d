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
    ProductSmdp, _greedy_policy, _offsets, _pair_rows, _policy_pairs,
    _pool_copies, _solve_by_components, _state_mask,
)

# sweeps after which risk value iteration gives up with NotConverged
MAX_SWEEPS = 100_000


@dataclass
class RiskModel:
    """Dynamics and risks restricted to the winning pairs, as compressed
    sparse rows (CSR) keyed by product pair id: the learned ones from
    `build_risk_model`, the true ones from `risk_model_from_product`.

    Row k is the winning pair `ids[k]`. The ids ascend, so a state's rows
    are consecutive and in the model's action order; `owner[k]` is the
    state of row k under the product's `pair_ptr`. Row k's entries are
    `row_ptr[k]:row_ptr[k + 1]` of `succ` (successor product ids), `prob`
    and `risk` (of each transition), in product-row order; `escaped[k]`
    is the predictive mass renormalized away from it. Construction checks
    the discount, the CSR shape, that the ids ascend, and that every row
    sums to one, stays among the states that own rows and has finite
    nonnegative risks, naming the first offending row.
    """

    ids: np.ndarray
    pair_ptr: np.ndarray
    row_ptr: np.ndarray
    succ: np.ndarray
    prob: np.ndarray
    risk: np.ndarray
    gamma_r: float = 0.9
    escaped: np.ndarray = None
    owner: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not 0 <= self.gamma_r < 1:
            raise InvalidRiskModel(
                f"gamma_r must be in [0,1), got {self.gamma_r}")
        self.ids, self.pair_ptr, self.row_ptr, self.succ = (
            np.asarray(x, dtype=np.intp)
            for x in (self.ids, self.pair_ptr, self.row_ptr, self.succ))
        self.prob = np.asarray(self.prob, dtype=float)
        self.risk = np.asarray(self.risk, dtype=float)
        n, lens = len(self.ids), np.diff(self.row_ptr)
        self.escaped = np.zeros(n) if self.escaped is None else \
            np.asarray(self.escaped, dtype=float)
        if (len(self.row_ptr) != n + 1 or self.row_ptr[0] != 0
                or (lens < 0).any() or len(self.escaped) != n
                or not len(self.succ) == len(self.prob) == len(self.risk)
                == self.row_ptr[-1]):
            raise InvalidRiskModel(
                "rows must be compressed sparse rows, one per pair")
        bad = np.flatnonzero((np.diff(self.ids, prepend=-1) <= 0)
                             | (self.ids >= self.pair_ptr[-1]))
        if bad.size:
            raise InvalidRiskModel(
                f"row {bad[0]} has pair id {self.ids[bad[0]]}: row ids must "
                f"ascend in 0..{self.pair_ptr[-1] - 1}")
        self.owner = np.searchsorted(self.pair_ptr, self.ids, "right") - 1
        row = np.repeat(np.arange(n), lens)
        # the same left-to-right sum per row as a loop over it
        off = np.abs(np.bincount(row, weights=self.prob, minlength=n)
                     - 1.0) > 1e-9
        leaves = ~np.isin(self.succ, self.owner)
        leaving = np.bincount(row[leaves], minlength=n) > 0
        bad = np.flatnonzero(off | leaving)
        if bad.size:
            k = int(bad[0])
            raise InvalidRiskModel(
                f"row of pair {self.ids[k]} (state {self.owner[k]}) " + (
                    "does not sum to one" if off[k] else
                    "leaves the winning region"))
        _check_risks(self)


def _check_risks(rm):
    """NonfiniteRisk naming the first transition of `rm` whose risk is
    not finite and nonnegative, if there is one."""
    bad = np.flatnonzero(~((rm.risk >= 0) & (rm.risk < math.inf)))
    if bad.size:
        e = int(bad[0])
        k = int(np.searchsorted(rm.row_ptr, e, side="right")) - 1
        raise NonfiniteRisk(
            f"risk of pair {rm.ids[k]} (state {rm.owner[k]}) to "
            f"{rm.succ[e]} is {float(rm.risk[e])!r}")


def build_risk_model(p: ProductSmdp, w, w_p, tpost, dpost,
                     functional=None, gamma_r=0.9) -> RiskModel:
    """Assemble the planner's model from the learned posteriors, in the
    layout the true model is read in (`risk_model_from_product`).

    `_predictive_edges` turns the posteriors of W_p's pools into a
    probability and a risk per model edge. The rows of W_p are then
    gathered from the product's flat layout in pair-id order, and each
    keeps, in product-row order, the entries of its observed edges
    (positive probability) whose successor is in W. Mass on observed
    successors outside W (possible under estimation noise) is
    renormalized away, with one warning per such row in pair-id order;
    then the first row left with no mass raises EmptyPredictiveRow. A
    pool's own errors come before any of these, and UnknownState, naming
    the first id of `w` outside the product, before anything.
    """
    w = _state_mask(p, w)
    pid, firsts = _pool_copies(p, w_p)
    prob_e, risk_e = _predictive_edges(p, tpost, dpost, firsts,
                                       functional or MeanPlusSigma(1.0))
    lens, edges = _pair_rows(p, pid)
    succ, model_edge = p.succ[edges], p.edge[edges]
    pr = prob_e[model_edge]
    inside = w[succ]
    kept = inside & (pr > 0.0)
    copy = np.repeat(np.arange(len(pid)), lens)
    n_kept = np.bincount(copy[kept], minlength=len(pid))
    total = np.bincount(copy[kept], weights=pr[kept], minlength=len(pid))
    lost = np.bincount(copy[~inside], weights=pr[~inside], minlength=len(pid))
    empty = np.flatnonzero(n_kept == 0)
    stop = empty[0] if empty.size else len(pid)
    for c in np.flatnonzero(lost[:stop] > 0.0).tolist():
        # attributed to the caller of build_risk_model
        warnings.warn("pair ({},{}): renormalized {:.3g} predictive mass "
                      "escaping the winning region".format(
                          *_pair(p, pid[c]), lost[c]), stacklevel=2)
    if empty.size:
        raise EmptyPredictiveRow("pair ({},{}) has no predictive mass inside "
                                 "the region".format(*_pair(p, pid[stop])))
    return _assemble(p, w, pid, n_kept, succ[kept], (pr / total[copy])[kept],
                     risk_e[model_edge[kept]], gamma_r, lost)


def _predictive_edges(p, tpost, dpost, pools, functional):
    """The posteriors of the pools as two float arrays over the model's
    edges, in the order of `p.model_succ`: on each observed edge (a
    candidate successor of a pool's Dirichlet row) its Dirichlet mean and
    the risk of its Lomax predictive dwell, 0.0 on every other edge.

    `pools` holds the pair id of each pool's first copy, which the errors
    name. The pools go in its order, and a pool raises UntrackedPair if it
    has no posterior row, InvalidRiskModel if a candidate is outside its
    model row, and whatever `risk_of` raises for a candidate's dwell.
    """
    prob_e, risk_e = np.zeros((2, len(p.model_succ)))
    for k, q in zip(pools.tolist(), p.pair_model[pools].tolist()):
        s, a = p.model_pairs[q]
        lo, hi = p.model_row_ptr[q:q + 2].tolist()
        at = dict(zip(p.model_succ[lo:hi].tolist(), range(lo, hi)))
        cands = predictive_successors(tpost, s, a)
        outside = [s2 for s2 in cands if s2 not in at]
        if outside:
            raise InvalidRiskModel(
                f"pair ({p.owner[k]},{a}): candidate successor {outside[0]} "
                f"is not in the row of model pair ({s},{a})")
        e = [at[s2] for s2 in cands]
        prob_e[e] = predictive_transition(tpost, s, a)
        risk_e[e] = [risk_of(predictive_dwell(dpost, s, a, s2), functional)
                     for s2 in cands]
    return prob_e, risk_e


def risk_model_from_product(p: ProductSmdp, w, w_p, risk_e,
                            gamma_r=0.9) -> RiskModel:
    """Exact-model counterpart of build_risk_model, for oracles and tests.

    Uses the product's true rows restricted to the winning pairs, gathered
    from its flat layout, in pair-id order. `risk_e` holds one risk per
    model edge, in the order of `p.model_succ` (`true_edge_risk` gives the
    true ones): a transition's risk depends only on its model triple
    (s, a, s'), so each product transition gathers its model edge's.
    UnknownState names the first id of `w` outside the product;
    InvalidRiskModel names the first winning pair, in pair-id order, whose
    true support leaves the region; RiskModel's own check names the first
    risk that is not finite and nonnegative.
    """
    w = _state_mask(p, w)
    risk_e = _edge_array(p, risk_e)
    pids = np.sort(p.pair_ids(w_p))
    lens, edges = _pair_rows(p, pids)
    succ = p.succ[edges]
    leaving = np.repeat(pids, lens)[~w[succ]]
    if leaving.size:
        raise InvalidRiskModel("pair ({},{}) leaves the winning region"
                               .format(*_pair(p, leaving[0])))
    model_edge = p.edge[edges]
    return _assemble(p, w, pids, lens, succ, p.model_prob[model_edge],
                     risk_e[model_edge], gamma_r, None)


def _pair(p, k):
    """(i, a) of product pair id k."""
    return int(p.owner[k]), p.model_pairs[p.pair_model[k]][1]


def _edge_array(p, risk_e):
    """`risk_e` as a float array, one entry per model edge of `p`;
    InvalidRiskModel if its length is another."""
    risk_e = np.asarray(risk_e, dtype=float)
    if risk_e.shape != p.model_succ.shape:
        raise InvalidRiskModel(
            f"risks must be one per model edge: got shape {risk_e.shape} "
            f"for {len(p.model_succ)} edges")
    return risk_e


def _assemble(p, w, pids, lens, succ, prob, risk, gamma_r,
              escaped) -> RiskModel:
    """Shared core of both builders: the rows of the winning pairs with
    the ascending product pair ids `pids`, of lengths `lens`, with their
    flat successors, probabilities and risks, become a RiskModel;
    NoAllowedAction names the first state of the mask `w` without a
    row."""
    rowless = w.copy()
    rowless[p.owner[pids]] = False
    if rowless.any():
        raise NoAllowedAction(
            f"winning state {np.argmax(rowless)} has no winning pair")
    return RiskModel(ids=pids, pair_ptr=p.pair_ptr, row_ptr=_offsets(lens),
                     succ=succ, prob=prob, risk=risk, gamma_r=gamma_r,
                     escaped=escaped)


@dataclass
class RiskQ:
    """Fixed point of the discounted risk recursion on winning pairs:
    `q[k]` is the value of row k of the RiskModel it was solved on."""

    q: np.ndarray
    residual: float
    iterations: int
    residuals: list = field(repr=False, default_factory=list)


def risk_value_iteration(rm: RiskModel, tol=1e-9) -> RiskQ:
    """Iterate Q(s,a) = sum_j T(j|s,a) (risk(s,a,j) + g_r min_a' Q(j,a'))
    to a sup-norm residual below tol; raises NotConverged after MAX_SWEEPS
    sweeps.

    Each sweep updates every row from the previous sweep's state minima
    (Jacobi), as array operations over the model's CSR arrays: `bincount`
    adds each row's entries in input order, so a row sums left to right
    as a loop over it would. The state minima, exact in any order, come
    from `minimum.at` over the rows into a +inf-filled array; states
    without rows keep +inf there, and no row reads them.
    """
    if tol <= 0:
        raise InvalidRiskModel(f"tol must be positive, got {tol}")
    _check_risks(rm)
    n = len(rm.ids)
    row = np.repeat(np.arange(n), np.diff(rm.row_ptr))
    q = np.zeros(n)
    best = np.zeros(len(rm.pair_ptr) - 1)
    residuals = []
    for _ in range(MAX_SWEEPS):
        new = np.bincount(row, weights=rm.prob * (
            rm.risk + rm.gamma_r * best[rm.succ]), minlength=n)
        residual = float(np.max(np.abs(new - q), initial=0.0))
        q = new
        best.fill(np.inf)
        np.minimum.at(best, rm.owner, q)
        residuals.append(residual)
        if residual < tol:
            return RiskQ(q=q, residual=residual, iterations=len(residuals),
                         residuals=residuals)
    raise NotConverged("risk value iteration", residual, MAX_SWEEPS)


def extract_pi_win(rm: RiskModel, rq: RiskQ) -> np.ndarray:
    """Risk-greedy policy array: each state with rows gets the pair id of
    its row of least Q, ties broken toward the action listed first."""
    return _greedy_policy(rm.owner, rm.ids, rq.q, len(rm.pair_ptr) - 1)


def combine_policy(p: ProductSmdp, w, pi_win, pi_tr) -> np.ndarray:
    """Case split of two policy arrays: the risk policy's choice inside
    the winning region, the reachability policy's outside it. DomainGap
    names the first state left without a choice, UnknownState the first
    id of `w` outside the product."""
    combined = np.where(_state_mask(p, w), pi_win, pi_tr)
    gap = np.flatnonzero(combined < 0)
    if gap.size:
        raise DomainGap(f"state {gap[0]} has no policy entry")
    return combined


def evaluate_policy_risk(p: ProductSmdp, pi, risk_e, gamma_r) -> dict:
    """Exact discounted risk of a region-preserving policy, per state.

    `pi` is a policy array, checked by `_policy_pairs`; its domain is the
    states it gives a pair id. `risk_e` holds one risk per model edge, in
    the order of `p.model_succ`, as for `risk_model_from_product`. The
    policy's rows are gathered from the flat layout in one pass, each
    transition's risk with them, and the system
    v_i = sum_j P(j|i) risk(i, pi_i, j) + gamma_r sum_j P(j|i) v_j is
    solved exactly by `_solve_by_components`, one strongly connected
    component at a time, as `policy_reach_probability`'s is. Returns
    {state: value} over the domain; raises PolicyLeavesW at the first
    transition, in state, row order, that leaves it.
    """
    if not 0 <= gamma_r < 1:
        raise InvalidRiskModel(f"gamma_r must be in [0,1), got {gamma_r}")
    risk_e = _edge_array(p, risk_e)
    states = np.flatnonzero(np.asarray(pi) >= 0)
    pids = _policy_pairs(p, pi, states)
    lens, edges = _pair_rows(p, pids)
    succ, owner = p.succ[edges], np.repeat(states, lens)
    pos = np.full(p.n_states, -1, dtype=np.intp)
    pos[states] = np.arange(len(states))
    row = pos[owner]
    leaving = np.flatnonzero(pos[succ] < 0)
    if leaving.size:
        e = leaving[0]
        raise PolicyLeavesW(f"action {_pair(p, pids[row[e]])[1]} at state "
                            f"{owner[e]} reaches {succ[e]} outside W")
    model_edge = p.edge[edges]
    prob = p.model_prob[model_edge]
    const = np.bincount(row, weights=prob * risk_e[model_edge],
                        minlength=len(states))
    return dict(zip(states.tolist(), _solve_by_components(
        row, pos[succ], gamma_r * prob, const)))
