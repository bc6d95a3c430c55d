"""Conjugate posteriors over transition rows and dwell rates, with
predictive, entropy, and risk queries.

Transition rows get Dirichlet-categorical updates; exponential dwell rates
get Gamma updates, whose posterior predictive is a Lomax distribution.

The entropies need log-gamma and digamma. They come from `_special`, a
pure-Python port of the Cephes routines `lgam` and `psi` (Moshier, 1989)
that returns bit for bit what SciPy's `special.gammaln` and `special.psi`
return for x > 0 (`tests/test_special.py` checks this), so the package
runs on NumPy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._special import gammaln, psi
from .errors import (
    ConfigError, InvalidDistribution, InvalidObservation, MomentUndefined,
    UntrackedPair, UntrackedTriple,
)

DIRICHLET_PRIOR = 1.0
GAMMA_PRIOR = (2.0, 1.0)


class ObservationStore:
    """Observations of (s, a, s', tau), aggregated per model pair (s, a).

    Only aggregates are kept, one dict per pair: successor -> [count, dwell
    sum], maintained incrementally, so a dwell sum follows observation
    order. Every product copy (s, f) of a model state shares its dynamics,
    so the learner and the top-up both append under the model pair, and
    data are never dropped: they stay valid for the whole pool. The pairs
    appended to since the last `take_touched` call are recorded, so
    posteriors built from the store can be refreshed row by row. A dwell
    that is negative, NaN or infinite is rejected with InvalidObservation.
    """

    def __init__(self):
        self._by_pair = {}            # (s, a) -> {s': [count, dwell sum]}
        self._n = 0
        self._touched = set()

    def append(self, s, a, s2, tau):
        tau = float(tau)
        if not 0.0 <= tau < math.inf:
            raise InvalidObservation(
                f"dwell time {tau!r} of ({s},{a}) -> {s2} is not a finite "
                "nonnegative number")
        pair = (s, a)
        b = self._by_pair.get(pair)
        if b is None:
            b = self._by_pair[pair] = {}
        agg = b.get(s2)
        if agg is None:
            agg = b[s2] = [0, 0.0]
        agg[0] += 1
        agg[1] += tau
        self._n += 1
        self._touched.add(pair)

    def take_touched(self):
        """Pairs appended to since the last call; clears the record."""
        touched, self._touched = self._touched, set()
        return touched

    def __len__(self):
        return self._n

    def __contains__(self, pair):
        return pair in self._by_pair

    def pairs(self):
        return set(self._by_pair)


class DirichletPosterior:
    """Per-pair Dirichlet concentrations over candidate successors."""

    def __init__(self, table):
        # table: (s, a) -> (candidates tuple, concentration array)
        self._table = table

    def pairs(self):
        return set(self._table)

    def row(self, s, a):
        row = self._table.get((s, a))
        if row is None or len(row[0]) == 0:
            raise UntrackedPair(f"pair ({s},{a}) has no posterior")
        return row

    def to_json_dict(self):
        return {
            f"{s}/{a}": {"candidates": list(cands),
                         "concentration": [float(c) for c in conc]}
            for (s, a), (cands, conc) in sorted(self._table.items(),
                                                key=lambda kv: str(kv[0]))
        }


class GammaPosterior:
    """Per-triple (shape, rate) parameters for the exponential dwell rate."""

    def __init__(self, table):
        # table: (s, a, s') -> (shape, rate)
        self._table = table

    def params(self, s, a, s2):
        p = self._table.get((s, a, s2))
        if p is None:
            raise UntrackedTriple(f"triple ({s},{a},{s2}) has no posterior")
        return p

    def to_json_dict(self):
        return {
            f"{s}/{a}/{s2}": {"shape": sh, "rate": ra}
            for (s, a, s2), (sh, ra) in sorted(self._table.items(),
                                               key=lambda kv: str(kv[0]))
        }


def update_posteriors(store: ObservationStore, pairs, pool=None):
    """Exact conjugate updates, one posterior row per stored pair key.

    Without `pool`, `pairs` are the store's own keys. With `pool`, a
    callable mapping each of `pairs` (say, the product copies (i, a) of a
    winning-pair set) to its store key (the model pair), one row is built
    per distinct key `pool(pair)`. A row's candidates are its observed
    successors, sorted; its Dirichlet concentrations add the counts to the
    prior, and each (row, successor) triple's Gamma parameters add the
    count and the dwell sum. A key with no data gets a row with no
    candidates.
    """
    a0, b0 = GAMMA_PRIOR
    by_pair = store._by_pair
    keys = dict.fromkeys(map(pool, pairs)) if pool else pairs
    dir_table = {}
    gamma_table = {}
    for key in keys:
        data = by_pair.get(key, {})
        cands = tuple(sorted(data))
        dir_table[key] = (cands, np.array(
            [DIRICHLET_PRIOR + data[c][0] for c in cands], dtype=float))
        for s2 in cands:
            n, total = data[s2]
            gamma_table[(key[0], key[1], s2)] = (a0 + n, b0 + total)
    return DirichletPosterior(dir_table), GammaPosterior(gamma_table)


def predictive_transition(post: DirichletPosterior, s, a) -> np.ndarray:
    """Posterior mean row (the Dirichlet predictive); sums to one."""
    _, conc = post.row(s, a)
    return conc / conc.sum()


def predictive_successors(post: DirichletPosterior, s, a) -> tuple:
    cands, _ = post.row(s, a)
    return cands


@dataclass(frozen=True)
class DwellPredictive:
    """Lomax predictive of an exponential dwell under a Gamma posterior."""

    shape: float
    scale: float
    kind = "lomax"

    def mean(self):
        if self.shape <= 1:
            raise MomentUndefined(f"Lomax mean needs shape > 1, got {self.shape}")
        return self.scale / (self.shape - 1)

    def variance(self):
        if self.shape <= 2:
            raise MomentUndefined(
                f"Lomax variance needs shape > 2, got {self.shape}")
        a, b = self.shape, self.scale
        return b * b * a / ((a - 1) ** 2 * (a - 2))

    def std(self):
        return float(np.sqrt(self.variance()))

    def survival_quantile(self, q):
        """inf { t : Pr(tau > t) < q } for q in (0, 1]."""
        return float(self.scale * (q ** (-1.0 / self.shape) - 1.0))


def predictive_dwell(post: GammaPosterior, s, a, s2) -> DwellPredictive:
    shape, rate = post.params(s, a, s2)
    return DwellPredictive(shape=float(shape), scale=float(rate))


def _np_sum(xs):
    """`np.sum(xs)` for float64 entries: NumPy's pairwise summation adds
    runs of fewer than eight entries left to right."""
    if len(xs) >= 8:
        return float(np.sum(xs))
    total = 0.0
    for x in xs:
        total += x
    return total


def _gammaln_psi(x, memo):
    """(gammaln(x), psi(x)) as Python floats, kept in the dict `memo`.
    InvalidDistribution names an `x` that is not finite and positive."""
    hit = memo.get(x)
    if hit is None:
        x = float(x)
        if not 0.0 < x < math.inf:
            raise InvalidDistribution(
                f"gammaln/psi argument {x!r} is not a finite positive "
                "number (a Dirichlet concentration or Gamma shape)")
        hit = memo[x] = (gammaln(x), psi(x))
    return hit


# The two entropies give bit for bit the values of the SciPy array
# expressions in their docstrings, on Python floats: gammaln and psi are
# elementwise, so a scalar call returns the entry the array call would,
# sums follow `_np_sum`, and every other step is one IEEE operation either
# way. `memo`, a dict the caller may keep across calls, holds the gammaln
# and psi values of every argument seen.

def transition_entropy(post: DirichletPosterior, s, a, memo=None) -> float:
    """Differential entropy of the Dirichlet posterior density: with
    concentrations `conc` (k of them) summing to `total`,
    `gammaln(conc).sum() - gammaln(total) + (total - k) * psi(total)
    - ((conc - 1.0) * psi(conc)).sum()`."""
    _, conc = post.row(s, a)
    memo = {} if memo is None else memo
    conc = conc.tolist()
    total = _np_sum(conc)
    vals = [_gammaln_psi(c, memo) for c in conc]
    g_total, psi_total = _gammaln_psi(total, memo)
    return (_np_sum([g for g, _ in vals]) - g_total
            + (total - len(conc)) * psi_total
            - _np_sum([(c - 1.0) * d for c, (_, d) in zip(conc, vals)]))


def dwell_entropy(post: GammaPosterior, s, a, s2, memo=None) -> float:
    """Differential entropy of the Gamma posterior density:
    `shape - log(rate) + gammaln(shape) + (1 - shape) * psi(shape)`."""
    shape, rate = post.params(s, a, s2)
    g, d = _gammaln_psi(shape, {} if memo is None else memo)
    return float(shape - np.log(rate) + g + (1.0 - shape) * d)


@dataclass(frozen=True)
class Quantile:
    """Survival quantile risk: inf { t : Pr(tau > t) < alpha }."""

    alpha: float

    def __post_init__(self):
        if not 0 < self.alpha <= 1:
            raise ConfigError(
                f"quantile level must be in (0,1], got {self.alpha}")


@dataclass(frozen=True)
class MeanPlusSigma:
    """Dispersion-penalized mean risk: mu + lam * sigma."""

    lam: float

    def __post_init__(self):
        if not 0 <= self.lam <= 1:
            raise ConfigError(
                f"deviation weight must be in [0,1], got {self.lam}")


def risk_of(dist, f) -> float:
    """Evaluate a risk functional on a dwell distribution or predictive,
    through its own `mean`, `std` and `survival_quantile`."""
    if isinstance(f, Quantile):
        return float(dist.survival_quantile(f.alpha))
    if isinstance(f, MeanPlusSigma):
        return float(dist.mean() + f.lam * dist.std())
    raise TypeError(f"unsupported risk functional {f!r}")
