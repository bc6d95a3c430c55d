"""Learning the winning region and the dynamics inside it.

The paper's learner keeps a tabular Q over product state-action pairs,
0 outside the accepting set, and reads off W^k = {s | max_a Q(s,a) = 0}
and W_p^k = {(s,a) | Q(s,a) = 0}. Q moves only on an observed exit from
W^k, towards a negative exit penalty plus a successor value of at most 0,
at a positive learning rate: the first exit update already puts Q(s,a)
below 0, and no later update can bring it back. So this module keeps the
sets themselves, which give the same estimates: W_p^k is the non-accepting
pairs with no observed exit from W^k, and W^k the states that keep at
least one such pair. Both shrink monotonically onto the exact winning
region. Exploration has one policy: a softmax over the posterior entropy
of each allowed action's model pair, mixed with a uniform share, while a
share of the episode starts is forced onto pairs still short of their
tries.

The learner keys its bookkeeping by the product's pair ids (`ProductSmdp`
numbers the pairs (i, a) of each state consecutively): W_p^k, the pairs
still short of their tries and the tries themselves. The result hands
W_p^k over as a `PairSet` of the product: a read-only set view over the
surviving ids, sorted, which builds no (i, a) tuple unless it is
iterated. The planner reads its ids through
`pair_ids`, and a superset check against the exact region's PairSet
compares the two id arrays.

The posteriors learn the model's own dynamics. Every product copy (s, f)
of a model state s shares them, so each observation is stored under its
model pair (s, a), whichever copy took the step, and stays there when the
copy leaves W_p^k. A periodic refresh rebuilds the posterior rows of the
model pairs observed since the last one.
"""

from __future__ import annotations

import math
import time
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .bayes import (
    DirichletPosterior, GammaPosterior, ObservationStore, _np_sum,
    dwell_entropy, predictive_successors, transition_entropy,
    update_posteriors,
)
# not called here: the benchmark's tracer wraps the posterior queries by
# their names in this module, and looks this one up too
from .bayes import predictive_transition  # noqa: F401
from .errors import (
    ConfigError, EmptyWinningCandidate, InvalidDistribution, NoAllowedAction,
    UntrackedPair,
)
from .product import PairSet, ProductSmdp, sample_product_step

# softmax score handed to pairs with no data yet; dwarfs any real entropy
# so unexplored actions are preferred, and the stable softmax keeps it finite
UNSEEN_SCORE = 1e3
TEMPERATURE = 1.0         # softmax temperature of the exploration policy
EPSILON = 0.05            # its uniform mixing weight
COVER_START_PROB = 0.25   # share of episode starts forced onto a pair


class _IndexedSet:
    """Set of ids in range(n) with O(1) add/discard and O(1) uniform
    sampling: the ids in a C array (a discard moves the last one into the
    freed slot), and each id's slot in it, or -1."""

    def __init__(self, n, items=()):
        items = np.asarray(items, dtype=np.int64)
        pos = np.full(n, -1, dtype=np.int64)
        pos[items] = np.arange(len(items))
        self._items = array("q", items.tobytes())
        self._pos = array("q", pos.tobytes())

    def copy(self):
        new = _IndexedSet(0)
        new._items, new._pos = self._items[:], self._pos[:]
        return new

    def add(self, x):
        if self._pos[x] < 0:
            self._pos[x] = len(self._items)
            self._items.append(x)

    def discard(self, x):
        """Remove x by moving the last item into its slot."""
        i = self._pos[x]
        if i >= 0:
            self._pos[x] = -1
            last = self._items.pop()
            if last != x:
                self._items[i] = last
                self._pos[last] = i

    def choice(self, rng):
        return self._items[int(rng.integers(len(self._items)))]

    def ids(self) -> np.ndarray:
        """The ids, in slot order, as a new array."""
        return np.array(self._items, dtype=np.intp)

    def __contains__(self, x):
        return 0 <= x < len(self._pos) and self._pos[x] >= 0

    def __len__(self):
        return len(self._items)

    def __iter__(self):
        return iter(self._items)


@dataclass
class LearnerConfig:
    """Knobs for the winning-region learner.

    The paper's learning rate and exit penalty have no field: any valid
    value of either drops a pair out of W_p^k on its first observed exit,
    so neither changes a result (see the module docstring)."""

    posterior_period: int = 10        # episodes between posterior refreshes
    episode_budget: int = 50_000
    step_cap: int = 4000              # per-episode exploration bound
    patience: int = 500               # stable episodes required to stop
    min_tries: int = 10               # tries required of every surviving pair
    seed: int = 0
    debug_checks: bool = False

    def __post_init__(self):
        if self.posterior_period < 1 or self.episode_budget < 1 \
                or self.step_cap < 1 or self.patience < 1:
            raise ConfigError("periods, budgets, and caps must be >= 1")
        if self.min_tries < 0:
            raise ConfigError("min_tries must be nonnegative")


# The two functions below give bit for bit the values of the NumPy array
# expressions in their docstrings, on Python floats, which is several times
# faster on vectors of a few actions: elementwise divisions, subtractions,
# products and running sums are single IEEE operations either way, sums
# follow `_np_sum`, and NumPy still computes the exponentials.

def _softmax_probs(scores, temperature, epsilon):
    """The exploration policy's softmax, (1 - eps) * softmax(score / T)
    + eps * uniform, as a list: with `z = scores / T - max(scores / T)`
    and `w = exp(z) / sum(exp(z))`, `(1 - eps) * w + eps * (1 / n)`. The
    maximum of scores / T is max(scores) / T, since rounding a division by
    T > 0 keeps the order."""
    top = max(scores) / temperature
    w = np.exp(np.array([x / temperature - top for x in scores])).tolist()
    total = _np_sum(w)
    keep, mix = 1 - epsilon, epsilon * (1.0 / len(w))
    return [keep * (x / total) + mix for x in w]


def _cdf(probs):
    """Normalized cumulative weights of `probs`, as a list: the index
    `bisect_right(cdf, rng.random())` is the one
    `rng.choice(len(probs), p=probs / probs.sum())` draws, with the same
    arithmetic and the same draw (normalize, cumulative sum, divide by its
    last entry, then the first entry above the uniform draw). Like
    `choice`, refuses weights that are not a distribution.
    """
    total = _np_sum(probs)
    if not (0.0 < total < math.inf and min(probs) >= 0.0):
        raise InvalidDistribution(
            f"weights {probs} are not a probability distribution")
    cdf = list(accumulate([x / total for x in probs]))
    last = cdf[-1]
    return [c / last for c in cdf]


@dataclass
class LearnerResult:
    """W^k, W_p^k (a PairSet: the (i, a) pairs as their pair ids), the
    posteriors and store behind them, and the run's record."""

    w: frozenset
    w_p: PairSet
    transition_posterior: object
    dwell_posterior: object
    store: ObservationStore
    episodes: int
    converged: bool
    monotone_violations: int
    progress: list = field(repr=False)


def ind_k(oracle_w_p, learned_w_p) -> float:
    """Agreement ratio |W_p| / |W_p^k| of the exact and estimated pair sets."""
    if len(learned_w_p) == 0:
        raise ZeroDivisionError("estimated winning-pair set is empty")
    return len(oracle_w_p) / len(learned_w_p)


class WinningLearner:
    """Incremental state of the winning-region learning loop.

    W^k and W_p^k are kept as sets, not as the paper's Q-table: an exit
    from W^k removes its pair from W_p^k at once, which is where the
    pair's first Q update would have put it (see the module docstring).
    W_p^k holds pair ids, in the order an `_IndexedSet` keeps them, and
    so do the coverage pool `_under` and the tries; state i owns the ids
    `_lo[i]:_lo[i + 1]`, one per enabled action, in the model's action
    order. The start-up reads them off the
    product's `owner` and `pair_ptr` arrays.

    The learner touches the product only through sampling: it reads no
    product row and no probability. Observations are stored per model pair
    (pool), the dynamics all copies of a model state share, and an exit
    keeps them. Data only grow, so a refresh rebuilds just the rows of the
    pools observed since the last one, from each pool's aggregates, and
    writes them over the old rows: a full rebuild from the store gives the
    same posteriors, bit for bit.
    """

    def __init__(self, p: ProductSmdp, cfg: LearnerConfig, oracle_w_p=None):
        self.p = p
        self.cfg = cfg
        # the exact W_p, as given: only its size is read
        self.oracle_w_p = oracle_w_p if oracle_w_p else None
        self.rng = np.random.default_rng(cfg.seed)

        # every non-accepting state and its pairs, in id order
        free = np.ones(p.n_states, dtype=bool)
        free[list(p.accepting)] = False
        states, pids = np.flatnonzero(free), np.flatnonzero(free[p.owner])
        self.w = _IndexedSet(p.n_states, states)
        self.w_p = _IndexedSet(len(p.owner), pids)
        if len(self.w) == 0:
            raise EmptyWinningCandidate("no candidate winning state at start")
        self._lo = p.pair_ptr.tolist()

        # W_p^k actions per state (the paper's zero-valued ones), to detect
        # states leaving W^k in O(1)
        self._zero_actions = dict(zip(states.tolist(),
                                      np.diff(p.pair_ptr)[states].tolist()))

        self.store = ObservationStore()
        self.tries = [0] * len(p.owner)
        # winning-candidate pairs still short of min_tries; forced episode
        # starts draw from here so coverage is targeted, not accidental
        self._under = self.w_p.copy() if cfg.min_tries > 0 \
            else _IndexedSet(len(p.owner))
        self.tpost = DirichletPosterior({})
        self.dpost = GammaPosterior({})
        # entropy scores are cached per model pair until its posterior row
        # changes; the gammaln and psi values behind them per argument
        self._ent_cache = {}
        self._special = {}
        # `_explore`'s (pair ids, probabilities, `_cdf`) per state,
        # cleared on every refresh and every removal
        self._draw_cache = {}

        self.episodes = 0
        self.monotone_violations = 0
        self.progress = []
        self._stable = 0
        self.converged = False

    def _owner(self, k):
        """The state of pair id k."""
        return bisect_right(self._lo, k) - 1

    # --- set maintenance ---------------------------------------------------

    def _remove_pair(self, k):
        """An observed exit from W^k: pair k leaves W_p^k, maybe dragging
        its state out of W^k. The pair is in W_p^k, since episodes start
        and act only on W_p^k pairs."""
        self._draw_cache.clear()
        self.w_p.discard(k)
        self._under.discard(k)
        i = self._owner(k)
        self._zero_actions[i] -= 1
        if self._zero_actions[i] == 0:
            self.w.discard(i)

    def _refresh_posteriors(self):
        """Rebuild the rows of the pools observed since the last refresh
        and write them over the old ones. A pool's candidates only grow,
        so every old triple gets its new Gamma parameters."""
        tfresh, dfresh = update_posteriors(self.store,
                                           self.store.take_touched())
        self.tpost._table.update(tfresh._table)
        self.dpost._table.update(dfresh._table)
        for key in tfresh._table:
            self._ent_cache.pop(key, None)
        self._draw_cache.clear()
        if self.cfg.debug_checks:
            self._check_posteriors()

    # --- exploration policy --------------------------------------------------

    def _allowed(self, i):
        """W_p^k's pair ids at state i, in action order."""
        self.p.check_state(i)
        slot = self.w_p._pos
        pids = [k for k in range(self._lo[i], self._lo[i + 1])
                if slot[k] >= 0]
        if not pids:
            raise NoAllowedAction(f"state {i} has no winning-candidate action")
        return pids

    def _ent_score(self, s, a):
        """Posterior entropy of a model pair; huge bonus when unexplored."""
        hit = self._ent_cache.get((s, a))
        if hit is not None:
            return hit
        memo = self._special
        try:
            h = transition_entropy(self.tpost, s, a, memo)
            cands = predictive_successors(self.tpost, s, a)
            h += sum(dwell_entropy(self.dpost, s, a, c, memo)
                     for c in cands) / len(cands)
        except UntrackedPair:
            h = UNSEEN_SCORE
        self._ent_cache[(s, a)] = h
        return h

    def _explore(self, i):
        """Allowed pair ids at i and their exploration probabilities, a
        softmax over the posterior entropy of each one's model pair: the
        one computation behind the exploration policy and its draw."""
        if i not in self.w:
            raise NoAllowedAction(f"state {i} is outside the candidate region")
        pids = self._allowed(i)
        pairs, model_at = self.p.model_pairs, self.p._model_at
        return pids, _softmax_probs(
            [self._ent_score(*pairs[model_at[k]]) for k in pids],
            TEMPERATURE, EPSILON)

    def _sample_action(self, i):
        """Draw the exploration policy's pair id at i: one uniform draw on
        the memoized `_cdf`."""
        hit = self._draw_cache.get(i)
        if hit is None:
            pids, probs = self._explore(i)
            hit = self._draw_cache[i] = (pids, probs, _cdf(probs))
        pids, probs, cdf = hit
        if self.cfg.debug_checks:
            self._check_action_probs(i, pids, probs)
        return pids[bisect_right(cdf, self.rng.random())]

    # --- episode loop --------------------------------------------------------

    def _sample_start(self):
        """An episode's first state and, on a forced start, its pair id."""
        if len(self.w_p) and self.rng.random() < COVER_START_PROB:
            pool = self._under if len(self._under) else self.w_p
            k = pool.choice(self.rng)
            return self._owner(k), k
        return self.w.choice(self.rng), None

    def run_episode(self):
        """One exploration episode; removes at most one pair from W_p^k."""
        cfg, p, rng = self.cfg, self.p, self.rng
        pairs, model_at = p.model_pairs, p._model_at
        tries, w = self.tries, self.w
        t0 = time.perf_counter()
        i, k = self._sample_start()
        exit_pair = None
        steps = 0
        for _ in range(cfg.step_cap):
            if k is None:
                k = self._sample_action(i)
            j, tau, model_s2 = sample_product_step(p, k, rng)
            steps += 1
            s, a = pairs[model_at[k]]
            self.store.append(s, a, model_s2, tau)
            n = tries[k] = tries[k] + 1
            if n >= cfg.min_tries:
                self._under.discard(k)
            if j not in w:
                exit_pair = k
                break
            i, k = j, None

        before_wp = len(self.w_p)
        before_w = len(self.w)
        if exit_pair is not None:
            self._remove_pair(exit_pair)
            self._stable = 0
        else:
            self._stable += 1

        if len(self.w_p) > before_wp or len(self.w) > before_w:
            self.monotone_violations += 1

        self.episodes += 1
        if self.episodes % cfg.posterior_period == 0:
            self._refresh_posteriors()

        row = {"episode": self.episodes, "w": len(self.w),
               "w_p": len(self.w_p), "steps": steps,
               "wall": time.perf_counter() - t0}
        if self.oracle_w_p is not None:
            row["ind"] = ind_k(self.oracle_w_p, self.w_p) if len(self.w_p) \
                else float("nan")
        self.progress.append(row)
        if cfg.debug_checks:
            self._check_consistency()

    def _coverage_reached(self):
        return len(self._under) == 0

    def _check_consistency(self):
        """Re-derive W^k and the per-state W_p^k action counts from W_p^k
        and compare them with the incremental state, and check that the
        store holds one observation per step taken. Pairs are compared as
        (state, pair id). Raises AssertionError explicitly, so the checks
        also run under `python -O`."""
        p = self.p
        w_p = {(self._owner(k), k) for k in self.w_p}
        w = {i for i, _ in w_p}
        if w & p.accepting:
            raise AssertionError("accepting state in the W estimate")
        if w != set(self.w):
            raise AssertionError("W estimate out of sync with W_p")
        counts = {i: 0 for i in range(p.n_states) if i not in p.accepting}
        for i, _ in w_p:
            counts[i] += 1
        if counts != self._zero_actions:
            raise AssertionError("per-state action counts out of sync "
                                 "with W_p")
        if len(self.store) != sum(row["steps"] for row in self.progress):
            raise AssertionError("store size differs from the steps taken")

    def _check_action_probs(self, i, pids, probs):
        """Compare the drawn pair's probability vector with an uncached
        `_explore(i)`, exactly; draws nothing. Raises AssertionError
        explicitly, so the check also runs under `python -O`."""
        if self._explore(i) != (pids, probs):
            raise AssertionError(f"action draw at state {i} differs from "
                                 "the exploration policy")

    def _check_posteriors(self):
        """Compare the refreshed posteriors with a full rebuild from the
        store: the same rows, candidates, concentrations and Gamma
        parameters. Raises AssertionError explicitly, so the check also
        runs under `python -O`."""
        tref, dref = update_posteriors(self.store, self.store.pairs())
        if self.tpost.to_json_dict() != tref.to_json_dict():
            raise AssertionError("transition posterior differs from a full "
                                 "rebuild")
        if self.dpost.to_json_dict() != dref.to_json_dict():
            raise AssertionError("dwell posterior differs from a full rebuild")

    def run(self):
        while self.episodes < self.cfg.episode_budget:
            if len(self.w) == 0:
                self.converged = True
                break
            self.run_episode()
            if self._stable >= self.cfg.patience and self._coverage_reached():
                self.converged = True
                break
        self._refresh_posteriors()
        return LearnerResult(
            w=frozenset(self.w),
            w_p=self.p.pair_set(self.w_p.ids()),
            transition_posterior=self.tpost, dwell_posterior=self.dpost,
            store=self.store, episodes=self.episodes,
            converged=self.converged,
            monotone_violations=self.monotone_violations,
            progress=self.progress)


def run_algorithm1(p: ProductSmdp, cfg: LearnerConfig,
                   oracle_w_p=None) -> LearnerResult:
    """Learn (W, W_p) and the dynamics inside them from sampled episodes.

    Runs episodes until the winning-pair estimate has been stable for
    `patience` episodes with every surviving pair tried at least
    `min_tries` times, or the episode budget runs out (the result is then
    flagged converged=False and carries the best estimate so far). An
    `oracle_w_p`, the exact W_p as a set of distinct pairs, is read only
    for its size: each progress row then records `ind`.
    """
    return WinningLearner(p, cfg, oracle_w_p=oracle_w_p).run()
