"""Q-learning of the transient policy that drives the system into the
winning region with maximal probability.

Rewards and discounts are state-dependent: entering the losing absorbing
set pays (1-gamma_acc)*r_n and discounts by gamma_acc, so its value is
exactly r_n; everything else pays 0 and discounts by gamma. Entering the
winning region ends the episode with value 0. Maximizing the resulting Q
is then equivalent, for gamma close to one, to maximizing the probability
of reaching the winning region.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .product import (
    ProductSmdp, _greedy_policy, _state_mask, sample_product_step,
)

VISIT_OFFSET = 10.0   # learning rate alpha = offset / (offset + visits)
EPSILON = 0.3         # behavior-policy exploration


@dataclass
class RewardDiscountSpec:
    """State-dependent reward and discount levels."""

    gamma: float = 0.9999        # discount outside the losing sink
    gamma_acc: float = 0.9       # discount inside the losing sink
    r_n: float = -1.0            # penalty level; sink value equals r_n

    def __post_init__(self):
        if not 0 < self.gamma < 1:
            raise ConfigError(f"gamma must be in (0,1), got {self.gamma}")
        if not 0 < self.gamma_acc < 1:
            raise ConfigError(
                f"gamma_acc must be in (0,1), got {self.gamma_acc}")
        if self.r_n >= 0:
            raise ConfigError(f"r_n must be negative, got {self.r_n}")


@dataclass
class QLearnSchedule:
    """Episode count, step cap and seed of transient Q-learning; its
    learning rate decays with visits at `VISIT_OFFSET`."""

    episodes: int = 20_000
    step_cap: int = 4000
    seed: int = 0

    def __post_init__(self):
        if self.episodes < 1 or self.step_cap < 1:
            raise ConfigError("episodes and step_cap must be >= 1")


@dataclass
class TransientQ:
    """Learned action values on the states outside the winning region, as
    arrays over the product's pair ids: the value and the update count of
    each pair (0 for the pairs of winning states, never updated)."""

    q: np.ndarray
    visits: np.ndarray
    episodes: int
    updates: int
    cauchy_tail: float           # max |delta Q| over the last 10% of updates
    # |delta Q| of every update, in order, as C doubles
    deltas: array = field(repr=False, default_factory=lambda: array("d"))


def qlearn_transient(p: ProductSmdp, w, spec: RewardDiscountSpec,
                     schedule: QLearnSchedule) -> TransientQ:
    """Tabular Q-learning on S minus the winning region.

    Episodes start round-robin over the non-sink transient states, cycling
    through each state's actions as the forced first move so every pair is
    visited; afterwards the behavior policy is epsilon-greedy. An episode
    ends on entering the winning region (value 0), on entering the losing
    sink (value pinned to r_n), or at the step cap (truncated with plain
    bootstrap). The sink rows are never updated. UnknownState names the
    first id of `w` outside the product.
    """
    rng = np.random.default_rng(schedule.seed)
    # per-state lookups, hoisted out of the update loop and read off the
    # in-W and accepting masks; the values of a transient state's pairs
    # live in one list, in pair-id order, so the greedy choice and the
    # bootstrap maximum are single list scans
    w_mask = _state_mask(p, w)
    acc = _state_mask(p, p.accepting)
    n_pairs = np.diff(p.pair_ptr).tolist()
    in_w, is_acc = w_mask.tolist(), acc.tolist()
    ends = (w_mask | acc).tolist()
    rewards = np.where(acc, (1 - spec.gamma_acc) * spec.r_n, 0.0).tolist()
    discounts = np.where(acc, spec.gamma_acc, spec.gamma).tolist()
    transient = np.flatnonzero(~w_mask).tolist()
    values = [None] * p.n_states
    for i in transient:
        values[i] = [spec.r_n if is_acc[i] else 0.0] * n_pairs[i]
    starts = [i for i in transient if not is_acc[i]]
    base = p.pair_ptr.tolist()
    visits = [0] * len(p.owner)
    deltas = array("d")
    c = VISIT_OFFSET
    epsilon = EPSILON
    episodes = 0
    if starts:
        action_cursor = {i: 0 for i in starts}
        for k in range(schedule.episodes):
            episodes += 1
            i = starts[k % len(starts)]
            cur = action_cursor[i]
            b = cur % n_pairs[i]
            action_cursor[i] = cur + 1
            for step in range(schedule.step_cap):
                vals = values[i]
                # the first step takes the forced action b
                if step:
                    if rng.random() < epsilon:
                        b = int(rng.integers(len(vals)))
                    else:
                        b = vals.index(max(vals))
                key = base[i] + b
                j, _tau, _s2 = sample_product_step(p, key, rng)
                if in_w[j]:
                    target = 0.0
                else:
                    target = rewards[j] + discounts[j] * max(values[j])
                n = visits[key]
                visits[key] = n + 1
                alpha = c / (c + n)
                old = vals[b]
                new = (1 - alpha) * old + alpha * target
                vals[b] = new
                deltas.append(abs(new - old))
                if ends[j]:
                    break
                i = j

    q = np.zeros(len(p.owner))
    for i in transient:
        q[base[i]:base[i + 1]] = values[i]
    tail = deltas[-max(1, len(deltas) // 10):] if deltas else [0.0]
    return TransientQ(q=q, visits=np.array(visits, dtype=np.intp),
                      episodes=episodes, updates=len(deltas),
                      cauchy_tail=max(tail), deltas=deltas)


def extract_pi_tr(p: ProductSmdp, w, tq: TransientQ) -> np.ndarray:
    """Greedy positional policy on the transient states, as a policy
    array: each state outside `w` gets the pair id of its largest Q, ties
    broken toward the action listed first in the model's order; the
    states of `w` get -1. UnknownState names the first id of `w` outside
    the product."""
    pairs = np.flatnonzero(~_state_mask(p, w)[p.owner])
    return _greedy_policy(p.owner[pairs], pairs, -tq.q[pairs], p.n_states)
