"""Steering into the winning region: the transient policy.

Outside the winning region the goal is to enter it with maximum
probability. Reaching the region pays 1, falling into the failure sink
pays a discounted stream of penalties; tabular Q-learning on that reward
gives a greedy policy whose exact reach probability we can check by a
linear solve against the optimal values.
"""

import numpy as np

from smdpsynth import (
    GridConfig, LearnerConfig, QLearnSchedule, RewardDiscountSpec,
    build_gridworld, determinize_kcba, exact_max_reach_probability,
    exact_winning_region, extract_pi_tr, ltl_to_cba, parse_ltl,
    policy_reach_probability, qlearn_transient,
)
from smdpsynth.product import build_product

m = build_gridworld(GridConfig(width=4, height=4, initial=(4, 4),
                               labels={"a": [(1, 1)], "b": [(2, 1)],
                                       "c": [(2, 4)]}))
aut = ltl_to_cba(parse_ltl("G F a & G F b & G !c"), ap=m.ap)
p = build_product(m, determinize_kcba(aut, 5))
w, _ = exact_winning_region(p)

spec = RewardDiscountSpec(gamma=0.9999, gamma_acc=0.9, r_n=-1.0)
tq = qlearn_transient(p, w, spec, QLearnSchedule(episodes=16_000,
                                                 step_cap=400, seed=1))
pi_tr = extract_pi_tr(p, w, tq)

v_star = exact_max_reach_probability(p, w)
v_pi = policy_reach_probability(p, pi_tr, w)
# a policy array: the chosen pair id of each transient state, -1 inside W
transient = np.flatnonzero(pi_tr >= 0)
gaps = v_star[transient] - v_pi[transient]

print(f"trained on {len(transient)} transient states "
      f"(update tail {tq.cauchy_tail:.2e})")
print(f"reach probability at the start: policy {v_pi[p.initial]:.4f} "
      f"vs optimal {v_star[p.initial]:.4f}")
print(f"largest gap over transient states: {max(gaps):.4f}")
print(f"states within 0.02 of optimal: "
      f"{int(np.sum(gaps <= 0.02))}/{len(transient)}")
