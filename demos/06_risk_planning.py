"""Dwell-aware planning inside the winning region.

All winning actions satisfy the objective; they differ in how long their
transitions linger. Each observed pair gets a posterior predictive dwell
distribution, a risk functional (here mean plus one deviation) scores it,
and discounted value iteration picks the least-risk winning action per
state. The chosen policy is compared to picking uniformly among winning
actions.
"""

import numpy as np

from smdpsynth import (
    GridConfig, LearnerConfig, MeanPlusSigma, build_gridworld,
    build_risk_model, determinize_kcba, evaluate_policy_risk,
    extract_pi_win, ltl_to_cba, parse_ltl, risk_value_iteration,
    run_algorithm1,
)
from smdpsynth.experiment import true_edge_risk
from smdpsynth.product import build_product, sample_product_step

m = build_gridworld(GridConfig(width=4, height=4, initial=(4, 4),
                               labels={"a": [(1, 1)], "b": [(2, 1)],
                                       "c": [(2, 4)]}))
aut = ltl_to_cba(parse_ltl("G F a & G F b & G !c"), ap=m.ap)
p = build_product(m, determinize_kcba(aut, 5))

res = run_algorithm1(p, LearnerConfig(episode_budget=20_000, step_cap=60,
                                      patience=250, min_tries=10, seed=2))
functional = MeanPlusSigma(1.0)
rm = build_risk_model(p, res.w, res.w_p, res.transition_posterior,
                      res.dwell_posterior, functional=functional,
                      gamma_r=0.9)
rq = risk_value_iteration(rm)
# rows are winning pair ids in ascending order, so each state's rows are
# consecutive; the policy array holds the chosen pair id per state
pi_win = extract_pi_win(rm, rq)
print(f"risk model over {len(np.unique(rm.owner))} winning states, "
      f"VI residual {rq.residual:.1e} after {rq.iterations} sweeps")

# the functional on the model's actual dwell of each transition: one
# float per model edge; product edge e lifts model edge p.edge[e]
true_risk = true_edge_risk(p, functional)

v = evaluate_policy_risk(p, pi_win, true_risk, 0.9)
start = min(res.w)
print(f"exact discounted risk of the greedy policy at state {start}: "
      f"{v[start]:.3f}")

rng = np.random.default_rng(3)
def rollout_risk(choose, steps=5000):
    i, total = start, 0.0
    for _ in range(steps):
        k = choose(i)
        j, tau, _ = sample_product_step(p, k, rng)
        # the product edge taken: j's entry in the row of pair k
        lo, hi = p.row_ptr[k], p.row_ptr[k + 1]
        e = lo + np.flatnonzero(p.succ[lo:hi] == j)[0]
        total += true_risk[p.edge[e]]
        i = j
    return total / steps

greedy = rollout_risk(lambda i: pi_win[i])
# a uniform draw among the rows of state i: its group of the model's rows
uniform = rollout_risk(lambda i: rm.ids[rng.integers(
    *np.searchsorted(rm.owner, (i, i + 1)))])
print(f"mean per-step risk over 5000 steps: greedy {greedy:.3f} "
      f"vs uniform winning {uniform:.3f}")
