"""The gridworld model, its monitor product, and the exact winning region.

Movement is diagonal-intent with slip; dwell times are exponential with
rates that depend on the cell. Composing the grid with the deterministic
monitor reduces the temporal objective to "never reach the failure sink",
and the winning region is the largest set from which that is achievable
with probability one. A product step is a model step lifted: the same
draw moves the cell, and the monitor reads the new cell's label.
"""

import numpy as np

from smdpsynth import (
    GridConfig, build_gridworld, determinize_kcba, exact_max_reach_probability,
    exact_winning_region, ltl_to_cba, parse_ltl, sample_step,
)
from smdpsynth.product import build_product, sample_product_step

m = build_gridworld(GridConfig(width=4, height=4, initial=(4, 4),
                               labels={"a": [(1, 1)], "b": [(2, 1)],
                                       "c": [(2, 4)]}))
print(f"grid: {m.n_states} cells, actions {m.actions}")
print(f"labeled cells: " + ", ".join(
    f"{m.names[s]}:{''.join(m.labels_of(s))}"
    for s in range(m.n_states) if m.labels[s]))

aut = ltl_to_cba(parse_ltl("G F a & G F b & G !c"), ap=m.ap)
d = determinize_kcba(aut, 5)
p = build_product(m, d)
print(f"monitor: {d.n_states} states at bound 5")
print(f"product: {p.n_states} states, {len(p.accepting)} in the failure sink")

s0 = p.states[p.initial][0]
s2, tau = sample_step(m, s0, "DL", np.random.default_rng(0))
j, _, _ = sample_product_step(p, p.initial, "DL", np.random.default_rng(0))
print(f"a DL step from {m.names[s0]} (seed 0): cell {m.names[s2]} after "
      f"{tau:.3f}; in the product, state {j} = (cell "
      f"{m.names[p.states[j][0]]}, monitor state {p.states[j][1]})")

w, w_p = exact_winning_region(p)
v = exact_max_reach_probability(p, w)
print(f"winning region: {len(w)} states, {len(w_p)} state-action pairs")
print(f"max probability of reaching it from the start: {v[p.initial]:.4f}")

cells = sorted({p.states[i][0] for i in w})
print("cells with a winning monitor configuration:",
      " ".join(m.names[s] for s in cells))
