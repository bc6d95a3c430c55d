"""Learning the winning region from samples only.

The learner never reads the transition table: it simulates episodes
inside the current region, drawing the actions it knows least about,
keeps a pair as a candidate while nothing observed escapes the region,
and prunes greedily otherwise. Candidate sets only shrink, so the
estimate converges to the exact region from above.
"""

from smdpsynth import (
    LearnerConfig, determinize_kcba, exact_winning_region, ind_k,
    ltl_to_cba, parse_ltl, run_algorithm1,
)
from smdpsynth import GridConfig, build_gridworld
from smdpsynth.product import build_product

m = build_gridworld(GridConfig(width=4, height=4, initial=(4, 4),
                               labels={"a": [(1, 1)], "b": [(2, 1)],
                                       "c": [(2, 4)]}))
aut = ltl_to_cba(parse_ltl("G F a & G F b & G !c"), ap=m.ap)
p = build_product(m, determinize_kcba(aut, 5))

w, w_p = exact_winning_region(p)
res = run_algorithm1(p, LearnerConfig(episode_budget=20_000, step_cap=60,
                                      patience=250, min_tries=10, seed=0),
                     oracle_w_p=w_p)

print("episode   candidates   agreement")
for row in res.progress[::200] + [res.progress[-1]]:
    print(f"{row['episode']:7d}   {row['w_p']:10d}   {row['ind']:.3f}")

print(f"\nconverged after {res.episodes} episodes "
      f"({len(res.store)} observations)")
print(f"exact region recovered: {res.w == w and res.w_p == w_p}")
print(f"final agreement ratio:  {ind_k(w_p, res.w_p):.3f}")
