"""Fixed-policy systems: policy reach probability and policy risk, solved
one strongly connected component at a time, against the dense reference
solves and closed forms."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from smdpsynth import ActionNotEnabled, DomainGap, PolicyLeavesW, \
    build_pipeline, desk_config, paper_config
from smdpsynth.automata import sccs
from smdpsynth.experiment import oracle_reference, parse_functional, \
    true_edge_risk
from smdpsynth.product import exact_max_reach_probability, \
    exact_winning_region, policy_reach_probability
from smdpsynth.risk import evaluate_policy_risk, extract_pi_win, \
    risk_model_from_product, risk_value_iteration

from conftest import edge_risk_fn, grid4_product, model_edges, \
    policy_array, policy_dict, product_row, product_rows, random_product, \
    risk_actions
from oracles import evaluate_policy_risk_reference, \
    policy_reach_probability_reference, reach_probability_under_policy, \
    risk_value_of_policy

RTOL = 1e-12


def dense_reach(p, policy, target):
    trans = {(i, a): list(zip(*row))
             for (i, a), row in product_rows(p).items()}
    return reach_probability_under_policy(trans, policy, target, p.n_states)


def dense_risk(p, pi, risk, gamma):
    rows = {}
    for i, a in pi.items():
        succs, probs = product_row(p, i, a)
        rows[(i, a)] = (succs, probs, [risk(i, a, j) for j in succs])
    return risk_value_of_policy(rows, pi, gamma, pi)


def hexes(values):
    return [float(x).hex() for x in values]


def check_reach(p, policy, target):
    """The library's solve of the {state: action} policy, as a policy
    array, equals the pre-layout loops bit for bit, and the dense solve
    to RTOL."""
    got = policy_reach_probability(p, policy_array(p, policy), target)
    assert hexes(got) == hexes(
        policy_reach_probability_reference(p, policy, target))
    ref = dense_reach(p, policy, target)
    np.testing.assert_allclose(got, ref, rtol=RTOL, atol=0)
    return ref


def check_risk(p, pi, risk_e, gamma):
    """As check_reach, for the policy risk under `risk_e`, one risk per
    model edge; the references look each transition's risk up by its
    model triple."""
    risk = edge_risk_fn(p, risk_e)
    got = evaluate_policy_risk(p, policy_array(p, pi), risk_e, gamma)
    bitwise = evaluate_policy_risk_reference(p, pi, risk, gamma)
    assert list(got) == list(bitwise) == sorted(pi)
    assert hexes(got.values()) == hexes(bitwise.values())
    ref = dense_risk(p, pi, risk, gamma)
    np.testing.assert_allclose([got[i] for i in got], [ref[i] for i in got],
                               rtol=RTOL, atol=0)
    return got


def raised(fn, *args):
    """The type and message of the exception `fn(*args)` raises."""
    with pytest.raises(Exception) as exc:
        fn(*args)
    return exc.type, str(exc.value)


def components(p, policy, states):
    """Sizes of the policy graph's components restricted to `states`, and
    how many single states loop back to themselves."""
    def succs(i):
        return [j for j in product_row(p, i, policy[i])[0] if j in states]

    comps = list(sccs(sorted(states), succs))
    loops = sum(1 for c in comps if len(c) == 1 and c[0] in succs(c[0]))
    return [len(c) for c in comps], loops


def test_policy_solves_match_dense_on_grid4():
    p = grid4_product(K=5)
    w, w_p = exact_winning_region(p)
    rng = np.random.default_rng(11)
    v_opt = exact_max_reach_probability(p, w)
    greedy = {}
    for i in range(p.n_states):
        acts = p.enabled(i)
        vals = [float(np.dot(product_row(p, i, a)[1],
                             v_opt[list(product_row(p, i, a)[0])]))
                for a in acts]
        greedy[i] = acts[int(np.argmax(vals))]
    uniform = {i: p.enabled(i)[int(rng.integers(len(p.enabled(i))))]
               for i in range(p.n_states)}
    for policy in (greedy, uniform):
        check_reach(p, policy, w)

    risk = np.array([2.0 * p.m.dwell[t].mean() for t in model_edges(p.m)])
    rm = risk_model_from_product(p, w, w_p, risk, gamma_r=0.9)
    pi_win = policy_dict(p, extract_pi_win(rm, risk_value_iteration(rm)))
    mixed = {i: acts[int(rng.integers(len(acts)))]
             for i, acts in risk_actions(p, rm).items()}
    for pi in (pi_win, mixed):
        check_risk(p, pi, risk, 0.9)
    sizes, _ = components(p, mixed, w)
    assert max(sizes) > 1


@pytest.mark.parametrize("make", [desk_config, paper_config],
                         ids=["desk", "paper"])
def test_policy_solves_match_dense_on_oracle_policies(make):
    cfg = make()
    p = build_pipeline(cfg)[1]
    functional = parse_functional(cfg.functional)
    oracle = oracle_reference(p, functional, cfg.gamma_r)
    pi_win = policy_dict(p, oracle["pi_win"])
    check_reach(p, policy_dict(p, oracle["pi_tr"]), oracle["w"])
    got = check_risk(p, pi_win, true_edge_risk(p, functional), cfg.gamma_r)
    assert got == oracle["v_risk"]
    sizes, _ = components(p, pi_win, oracle["w"])
    assert max(sizes) > 1


def test_policy_solves_match_dense_on_random_products():
    """Random products, random policies: components of several states and
    single states with self-loops both occur in both systems. Both solves
    also raise what the pre-layout loops raise for a policy that leaves
    its domain and for an unknown target state, and typed errors for a
    choice that is no pair id or another state's pair."""
    rng = np.random.default_rng(12)
    # the partial domains come from their own stream, so the products and
    # policies stay those of the dense comparison alone
    sub = np.random.default_rng(13)
    seen = {"reach": [0, 0], "risk": [0, 0]}
    leaves = foreign = 0
    actions = ("x", "y", "z")
    for _ in range(150):
        p = random_product(rng, n=int(rng.integers(3, 16)), actions=actions)
        policy = {i: p.enabled(i)[int(rng.integers(len(p.enabled(i))))]
                  for i in range(p.n_states)}
        k = int(rng.integers(1, p.n_states + 1))
        target = {int(x) for x in rng.choice(p.n_states, size=k,
                                             replace=False)}
        ref = check_reach(p, policy, target)
        unknown = {i for i in range(p.n_states)
                   if i not in target and ref[i] > 0}
        # one risk per model edge; the product may not reach every model
        # state, so the draws (one per product state) wrap around
        scale = rng.uniform(0.5, 3.0, size=p.n_states)
        risk = np.array([float(scale[s2 % p.n_states]) * (1 + "xyz".index(a))
                         + 0.25 * s for s, a, s2 in model_edges(p.m)])

        gamma = float(rng.uniform(0.0, 0.99))
        check_risk(p, policy, risk, gamma)
        for name, states in (("reach", unknown),
                             ("risk", set(range(p.n_states)))):
            if states:
                sizes, loops = components(p, policy, states)
                seen[name][0] = max(seen[name][0], max(sizes))
                seen[name][1] += loops

        domain = sub.choice(p.n_states,
                            size=int(sub.integers(1, p.n_states + 1)),
                            replace=False).tolist()
        part = {i: policy[i] for i in domain}
        if all(j in part for i in domain
               for j in product_row(p, i, part[i])[0]):
            check_risk(p, part, risk, gamma)
        else:
            leaves += 1
            got = raised(evaluate_policy_risk, p, policy_array(p, part),
                         risk, gamma)
            assert got[0] is PolicyLeavesW
            assert got == raised(evaluate_policy_risk_reference, p, part,
                                 edge_risk_fn(p, risk), gamma)
        assert raised(policy_reach_probability, p, policy_array(p, policy),
                      target | {p.n_states}) == raised(
            policy_reach_probability_reference, p, policy,
            target | {p.n_states})
        # state 0 choosing no pair id, or another state's pair
        foreign += p.owner[-1] != 0
        for k in (len(p.owner), len(p.owner) - 1):
            if k == len(p.owner) or p.owner[k] != 0:
                bad = policy_array(p, policy)
                bad[0] = k
                want = (ActionNotEnabled,
                        f"pair id {k} is not one of state 0's")
                assert raised(evaluate_policy_risk, p, bad, risk,
                              gamma) == want
                if 0 not in target:
                    assert raised(policy_reach_probability, p, bad,
                                  target) == want
    for largest, loops in seen.values():
        assert largest >= 4 and loops > 0
    assert leaves > 50 and foreign > 50


def test_policy_reach_names_a_state_without_an_action():
    """A policy array that leaves some non-target state at -1 raises
    DomainGap naming the first such state, as `combine_policy` does, and
    so does one without an entry per state; target states need no
    entry."""
    p = build_pipeline(desk_config())[1]
    with pytest.raises(DomainGap, match=r"^state 1 has no policy entry$"):
        policy_reach_probability(p, np.full(p.n_states, -1), {0})
    policy = p.pair_ptr[:-1].copy()
    policy[7] = -1
    with pytest.raises(DomainGap, match=r"^state 7 has no policy entry$"):
        policy_reach_probability(p, policy, {0})
    with pytest.raises(DomainGap, match=r"^policy has 7 entries for "):
        policy_reach_probability(p, policy[:7], {0})
    policy[0] = -1
    v = policy_reach_probability(p, policy, {0, 7})
    assert v[0] == v[7] == 1.0


def run_python(code):
    """Run `code` in a fresh interpreter with ./src and ./tests importable;
    returns its standard output."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root / "tests")]
        + [x for x in [env.get("PYTHONPATH")] if x])
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return out.stdout


CHAIN_SOLVES = """
import json, resource, time
import numpy as np
from conftest import chain_product
from smdpsynth.product import policy_reach_probability
from smdpsynth.risk import evaluate_policy_risk

gamma = 0.9
p = chain_product(70_000)
n = p.n_states
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
t0 = time.process_time()
reach = policy_reach_probability(p, p.pair_ptr[:-1], p.accepting)
v = evaluate_policy_risk(p, p.pair_ptr[:-1], np.ones(len(p.model_succ)),
                         gamma)
cpu = time.process_time() - t0
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
v = np.fromiter(v.values(), float, len(v))
print(json.dumps({
    "reach_exact": bool(np.array_equal(reach, np.ones(n))),
    "risk_rel_err": float(np.max(np.abs(v * (1 - gamma) - 1.0))),
    "risk_len": len(v), "n_states": n, "cpu_s": cpu,
    "rss_growth_mb": (after - before) / 1024,
}))
"""


def test_fixed_policy_solves_scale_with_rows_not_n_squared():
    """The 70,001 states of `chain_product(70_000)`, in a fresh process:
    the dense matrix of either system would take 70,001² × 8 bytes =
    39 GB. Solved component by component, the peak resident memory grows
    by about 35 MB for both solves (the bound allows four times that) and
    the solves take about 1.5 s of CPU, and both answers match their closed
    forms: reach probability 1 everywhere, the target being the chain's
    accepting end, and risk 1/(1 - gamma) when every step costs 1."""
    got = json.loads(run_python(CHAIN_SOLVES))
    assert got["reach_exact"] and got["risk_len"] == got["n_states"] == 70_001
    assert got["risk_rel_err"] <= 1e-12
    assert got["rss_growth_mb"] < 150
    assert got["cpu_s"] < 30


DESK_RUN = """
import sys, tempfile
import smdpsynth.bayes as B
import smdpsynth.experiment as E

calls = []
special = B._gammaln_psi
B._gammaln_psi = lambda x, memo: calls.append(x) or special(x, memo)
with tempfile.TemporaryDirectory() as out:
    E.run_experiment(E.desk_config(reach_episodes=500, paths=2, horizon=5,
                                   out_dir=out))
print(len(calls) > 0, sorted(m for m in sys.modules
             if m.split(".")[0] in ("scipy", "multiprocessing")))
"""


def test_fixed_policy_solves_import_no_sparse_solver():
    """Importing the package and running a small desk experiment (the
    oracle with both fixed-policy solves, a learner that computes
    posterior entropies, the planner and the export) loads no `scipy`
    module and no `multiprocessing`. Importing `scipy.special` adds 24.4
    MB of resident memory and `multiprocessing` 1.1 MB, against the ~48 MB
    peak RSS of the desk benchmark workload, whose bound is 10%."""
    assert run_python(DESK_RUN).strip() == "True []"
