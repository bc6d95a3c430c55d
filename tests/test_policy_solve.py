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

from smdpsynth import ActionNotEnabled, DomainGap, PolicyLeavesW, Smdp, \
    UnknownState, build_pipeline, desk_config, paper_config
from smdpsynth.automata import sccs
from smdpsynth.experiment import oracle_reference, parse_functional, \
    true_risk_fn
from smdpsynth.product import exact_max_reach_probability, \
    exact_winning_region, policy_reach_probability
from smdpsynth.risk import evaluate_policy_risk, extract_pi_win, \
    risk_model_from_product, risk_value_iteration

from conftest import grid4_product, product_dwell, product_row, \
    product_rows, random_product
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
    """The library's solve equals the pre-layout loops bit for bit, and
    the dense solve to RTOL."""
    got = policy_reach_probability(p, policy, target)
    assert hexes(got) == hexes(
        policy_reach_probability_reference(p, policy, target))
    ref = dense_reach(p, policy, target)
    np.testing.assert_allclose(got, ref, rtol=RTOL, atol=0)
    return ref


def check_risk(p, pi, risk, gamma):
    """As check_reach, and `risk` is called on the same transitions in
    the same order."""
    calls = {"got": [], "ref": []}

    def logged(name):
        def fn(i, a, j):
            calls[name].append((i, a, j))
            return risk(i, a, j)
        return fn

    got = evaluate_policy_risk(p, pi, logged("got"), gamma)
    bitwise = evaluate_policy_risk_reference(p, pi, logged("ref"), gamma)
    assert list(got) == list(bitwise) == sorted(pi)
    assert hexes(got.values()) == hexes(bitwise.values())
    assert calls["got"] == calls["ref"]
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

    def risk(i, a, j):
        return 2.0 * product_dwell(p, i, a, j).mean()

    rm = risk_model_from_product(p, w, w_p, risk, gamma_r=0.9)
    pi_win = extract_pi_win(rm, risk_value_iteration(rm))
    mixed = {i: acts[int(rng.integers(len(acts)))]
             for i, acts in rm.allowed.items()}
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
    check_reach(p, oracle["pi_tr"], oracle["w"])
    got = check_risk(p, oracle["pi_win"], true_risk_fn(p, functional),
                     cfg.gamma_r)
    assert got == oracle["v_risk"]
    sizes, _ = components(p, oracle["pi_win"], oracle["w"])
    assert max(sizes) > 1


def test_exact_side_reads_only_the_flat_layout(monkeypatch):
    """The desk oracle and both fixed-policy solves never ask the model
    for a row tuple, its only one left: every row they read is gathered
    from the product's flat layout."""
    def no_row_tuples(self, s, a):
        raise AssertionError(f"trans_row({s}, {a!r}) called")

    monkeypatch.setattr(Smdp, "trans_row", no_row_tuples)
    cfg = desk_config()
    p = build_pipeline(cfg)[1]
    oracle = oracle_reference(p, parse_functional(cfg.functional),
                              cfg.gamma_r)
    reach = policy_reach_probability(p, oracle["pi_tr"], oracle["w"])
    monkeypatch.undo()
    assert hexes(reach) == hexes(policy_reach_probability_reference(
        p, oracle["pi_tr"], oracle["w"]))


def test_policy_solves_match_dense_on_random_products():
    """Random products, random policies: components of several states and
    single states with self-loops both occur in both systems. Both solves
    also raise what the pre-layout loops raise for a policy that leaves
    its domain, an unknown state and a disabled action."""
    rng = np.random.default_rng(12)
    # the partial domains come from their own stream, so the products and
    # policies stay those of the dense comparison alone
    sub = np.random.default_rng(13)
    seen = {"reach": [0, 0], "risk": [0, 0]}
    leaves = disabled = 0
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
        scale = rng.uniform(0.5, 3.0, size=p.n_states)

        def risk(i, a, j):
            return float(scale[j]) * (1 + "xyz".index(a)) + 0.25 * i

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
            got = raised(evaluate_policy_risk, p, part, risk, gamma)
            assert got[0] is PolicyLeavesW
            assert got == raised(evaluate_policy_risk_reference, p, part,
                                 risk, gamma)
        cases = [(evaluate_policy_risk, evaluate_policy_risk_reference,
                  (p, {**policy, p.n_states: "x"}, risk, gamma)),
                 (policy_reach_probability,
                  policy_reach_probability_reference,
                  (p, policy, target | {p.n_states}))]
        off = [i for i in range(p.n_states)
               if i not in target and len(p.enabled(i)) < len(actions)]
        if off:
            disabled += 1
            i = off[0]
            bad = {**policy, i: actions[len(p.enabled(i))]}
            cases += [(evaluate_policy_risk, evaluate_policy_risk_reference,
                       (p, bad, risk, gamma)),
                      (policy_reach_probability,
                       policy_reach_probability_reference,
                       (p, bad, target))]
        for fn, reference, args in cases:
            got = raised(fn, *args)
            assert got[0] in (UnknownState, ActionNotEnabled)
            assert got == raised(reference, *args)
    for largest, loops in seen.values():
        assert largest >= 4 and loops > 0
    assert leaves > 50 and disabled > 50


def test_policy_reach_names_a_state_without_an_action():
    """A policy with no entry for some non-target state raises DomainGap
    naming the first such state, as `combine_policy` does, instead of a
    bare KeyError; target states need no entry."""
    p = build_pipeline(desk_config())[1]
    with pytest.raises(DomainGap, match=r"^state 1 has no policy entry$"):
        policy_reach_probability(p, {}, {0})
    policy = {i: p.enabled(i)[0] for i in range(p.n_states)}
    del policy[7]
    with pytest.raises(DomainGap, match=r"^state 7 has no policy entry$"):
        policy_reach_probability(p, policy, {0})
    del policy[0]
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
reach = policy_reach_probability(p, ["x"] * n, p.accepting)
v = evaluate_policy_risk(p, dict.fromkeys(range(n), "x"),
                         lambda i, a, j: 1.0, gamma)
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


DESK_ORACLE = """
import sys
import smdpsynth.experiment as E

cfg = E.desk_config(workers=1)
p = E.build_pipeline(cfg)[1]
o = E.oracle_reference(p, E.parse_functional(cfg.functional), cfg.gamma_r)
E.policy_reach_probability(p, o["pi_tr"], o["w"])
print(sorted(m for m in ("scipy.sparse.linalg", "scipy.sparse.csgraph")
             if m in sys.modules))
"""


def test_fixed_policy_solves_import_no_sparse_solver():
    """Importing the package and running the desk oracle (both fixed-policy
    solves included) loads neither scipy.sparse.linalg nor
    scipy.sparse.csgraph. Importing the former adds 8.5 MB of resident
    memory and the latter 9.7 MB: about 13% of the ~66 MB peak RSS of the
    desk benchmark workload, whose bound is 10%."""
    assert run_python(DESK_ORACLE).strip() == "[]"
