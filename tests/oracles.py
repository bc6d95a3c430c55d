"""Independent brute-force oracles for the test suite.

Nothing here calls the library's automaton or planning code paths; each
oracle evaluates its property directly from definitions so that frozen
expected values and property sweeps check the implementation from the
outside.
"""

import bisect
import itertools
import json
import weakref
from collections import deque

import numpy as np

from smdpsynth import ltl as L
from smdpsynth.reach import EPSILON, VISIT_OFFSET


# --- LTL on lasso words ------------------------------------------------------

def eval_ltl_on_lasso(f, stem, cycle, ap):
    """Truth of formula f on the word stem.cycle^omega (letters are bitmasks).

    Direct recursion over the satisfaction relation, memoized on canonical
    positions (position i >= len(stem) folds back into the cycle).
    """
    word = list(stem) + list(cycle)
    Ls, Lc = len(stem), len(cycle)
    n = Ls + Lc
    index = {a: i for i, a in enumerate(ap)}
    memo = {}

    def canon(i):
        return i if i < n else Ls + (i - Ls) % Lc

    def rec(g, i):
        key = (g, i)
        v = memo.get(key)
        if v is not None:
            return v
        k = g.kind
        if k == L.KIND_TRUE:
            v = True
        elif k == L.KIND_FALSE:
            v = False
        elif k == L.KIND_ATOM:
            v = bool(word[i] >> index[g.name] & 1)
        elif k == L.KIND_NOT:
            v = not rec(g.children[0], i)
        elif k == L.KIND_AND:
            v = rec(g.children[0], i) and rec(g.children[1], i)
        elif k == L.KIND_OR:
            v = rec(g.children[0], i) or rec(g.children[1], i)
        elif k == L.KIND_IMPLIES:
            v = (not rec(g.children[0], i)) or rec(g.children[1], i)
        elif k == L.KIND_NEXT:
            v = rec(g.children[0], canon(i + 1))
        elif k == L.KIND_EVENTUALLY:
            v = any(rec(g.children[0], j) for j in _closure(i, Ls, n))
        elif k == L.KIND_GLOBALLY:
            v = all(rec(g.children[0], j) for j in _closure(i, Ls, n))
        elif k == L.KIND_UNTIL:
            a, b = g.children
            v = False
            seen = set()
            j = i
            while j not in seen:
                seen.add(j)
                if rec(b, j):
                    v = True
                    break
                if not rec(a, j):
                    break
                j = canon(j + 1)
        elif k == L.KIND_RELEASE:
            a, b = g.children
            v = True
            seen = set()
            j = i
            while j not in seen:
                seen.add(j)
                if not rec(b, j):
                    v = False
                    break
                if rec(a, j):
                    break
                j = canon(j + 1)
        else:
            raise ValueError(k)
        memo[key] = v
        return v

    return rec(f, 0)


def _closure(i, Ls, n):
    """Canonical positions of all suffixes from position i onward."""
    if i < Ls:
        return range(i, n)
    return range(Ls, n)


def all_lassos(n_letters, max_total):
    """Every (stem, cycle) with len(stem)+len(cycle) <= max_total, cycle nonempty."""
    sigma = range(n_letters)
    for total in range(1, max_total + 1):
        for cyc_len in range(1, total + 1):
            stem_len = total - cyc_len
            for stem in itertools.product(sigma, repeat=stem_len):
                for cycle in itertools.product(sigma, repeat=cyc_len):
                    yield stem, cycle


def random_formula(rng, ap, depth):
    """Random formula over the given atoms with bounded operator depth."""
    if depth == 0 or rng.random() < 0.2:
        r = rng.random()
        if r < 0.8:
            return L.atom(ap[rng.integers(len(ap))])
        return L.TRUE if r < 0.9 else L.FALSE
    ops = ("not", "and", "or", "implies", "next", "until", "eventually", "globally")
    op = ops[rng.integers(len(ops))]
    a = random_formula(rng, ap, depth - 1)
    if op == "not":
        return L.lnot(a)
    if op == "next":
        return L.nxt(a)
    if op == "eventually":
        return L.eventually(a)
    if op == "globally":
        return L.globally(a)
    b = random_formula(rng, ap, depth - 1)
    if op == "and":
        return L.land(a, b)
    if op == "or":
        return L.lor(a, b)
    if op == "implies":
        return L.implies(a, b)
    return L.until(a, b)


# --- run enumeration for small automata --------------------------------------

def cba_accepts_by_run_enumeration(aut, stem, cycle):
    """Co-Buchi acceptance decided by enumerating run prefixes.

    A run visits an accepting state infinitely often exactly when some run
    prefix visits the same accepting (state, lasso-position) node twice, so
    each enumerated prefix carries the set of accepting nodes it has passed.
    Any rejecting prefix fits within reach-the-loop + one-loop length, which
    is at most 2 * |X| * |word| steps. Tiny fixtures only (exponential).
    """
    Ls, Lc = len(stem), len(cycle)
    n = Ls + Lc
    steps = 2 * aut.n_states * n + 2
    word = list(stem) + list(cycle) * ((steps - Ls) // Lc + 1)
    acc = aut.accepting

    def node(x, i):
        return (x, i if i < n else Ls + (i - Ls) % Lc)

    start = node(aut.initial, 0)
    visited0 = frozenset([start]) if aut.initial in acc else frozenset()
    frontier = {(start, visited0)}
    for i, letter in enumerate(word[:steps]):
        nxt = set()
        for (x, _), seen in frontier:
            for y in aut.delta[x][letter]:
                ny = node(y, i + 1)
                if y in acc:
                    if ny in seen:
                        return False
                    nxt.add((ny, seen | {ny}))
                else:
                    nxt.add((ny, seen))
        frontier = nxt
        if not frontier:
            return True
    return True


def kcba_accepts_by_run_enumeration(aut, K, stem, cycle):
    """K-co-Buchi acceptance by explicit run-prefix enumeration.

    Runs with total-visit counters over an unroll long enough that any
    prefix exceeding K total accepting visits (needing at most |X|*|word|
    steps between successive visits) must show up; prunes at K+1.
    """
    Ls, Lc = len(stem), len(cycle)
    n = Ls + Lc
    steps = (K + 2) * aut.n_states * n + 2
    word = list(stem) + list(cycle) * ((steps - Ls) // Lc + 1)
    acc = aut.accepting
    c0 = 1 if aut.initial in acc else 0
    if c0 > K:
        return False
    frontier = {(aut.initial, c0)}
    for letter in word[:steps]:
        nxt = set()
        for x, c in frontier:
            for y in aut.delta[x][letter]:
                cy = c + (1 if y in acc else 0)
                if cy > K:
                    return False
                nxt.add((y, cy))
        frontier = nxt
        if not frontier:
            return True
    return True


# --- graph components -----------------------------------------------------------

def cyclic_sccs_reference(root, succs):
    """The single-root Tarjan that `automata.sccs` generalized: yields the
    components that hold a cycle, in completion order, as lists in pop
    order. The reference the lasso check's and `_simplify`'s filtered
    component streams must reproduce."""
    index = {root: 0}
    low = {root: 0}
    stack = [root]
    on_stack = {root}
    work = [(root, iter(succs(root)))]
    while work:
        node, it = work[-1]
        for nxt in it:
            if nxt not in index:
                index[nxt] = low[nxt] = len(index)
                stack.append(nxt)
                on_stack.add(nxt)
                work.append((nxt, iter(succs(nxt))))
                break
            if nxt in on_stack and index[nxt] < low[node]:
                low[node] = index[nxt]
        else:
            work.pop()
            if work and low[node] < low[work[-1][0]]:
                low[work[-1][0]] = low[node]
            if low[node] == index[node]:
                comp = []
                while True:
                    m = stack.pop()
                    on_stack.discard(m)
                    comp.append(m)
                    if m == node:
                        break
                if len(comp) > 1 or node in succs(node):
                    yield comp


def lasso_accepted_cba(aut, stem, cycle):
    """Co-Buchi acceptance of stem.cycle^omega: rejects iff some cycle of
    the finite run graph over (state, position-in-lasso) nodes, reachable
    from the initial node, passes through an accepting state, found with
    `cyclic_sccs_reference`. An empty cycle raises EmptyCycle."""
    from smdpsynth.errors import EmptyCycle

    if not cycle:
        raise EmptyCycle("cycle part of a lasso must be nonempty")
    word = list(stem) + list(cycle)
    n, wrap = len(word), len(stem)

    def succs(node):
        x, pos = divmod(node, n)
        nxt = pos + 1 if pos + 1 < n else wrap
        return [y * n + nxt for y in aut.delta[x][word[pos]]]

    return not any(node // n in aut.accepting
                   for comp in cyclic_sccs_reference(aut.initial * n, succs)
                   for node in comp)


def reachable_from(x, succs):
    """Every node reachable from x, x included."""
    seen = {x}
    stack = [x]
    while stack:
        for y in succs(stack.pop()):
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


# --- exact planning oracles ---------------------------------------------------

def enumerate_positional_policies(allowed):
    """All positional policies over dict state -> tuple of allowed actions."""
    states = sorted(allowed)
    for combo in itertools.product(*(allowed[s] for s in states)):
        yield dict(zip(states, combo))


def reach_probability_under_policy(trans, policy, target, n_states):
    """Pr(reach target) per state under a fixed positional policy.

    trans: dict (s, a) -> list of (successor, probability). Computed by
    solving the linear system restricted to states that can reach the target.
    """
    target = set(target)
    # graph reachability toward target under the policy
    rev = {s: set() for s in range(n_states)}
    for s in range(n_states):
        if s in target:
            continue
        for (y, p) in trans[(s, policy[s])]:
            if p > 0:
                rev[y].add(s)
    can = set(target)
    stack = list(target)
    while stack:
        y = stack.pop()
        for s in rev[y]:
            if s not in can:
                can.add(s)
                stack.append(s)
    rows = sorted(can - target)
    idx = {s: i for i, s in enumerate(rows)}
    m = len(rows)
    A = np.eye(m)
    b = np.zeros(m)
    for s in rows:
        for (y, p) in trans[(s, policy[s])]:
            if y in target:
                b[idx[s]] += p
            elif y in idx:
                A[idx[s], idx[y]] -= p
    v = np.zeros(n_states)
    if m:
        sol = np.linalg.solve(A, b)
        for s in rows:
            v[s] = sol[idx[s]]
    for s in target:
        v[s] = 1.0
    return v


def max_reach_by_policy_enumeration(trans, allowed, target, n_states):
    """Max reach probability via exhaustive positional policy enumeration."""
    best = np.zeros(n_states)
    for pol in enumerate_positional_policies(allowed):
        v = reach_probability_under_policy(trans, pol, target, n_states)
        best = np.maximum(best, v)
    return best


def risk_values_by_horizon_truncation(rows, allowed, gamma, horizon):
    """Finite-horizon truncation of the min-risk recursion.

    rows: dict (s, a) -> (list of successors, list of probs, list of risks),
    successors restricted to the safe region. Returns dict (s, a) -> value of
    the horizon-step recursion (within gamma^horizon * max_risk/(1-gamma) of
    the fixed point).
    """
    q = {sa: 0.0 for sa in rows}
    for _ in range(horizon):
        vmin = {}
        for (s, a), val in q.items():
            if s not in vmin or val < vmin[s]:
                vmin[s] = val
        nq = {}
        for (s, a), (succs, probs, risks) in rows.items():
            acc = 0.0
            for y, p, r in zip(succs, probs, risks):
                acc += p * (r + gamma * vmin[y])
            nq[(s, a)] = acc
        q = nq
    return q


def risk_value_of_policy(rows, policy, gamma, states):
    """Exact policy risk by linear solve on the restricted rows."""
    states = sorted(states)
    idx = {s: i for i, s in enumerate(states)}
    m = len(states)
    A = np.eye(m)
    b = np.zeros(m)
    for s in states:
        succs, probs, risks = rows[(s, policy[s])]
        for y, p, r in zip(succs, probs, risks):
            b[idx[s]] += p * r
            A[idx[s], idx[y]] -= gamma * p
    sol = np.linalg.solve(A, b)
    return {s: sol[idx[s]] for s in states}


# --- scalar value iterations ---------------------------------------------------

def risk_value_iteration_scalar(rm, tol=1e-9):
    """Risk VI as one scalar loop per row, rows keyed by pair id and
    grouped by the state that `rm.pair_ptr` gives each: the reference the
    library's array sweeps must match bit for bit. Returns (q, residuals),
    q in row order."""
    from conftest import risk_rows

    ptr = rm.pair_ptr.tolist()
    owner = {k: i for i in range(len(ptr) - 1) for k in range(ptr[i],
                                                             ptr[i + 1])}
    rows = risk_rows(rm)
    q = {k: 0.0 for k in rows}
    groups = {}
    for k in rows:
        groups.setdefault(owner[k], []).append(k)
    best = dict.fromkeys(groups, 0.0)
    residuals = []
    while not residuals or residuals[-1] >= tol:
        residual = 0.0
        for k, (succs, probs, risks) in rows.items():
            v = 0.0
            for j, pr, r in zip(succs, probs, risks):
                v += pr * (r + rm.gamma_r * best[j])
            residual = max(residual, abs(v - q[k]))
            q[k] = v
        for i, ks in groups.items():
            best[i] = min(q[k] for k in ks)
        residuals.append(residual)
    return q, residuals


def max_reach_gauss_seidel(p, target):
    """max_pi Pr(reach target) by in-place (Gauss-Seidel) value iteration
    over the product's rows, one state at a time, to a residual below
    1e-12."""
    target = set(target)
    v = np.zeros(p.n_states)
    for i in target:
        v[i] = 1.0
    from conftest import product_rows

    by_state = {}
    for (i, a), (succs, probs) in product_rows(p).items():
        if i not in target:
            by_state.setdefault(i, []).append((list(succs), np.asarray(probs)))
    residual = 1.0
    while residual >= 1e-12:
        residual = 0.0
        for i, options in by_state.items():
            best = max(float(probs @ v[succs]) for succs, probs in options)
            residual = max(residual, abs(best - v[i]))
            v[i] = best
    return v


# --- product construction ------------------------------------------------------

def product_reference(m, d):
    """The reachable product by a FIFO breadth-first search that pops one
    state at a time: each popped state's enabled actions in the model's
    order, each row's successors in model-row order, a new id for every
    state on its first sighting. The reference the library's
    level-synchronous array build must match. Returns (states, index,
    accepting, rows), rows being {(i, a): (successor ids, the model row's
    probabilities)} in insertion order."""
    from conftest import model_row

    f0 = d.step(d.initial, m.letter_of(m.initial))
    init = (m.initial, f0)
    index = {init: 0}
    states = [init]
    rows = {}
    queue = deque([init])
    while queue:
        s, f = queue.popleft()
        pid = index[(s, f)]
        for a in m._enabled[s]:
            succs, probs = model_row(m, s, a)
            pids = []
            for s2 in succs:
                key = (s2, d.step(f, m.letter_of(s2)))
                nid = index.get(key)
                if nid is None:
                    nid = index[key] = len(states)
                    states.append(key)
                    queue.append(key)
                pids.append(nid)
            rows[(pid, a)] = (tuple(pids), probs)
    accepting = frozenset(i for i, (_, f) in enumerate(states)
                          if f in d.accepting)
    return tuple(states), index, accepting, rows


# state index of each product, built on the first `lift_reference` call
_STATE_INDEX = weakref.WeakKeyDictionary()


def lift_reference(p, i, s2):
    """Product successor of state i when the model moves to s2: the
    automaton steps on the label of s2 and the (s2, automaton state) pair
    is looked up in a dict over `p.states`. None if the product has no
    such state. Reads nothing of the flat layout."""
    index = _STATE_INDEX.get(p)
    if index is None:
        index = _STATE_INDEX[p] = {st: j for j, st in enumerate(p.states)}
    return index.get((s2, p.d.step(p.states[i][1], p.m.letter_of(s2))))


# --- exact oracle references ---------------------------------------------------

def exact_winning_region_reference(p):
    """Greatest stay-safe fixpoint by a worklist cascade over dict
    predecessor lists, counting each pair's distinct dead successors:
    the reference the library's array fixpoint must match. Returns
    (W, W_p)."""
    from conftest import product_rows

    rows = product_rows(p)
    alive = [True] * p.n_states
    for i in p.accepting:
        alive[i] = False

    preds = {}
    bad_count = {}
    good_actions = [0] * p.n_states
    for (i, a), (succs, _) in rows.items():
        bad = sum(1 for j in set(succs) if not alive[j])
        bad_count[(i, a)] = bad
        if bad == 0:
            good_actions[i] += 1
        for j in set(succs):
            preds.setdefault(j, []).append((i, a))

    dead = deque()
    for i in range(p.n_states):
        if alive[i] and good_actions[i] == 0:
            alive[i] = False
            dead.append(i)

    while dead:
        j = dead.popleft()
        for (i, a) in preds.get(j, ()):
            bad_count[(i, a)] += 1
            if bad_count[(i, a)] == 1:
                good_actions[i] -= 1
                if good_actions[i] == 0 and alive[i]:
                    alive[i] = False
                    dead.append(i)

    w = frozenset(i for i in range(p.n_states) if alive[i])
    w_p = frozenset((i, a) for (i, a), (succs, _) in rows.items()
                    if alive[i] and all(alive[j] for j in succs))
    return w, w_p


def greedy_transient_reference(p, w, v_opt, tol=1e-9):
    """Per state outside w, the row values sum_j P(j|i,a) v_opt[j] by one
    `np.dot` per row, and the actions within tol of the best, in enabled
    order. Returns {state: [(action, value), ...]} and
    {state: [near-best actions]}."""
    from conftest import product_row

    values, best_actions = {}, {}
    for i in range(p.n_states):
        if i in w:
            continue
        vals = []
        for a in p.enabled(i):
            succs, probs = product_row(p, i, a)
            vals.append((a, float(np.dot(probs, v_opt[list(succs)]))))
        best = max(v for _, v in vals)
        values[i] = vals
        best_actions[i] = [a for a, v in vals if v >= best - tol]
    return values, best_actions



def policy_reach_probability_reference(p, policy, target):
    """Pr(reach target) under a fixed positional policy, by one
    `product_row` read per non-target state, a backward search over dict
    predecessor lists and a solve over lists of rows: the reference the
    library's flat-layout solve must match bit for bit."""
    from conftest import product_row

    target = set(target)
    for i in target:
        p.check_state(i)
    succ_of = {}
    for i in range(p.n_states):
        if i not in target:
            succ_of[i] = product_row(p, i, policy[i])

    preds = {}
    for i, (succs, _) in succ_of.items():
        for j in succs:
            preds.setdefault(j, []).append(i)
    can = set(target)
    stack = list(target)
    while stack:
        for i in preds.get(stack.pop(), ()):
            if i not in can:
                can.add(i)
                stack.append(i)

    unknown = sorted(can - target)
    pos = {i: k for k, i in enumerate(unknown)}
    succs, coefs, const = [], [], []
    for i in unknown:
        row_succ, row_coef, c = [], [], 0.0
        for j, pr in zip(*succ_of[i]):
            if j in target:
                c += pr
            elif j in pos:
                row_succ.append(pos[j])
                row_coef.append(pr)
        succs.append(row_succ)
        coefs.append(row_coef)
        const.append(c)

    v = np.zeros(p.n_states)
    for i in target:
        v[i] = 1.0
    v[unknown] = solve_by_components_reference(succs, coefs, const)
    return v


def evaluate_policy_risk_reference(p, pi, risk, gamma_r):
    """Exact discounted policy risk by one `product_row` read per state of
    the policy, in sorted order, calling `risk` per transition and raising
    PolicyLeavesW at the first successor outside the domain: the reference
    the library's flat-layout solve must match bit for bit."""
    from smdpsynth.errors import InvalidRiskModel, PolicyLeavesW

    from conftest import product_row

    if not 0 <= gamma_r < 1:
        raise InvalidRiskModel(f"gamma_r must be in [0,1), got {gamma_r}")
    states = sorted(pi)
    idx = {i: k for k, i in enumerate(states)}
    succs, coefs, const = [], [], []
    for i in states:
        row_succ, row_coef, c = [], [], 0.0
        for j, pr in zip(*product_row(p, i, pi[i])):
            if j not in idx:
                raise PolicyLeavesW(
                    f"action {pi[i]} at state {i} reaches {j} outside W")
            c += pr * risk(i, pi[i], j)
            row_succ.append(idx[j])
            row_coef.append(gamma_r * pr)
        succs.append(row_succ)
        coefs.append(row_coef)
        const.append(c)
    return dict(zip(states, solve_by_components_reference(succs, coefs,
                                                          const)))


def solve_by_components_reference(succs, coefs, const):
    """v_i = const[i] + sum_k coefs[i][k] v_{succs[i][k]} over lists of
    rows, one component of `automata.sccs` at a time, sinks first: a
    single unknown by its closed form, a larger component by a dense
    solve in the component's order."""
    from smdpsynth.automata import sccs

    v = [0.0] * len(const)
    for comp in sccs(range(len(const)), succs.__getitem__):
        if len(comp) == 1:
            i = comp[0]
            rhs, diag = const[i], 0.0
            for j, a in zip(succs[i], coefs[i]):
                if j == i:
                    diag += a
                else:
                    rhs += a * v[j]
            v[i] = rhs / (1.0 - diag)
            continue
        local = {i: k for k, i in enumerate(comp)}
        mat = np.eye(len(comp))
        rhs = np.array([const[i] for i in comp])
        for i in comp:
            row = local[i]
            for j, a in zip(succs[i], coefs[i]):
                k = local.get(j)
                if k is None:
                    rhs[row] += a * v[j]
                else:
                    mat[row, k] -= a
        for i, x in zip(comp, np.linalg.solve(mat, rhs).tolist()):
            v[i] = x
    return v

# --- simulator draws -----------------------------------------------------------

def sample_step_reference(m, s, a, rng):
    """One model transition drawn from a fresh cumulative sum of the row,
    then the dwell of the drawn transition. Returns (s', tau)."""
    from conftest import model_row

    succs, probs = model_row(m, s, a)
    k = int(np.searchsorted(np.cumsum(probs), rng.random(), side="right"))
    s2 = succs[min(k, len(succs) - 1)]
    return s2, m.dwell[(s, a, s2)].sample(rng)


def sample_product_step_reference(p, i, a, rng):
    """One product transition drawn from a fresh cumulative sum of the
    product row on every call, then the dwell of the drawn transition:
    the sampler's reference semantics. Returns (j, tau, model successor)."""
    from conftest import product_dwell, product_row

    succs, probs = product_row(p, i, a)
    k = int(np.searchsorted(np.cumsum(probs), rng.random(), side="right"))
    j = succs[min(k, len(succs) - 1)]
    return j, product_dwell(p, i, a, j).sample(rng), p.states[j][0]


def export_sample_paths_reference(p, policy, n, horizon, rng):
    """The paths.jsonl text of `n` sample paths under a policy array that
    chooses at every state, built whole before any of it is dumped: the
    header record, then one record per path, each path drawn with the
    per-call cumulative-sum sampler; one compact JSON line per record."""
    m = p.m
    acts = p.pair_actions(np.asarray(policy))
    records = [{"record": "header", "paths": n, "horizon": horizon,
                "initial": p.initial}]
    for _ in range(n):
        i = p.initial
        s = p.states[i][0]
        states, names, labels = [i], [m.names[s]], [list(m.labels_of(s))]
        actions, dwells = [], []
        for _ in range(horizon):
            j, tau, s2 = sample_product_step_reference(p, i, acts[i], rng)
            actions.append(acts[i])
            dwells.append(float(tau))
            states.append(j)
            names.append(m.names[s2])
            labels.append(list(m.labels_of(s2)))
            i = j
        records.append({"record": "path", "states": states, "names": names,
                        "labels": labels, "actions": actions,
                        "dwells": dwells})
    return "".join(json.dumps(rec, sort_keys=True, separators=(",", ":"))
                   + "\n" for rec in records)


def softmax_policy_reference(actions, scores, temperature, epsilon):
    """(1-eps) * softmax(score/T) + eps * uniform, one Python float per
    action: the exploration policy's reference arithmetic."""
    z = np.asarray(scores, dtype=float) / temperature
    z -= z.max()
    w = np.exp(z)
    w /= w.sum()
    u = 1.0 / len(actions)
    return {a: float((1 - epsilon) * wi + epsilon * u)
            for a, wi in zip(actions, w)}


def draw_index_reference(probs, rng):
    """Index drawn from the weights `probs` with one `rng.random()`, the
    cumulative sums built afresh on every call: normalize, cumulative sum,
    divide by its last entry, then the first entry above the uniform draw.
    Refuses weights that are not a distribution, drawing nothing."""
    from smdpsynth.errors import InvalidDistribution

    total = float(np.sum(np.array(probs, dtype=float)))
    if not (0.0 < total < float("inf") and min(probs) >= 0.0):
        raise InvalidDistribution(
            f"weights {probs} are not a probability distribution")
    cdf = list(itertools.accumulate([x / total for x in probs]))
    last = cdf[-1]
    return bisect.bisect_right([c / last for c in cdf], rng.random())


def choice_action_reference(dist, rng):
    """Index of the action drawn from an action -> probability dict by
    `Generator.choice`: the learner's reference action draw."""
    probs = np.array(list(dist.values()))
    return int(rng.choice(len(probs), p=probs / probs.sum()))


# --- transient Q-learning ------------------------------------------------------

def qlearn_transient_reference(p, w, spec, schedule):
    """Transient Q-learning as one loop that looks every state property up
    on every step, sampling with `sample_product_step_reference`: the
    reference the library's loop must match bit for bit. Returns
    (q, visits, deltas)."""
    w = frozenset(w)

    def reward(i):
        return (1 - spec.gamma_acc) * spec.r_n if i in p.accepting else 0.0

    def discount(i):
        return spec.gamma_acc if i in p.accepting else spec.gamma

    def greedy(i):
        best, best_v = None, None
        for a in p.enabled(i):
            v = q[(i, a)]
            if best_v is None or v > best_v:
                best, best_v = a, v
        return best

    rng = np.random.default_rng(schedule.seed)
    transient = [i for i in range(p.n_states) if i not in w]
    q = {}
    for i in transient:
        pinned = i in p.accepting
        for a in p.enabled(i):
            q[(i, a)] = spec.r_n if pinned else 0.0
    starts = [i for i in transient if i not in p.accepting]
    visits = {}
    deltas = []
    c = VISIT_OFFSET
    if starts:
        action_cursor = {i: 0 for i in starts}
        for k in range(schedule.episodes):
            i = starts[k % len(starts)]
            cur = action_cursor[i]
            acts = p.enabled(i)
            forced = acts[cur % len(acts)]
            action_cursor[i] = cur + 1
            for _ in range(schedule.step_cap):
                if forced is not None:
                    a = forced
                    forced = None
                elif rng.random() < EPSILON:
                    acts = p.enabled(i)
                    a = acts[int(rng.integers(len(acts)))]
                else:
                    a = greedy(i)
                j, _tau, _s2 = sample_product_step_reference(p, i, a, rng)
                if j in w:
                    target = 0.0
                else:
                    target = reward(j) + discount(j) \
                        * max(q[(j, b)] for b in p.enabled(j))
                n = visits.get((i, a), 0)
                visits[(i, a)] = n + 1
                alpha = c / (c + n)
                old = q[(i, a)]
                new = (1 - alpha) * old + alpha * target
                q[(i, a)] = new
                deltas.append(abs(new - old))
                if j in w or j in p.accepting:
                    break
                i = j
    return q, visits, deltas


# --- observations and the planner's model from posteriors ---------------------

class ObservationStoreReference:
    """Observation store with one dict of successor counts and one of dwell
    (count, sum) aggregates per model pair, both updated on every append:
    the reference the library's one-dict store must match."""

    def __init__(self):
        self._by_pair = {}            # (s, a) -> {"succ", "dwell"}
        self._n = 0
        self._touched = set()

    def append(self, s, a, s2, tau):
        tau = float(tau)
        if tau < 0:
            raise ValueError(f"negative dwell time {tau}")
        b = self._by_pair.get((s, a))
        if b is None:
            b = self._by_pair[(s, a)] = {"succ": {}, "dwell": {}}
        b["succ"][s2] = b["succ"].get(s2, 0) + 1
        agg = b["dwell"].setdefault(s2, [0, 0.0])
        agg[0] += 1
        agg[1] += tau
        self._n += 1
        self._touched.add((s, a))

    def take_touched(self):
        touched, self._touched = self._touched, set()
        return touched

    def __len__(self):
        return self._n

    def __contains__(self, pair):
        return pair in self._by_pair

    def pairs(self):
        return set(self._by_pair)

    def successor_counts(self, s, a):
        b = self._by_pair.get((s, a))
        return dict(b["succ"]) if b else {}

    def dwell_stats(self, s, a, s2):
        b = self._by_pair.get((s, a))
        if b is None or s2 not in b["dwell"]:
            return 0, 0.0
        n, total = b["dwell"][s2]
        return n, total


def transition_entropy_reference(conc):
    """Differential entropy of Dirichlet(conc) by the SciPy array formula."""
    from scipy.special import gammaln, psi

    conc = np.asarray(conc, dtype=float)
    k, total = len(conc), conc.sum()
    return float(gammaln(conc).sum() - gammaln(total)
                 + (total - k) * psi(total)
                 - ((conc - 1.0) * psi(conc)).sum())


def dwell_entropy_reference(shape, rate):
    """Differential entropy of Gamma(shape, rate) by the SciPy formula."""
    from scipy.special import gammaln, psi

    return float(shape - np.log(rate) + gammaln(shape)
                 + (1.0 - shape) * psi(shape))


def update_posteriors_reference(store, pairs, pool=None,
                                dirichlet_prior=1.0, gamma_prior=(2.0, 1.0)):
    """Conjugate updates, one row per distinct key `pool(pair)` (or per
    pair without `pool`), that copy the key's successor counts and look up
    the dwell aggregates per successor, through the store's public
    queries. Returns (DirichletPosterior, GammaPosterior)."""
    from smdpsynth.bayes import DirichletPosterior, GammaPosterior

    a0, b0 = gamma_prior
    keys, seen = [], set()
    for pair in pairs:
        key = pool(pair) if pool else pair
        if key not in seen:
            seen.add(key)
            keys.append(key)
    dir_table, gamma_table = {}, {}
    for key in keys:
        counts = store.successor_counts(*key)
        cands = sorted(counts)
        conc = np.array([dirichlet_prior + counts[c] for c in cands],
                        dtype=float)
        dir_table[key] = (tuple(cands), conc)
        for s2 in cands:
            n, total = store.dwell_stats(key[0], key[1], s2)
            gamma_table[(key[0], key[1], s2)] = (a0 + n, b0 + total)
    return DirichletPosterior(dir_table), GammaPosterior(gamma_table)


def top_up_observations_reference(p, w_p, store, target, rng):
    """Top-up over the pools (model pairs) of `w_p`: each pool draws
    through its first copy in pair-id order, found by sorting every copy
    by its state and then its action's place among the state's enabled
    actions; it copies a pool's counts to see whether it has data and
    re-reads the store's size before every round-robin draw, drawing with
    `sample_product_step_reference`."""
    reps = {}
    for i, a in sorted(w_p, key=lambda pair: (pair[0], p.enabled(pair[0])
                                              .index(pair[1]))):
        reps.setdefault((p.states[i][0], a), (i, a))
    reps = list(reps.values())
    if not reps:
        return
    for i, a in reps:
        if not store.successor_counts(p.states[i][0], a):
            _, tau, s2 = sample_product_step_reference(p, i, a, rng)
            store.append(p.states[i][0], a, s2, tau)
    k = 0
    while len(store) < target:
        i, a = reps[k % len(reps)]
        _, tau, s2 = sample_product_step_reference(p, i, a, rng)
        store.append(p.states[i][0], a, s2, tau)
        k += 1


def build_risk_model_reference(p, w, w_p, tpost, dpost, functional=None,
                               gamma_r=0.9):
    """The planner's model built one product copy at a time, in pair-id
    order (by state, then the action's place among the state's enabled
    actions). First each pool (model pair), at its first copy: its
    predictive row is read, each candidate is checked to be in the model
    row and the risk of each candidate's dwell is evaluated. Then each
    copy walks its model row in the model's order, lifts every candidate
    with `lift_reference`, keeps those in W and warns (attributed to the
    caller) about renormalized mass; a copy that keeps nothing raises
    EmptyPredictiveRow. RiskModel's own check rejects a risk that is not
    finite and nonnegative: the reference the library's array assembly
    must match bit for bit."""
    import warnings

    from smdpsynth.bayes import (
        MeanPlusSigma, predictive_dwell, predictive_successors,
        predictive_transition, risk_of,
    )
    from smdpsynth.errors import (
        EmptyPredictiveRow, InvalidRiskModel, NoAllowedAction,
    )

    from conftest import model_row, risk_model

    functional = functional or MeanPlusSigma(1.0)
    w = frozenset(w)
    copies = sorted(w_p, key=lambda pair: (pair[0], p.enabled(pair[0])
                                           .index(pair[1])))
    pools, risk_at = {}, {}
    for i, a in copies:
        s = p.states[i][0]
        if (s, a) in pools:
            continue
        cands = predictive_successors(tpost, s, a)
        for s2 in cands:
            if s2 not in model_row(p.m, s, a)[0]:
                raise InvalidRiskModel(
                    f"pair ({i},{a}): candidate successor {s2} is not in "
                    f"the row of model pair ({s},{a})")
        pools[(s, a)] = dict(zip(cands, predictive_transition(tpost, s, a)))
        for s2 in cands:
            risk_at[(s, a, s2)] = risk_of(predictive_dwell(dpost, s, a, s2),
                                          functional)

    trans, risks, escaped = {}, {}, {}
    for i, a in copies:
        s = p.states[i][0]
        succs, probs, lost = [], [], 0.0
        for s2 in model_row(p.m, s, a)[0]:
            if s2 not in pools[(s, a)]:
                continue
            j = lift_reference(p, i, s2)
            if j not in w:
                lost += pools[(s, a)][s2]
            else:
                succs.append(j)
                probs.append(pools[(s, a)][s2])
                risks[(i, a, j)] = risk_at[(s, a, s2)]
        if not succs:
            raise EmptyPredictiveRow(
                f"pair ({i},{a}) has no predictive mass inside the region")
        if lost > 0.0:
            warnings.warn(
                f"pair ({i},{a}): renormalized {lost:.3g} predictive mass "
                "escaping the winning region", stacklevel=2)
            escaped[(i, a)] = lost
        total = sum(probs)
        trans[(i, a)] = tuple(succs), tuple(pr / total for pr in probs)
    allowed = {i for i, _ in trans}
    for i in w:
        if i not in allowed:
            raise NoAllowedAction(f"winning state {i} has no winning pair")
    return risk_model(trans, risks,
                      {i: p.enabled(i) for i in range(p.n_states)},
                      gamma_r=gamma_r, escaped=escaped)


def survival_quantile_reference(samples, q):
    """inf { t : Pr(tau > t) < q } of the empirical distribution of
    `samples`, by one pass over all the samples for each candidate t (0
    and each distinct sample, ascending): the quadratic loop the sorted
    `Empirical.survival_quantile` must match bit for bit."""
    xs = np.asarray(samples)
    for t in [0.0] + sorted(set(samples)):
        if np.mean(xs > t) < q:
            return t
    return float(xs.max())
