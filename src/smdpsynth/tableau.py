"""Tableau translation from LTL to a universal co-Buchi automaton.

The route: negate the formula, convert to negation normal form, run the
classic node-splitting tableau expansion to get a generalized Buchi automaton
for the negation, degeneralize with the layered-counter construction, and
return the resulting nondeterministic Buchi automaton reinterpreted under the
universal co-Buchi condition. A word then satisfies the original formula
exactly when no run of the returned automaton visits its accepting set
infinitely often.

State numbering is deterministic (no dependence on hash ordering), so the
same formula always yields the identical automaton.
"""

from __future__ import annotations

from .errors import AlphabetMismatch, CapacityExceeded
from . import ltl as L


class _Node:
    __slots__ = ("incoming", "new", "old", "nxt")

    def __init__(self, incoming, new, old, nxt):
        self.incoming = incoming    # set of completed node ids (-1 = initial)
        self.new = new              # list, formulas awaiting decomposition
        self.old = old              # set, processed formulas
        self.nxt = nxt              # set, obligations for the next step

    def clone(self):
        return _Node(set(self.incoming), list(self.new), set(self.old), set(self.nxt))

    def push(self, g):
        if g not in self.old and g not in self.new:
            self.new.append(g)


_INIT = -1


def _expand(phi, budget):
    """Tableau expansion; returns (olds, nxts, incoming) per completed node."""
    completed = {}          # (frozenset old, frozenset nxt) -> node id
    olds, nxts, incoming = [], [], []
    work = [_Node({_INIT}, [phi], set(), set())]
    while work:
        node = work.pop()
        if not node.new:
            key = (frozenset(node.old), frozenset(node.nxt))
            nid = completed.get(key)
            if nid is not None:
                incoming[nid] |= node.incoming
                continue
            nid = len(olds)
            if nid >= budget:
                raise CapacityExceeded(f"tableau exceeded {budget} nodes")
            completed[key] = nid
            olds.append(node.old)
            nxts.append(node.nxt)
            incoming.append(set(node.incoming))
            work.append(_Node({nid}, sorted(node.nxt, key=str), set(), set()))
            continue
        eta = node.new.pop()
        if eta in node.old:
            work.append(node)
            continue
        k = eta.kind
        if k == L.KIND_TRUE:
            work.append(node)
        elif k == L.KIND_FALSE:
            continue    # contradiction, drop
        elif k == L.KIND_ATOM or k == L.KIND_NOT:
            dual = eta.children[0] if k == L.KIND_NOT else L.lnot(eta)
            if dual in node.old:
                continue
            node.old.add(eta)
            work.append(node)
        elif k == L.KIND_AND:
            a, b = eta.children
            node.old.add(eta)
            node.push(a)
            node.push(b)
            work.append(node)
        elif k == L.KIND_NEXT:
            node.old.add(eta)
            node.nxt.add(eta.children[0])
            work.append(node)
        elif k in (L.KIND_OR, L.KIND_UNTIL, L.KIND_RELEASE):
            a, b = eta.children
            left = node.clone()
            right = node
            left.old.add(eta)
            right.old.add(eta)
            if k == L.KIND_OR:
                left.push(a)
                right.push(b)
            elif k == L.KIND_UNTIL:
                # a U b == b | (a & X(a U b))
                left.push(a)
                left.nxt.add(eta)
                right.push(b)
            else:
                # a R b == (b & a) | (b & X(a R b))
                left.push(b)
                left.nxt.add(eta)
                right.push(a)
                right.push(b)
            work.append(left)
            work.append(right)
        else:
            raise ValueError(f"non-NNF formula kind {k!r} in tableau")
    return olds, nxts, incoming


def ltl_to_cba(phi: L.Formula, ap=None, state_budget: int = 10 ** 6):
    """Translate a formula into a universal co-Buchi automaton.

    `ap` may extend the alphabet beyond the formula's own atoms (the model's
    atom set); formula atoms must be contained in it. The automaton accepts
    (under the universal co-Buchi reading) exactly the words satisfying phi.

    Top-level disjuncts of the negated formula are translated separately and
    unioned, which keeps the degeneralization layer count per component low;
    language-preserving cleanups then restrict accepting states to those on
    cycles, drop states that cannot reach an accepting cycle, and merge
    states with identical behavior signatures.
    """
    from .automata import OmegaAutomaton

    if ap is None:
        ap = L.atoms_of(phi)
    ap = tuple(ap)
    missing = set(L.atoms_of(phi)) - set(ap)
    if missing:
        raise AlphabetMismatch(
            f"formula atoms {sorted(missing)} not in ap {ap}")

    neg = L.to_nnf(L.lnot(phi))
    parts = _flatten_or(neg)
    covers = [_future_literal_letters(part, ap) for part in parts]
    covered = frozenset().union(*[c for c in covers if c is not None]) \
        if any(c is not None for c in covers) else frozenset()
    comps = []
    for part, cov in zip(parts, covers):
        comp = _translate_component(part, ap, state_budget)
        if cov is None and covered:
            # Any word containing a covered letter is accepted by the intact
            # F-literal component, so other components may drop those letters.
            comp = _drop_letters(comp, covered)
        comps.append(comp)
    return _simplify(_union(comps, ap), ap)


def _future_literal_letters(part, ap):
    """Letters whose occurrence anywhere already satisfies `part`.

    Returns the satisfying letter set when `part` is of the shape
    true U (conjunction of literals), else None.
    """
    if part.kind != L.KIND_UNTIL or part.children[0].kind != L.KIND_TRUE:
        return None
    pos = set()
    neg = set()
    stack = [part.children[1]]
    while stack:
        g = stack.pop()
        if g.kind == L.KIND_AND:
            stack.extend(g.children)
        elif g.kind == L.KIND_ATOM:
            pos.add(g.name)
        elif g.kind == L.KIND_NOT and g.children[0].kind == L.KIND_ATOM:
            neg.add(g.children[0].name)
        elif g.kind != L.KIND_TRUE:
            return None
    if pos & neg:
        return frozenset()
    index = {a: i for i, a in enumerate(ap)}
    posm = sum(1 << index[a] for a in pos)
    negm = sum(1 << index[a] for a in neg)
    return frozenset(s for s in range(2 ** len(ap))
                     if s & posm == posm and s & negm == 0)


def _drop_letters(aut, letters):
    from .automata import OmegaAutomaton

    rows = [[() if letter in letters else row[letter]
             for letter in range(aut.n_letters)] for row in aut.delta]
    return OmegaAutomaton(aut.ap, rows, aut.initial, aut.accepting, name=aut.name)


def _flatten_or(f):
    out = []
    stack = [f]
    while stack:
        g = stack.pop()
        if g.kind == L.KIND_OR:
            stack.extend(reversed(g.children))
        else:
            out.append(g)
    return out


def _translate_component(neg: L.Formula, ap, state_budget):
    """Tableau + degeneralization for one disjunct of the negated formula."""
    from .automata import OmegaAutomaton

    olds, nxts, incoming = _expand(neg, state_budget)
    n_nodes = len(olds)
    untils = L.subformulas_of_kind(neg, L.KIND_UNTIL)

    nl = 2 ** len(ap)
    index = {a: i for i, a in enumerate(ap)}

    # letters compatible with a node's literal constraints
    letters_of = []
    for old in olds:
        pos = 0
        negm = 0
        for g in old:
            if g.kind == L.KIND_ATOM:
                pos |= 1 << index[g.name]
            elif g.kind == L.KIND_NOT:
                negm |= 1 << index[g.children[0].name]
        letters_of.append([s for s in range(nl) if s & pos == pos and s & negm == 0])

    # generalized Buchi acceptance: one set per until subformula; a constant
    # true right-hand side is fulfilled at every node (it is never recorded
    # in `old`, so the membership test alone would miss it)
    fsets = []
    for u in untils:
        rhs = u.children[1]
        if rhs.kind == L.KIND_TRUE:
            fsets.append(frozenset(range(n_nodes)))
        else:
            fsets.append(frozenset(q for q in range(n_nodes)
                                   if u not in olds[q] or rhs in olds[q]))
    k = len(fsets)

    # Degeneralize on the fly: automaton states are (tableau node or initial
    # marker, layer); the layer advances when the source node belongs to its
    # layer's acceptance set, and layer-0 occurrences of F_0 nodes accept.
    def advance(q, layer):
        if k == 0:
            return layer
        return (layer + 1) % k if q != _INIT and q in fsets[layer] else layer

    succ_nodes = [[] for _ in range(n_nodes)]   # by source completed node
    init_nodes = []
    for q in range(n_nodes):
        for src in sorted(incoming[q]):
            if src == _INIT:
                init_nodes.append(q)
            else:
                succ_nodes[src].append(q)

    state_ids = {}
    rows = []
    order = []

    def get_state(q, layer):
        key = (q, layer)
        sid = state_ids.get(key)
        if sid is None:
            sid = len(order)
            if sid >= state_budget:
                raise CapacityExceeded(f"automaton exceeded {state_budget} states")
            state_ids[key] = sid
            order.append(key)
            rows.append([set() for _ in range(nl)])
        return sid

    start = get_state(_INIT, 0)
    qi = 0
    while qi < len(order):
        q, layer = order[qi]
        sid = state_ids[(q, layer)]
        qi += 1
        nlayer = advance(q, layer)
        targets = init_nodes if q == _INIT else succ_nodes[q]
        for q2 in targets:
            for letter in letters_of[q2]:
                rows[sid][letter].add(get_state(q2, nlayer))

    if k == 0:
        accepting = set(range(len(order)))
    else:
        accepting = {sid for (q, layer), sid in state_ids.items()
                     if layer == 0 and q != _INIT and q in fsets[0]}
    return OmegaAutomaton(ap, rows, start, accepting, name=str(neg))


def _union(comps, ap):
    """Side-by-side union with a fresh initial state.

    Runs commit to one component on their first transition, so keeping each
    component's accepting set preserves the union of the languages.
    """
    from .automata import OmegaAutomaton

    nl = 2 ** len(ap)
    rows = [[set() for _ in range(nl)]]
    accepting = set()
    for comp in comps:
        base = len(rows)
        for row in comp.delta:
            rows.append([{base + y for y in succs} for succs in row])
        for letter in range(nl):
            rows[0][letter] |= {base + y for y in comp.delta[comp.initial][letter]}
        accepting |= {base + x for x in comp.accepting}
    name = comps[0].name if len(comps) == 1 else " | ".join(c.name for c in comps)
    return OmegaAutomaton(ap, rows, 0, accepting, name=name)


def _simplify(aut, ap):
    """Language-preserving cleanup of a Buchi automaton read as co-Buchi.

    Three passes: (1) keep only accepting states that lie on a cycle (others
    are visited finitely often by every run, and any visit count past the
    bound is reached at a cycle state anyway); (2) drop states that cannot
    reach the trimmed accepting set, keeping the initial state; (3) merge
    states with identical (acceptance, successor row) signatures until a
    fixpoint, then renumber in breadth-first order.
    """
    from .automata import OmegaAutomaton, is_cyclic, sccs

    n = aut.n_states
    nl = aut.n_letters

    succs_all = [sorted({y for succs in aut.delta[x] for y in succs}) for x in range(n)]

    # one walk of the reachable graph: Tarjan asks for the successors of
    # every node it reaches, so that request also collects `reachable`
    reachable = set()

    def succs_of(x):
        reachable.add(x)
        return succs_all[x]

    on_cycle = {x for comp in sccs([aut.initial], succs_of)
                if is_cyclic(comp, succs_of) for x in comp}
    acc = aut.accepting & on_cycle

    # backward closure of acc over the reachable graph
    preds = [[] for _ in range(n)]
    for x in sorted(reachable):
        for y in succs_all[x]:
            if y in reachable:
                preds[y].append(x)
    can_reach = set(acc)
    frontier = sorted(acc)
    while frontier:
        y = frontier.pop()
        for x in preds[y]:
            if x not in can_reach:
                can_reach.add(x)
                frontier.append(x)

    keep = (reachable & can_reach) | {aut.initial}
    rows = [[tuple(sorted(y for y in succs if y in keep)) if x in keep else ()
             for succs in aut.delta[x]] for x in range(n)]

    # merge identical-signature states to a fixpoint
    rep = {x: x for x in sorted(keep)}
    while True:
        new_rep = {}
        sig_to_rep = {}
        for x in sorted(keep):
            sig = (x in acc,
                   tuple(tuple(sorted({rep[y] for y in succs})) for succs in rows[x]))
            if sig not in sig_to_rep:
                sig_to_rep[sig] = x
            new_rep[x] = sig_to_rep[sig]
        if new_rep == rep:
            break
        rep = new_rep

    # renumber representatives breadth-first from the initial state
    init_rep = rep[aut.initial]
    new_ids = {init_rep: 0}
    order = [init_rep]
    qi = 0
    while qi < len(order):
        x = order[qi]
        qi += 1
        for succs in rows[x]:
            for y in succs:
                ry = rep[y]
                if ry not in new_ids:
                    new_ids[ry] = len(order)
                    order.append(ry)

    new_rows = [[sorted({new_ids[rep[y]] for y in rows[x][letter]})
                 for letter in range(nl)] for x in order]
    new_acc = {new_ids[rep[x]] for x in keep if x in acc and rep[x] in new_ids}
    return OmegaAutomaton(ap, new_rows, 0, new_acc, name=aut.name)
