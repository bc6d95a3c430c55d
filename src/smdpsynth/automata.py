"""Omega-automata over letters drawn from 2^AP, read as universal co-Buchi.

A word w = s0 s1 ... is accepted by automaton A under

  * the co-Buchi condition: every infinite run of A on w visits each
    accepting state finitely often;
  * the K-co-Buchi condition: no run of A on w ever accumulates more than
    K visits to accepting states (counted over run prefixes, the initial
    state included).

Words handed to the checkers are lassos stem . cycle^omega. The K-bounded
condition admits an equivalent deterministic automaton via counting
functions; see determinize_kcba.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import CapacityExceeded, EmptyCycle


class OmegaAutomaton:
    """Nondeterministic automaton with one accepting state set.

    Letters are bitmasks over `ap` (bit i set = atom ap[i] holds), so the
    alphabet has 2**len(ap) letters. `delta[x][letter]` is a sorted tuple of
    successor ids; missing successors are allowed (runs may die).
    """

    def __init__(self, ap, delta, initial, accepting, name=""):
        self.ap = tuple(ap)
        self.delta = [tuple(tuple(sorted(succs)) for succs in row) for row in delta]
        self.initial = int(initial)
        self.accepting = frozenset(int(x) for x in accepting)
        self.name = name
        n = len(self.delta)
        nl = 2 ** len(self.ap)
        if not 0 <= self.initial < n:
            raise ValueError("initial state out of range")
        for x, row in enumerate(self.delta):
            if len(row) != nl:
                raise ValueError(f"state {x}: expected {nl} letter entries, got {len(row)}")
            for succs in row:
                for y in succs:
                    if not 0 <= y < n:
                        raise ValueError(f"transition target {y} out of range")
        if not self.accepting <= set(range(n)):
            raise ValueError("accepting set out of range")

    @property
    def n_states(self):
        return len(self.delta)

    @property
    def n_letters(self):
        return 2 ** len(self.ap)

    @property
    def is_deterministic(self):
        return all(len(succs) <= 1 for row in self.delta for succs in row)

    @property
    def is_complete(self):
        return all(len(succs) >= 1 for row in self.delta for succs in row)

    def letter_atoms(self, letter):
        """Sorted atom names carried by a letter bitmask."""
        return [a for i, a in enumerate(self.ap) if letter >> i & 1]

    def letter_from_atoms(self, names):
        mask = 0
        index = {a: i for i, a in enumerate(self.ap)}
        for nm in names:
            mask |= 1 << index[nm]
        return mask

    def to_json_dict(self):
        """Stable serialization: states, alphabet, transitions, initial, accepting."""
        transitions = []
        for x, row in enumerate(self.delta):
            for letter in range(self.n_letters):
                for y in row[letter]:
                    transitions.append([x, self.letter_atoms(letter), y])
        return {
            "states": list(range(self.n_states)),
            "alphabet": [self.letter_atoms(let) for let in range(self.n_letters)],
            "ap": list(self.ap),
            "transitions": transitions,
            "initial": self.initial,
            "accepting": sorted(self.accepting),
        }

    @classmethod
    def from_json_dict(cls, d):
        ap = tuple(d["ap"])
        n = len(d["states"])
        nl = 2 ** len(ap)
        index = {a: i for i, a in enumerate(ap)}
        delta = [[set() for _ in range(nl)] for _ in range(n)]
        for x, atoms, y in d["transitions"]:
            mask = 0
            for nm in atoms:
                mask |= 1 << index[nm]
            delta[x][mask].add(y)
        return cls(ap, delta, d["initial"], d["accepting"])


def _check_lasso(aut, stem, cycle):
    if len(cycle) == 0:
        raise EmptyCycle("cycle part of a lasso must be nonempty")
    nl = aut.n_letters
    for s in itertools.chain(stem, cycle):
        if not 0 <= s < nl:
            raise ValueError(f"letter {s} outside alphabet of size {nl}")


def sccs(roots, succs):
    """Strongly connected components, sinks first, lazily.

    Iterative Tarjan over the graph reachable from `roots`, where `succs`
    maps a node to its successors. Each component is yielded, as a list of
    nodes, once it is complete; every edge leaving it points into a
    component yielded before it. Callers may stop early.
    """
    index = {}
    low = {}
    stack = []
    on_stack = set()
    for root in roots:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
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
                    yield comp


def is_cyclic(comp, succs):
    """Whether a component holds a cycle: more than one node, or a
    self-loop."""
    return len(comp) > 1 or comp[0] in succs(comp[0])


def lasso_accepted_kcba(aut: OmegaAutomaton, K: int, stem, cycle) -> bool:
    """K-co-Buchi acceptance of stem.cycle^omega.

    Explores run prefixes with a per-run visit counter saturating at K+1,
    over (state, position-in-lasso, count) nodes; a prefix reaching count
    K+1 rejects. Loops through accepting states pump the counter, so the
    finite exploration is exact.
    """
    _check_lasso(aut, stem, cycle)
    if K < 0:
        raise ValueError("K must be >= 0")
    word = list(stem) + list(cycle)
    L = len(word)
    wrap = len(stem)
    delta = aut.delta
    acc = aut.accepting
    cap = K + 1

    c0 = 1 if aut.initial in acc else 0
    if c0 > K:
        return False
    start = (aut.initial * L) * (cap + 1) + c0
    seen = {start}
    stack = [start]
    while stack:
        node = stack.pop()
        xp, c = divmod(node, cap + 1)
        x, pos = divmod(xp, L)
        npos = pos + 1 if pos + 1 < L else wrap
        for y in delta[x][word[pos]]:
            cy = c + 1 if y in acc else c
            if cy > cap:
                cy = cap
            if cy == cap:
                return False
            nxt = (y * L + npos) * (cap + 1) + cy
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return True


@dataclass
class Dkcba:
    """Deterministic K-counting automaton.

    States are interned counting functions X -> {-1, ..., K+1} in BFS
    discovery order; all counting functions with some entry K+1 are collapsed
    into one absorbing sink (`sink`, None when unreachable). `profiles[i]` is
    the counting function of state i as a tuple (None for the sink).
    """

    ap: tuple
    bound: int
    delta: list            # delta[state][letter] -> state id
    initial: int
    sink: int | None
    profiles: list

    @property
    def n_states(self):
        return len(self.delta)

    @property
    def n_letters(self):
        return 2 ** len(self.ap)

    @property
    def accepting(self):
        return frozenset() if self.sink is None else frozenset([self.sink])

    def step(self, state, letter):
        return self.delta[state][letter]

    def to_omega_automaton(self):
        rows = [[(y,) for y in row] for row in self.delta]
        return OmegaAutomaton(self.ap, rows, self.initial, self.accepting)


def determinize_kcba(aut: OmegaAutomaton, K: int, state_budget: int = 10 ** 6) -> Dkcba:
    """Counting-function determinization of a co-Buchi automaton at bound K.

    F(x) tracks the largest number of accepting visits accumulated by any run
    prefix ending in x (-1 = no such prefix), saturating at K+1. Initially
    F(x_init) counts the initial state's own accepting visit; the successor of
    F under letter s maps x' to max over transitions (x, s, x') with
    F(x) != -1 of min(K+1, F(x) + [x' accepting]), with max over the empty
    set = -1. Any F with an entry above K is accepting and is collapsed into
    a single complete sink.
    """
    if K < 0:
        raise ValueError("K must be >= 0")
    n = aut.n_states
    nl = aut.n_letters
    acc = [1 if x in aut.accepting else 0 for x in range(n)]
    cap = K + 1

    # per-letter reversed transitions: into[letter][x'] = list of sources x
    into = [[[] for _ in range(n)] for _ in range(nl)]
    for x in range(n):
        for letter in range(nl):
            for y in aut.delta[x][letter]:
                into[letter][y].append(x)

    f_init = tuple((acc[x] if x == aut.initial else -1) for x in range(n))

    profiles = []
    delta = []
    intern = {}
    sink = None

    def alloc_sink():
        nonlocal sink
        if sink is None:
            sink = len(profiles)
            profiles.append(None)
            delta.append(None)  # filled after BFS
        return sink

    if max(f_init) > K:
        alloc_sink()
        delta[sink] = [sink] * nl
        return Dkcba(aut.ap, K, delta, sink, sink, profiles)

    intern[f_init] = 0
    profiles.append(f_init)
    delta.append([None] * nl)
    queue = [0]
    qi = 0
    while qi < len(queue):
        fid = queue[qi]
        qi += 1
        prof = profiles[fid]
        for letter in range(nl):
            nxt = [-1] * n
            for y in range(n):
                best = -1
                ay = acc[y]
                for x in into[letter][y]:
                    c = prof[x]
                    if c < 0:
                        continue
                    c = c + ay
                    if c > cap:
                        c = cap
                    if c > best:
                        best = c
                nxt[y] = best
            if max(nxt) > K:
                delta[fid][letter] = alloc_sink()
                continue
            key = tuple(nxt)
            nid = intern.get(key)
            if nid is None:
                nid = len(profiles)
                if nid >= state_budget:
                    raise CapacityExceeded(
                        f"counting-function automaton exceeded {state_budget} states")
                intern[key] = nid
                profiles.append(key)
                delta.append([None] * nl)
                queue.append(nid)
            delta[fid][letter] = nid
    if sink is not None:
        delta[sink] = [sink] * nl
    return Dkcba(aut.ap, K, delta, 0, sink, profiles)
