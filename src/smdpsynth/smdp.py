"""Finite semi-Markov decision processes: model, simulation, grid builder.

The decision process is time-abstract; dwell times are simulated alongside
transitions and feed only estimation and risk computations downstream.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import ActionNotEnabled, ConfigError, UnknownState


class Exponential:
    """Exponential dwell distribution with the given rate (mean 1/rate)."""

    kind = "exponential"

    def __init__(self, rate):
        rate = float(rate)
        if not rate > 0:
            raise ValueError(f"exponential rate must be positive, got {rate}")
        self.rate = rate

    def mean(self):
        return 1.0 / self.rate

    def std(self):
        return 1.0 / self.rate

    def survival_quantile(self, q):
        """inf { t : Pr(tau > t) < q } for q in (0, 1]."""
        return -np.log(q) / self.rate

    def sample(self, rng):
        return float(rng.exponential(1.0 / self.rate))

    def __repr__(self):
        return f"Exponential({self.rate})"

    def __eq__(self, other):
        return isinstance(other, Exponential) and self.rate == other.rate


class Empirical:
    """Dwell distribution that resamples uniformly from recorded durations."""

    kind = "empirical"

    def __init__(self, samples):
        samples = tuple(float(x) for x in samples)
        if not samples:
            raise ValueError("empirical dwell needs at least one sample")
        if not all(map(math.isfinite, samples)):
            raise ValueError("empirical dwell samples must be finite")
        if any(x < 0 for x in samples):
            raise ValueError("empirical dwell samples must be nonnegative")
        self.samples = samples

    def mean(self):
        return float(np.mean(self.samples))

    def std(self):
        return float(np.std(self.samples))

    def survival_quantile(self, q):
        """inf { t : Pr(tau > t) < q } for q in (0, 1]: the least of 0 and
        the samples at which the share of larger samples drops below q.
        One sort, then one `searchsorted` counts the larger samples at
        every candidate; each share is the count over n, as a mean of
        the comparisons gives it."""
        xs = np.sort(self.samples)
        ts = np.concatenate(([0.0], xs))
        below = np.flatnonzero(
            (len(xs) - np.searchsorted(xs, ts, side="right")) / len(xs) < q)
        return float(ts[below[0]] if below.size else xs[-1])

    def sample(self, rng):
        return self.samples[int(rng.integers(len(self.samples)))]

    def __repr__(self):
        return f"Empirical({len(self.samples)} samples)"


class Smdp:
    """Finite SMDP (S, A, T, D, s^I, AP, L) over dense integer states.

    `trans[(s, a)]` lists the positive-probability successors with their
    probabilities; actions absent from a state's rows are disabled there.
    Labels are bitmasks over `ap` (bit i set = atom ap[i] holds), matching
    the automaton letter encoding.
    """

    def __init__(self, n_states, actions, trans, dwell, initial, ap, labels,
                 names=None):
        self.n_states = int(n_states)
        self.actions = tuple(actions)
        self.ap = tuple(ap)
        self.initial = int(initial)
        self.names = tuple(names) if names is not None else \
            tuple(str(s) for s in range(self.n_states))
        self.labels = tuple(int(x) for x in labels)

        if not 0 <= self.initial < self.n_states:
            raise ValueError("initial state out of range")
        if len(self.labels) != self.n_states or len(self.names) != self.n_states:
            raise ValueError("labels/names must cover every state")
        nl = 2 ** len(self.ap)
        if any(not 0 <= m < nl for m in self.labels):
            raise ValueError("label bitmask out of range for ap")

        self._rows = {}
        for (s, a), pairs in trans.items():
            s = int(s)
            if not 0 <= s < self.n_states:
                raise ValueError(f"transition source {s} out of range")
            if a not in self.actions:
                raise ValueError(f"unknown action {a!r}")
            succs = tuple(int(s2) for s2, _ in pairs)
            probs = tuple(float(p) for _, p in pairs)
            if any(not 0 <= s2 < self.n_states for s2 in succs):
                raise ValueError(f"transition target out of range at ({s},{a})")
            if any(p <= 0 for p in probs):
                raise ValueError(f"nonpositive probability at ({s},{a})")
            if len(set(succs)) != len(succs):
                raise ValueError(f"duplicate successor at ({s},{a})")
            if abs(sum(probs) - 1.0) > 1e-9:
                raise ValueError(f"row ({s},{a}) sums to {sum(probs)}, not 1")
            self._rows[(s, a)] = (succs, probs)

        self._enabled = tuple(
            tuple(a for a in self.actions if (s, a) in self._rows)
            for s in range(self.n_states))
        for s in range(self.n_states):
            if not self._enabled[s]:
                raise ValueError(f"state {s} has no enabled action")

        self.dwell = {}
        for (s, a), (succs, _) in self._rows.items():
            for s2 in succs:
                d = dwell.get((s, a, s2))
                if d is None:
                    raise ValueError(f"missing dwell for ({s},{a},{s2})")
                self.dwell[(s, a, s2)] = d

        # one draw row per pair: cumulative probabilities (the np.cumsum
        # values, as Python floats), successors and the bound `sample`
        # methods of their dwell distributions
        self._draw = {
            (s, a): (np.cumsum(probs).tolist(), succs,
                     tuple(self.dwell[(s, a, s2)].sample for s2 in succs))
            for (s, a), (succs, probs) in self._rows.items()}

    def check_state(self, s):
        if not 0 <= s < self.n_states:
            raise UnknownState(f"state {s} not in 0..{self.n_states - 1}")

    def letter_of(self, s):
        self.check_state(s)
        return self.labels[s]

    def labels_of(self, s):
        mask = self.letter_of(s)
        return tuple(atom for i, atom in enumerate(self.ap) if mask >> i & 1)


def _draw(cum, samplers, rng):
    """Draw one transition from a draw row: returns (k, tau), k being the
    position of the successor in the row.

    One `rng.random()` picks the position by inverse CDF (the first
    cumulative probability above it, clamped to the last position), then
    the dwell sampler of that position draws tau.
    """
    k = bisect_right(cum, rng.random())
    if k == len(cum):
        k -= 1
    return k, samplers[k](rng)


def sample_step(m: Smdp, s, a, rng):
    """Draw s' ~ T(.|s,a), then tau ~ D(.|s,a,s'); deterministic under a seed."""
    row = m._draw.get((s, a))
    if row is None:
        m.check_state(s)
        raise ActionNotEnabled(f"action {a!r} not enabled in state {s}")
    cum, succs, samplers = row
    k, tau = _draw(cum, samplers, rng)
    return succs[k], tau


GRID_ACTIONS = ("UL", "UR", "DL", "DR")

_COMPONENTS = {
    "UL": ((0, 1), (-1, 0)),
    "UR": ((0, 1), (1, 0)),
    "DL": ((0, -1), (-1, 0)),
    "DR": ((0, -1), (1, 0)),
}


@dataclass
class GridConfig:
    """Running-example grid: 1-indexed (x, y) cells, x rightward, y upward."""

    width: int = 5
    height: int = 5
    initial: tuple = (5, 5)
    labels: dict = field(default_factory=lambda: {
        "a": [(1, 3)], "b": [(5, 3)], "c": [(3, 4)]})
    dwell: object = "default"       # "default" | "paper" | {(x, y): rate}


def _grid_rate(cfg, x, y):
    if cfg.dwell == "default":
        cx, cy = (cfg.width + 1) / 2, (cfg.height + 1) / 2
        return 10.0 / (1.0 + max(abs(x - cx), abs(y - cy)))
    if cfg.dwell == "paper":
        return max(10.0 * max(x - 3, y - 3), 1e-3)
    try:
        return float(cfg.dwell[(x, y)])
    except KeyError:
        raise ConfigError(f"dwell table missing cell ({x},{y})") from None


def build_gridworld(cfg: GridConfig | None = None) -> Smdp:
    """Grid SMDP with diagonal composite actions.

    Each action tries its two component directions with probability 0.5
    each; a wall-blocked component redirects to the movable one w.p. 1, and
    with both blocked the state self-loops. Dwell is exponential with the
    configured per-source-cell rate.
    """
    cfg = cfg or GridConfig()
    w, h = int(cfg.width), int(cfg.height)
    if w < 1 or h < 1:
        raise ConfigError("grid needs positive width and height")

    def sid(x, y):
        return (y - 1) * w + (x - 1)

    def in_range(x, y):
        return 1 <= x <= w and 1 <= y <= h

    ap = tuple(sorted(cfg.labels))
    label_masks = [0] * (w * h)
    seen = {}
    for atom, cells in cfg.labels.items():
        for (x, y) in cells:
            if not in_range(x, y):
                raise ConfigError(f"label {atom!r} cell ({x},{y}) out of range")
            if (x, y) in seen and seen[(x, y)] != atom:
                raise ConfigError(f"cell ({x},{y}) labeled both "
                                  f"{seen[(x, y)]!r} and {atom!r}")
            seen[(x, y)] = atom
            label_masks[sid(x, y)] |= 1 << ap.index(atom)

    if not in_range(*cfg.initial):
        raise ConfigError(f"initial cell {cfg.initial} out of range")

    trans = {}
    dwell = {}
    for y in range(1, h + 1):
        for x in range(1, w + 1):
            s = sid(x, y)
            rate = _grid_rate(cfg, x, y)
            for act in GRID_ACTIONS:
                targets = []
                for dx, dy in _COMPONENTS[act]:
                    nx, ny = x + dx, y + dy
                    if in_range(nx, ny):
                        targets.append(sid(nx, ny))
                if not targets:
                    row = [(s, 1.0)]
                elif len(targets) == 1:
                    row = [(targets[0], 1.0)]
                else:
                    row = [(targets[0], 0.5), (targets[1], 0.5)]
                trans[(s, act)] = row
                for s2, _ in row:
                    dwell[(s, act, s2)] = Exponential(rate)

    names = [f"({x},{y})" for y in range(1, h + 1) for x in range(1, w + 1)]
    return Smdp(w * h, GRID_ACTIONS, trans, dwell, sid(*cfg.initial), ap,
                label_masks, names=names)


def load_scenario(doc: dict) -> Smdp:
    """Build a model from a scenario document (parsed JSON).

    Either a {"grid": {...}, "dwell": ...} section or explicit
    {"states", "actions", "transitions", "dwell", "initial", "labels"}
    tables for a generic SMDP. A malformed document raises ConfigError
    naming the field at fault.
    """
    if "grid" in doc:
        g = doc["grid"]
        for key in ("width", "height"):
            if key not in g:
                raise ConfigError(f"grid scenario missing {key!r}")
        dwell = doc.get("dwell", "default")
        if isinstance(dwell, dict):
            mode = dwell.get("map", "default")
            if isinstance(mode, dict):
                mode = {_parse_cell(k): v for k, v in mode.items()}
            dwell = mode
        labels = {atom: [tuple(c) for c in cells]
                  for atom, cells in g.get("labels", {}).items()}
        cfg = GridConfig(width=g["width"], height=g["height"],
                         initial=tuple(g.get("initial", (g["width"], g["height"]))),
                         labels=labels or GridConfig().labels,
                         dwell=dwell)
        return build_gridworld(cfg)

    try:
        state_names = list(doc["states"])
        actions = list(doc["actions"])
        initial = doc["initial"]
        trans_doc = doc["transitions"]
        dwell_doc = doc["dwell"]
    except KeyError as e:
        raise ConfigError(f"scenario missing section {e.args[0]!r}") from None
    index = {name: i for i, name in enumerate(state_names)}

    def state(name, where):
        if name not in index:
            raise ConfigError(f"{where} names unknown state {name!r}")
        return index[name]

    labels_doc = doc.get("labels", {})
    ap = tuple(sorted({atom for atoms in labels_doc.values() for atom in atoms}))
    label_masks = [0] * len(state_names)
    for name, atoms in labels_doc.items():
        for atom in atoms:
            label_masks[state(name, "labels")] |= 1 << ap.index(atom)

    trans = {}
    for sname, by_action in trans_doc.items():
        for a, row in by_action.items():
            trans[(state(sname, "transitions"), a)] = [
                (state(t, f"transitions of {sname}/{a}"), p)
                for t, p in row.items()]
    dwell = {}
    for key, spec in dwell_doc.items():
        parts = key.split("/")
        if len(parts) != 3:
            raise ConfigError(f"dwell key {key!r} is not 'state/action/state'")
        sname, a, tname = parts
        dwell[(state(sname, f"dwell {key!r}"), a,
               state(tname, f"dwell {key!r}"))] = _parse_dwell(key, spec)

    initial = state(initial, "initial")
    try:
        return Smdp(len(state_names), actions, trans, dwell, initial,
                    ap, label_masks, names=state_names)
    except ValueError as e:
        raise ConfigError(str(e)) from None


def _parse_cell(text):
    x, y = text.split(",")
    return int(x), int(y)


def _parse_dwell(key, spec):
    kind = spec.get("kind")
    try:
        if kind == "exponential":
            return Exponential(spec["rate"])
        if kind == "empirical":
            return Empirical(spec["samples"])
    except KeyError as e:
        raise ConfigError(f"dwell {key!r} needs {e.args[0]!r}") from None
    except ValueError as e:
        raise ConfigError(f"dwell {key!r}: {e}") from None
    raise ConfigError(f"unknown dwell kind {kind!r}")
