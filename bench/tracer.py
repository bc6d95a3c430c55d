"""In-memory span recorder for the traced benchmark run.

The traced run replaces the module attributes through which the pipeline
calls each layer (for example `smdpsynth.winning.update_posteriors`) with
timing wrappers. Every wrapped call records one span: layer, start, end,
parent span and the scope (one set-up or one operation) it ran in. Work
counts read off return values are added to the same scope. Spans stay in
flat arrays while the run lasts and are written out once at the end.

A layer's self time is its span's duration minus the durations of its
child spans.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _n(x):
    return x.n_states


def _pairs_arg(args, kwargs):
    return kwargs["pairs"] if "pairs" in kwargs else args[1]


def _learner_counts(res, args, kwargs):
    out = {"winning.episodes": res.episodes,
           "winning.steps": sum(row["steps"] for row in res.progress),
           "winning.observations": len(res.store),
           "winning.converged": int(res.converged),
           "winning.w_p_final": len(res.w_p)}
    exact = next((row["episode"] for row in res.progress
                  if row.get("ind") == 1.0), None)
    if exact is not None:
        out["winning.episodes_to_exact"] = exact
    return out


# (module, attribute, layer, counter). A counter maps (result, args, kwargs)
# to the work counts the call adds to its scope. The experiment module's
# names are the ones `build_pipeline`, `oracle_reference`, `_run_rep` and
# `run_experiment` resolve at call time; the benchmark calls the layers
# through the same names.
TARGETS = (
    ("smdpsynth.experiment", "run_experiment", "experiment.run", None),
    ("smdpsynth.experiment", "_run_rep", "experiment.rep", None),
    ("smdpsynth.experiment", "build_pipeline", "experiment.build_pipeline",
     None),
    ("smdpsynth.experiment", "ltl_to_cba", "tableau.ltl_to_cba",
     lambda r, a, k: {"tableau.cba_states": _n(r)}),
    ("smdpsynth.experiment", "determinize_kcba", "automata.determinize",
     lambda r, a, k: {"automata.dkcba_states": _n(r)}),
    ("smdpsynth.experiment", "build_product", "product.build",
     lambda r, a, k: {"product.states": _n(r),
                      "product.pairs": sum(len(r.enabled(i))
                                           for i in range(r.n_states))}),
    ("smdpsynth.experiment", "oracle_reference", "experiment.oracle", None),
    ("smdpsynth.experiment", "exact_winning_region", "product.exact_winning",
     None),
    ("smdpsynth.experiment", "exact_max_reach_probability",
     "product.max_reach", None),
    ("smdpsynth.experiment", "policy_reach_probability",
     "product.policy_reach", None),
    ("smdpsynth.experiment", "run_algorithm1", "winning", _learner_counts),
    ("smdpsynth.winning", "update_posteriors", "bayes.refresh",
     lambda r, a, k: {"bayes.pairs_folded": len(_pairs_arg(a, k)),
                      "bayes.rows_built": len(r[0].pairs())}),
    ("smdpsynth.experiment", "update_posteriors", "bayes.refresh",
     lambda r, a, k: {"bayes.pairs_folded": len(_pairs_arg(a, k)),
                      "bayes.rows_built": len(r[0].pairs())}),
    ("smdpsynth.winning", "transition_entropy", "bayes.query", None),
    ("smdpsynth.winning", "dwell_entropy", "bayes.query", None),
    ("smdpsynth.winning", "predictive_successors", "bayes.query", None),
    ("smdpsynth.winning", "predictive_transition", "bayes.query", None),
    ("smdpsynth.winning", "sample_product_step", "product.sample", None),
    ("smdpsynth.reach", "sample_product_step", "product.sample", None),
    ("smdpsynth.experiment", "sample_product_step", "product.sample", None),
    ("smdpsynth.experiment", "top_up_observations", "experiment.topup", None),
    ("smdpsynth.experiment", "qlearn_transient", "reach.qlearn",
     lambda r, a, k: {"reach.updates": r.updates}),
    ("smdpsynth.experiment", "build_risk_model", "risk.build_model", None),
    ("smdpsynth.experiment", "risk_value_iteration", "risk.vi",
     lambda r, a, k: {"risk.vi_iterations": r.iterations}),
    ("smdpsynth.experiment", "evaluate_policy_risk", "risk.eval", None),
    ("smdpsynth.experiment", "export_sample_paths", "experiment.export",
     None),
)


class Tracer:
    """Spans and counters of one traced run, grouped by scope."""

    def __init__(self):
        self.layers = []
        self._layer_id = {}
        self.scopes = []
        self._scope = -1
        self._stack = []
        self.layer = array("i")
        self.span_scope = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = defaultdict(int)       # (scope id, key) -> value
        self.missing = []

    def _lid(self, layer):
        lid = self._layer_id.get(layer)
        if lid is None:
            lid = self._layer_id[layer] = len(self.layers)
            self.layers.append(layer)
        return lid

    def _open(self, lid):
        idx = len(self.start)
        self.layer.append(lid)
        self.span_scope.append(self._scope)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def scope(self, kind):
        """Root span of one set-up or operation (`kind` "setup" or "op");
        spans and counts inside it belong to its scope, whose id is
        yielded."""
        self.scopes.append(kind)
        self._scope = len(self.scopes) - 1
        root = self._open(self._lid("bench." + kind))
        try:
            yield self._scope
        finally:
            self._close(root)
            self._scope = -1

    def count(self, key, value):
        self.counts[(self._scope, key)] += value

    def wrap(self, layer, fn, counter=None):
        lid = self._lid(layer)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            idx = open_(lid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if counter is not None:
                for key, value in counter(result, args, kwargs).items():
                    self.count(key, value)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, targets=TARGETS):
        """Wrap every target for the duration of the block.

        A target whose module or attribute no longer exists is recorded in
        `missing`, once, so a renamed layer shows instead of vanishing.
        """
        undo = []
        for module, attr, layer, counter in targets:
            try:
                mod = importlib.import_module(module)
            except ImportError:
                mod = None
            fn = getattr(mod, attr, None)
            if fn is None:
                name = f"{module}.{attr}"
                if name not in self.missing:
                    self.missing.append(name)
                continue
            setattr(mod, attr, self.wrap(layer, fn, counter))
            undo.append((mod, attr, fn))
        try:
            yield
        finally:
            for mod, attr, fn in reversed(undo):
                setattr(mod, attr, fn)

    def arrays(self):
        layer = np.asarray(self.layer, dtype=np.int32)
        parent = np.asarray(self.parent, dtype=np.int32)
        dur = np.asarray(self.end) - np.asarray(self.start)
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        scope = np.asarray(self.span_scope, dtype=np.int32)
        return layer, scope, dur, dur - child

    def scope_totals(self, scope_id):
        """layer -> (calls, inclusive seconds, self seconds) in one scope."""
        layer, scope, dur, self_t = self.arrays()
        mask = scope == scope_id
        n = len(self.layers)
        calls = np.bincount(layer[mask], minlength=n)
        incl = np.bincount(layer[mask], weights=dur[mask], minlength=n)
        own = np.bincount(layer[mask], weights=self_t[mask], minlength=n)
        return {name: (int(calls[i]), float(incl[i]), float(own[i]))
                for i, name in enumerate(self.layers)}

    def scope_counts(self, scope_id):
        return {key: v for (sid, key), v in self.counts.items()
                if sid == scope_id}

    def save(self, path):
        np.savez_compressed(
            path, layers=np.array(self.layers), scopes=np.array(self.scopes),
            layer=np.asarray(self.layer, dtype=np.int32),
            scope=np.asarray(self.span_scope, dtype=np.int32),
            parent=np.asarray(self.parent, dtype=np.int32),
            start=np.asarray(self.start), end=np.asarray(self.end))
