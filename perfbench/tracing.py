"""In-memory spans around gammashock's public layer functions.

A Tracer replaces each traced function at the module attribute where its
callers look it up (``gammashock.reliability.gamma_cdf`` for the kernel
calls made by the reliability grid, ``gammashock.optimize.cost_rate`` for
the solver's refinement, ...), so the package itself is not edited.
Every call records one span (name, parent, start, end) and one count,
such as the number of gamma-CDF elements the call evaluated.  Spans stay
in memory until ``dump`` writes them out; self times are derived after
the run.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager

import numpy as np


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _size(value) -> int:
    return int(np.size(value))


def layer_targets(gopt, grel, gsur, gsim):
    """(module, attribute, span name, counter) for every traced function.

    A counter maps (args, kwargs, result) to the work the call did.
    """
    t_of_curve = lambda a, k, r: _size(_arg(a, k, 1, "t"))
    t_of_component = lambda a, k, r: _size(_arg(a, k, 2, "t"))
    return [
        (grel, "gamma_cdf", "core.gamma_cdf", lambda a, k, r: _size(r)),
        (grel, "truncation_level", "reliability.truncation_level", lambda a, k, r: r + 1),
        (gopt, "system_reliability", "reliability.system_reliability", t_of_curve),
        (grel, "system_reliability", "reliability.system_reliability", t_of_curve),
        (gopt, "component_reliability", "reliability.component_reliability", t_of_component),
        (grel, "component_reliability", "reliability.component_reliability", t_of_component),
        (gopt, "cost_rate_batch", "optimize.cost_rate_batch",
         lambda a, k, r: _size(_arg(a, k, 2, "taus"))),
        (gopt, "cost_rate", "optimize.cost_rate", None),
        (gopt, "optimal_inspection_time", "optimize.optimal_inspection_time", None),
        (gsur, "system_fingerprint", "optimize.system_fingerprint", None),
        (gsur, "train", "surrogate.train", None),
        (gsur, "fit", "surrogate.fit",
         lambda a, k, r: _size(_arg(a, k, 2, "targets")) * int(_arg(a, k, 4, "epochs"))),
        (gsur, "predict_next_inspection", "surrogate.predict_next_inspection", None),
        (gsim, "simulate_plan", "simulate.simulate_plan",
         lambda a, k, r: len(r.inspection_times)),
        (gsim, "estimate_reliability", "simulate.estimate_reliability",
         lambda a, k, r: int(_arg(a, k, 3, "n_samples"))),
    ]


class Tracer:
    """Span store plus the patching that feeds it (one thread only)."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: list[int] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.counts.append(1)
        self._stack.append(sid)
        self.starts[sid] = time.perf_counter()
        return sid

    def _close(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, count: int = 1):
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)
            self.counts[sid] = count

    def wrap(self, fn, name: str, counter=None):
        def traced(*args, **kwargs):
            sid = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(sid)
                if counter is not None and result is not None:
                    self.counts[sid] = int(counter(args, kwargs, result))

        traced.__wrapped__ = fn
        return traced

    def install(self, targets) -> None:
        for module, attr, name, counter in targets:
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, counter))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def durations(self) -> np.ndarray:
        return np.asarray(self.ends) - np.asarray(self.starts)

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the time its direct children cover."""
        dur = self.durations()
        child = np.zeros_like(dur)
        parents = np.asarray(self.parents)
        has = parents >= 0
        np.add.at(child, parents[has], dur[has])
        return dur - child

    def ancestors_named(self, prefix: str) -> list[int]:
        """For each span, the nearest enclosing span (itself included) whose
        name starts with prefix, or -1."""
        out = [-1] * len(self.names)
        for i, (name, parent) in enumerate(zip(self.names, self.parents)):
            if name.startswith(prefix):
                out[i] = i
            elif parent >= 0:
                out[i] = out[parent]
        return out

    def dump(self, path) -> None:
        doc = {
            "fields": ["name", "parent", "start_s", "end_s", "count"],
            "spans": [
                [n, p, s, e, c]
                for n, p, s, e, c in zip(
                    self.names, self.parents, self.starts, self.ends, self.counts
                )
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")


# Per-layer metrics: (name, unit, better, deterministic).  Each is
# normalised per operation of the end-to-end metric it feeds.
LAYER_METRICS = [
    ("core.gamma_cdf.elements_per_solve", "count", "lower", True),
    ("core.gamma_cdf.ms_per_solve", "ms", "lower", False),
    ("core.gamma_cdf.elements_per_curve", "count", "lower", True),
    ("core.gamma_cdf.melem_per_s", "Melem/s", "higher", False),
    ("reliability.truncation_level.terms_per_solve", "count", "lower", True),
    ("reliability.system_reliability.points_per_solve", "count", "lower", True),
    ("reliability.component_reliability.points_per_solve", "count", "lower", True),
    ("reliability.self_ms_per_solve", "ms", "lower", False),
    ("optimize.scan.taus_per_solve", "count", "lower", True),
    ("optimize.scan.ms_per_solve", "ms", "lower", False),
    ("optimize.refine.calls_per_solve", "count", "lower", True),
    ("optimize.refine.ms_per_solve", "ms", "lower", False),
    ("optimize.optimal_inspection_time.self_ms_per_solve", "ms", "lower", False),
    ("surrogate.fit.sample_steps", "count", "lower", True),
    ("surrogate.fit.steps_per_s", "1/s", "higher", False),
    ("surrogate.predict_next_inspection.us_per_call", "us", "lower", False),
    ("optimize.system_fingerprint.us_per_predict", "us", "lower", False),
    ("simulate.simulate_plan.inspections_per_rep", "count", "lower", True),
    ("simulate.simulate_plan.self_ms_per_rep", "ms", "lower", False),
    ("simulate.policy.ms_per_rep", "ms", "lower", False),
    ("simulate.estimate_reliability.msamples_per_s", "Msample/s", "higher", False),
]


def layer_metrics(tr: Tracer, det_rounds) -> dict[str, float]:
    """Per-layer figures from the spans of the traced rounds and checks.

    Deterministic counts use only the rounds in det_rounds, which every
    traced run completes, so they repeat exactly for a given seed.
    """
    names = np.asarray(tr.names)
    parents = np.asarray(tr.parents)
    counts = np.asarray(tr.counts, dtype=float)
    dur = tr.durations()
    own = tr.self_times()
    op = np.asarray(tr.ancestors_named("op."))
    rnd = np.asarray(tr.ancestors_named("round"))
    op_name = np.where(op >= 0, names[np.maximum(op, 0)], "")
    round_of = np.where(rnd >= 0, counts[np.maximum(rnd, 0)], -1)
    in_det = np.isin(round_of, list(det_rounds))
    is_ = lambda name: names == name
    under = lambda kind: op_name == "op." + kind
    parent_name = np.where(parents >= 0, names[np.maximum(parents, 0)], "")

    def per(total_mask, base_mask, values, scale=1.0):
        n = int(np.sum(base_mask))
        return scale * float(np.sum(values[total_mask])) / n if n else float("nan")

    solves, curves = is_("op.solve"), is_("op.curve")
    det_solves, det_curves = solves & in_det, curves & in_det
    gamma = is_("core.gamma_cdf")
    rel = np.char.startswith(names.astype(str), "reliability.")
    scan = is_("optimize.cost_rate_batch") & (parent_name == "optimize.optimal_inspection_time")
    refine = is_("optimize.cost_rate") & under("solve")
    predicts = is_("surrogate.predict_next_inspection") & under("predict")
    fits = is_("surrogate.fit")
    plans = is_("simulate.simulate_plan")
    det_plans = plans & in_det
    mc = is_("simulate.estimate_reliability")
    return {
        "core.gamma_cdf.elements_per_solve": per(gamma & under("solve") & in_det, det_solves, counts),
        "core.gamma_cdf.ms_per_solve": per(gamma & under("solve"), solves, dur, 1e3),
        "core.gamma_cdf.elements_per_curve": per(gamma & under("curve") & in_det, det_curves, counts),
        "core.gamma_cdf.melem_per_s": float(np.sum(counts[gamma]) / np.sum(dur[gamma]) / 1e6),
        "reliability.truncation_level.terms_per_solve": per(
            is_("reliability.truncation_level") & under("solve") & in_det, det_solves, counts),
        "reliability.system_reliability.points_per_solve": per(
            is_("reliability.system_reliability") & under("solve") & in_det, det_solves, counts),
        "reliability.component_reliability.points_per_solve": per(
            is_("reliability.component_reliability") & under("solve") & in_det, det_solves, counts),
        "reliability.self_ms_per_solve": per(rel & under("solve"), solves, own, 1e3),
        "optimize.scan.taus_per_solve": per(scan & in_det, det_solves, counts),
        "optimize.scan.ms_per_solve": per(scan, solves, dur, 1e3),
        "optimize.refine.calls_per_solve": per(refine & in_det, det_solves, np.ones_like(dur)),
        "optimize.refine.ms_per_solve": per(refine, solves, dur, 1e3),
        "optimize.optimal_inspection_time.self_ms_per_solve": per(
            is_("optimize.optimal_inspection_time") & under("solve"), solves, own, 1e3),
        "surrogate.fit.sample_steps": per(fits & in_det, fits & in_det, counts),
        "surrogate.fit.steps_per_s": float(np.sum(counts[fits]) / np.sum(dur[fits])),
        "surrogate.predict_next_inspection.us_per_call": per(predicts, predicts, dur, 1e6),
        "optimize.system_fingerprint.us_per_predict": per(
            is_("optimize.system_fingerprint") & under("predict"), predicts, dur, 1e6),
        "simulate.simulate_plan.inspections_per_rep": per(det_plans, det_plans, counts),
        "simulate.simulate_plan.self_ms_per_rep": per(plans, plans, own, 1e3),
        "simulate.policy.ms_per_rep": per(is_("simulate.policy"), plans, dur, 1e3),
        "simulate.estimate_reliability.msamples_per_s": float(
            np.sum(counts[mc]) / np.sum(dur[mc]) / 1e6),
    }
