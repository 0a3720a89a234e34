"""Spans around the public functions of each ``aoi`` module.

The traced run replaces those functions, and the ``sample_array``,
``ccdf`` and ``laplace`` methods of the laws, with wrappers that record a
span: name, start, end, parent span and op id.  ``scipy.integrate.quad``
gets a span too, so every quadrature call is counted.  Spans stay in
memory until the run ends; a layer's self time is its spans' duration
minus the duration of their child spans.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

# (metric, unit) in the order they are printed; BENCHMARK.json lists the same.
LAYER_METRICS = [
    ("analytic.dropping_walk_moments.calls", "count"),
    ("analytic.dropping_walk_moments.self_s", "s"),
    ("analytic.walk.steps", "count"),
    ("analytic.walk.steps_per_s", "1/s"),
    ("analytic.walk.mean_depth", "draws/replicate"),
    ("analytic.k_pmf.calls", "count"),
    ("analytic.k_pmf.self_s", "s"),
    ("analytic.k_pmf.steps", "count"),
    ("analytic.exact_age_dropping.self_s", "s"),
    ("analytic.moments_of_K_dropping.self_s", "s"),
    ("distributions.sample_array.calls", "count"),
    ("distributions.sample_array.draws", "count"),
    ("distributions.sample_array.self_s", "s"),
    ("distributions.ccdf.calls", "count"),
    ("distributions.ccdf.points", "count"),
    ("distributions.ccdf.self_s", "s"),
    ("sim.run_simulation.calls", "count"),
    ("sim.run_simulation.self_s", "s"),
    ("sim.cycles", "count"),
    ("sim.arrivals", "count"),
    ("sim.cycles_per_s", "1/s"),
    ("sim.cycle_statistics.self_s", "s"),
    ("sim.trace.rows", "count"),
    ("distributions.expect.calls", "count"),
    ("distributions.expect.self_s", "s"),
    ("distributions.quad.calls", "count"),
    ("distributions.laplace.calls", "count"),
    ("distributions.laplace.self_s", "s"),
    ("distributions.classify_mrl.calls", "count"),
    ("distributions.classify_mrl.self_s", "s"),
    ("distributions.mean_residual_life.calls", "count"),
    ("distributions.check_nbue.self_s", "s"),
    ("analytic.success_probability.calls", "count"),
    ("analytic.success_probability.self_s", "s"),
    ("analytic.conditional_mean_service.calls", "count"),
    ("analytic.conditional_mean_service.self_s", "s"),
    ("analytic.exact_age_preemption.self_s", "s"),
    ("bounds.ub_dropping_general.calls", "count"),
    ("bounds.ub_dropping_general.self_s", "s"),
    ("bounds.ub_dropping_gm.calls", "count"),
    ("bounds.ub_dropping_gm.self_s", "s"),
    ("bounds.mg11_ordering_bound.calls", "count"),
    ("bounds.mg11_ordering_bound.self_s", "s"),
    ("bounds.ub_preemption.calls", "count"),
    ("bounds.ub_preemption.self_s", "s"),
    ("experiments.run_sweep.self_s", "s"),
    ("experiments.emit_csv.self_s", "s"),
    ("experiments.emit_csv.bytes", "bytes"),
    ("experiments.emit_chart.self_s", "s"),
    ("experiments.emit_chart.bytes", "bytes"),
    ("cli.main.self_s", "s"),
    ("cli.stdout_bytes", "bytes"),
    ("traced_wall_s", "s"),
    ("trace_overhead_s", "s"),
    ("coverage.walk_share", "ratio"),
    ("coverage.sim_share", "ratio"),
    ("coverage.quad_mrl_share", "ratio"),
]

_MODULES = ("distributions", "sim", "analytic", "bounds", "experiments", "cli")
_WALK = "analytic.dropping_walk_moments"
_KPMF = "analytic.k_pmf"


class Tracer:
    """In-memory span store; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.depth: list[int] = []        # open spans per name id
        self.name = array("l")
        self.op = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.depth.append(0)
        return nid

    def inside(self, name: str) -> bool:
        return name in self._ids and self.depth[self._ids[name]] > 0

    def span(self, nid: int) -> int:
        i = len(self.start)
        stack = self._stack
        self.name.append(nid)
        self.op.append(self.op_id)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0.0)
        stack.append(i)
        self.depth[nid] += 1
        self.start.append(time.perf_counter())
        return i

    def finish(self, i: int):
        self.end[i] = time.perf_counter()
        self._stack.pop()
        self.depth[self.name[i]] -= 1

    def write(self, path: Path):
        """Write the spans as one ``.npz`` of parallel arrays."""
        np.savez_compressed(path, names=np.array(self.names), name=np.asarray(self.name),
                            op=np.asarray(self.op), parent=np.asarray(self.parent),
                            start=np.asarray(self.start), end=np.asarray(self.end))

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds and self seconds."""
        name = np.asarray(self.name)
        parent = np.asarray(self.parent)
        dur = np.asarray(self.end) - np.asarray(self.start)
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0],
                            minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        self_s = np.bincount(name, weights=dur - child, minlength=k)
        return {n: {"calls": int(calls[i]), "total_s": float(total[i]),
                    "self_s": float(self_s[i])} for i, n in enumerate(self.names)}


def _amounts(tracer: Tracer, name: str, args, result):
    """Work counts recorded at the span boundary."""
    c = tracer.counters
    if name == "distributions.sample_array":
        n = int(args[2])
        c["distributions.sample_array.draws"] += n
        if tracer.inside(_WALK):
            c["analytic.walk.steps"] += n
        if tracer.inside(_KPMF):
            c["analytic.k_pmf.steps"] += n
    elif name == "distributions.ccdf":
        c["distributions.ccdf.points"] += int(np.size(args[1]))
    elif name == _WALK:
        c["analytic.walk.replicates"] += result.samples
    elif name == "sim.run_simulation":
        estimate, records = result
        c["sim.cycles"] += estimate.cycles_used
        c["sim.arrivals"] += sum(r.k for r in records)
    elif name in ("experiments.emit_csv", "experiments.emit_chart"):
        c[f"{name}.bytes"] += os.path.getsize(args[1])


_COUNTED = {"distributions.sample_array", "distributions.ccdf", _WALK,
            "sim.run_simulation", "experiments.emit_csv", "experiments.emit_chart"}


def _wrap(tracer: Tracer, name: str, fn):
    nid = tracer.name_id(name)
    span, finish = tracer.span, tracer.finish

    if name in _COUNTED:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = span(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(i)
            _amounts(tracer, name, args, result)
            return result
    else:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = span(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(i)
    return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Swap every public ``aoi`` function (at each place it is bound) and
    ``scipy.integrate.quad`` for a traced wrapper; restore them on exit."""
    import importlib

    import scipy.integrate

    import aoi
    mods = {m: importlib.import_module(f"aoi.{m}") for m in _MODULES}
    wrapped = {}
    for short, mod in mods.items():
        for attr in getattr(mod, "__all__", ()):
            fn = getattr(mod, attr)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                wrapped[fn] = _wrap(tracer, f"{short}.{attr}", fn)
    quad = scipy.integrate.quad
    wrapped[quad] = _wrap(tracer, "distributions.quad", quad)

    saved = []
    for holder in (aoi, scipy.integrate, *mods.values()):
        for attr, value in list(vars(holder).items()):
            if inspect.isfunction(value) and value in wrapped:
                saved.append((holder, attr, value))
                setattr(holder, attr, wrapped[value])
    dist = mods["distributions"]
    for cls in [dist.Distribution, *dist.Distribution.__subclasses__()]:
        for meth in ("sample_array", "ccdf", "laplace"):
            if meth in vars(cls):
                original = vars(cls)[meth]
                saved.append((cls, meth, original))
                setattr(cls, meth, _wrap(tracer, f"distributions.{meth}", original))
    try:
        yield tracer
    finally:
        for holder, attr, value in reversed(saved):
            setattr(holder, attr, value)


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float) -> dict:
    """Every LAYER_METRICS value from the spans and counters."""
    times = tracer.layer_times()
    c = tracer.counters
    out: dict[str, float] = {}
    for metric, _ in LAYER_METRICS:
        layer, _, field = metric.rpartition(".")
        if field in ("calls", "self_s"):
            out[metric] = times.get(layer, {}).get(field, 0)
        else:
            out[metric] = c.get(metric, 0)

    def total(layer):
        return times.get(layer, {}).get("total_s", 0.0)

    def per(num, den):
        return num / den if den else 0.0

    out["analytic.walk.steps_per_s"] = per(c["analytic.walk.steps"], total(_WALK))
    out["analytic.walk.mean_depth"] = per(c["analytic.walk.steps"], c["analytic.walk.replicates"])
    out["sim.cycles_per_s"] = per(c["sim.cycles"], total("sim.run_simulation"))
    out["traced_wall_s"] = traced_wall
    out["trace_overhead_s"] = traced_wall - untraced_wall
    out["coverage.walk_share"] = per(total(_WALK) + total(_KPMF), traced_wall)
    out["coverage.sim_share"] = per(total("sim.run_simulation"), traced_wall)
    out["coverage.quad_mrl_share"] = per(
        total("distributions.expect") + total("distributions.classify_mrl")
        + total("distributions.check_nbue"), traced_wall)
    return {m: out[m] for m, _ in LAYER_METRICS}

