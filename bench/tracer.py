"""Per-layer spans around bosegas, installed at run time from the benchmark.

`Tracer.install` replaces the public functions of the layer modules (cli,
moments, quadrature, kernel, she_mc) with timing wrappers, in every bosegas
namespace that holds them, so nothing under src/ changes.  The helper modules
(partitions, scaled, spectral, errors, _threads) get no spans: their calls
take microseconds and their time falls into the calling layer's self time.

Each span books its self time (its duration minus its child spans) to a
bucket, so the buckets add up to the traced time with nothing counted twice.
Spans are kept on one stack, which assumes the program runs on one thread:
the benchmark sets BOSEGAS_THREADS=1, so integrate_tensor runs its chunks
inline.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "moments", "quadrature", "kernel", "she_mc")
# functions whose time also feeds a named figure of their own
_BUCKETS = {
    ("moments", "auto_cluster_plan"): "moments.plan",
    ("moments", "auto_nested_plan"): "moments.plan",
    ("she_mc", "replica_generator"): "she_mc.rng",
}
_INTEGRANDS = {
    "cluster_integrand_batch.<locals>.f": "kernel.integrand",
    "_nested_integrand.<locals>.f": "moments.nested_integrand",
}


def term_name(label: str) -> str:
    """Partition '2+1+1' -> metric-safe '2-1-1'."""
    return label.replace("+", "-")


class _TimedGenerator:
    """A numpy Generator whose normal draws are booked to she_mc.rng."""

    def __init__(self, gen, tracer):
        self._gen = gen
        self._tracer = tracer

    def standard_normal(self, *args, **kwargs):
        self._tracer.enter("she_mc.rng")
        try:
            return self._gen.standard_normal(*args, **kwargs)
        finally:
            self._tracer.leave()

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)  # bucket -> self time
        self.outer_s = defaultdict(float)  # bucket -> time in its outermost spans
        self.term_s = defaultdict(float)  # term -> inclusive time
        self.term_nodes = {}  # term -> largest nodes per line used
        self.nodes = 0  # sum of nodes_per_line ** lines over integrate_tensor calls
        self.cell_steps = 0  # replicas x steps x interior cells over estimate_moment
        self.plans = []  # one record per integrate_tensor call
        self._stack = []  # [bucket, start, child_time, term]
        self._depth = defaultdict(int)

    # --- spans -----------------------------------------------------------

    def enter(self, bucket: str, term: str | None = None):
        self._depth[bucket] += 1
        self._stack.append([bucket, time.perf_counter(), 0.0, term])

    def leave(self):
        end = time.perf_counter()
        bucket, start, child, term = self._stack.pop()
        dur = end - start
        self.self_s[bucket] += dur - child
        self._depth[bucket] -= 1
        if self._depth[bucket] == 0:
            self.outer_s[bucket] += dur
        if term is not None:
            self.term_s[term] += dur
        if self._stack:
            self._stack[-1][2] += dur

    def current_term(self):
        for frame in reversed(self._stack):
            if frame[3] is not None:
                return frame[3]
        return None

    def _wrap(self, fn, bucket, term_of=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.enter(bucket, term_of(*args, **kwargs) if term_of else None)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.leave()
            if after is not None:
                after(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # --- installation ----------------------------------------------------

    def install(self):
        """Wrap the layer modules' public functions everywhere bosegas binds them."""
        swaps = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"bosegas.{layer}")
            for name, fn in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                swaps[id(fn)] = self._wrapper_for(layer, name, fn)
        pkg = [m for name, m in sys.modules.items()
               if name == "bosegas" or name.startswith("bosegas.")]
        for mod in pkg:
            for name, obj in list(vars(mod).items()):
                if id(obj) in swaps and inspect.isfunction(obj):
                    setattr(mod, name, swaps[id(obj)])

    def _wrapper_for(self, layer, name, fn):
        bucket = _BUCKETS.get((layer, name), layer)
        if (layer, name) == ("quadrature", "integrate_tensor"):
            return self._wrap_integrate(fn)
        if (layer, name) == ("moments", "cluster_integral"):
            return self._wrap(fn, bucket, term_of=lambda req, p, *a, **k: term_name(str(p)))
        if (layer, name) == ("moments", "moment_nested_contours"):
            return self._wrap(fn, bucket, term_of=lambda req, *a, **k: f"nested-{req.n}")
        if (layer, name) == ("she_mc", "replica_generator"):
            inner = self._wrap(fn, bucket)
            return lambda *a, **k: _TimedGenerator(inner(*a, **k), self)
        if (layer, name) == ("she_mc", "estimate_moment"):
            return self._wrap(fn, bucket, after=self._count_cells)
        return self._wrap(fn, bucket)

    def _count_cells(self, est):
        self.cell_steps += est.cell_steps

    def _wrap_integrate(self, fn):
        tracer = self

        def integrate_tensor(f, plan, num_lines, decay_rates=None, abscissas=None):
            term = tracer.current_term()
            nodes = plan.nodes_per_line
            tracer.nodes += nodes ** num_lines
            tracer.term_nodes[term] = max(tracer.term_nodes.get(term, 0), nodes)
            tracer.plans.append({
                "term": term, "lines": num_lines, "theta": plan.theta,
                "epsilon": plan.epsilon, "half_width": plan.half_width, "nodes": nodes,
                "abscissas": None if abscissas is None else [float(a) for a in abscissas],
            })
            bucket = _INTEGRANDS.get(getattr(f, "__qualname__", ""), "integrand.other")
            g = tracer._wrap(f, bucket)
            return tracer._wrap(fn, "quadrature")(g, plan, num_lines, decay_rates=decay_rates,
                                                  abscissas=abscissas)

        integrate_tensor.__wrapped__ = fn
        return integrate_tensor
