"""One workload in its own process; started by run.py, not by hand.

Imports bosegas from the checkout's src/, runs the workload's warm-up, notes
the time it became ready (time.monotonic, which the parent shares), then runs
whole passes over the op list until the next pass would overrun --seconds.
With --trace 1 the first half of the time runs untraced and the second half
traced, so the overhead of tracing is measured in the same process.  Prints
one JSON line for run.py.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads

MAX_MESSAGES = 20


def _import_bosegas(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import bosegas

    where = Path(bosegas.__file__).resolve()
    if src not in where.parents:
        raise SystemExit(f"bosegas imported from {where}, not from {src}")


class Runner:
    """Runs passes over one op list and keeps what they measured."""

    def __init__(self, workload):
        self.ops = workload.ops
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.signatures = None  # per op, from the first pass
        self.deterministic = True
        self.errors = []  # (actual, reported) from the first pass

    def run_pass(self):
        ctx = {}
        op_s = []
        first = self.signatures is None
        sigs = []
        for i, op in enumerate(self.ops):
            start = time.perf_counter()
            try:
                out = op.run()
            except Exception:  # an op that raises is a failed op, not a dead run
                out = None
                reason = traceback.format_exc(limit=3).strip().splitlines()[-1]
            op_s.append(time.perf_counter() - start)
            self.attempted += 1
            if out is None:
                self._fail(op, f"raised {reason}")
                sigs.append(None)
                continue
            try:
                bad, errs = op.check(out, ctx)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                bad, errs = [f"bad output: {exc}"], []
            if bad:
                self._fail(op, "; ".join(bad))
            if first:
                self.errors += errs
            sig = op.signature(out)
            sigs.append(sig)
            if not first and sig != self.signatures[i]:
                self.deterministic = False
                self._note(f"{op.label}: output differs from the first pass")
        if first:
            self.signatures = sigs
        return op_s

    def run_phase(self, seconds: float, after_pass=None):
        """Whole passes: at least one, and another only if it fits."""
        start = time.monotonic()
        passes = []
        while True:
            p0 = time.monotonic()
            passes.append(self.run_pass())
            if after_pass is not None:
                after_pass()
            now = time.monotonic()
            if now - start + (now - p0) > seconds:
                return passes

    def _fail(self, op, why):
        self.failed += 1
        self._note(f"{op.label}: {why}")

    def _note(self, msg):
        if len(self.messages) < MAX_MESSAGES:
            self.messages.append(msg)


def _layer_metrics(tracer, passes, untraced_wall):
    k = len(passes)
    wall = sum(map(sum, passes)) / k
    s, o = tracer.self_s, tracer.outer_s
    layers = sum(s.values())
    m = {
        "quadrature.nodes": tracer.nodes / k,
        "quadrature.self_s": s["quadrature"] / k,
        "quadrature.ns_per_node": 1e9 * o["quadrature"] / tracer.nodes if tracer.nodes else 0.0,
        "kernel.integrand_s": o["kernel.integrand"] / k,
        "kernel.self_s": s["kernel"] / k,
        "moments.nested_integrand_s": o["moments.nested_integrand"] / k,
        "moments.plan_s": o["moments.plan"] / k,
        "moments.self_s": (s["moments"] + s["moments.plan"]) / k,
        "cli.self_s": s["cli"] / k,
        "she_mc.rng_s": o["she_mc.rng"] / k,
        "she_mc.step_s": s["she_mc"] / k,
        "she_mc.ns_per_cell_step": (1e9 * o["she_mc"] / tracer.cell_steps
                                    if tracer.cell_steps else 0.0),
        "trace.wall_s": wall,
        "trace.layers_s": layers / k,
        "trace.unattributed_s": wall - layers / k,
        "trace.overhead_s": statistics.median(map(sum, passes)) - untraced_wall,
    }
    for term, sec in tracer.term_s.items():
        m[f"moments.{term}_s"] = sec / k
    for term, nodes in tracer.term_nodes.items():
        if term is not None:
            m[f"moments.{term}_nodes"] = nodes
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    _import_bosegas(Path(args.root))
    workload = workloads.build(args.workload, args.seed)
    workload.warmup()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    import numpy as np

    runner = Runner(workload)
    phase = args.seconds / 2.0 if args.trace else args.seconds
    passes = runner.run_phase(phase)
    out = {
        "ready": ready,
        "pass_s": [sum(p) for p in passes],
        "op_s": [t for p in passes for t in p],
    }
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        plans = []

        def keep_first_plans():
            if not plans:
                plans.extend(tracer.plans)
            tracer.plans.clear()

        traced = runner.run_phase(phase, keep_first_plans)
        out["layers"] = _layer_metrics(tracer, traced, statistics.median(out["pass_s"]))
        out["plans"] = plans
        out["errors"] = runner.errors
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    except TypeError:  # numpy < 1.25 prints its config instead
        blas = {"name": "unknown (numpy < 1.25)"}
    out.update({
        "attempted": runner.attempted,
        "failed": runner.failed,
        "messages": runner.messages,
        "deterministic": runner.deterministic,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": np.__version__,
        "blas": blas,
        "inputs": workload.inputs,
    })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
