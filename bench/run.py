"""Time bosegas end to end and layer by layer on one workload.

    python3 bench/run.py --workload routes-n3 --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the program is imported from src/
there, never from an installed copy.  The workload runs in a child process
(bench/worker.py) with the thread settings fixed; set-up time is the median
over several fresh processes.  --trace 0 prints the end-to-end metrics,
--trace 1 the per-layer ones.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the line before it records the
machine, the thread settings and the seeds, and the same record, with every
op's inputs and (traced) the contour plan of every term, is written to
bench/results/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 5  # fresh processes timed from start to warmed up; median reported
DEADLINE_S = 170.0  # whole run, set-up processes included
COVERAGE_MARGIN = 0.02  # traced layer self times must cover the traced pass within this
TINY_ERROR = 2.0 ** -53  # an exact match counts as this relative error
THREADS = 1  # steadier than 2 on two cores, and the tracer needs one thread

PER_LAYER_FIXED = (
    "quadrature.nodes", "quadrature.self_s", "quadrature.ns_per_node",
    "kernel.integrand_s", "kernel.self_s",
    "moments.nested_integrand_s", "moments.plan_s", "moments.self_s",
    "cli.self_s",
    "she_mc.rng_s", "she_mc.step_s", "she_mc.ns_per_cell_step",
    "trace.wall_s", "trace.layers_s", "trace.unattributed_s", "trace.overhead_s",
)
TERMS = ("2", "1-1", "nested-2",
         "3", "2-1", "1-1-1", "nested-3",
         "4", "3-1", "2-2", "2-1-1", "1-1-1-1", "nested-4")
UNITS = {"_s": "s", "_nodes": "count", "ns_per_node": "ns", "ns_per_cell_step": "ns",
         "nodes": "count", "err_digits": "digits", "err_overstatement": "ratio"}


def per_layer_names():
    names = list(PER_LAYER_FIXED)
    for term in TERMS:
        names += [f"moments.{term}_s", f"moments.{term}_nodes"]
    return names + ["moments.err_digits", "moments.err_overstatement"]


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


def _spawn(args, env, deadline, setup_only):
    cmd = [sys.executable, str(BENCH / "worker.py"), "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - start))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode} without a result")
    payload = json.loads(lines[-1])
    return payload, payload["ready"] - start


def _error_metrics(errors):
    if not errors:
        return 0.0, 0.0
    digits = min(-math.log10(max(actual, TINY_ERROR)) for actual, _ in errors)
    over = [rep / max(actual, TINY_ERROR) for actual, rep in errors if rep is not None]
    return digits, statistics.median(over) if over else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=1729, help="makes the workload's inputs")
    ap.add_argument("--seconds", type=int, default=25, help="length of the measured part")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    start = time.monotonic()
    if not (ROOT / "src" / "bosegas" / "__init__.py").is_file():
        sys.stderr.write(f"error: no bosegas source under {ROOT / 'src'}; "
                         "run from the root of a source checkout\n")
        return 2
    nproc = len(os.sched_getaffinity(0))
    threads = {k: str(THREADS)
               for k in ("BOSEGAS_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env = dict(os.environ, **threads)

    oracle_faults = oracles.self_check()
    deadline = start + DEADLINE_S
    try:
        setups = [_spawn(args, env, deadline, True)[1] for _ in range(SETUP_SAMPLES - 1)]
        payload, setup = _spawn(args, env, deadline, False)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    setups.append(setup)

    correct = not oracle_faults and payload["deterministic"]
    if args.trace:
        layers = payload["layers"]
        digits, over = _error_metrics(payload["errors"])
        layers["moments.err_digits"] = digits
        layers["moments.err_overstatement"] = over
        share = abs(layers["trace.unattributed_s"]) / layers["trace.wall_s"]
        if share > COVERAGE_MARGIN:
            correct = False
            payload["messages"].append(
                f"layer self times leave {share:.1%} of the traced pass unattributed "
                f"(margin {COVERAGE_MARGIN:.0%})")
        values = {name: float(layers.get(name, 0.0)) for name in per_layer_names()}
        metrics = {name: {"value": v, "unit": unit_of(name)} for name, v in values.items()}
    else:
        op_s = payload["op_s"]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(payload["pass_s"]), "unit": "s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(op_s), "unit": "ms"},
            "op_p90_ms": {"value": 1e3 * statistics.quantiles(op_s, n=10, method="inclusive")[8],
                          "unit": "ms"},
            "peak_rss_mb": {"value": payload["peak_rss_mb"], "unit": "MB"},
        }

    record = {
        "workload": args.workload, "seed": args.seed, "mc_seed": workloads.MC_SEED,
        "trace": args.trace, "seconds": args.seconds,
        "nproc": nproc, "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "numpy": payload["numpy"], "blas": payload["blas"], "thread_env": threads,
        "passes": len(payload["pass_s"]), "ops": len(payload["op_s"]),
        "pass_s": payload["pass_s"],
        "setup_samples_s": setups, "oracle_faults": oracle_faults,
        "messages": payload["messages"], "inputs": payload["inputs"],
    }
    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(dict(record, metrics=metrics, plans=payload.get("plans")),
                               indent=1) + "\n")
    for msg in oracle_faults + payload["messages"]:
        sys.stderr.write(f"note: {msg}\n")
    print("# " + json.dumps({k: record[k] for k in (
        "workload", "seed", "mc_seed", "nproc", "numpy", "blas", "thread_env",
        "passes", "ops")}))
    print(json.dumps({"correct": correct, "attempted": payload["attempted"],
                      "failed": payload["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
