"""The four workloads: fixed op lists built from a seed, each op checked.

An op is one call into bosegas whose output is checked: one `bosegas` CLI
invocation (`bosegas.cli.main`, in-process, stdout captured) or one
`estimate_moment` call.  `Op.run` is the timed part; `Op.check` runs after
it, untimed, and returns the reasons the output is wrong (empty when right)
and the (actual, reported) relative errors it could measure against an
oracle.  Checks may read what earlier ops of the same pass left in `ctx`.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import oracles

NAMES = ("routes-n3", "routes-n4", "asymptotics", "mc")

IMAG_TOL = 1e-8  # |Im| / |Re| allowed for a value to count as real
FULL_CLUSTER_TOL = 1e-8
ROUTE_TOL = {3: 1e-6, 4: 1e-4}
ERF_TOL = 1e-8
LEADING_TOL = 1e-10

# routes-n3: (t, point kinds).  An op's cost depends on t and, by up to
# about 20%, on where the points lie; one seeded random set per pass keeps
# that from swamping the run-to-run spread.
ROUTES_N3_GRID = ((1.0, ("origin", "even")),
                  (2.0, ("origin", "even", "random")),
                  (3.0, ("origin", "even")))
EVEN_N3 = (0.0, 0.5, 1.0)
RANDOM_HALF_WIDTH = 1.0  # random points in [-1, 1]: dx^2/t <= 4, far inside the window
# routes-n4: acceptance criterion 2's n = 4 case, with plans cut to fit a run
N4_PARTITION_NODES = 35
N4_NESTED_NODES = 53
N4_NESTED_HALF_WIDTH = 6.5
# asymptotics: p = 0 plus one seeded p in each band; the ratio is checked to
# approach 1 monotonically only for p <= 1/4, where it does over this t list.
# t starts at 2: below that ops cost 2-4x more and vary with p.
ASYM_TIMES = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
ASYM_P_BANDS = ((0.05, 0.25), (0.3, 0.45), (0.5, 0.75))
ASYM_MONOTONE_MAX_P = 0.25
# mc: acceptance criterion 8's grid and seed.  The seed is fixed, not drawn
# from --seed: the n = 1 check is a 3-standard-error test that about 0.3% of
# stream seeds fail by chance.
MC_GRID = dict(dx=0.05, dt=0.00125, half_width=3.0, t_final=0.5)
MC_REPLICAS = 2000
MC_SEED = 1729


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object, dict], tuple[list[str], list[tuple[float, float | None]]]]
    signature: Callable[[object], object]  # what must repeat bit for bit across passes


@dataclass
class Workload:
    ops: list[Op]
    warmup: Callable[[], None]
    inputs: dict


# --- CLI plumbing ------------------------------------------------------------


def _cli(argv):
    """One in-process `bosegas` invocation: (exit code, stdout)."""
    import bosegas.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = bosegas.cli.main(list(argv))
    return rc, buf.getvalue()


def _cli_op(label, argv, check):
    argv = tuple(argv)
    return Op(label, lambda: _cli(argv), check, signature=lambda out: out)


def _doc(out):
    rc, text = out
    if rc != 0:
        raise ValueError(f"exit code {rc}")
    return json.loads(text)


def _real(rec, what, bad, positive=False):
    re_, im = rec["mantissa_re"], rec["mantissa_im"]
    if not abs(im) <= IMAG_TOL * abs(re_):
        bad.append(f"{what} not real: mantissa {re_!r} + {im!r}i")
    if positive and not re_ > 0:
        bad.append(f"{what} not positive: mantissa {re_!r}")


def _fmt(v: float) -> str:
    return repr(float(v))


# --- routes ------------------------------------------------------------------


def _moment_ops(n, t, x, label):
    key = (n, t, tuple(x))
    args = ["moment", "--t", _fmt(t), "--x", *map(_fmt, x), "--format", "json"]
    if n == 4:
        part = args + ["--nodes", str(N4_PARTITION_NODES)]
        nest = args + ["--route", "nested", "--nodes", str(N4_NESTED_NODES),
                       "--half-width", _fmt(N4_NESTED_HALF_WIDTH)]
    else:
        part, nest = args, args + ["--route", "nested"]

    def check_partition(out, ctx):
        doc = _doc(out)
        bad, errs = [], []
        total = doc["results"]["total"]
        _real(total, "total", bad, positive=True)
        full = None
        for rec in doc["results"]["terms"]:
            _real(rec, f"term {rec['partition']}", bad)
            if rec["partition"] == str(n):
                full = rec
        if full is None:
            bad.append(f"no full-cluster term {n}")
        else:
            rel = oracles.scaled_rel_error(full["mantissa_re"], full["log_scale"],
                                           oracles.full_cluster_log(t, x))
            errs.append((rel, full["tail_bound"] + full["step_estimate"]))
            if not rel <= FULL_CLUSTER_TOL:
                bad.append(f"full-cluster term off the Gaussian form by {rel:.3e}")
        ctx[key] = total
        return bad, errs

    def check_nested(out, ctx):
        doc = _doc(out)
        bad = []
        total = doc["results"]["total"]
        _real(total, "total", bad, positive=True)
        other = ctx.get(key)
        if other is None:
            bad.append("partition route gave no value to compare with")
        else:
            rel = oracles.scaled_rel_error(total["mantissa_re"], total["log_scale"],
                                           other["log_scale"] + math.log(other["mantissa_re"]))
            if not rel <= ROUTE_TOL[n]:
                bad.append(f"routes differ by {rel:.3e} > {ROUTE_TOL[n]:g}")
        return bad, []

    return [_cli_op(f"{label} partition", part, check_partition),
            _cli_op(f"{label} nested", nest, check_nested)]


def _routes_n3(rng):
    ops, inputs = [], []
    for t, kinds in ROUTES_N3_GRID:
        for kind in kinds:
            if kind == "origin":
                x = (0.0, 0.0, 0.0)
            elif kind == "even":
                x = EVEN_N3
            else:
                x = tuple(rng.uniform(-RANDOM_HALF_WIDTH, RANDOM_HALF_WIDTH) for _ in range(3))
            inputs.append({"t": t, "kind": kind, "x": list(x)})
            ops += _moment_ops(3, t, x, f"n=3 t={t} {kind}")

    def warmup():
        _cli(["moment", "--t", "1", "--n", "3", "--nodes", "5"])
        _cli(["moment", "--t", "1", "--n", "3", "--nodes", "5", "--route", "nested"])

    return ops, warmup, {"points": inputs}


def _routes_n4(rng):
    ops = _moment_ops(4, 1.0, (0.0, 0.0, 0.0, 0.0), "n=4 t=1 origin")

    def warmup():
        _cli(["moment", "--t", "1", "--n", "4", "--nodes", "5"])
        _cli(["moment", "--t", "1", "--n", "4", "--nodes", "5", "--route", "nested"])

    return ops, warmup, {"t": 1.0, "x": [0.0] * 4,
                         "partition_nodes": N4_PARTITION_NODES,
                         "nested_nodes": N4_NESTED_NODES,
                         "nested_half_width": N4_NESTED_HALF_WIDTH}


# --- asymptotics -------------------------------------------------------------


def _table_op(t, p):
    argv = ["asymptotic-table", "--n", "2", "--t-list", _fmt(t), "--x-power", _fmt(p),
            "--format", "json"]
    x = (0.0, t ** p)  # the CLI's spread x_i = i t^p

    def check(out, ctx):
        row = _doc(out)["results"][0]
        bad, errs = [], []
        moment, leading = row["moment"], row["leading"]
        _real(moment, "moment", bad, positive=True)
        rel = oracles.scaled_rel_error(moment["mantissa_re"], moment["log_scale"],
                                       math.log(oracles.two_point_moment(t, *x)))
        errs.append((rel, moment["tail_bound"] + moment["step_estimate"]))
        if not rel <= ERF_TOL:
            bad.append(f"moment off the erf form by {rel:.3e}")
        lead_rel = oracles.scaled_rel_error(leading["mantissa_re"], leading["log_scale"],
                                            oracles.leading_log(t, x))
        if not lead_rel <= LEADING_TOL:
            bad.append(f"leading term off its formula by {lead_rel:.3e}")
        dev = abs(row["ratio"] - 1.0)
        if p <= ASYM_MONOTONE_MAX_P:
            prev = ctx.get(("ratio", p))
            if prev is not None and not dev < prev:
                bad.append(f"|ratio - 1| = {dev:.3e} did not fall from {prev:.3e}")
            ctx[("ratio", p)] = dev
        return bad, errs

    return _cli_op(f"n=2 t={t} p={p:.4f}", argv, check)


def _asymptotics(rng):
    powers = [0.0] + [rng.uniform(lo, hi) for lo, hi in ASYM_P_BANDS]
    ops = [_table_op(t, p) for p in powers for t in ASYM_TIMES]

    def warmup():
        _cli(["asymptotic-table", "--n", "2", "--t-list", "64", "--format", "json"])

    return ops, warmup, {"x_powers": powers, "t_list": list(ASYM_TIMES)}


# --- mc ----------------------------------------------------------------------


def _mc():
    def op(points, target, slack, label):
        def run():
            import bosegas.she_mc as she_mc

            return she_mc.estimate_moment(she_mc.GridSpec(**MC_GRID), points,
                                          MC_REPLICAS, MC_SEED)

        def check(est, ctx):
            dev = abs(est.mean - target)
            allow = 3.0 * est.std_error + slack * target
            bad = [] if dev <= allow else [f"{est.mean!r} is {dev:.3e} from {target!r}, "
                                           f"allowed {allow:.3e}"]
            return bad, [(dev / target, None)]

        return Op(label, run, check,
                  signature=lambda est: (est.mean, est.std_error, est.clip_count))

    t = MC_GRID["t_final"]
    ops = [op((0.0,), oracles.heat_kernel(t, 0.0), 0.0, "n=1"),
           op((0.0, 0.0), oracles.two_point_moment(t, 0.0, 0.0), 0.1, "n=2")]

    def warmup():
        import bosegas.she_mc as she_mc

        she_mc.estimate_moment(she_mc.GridSpec(dx=0.1, dt=0.005, half_width=2.0,
                                               t_final=0.25), (0.0,), 100, 0)

    return ops, warmup, {"grid": MC_GRID, "replicas": MC_REPLICAS, "mc_seed": MC_SEED}


def build(name: str, seed: int) -> Workload:
    rng = random.Random(seed)
    if name == "routes-n3":
        ops, warmup, inputs = _routes_n3(rng)
    elif name == "routes-n4":
        ops, warmup, inputs = _routes_n4(rng)
    elif name == "asymptotics":
        ops, warmup, inputs = _asymptotics(rng)
    elif name == "mc":
        ops, warmup, inputs = _mc()
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(ops, warmup, inputs)
