"""Command-line front end.

Subcommands:
  moment            one moment value, with the per-partition breakdown when
                    the partition route is used
  asymptotic-table  moment / leading-term ratios over a list of times
  verify            self-check suites printing one PASS/FAIL line each

Exit codes: 0 success, 1 failed verification or numerical failure, 2 bad
usage, 3 requested size beyond the supported dimension limits.

Each command builds its records once, as `--format json` prints them, and
`--format csv` is a column view of the same records: every CSV field is a
field of a JSON record (the moment's `term` column is a term's `partition`,
or `total` for the total record).  All floats print with 17 significant
digits; the decimal field is null, an empty CSV field, unless the scaled
value fits in ordinary double range (|log scale| < 300).  Output records end
with a line feed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

import numpy as np

from . import __version__
from .errors import BosegasError, UnsupportedDimensionError
from .kernel import cauchy_determinant
from .moments import (
    MomentRequest,
    asymptotic_ratio,
    auto_cluster_plan,
    cluster_breakdown,
    cluster_integral,
    combine_results,
    moment_nested_contours,
    moment_partition_sum,
)
from .partitions import enumerate_partitions
from .quadrature import QuadratureResult
from .scaled import ScaledComplex
from .spectral import SpacePoints, verify_gap

MOMENT_HEADER = "term,value_mantissa,value_logscale,value_decimal,tail_bound,step_estimate"
TABLE_HEADER = ("t,moment_mantissa,moment_logscale,leading_mantissa,"
                "leading_logscale,ratio,ratio_err")
_MOMENT_COLUMNS = ("partition", "mantissa_re", "log_scale", "decimal", "tail_bound",
                   "step_estimate")
_DECIMAL_LIMIT = 300.0


def _f(v) -> str:
    """One CSV field: a float to 17 significant digits, None empty, text as is."""
    if v is None:
        return ""
    return v if isinstance(v, str) else f"{float(v):.17g}"


def _decimal(value: ScaledComplex):
    if value.is_zero:
        return 0.0
    if abs(value.log_scale) < _DECIMAL_LIMIT:
        return value.to_complex().real
    return None


def _value_record(value: ScaledComplex, result: QuadratureResult | None = None):
    rec = {
        "mantissa_re": value.mantissa.real,
        "mantissa_im": value.mantissa.imag,
        "log_scale": value.log_scale,
        "decimal": _decimal(value),
    }
    if result is not None:
        rec["tail_bound"] = result.tail_bound
        rec["step_estimate"] = result.step_estimate
    return rec


def _write(args, inputs, results, errors, header: str, rows) -> int:
    """Print one command's records: the JSON envelope, or under CSV the
    header and one line per row of values read from those records."""
    if args.format == "json":
        doc = {"inputs": inputs, "results": results, "errors": errors,
               "version": __version__, "seed": None}
        sys.stdout.write(json.dumps(doc) + "\n")
    else:
        lines = [header] + [",".join(map(_f, row)) for row in rows]
        sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _points_from_args(parser, args) -> SpacePoints:
    if args.x is not None:
        if args.n is not None and args.n != len(args.x):
            parser.error(f"--n {args.n} disagrees with {len(args.x)} values in --x")
        return SpacePoints.of(args.x)
    if args.n is None:
        parser.error("provide --x values or --n (for points all at the origin)")
    return SpacePoints.of((0.0,) * args.n)


# --- moment ----------------------------------------------------------------


def _cmd_moment(parser, args) -> int:
    pts = _points_from_args(parser, args)
    if args.route == "nested" and args.epsilon is not None:
        parser.error("--epsilon applies to the partition route only")
    if args.epsilon is not None and pts.n > 1 and not 0.0 < args.epsilon < 1.0 / (pts.n - 1):
        parser.error(f"--epsilon must lie strictly between 0 and 1/(n-1) = "
                     f"{1.0 / (pts.n - 1):.6g} at n={pts.n}, got {args.epsilon}")
    req = MomentRequest(args.t, pts)
    overrides = dict(nodes=args.nodes, half_width=args.half_width)
    if args.route == "partition":
        pieces = cluster_breakdown(req, epsilon=args.epsilon, **overrides)
        total = combine_results(r for _, r in pieces)
    else:
        pieces, total = (), moment_nested_contours(req, **overrides)

    inputs = {"command": "moment", "t": args.t, "x": list(pts.coords), "route": args.route,
              "nodes": args.nodes, "epsilon": args.epsilon, "half_width": args.half_width}
    terms = [dict(partition=str(p), **_value_record(r.value, r)) for p, r in pieces]
    results = {"terms": terms, "total": _value_record(total.value, total)}
    errors = {"tail_bound": total.tail_bound, "step_estimate": total.step_estimate}
    records = terms + [dict(partition="total", **results["total"])]
    return _write(args, inputs, results, errors, MOMENT_HEADER,
                  ([rec[k] for k in _MOMENT_COLUMNS] for rec in records))


# --- asymptotic-table -------------------------------------------------------


def _cmd_table(parser, args) -> int:
    if args.x_power is not None and args.x_power >= 1.0:
        parser.error("--x-power must be < 1 so points stay inside the diffusive window")
    n = args.n
    results = []
    for t in args.t_list:
        if args.x_power is None:
            x = (0.0,) * n
        else:
            x = tuple(i * t ** args.x_power for i in range(n))
        r = asymptotic_ratio(MomentRequest(t, x))
        results.append({
            "t": t,
            "moment": _value_record(r.moment.value, r.moment),
            "leading": _value_record(r.leading),
            "ratio": r.ratio,
            "ratio_err": r.error,
        })
    inputs = {"command": "asymptotic-table", "n": n, "t_list": list(args.t_list),
              "x_power": args.x_power}
    return _write(args, inputs, results, {"note": "ratio_err propagates tail and step estimates"},
                  TABLE_HEADER,
                  ([rec["t"], rec["moment"]["mantissa_re"], rec["moment"]["log_scale"],
                    rec["leading"]["mantissa_re"], rec["leading"]["log_scale"],
                    rec["ratio"], rec["ratio_err"]] for rec in results))


# --- verify ----------------------------------------------------------------


def _check(name: str, ok: bool, detail: str, lines: list[str]) -> bool:
    lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


def _suite_gap(lines: list[str], seed: int) -> bool:
    ok = True
    for n in range(2, 13):
        report = verify_gap(n)
        ok &= _check(f"gap n={n}", report.all_positive,
                     f"min margin {float(report.min_margin):.6g} over "
                     f"{len(report.margins)} lower states", lines)
    return ok


def _suite_routes(lines: list[str], seed: int) -> bool:
    ok = True
    for t, x in ((1.0, (0.0, 0.5)), (0.8, (0.0, 0.3, -0.5))):
        req = MomentRequest(t, x)
        a = moment_partition_sum(req)
        b = moment_nested_contours(req)
        rel = abs(a.value.ratio_to(b.value) - 1.0)
        ok &= _check(f"routes n={len(x)}", rel <= 1e-6,
                     f"partition vs nested rel diff {rel:.3e} (tol 1e-06)", lines)
    return ok


def separated_points(rng, count: int, min_gap: float = 0.3):
    """Random complex points in a box, rejection-sampled to pairwise >= min_gap
    (ill-conditioning of near-coincident Cauchy nodes would otherwise swamp
    the elimination route with legitimate rounding)."""
    while True:
        pts = rng.uniform(-3.0, 3.0, size=count) + 1j * rng.uniform(-3.0, 3.0, size=count)
        gaps = np.abs(pts[:, None] - pts[None, :])
        np.fill_diagonal(gaps, np.inf)
        if gaps.min() >= min_gap:
            return pts


def _suite_determinant(lines: list[str], seed: int) -> bool:
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(2024)))
    worst = 0.0
    for _ in range(200):
        ell = int(rng.integers(1, 7))
        pts = separated_points(rng, 2 * ell)
        u, v = pts[:ell], pts[ell:]
        closed = cauchy_determinant(u, v)
        direct = complex(np.linalg.det(1.0 / (u[:, None] - v[None, :])))
        worst = max(worst, abs(direct - closed) / abs(closed))
    return _check("determinant", worst <= 1e-10,
                  f"elimination vs product form, worst rel diff {worst:.3e} over 200 draws",
                  lines)


def _suite_theta(lines: list[str], seed: int) -> bool:
    ok = True
    t, x = 1.0, (0.0, 0.2, -0.4)
    for p in enumerate_partitions(3):
        base = None
        worst = 0.0
        for eps in (0.05, 0.1):
            plan = auto_cluster_plan(t, p, x, epsilon=eps)
            res = cluster_integral(MomentRequest(t, x, plan=plan), p)
            if base is None:
                base = res.value
            else:
                worst = max(worst, abs(res.value.ratio_to(base) - 1.0))
        ok &= _check(f"theta partition={p}", worst <= 1e-8,
                     f"contour-shift invariance, worst rel diff {worst:.3e}", lines)
    return ok


def _suite_mc(lines: list[str], seed: int) -> bool:
    from .she_mc import GridSpec, estimate_moment

    grid = GridSpec(dx=0.05, dt=0.00125, half_width=3.0, t_final=0.5)
    est = estimate_moment(grid, (0.0,), replicas=2000, seed=seed)
    target = 1.0 / math.sqrt(math.pi)
    dev = abs(est.mean - target)
    ok = dev <= 3.0 * est.std_error
    return _check("mc n=1", ok,
                  f"|{est.mean:.6f} - {target:.6f}| = {dev:.2e} vs 3 s.e. = "
                  f"{3 * est.std_error:.2e} (seed {seed}, clips {est.clip_count})", lines)


# in the order `verify` runs them; every one but mc is deterministic
_SUITES = {"gap": _suite_gap, "routes": _suite_routes, "determinant": _suite_determinant,
           "theta": _suite_theta, "mc": _suite_mc}


def _cmd_verify(parser, args) -> int:
    if args.strict and args.seed is None and args.suite in (None, "mc"):
        parser.error("--strict verification of the mc suite needs an explicit --seed")
    suites = [args.suite] if args.suite else [s for s in _SUITES if s != "mc" or args.strict]
    lines: list[str] = []
    all_ok = True
    for name in suites:
        all_ok &= _SUITES[name](lines, 0 if args.seed is None else args.seed)
    lines.append(f"{'OK' if all_ok else 'FAILED'}: "
                 f"{sum(l.startswith('PASS') for l in lines)}/{len(lines)} checks passed")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0 if all_ok else 1


# --- parser ----------------------------------------------------------------
# Argument types: a value they refuse is a usage error (exit 2), reported
# before any computation starts.


def _argument(parse, ok, need: str):
    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"must be {need}, got {text!r}")
        return value
    return convert


_finite = _argument(float, math.isfinite, "finite")
_positive = _argument(float, lambda v: math.isfinite(v) and v > 0, "positive and finite")
_count = _argument(int, lambda v: v >= 1, "an integer >= 1")
_seed = _argument(int, lambda v: v >= 0, "an integer >= 0")
_nodes = _argument(int, lambda v: v >= 3 and v % 2 == 1, "an odd integer >= 3")


class _Parser(argparse.ArgumentParser):
    """Takes "-1e-3" for a negative number, as it takes "-0.001", and not
    for an option, and so "-inf" and "-nan" too, which the argument types
    then refuse; subparsers are built with the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf(inity)?|nan)$", re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bosegas",
        description="Exact moments of the multiplicative-noise heat equation "
                    "via contour quadrature, with independent cross-checks.",
    )
    parser.add_argument("--version", action="version", version=f"bosegas {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    m = sub.add_parser("moment", help="evaluate one joint moment")
    m.set_defaults(run=_cmd_moment)
    m.add_argument("--t", type=_positive, required=True, help="time, > 0")
    m.add_argument("--n", type=_count, help="number of points (all at 0 unless --x given)")
    m.add_argument("--x", type=_finite, nargs="+", help="evaluation points")
    m.add_argument("--route", choices=("partition", "nested"), default="partition")
    m.add_argument("--epsilon", type=_finite, help="override line offset (partition route)")
    m.add_argument("--nodes", type=_nodes, help="override nodes per line (odd)")
    m.add_argument("--half-width", type=_positive, help="override contour truncation")
    m.add_argument("--format", choices=("csv", "json"), default="csv")

    a = sub.add_parser("asymptotic-table", help="moment vs leading term over times")
    a.set_defaults(run=_cmd_table)
    a.add_argument("--n", type=_count, required=True)
    a.add_argument("--t-list", type=_positive, nargs="+", required=True)
    a.add_argument("--x-power", type=_finite,
                   help="spread points as x_i = i * t**p (p < 1); default all at 0.  The "
                        "leading term omits the centre-of-mass factor exp(-(sum x)^2 / "
                        "(2 n t)), so the ratio tends to 1 only for p < 1/2")
    a.add_argument("--format", choices=("csv", "json"), default="csv")

    v = sub.add_parser("verify", help="run self-check suites")
    v.set_defaults(run=_cmd_verify)
    v.add_argument("--suite", choices=tuple(_SUITES),
                   help="run one suite (default: the deterministic ones, plus mc "
                        "under --strict)")
    v.add_argument("--seed", type=_seed, help="seed for the mc suite")
    v.add_argument("--strict", action="store_true",
                   help="refuse implicit defaults (mc suite then requires --seed)")
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """build_parser() once per process: parsing keeps no state between calls,
    and building costs about a millisecond (argparse makes a help formatter
    per argument)."""
    return build_parser()


def main(argv=None) -> int:
    parser = _shared_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(parser, args)
    except UnsupportedDimensionError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except BosegasError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
