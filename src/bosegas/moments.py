"""Moment evaluation: cluster expansion, nested contours, closed forms.

The n-th joint moment of the stochastic heat equation with delta initial data
is a sum over partitions of n of cluster integrals: each partition lambda
contributes an l(lambda)-fold contour integral of

    (1/mult) * det[1/(w_i + lambda_i - w_j)] * K(w expanded to clusters)

over vertical lines Re w_k = theta + (k-1) eps with 0 < eps < 1/(n-1).  The
same moment also has a single n-fold representation on nested contours whose
abscissas descend by gaps > 1.  Both are computed here and must agree; the
full-cluster term lambda = (n) additionally has a closed Gaussian form that
carries the large-t asymptotics.

The all-singleton term 1+...+1 is the nested integrand itself on the cluster
lines.  With the Cauchy factor of its determinant multiplied in, each pair
ratio of one permutation's term is E/(E - 1), E = w_earlier - w_later, with
no pole at E = 0: every one of the n! terms is the identity's on permuted
lines, and permuting lines that lie within (n-1) eps < 1 of each other
crosses no pole at E = 1.  So the term is one order of _nested_integrand,
line k carrying x_(k), with its poles 1 + (j-i) eps > 1 from the grid;
kernel.cluster_integrand_batch of 1^n, the sum over all n! orders, stays as
its oracle.

Centre of mass: on every term, line k carries exp(lambda_k (t/2) w_k^2 +
b_k w_k + const) and every table depends on w_i - w_j only (the Galilean
invariance of the delta-Bose Hamiltonian, whose centre of mass moves
freely).  With c = sum_k lambda_k w_k / n and B = sum_k b_k = sum x + t
sum_k lambda_k (lambda_k - 1)/2, the same on every interleaving,

    sum_k lambda_k (t/2) w_k^2 + b_k w_k = (n t/2) c^2 + B c
        + sum_{i<j} (t/2n) lambda_i lambda_j (w_i - w_j)^2
        + sum_k (b_k - B lambda_k / n) w_k,

the last linear exponents summing to 0.  The integral over c on a vertical
line is the factor exp(-B^2/(2nt)) / sqrt(2 pi n t), whatever the other
lines do, so both routes integrate it in closed form: the tables take the
relative Gaussian, each line its linear exponent, and line 0 is pinned at
y = 0 (see Pinned line in quadrature), so an l-line term runs on l - 1 grid
lines and the full cluster (n) on none: it is top_cluster_closed_form.  The
partition route places line k at Re w = k eps, line 0 at 0: the relative
lines w_k - w_0 keep their gaps k eps, so the poles keep their distances,
and a plan's theta reaches no value.

Plans: given no explicit ContourPlan the integration grid is sized
automatically from what the integrand is known to do — the relative
Gaussian's marginal decay rate of each grid line fixes the truncation T,
and the analyticity strip (the summed kernel is entire; only cluster-matrix
poles at vertical distance min |lambda_i - (j-i) eps| remain) fixes the
node spacing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NearSingularityError, NumericsError, UnsupportedDimensionError
from .kernel import DEFAULT_MIN_SEPARATION, _relative_gaussian, cluster_integrand_batch
from .partitions import Partition, enumerate_partitions
from .quadrature import (
    MAX_LINES,
    ContourPlan,
    Interleavings,
    QuadratureResult,
    _node_differences,
    check_grid_size,
    integrate_tensor,
)
from .scaled import ScaledComplex
from .spectral import (SpacePoints, log_ground_state, lyapunov_exponent, optimal_theta,
                       sorted_pairing_exponent)

MAX_TOP_SIZE = 9  # single full-cluster integral
TAIL_TOL = 1e-12
TAIL_SAFETY = 20.0  # log-margin absorbing non-Gaussian prefactors
_STEP_TOL = {1: 1e-16, 2: 1e-14, 3: 1e-10, 4: 3e-7}
_MIN_NODES = 65
_MIN_NORMAL = 2.0 ** -1022  # the smallest double with a full 53-bit mantissa


@dataclass(frozen=True)
class MomentRequest:
    """A moment evaluation target: time t, points x, optional explicit plan."""

    t: float
    x: SpacePoints
    plan: ContourPlan | None = None

    def __post_init__(self):
        if not (math.isfinite(self.t) and self.t > 0):
            raise ValueError(f"t must be positive and finite, got {self.t}")
        object.__setattr__(self, "x", SpacePoints.of(self.x))

    @property
    def n(self) -> int:
        return self.x.n


def _refuse_plan_and_overrides(req: MomentRequest, overrides):
    """A route sizes its own plan from the overrides, or takes req.plan as is."""
    if req.plan is not None and any(v is not None for v in overrides.values()):
        raise ValueError("give req.plan or plan overrides, not both")


def default_epsilon(n: int) -> float:
    """Cluster-line offset: safely inside (0, 1/(n-1)), capped at 0.1."""
    if n < 2:
        return 0.0
    return min(1.0 / (2.0 * (n - 1)), 0.1)


def _line_rates(t: float, parts) -> tuple:
    """Per line, the Gaussian decay rate of a term whose centre of mass is
    integrated in closed form with line 0 pinned: line k >= 1 decays at the
    marginal rate (t/2) lam_k lam_0 / (lam_k + lam_0) of the relative
    Gaussian (one over the diagonal of its inverse, which holds 2/(t lam_k)
    + 2/(t lam_0)), and line 0 at n t/2, the centre of mass's."""
    lam0 = parts[0]
    return (0.5 * t * sum(parts),) + tuple(0.5 * t * lam * lam0 / (lam + lam0)
                                           for lam in parts[1:])


def _plan_rates(t: float, parts) -> tuple:
    """The decay rates that size a term's plan: its grid lines', or for a
    single line, pinned and summed on no grid, its own (_line_rates)."""
    rates = _line_rates(t, parts)
    return rates[1:] or rates


def _grid_size(lines: int, rates, pole_distance: float, nodes=None, half_width=None):
    """(half_width, nodes) for a plan of `lines` lines whose grid lines
    decay at `rates`, keeping either one given.  T puts the slowest line's
    tail below TAIL_TOL, TAIL_SAFETY nats to spare.  The spacing is the
    largest meeting the step tolerance of that many lines (of MAX_LINES,
    beyond it) for both error mechanisms, the fastest decay and the nearest
    pole; N is the odd node count, at least _MIN_NODES, that covers [-T, T]
    at that spacing.  Raises NumericsError for a decay rate below the normal
    floats, which has lost bits, or a T beyond them, as a subnormal t gives."""
    if not min(rates) >= _MIN_NORMAL:
        raise NumericsError(f"Gaussian decay rate {min(rates):.6g} underflows; t is too small")
    if half_width is None:
        half_width = math.sqrt((math.log(1.0 / TAIL_TOL) + TAIL_SAFETY) / min(rates))
        if not math.isfinite(half_width):
            raise NumericsError(f"half-width for the Gaussian decay rate {min(rates):.6g} "
                                f"overflows; t is too small")
    if nodes is None:
        log_tol = math.log(1.0 / _STEP_TOL[min(lines, MAX_LINES)])
        h = math.pi / math.sqrt(max(rates) * log_tol)
        if pole_distance != math.inf:
            h = min(h, 2.0 * math.pi * pole_distance / log_tol)
        nodes = max(math.ceil(2.0 * half_width / h + 1.0), _MIN_NODES)
        nodes += 1 - nodes % 2
    return half_width, nodes


def cluster_pole_distance(p: Partition, eps: float) -> float:
    """Vertical distance from the contour product to the nearest cluster-matrix
    pole: min over i != j of |lambda_i - (j - i) eps|.  inf for one line.

    The poles sit at fixed values of w_i - w_j, so integrating the centre
    of mass in closed form leaves these distances as they are: the relative
    line w_k - w_0 lies at the gap (k - 0) eps from the pinned one.

    For 1+...+1 this is 1 - (n-1) eps, a pole of the kernel's sum over
    orders that the route no longer forms: its one nested order has its
    poles 1 + (j - i) eps away, so those plans are sized for a nearer pole
    than the integrand has."""
    if p.length < 2:
        return math.inf
    best = math.inf
    for i, lam in enumerate(p.parts, start=1):
        for j in range(1, p.length + 1):
            if j != i:
                best = min(best, abs(lam - (j - i) * eps))
    return best


def auto_cluster_plan(t: float, p: Partition, x, nodes: int | None = None,
                      theta: float | None = None, epsilon: float | None = None,
                      half_width: float | None = None) -> ContourPlan:
    """Size a contour plan for one cluster integral.

    theta defaults to the envelope-minimizing abscissa shifted by -sum(x)/(nt),
    which centers the dominant Gaussian saddle for off-origin points.  The
    route ignores it (see cluster_integral); the tests' oracle forms, which
    sum every line on the grid, need their lines on that saddle.
    """
    pts = SpacePoints.of(x)
    n = p.n
    eps = default_epsilon(n) if epsilon is None else float(epsilon)
    if theta is None:
        theta = float(optimal_theta(p)) - sum(pts.coords) / (n * t)
    half_width, nodes = _grid_size(p.length, _plan_rates(t, p.parts),
                                   cluster_pole_distance(p, eps), nodes, half_width)
    return ContourPlan(theta=float(theta), epsilon=eps, half_width=float(half_width),
                       nodes_per_line=int(nodes))


def cluster_integral(req: MomentRequest, p: Partition) -> QuadratureResult:
    """One partition's contour integral (the term nu_lambda of the expansion).

    The full cluster (n) is top_cluster_closed_form, with no error, and
    takes no plan.  Any other term is integrated on req.plan, or on
    auto_cluster_plan's, with line k at Re w = k epsilon: its integrand
    depends on the lines only through their gaps, so the plan's theta is
    not read.
    """
    if p.n != req.n:
        raise ValueError(f"partition of {p.n} against {req.n} points")
    if p.length > MAX_LINES:
        raise UnsupportedDimensionError(
            f"tensor quadrature supports at most {MAX_LINES} contour lines, "
            f"partition {p} needs {p.length}"
        )
    if p.n > MAX_TOP_SIZE:
        raise UnsupportedDimensionError(f"cluster integrals support n <= {MAX_TOP_SIZE}")
    if p.length == 1:
        return QuadratureResult(top_cluster_closed_form(req.t, req.x), 0.0, 0.0)
    plan = req.plan or auto_cluster_plan(req.t, p, req.x)
    hi = 1.0 / (p.n - 1)
    if not (0.0 < plan.epsilon < hi):
        raise ValueError(
            f"need 0 < epsilon < 1/(n-1) = {hi:.6g} for {p.length} lines at n={p.n}, "
            f"got {plan.epsilon}"
        )
    if p.parts[0] == 1:
        # 1+...+1: one order of the nested integrand (see the module docstring)
        f = _nested_integrand(req.t, np.asarray(req.x.ordered))
    else:
        f = cluster_integrand_batch(req.t, req.x, p)
    return integrate_tensor(f, plan, p.length, decay_rates=_line_rates(req.t, p.parts),
                            abscissas=[plan.epsilon * k for k in range(p.length)])


def cluster_breakdown(req: MomentRequest,
                      **overrides) -> tuple[tuple[Partition, QuadratureResult], ...]:
    """Every partition's integral, enumeration order (full cluster first).

    Each partition of two or more parts takes req.plan, or auto_cluster_plan
    sized with the overrides it takes (nodes, theta, epsilon, half_width).
    Every plan is checked against the array limit before any integral is
    computed, so an oversize grid fails at once.  The full cluster's term is
    the closed form: it is given no plan, and nothing is sized or checked
    for it.
    """
    if req.n > MAX_LINES:  # the partition 1+...+1 takes n lines
        raise UnsupportedDimensionError(
            f"full partition sum supports n <= {MAX_LINES}, got n={req.n}"
        )
    _refuse_plan_and_overrides(req, overrides)
    plans = [(p, req.plan or auto_cluster_plan(req.t, p, req.x, **overrides)
              if p.length > 1 else None) for p in enumerate_partitions(req.n)]
    for p, plan in plans:
        if plan is not None:
            check_grid_size(plan, p.length)
    return tuple((p, cluster_integral(MomentRequest(req.t, req.x, plan), p))
                 for p, plan in plans)


def combine_results(pieces) -> QuadratureResult:
    """Sum scaled values; error estimates combine additively in absolute terms."""
    total = ScaledComplex.zero()
    tail_abs = ScaledComplex.zero()
    step_abs = ScaledComplex.zero()
    for piece in pieces:
        total = total + piece.value
        mag = ScaledComplex(abs(piece.value.mantissa), piece.value.log_scale)
        tail_abs = tail_abs + mag * piece.tail_bound
        step_abs = step_abs + mag * piece.step_estimate
    if total.is_zero:
        return QuadratureResult(total, 0.0, 0.0)
    return QuadratureResult(
        value=total,
        tail_bound=tail_abs.ratio_to(total) if not tail_abs.is_zero else 0.0,
        step_estimate=step_abs.ratio_to(total) if not step_abs.is_zero else 0.0,
    )


def moment_partition_sum(req: MomentRequest) -> QuadratureResult:
    """The moment as the sum of all cluster integrals."""
    return combine_results(result for _, result in cluster_breakdown(req))


def top_cluster_integral(req: MomentRequest) -> QuadratureResult:
    """Only the full-cluster term lambda = (n), to n = 9: its one line is
    the centre of mass, so it is the closed form, with no error, and
    req.plan is not read."""
    return cluster_integral(req, Partition((req.n,)))


def heat_kernel(t: float, x: float) -> float:
    """The n = 1 moment: e^{-x^2/(2t)} / sqrt(2 pi t)."""
    return math.exp(-x * x / (2.0 * t)) / math.sqrt(2.0 * math.pi * t)


def _erfcx(u: float) -> float:
    """e^{u^2} erfc(u), the scaled complementary error function, to a few
    ulps: erfc(u) e^{u^2} up to u = 26, with u^2 split exactly into hi + lo
    (Dekker) so that e^{u^2} carries no rounding of u^2, and beyond, where
    erfc(u) underflows, its asymptotic series
    1/(u sqrt(pi)) sum_k (-1)^k (2k-1)!! / (2u^2)^k."""
    if u <= 26.0:
        hi = u * u
        big = u * 134217729.0  # 2^27 + 1
        uh = big - (big - u)
        ul = u - uh
        lo = ((uh * uh - hi) + 2.0 * uh * ul) + ul * ul
        return math.erfc(u) * math.exp(hi) * (1.0 + lo)
    total, term, k = 1.0, 1.0, 1
    while abs(term) > 1e-17:
        term *= -(2 * k - 1) / (2.0 * u * u)
        total += term
        k += 1
    return total / (u * math.sqrt(math.pi))


def two_point_moment(t: float, x1: float, x2: float) -> float:
    """The n = 2 moment in erf form, from writing the pair factor as a
    Laplace transform, which splits the double contour integral into heat
    kernels.  With beta = 1 - |x2 - x1| / t,

        e^{-(x1^2 + x2^2)/(2t)} / (2 pi t)
        * [1 + (sqrt(pi t)/2) e^{beta^2 t/4} (1 + erf(beta sqrt(t)/2))].

    The bracket is evaluated as 1 + (sqrt(pi t)/2) erfcx(-beta sqrt(t)/2),
    erfcx(u) = e^{u^2} erfc(u): at large separation 1 + erf cancels, and
    e^{beta^2 t/4} would magnify what is left.  Plain floats, so it
    underflows once the Gaussian factor does.
    """
    beta = 1.0 - abs(x2 - x1) / t
    gauss = math.exp(-(x1 * x1 + x2 * x2) / (2.0 * t)) / (2.0 * math.pi * t)
    return gauss * (1.0 + 0.5 * math.sqrt(math.pi * t) * _erfcx(-0.5 * beta * math.sqrt(t)))


def top_cluster_closed_form(t: float, x) -> ScaledComplex:
    """Exact Gaussian evaluation of the full-cluster integral:

    (n-1)!/sqrt(2 pi n t) * exp( n(n^2-1)/24 t + sum_i x_(i)((n+1)/2 - i)
                                 - (sum x)^2 / (2 n t) ).

    Raises NumericsError where that exponent is not finite, as when (sum
    x)^2 overflows.
    """
    pts = SpacePoints.of(x)
    n = pts.n
    s = sum(pts.coords)
    log = (
        float(lyapunov_exponent(n)) * t
        + sorted_pairing_exponent(pts)
        - s * s / (2.0 * n * t)
        + math.lgamma(n)
        - 0.5 * math.log(2.0 * math.pi * n * t)
    )
    if not math.isfinite(log):
        raise NumericsError(f"full-cluster closed form not finite: log {log}")
    return ScaledComplex.from_log(log)


def leading_asymptotic(t: float, x) -> ScaledComplex:
    """Large-t leading term: (n-1)!/sqrt(2 pi n t) e^{L_n t} * ground-state factor.

    It omits the centre-of-mass factor exp(-(sum x)^2 / (2 n t)): for points
    x_i = i t^p the moment / leading ratio tends to 1 only for p < 1/2.
    """
    pts = SpacePoints.of(x)
    n = pts.n
    log = (
        float(lyapunov_exponent(n)) * t
        + log_ground_state(pts)
        + math.lgamma(n)
        - 0.5 * math.log(2.0 * math.pi * n * t)
    )
    return ScaledComplex.from_log(log)


# --- nested-contour route -------------------------------------------------

DEFAULT_NESTED_SPACING = 1.5


def default_abscissas(n: int, t: float, x):
    """Descending abscissas DEFAULT_NESTED_SPACING apart, centered on the saddle.

    Raises NumericsError where rounding at the saddle's magnitude leaves two
    of them no more than 1 apart, as the nested route needs.
    """
    pts = SpacePoints.of(x)
    raw = [(n - k) * DEFAULT_NESTED_SPACING for k in range(1, n + 1)]
    shift = -(sum(raw) / n + sum(pts.coords) / (n * t))
    a = tuple(r + shift for r in raw)
    if not all(a[i] - a[i + 1] > 1.0 for i in range(n - 1)):
        raise NumericsError(f"default nested abscissas lose their spacing "
                            f"{DEFAULT_NESTED_SPACING} to rounding at the saddle {shift:.6g}")
    return a


def _nested_integrand(t, x_sorted, pinned=True):
    """Factored nested integrand: line k carries exp(t/2 w^2 + x_(k) w), each
    pair i < j the table (w_i - w_j)/(w_i - w_j - 1).

    Pinned (the default), its centre of mass is integrated in closed form
    (see the module docstring): line k carries exp((x_(k) - sum x / n) w),
    the tables the relative Gaussian (kernel._relative_gaussian), and line 0
    is pinned.  pinned=False sums every line on the grid: the tests' oracle.

    f relies on the grid invariant of quadrature: Z[k] = re_k + 1j*y on one
    shared uniform y.  Each table and its pole check are then formed once
    per node offset, 2N-1 values, and the tables returned as one stack of
    offset vectors.
    """
    npts = len(x_sorted)
    pairs = tuple((i, j) for i in range(npts) for j in range(i + 1, npts))
    lower, upper = (np.array([pair[s] for pair in pairs], dtype=int) for s in (0, 1))
    x_col = np.asarray(x_sorted, dtype=float)[:, None]
    if pinned:
        total = sum(x_sorted)
        x_col = x_col - total / npts
        relative = _relative_gaussian(t, (1,) * npts, pairs, total)

    def f(Z):
        exps = x_col * Z if pinned else (0.5 * t) * (Z * Z) + x_col * Z
        d = _node_differences(Z[lower], Z[upper])
        den = d - 1.0
        # poles sit at pair gaps of exactly 1; the plan keeps them at
        # vertical distance |gap - 1| but vet every node offset anyway
        closest = float(np.min(np.abs(den))) if pairs else math.inf
        if closest < DEFAULT_MIN_SEPARATION:
            raise NearSingularityError(
                f"nested contours came within {closest:.3e} of a pole "
                f"(floor {DEFAULT_MIN_SEPARATION:.1e})"
            )
        tables, log = d / den, 0.0
        if pinned:
            gauss, log = relative(d)
            tables *= gauss
        return Interleavings.product(exps, pairs, tables, log_scale=log,
                                     pinned=0 if pinned else None)

    return f


def auto_nested_plan(t: float, abscissas, nodes: int | None = None,
                     half_width: float | None = None) -> ContourPlan:
    """Grid sized from the pole distance min |gap - 1| and the decay rate
    t/4 of each grid line once the centre of mass is integrated out."""
    a = tuple(float(v) for v in abscissas)
    n = len(a)
    dist = min((abs((a[i] - a[j]) - 1.0) for i in range(n) for j in range(i + 1, n)),
               default=math.inf)
    half_width, nodes = _grid_size(n, _plan_rates(t, (1,) * n), dist, nodes, half_width)
    return ContourPlan(theta=a[0], epsilon=(a[1] - a[0]) if n > 1 else 0.0,
                       half_width=half_width, nodes_per_line=int(nodes))


def moment_nested_contours(req: MomentRequest, abscissas=None, **overrides) -> QuadratureResult:
    """The moment as one n-fold integral over strictly nested contours, on
    req.plan or on auto_nested_plan sized with its overrides (nodes, half_width).

    The lines always sit at `abscissas` (default_abscissas unless given), so
    a req.plan contributes only its half_width and nodes_per_line: its theta
    and epsilon are ignored.
    """
    n = req.n
    if n > MAX_LINES:  # one line per point
        raise UnsupportedDimensionError(
            f"nested contours support n <= {MAX_LINES}, got n={n}"
        )
    _refuse_plan_and_overrides(req, overrides)
    if abscissas is None:
        abscissas = default_abscissas(n, req.t, req.x)
    a = tuple(float(v) for v in abscissas)
    if len(a) != n:
        raise ValueError(f"need {n} abscissas, got {len(a)}")
    for i in range(n - 1):
        if not a[i] - a[i + 1] > 1.0:
            raise ValueError(
                f"abscissas must descend with gaps > 1; a[{i}]={a[i]:.6g} vs a[{i + 1}]={a[i + 1]:.6g}"
            )
    plan = req.plan or auto_nested_plan(req.t, a, **overrides)
    x_sorted = np.asarray(req.x.ordered)
    f = _nested_integrand(req.t, x_sorted)
    return integrate_tensor(f, plan, n, decay_rates=_line_rates(req.t, (1,) * n), abscissas=a)


# --- asymptotic comparison ------------------------------------------------


@dataclass(frozen=True)
class RatioResult:
    """|moment| / |leading asymptotic| with the moment's propagated error."""

    ratio: float
    error: float
    moment: QuadratureResult
    leading: ScaledComplex


def asymptotic_ratio(req: MomentRequest) -> RatioResult:
    moment = moment_partition_sum(req)
    lead = leading_asymptotic(req.t, req.x)
    ratio = math.exp(moment.value.abs_log() - lead.abs_log())
    err = ratio * (moment.tail_bound + moment.step_estimate)
    return RatioResult(ratio=ratio, error=err, moment=moment, leading=lead)
