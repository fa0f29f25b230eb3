"""Moment routes against closed-form anchors.

The n = 1 moment is the heat kernel and the n = 2 moment has an erf closed
form (moments.heat_kernel, moments.two_point_moment).  Neither anchor touches
the quadrature or kernel code, so agreement of both routes with them checks
the whole convention stack (pairing order, cluster determinant,
multiplicities, prefactors) at once.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import bosegas.moments as moments
import bosegas.quadrature as quadrature
from bosegas.errors import NearSingularityError, NumericsError, UnsupportedDimensionError
from bosegas.kernel import cluster_integrand_batch
from bosegas.moments import (
    MAX_TOP_SIZE,
    MomentRequest,
    RatioResult,
    asymptotic_ratio,
    auto_cluster_plan,
    auto_nested_plan,
    cluster_breakdown,
    cluster_integral,
    cluster_pole_distance,
    combine_results,
    default_abscissas,
    default_epsilon,
    heat_kernel,
    leading_asymptotic,
    moment_nested_contours,
    moment_partition_sum,
    top_cluster_closed_form,
    top_cluster_integral,
    two_point_moment,
)
from bosegas.partitions import Partition, enumerate_partitions
from bosegas.quadrature import ContourPlan, QuadratureResult, integrate_tensor
from bosegas.scaled import ScaledComplex, rel_diff
from bosegas.scaled import ScaledComplex


def rel_to(result: QuadratureResult, target: float) -> float:
    got = result.value.to_complex()
    assert abs(got.imag) <= 1e-10 * abs(got.real)
    return abs(got.real - target) / abs(target)


# --- n = 1: both routes are the heat kernel -------------------------------


@pytest.mark.parametrize("t", [0.5, 2.0])
@pytest.mark.parametrize("x", [0.0, 1.0, -2.0])
def test_partition_route_n1_heat_kernel(t, x):
    res = moment_partition_sum(MomentRequest(t, (x,)))
    assert rel_to(res, heat_kernel(t, x)) <= 1e-10


@pytest.mark.parametrize("t", [0.5, 2.0])
@pytest.mark.parametrize("x", [0.0, 1.0, -2.0])
def test_nested_route_n1_heat_kernel(t, x):
    res = moment_nested_contours(MomentRequest(t, (x,)))
    assert rel_to(res, heat_kernel(t, x)) <= 1e-10


def test_closed_form_n1_is_heat_kernel():
    for t in (0.3, 1.0, 7.0):
        for x in (0.0, -1.3, 2.4):
            got = top_cluster_closed_form(t, (x,)).to_complex().real
            assert got == pytest.approx(heat_kernel(t, x), rel=1e-14)


# --- full-cluster integral against its Gaussian evaluation ----------------


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("t", [0.5, 2.0])
def test_top_cluster_quadrature_matches_closed_form(n, t):
    for x in [(0.0,) * n, tuple(float(i) for i in range(n))]:
        req = MomentRequest(t, x)
        got = top_cluster_integral(req)
        want = top_cluster_closed_form(t, x)
        assert abs(got.value.ratio_to(want) - 1.0) <= 1e-10
        # value is a positive real times a tiny imaginary residue
        assert got.value.real_sign == 1


def test_top_cluster_closed_form_growth():
    # t -> t + 10 at x = 0 adds L_3 * 10 to the log, minus the sqrt(t) drift
    lo = top_cluster_closed_form(10.0, (0.0, 0.0, 0.0)).abs_log()
    hi = top_cluster_closed_form(20.0, (0.0, 0.0, 0.0)).abs_log()
    assert (hi - lo) == pytest.approx(10.0 * 1.0 - 0.5 * math.log(2.0), rel=1e-12)


# --- n = 2: erf closed form pins both routes ------------------------------


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("pts", [(0.0, 0.0), (-0.7, 0.4), (1.0, 1.0)])
def test_two_point_exact_partition_route(t, pts):
    res = moment_partition_sum(MomentRequest(t, pts))
    assert rel_to(res, two_point_moment(t, *pts)) <= 1e-8


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("pts", [(0.0, 0.0), (-0.7, 0.4), (1.0, 1.0)])
def test_two_point_exact_nested_route(t, pts):
    res = moment_nested_contours(MomentRequest(t, pts))
    assert rel_to(res, two_point_moment(t, *pts)) <= 1e-8


def test_two_point_breakdown_structure():
    req = MomentRequest(1.0, (0.0, 0.0))
    pieces = cluster_breakdown(req)
    assert [p.parts for p, _ in pieces] == [(2,), (1, 1)]
    # the full-cluster piece alone reproduces its closed form
    assert abs(pieces[0][1].value.ratio_to(top_cluster_closed_form(1.0, (0.0, 0.0))) - 1) <= 1e-10
    total = combine_results(r for _, r in pieces)
    assert rel_to(total, two_point_moment(1.0, 0.0, 0.0)) <= 1e-8


def test_breakdown_refuses_oversize_grid_before_any_integrand(monkeypatch):
    built = []

    def counting(real):
        def build(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)
        return build

    # 1+...+1 is built by _nested_integrand, every other partition by the kernel
    for name in ("cluster_integrand_batch", "_nested_integrand"):
        monkeypatch.setattr(moments, name, counting(getattr(moments, name)))
    # only 1+1+1+1 is too large, and it comes last in enumeration order
    with pytest.raises(NumericsError, match="beyond the limit"):
        cluster_breakdown(MomentRequest(1.0, (0.0,) * 4), nodes=2001)
    assert built == []
    # the full cluster is its closed form and builds no integrand
    cluster_breakdown(MomentRequest(1.0, (0.0, 0.0)), nodes=65)
    assert len(built) == 1


def test_overrides_reach_the_planners():
    req = MomentRequest(2.0, (0.0, 0.5, 1.0))
    for p, res in cluster_breakdown(req, nodes=71, theta=0.1, epsilon=0.05):
        plan = auto_cluster_plan(2.0, p, req.x, nodes=71, theta=0.1, epsilon=0.05)
        assert res == cluster_integral(MomentRequest(2.0, req.x, plan), p)
    plan = auto_nested_plan(2.0, default_abscissas(3, 2.0, req.x), nodes=71, half_width=7.0)
    assert (moment_nested_contours(req, nodes=71, half_width=7.0)
            == moment_nested_contours(MomentRequest(2.0, req.x, plan)))


def test_plan_and_overrides_are_exclusive():
    plan = ContourPlan(theta=0.0, epsilon=0.1, half_width=8.0, nodes_per_line=65)
    req = MomentRequest(1.0, (0.0, 0.0), plan=plan)
    with pytest.raises(ValueError, match="not both"):
        cluster_breakdown(req, nodes=65)
    with pytest.raises(ValueError, match="not both"):
        moment_nested_contours(req, half_width=6.0)


# --- n = 3: route against route -------------------------------------------


def test_three_point_routes_agree():
    req = MomentRequest(0.8, (0.0, 0.3, -0.5))
    a = moment_partition_sum(req)
    b = moment_nested_contours(req)
    assert abs(a.value.ratio_to(b.value) - 1.0) <= 1e-8


# --- asymptotic ratio -----------------------------------------------------


def test_ratio_n1_closed_relation():
    # for a single point the ratio is exactly exp(-x^2/(2t))
    for t, x in [(1.0, 0.0), (2.0, 1.0)]:
        r = asymptotic_ratio(MomentRequest(t, (x,)))
        assert isinstance(r, RatioResult)
        assert r.ratio == pytest.approx(math.exp(-x * x / (2.0 * t)), rel=1e-9)
        assert 0.0 <= r.error < 1e-6


def test_ratio_n2_matches_erf_form_and_tightens():
    gaps = []
    for t in (5.0, 8.0):
        r = asymptotic_ratio(MomentRequest(t, (0.0, 0.0)))
        exact = two_point_moment(t, 0.0, 0.0) / leading_asymptotic(t, (0.0, 0.0)).to_complex().real
        assert r.ratio == pytest.approx(exact, rel=1e-8)
        assert r.ratio > 1.0
        gaps.append(r.ratio - 1.0)
    assert gaps[1] < gaps[0]


def test_leading_asymptotic_frozen_values():
    # n = 2, x = 0, t = 4: e^{1} / sqrt(16 pi)
    want = math.exp(1.0) / math.sqrt(16.0 * math.pi)
    got = leading_asymptotic(4.0, (0.0, 0.0)).to_complex().real
    assert got == pytest.approx(want, rel=1e-14)
    # separated points only change the pair factor e^{-|dx|/2} per pair
    base = leading_asymptotic(4.0, (0.0, 0.0)).abs_log()
    moved = leading_asymptotic(4.0, (0.0, 3.0)).abs_log()
    assert moved - base == pytest.approx(-1.5, abs=1e-12)


# --- planning helpers ------------------------------------------------------


def test_default_epsilon_bounds():
    assert default_epsilon(1) == 0.0
    assert default_epsilon(2) == 0.1
    assert default_epsilon(6) == 0.1
    assert default_epsilon(7) == pytest.approx(1.0 / 12.0)
    for n in range(2, 30):
        assert 0.0 < default_epsilon(n) < 1.0 / (n - 1)


def test_cluster_pole_distance_values():
    assert cluster_pole_distance(Partition((3,)), 0.1) == math.inf
    assert cluster_pole_distance(Partition((1, 1)), 0.1) == pytest.approx(0.9)
    assert cluster_pole_distance(Partition((1, 1, 1)), 0.1) == pytest.approx(0.8)
    assert cluster_pole_distance(Partition((2, 1)), 0.1) == pytest.approx(1.1)


def test_auto_cluster_plan_shape():
    plan = auto_cluster_plan(1.0, Partition((2, 1)), (0.0, 0.0, 3.0))
    assert plan.nodes_per_line % 2 == 1 and plan.nodes_per_line >= 65
    # envelope-minimizing abscissa -1/3 shifted by -sum(x)/(n t) = -1
    assert plan.theta == pytest.approx(-4.0 / 3.0)
    assert plan.epsilon == pytest.approx(0.1)
    explicit = auto_cluster_plan(1.0, Partition((2, 1)), (0.0,) * 3, nodes=91, theta=0.25)
    assert explicit.nodes_per_line == 91 and explicit.theta == 0.25


def test_default_abscissas_frozen():
    a = default_abscissas(3, 1.0, (0.0, 0.0, 0.0))
    assert a == pytest.approx((1.5, 0.0, -1.5))
    b = default_abscissas(3, 1.0, (0.0, 0.0, 3.0))
    assert b == pytest.approx((0.5, -1.0, -2.5))


def test_auto_nested_plan_uses_pole_gap():
    wide = auto_nested_plan(1.0, (1.5, 0.0))
    tight = auto_nested_plan(1.0, (1.1, 0.0))
    assert tight.nodes_per_line > 3 * wide.nodes_per_line
    assert wide.nodes_per_line % 2 == 1


def test_five_line_plans_take_the_four_line_tolerance():
    # the routes stop at four lines, but the planners size five-line grids
    # too, at the four-line step tolerance: the N that sizes n = 5 work
    a = default_abscissas(5, 1.0, (0.0,) * 5)
    assert auto_nested_plan(1.0, a).nodes_per_line == 133
    assert auto_cluster_plan(1.0, Partition((1,) * 5), (0.0,) * 5).nodes_per_line == 111


# --- guard rails -----------------------------------------------------------


def test_epsilon_validation_against_cluster_bound():
    req = MomentRequest(1.0, (0.0, 0.0, 0.0),
                        plan=ContourPlan(theta=-1.0, epsilon=0.6, half_width=8.0,
                                         nodes_per_line=65))
    with pytest.raises(ValueError, match="epsilon"):
        cluster_integral(req, Partition((2, 1)))


@pytest.mark.parametrize("parts", [(2, 1)], ids=["2+1"])
def test_partition_route_refuses_nodes_at_a_cross_ratio_pole(parts):
    # lines 1e-10 apart put same-height nodes of two clusters within 1e-10 of
    # a cross-ratio pole, below DEFAULT_MIN_SEPARATION
    p = Partition(parts)
    x = (0.0, 0.3, -0.5)
    req = MomentRequest(1.0, x, plan=auto_cluster_plan(1.0, p, x, epsilon=1e-10))
    with pytest.raises(NearSingularityError, match=r"clusters \d,\d"):
        cluster_integral(req, p)


def test_singleton_term_forms_no_cross_ratio_pole():
    # 1+1+1 is the nested integrand on the cluster lines, with poles at pair
    # gaps of 1 only: lines 1e-10 apart put none on the grid
    p = Partition((1, 1, 1))
    x = (0.0, 0.3, -0.5)
    near = cluster_integral(
        MomentRequest(1.0, x, plan=auto_cluster_plan(1.0, p, x, epsilon=1e-10)), p)
    ref = cluster_integral(MomentRequest(1.0, x), p)
    assert rel_diff(near.value, ref.value) <= near.tail_bound + near.step_estimate


def test_five_point_four_line_partition_pinned():
    # n = 5 with four lines, three of them on the grid: the one place a
    # placement leaves three grid lines open before any is summed out, and
    # where the pinned line may close first.  Value recorded from a sweep
    # over every node of the same default 73-node plan, line 0 at y = 0.
    res = cluster_integral(MomentRequest(1.0, (0.0,) * 5), Partition((2, 1, 1, 1)))
    want = ScaledComplex(0.7051740980569503 - 1.734723475976807e-17j, -6.238324625039508)
    assert rel_diff(res.value, want) <= 1e-12


# --- 1+...+1: one order of the nested integrand ----------------------------


@pytest.mark.parametrize("t", [1.0, 32.0])
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("where", ["origin", "spread"])
def test_singleton_term_matches_the_kernel_sum_over_orders(t, n, where):
    # the route's 1^n term against the kernel's sum over all n! orders, the
    # oracle, on the same lines at twice the node density
    x = (0.0,) * n if where == "origin" else (0.1, -0.3, 0.5, 0.2)[:n]
    p = Partition((1,) * n)
    got = cluster_integral(MomentRequest(t, x), p)
    plan = auto_cluster_plan(t, p, x)
    fine = dataclasses.replace(plan, nodes_per_line=2 * plan.nodes_per_line - 1)
    want = integrate_tensor(cluster_integrand_batch(t, x, p), fine, n,
                            decay_rates=(t / 2.0,) * n)
    tol = got.tail_bound + got.step_estimate + want.tail_bound + want.step_estimate
    if max(got.step_estimate, want.step_estimate) <= 1e-12:
        tol = max(tol, 1e-12)  # both at roundoff
    assert rel_diff(got.value, want.value) <= tol


# relative distance of the n = 2 partition total from the erf form as
# measured with 1+1 summed over both orders of the kernel; its one nested
# order must do no worse
TWO_POINT_ERF_MISS = [
    ((0.0, 0.0), 0.5, 2.991599534340192e-15),
    ((0.0, 0.0), 1.0, 3.321494294730077e-15),
    ((0.0, 0.0), 5.0, 2.483187577387478e-16),
    ((0.1, -0.3), 0.5, 3.0975835798464355e-15),
    ((0.1, -0.3), 1.0, 3.20466064642437e-15),
    ((0.1, -0.3), 5.0, 1.5205086610593607e-16),
]


@pytest.mark.parametrize("x,t,miss", TWO_POINT_ERF_MISS)
def test_two_point_total_no_farther_from_erf_form(x, t, miss):
    assert rel_to(moment_partition_sum(MomentRequest(t, x)), two_point_moment(t, *x)) <= miss


def test_singleton_terms_take_one_elimination_per_grid(monkeypatch):
    # one order: a single path through the recursion, on n - 1 grid lines
    # once the centre of mass is integrated out: 1+1+1 runs on two lines,
    # 1+1+1+1 on three, with one three-line start step per grid (full and
    # coarse) and no four-line elimination
    calls = {"four": 0, "three": 0}
    real_four, real_three = quadrature._eliminate_four, quadrature._start_three

    def four(*args):
        calls["four"] += 1
        return real_four(*args)

    def three(open_, steps, *args):
        calls["three"] += len(steps)
        return real_three(open_, steps, *args)

    monkeypatch.setattr(quadrature, "_eliminate_four", four)
    monkeypatch.setattr(quadrature, "_start_three", three)
    for n in (3, 4):
        p = Partition((1,) * n)
        x = (0.1, -0.3, 0.5, 0.2)[:n]
        cluster_integral(MomentRequest(1.0, x, plan=auto_cluster_plan(1.0, p, x, nodes=11)), p)
    assert calls == {"four": 0, "three": 2}


# Full-cluster terms (n) at n = 1..4: the term's one line is its centre of
# mass, integrated in closed form, so its bits are the closed form's.
FULL_CLUSTER_PINS = [
    (0.8, (-0.4,)), (2.5, (0.0,)), (0.8, (-0.4, 0.1)), (2.5, (0.0, 0.3)),
    (0.8, (-0.4, 0.1, 0.7)), (2.5, (0.0, 0.3, 0.9)),
    (0.8, (-0.4, 0.1, 0.7, 1.0)), (2.5, (0.0, 0.3, 0.9, 1.6)),
]


@pytest.mark.parametrize("t,x", FULL_CLUSTER_PINS,
                         ids=[f"n{len(x)}-t{t}" for t, x in FULL_CLUSTER_PINS])
def test_full_cluster_term_bits_pinned(t, x):
    res = cluster_integral(MomentRequest(t, x), Partition((len(x),)))
    want = top_cluster_closed_form(t, x)
    assert res.value.mantissa == want.mantissa
    assert res.value.log_scale == want.log_scale
    assert res.step_estimate == 0.0 and res.tail_bound == 0.0


def test_size_guards():
    with pytest.raises(UnsupportedDimensionError):
        moment_partition_sum(MomentRequest(1.0, (0.0,) * 5))
    with pytest.raises(UnsupportedDimensionError):
        moment_nested_contours(MomentRequest(1.0, (0.0,) * 5))
    with pytest.raises(UnsupportedDimensionError):
        cluster_integral(MomentRequest(1.0, (0.0,) * 5), Partition((1,) * 5))
    with pytest.raises(UnsupportedDimensionError):
        top_cluster_integral(MomentRequest(1.0, (0.0,) * 10))


def test_nested_abscissa_validation():
    req = MomentRequest(1.0, (0.0, 0.0))
    with pytest.raises(ValueError, match="gaps"):
        moment_nested_contours(req, abscissas=(0.5, 0.0))
    with pytest.raises(ValueError, match="abscissas"):
        moment_nested_contours(req, abscissas=(2.0, 0.0, -2.0))


def test_moment_request_validation():
    with pytest.raises(ValueError):
        MomentRequest(0.0, (0.0,))
    with pytest.raises(ValueError):
        MomentRequest(math.inf, (0.0,))
    req = MomentRequest(1.0, (0.3, -0.2))
    assert req.n == 2 and req.x.ordered == (-0.2, 0.3)


def test_combine_results_error_weighting():
    a = QuadratureResult(ScaledComplex.from_complex(2.0), tail_bound=1e-3, step_estimate=0.0)
    b = QuadratureResult(ScaledComplex.from_complex(-1.0), tail_bound=1e-3, step_estimate=2e-3)
    out = combine_results([a, b])
    assert out.value.to_complex() == pytest.approx(1.0)
    assert out.tail_bound == pytest.approx(3e-3, rel=1e-12)
    assert out.step_estimate == pytest.approx(2e-3, rel=1e-12)


# --- the centre of mass in closed form --------------------------------------


def _unpinned_partition_term(t, x, p):
    """The l-line sum of partition p, every line on the grid, on the plan the
    planner sizes for it: decay rates lambda_k t/2 and the same poles."""
    plan = auto_cluster_plan(t, p, x)
    rates = tuple(lam * t / 2.0 for lam in p.parts)
    half_width, nodes = moments._grid_size(p.length, rates,
                                           cluster_pole_distance(p, plan.epsilon))
    plan = dataclasses.replace(plan, half_width=half_width, nodes_per_line=nodes)
    return integrate_tensor(cluster_integrand_batch(t, x, p, pinned=False), plan, p.length,
                            decay_rates=rates)


def _unpinned_nested_moment(t, x):
    """The n-line nested sum, every line on the grid, sized for decay t/2."""
    n = len(x)
    a = default_abscissas(n, t, x)
    gap = min((abs(a[i] - a[j] - 1.0) for i in range(n) for j in range(i + 1, n)),
              default=math.inf)
    half_width, nodes = moments._grid_size(n, (t / 2.0,), gap)
    plan = ContourPlan(theta=a[0], epsilon=0.0, half_width=half_width, nodes_per_line=nodes)
    f = moments._nested_integrand(t, np.asarray(sorted(x)), pinned=False)
    return integrate_tensor(f, plan, n, decay_rates=(t / 2.0,) * n, abscissas=a)


@pytest.mark.parametrize("t", [0.5, 1.0, 8.0])
@pytest.mark.parametrize("where", ["origin", "spread"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pinned_terms_match_the_unpinned_sums(n, where, t):
    # every term of both routes, its centre of mass integrated in closed
    # form on l - 1 grid lines, against the same term with all l lines on
    # the grid: they agree within both reported errors, or to roundoff
    x = (0.0,) * n if where == "origin" else (0.1, -0.3, 0.5, 0.2)[:n]
    req = MomentRequest(t, x)
    cases = [(str(p), cluster_integral(req, p), _unpinned_partition_term(t, x, p))
             for p in enumerate_partitions(n)]
    cases.append((f"nested-{n}", moment_nested_contours(req), _unpinned_nested_moment(t, x)))
    for name, got, want in cases:
        tol = got.tail_bound + got.step_estimate + want.tail_bound + want.step_estimate
        if max(got.step_estimate, want.step_estimate) <= 1e-12:
            tol = max(tol, 1e-12)  # both at roundoff
        assert rel_diff(got.value, want.value) <= tol, name


@pytest.mark.parametrize("t", [0.5, 1.0, 8.0])
@pytest.mark.parametrize("n", range(1, MAX_TOP_SIZE + 1))
def test_full_cluster_term_is_the_closed_form(n, t):
    # the full cluster's one line is its centre of mass: no grid line is
    # left, and the term is the closed form with no error to report
    for x in ((0.0,) * n, tuple(0.3 * i - 0.5 for i in range(n))):
        res = top_cluster_integral(MomentRequest(t, x))
        assert rel_diff(res.value, top_cluster_closed_form(t, x)) <= 4 * np.finfo(float).eps
        assert res.tail_bound == 0.0 and res.step_estimate == 0.0


@pytest.mark.parametrize("route", [moment_partition_sum, moment_nested_contours],
                         ids=["partition", "nested"])
def test_n1_moment_is_the_heat_kernel(route):
    for t in (0.3, 1.0, 7.0):
        for x in (0.0, -1.3, 2.4):
            res = route(MomentRequest(t, (x,)))
            assert rel_to(res, heat_kernel(t, x)) <= 4 * np.finfo(float).eps
            assert res.tail_bound == 0.0 and res.step_estimate == 0.0


@pytest.mark.parametrize("route", [moment_partition_sum, moment_nested_contours],
                         ids=["partition", "nested"])
@pytest.mark.parametrize("n", [2, 3])
def test_shear_leaves_the_moment_over_heat_kernels(n, route):
    # moving every point by c multiplies the moment by prod_i p_t(x_i + c) /
    # p_t(x_i) exactly (Galilean invariance); integrating the centre of mass
    # in closed form keeps the rest of the grid where it was
    t, x = 1.0, (0.1, -0.3, 0.5)[:n]

    def reduced(pts):
        res = route(MomentRequest(t, pts))
        return res.value.abs_log() - sum(math.log(heat_kernel(t, v)) for v in pts)

    base = reduced(x)
    for c in (0.7, -1.3, 2.5):
        assert abs(math.expm1(reduced(tuple(v + c for v in x)) - base)) <= 1e-14


def test_nested_four_points_at_large_t_is_finite():
    # the relative Gaussian's peaks sit in the log-scale, not in the tables
    res = moment_nested_contours(MomentRequest(128.0, (0.0,) * 4))
    assert math.isfinite(res.value.abs_log())
    assert math.isfinite(res.step_estimate) and math.isfinite(res.tail_bound)


def _bits(res: QuadratureResult):
    return (res.value.mantissa, res.value.log_scale, res.step_estimate, res.tail_bound)


def test_theta_moves_no_value():
    # the partition route places its lines by their gaps, line 0 at Re w = 0,
    # and the full cluster is its closed form: a plan's theta moves no bit
    for n in (1, 2, 3, 4):
        t, x = 1.0, (0.0, 0.2, -0.4, 0.3)[:n]
        for p in enumerate_partitions(n):
            base = _bits(cluster_integral(MomentRequest(t, x), p))
            for theta in (-0.3, 5.0, -40.0, 1e300):
                plan = auto_cluster_plan(t, p, x, theta=theta)
                got = _bits(cluster_integral(MomentRequest(t, x, plan=plan), p))
                assert got == base, (p, theta)


@pytest.mark.parametrize("n", range(1, MAX_TOP_SIZE + 1))
def test_full_cluster_builds_no_grid(monkeypatch, n):
    # a one-part partition returns its closed form before any plan, integrand
    # or grid, whether or not the request carries a plan
    def refuse(*args, **kwargs):
        raise AssertionError("the full cluster reached the quadrature")

    for name in ("integrate_tensor", "auto_cluster_plan", "cluster_integrand_batch"):
        monkeypatch.setattr(moments, name, refuse)
    x = tuple(0.3 * i - 0.5 for i in range(n))
    plan = ContourPlan(theta=0.0, epsilon=0.1, half_width=8.0, nodes_per_line=65)
    for req in (MomentRequest(2.0, x), MomentRequest(2.0, x, plan=plan)):
        assert cluster_integral(req, Partition((n,))) == QuadratureResult(
            top_cluster_closed_form(2.0, x), 0.0, 0.0)


@pytest.mark.parametrize("n", range(1, MAX_TOP_SIZE + 1))
def test_one_line_integrand_is_the_closed_form(n):
    # cluster_integrand_batch on one line: no pairs, so its value is the
    # closed-form centre factor times the pinned line's exponent at y = 0.
    # That exponent, (t/2) sum_o o^2 ~ t n^3/6, and -B^2/(2nt), B = sum x +
    # t n(n - 1)/2, cancel to the closed form's n(n^2 - 1) t/24: at n = 9,
    # t = 10 two logs of ~1e3 leave 3e2, and their rounding moved the value
    # by at most 6.3e-14 relative over this grid (n = 8 and 9, t = 10), so
    # the bound is 2e-13, about three times that
    p = Partition((n,))
    for t in (0.5, 2.0, 10.0):
        for x in ((0.0,) * n, tuple(0.3 * i for i in range(n)),
                  tuple(0.3 * i - 0.5 for i in range(n))):
            f = cluster_integrand_batch(t, x, p)
            res = integrate_tensor(f, auto_cluster_plan(t, p, x), 1, abscissas=(0.0,))
            assert rel_diff(res.value, top_cluster_closed_form(t, x)) <= 2e-13, (t, x)
            assert res.step_estimate == 0.0 and res.tail_bound == 0.0


@pytest.mark.parametrize("x", [(1e200,), (0.0, 0.0, 1e200)], ids=["n1", "n3"])
def test_full_cluster_closed_form_overflow_refused(x):
    # (sum x)^2 / (2nt) overflows and the exponent becomes -inf
    with pytest.raises(NumericsError, match="full-cluster closed form not finite"):
        top_cluster_closed_form(1.0, x)


# the erf form at large separation, from the same formula in mpmath at 50
# digits: 1 + erf there cancels, and e^{beta^2 t/4} magnified what was left
TWO_POINT_FAR = [
    (0.5, (0.0, 10.0), 1.2457911719122267e-44),
    (0.1, (0.0, 5.0), 8.3890579971872178e-55),
    (0.01, (0.0, 2.0), 2.2135526968980562e-86),
    (0.5, (0.0, 7.0), 1.7943916512105562e-22),
    (1.0, (0.0, 8.0), 2.2929574625167795e-15),
    (1.0, (-20.0, 20.0), 3.1261407942089577e-175),
    (1.0, (0.0, 0.5), 0.30956924521886798),
    (5.0, (0.0, 0.0), 0.44709591604561933),
]


@pytest.mark.parametrize("t,x,want", TWO_POINT_FAR,
                         ids=[f"t{t}-dx{x[1] - x[0]:g}" for t, x, _ in TWO_POINT_FAR])
def test_two_point_moment_at_large_separation(t, x, want):
    # t = 0.1 and 0.01 carry the rounding of x^2/(2t) in the Gaussian factor
    assert abs(two_point_moment(t, *x) / want - 1.0) <= 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_no_moment_runs_a_four_line_elimination(monkeypatch, n):
    # integrating the centre of mass leaves at most three grid lines to a
    # moment of n <= 4 points; nested n = 4 takes one three-line start per
    # grid, full and coarse
    calls = {"four": 0, "three": 0}
    real_three = quadrature._start_three

    def four(*args):
        calls["four"] += 1

    def three(open_, steps, *args):
        calls["three"] += len(steps)
        return real_three(open_, steps, *args)

    monkeypatch.setattr(quadrature, "_eliminate_four", four)
    monkeypatch.setattr(quadrature, "_start_three", three)
    req = MomentRequest(1.0, (0.1, -0.3, 0.5, 0.2)[:n])
    moment_nested_contours(req, nodes=11)
    assert calls == {"four": 0, "three": 2 if n == 4 else 0}
    cluster_breakdown(req, nodes=11)
    assert calls["four"] == 0


@pytest.mark.parametrize("parts", [(3, 1), (2, 2)], ids=["3+1", "2+2"])
def test_two_line_partitions_form_no_square_table(parts):
    # one grid line: its tables to the pinned line are vectors, so at
    # N = 401 the peak stays below one N x N complex array
    n = 401
    p = Partition(parts)
    x = (0.1, -0.3, 0.5, 0.2)
    req = MomentRequest(0.8, x, plan=auto_cluster_plan(0.8, p, x, nodes=n))
    cluster_integral(req, p)  # caches filled outside the measurement
    tracemalloc.start()
    try:
        cluster_integral(req, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 16
