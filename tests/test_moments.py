"""Moment routes against closed-form anchors.

The n = 1 moment is the heat kernel and the n = 2 moment has an erf closed
form (moments.heat_kernel, moments.two_point_moment).  Neither anchor touches
the quadrature or kernel code, so agreement of both routes with them checks
the whole convention stack (pairing order, cluster determinant,
multiplicities, prefactors) at once.
"""

import dataclasses
import math

import pytest

import bosegas.moments as moments
import bosegas.quadrature as quadrature
from bosegas.errors import NearSingularityError, NumericsError, UnsupportedDimensionError
from bosegas.kernel import cluster_integrand_batch
from bosegas.moments import (
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
from bosegas.partitions import Partition
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
    cluster_breakdown(MomentRequest(1.0, (0.0, 0.0)), nodes=65)
    assert len(built) == 2


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
    assert auto_nested_plan(1.0, a).nodes_per_line == 95
    assert auto_cluster_plan(1.0, Partition((1,) * 5), (0.0,) * 5).nodes_per_line == 79


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
    # n = 5 with four lines: the one place a placement leaves four lines open
    # before any is summed out.  Value recorded from the per-permutation
    # contraction this recursion replaced, on the same default 65-node plan.
    res = cluster_integral(MomentRequest(1.0, (0.0,) * 5), Partition((2, 1, 1, 1)))
    want = ScaledComplex(0.9938567498132769 + 1.7114583043590026e-17j, -6.5814718055994526)
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
    # one order: a single path through the recursion, so one four-line
    # elimination and one three-line start step per grid (full and coarse)
    calls = {"four": 0, "three": 0}
    real_four, real_three = quadrature._eliminate_four, quadrature._start_three

    def four(*args):
        calls["four"] += 1
        return real_four(*args)

    def three(open_, steps, ctx):
        calls["three"] += len(steps)
        return real_three(open_, steps, ctx)

    monkeypatch.setattr(quadrature, "_eliminate_four", four)
    monkeypatch.setattr(quadrature, "_start_three", three)
    for n in (3, 4):
        p = Partition((1,) * n)
        x = (0.1, -0.3, 0.5, 0.2)[:n]
        cluster_integral(MomentRequest(1.0, x, plan=auto_cluster_plan(1.0, p, x, nodes=11)), p)
    # 1+1+1+1 closes its first line into a three-line state, which streams
    # on to its two-line sums without a _start_three
    assert calls == {"four": 2, "three": 2}


# Full-cluster terms (n) at n = 1..4, recorded before the factor protocol
# moved to stacked exponent rows and offset-vector tables: a single line's
# arithmetic did not change, so the values must not move in any bit.
FULL_CLUSTER_PINS = [
    (0.8, (-0.4,),
     complex(0.8920620580763856, 0.0), -0.7931471805599453, 0.0),
    (2.5, (0.0,),
     complex(0.504626504404032, 0.0), -0.6931471805599453, 2.200088609963798e-16),
    (0.8, (-0.4, 0.1),
     complex(0.63078313050504, 0.0), -0.7712721805599453, 1.8318303949404317e-33),
    (2.5, (0.0, 0.3),
     complex(0.7136496464611086, -7.219132994274684e-18), -0.9202943611198906, 1.5563775889098057e-16),
    (0.8, (-0.4, 0.1, 0.7),
     complex(0.5150322693642528, -4.461703199274142e-19), -0.3333333333333333, 5.361551163102297e-19),
    (2.5, (0.0, 0.3, 0.9),
     complex(0.5826924963157755, -3.2484225433819242e-18), 0.8108528194400549, 1.906147037972789e-16),
    (0.8, (-0.4, 0.1, 0.7, 1.0),
     complex(0.6690465435572892, -7.995289473770819e-19), -0.01310281944005498, 1.2187597950883542e-18),
    (2.5, (0.0, 0.3, 0.9, 1.6),
     complex(0.7569397566060481, -2.8888949165808538e-34), 3.1580000000000004, 3.8165453609333955e-34),
]


@pytest.mark.parametrize("t,x,mantissa,log_scale,step", FULL_CLUSTER_PINS,
                         ids=[f"n{len(x)}-t{t}" for t, x, *_ in FULL_CLUSTER_PINS])
def test_full_cluster_term_bits_pinned(t, x, mantissa, log_scale, step):
    res = cluster_integral(MomentRequest(t, x), Partition((len(x),)))
    assert res.value.mantissa == mantissa
    assert res.value.log_scale == log_scale
    assert res.step_estimate == step


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
