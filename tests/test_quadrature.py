"""Contour quadrature: analytic oracles, convergence behavior, determinism."""

from __future__ import annotations

import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import bosegas
from bosegas.errors import NearSingularityError, NumericsError
import bosegas.quadrature as quadrature
from bosegas.kernel import _clustered_terms, _placements, cluster_integrand_batch
from bosegas.moments import (
    MAX_TOP_SIZE,
    TAIL_SAFETY,
    TAIL_TOL,
    MomentRequest,
    _nested_integrand,
    auto_cluster_plan,
    auto_nested_plan,
    cluster_breakdown,
    default_abscissas,
    moment_nested_contours,
)
from bosegas.partitions import Partition, enumerate_partitions
from bosegas.quadrature import (
    MAX_LINES,
    ContourPlan,
    Interleavings,
    Placement,
    _grid_1d,
    _trapezoid_sums,
    check_grid_size,
    integrate_tensor,
)


def gaussian_integrand(rate=0.5):
    """prod_k exp(rate * w_k^2) on vertical lines: decays like exp(-rate y^2)."""

    def f(Z):
        return Interleavings.product(tuple(rate * z * z for z in Z))

    return f


def drift_integrand(t, x):
    """exp(t/2 w^2 + x w): single-line heat-kernel generator."""

    def f(Z):
        return Interleavings.product((0.5 * t * Z[0] ** 2 + x * Z[0],))

    return f


def test_line_nodes_weights_frozen():
    plan = ContourPlan(theta=0.3, epsilon=0.2, half_width=1.0, nodes_per_line=3)
    seen = []

    def f(Z):
        seen.append(Z.copy())
        return Interleavings.product(tuple(np.zeros_like(z) for z in Z))

    integrate_tensor(f, plan, 2)
    y, w = _grid_1d(plan)
    assert seen[0][1].tolist() == [0.5 - 1j, 0.5 + 0j, 0.5 + 1j]
    assert seen[0][1].tolist() == (0.5 + 1j * y).tolist()
    h = 1.0
    assert w.tolist() == pytest.approx([h / (4 * math.pi), h / (2 * math.pi), h / (4 * math.pi)])
    # total weight = (2T/2pi) for the full trapezoid
    assert w.sum() == pytest.approx(2.0 / (2 * math.pi))


def test_plan_validation():
    with pytest.raises(ValueError):
        ContourPlan(0.0, 0.1, half_width=8.0, nodes_per_line=128)  # even
    with pytest.raises(ValueError):
        ContourPlan(0.0, 0.1, half_width=8.0, nodes_per_line=1)
    with pytest.raises(ValueError):
        ContourPlan(0.0, 0.1, half_width=0.0)
    with pytest.raises(ValueError):
        ContourPlan(math.nan, 0.1, half_width=1.0)


def test_gaussian_tensor_frozen_value():
    # (1/2pi)^2 * (integral e^{-y^2/2} dy)^2 = 1/(2pi)
    plan = ContourPlan(theta=0.0, epsilon=0.0, half_width=8.0, nodes_per_line=129)
    res = integrate_tensor(gaussian_integrand(), plan, 2, decay_rates=(0.5, 0.5))
    assert res.value.to_complex().real == pytest.approx(1.0 / (2 * math.pi), rel=1e-12)
    assert abs(res.value.to_complex().imag) < 1e-15
    assert res.tail_bound == pytest.approx(2 * math.erfc(math.sqrt(0.5) * 8.0), rel=1e-12)


def test_heat_kernel_single_line():
    # e^{t/2 w^2 + x w} integrated on Re w = -x/t gives the heat kernel exactly
    t, x = 0.7, 1.3
    plan = ContourPlan(theta=-x / t, epsilon=0.0, half_width=12.0, nodes_per_line=257)
    res = integrate_tensor(drift_integrand(t, x), plan, 1, decay_rates=(t / 2,))
    want = math.exp(-x * x / (2 * t)) / math.sqrt(2 * math.pi * t)
    assert res.value.to_complex().real == pytest.approx(want, rel=1e-12)


def test_heat_kernel_off_center_line():
    # same integral on a shifted line: oscillatory but still exact by analyticity
    t, x = 0.7, 1.3
    plan = ContourPlan(theta=0.0, epsilon=0.0, half_width=14.0, nodes_per_line=513)
    res = integrate_tensor(drift_integrand(t, x), plan, 1, decay_rates=(t / 2,))
    want = math.exp(-x * x / (2 * t)) / math.sqrt(2 * math.pi * t)
    assert res.value.to_complex().real == pytest.approx(want, rel=1e-8)


def test_abscissa_override_shift_invariance():
    plan = ContourPlan(theta=0.0, epsilon=0.0, half_width=9.0, nodes_per_line=201)
    base = integrate_tensor(gaussian_integrand(), plan, 1, decay_rates=(0.5,))
    shifted = integrate_tensor(gaussian_integrand(), plan, 1, decay_rates=(0.5,), abscissas=(0.7,))
    assert shifted.value.to_complex().real == pytest.approx(
        base.value.to_complex().real, rel=1e-11
    )


def test_node_doubling_convergence():
    # trapezoid error for the Gaussian at T=8: geometric in 1/h, then floor
    want = 1.0 / math.sqrt(2 * math.pi)
    errs = {}
    for n in (17, 33, 65):
        plan = ContourPlan(theta=0.0, epsilon=0.0, half_width=8.0, nodes_per_line=n)
        res = integrate_tensor(gaussian_integrand(), plan, 1)
        errs[n] = abs(res.value.to_complex().real - want) / want
    assert errs[33] < errs[17] / 10.0
    assert errs[65] < 1e-13


def test_step_estimate_tracks_coarse_error():
    steps = {}
    for n in (17, 33, 65):
        plan = ContourPlan(theta=0.0, epsilon=0.0, half_width=8.0, nodes_per_line=n)
        steps[n] = integrate_tensor(gaussian_integrand(), plan, 1).step_estimate
    # embedded-coarse comparison: estimate collapses as nodes double
    assert steps[33] < steps[17] * 1e-4
    assert steps[65] < 1e-12
    assert steps[17] == pytest.approx(2 * math.exp(-math.pi**2 / 2.0), rel=0.3)  # h=2 coarse error


def test_tail_bound_matches_actual_truncation():
    # for a pure Gaussian the relative truncation error is erfc(sqrt(a) T)
    want = 1.0 / math.sqrt(2 * math.pi)
    plan = ContourPlan(theta=0.0, epsilon=0.0, half_width=3.0, nodes_per_line=301)
    res = integrate_tensor(gaussian_integrand(), plan, 1, decay_rates=(0.5,))
    actual = abs(res.value.to_complex().real - want) / want
    assert 0.2 * res.tail_bound < actual < 2.0 * res.tail_bound
    assert res.tail_bound == pytest.approx(math.erfc(math.sqrt(0.5) * 3.0), rel=1e-12)


def test_large_scale_integrand():
    # exp(a) * gaussian with a = 5000: value representable only in scaled form
    shift = 5000.0

    def f(Z):
        return Interleavings.product((0.5 * Z[0] ** 2 + shift,))

    plan = ContourPlan(theta=0.0, epsilon=0.0, half_width=8.0, nodes_per_line=129)
    res = integrate_tensor(f, plan, 1)
    assert res.value.abs_log() == pytest.approx(shift + math.log(1 / math.sqrt(2 * math.pi)), rel=1e-12)


def test_three_line_product():
    plan = ContourPlan(theta=0.0, epsilon=0.0, half_width=8.0, nodes_per_line=65)
    res = integrate_tensor(gaussian_integrand(), plan, 3, decay_rates=(0.5, 0.5, 0.5))
    want = (2 * math.pi) ** -1.5
    assert res.value.to_complex().real == pytest.approx(want, rel=1e-11)


def test_nonfinite_integrand_reports_node():
    def f(Z):
        e = np.zeros(Z.shape[1], dtype=complex)
        e[3] = complex(math.nan, 0.0)
        return Interleavings.product((e,))

    plan = ContourPlan(theta=0.0, epsilon=0.0, half_width=1.0, nodes_per_line=5)
    with pytest.raises(NumericsError, match="grid indices"):
        integrate_tensor(f, plan, 1)



@pytest.mark.parametrize("rates", [(math.nan,), (math.inf,), (0.0,), (-1.0,), (0.5, 0.5)],
                         ids=["nan", "inf", "zero", "negative", "count"])
def test_bad_decay_rates_refused_up_front(rates):
    # a NaN rate once passed the positivity check and came back as tail_bound nan
    calls = []
    plan = ContourPlan(theta=0.0, epsilon=0.0, half_width=8.0, nodes_per_line=65)
    with pytest.raises(ValueError, match="positive finite decay rates"):
        integrate_tensor(lambda Z: calls.append(Z), plan, 1, decay_rates=rates)
    assert not calls


@pytest.mark.parametrize("abscissas", [(math.nan,), (math.inf,), (0.0, 1.0)],
                         ids=["nan", "inf", "count"])
def test_bad_abscissas_refused_up_front(abscissas):
    # a non-finite abscissa once surfaced as a NumericsError about the integrand
    calls = []
    plan = ContourPlan(theta=0.0, epsilon=0.0, half_width=8.0, nodes_per_line=65)
    with pytest.raises(ValueError, match="finite abscissas"):
        integrate_tensor(lambda Z: calls.append(Z), plan, 1, abscissas=abscissas)
    assert not calls


_BAD_TABLE = re.compile(r"lines (\d),(\d) at .* grid indices \[(\d+), (\d+)\]")


@pytest.mark.parametrize("lines,pair,offset", [(2, (0, 1), -3), (2, (0, 1), 5),
                                               (3, (0, 2), 0), (3, (1, 2), -6)])
def test_nonfinite_table_reports_line_pair_and_nodes(lines, pair, offset):
    # one bad value in a table's offset vector: the vet names the line pair
    # and a node pair (a, b) on the grid whose offset a - b holds it
    n = 7
    pairs = tuple((i, j) for i in range(lines) for j in range(i + 1, lines))

    def f(Z):
        tables = np.ones((len(pairs), 2 * n - 1), dtype=complex)
        tables[pairs.index(pair), offset + n - 1] = complex(math.inf, 0.0)
        return Interleavings.product(tuple(0.5 * z * z for z in Z), pairs, tables)

    plan = ContourPlan(theta=0.0, epsilon=0.1, half_width=2.0, nodes_per_line=n)
    with pytest.raises(NumericsError) as err:
        integrate_tensor(f, plan, lines)
    i, j, a, b = map(int, _BAD_TABLE.search(str(err.value)).groups())
    assert (i - 1, j - 1) == pair
    assert 0 <= a < n and 0 <= b < n and a - b == offset


def _node_sweep(values, plan, re_parts, pinned=False):
    """Full and every-other-node trapezoid sums of values(W), with W of shape
    (lines, nodes) holding every node of the tensor grid at once.  pinned
    holds line 0 at its middle node, y = 0, with weight 1, on both grids."""
    n, lines = plan.nodes_per_line, len(re_parts)
    grid = lines - pinned
    y = np.linspace(-plan.half_width, plan.half_width, n)
    w = np.full(n, plan.spacing / (2 * math.pi))
    w[0] *= 0.5
    w[-1] *= 0.5
    idx = np.array(list(itertools.product(range(n), repeat=grid)), dtype=int)
    idx = idx.reshape(n**grid, grid).T  # (grid lines, nodes)
    vals = np.prod(w[idx], axis=0)
    if pinned:
        idx = np.vstack([np.full((1, idx.shape[1]), n // 2), idx])
    vals = values(re_parts[:, None] + 1j * y[idx]) * vals
    on_coarse = np.all(idx[pinned:] % 2 == 0, axis=0)
    return vals.sum(), vals[on_coarse].sum() * 2**grid


def _cluster_values(t, x, p):
    """LU determinant x clustered kernel / multiplicity at each node."""

    def values(W):
        mant, logs = _clustered_terms(t, np.asarray(sorted(x)), p.parts, W)
        lam = np.array(p.parts, dtype=float)
        det = np.linalg.det(1.0 / ((W.T[:, :, None] + lam[None, :, None]) - W.T[:, None, :]))
        return mant * np.exp(logs) * det / p.multiplicity

    return values


def _nested_values(t, x_sorted):
    """The literal nested product at each node."""

    def values(W):
        val = np.ones(W.shape[1], dtype=complex)
        for k, zk in enumerate(W):
            val *= np.exp(0.5 * t * zk * zk + x_sorted[k] * zk)
        for i, j in itertools.combinations(range(len(W)), 2):
            val *= (W[i] - W[j]) / (W[i] - W[j] - 1.0)
        return val

    return values


ORACLE_T = 0.8
ORACLE_X = (-0.4, 0.1, 0.7, 1.0)


def _unpinned_half_width(t, parts):
    """The half-width that sizes a term with every line on the grid: its
    slowest line decays at min(lambda) t/2, not at the pinned form's rate."""
    return math.sqrt((math.log(1.0 / TAIL_TOL) + TAIL_SAFETY) / (0.5 * t * min(parts)))
ORACLE_CASES = [(p, p.n, 11) for n in range(1, 5) for p in enumerate_partitions(n)]
ORACLE_CASES += [("nested", n, 11) for n in range(1, 5)]
# at 11 nodes the coarse grid has 6, an even count with no middle node; at 13
# it has 7, whose middle node the half grid of three or more lines weighs 1/2
ORACLE_CASES += [(Partition(parts), sum(parts), 13) for parts in ((1, 1, 1), (2, 1, 1),
                                                                  (1, 1, 1, 1))]
ORACLE_CASES += [("nested", n, 13) for n in (3, 4)]


@pytest.mark.parametrize("case,n,nodes", ORACLE_CASES,
                         ids=[f"{c}-{n}" + ("" if nodes == 11 else f"-N{nodes}")
                              for c, n, nodes in ORACLE_CASES])
def test_contraction_matches_node_sweep(case, n, nodes):
    # the contraction regroups the sum over every tensor-grid node; on small
    # off-origin plans it must reproduce a sweep of independent integrands
    # over every node: LU determinant x clustered kernel, or the literal
    # nested product.
    # 11 nodes, not 9: at 9 the 5-node coarse sum of 1+1+1+1 cancels across its
    # 24 terms by a factor ~3e5, so any two evaluations differ by ~1e-11.
    x = ORACLE_X[:n]
    lines = n if case == "nested" else case.length
    if case == "nested":
        a = default_abscissas(n, ORACLE_T, x)
        plan = auto_nested_plan(ORACLE_T, a, nodes=nodes,
                                half_width=_unpinned_half_width(ORACLE_T, (1,)))
        f = _nested_integrand(ORACLE_T, np.asarray(sorted(x)), pinned=False)
        values = _nested_values(ORACLE_T, sorted(x))
        re_parts = np.array(a)
    else:
        plan = auto_cluster_plan(ORACLE_T, case, x, nodes=nodes,
                                 half_width=_unpinned_half_width(ORACLE_T, case.parts))
        f = cluster_integrand_batch(ORACLE_T, x, case, pinned=False)
        values = _cluster_values(ORACLE_T, x, case)
        re_parts = plan.theta + plan.epsilon * np.arange(lines)
    full, coarse, _ = _trapezoid_sums(f, plan, lines, re_parts)
    want_full, want_coarse = _node_sweep(values, plan, re_parts)
    assert abs(full.to_complex() - want_full) <= 1e-12 * abs(want_full)
    assert abs(coarse.to_complex() - want_coarse) <= 1e-12 * abs(want_coarse)
    if lines > 2:  # 2 Re of a half-grid sum
        assert full.mantissa.imag == 0.0 and coarse.mantissa.imag == 0.0


def _centre_integrated(values, t, x, parts):
    """values(W) with the centre-of-mass Gaussian exp((nt/2) c^2 + B c),
    c = sum_k lambda_k w_k / n, divided out and its integral over c,
    exp(-B^2/(2nt)) / sqrt(2 pi n t), multiplied in: the pinned form's value
    at each node, from the oracle integrand."""
    n = sum(parts)
    lam = np.array(parts, dtype=float)[:, None]
    b = sum(x) + t * sum(q * (q - 1) / 2 for q in parts)

    def pinned(W):
        c = (lam * W).sum(axis=0) / n
        centre = math.exp(-b * b / (2 * n * t)) / math.sqrt(2 * math.pi * n * t)
        return values(W) * np.exp(-(0.5 * n * t) * c * c - b * c) * centre

    return pinned


@pytest.mark.parametrize("case,n,nodes", ORACLE_CASES,
                         ids=[f"{c}-{n}" + ("" if nodes == 11 else f"-N{nodes}")
                              for c, n, nodes in ORACLE_CASES])
def test_pinned_contraction_matches_node_sweep(case, n, nodes):
    # the routes' terms integrate the centre of mass in closed form and hold
    # line 0 at y = 0; a sweep over the other lines' nodes of the oracle
    # integrand, with the centre's Gaussian traded for its integral, must
    # give the same full and coarse sums.  The single cluster keeps no grid
    # line: the integrand's general path, with no table, gives its one node.
    x = ORACLE_X[:n]
    if case == "nested":
        parts = (1,) * n
        a = default_abscissas(n, ORACLE_T, x)
        plan = auto_nested_plan(ORACLE_T, a, nodes=nodes)
        f = _nested_integrand(ORACLE_T, np.asarray(sorted(x)))
        values = _nested_values(ORACLE_T, sorted(x))
        re_parts = np.array(a)
    else:
        parts = case.parts
        plan = auto_cluster_plan(ORACLE_T, case, x, nodes=nodes)
        f = cluster_integrand_batch(ORACLE_T, x, case)
        values = _cluster_values(ORACLE_T, x, case)
        re_parts = plan.theta + plan.epsilon * np.arange(len(parts))
    full, coarse, pinned = _trapezoid_sums(f, plan, len(parts), re_parts)
    assert pinned == 0
    want_full, want_coarse = _node_sweep(_centre_integrated(values, ORACLE_T, x, parts),
                                         plan, re_parts, pinned=True)
    assert abs(full.to_complex() - want_full) <= 1e-12 * abs(want_full)
    assert abs(coarse.to_complex() - want_coarse) <= 1e-12 * abs(want_coarse)
    if len(parts) > 3:  # 2 Re of a half-grid sum
        assert full.mantissa.imag == 0.0 and coarse.mantissa.imag == 0.0


FIVE_POINT_X = ORACLE_X + (1.2,)
FIVE_POINT_CASES = [p for p in enumerate_partitions(5) if 2 <= p.length <= 4]


@pytest.mark.parametrize("p", FIVE_POINT_CASES, ids=str)
def test_recursion_matches_node_sweep_five_points(p):
    # at n = 5 partly placed clusters keep lines open across placements, and
    # 2+1+1+1 holds four open lines before its first elimination; the oracle
    # evaluates LU determinant x clustered kernel at every node of the grid
    plan = auto_cluster_plan(ORACLE_T, p, FIVE_POINT_X, nodes=11,
                             half_width=_unpinned_half_width(ORACLE_T, p.parts))
    re_parts = plan.theta + plan.epsilon * np.arange(p.length)
    full, coarse, _ = _trapezoid_sums(
        cluster_integrand_batch(ORACLE_T, FIVE_POINT_X, p, pinned=False), plan, p.length,
        re_parts)
    want_full, want_coarse = _node_sweep(_cluster_values(ORACLE_T, FIVE_POINT_X, p),
                                         plan, re_parts)
    assert abs(full.to_complex() - want_full) <= 1e-12 * abs(want_full)
    assert abs(coarse.to_complex() - want_coarse) <= 1e-12 * abs(want_coarse)
    if p.length > 2:  # 2 Re of a half-grid sum
        assert full.mantissa.imag == 0.0 and coarse.mantissa.imag == 0.0


@pytest.mark.parametrize("case", ["2+1+1+1", "nested-5"])
def test_pinned_recursion_matches_node_sweep_wide(case):
    # 2+1+1+1 closes its pinned line 0 first on some paths, and its vectors
    # then ride into the three-line start; the nested order of five lines
    # takes a four-line start and closes the pinned line last
    x = FIVE_POINT_X
    if case == "nested-5":
        parts = (1,) * 5
        re_parts = np.array(default_abscissas(5, ORACLE_T, x))
        plan = auto_nested_plan(ORACLE_T, re_parts, nodes=11)
        f = _nested_integrand(ORACLE_T, np.asarray(sorted(x)))
        values = _nested_values(ORACLE_T, sorted(x))
    else:
        p = Partition((2, 1, 1, 1))
        parts = p.parts
        plan = auto_cluster_plan(ORACLE_T, p, x, nodes=11)
        re_parts = plan.theta + plan.epsilon * np.arange(p.length)
        f = cluster_integrand_batch(ORACLE_T, x, p)
        values = _cluster_values(ORACLE_T, x, p)
    full, coarse, _ = _trapezoid_sums(f, plan, len(parts), re_parts)
    want_full, want_coarse = _node_sweep(_centre_integrated(values, ORACLE_T, x, parts),
                                         plan, re_parts, pinned=True)
    assert abs(full.to_complex() - want_full) <= 1e-12 * abs(want_full)
    assert abs(coarse.to_complex() - want_coarse) <= 1e-12 * abs(want_coarse)
    assert full.mantissa.imag == 0.0 and coarse.mantissa.imag == 0.0


SIX_POINT_X = FIVE_POINT_X + (-0.6,)
FIVE_LINE_PINNED = [((2, 1, 1, 1, 1), SIX_POINT_X), ((3, 1, 1, 1, 1), SIX_POINT_X + (0.3,))]


@pytest.mark.parametrize("parts,x", FIVE_LINE_PINNED,
                         ids=["+".join(map(str, parts)) for parts, _ in FIVE_LINE_PINNED])
def test_pinned_line_closing_among_four_grid_lines_matches_node_sweep(parts, x):
    # on some paths the pinned line closes with four grid lines open at the
    # start, its vectors riding into the four-line start, and on others with
    # three open after an elimination, multiplying a three-line message
    p = Partition(parts)
    plan = auto_cluster_plan(ORACLE_T, p, x, nodes=11)
    re_parts = plan.theta + plan.epsilon * np.arange(p.length)
    full, coarse, _ = _trapezoid_sums(cluster_integrand_batch(ORACLE_T, x, p), plan, p.length,
                                      re_parts)
    want_full, want_coarse = _node_sweep(
        _centre_integrated(_cluster_values(ORACLE_T, x, p), ORACLE_T, x, parts), plan, re_parts,
        pinned=True)
    assert abs(full.to_complex() - want_full) <= 1e-12 * abs(want_full)
    assert abs(coarse.to_complex() - want_coarse) <= 1e-12 * abs(want_coarse)
    assert full.mantissa.imag == 0.0 and coarse.mantissa.imag == 0.0


@pytest.mark.parametrize("pinned", [1, 2])
def test_only_line_0_may_be_pinned(monkeypatch, pinned):
    # every integrand pins line 0, and the recursion reads the pinned line's
    # tables as rows T[m, b] of pairs (0, u); another line, or one the term
    # does not have, is refused before any sum
    sums = []
    monkeypatch.setattr(quadrature, "_sum_orders", lambda *args: sums.append(args))
    n = 7

    def f(Z):
        return Interleavings.product(tuple(0.5 * z * z for z in Z), ((0, 1),),
                                     np.ones((1, 2 * n - 1), dtype=complex), pinned=pinned)

    plan = ContourPlan(theta=0.0, epsilon=0.1, half_width=2.0, nodes_per_line=n)
    with pytest.raises(ValueError, match=f"only line 0 may be pinned, got line {pinned}"):
        integrate_tensor(f, plan, 2)
    assert not sums


def test_toeplitz_table_views_node_differences():
    # on a grid where y is exact, every node pair's difference is one of the
    # 2N-1 offsets, bit for bit, and [::2, ::2] is the coarse grid's table
    y = np.linspace(-4.0, 4.0, 9)
    Z = np.array([0.25, -0.5, 1.75])[:, None] + 1j * y[None, :]
    for i, j in itertools.permutations(range(3), 2):
        g = quadrature._node_differences(Z[i], Z[j])
        table = quadrature._toeplitz_table(g)
        assert g.shape == (17,) and np.shares_memory(table, g)
        assert np.array_equal(table, Z[i][:, None] - Z[j][None, :])
        assert np.array_equal(table[::2, ::2], Z[i][::2, None] - Z[j][None, ::2])


def test_toeplitz_table_views_vectors_and_stacks():
    # one vector, a stack and the coarse grid's [:, ::2] stack each give the
    # dense tables, read-only; a contiguous vector or stack is shared, not copied
    rng = np.random.default_rng(7)
    n = 9
    stack = rng.standard_normal((3, 2 * n - 1)) + 1j * rng.standard_normal((3, 2 * n - 1))

    def dense(g):
        m = (len(g) + 1) // 2
        return np.array([[g[a - b + m - 1] for b in range(m)] for a in range(m)])

    for g, shared in ((stack[1], True), (stack, True), (stack[:, ::2], False)):
        table = quadrature._toeplitz_table(g)
        want = dense(g) if g.ndim == 1 else np.array([dense(row) for row in g])
        assert np.array_equal(table, want)
        assert not table.flags.writeable
        assert np.shares_memory(table, g) == shared


def _grid(plan, re_parts):
    """The nodes _trapezoid_sums hands an integrand: one shared uniform y."""
    y = np.linspace(-plan.half_width, plan.half_width, plan.nodes_per_line)
    return re_parts[:, None] + 1j * y[None, :]


def _pair_differences(Z, i, j):
    """w_i - w_j at every node pair, indexed (node on min line, node on max line)."""
    return Z[i][:, None] - Z[j][None, :] if i < j else Z[i][None, :] - Z[j][:, None]


def _direct_cluster_tables(Z, parts):
    """Every placement table from its N^2 node-pair differences, by row."""
    tables = {}
    for row, (keys, pair) in enumerate(_placements(parts).tables):
        table = np.ones((Z.shape[1],) * 2, dtype=complex)
        if pair is not None:
            i, j = pair
            d = _pair_differences(Z, i, j)
            li, lj = parts[i], parts[j]
            table = table * ((d + (li - lj)) * -d) / ((d + li) * (lj - d))
        for cu, cv, off in keys:
            den = _pair_differences(Z, cu, cv) + off
            table = table * (den - 1.0) / den
        tables[row] = table
    return tables


TABLE_CASES = [p for n in range(2, 5) for p in enumerate_partitions(n) if p.length > 1]
TABLE_CASES += [Partition((2, 2, 1))]  # its clusters of two stay partly placed


def _assert_tables_match(got, want):
    # got maps keys to offset vectors, each expanded here to its N x N table
    assert got.keys() == want.keys()
    for key, table in want.items():
        assert got[key].shape == (2 * table.shape[0] - 1,)
        expanded = quadrature._toeplitz_table(got[key])
        assert np.all(np.abs(expanded - table) <= 1e-14 * np.abs(table)), key


@pytest.mark.parametrize("nodes", [11, 35])
@pytest.mark.parametrize("p", TABLE_CASES, ids=str)
def test_cluster_tables_match_node_pair_form(p, nodes):
    # tables built on the 2N-1 node offsets equal the N^2 node-pair formula
    x = FIVE_POINT_X[:p.n]
    plan = auto_cluster_plan(ORACLE_T, p, x, nodes=nodes)
    Z = _grid(plan, plan.theta + plan.epsilon * np.arange(p.length))
    term = cluster_integrand_batch(ORACLE_T, x, p, pinned=False)(Z)
    _assert_tables_match(dict(enumerate(term.tables)), _direct_cluster_tables(Z, p.parts))


@pytest.mark.parametrize("nodes", [11, 35])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_nested_tables_match_node_pair_form(n, nodes):
    x = ORACLE_X[:n]
    a = default_abscissas(n, ORACLE_T, x)
    Z = _grid(auto_nested_plan(ORACLE_T, a, nodes=nodes), np.array(a))
    term = _nested_integrand(ORACLE_T, np.asarray(sorted(x)), pinned=False)(Z)
    want = {}
    for i, j in itertools.combinations(range(n), 2):
        d = _pair_differences(Z, i, j)
        want[i, j] = d / (d - 1.0)
    _assert_tables_match(dict(zip(term.pairs, term.tables)), want)


@pytest.mark.parametrize("p", TABLE_CASES, ids=str)
def test_cluster_table_pairs_name_the_lines_of_every_factor(p):
    # a table row's line pair, stated once on the term, is the line pair of
    # each of its cross ratios and of its Cauchy factor
    plan = auto_cluster_plan(ORACLE_T, p, FIVE_POINT_X[:p.n], nodes=11)
    Z = _grid(plan, plan.theta + plan.epsilon * np.arange(p.length))
    term = cluster_integrand_batch(ORACLE_T, FIVE_POINT_X[:p.n], p)(Z)
    graph = _placements(p.parts)
    assert len(term.pairs) == len(graph.tables) == term.tables.shape[0]
    for pair, (keys, cauchy) in zip(term.pairs, graph.tables):
        assert pair[0] < pair[1]
        assert keys and all((min(cu, cv), max(cu, cv)) == pair for cu, cv, _ in keys)
        assert cauchy is None or cauchy == pair
    assert {pair for *_, pair in graph.tables if pair is not None} == set(
        itertools.combinations(range(p.length), 2))


PLACEMENT_GRAPHS = [p for n in range(1, MAX_TOP_SIZE + 1) for p in enumerate_partitions(n)
                    if p.length <= MAX_LINES]


# (states, steps) of some graphs: every step closes a line, so the states
# are the start and every state a line closes into
GRAPH_SIZES = {(2, 1): (5, 6), (2, 2): (8, 12), (2, 1, 1): (12, 22),
               (2, 1, 1, 1): (28, 68), (1, 1, 1, 1): (16, 32)}


def test_each_line_pair_table_enters_once_as_its_first_line_closes():
    # on every graph cluster_integral accepts, every step closes a line k
    # open at its state and carries exactly one table per other open line,
    # holding all lambda_k * lambda_u cross ratios.  Each state is reached
    # with one set of open lines, so checking every step against its state's
    # set checks every path: each line pair's table enters once, at the
    # closing step of the first of its two lines.
    assert len(PLACEMENT_GRAPHS) == 70
    for p in PLACEMENT_GRAPHS:
        graph = _placements(p.parts)
        if p.parts in GRAPH_SIZES:
            assert (len(graph.steps), sum(map(len, graph.steps))) == GRAPH_SIZES[p.parts], p
        open_at = {0: frozenset(range(p.length))}
        for state, steps in enumerate(graph.steps):
            for step in steps:
                k, lines = step.line, open_at[state]
                assert k in lines, (p, state, step)
                pairs = sorted(graph.pairs[r] for r in step.tables)
                assert pairs == [(min(k, u), max(k, u)) for u in sorted(lines - {k})], \
                    (p, state, step)
                lines = lines - {k}
                for r in step.tables:
                    i, j = graph.pairs[r]
                    assert len(graph.tables[r][0]) == p.parts[i] * p.parts[j], (p, r)
                assert open_at.setdefault(step.dst, lines) == lines, (p, state, step)
        assert open_at[len(graph.steps) - 1] == frozenset(), p


# (pairs, steps out of each state) of two- and three-line terms whose
# recursion would drop a table
DROPPED_TABLES = {
    "two tables for one line pair": (((0, 1), (0, 1)), (
        (Placement(1, 1, (0, 1)),), (Placement(2, 0),), ())),
    "table off the closing line": (((0, 1),), (
        (Placement(1, 2, (0,)),), (Placement(2, 1),), (Placement(3, 0),), ())),
}


@pytest.mark.parametrize("case", DROPPED_TABLES)
def test_tables_the_recursion_would_drop_refused_before_any_sum(monkeypatch, case):
    sums = []
    monkeypatch.setattr(quadrature, "_sum_orders", lambda *args: sums.append(args))
    n, (pairs, steps) = 7, DROPPED_TABLES[case]
    lines = 1 + max(step.line for out in steps for step in out)

    def f(Z):
        exponents = tuple((0.5 * z * z)[None, :] for z in Z)
        return Interleavings(steps, exponents, np.ones((len(pairs), 2 * n - 1)), pairs)

    plan = ContourPlan(theta=0.0, epsilon=0.1, half_width=2.0, nodes_per_line=n)
    with pytest.raises(ValueError, match="it may name one per pair of its line"):
        integrate_tensor(f, plan, lines)
    assert not sums


@pytest.mark.parametrize("lines", [3, 4])
@pytest.mark.parametrize("case", ["exponents", "table"])
def test_integrand_not_real_on_real_axis_refused_before_any_sum(monkeypatch, case, lines):
    # the half grid of three or more lines needs exponent rows and tables
    # conjugate under node reversal; one that is not is refused up front,
    # after the finiteness vets, which still win when both would refuse
    sums = []
    monkeypatch.setattr(quadrature, "_sum_orders", lambda *args: sums.append(args))
    n = 7
    pairs = tuple(itertools.combinations(range(lines), 2))

    def f(Z, bad=None):
        exponents = [0.5 * z * z for z in Z]
        tables = np.ones((len(pairs), 2 * n - 1), dtype=complex)
        if case == "exponents":
            exponents[1] = exponents[1] + 0.3j * Z[1]
        else:
            tables[pairs.index((0, 2))] = 1.0 + 0.1j
        if bad is not None:
            tables[0, bad] = complex(math.inf, 0.0)
        return Interleavings.product(exponents, pairs, tables)

    named = "line 2" if case == "exponents" else "lines 1,3"
    plan = ContourPlan(theta=0.1, epsilon=0.2, half_width=2.0, nodes_per_line=n)
    with pytest.raises(ValueError, match=f"not real on the real axis: .* {named} "):
        integrate_tensor(f, plan, lines)
    with pytest.raises(NumericsError, match="not finite"):
        integrate_tensor(lambda Z: f(Z, bad=3), plan, lines)
    assert not sums


@pytest.mark.parametrize("extra", [-1, 1])
def test_tables_not_one_per_pair_refused_before_any_sum(monkeypatch, extra):
    # a stack with a row more or fewer than the term has line pairs
    sums = []
    monkeypatch.setattr(quadrature, "_sum_orders", lambda *args: sums.append(args))
    n, pairs = 7, ((0, 1), (0, 2), (1, 2))

    def f(Z):
        tables = np.ones((len(pairs) + extra, 2 * n - 1), dtype=complex)
        return Interleavings.product(tuple(0.5 * z * z for z in Z), pairs, tables)

    plan = ContourPlan(theta=0.0, epsilon=0.1, half_width=2.0, nodes_per_line=n)
    with pytest.raises(ValueError, match="one offset vector per line pair"):
        integrate_tensor(f, plan, 3)
    assert not sums


@pytest.mark.parametrize("nodes", [11, 35])
@pytest.mark.parametrize("parts,key", [((1, 1), (0, 1, 0)), ((2, 1), (0, 1, 1)),
                                       ((2, 2), (0, 1, -1)), ((2, 1, 1), (1, 2, 0))],
                         ids=["1+1", "2+1", "2+2", "2+1+1"])
def test_cross_ratio_pole_refused_on_node_offsets(parts, key, nodes):
    # lines placed so that w_cu - w_cv + d comes within 1e-10 of 0 at
    # same-height nodes; at 1e-6, above the floor, the same grid passes
    cu, cv, d = key
    p = Partition(parts)
    plan = auto_cluster_plan(ORACLE_T, p, FIVE_POINT_X[:p.n], nodes=nodes)
    f = cluster_integrand_batch(ORACLE_T, FIVE_POINT_X[:p.n], p)
    for gap, refused in ((1e-10, True), (1e-6, False)):
        re_parts = 0.3 * np.arange(p.length)
        re_parts[cv] = re_parts[cu] + d - gap
        Z = _grid(plan, re_parts)
        if refused:
            with pytest.raises(NearSingularityError, match=f"clusters {cu},{cv} at offset "
                                                           f"difference {d} came within 1.000e-10"):
                f(Z)
        else:
            f(Z)


def test_four_singletons_take_four_four_line_eliminations(eliminations):
    # 1+1+1+1 sums its 24 interleavings over the 2**4 subsets of open lines:
    # 4 four-line eliminations and 12 three-line ones per grid, not 24 of each
    graph = _placements((1, 1, 1, 1))
    assert len(graph.steps) == 16 and sum(map(len, graph.steps)) == 32
    p = Partition((1, 1, 1, 1))
    plan = auto_cluster_plan(ORACLE_T, p, ORACLE_X, nodes=11)
    integrate_tensor(cluster_integrand_batch(ORACLE_T, ORACLE_X, p, pinned=False), plan, 4)
    # full grid and coarse grid; then two-line and one-line sum-outs
    assert eliminations == {("start", 4): 2 * 4, ("sum_out", 3): 2 * 12,
                            ("sum_out", 2): 2 * 12, ("sum_out", 1): 2 * 4}


@pytest.mark.parametrize("route", ["partition", "nested"])
def test_four_line_recursion_holds_one_three_line_message(route):
    # each four-line start step's three-line message goes at once to the
    # sum-outs that consume it, before the next step writes its own into the
    # same array: the peak holds one N^3 message and its half-size operand,
    # not one message per step.  The routes' terms pin a line, so the four
    # grid lines are the oracle forms'
    n, x = 61, ORACLE_X
    p = Partition((1, 1, 1, 1))
    if route == "partition":
        plan, a = auto_cluster_plan(ORACLE_T, p, x, nodes=n), None
        f = cluster_integrand_batch(ORACLE_T, x, p, pinned=False)
    else:
        a = default_abscissas(4, ORACLE_T, x)
        plan = auto_nested_plan(ORACLE_T, a, nodes=n)
        f = _nested_integrand(ORACLE_T, np.asarray(sorted(x)), pinned=False)
    integrate_tensor(f, plan, 4, abscissas=a)  # caches filled outside the measurement
    tracemalloc.start()
    try:
        integrate_tensor(f, plan, 4, abscissas=a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * n**3 * 16


@pytest.mark.parametrize("case", ["partition", "nested"])
def test_default_four_point_plans_stay_small(case):
    # at t = 1 the default plans take N = 97 (1+1+1+1) and N = 133 (nested),
    # on three grid lines: an N^3 array alone would be 14.6 and 37.6 MB
    req = MomentRequest(1.0, (0.0,) * 4)
    run, limit = {"partition": (cluster_breakdown, 4e6),
                  "nested": (moment_nested_contours, 3e6)}[case]
    run(req)  # caches filled outside the measurement
    tracemalloc.start()
    try:
        run(req)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit


def _factor(n, rng, flip):
    """A random table factor (g, view) as _operands hands it on: oriented as
    given, or flipped by reversing g and transposing its view."""
    g = rng.standard_normal(2 * n - 1) + 1j * rng.standard_normal(2 * n - 1)
    view = quadrature._toeplitz_table(g)
    return (g[::-1], view.T) if flip else (g, view)


SUM_OUT_SPECS = {0: "kpq", 1: "pkq", 2: "pqk"}


@pytest.mark.parametrize("axis", [0, 1, 2])
@pytest.mark.parametrize("flips", [(False, False), (True, False), (False, True)])
def test_three_line_sum_out_matches_dense_formula(axis, flips):
    # summing any line out of a three-line message, with its tables to the
    # other two lines in either orientation
    n = 41
    rng = np.random.default_rng(axis)
    core = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    facs = [_factor(n, rng, flip) for flip in flips]
    near, far = (np.array(quadrature._square(f)) for f in facs)
    want = np.einsum(f"{SUM_OUT_SPECS[axis]},k,kp,kq->pq", core, v, near, far)
    got = quadrature._sum_out(core, axis, v, facs)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_two_line_term_never_forms_a_square_table():
    # a two-line term sums its lines out by convolution with the offset
    # vectors: at N = 401 its peak stays below one N x N complex array
    n = 401
    p = Partition((1, 1))
    plan = auto_cluster_plan(ORACLE_T, p, ORACLE_X[:2], nodes=n)
    f = cluster_integrand_batch(ORACLE_T, ORACLE_X[:2], p)
    integrate_tensor(f, plan, 2)  # caches filled outside the measurement
    tracemalloc.start()
    try:
        integrate_tensor(f, plan, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 16


def test_integrand_closures_keep_their_qualnames():
    # bench/tracer.py books integrand time by these qualified names
    f = cluster_integrand_batch(ORACLE_T, ORACLE_X[:2], Partition((1, 1)))
    g = _nested_integrand(ORACLE_T, np.asarray(ORACLE_X[:2]))
    assert f.__qualname__ == "cluster_integrand_batch.<locals>.f"
    assert g.__qualname__ == "_nested_integrand.<locals>.f"


def test_nested_pole_gap_refused():
    # abscissas 1 + 1e-10 apart put node pairs within 1e-10 of the pair pole
    plan = ContourPlan(theta=1.0 + 1e-10, epsilon=-1.0 - 1e-10, half_width=8.0,
                       nodes_per_line=11)
    req = MomentRequest(1.0, (0.0, 0.0), plan=plan)
    with pytest.raises(NearSingularityError):
        moment_nested_contours(req, abscissas=(1.0 + 1e-10, 0.0))


def test_grid_size_guard_before_work():
    calls = []
    plan = ContourPlan(theta=0.0, epsilon=0.1, half_width=8.0, nodes_per_line=2001)
    with pytest.raises(NumericsError, match="beyond the limit"):
        integrate_tensor(lambda Z: calls.append(Z), plan, 4)
    assert not calls
    check_grid_size(plan, 3)  # 2001^2 tables are within the limit


_THREAD_PROBE = """
import numpy as np
from bosegas.cli import main
from bosegas.kernel import cluster_integrand_batch
from bosegas.moments import (MomentRequest, _nested_integrand, auto_cluster_plan,
                             auto_nested_plan, cluster_breakdown, combine_results,
                             default_abscissas, moment_nested_contours, moment_partition_sum)
from bosegas.partitions import Partition
from bosegas.quadrature import integrate_tensor
def show(r):
    print(repr(r.value.mantissa), repr(r.value.log_scale), repr(r.step_estimate))
for req in (MomentRequest(0.8, (-0.4, 0.1, 0.7)), MomentRequest(1.0, (0.0,) * 4)):
    for route in (moment_partition_sum, moment_nested_contours):
        show(route(req))
# the bench's n = 4 plans
req = MomentRequest(1.0, (0.0,) * 4)
show(combine_results(r for _, r in cluster_breakdown(req, nodes=35)))
show(moment_nested_contours(req, nodes=53, half_width=6.5))
main(["asymptotic-table", "--n", "2", "--t-list", "5"])
# the default n = 4 plans, every term's bits printed
main(["moment", "--t", "1", "--n", "4"])
main(["moment", "--t", "1", "--n", "4", "--route", "nested"])
# four grid lines: the pinned nested order of five lines, and 2+1+1+1+1
x = (-0.4, 0.1, 0.7, 1.0, 1.2)
a = default_abscissas(5, 0.8, x)
show(integrate_tensor(_nested_integrand(0.8, np.asarray(sorted(x))),
                      auto_nested_plan(0.8, a, nodes=63), 5, abscissas=a))
p, x = Partition((2, 1, 1, 1, 1)), x + (-0.6,)
show(integrate_tensor(cluster_integrand_batch(0.8, x, p),
                      auto_cluster_plan(0.8, p, x, nodes=63), 5))
"""


def test_blas_thread_count_invariance():
    # the matrix products are the only place a threaded BLAS could reorder a
    # reduction; results must not depend on its thread count
    src = str(Path(bosegas.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env,
                              capture_output=True, text=True, timeout=300, check=True)
        outs.append(proc.stdout)
    assert len(outs[0].splitlines()) == 8 + 7 + 2 + 2
    assert outs[0] == outs[1]  # bit-identical, not approximately equal
