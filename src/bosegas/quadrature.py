"""Truncated-trapezoid quadrature on tensor products of vertical lines.

Each contour is a vertical line Re w = const truncated to imaginary part
[-T, T]; the trapezoid rule there converges geometrically for the analytic,
Gaussian-decaying integrands this package produces.

Integrands are factored.  f(Z), with Z of shape (lines, N) holding each
line's nodes, returns a sequence of FactorTerm; each term is a constant times
per-line factors exp(e_k) and line-pair tables P_ij:

    coef * prod_k exp(e_k[a_k]) * prod_{i<j} P_ij[a_i, a_j]

so the trapezoid sum over the N**lines grid is a contraction of length-N
vectors and N x N tables, summed in a fixed order (variable elimination, as
in opt_einsum): a plain sum for one line, a weighted table sum for two, one
N^3 matmul for three, and for four one (N^2 x N)(N x N) matmul plus N^3
elementwise work.  Nothing visits the grid node by node.

Scaling: each line's vector is exp(1j Im e) * weight * exp(Re e - s_k) with
s_k the largest Re e on that line, so a term's value is its contraction
times exp(sum_k s_k), one scalar log-scale per term.  Terms are then added
in ScaledComplex arithmetic, in the order f returns them.

Two error diagnostics ride along (estimates, not enclosures):
  * tail_bound   - relative Gaussian tail mass erfc(sqrt(a_k) T) summed over
                   lines, from the declared decay rates a_k;
  * step_estimate- relative difference against the embedded every-other-node
                   grid (the same contraction on vectors and tables strided
                   [::2], weights doubled), a conservative bound dominated by
                   the coarse grid's own error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericsError, UnsupportedDimensionError
from .scaled import ScaledComplex, rel_diff

_TWO_PI = 2.0 * math.pi
MAX_LINES = 4
# Largest array the contraction allocates, in complex values: N^3 at four
# lines (two such arrays are live at once), N^2 tables below that.
MAX_ARRAY_VALUES = 1 << 24


@dataclass(frozen=True)
class ContourPlan:
    """Vertical-line family Re w = theta + k*epsilon, k = 0..lines-1.

    half_width truncates each line to imaginary part [-T, T]; nodes_per_line
    is odd so the real axis crossing is always a node.
    """

    theta: float
    epsilon: float
    half_width: float
    nodes_per_line: int = 257

    def __post_init__(self):
        if not (math.isfinite(self.theta) and math.isfinite(self.epsilon)):
            raise ValueError("contour plan needs finite theta and epsilon")
        if not (math.isfinite(self.half_width) and self.half_width > 0):
            raise ValueError(f"half_width must be positive, got {self.half_width}")
        n = self.nodes_per_line
        if not isinstance(n, int) or n < 3 or n % 2 == 0:
            raise ValueError(f"nodes_per_line must be an odd integer >= 3, got {n}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / (self.nodes_per_line - 1)


@dataclass(frozen=True)
class QuadratureResult:
    value: ScaledComplex
    tail_bound: float
    step_estimate: float


@dataclass(frozen=True)
class FactorTerm:
    """coef * prod_k exp(exponents[k][a_k]) * prod_{i<j} pairs[i, j][a_i, a_j].

    exponents holds one length-N complex array per line; pairs maps a line
    pair (i, j), i < j, to an (N, N) table indexed (node on i, node on j).
    A pair missing from the map contributes 1.
    """

    exponents: tuple
    pairs: dict = field(default_factory=dict)
    coef: complex = 1.0


def line_nodes(plan: ContourPlan, line_index: int) -> list[tuple[complex, float]]:
    """Nodes and trapezoid weights (h/2pi, halved at the ends) for one line."""
    y, w = _grid_1d(plan)
    re = plan.theta + line_index * plan.epsilon
    return [(complex(re, yi), wi) for yi, wi in zip(y.tolist(), w.tolist())]


def _grid_1d(plan: ContourPlan):
    y = np.linspace(-plan.half_width, plan.half_width, plan.nodes_per_line)
    w = np.full(plan.nodes_per_line, plan.spacing / _TWO_PI)
    w[0] *= 0.5
    w[-1] *= 0.5
    return y, w


def check_grid_size(plan: ContourPlan, num_lines: int):
    """Raise NumericsError if contracting num_lines lines of this plan would
    allocate an array beyond MAX_ARRAY_VALUES."""
    largest = plan.nodes_per_line ** max(2, num_lines - 1)
    if largest > MAX_ARRAY_VALUES:
        raise NumericsError(
            f"{num_lines} lines of {plan.nodes_per_line} nodes need an array of {largest} "
            f"complex values, beyond the limit {MAX_ARRAY_VALUES}; shrink the plan"
        )


def _contract(vecs, pairs):
    """sum over a_1..a_l of prod_k vecs[k][a_k] * prod_{i<j} pairs[i, j][a_i, a_j]."""
    if len(vecs) == 1:
        return complex(vecs[0].sum())
    inner = None
    if len(vecs) == 3:
        # inner[a, b] = sum_c P02[a, c] v2[c] P12[b, c]
        inner = (pairs[0, 2] * vecs[2]) @ pairs[1, 2].T
    elif len(vecs) == 4:
        n = vecs[0].size
        # inner[a, b, c] = sum_d P03[a, d] P13[b, d] P23[c, d] v3[d]
        lhs = (pairs[0, 3][:, None, :] * pairs[1, 3][None, :, :]).reshape(n * n, n)
        inner = (lhs @ (pairs[2, 3] * vecs[3]).T).reshape(n, n, n)
        del lhs
        inner *= pairs[0, 2][:, None, :]
        inner *= (pairs[1, 2] * vecs[2])[None, :, :]
        inner = inner.sum(axis=2)
    outer = vecs[0][:, None] * pairs[0, 1] * vecs[1][None, :]
    if inner is not None:
        outer *= inner
    return complex(outer.sum())


def _line_vector(e, w, k, Z):
    """exp(1j Im e) * w * exp(Re e - s) and its log-scale s, vetting e."""
    bad = ~np.isfinite(e)
    if bad.any():
        j = int(np.argmax(bad))
        raise NumericsError(
            f"integrand factor not finite on line {k + 1} at w_{k + 1}={Z[k, j]:.6g}, "
            f"grid indices [{j}]"
        )
    s = float(e.real.max())
    return np.exp(1j * e.imag) * w * np.exp(e.real - s), s


def _pair_table(pairs, i, j, Z, ones):
    table = pairs.get((i, j))
    if table is None:
        return ones
    bad = ~np.isfinite(table)
    if bad.any():
        a, b = np.unravel_index(int(np.argmax(bad)), table.shape)
        raise NumericsError(
            f"integrand factor not finite on lines {i + 1},{j + 1} at "
            f"w_{i + 1}={Z[i, a]:.6g}, w_{j + 1}={Z[j, b]:.6g}, grid indices [{a}, {b}]"
        )
    return table


def _trapezoid_sums(f, plan: ContourPlan, num_lines: int, re_parts):
    """Full and embedded-coarse trapezoid sums of a factored integrand."""
    y, w = _grid_1d(plan)
    Z = re_parts[:, None] + 1j * y[None, :]
    ones = np.ones((plan.nodes_per_line,) * 2)
    value, coarse = ScaledComplex.zero(), ScaledComplex.zero()
    for term in f(Z):
        if len(term.exponents) != num_lines:
            raise ValueError(f"integrand term has {len(term.exponents)} lines, need {num_lines}")
        vecs, log = [], 0.0
        for k, e in enumerate(term.exponents):
            v, s = _line_vector(np.asarray(e), w, k, Z)
            vecs.append(v)
            log += s
        pairs = {(i, j): _pair_table(term.pairs, i, j, Z, ones)
                 for i in range(num_lines) for j in range(i + 1, num_lines)}
        full = _contract(vecs, pairs)
        # every other node: spacing 2h, so weights double on each line
        half = _contract([2.0 * v[::2] for v in vecs],
                         {key: p[::2, ::2] for key, p in pairs.items()})
        for s_val in (full, half):
            if not (math.isfinite(s_val.real) and math.isfinite(s_val.imag)):
                raise NumericsError(f"contracted integrand term not finite: {s_val}")
        value = value + ScaledComplex(term.coef * full, log)
        coarse = coarse + ScaledComplex(term.coef * half, log)
    return value, coarse


def integrate_tensor(f, plan: ContourPlan, num_lines: int, decay_rates=None, abscissas=None):
    """Tensor-product trapezoid integral of a factored integrand.

    f(Z) -> sequence of FactorTerm, with Z of shape (num_lines, N) holding
    each line's nodes.  Line k sits at Re w = theta + k*epsilon unless
    explicit `abscissas` override the real parts.  decay_rates (per-line
    Gaussian coefficients a_k with |integrand| ~ exp(-a_k y_k^2)) feed the
    tail bound.
    """
    if num_lines < 1:
        raise ValueError(f"num_lines must be >= 1, got {num_lines}")
    if num_lines > MAX_LINES:
        raise UnsupportedDimensionError(
            f"tensor quadrature supports at most {MAX_LINES} lines, got {num_lines}"
        )
    if abscissas is not None:
        abscissas = tuple(float(a) for a in abscissas)
        if len(abscissas) != num_lines:
            raise ValueError(f"need {num_lines} abscissas, got {len(abscissas)}")
        re_parts = np.array(abscissas)
    else:
        re_parts = plan.theta + plan.epsilon * np.arange(num_lines)
    if decay_rates is not None:
        decay_rates = tuple(float(a) for a in decay_rates)
        if len(decay_rates) != num_lines or any(a <= 0 for a in decay_rates):
            raise ValueError(f"need {num_lines} positive decay rates, got {decay_rates}")
    check_grid_size(plan, num_lines)

    value, coarse = _trapezoid_sums(f, plan, num_lines, re_parts)
    tail = 0.0
    if decay_rates is not None:
        tail = sum(math.erfc(math.sqrt(a) * plan.half_width) for a in decay_rates)
    step = rel_diff(value, coarse)
    return QuadratureResult(value=value, tail_bound=tail, step_estimate=step)
