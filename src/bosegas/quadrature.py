"""Truncated-trapezoid quadrature on tensor products of vertical lines.

Each contour is a vertical line Re w = const truncated to imaginary part
[-T, T]; the trapezoid rule there converges geometrically for the analytic,
Gaussian-decaying integrands this package produces.

Integrands are factored.  f(Z), with Z of shape (lines, N) holding each
line's nodes, returns a sequence of terms, each a sum over placement orders
(Interleavings): coef times, summed over the paths of a small state graph,
the product of the line-pair tables every step of the path multiplies in and,
on each line, exp(e_k) for the exponent its closing step names.  A single
product (FactorTerm) is the one-order case: its lines close last to first.

The trapezoid sum over the N**lines grid is a recursion over those states
(variable elimination, as in opt_einsum, shared between orders as in Held &
Karp's subset recursion).  A state's message is a dense array over the lines
still open once one of them has been summed out, and before that only the
tables its one path has collected.  A step that closes line k multiplies in
line k's vector and its tables to the open lines and sums w_k out: a plain
sum at one line, a vector-table product at two, one N^3 matmul at three and
one (N^2 x N)(N x N) matmul at four.  Summing a line out of a three-line
message is N^3 elementwise work.  Messages reaching the same state are added;
a three-line message is pushed on through its steps as soon as it is formed,
so no array spans four lines and at most two N^3 arrays are live.  Nothing
visits the grid node by node.

Grid invariant: _trapezoid_sums calls f with Z[k] = re_k + 1j*y, one shared
uniform y for every line.  So w_i - w_j at nodes a, b depends on the offset
a - b only, and a line-pair factor built from it takes 2N-1 distinct values:
its N x N table is Toeplitz.  _node_differences forms w_i - w_j once per
offset, the integrand does its arithmetic on those vectors, and
_toeplitz_table hands the recursion the table as a strided view of one.
Striding it [::2, ::2] gives the coarse grid's table, again a view.

Scaling: each line's vectors are exp(1j Im e) * weight * exp(Re e - s_k) with
s_k the largest Re e over every exponent that line can carry, so a term's
value is its recursion sum times exp(sum_k s_k), one scalar log-scale per
term.  Terms are then added in ScaledComplex arithmetic, in the order f
returns them.

Two error diagnostics ride along (estimates, not enclosures):
  * tail_bound   - relative Gaussian tail mass erfc(sqrt(a_k) T) summed over
                   lines, from the declared decay rates a_k;
  * step_estimate- relative difference against the embedded every-other-node
                   grid (the same recursion on vectors and tables strided
                   [::2], weights doubled), a conservative bound dominated by
                   the coarse grid's own error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import NumericsError, UnsupportedDimensionError
from .scaled import ScaledComplex, rel_diff

_TWO_PI = 2.0 * math.pi
MAX_LINES = 4
# Largest array the recursion allocates, in complex values: N^3 at four
# lines (two such arrays are live at once), N^2 tables below that.
MAX_ARRAY_VALUES = 1 << 24
# Longest inner dimension handed to one BLAS matmul.  Past 128, OpenBLAS
# (0.3.31) splits the inner sum differently at different thread counts, which
# moves the last bits of a product; shorter blocks are summed in order here.
_MATMUL_BLOCK = 128


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


class Placement(NamedTuple):
    """One step of a placement order, into state dst.

    The step multiplies in tables[key] for every (u, key) in `tables`, each a
    table between `line` and line u.  When `closes` is not None the step is
    the line's last: exp(exponents[line][closes]) goes in and the line is
    summed out.
    """

    dst: int
    line: int
    tables: tuple = ()
    closes: object = None


@dataclass(frozen=True)
class Interleavings:
    """coef * sum over the paths of `steps` of the product of their factors.

    steps[s] holds the Placements out of state s.  Every path starts at
    state 0, steps to higher states only, ends at the last state (which no
    step leaves) and closes each line once.  A state no line has closed at
    yet must be reached by one path.  exponents holds per line a map from
    closing key to length-N complex exponent; tables maps keys to (N, N)
    tables indexed (node on the lower line, node on the higher line).
    """

    steps: tuple
    exponents: tuple
    tables: dict
    coef: complex = 1.0


def _one_order(term: FactorTerm) -> Interleavings:
    """A single product as a one-path sum: lines close last to first, each
    taking its tables to the lines still open."""
    lines = len(term.exponents)
    steps = tuple(
        (Placement(dst=i + 1, line=k, closes=0,
                   tables=tuple((u, (u, k)) for u in range(k) if (u, k) in term.pairs)),)
        for i, k in enumerate(range(lines - 1, -1, -1))
    ) + ((),)
    exponents = tuple({0: np.asarray(e)} for e in term.exponents)
    return Interleavings(steps, exponents, term.pairs, term.coef)


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


def _node_differences(Z, i, j):
    """w_i - w_j by node offset: entry m + N - 1 is Z[i, a] - Z[j, b] for
    every a - b = m, m = -(N-1)..N-1.  Holds only under the grid invariant
    (see the module docstring): the lines share one uniform y."""
    return np.concatenate((Z[i][0] - Z[j][::-1], Z[i][1:] - Z[j][0]))


def _toeplitz_table(g):
    """The read-only (N, N) view T[a, b] = g[a - b + N - 1] of a vector g
    of length 2N-1 indexed by node offset, as _node_differences returns.
    Row a starts at g[a + N - 1] and runs back towards g[a]: every entry
    lies inside g."""
    n = (g.size + 1) // 2
    step = g.strides[0]
    return as_strided(g[n - 1:], shape=(n, n), strides=(step, -step), writeable=False)


def check_grid_size(plan: ContourPlan, num_lines: int):
    """Raise NumericsError if contracting num_lines lines of this plan would
    allocate an array beyond MAX_ARRAY_VALUES."""
    largest = plan.nodes_per_line ** max(2, num_lines - 1)
    if largest > MAX_ARRAY_VALUES:
        raise NumericsError(
            f"{num_lines} lines of {plan.nodes_per_line} nodes need an array of {largest} "
            f"complex values, beyond the limit {MAX_ARRAY_VALUES}; shrink the plan"
        )


def _vet_exponent(e, k, Z):
    bad = ~np.isfinite(e)
    if bad.any():
        j = int(np.argmax(bad))
        raise NumericsError(
            f"integrand factor not finite on line {k + 1} at w_{k + 1}={Z[k, j]:.6g}, "
            f"grid indices [{j}]"
        )


def _vet_table(table, i, j, Z):
    bad = ~np.isfinite(table)
    if bad.any():
        a, b = np.unravel_index(int(np.argmax(bad)), table.shape)
        raise NumericsError(
            f"integrand factor not finite on lines {i + 1},{j + 1} at "
            f"w_{i + 1}={Z[i, a]:.6g}, w_{j + 1}={Z[j, b]:.6g}, grid indices [{a}, {b}]"
        )


def _line_vectors(exponents, w, Z):
    """Per line, the closing vectors exp(1j Im e) * w * exp(Re e - s_k) and
    the log-scale s_k, the largest Re e over every exponent of line k."""
    vectors, scales = [], []
    for k, by_key in enumerate(exponents):
        for e in by_key.values():
            _vet_exponent(e, k, Z)
        s = max(float(e.real.max()) for e in by_key.values())
        vectors.append({key: np.exp(1j * e.imag) * w * np.exp(e.real - s)
                        for key, e in by_key.items()})
        scales.append(s)
    return vectors, scales


def _spread(table, ak, au, ndim):
    """A table indexed (node on k, node on u) shaped to broadcast over ndim
    axes with k on axis ak and u on axis au."""
    if ak > au:
        table = table.T
    shape = [1] * ndim
    shape[ak] = shape[au] = table.shape[0]
    return table.reshape(shape)


def _matmul(a, b):
    """a @ b, bit-identical at any BLAS thread count (see _MATMUL_BLOCK).  A
    longer inner dimension is summed block by block, a few rows of a at a
    time, so the partial products stay small."""
    k = a.shape[1]
    if k <= _MATMUL_BLOCK:
        return a @ b
    out = np.empty((a.shape[0], b.shape[1]), dtype=np.result_type(a, b))
    for row in range(0, a.shape[0], k):
        rows = a[row:row + k]
        acc = rows[:, :_MATMUL_BLOCK] @ b[:_MATMUL_BLOCK]
        for start in range(_MATMUL_BLOCK, k, _MATMUL_BLOCK):
            acc += rows[:, start:start + _MATMUL_BLOCK] @ b[start:start + _MATMUL_BLOCK]
        out[row:row + k] = acc
    return out


def _sum_out(core, axis, v, facs):
    """Sum line k out of a message.  core spans the open lines with k on
    `axis` (None: no line summed out yet); v is line k's vector and facs its
    tables to the other open lines, in line order, each indexed (node on k,
    node on u).  Returns the message over the other open lines."""
    if core is None:
        if not facs:
            return complex(v.sum())
        first = facs[0] * v[:, None]
        if len(facs) == 1:
            return first.sum(axis=0)
        if len(facs) == 2:
            return _matmul(first.T, facs[1])
        n = v.size
        # out[a, b, c] = sum_d v[d] F0[d, a] F1[d, b] F2[d, c]
        lhs = np.multiply(first.T[:, None, :], facs[1].T[None, :, :], order="C")
        lhs = lhs.reshape(n * n, n)
        return _matmul(lhs, facs[2]).reshape(n, n, n)
    if core.ndim == 1:
        return complex((core * v).sum())
    others = [a for a in range(core.ndim) if a != axis]
    prod = core * _spread(facs[0] * v[:, None], axis, others[0], core.ndim)
    for f, au in zip(facs[1:], others[1:]):
        prod *= _spread(f, axis, au, core.ndim)
    return prod.sum(axis=axis)


# A message is (open, core, pending): the lines not yet summed out,
# ascending (core's axes once it exists); core, None until a line is summed
# out, then an array (a scalar at the end); and pending, line pair -> product
# of the tables not yet multiplied into core.


def _advance(msg, step, vectors, tables):
    open_, core, pending = msg
    k = step.line
    if step.tables:
        pending = dict(pending)
        for u, key in step.tables:
            pair = (k, u) if k < u else (u, k)
            table = tables[key]
            pending[pair] = table if pair not in pending else pending[pair] * table
    if step.closes is None:
        return open_, core, pending
    axis = open_.index(k)
    rest = open_[:axis] + open_[axis + 1:]
    v = vectors[k][step.closes]
    facs = []
    for u in rest:
        table = pending.get((k, u) if k < u else (u, k))
        if table is None:  # a line pair without a table contributes 1
            table = np.ones((v.size, v.size))
        facs.append(table if k < u else table.T)
    core = _sum_out(core, axis, v, facs)
    if pending:
        pending = {pair: t for pair, t in pending.items() if k not in pair}
    return rest, core, pending


def _deposit(acc, state, msg):
    """Add a message into the state's sum, its pending tables multiplied in."""
    open_, core, pending = msg
    if core is None:
        if state in acc:
            raise ValueError(f"state {state} is reached by two paths before any line closes")
        acc[state] = msg
        return
    for (i, j), table in pending.items():
        core = core * _spread(table, open_.index(i), open_.index(j), core.ndim)
    prev = acc.get(state)
    acc[state] = (open_, core if prev is None else prev[1] + core, {})


def _push(steps, msg, ctx):
    """Send a message along the given steps.  A message over three open
    lines is pushed on at once, never stored; any other is added into its
    state's sum.  Each new message dies before the next step's arrays exist."""
    all_steps, acc, vectors, tables = ctx
    for step in steps:
        nxt = _advance(msg, step, vectors, tables)
        if len(nxt[0]) == 3 and nxt[1] is not None:
            _push(all_steps[step.dst], nxt, ctx)
        else:
            _deposit(acc, step.dst, nxt)
        del nxt


def _sum_orders(term: Interleavings, vectors, tables):
    """The term's sum over placement orders on one grid, before coef."""
    acc = {0: (tuple(range(len(term.exponents))), None, {})}
    ctx = (term.steps, acc, vectors, tables)
    last = len(term.steps) - 1
    for state in range(last):
        msg = acc.pop(state, None)
        if msg is not None:
            _push(term.steps[state], msg, ctx)
    return acc.pop(last)[1]


def _trapezoid_sums(f, plan: ContourPlan, num_lines: int, re_parts):
    """Full and embedded-coarse trapezoid sums of a factored integrand."""
    y, w = _grid_1d(plan)
    Z = re_parts[:, None] + 1j * y[None, :]
    value, coarse = ScaledComplex.zero(), ScaledComplex.zero()
    for term in f(Z):
        if isinstance(term, FactorTerm):
            term = _one_order(term)
        if len(term.exponents) != num_lines:
            raise ValueError(f"integrand term has {len(term.exponents)} lines, need {num_lines}")
        vectors, scales = _line_vectors(term.exponents, w, Z)
        log = 0.0
        for s in scales:
            log += s
        seen = set()
        for steps in term.steps:
            for step in steps:
                for u, key in step.tables:
                    if key not in seen:
                        seen.add(key)
                        _vet_table(term.tables[key], min(step.line, u), max(step.line, u), Z)
        full = _sum_orders(term, vectors, term.tables)
        # every other node: spacing 2h, so weights double on each line
        half = _sum_orders(
            term,
            [{key: 2.0 * v[::2] for key, v in by_key.items()} for by_key in vectors],
            {key: table[::2, ::2] for key, table in term.tables.items()},
        )
        for s_val in (full, half):
            if not (math.isfinite(s_val.real) and math.isfinite(s_val.imag)):
                raise NumericsError(f"contracted integrand term not finite: {s_val}")
        value = value + ScaledComplex(term.coef * full, log)
        coarse = coarse + ScaledComplex(term.coef * half, log)
    return value, coarse


def integrate_tensor(f, plan: ContourPlan, num_lines: int, decay_rates=None, abscissas=None):
    """Tensor-product trapezoid integral of a factored integrand.

    f(Z) -> sequence of FactorTerm or Interleavings, with Z of shape
    (num_lines, N) holding each line's nodes, all lines on the same
    imaginary parts (the grid invariant above).  Line k sits at
    Re w = theta + k*epsilon unless explicit `abscissas` override the real
    parts.  decay_rates (per-line Gaussian coefficients a_k with
    |integrand| ~ exp(-a_k y_k^2)) feed the tail bound.
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
