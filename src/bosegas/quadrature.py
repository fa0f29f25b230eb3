"""Truncated-trapezoid quadrature on tensor products of vertical lines.

Each contour is a vertical line Re w = const truncated to imaginary part
[-T, T]; the trapezoid rule there converges geometrically for the analytic,
Gaussian-decaying integrands this package produces.

Integrands are factored.  f(Z), with Z of shape (lines, N) holding each
line's nodes, returns one term, a sum over placement orders (Interleavings):
coef times, summed over the paths of a small state graph, the product of the
line-pair tables the path's closing steps multiply in and, on each line,
exp(e) for the exponent row its closing step names.  A single product
(Interleavings.product) is the one-order case: its lines close last to first.

Grid invariant: _trapezoid_sums calls f with Z[k] = re_k + 1j*y, one shared
uniform y for every line.  So w_i - w_j at nodes a, b depends on the offset
a - b only, and a line-pair factor built from it takes 2N-1 distinct values:
its N x N table T[a, b] = g[a - b + N - 1] is Toeplitz, and a term carries
the offset vector g, never T.  _node_differences forms w_i - w_j once per
offset and the integrand does its arithmetic on those vectors.  Reversing g
transposes T, and since N is odd g[::2] is the coarse grid's offset vector.

Pinned line: a term may hold its line 0, Interleavings.pinned = 0, at its
middle node y = 0 with weight 1 instead of summing it.  That is the form of
an integrand whose factors depend on the lines only through w_i - w_j once a
Gaussian in their weighted mean has been integrated in closed form (see
moments): the closed-form factor rides in coef and the log-scale, and
w_k - w_0 runs over the vertical line at re_k - re_0, which is what the grid
sums with line 0 at y = 0.  The other lines are the grid lines.  No message
has an axis for the pinned line: its exponent rows are scalars, and a table
joining it to grid line u, on the pair (0, u), is a per-node vector of u,
the table's row at the middle node.  The step that closes u multiplies that
vector into u's vector; the step that closes the pinned line multiplies the
message by its row's scalar and by those vectors along their lines' axes.
Out of the start that product is never formed: the vectors go on as
per-line multipliers to the steps out of the state reached, and each
elimination takes its own line's into its vector and the others' into its
result.  The coarse grid keeps the pinned line at y = 0.

A term travels compact: per line one (rows, N) array of exponents, a row per
way the line can close, and its tables stacked as one (K, 2N-1) array of
offset vectors, beside `pairs`, the line pair (i, j), i < j, of each table
row: the one place a table's lines are stated.  Placements name rows of both
arrays.  Each line's exponents are vetted and exponentiated in one pass, and
the tables vetted on their offsets, 2N-1 values each.

The trapezoid sum over the N**lines grid is a recursion over the placement
states (variable elimination, as in opt_einsum, shared between orders as in
Held & Karp's subset recursion).  Every step closes a line, so the states
are the start and every state a line closes into.  A state's message is a
dense array over the grid lines still open, and the start has none: a table
enters whole, at the step that closes the first of its two lines, so no
message carries one.  A step that closes grid line k multiplies in
line k's vector and its tables to the open lines and sums w_k out: a plain
sum at one line, one convolution of the offset vector with the line's vector
at two (so a two-line term never forms an N x N array), one N^3 matmul at
three and one (N^2 x N)(N x N) matmul at four.  Summing a line out of a
two- or three-line message is one einsum pass over it, with no temporary of
its size.  Where a table meets a dense message it enters as an (N, N)
strided view of its offset vector, one view of the whole stack per grid,
never as a stored N x N array.  Messages reaching the same state are added,
but for the dense N^3 message a step out of four open lines forms: it goes
at once to the steps out of the state it reaches, before the next step
forms its own, so a start holds one at a time.  (A pinned line that closes
with three grid lines open adds its three-line message into the state it
reaches, one per such state.)  Nothing visits the grid node by node.  Line
counts here are grid lines: a pinned term of l lines does the work of l - 1.

Reflection: every integrand this package forms is real on the real axis,
f(conj w) = conj f(w), for t, the points, the line abscissas and every shift
in the kernel are real; and y is symmetric about 0, so node N-1-a of a line
is the conjugate of node a, and a pinned line's middle node is real.
Reversing every grid line's nodes therefore conjugates each product of
factors, and any grid line L's half of the grid with a_L > m = (N-1)/2 sums
to the conjugate of its half with a_L < m, while the slice a_L = m is its
own conjugate.  So the sum over any set of paths is 2 Re of its sum over
a_L <= m with weight 1/2 at a_L = m, and since that is linear, each first
elimination may restrict a line of its own.  A term of three or more grid
lines restricts rest[0], the first line its first elimination leaves open,
the row line of the start's matmul.  So every first elimination does half
its work, the later steps run on messages whose rows past the first
ceil(N/2) are 0, and the term's sum is 2 Re of the recursion's.  The coarse
grid has (N+1)/2 nodes, an even count when N = 3 mod 4, and then no middle
node.  One- and two-line terms, O(N^2) work, sum the whole grid.  The identity needs
exponent rows and tables that are conjugate under node reversal;
_vet_reflection refuses a term of three or more grid lines whose factors
are not.

Scaling: each line's vectors are exp(1j Im e) * weight * exp(Re e - s_k) with
s_k the largest Re e over every exponent that line can carry, so a term's
value is its recursion sum times exp(log_scale + sum_k s_k), one scalar
log-scale, returned as a ScaledComplex.

Two error diagnostics ride along (estimates, not enclosures):
  * tail_bound   - relative Gaussian tail mass erfc(sqrt(a_k) T) summed over
                   grid lines, from the declared decay rates a_k;
  * step_estimate- relative difference against the embedded every-other-node
                   grid (the same recursion on exponent and table stacks
                   strided [:, ::2], weights doubled), a conservative bound
                   dominated by the coarse grid's own error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericsError, UnsupportedDimensionError
from .scaled import ScaledComplex, rel_diff

_TWO_PI = 2.0 * math.pi
MAX_LINES = 4  # grid lines: a term with a pinned line may have one line more
# Largest message a plan may imply, in complex values: N^3 at four lines,
# N^2 at three.  Plans of two lines are held to the N^2 limit too.  A pinned
# term is held to the limit of its count of lines, one more than its grid
# lines: N^(lines-1) is then its work.  At four grid lines the N^3 message
# is allocated: with its operand an unpinned four-line term peaks near
# 2.2 N^3 values, about 0.6 GB at the limit (N = 255, which only a direct
# integrate_tensor call reaches).  A pinned five-line term is held to
# N <= 63, where 2+1+1+1+1 peaks near 8.5 N^3 values (34 MB).
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


class Placement(NamedTuple):
    """One step of a placement order, into state dst, closing `line`:
    exp(exponents[line][closes]) goes in with every table row r in `tables`,
    each joining `line` to another open line (the term's pairs[r]), at most
    one per line pair, and the line is summed out.
    """

    dst: int
    line: int
    tables: tuple = ()
    closes: int = 0


@dataclass(frozen=True)
class Interleavings:
    """coef * sum over the paths of `steps` of the product of their factors.

    steps[s] holds the Placements out of state s.  Every path starts at
    state 0, steps to higher states only, ends at the last state (which no
    step leaves) and closes one line per step, each line once, so the
    states are the start and every state a step closes a line into.  A line
    pair's table, if it has one, enters at the step that closes the first of
    its two lines.  exponents holds per line a (rows, N) complex array, one
    row per way the line can close; tables is the (K, 2N-1) stack of offset
    vectors, row r the table T[a, b] = tables[r, a - b + N - 1] on the line
    pair (i, j) = pairs[r], i < j, indexed (node on i, node on j).  The
    sum is multiplied by exp(log_scale).  pinned is None, or 0: line 0 is
    then held at its middle node y = 0 (see Pinned line in the module
    docstring); another value is refused.
    """

    steps: tuple
    exponents: tuple
    tables: np.ndarray
    pairs: tuple
    coef: complex = 1.0
    log_scale: float = 0.0
    pinned: int | None = None

    @classmethod
    def product(cls, exponents, pairs=(), tables=None, coef=1.0, log_scale=0.0,
                pinned=None) -> Interleavings:
        """coef * prod_k exp(exponents[k][a_k]) * prod_r T_r[a_i, a_j], (i, j) = pairs[r],
        as a one-path sum: lines close last to first, each taking its tables
        to the lines still open.

        exponents holds one length-N complex array per line.  pairs lists line
        pairs (i, j), i < j, and tables[r] is pair r's offset vector of length
        2N-1: T_r[a, b] = tables[r][a - b + N - 1] (see the grid invariant).  A
        pair not listed contributes 1.  log_scale and pinned are the fields'.
        """
        exponents = tuple(np.asarray(e)[None, :] for e in exponents)
        pairs = tuple(pairs)
        steps = tuple(
            (Placement(dst=i + 1, line=k,
                       tables=tuple(r for r, (_, j) in enumerate(pairs) if j == k)),)
            for i, k in enumerate(range(len(exponents) - 1, -1, -1))
        ) + ((),)
        if not pairs:
            tables = np.empty((0, 2 * exponents[0].shape[1] - 1), dtype=complex)
        return cls(steps, exponents, tables, pairs, coef, log_scale, pinned)


def _grid_1d(plan: ContourPlan):
    # the nodes of np.linspace(-T, T, N), formed as it forms them (k*h - T,
    # the last node set to T), without its call overhead
    y = np.arange(plan.nodes_per_line) * plan.spacing - plan.half_width
    y[-1] = plan.half_width
    w = np.full(plan.nodes_per_line, plan.spacing / _TWO_PI)
    w[0] *= 0.5
    w[-1] *= 0.5
    return y, w


def _node_differences(zi, zj):
    """w_i - w_j by node offset: entry m + N - 1 is zi[a] - zj[b] for every
    a - b = m, m = -(N-1)..N-1.  zi and zj are lines, or stacks of lines
    that broadcast against each other, giving one row per line pair.  Holds
    only under the grid invariant (see the module docstring): the lines
    share one uniform y."""
    return np.concatenate((zi[..., :1] - zj[..., ::-1], zi[..., 1:] - zj[..., :1]), axis=-1)


def _toeplitz_table(g):
    """The read-only (N, N) view T[a, b] = g[a - b + N - 1] of a vector g
    of length 2N-1 indexed by node offset, as _node_differences returns, or
    one such view per row of a stack of them.  Row a starts at g[a + N - 1]
    and runs back towards g[a]: every entry lies inside g.  A g that is not
    contiguous, such as the coarse grid's stack [:, ::2], is copied first
    (its K x N values); a contiguous one is shared.

    The view is made by the ndarray constructor on g's buffer, not by
    as_strided, whose __array_interface__ round trip makes numpy 2.4 keep an
    extra block of about 1 MB after some 10^4 calls."""
    g = np.ascontiguousarray(g)
    n = (g.shape[-1] + 1) // 2
    step = g.itemsize
    # an empty stack has no buffer to offset into
    offset = (n - 1) * step if g.size else 0
    table = np.ndarray(g.shape[:-1] + (n, n), g.dtype, buffer=g, offset=offset,
                       strides=g.strides[:-1] + (step, -step))
    table.flags.writeable = False
    return table


def _half_columns(square):
    """The first ceil(N/2) columns of an (N, N) table, the middle one (N
    odd) at half weight: a first step's table to the line it restricts (see
    Reflection in the module docstring)."""
    n = square.shape[1]
    half = square[:, :(n + 1) // 2].copy()
    if n % 2:
        half[:, -1] *= 0.5
    return half


def _square(fac):
    """The (N, N) table of a factor (g, view): its view, or one made of g."""
    g, view = fac
    return _toeplitz_table(g) if view is None else view


def _count(v: int) -> str:
    """An integer as is up to the array limit, beyond it to four significant
    digits, d.ddde+x, rounded in integers (it may be too large for a float)."""
    if v <= MAX_ARRAY_VALUES:
        return str(v)
    digits = str(round(v, 4 - len(str(v))))
    return f"{digits[0]}.{digits[1:4]}e+{len(digits) - 1}"


def check_grid_size(plan: ContourPlan, num_lines: int):
    """Raise NumericsError if the largest message of num_lines lines on this
    plan, N^(lines-1) complex values (N^2 tables at two), would exceed
    MAX_ARRAY_VALUES.  At four grid lines that N^3 message is allocated
    (see MAX_ARRAY_VALUES for the peak)."""
    largest = plan.nodes_per_line ** max(2, num_lines - 1)
    if largest > MAX_ARRAY_VALUES:
        raise NumericsError(
            f"{num_lines} lines of {_count(plan.nodes_per_line)} nodes need an array of "
            f"{_count(largest)} complex values, beyond the limit {MAX_ARRAY_VALUES}; "
            f"shrink the plan"
        )


def _line_vectors(term: Interleavings, w, Z):
    """Per line, the closing vectors exp(1j Im e) * w * exp(Re e - s_k), one
    row per exponent row, and the sum of the log-scales s_k, each the largest
    Re e over line k's exponents.  The pinned line's rows are taken at its
    middle node with weight 1: one scalar per row."""
    mid = Z.shape[1] // 2
    vectors, log = [], 0.0
    for k, e in enumerate(term.exponents):
        weight = w
        if k == term.pinned:
            e, weight = e[:, mid:mid + 1], 1.0
        finite = np.isfinite(e)
        if not finite.all():
            j = mid if k == term.pinned else int(np.argmin(finite)) % e.shape[1]
            raise NumericsError(
                f"integrand factor not finite on line {k + 1} at w_{k + 1}={Z[k, j]:.6g}, "
                f"grid indices [{j}]"
            )
        s = float(e.real.max())
        v = np.exp(1j * e.imag) * weight * np.exp(e.real - s)
        vectors.append(v[:, 0] if k == term.pinned else v)
        log += s
    return vectors, log


def _pinned_vectors(term: Interleavings):
    """Each table joining the pinned line 0 to a grid line u, as the
    per-node vector of u with line 0 at its middle node m: row m of T,
    T[m, b] = g[m - b + N - 1].  Table row -> vector."""
    n = (term.tables.shape[1] + 1) // 2
    m = n // 2
    return {r: term.tables[r, m:m + n][::-1]
            for r, (i, _) in enumerate(term.pairs) if i == term.pinned}


def _vet_tables(term: Interleavings, Z):
    """Refuse a term whose tables hold a non-finite value, naming the line
    pair and one node pair (a, b) whose offset a - b holds it."""
    finite = np.isfinite(term.tables)
    if finite.all():
        return
    row, m = divmod(int(np.argmin(finite)), term.tables.shape[1])
    m -= Z.shape[1] - 1  # the node offset a - b
    a = max(m, 0)
    i, j = term.pairs[row]
    raise NumericsError(
        f"integrand factor not finite on lines {i + 1},{j + 1} at "
        f"w_{i + 1}={Z[i, a]:.6g}, w_{j + 1}={Z[j, a - m]:.6g}, grid indices [{a}, {a - m}]"
    )


def _vet_steps(term: Interleavings):
    """Refuse a term the recursion would drop a table of: every table a step
    names must join the step's line to another line, at most one per line
    pair."""
    for steps in term.steps:
        for step in steps:
            pairs = [term.pairs[r] for r in step.tables]
            if len(set(pairs)) < len(pairs) or not all(step.line in pair for pair in pairs):
                raise ValueError(
                    f"a step closing line {step.line} into state {step.dst} names tables on "
                    f"line pairs {pairs}; it may name one per pair of its line")


def _unreflected(rows, floor):
    """The first row of a stack that is not conjugate under reversal, to
    1e-12 of the row's largest magnitude or of floor if that is larger, or
    None."""
    scale = np.maximum(np.abs(rows).max(axis=1), floor)
    off = np.abs(rows[:, ::-1] - rows.conj()).max(axis=1) > 1e-12 * scale
    return int(np.argmax(off)) if off.any() else None


def _vet_reflection(term: Interleavings):
    """Refuse a term the half grid of Reflection would get wrong: one whose
    exponent rows (floor 1) or tables (floor 0) are not conjugate under node
    reversal (see _unreflected), naming the line or the line pair."""
    row = _unreflected(np.concatenate(term.exponents), 1.0)
    if row is not None:
        k = int(np.searchsorted(np.cumsum([len(e) for e in term.exponents]), row, "right"))
        raise ValueError(f"integrand not real on the real axis: the exponents of line "
                         f"{k + 1} are not conjugate under node reversal")
    row = _unreflected(term.tables, 0.0)
    if row is not None:
        i, j = term.pairs[row]
        raise ValueError(f"integrand not real on the real axis: the table of lines "
                         f"{i + 1},{j + 1} is not conjugate under node reversal")


def _matmul(a, b, out=None):
    """a @ b, written into out if given, bit-identical at any BLAS thread
    count (see _MATMUL_BLOCK).  A longer inner dimension is summed block by
    block into out, a few rows of a at a time."""
    k = a.shape[1]
    if out is None:
        out = np.empty((a.shape[0], b.shape[1]), dtype=np.result_type(a, b))
    if k <= _MATMUL_BLOCK:
        return np.matmul(a, b, out=out)
    for row in range(0, a.shape[0], k):
        rows, acc = a[row:row + k], out[row:row + k]
        np.matmul(rows[:, :_MATMUL_BLOCK], b[:_MATMUL_BLOCK], out=acc)
        for start in range(_MATMUL_BLOCK, k, _MATMUL_BLOCK):
            acc += rows[:, start:start + _MATMUL_BLOCK] @ b[start:start + _MATMUL_BLOCK]
    return out


def _sum_out(core, axis, v, facs):
    """Sum line k out of a message over one to three open lines, or out of
    the start of a one- or two-line term.  core spans the open lines with k
    on `axis` (None: the start, no line summed out yet); v is line k's
    vector and facs its tables to the other open lines, in line order, each
    a factor oriented (node on k, node on u).  Returns the message over the
    other open lines."""
    if core is None:
        if not facs:
            return complex(v.sum())
        # out[b] = sum_a v[a] g[a - b + N - 1]
        return np.convolve(facs[0][0][::-1], v, "valid")
    if core.ndim == 1:
        return complex(core @ v)
    # out[u, ..] = sum_k core[.., k, ..] F0[k, u] .. v[k] in one pass, forming
    # no temporary the size of core, and calling no BLAS product
    others = "uvw"[:core.ndim - 1]
    operands = [others[:axis] + "k" + others[axis:]] + ["k" + u for u in others] + ["k"]
    return np.einsum(",".join(operands) + "->" + others, core, *map(_square, facs), v)


# A message is (open, core): the grid lines not yet summed out, ascending
# (core's axes once it exists), and core, None at the start, where no line
# is summed out, then an array (a scalar at the end).  Every step closes a
# line and carries its tables, so a message collects none: the step hands
# each table straight to the elimination as a factor (g, view), its offset
# vector and its (N, N) view (None where none was made), oriented (node on
# the closing line, node on the other); reversing g and transposing the view
# flip it.  A start's three-line message goes on at once to the steps out of
# the state it reaches (see _start).  A start message may come with per-line
# multipliers, `mults`, line -> vector, that the pinned line left when it
# closed first (see _close_pinned).


def _operands(open_, step, ctx, mults=None):
    """A grid line's closing step's operands: the position of its line in
    open_, the lines left open, the line's vector and its factors to those
    lines.  Its tables to the pinned line, per-node vectors of the line, and
    its multiplier from mults go into the vector."""
    _, _, vectors, (stack, views, pairs), (pinned, pinned_vecs) = ctx
    k = step.line
    axis = open_.index(k)
    rest = open_[:axis] + open_[axis + 1:]
    v = vectors[k][step.closes]
    if mults and k in mults:
        v = v * mults[k]
    facs = [None] * len(rest)
    for r in step.tables:
        i, j = pairs[r]
        if i == pinned:
            v = v * pinned_vecs[r]
        elif i == k:
            facs[rest.index(j)] = (stack[r], views[r])
        else:
            facs[rest.index(i)] = (stack[r][::-1], None if views[r] is None else views[r].T)
    if None in facs:  # a line pair without a table contributes 1
        ones = (np.ones(2 * v.size - 1), None)
        facs = [ones if fac is None else fac for fac in facs]
    return axis, rest, v, facs


def _along(core, lines, vecs):
    """core times vecs[u] along the axis of each line u of core's `lines`
    that vecs holds (a new array, or core itself if none)."""
    for axis, u in enumerate(lines):
        if u in vecs:
            core = core * np.reshape(vecs[u], (-1,) + (1,) * (len(lines) - 1 - axis))
    return core


def _deposit(acc, state, msg):
    """Add a message into the state's sum."""
    prev = acc.get(state)
    acc[state] = msg if prev is None else (msg[0], prev[1] + msg[1])


def _push(steps, msg, ctx, mults=None):
    """Send a message along the given steps, adding each result into its
    state's sum.  The steps out of a start of three or four grid lines are
    taken together, on the half grid of Reflection (see _start).  mults are
    the multipliers of a start message (see _close_pinned)."""
    _, acc, _, _, (pinned, _) = ctx
    open_, core = msg
    grid_steps = []
    for step in steps:
        if step.line == pinned:
            _close_pinned(open_, core, step, ctx)
        else:
            grid_steps.append(step)
    if core is None and len(open_) > 2:
        _start(open_, grid_steps, ctx, mults)
        return
    for step in grid_steps:
        axis, rest, v, facs = _operands(open_, step, ctx, mults)
        out = _sum_out(core, axis, v, facs)
        _deposit(acc, step.dst, (rest, _along(out, rest, mults) if mults else out))


def _close_pinned(open_, core, step, ctx):
    """Close the pinned line: its row's scalar, and its tables as per-node
    vectors of the open lines they join, multiply the message.  At the start
    that product over the open lines is not formed: it goes on at once to
    the steps out of the state reached, as per-line multipliers, the scalar
    on the first open line's."""
    all_steps, acc, vectors, (_, _, pairs), (pinned, pinned_vecs) = ctx
    scalar = vectors[pinned][step.closes]
    vecs = {}
    for r in step.tables:
        vecs[pairs[r][1]] = pinned_vecs[r]
    if core is not None:
        _deposit(acc, step.dst, (open_, _along(core * scalar, open_, vecs)))
    elif not open_:
        _deposit(acc, step.dst, (open_, complex(scalar)))
    else:
        first = open_[0]
        vecs[first] = (scalar * vecs[first] if first in vecs
                       else np.full(vectors[first].shape[1], scalar))
        _push(all_steps[step.dst], (open_, None), ctx, vecs)


def _start(open_, steps, ctx, mults=None):
    """Close each first line of a term of three or four grid lines:
    out[p, q, ..] = sum_k v[k] F0[k, p] F1[k, q] .., one matmul per step
    over the first ceil(N/2) rows p of rest[0] only (see Reflection); the
    other rows stay 0.  The multipliers of a start message (see
    _close_pinned) go into v and onto each result's axes.  A two-line
    result is added into its state's sum.  A three-line one goes at once to
    the steps out of the state it reaches, so one is alive at a time and
    every step writes it into the same array.

    The operand and every step's message are one allocation, and the
    sum-outs that take a message form no temporary of its size: glibc's
    malloc raises its mmap and trim thresholds to the largest mapped block
    freed, so after the first term the block and the term's smaller arrays
    stay on the heap instead of being returned and faulted in again."""
    all_steps, acc, vectors, _, _ = ctx
    n = vectors[open_[0]].shape[1]
    half = (n + 1) // 2
    kept = len(steps) if len(open_) == 3 else 1
    work = np.empty((1 + kept,) + (n,) * (len(open_) - 1), dtype=complex)
    operand, outs = work[0, :half], work[1:]
    outs[:, half:] = 0.0
    for i, step in enumerate(steps):
        out = outs[i % kept]
        _, rest, v, facs = _operands(open_, step, ctx, mults)
        near = _half_columns(_square(facs[0])).T  # (p, k)
        if len(rest) == 2:
            np.multiply(near, v, out=operand)
        else:  # (p, q, k)
            np.multiply((near * v)[:, None, :], _square(facs[1]).T, out=operand)
        _matmul(operand.reshape(-1, n), _square(facs[-1]), out=out[:half].reshape(-1, n))
        if mults:
            out[...] = _along(out, rest, mults)
        if len(rest) == 2:
            _deposit(acc, step.dst, (rest, out))
        else:
            _push(all_steps[step.dst], (rest, out), ctx)


def _sum_orders(term: Interleavings, vectors, tables, pinned_vecs):
    """The term's sum over placement orders on one grid, before coef.  At
    three or more grid lines the recursion sums half the grid and the sum is
    2 Re of its sum (see Reflection), a real number."""
    grid = tuple(k for k in range(len(term.exponents)) if k != term.pinned)
    acc = {0: (grid, None)}
    # every table's (N, N) view, made once per grid; at one or two lines no
    # table meets a dense message, so none is needed
    views = _toeplitz_table(tables) if len(grid) > 2 else (None,) * len(tables)
    ctx = (term.steps, acc, vectors, (tables, views, term.pairs), (term.pinned, pinned_vecs))
    last = len(term.steps) - 1
    for state in range(last):
        msg = acc.pop(state, None)
        if msg is not None:
            _push(term.steps[state], msg, ctx)
    total = acc.pop(last)[1]
    return complex(2.0 * total.real) if len(grid) > 2 else complex(total)


def _trapezoid_sums(f, plan: ContourPlan, num_lines: int, re_parts):
    """Full and embedded-coarse trapezoid sums of a factored integrand, and
    the term's pinned line (None if it has none)."""
    y, w = _grid_1d(plan)
    Z = re_parts[:, None] + 1j * y[None, :]
    offsets = 2 * plan.nodes_per_line - 1
    # an overflow becomes inf or nan here, and the vetting below refuses it
    # with the line and node where it happened
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        term = f(Z)
    if len(term.exponents) != num_lines:
        raise ValueError(f"integrand term has {len(term.exponents)} lines, need {num_lines}")
    if term.tables.shape != (len(term.pairs), offsets):
        raise ValueError(f"integrand tables must be one offset vector per line pair, "
                         f"shape {(len(term.pairs), offsets)}, got {term.tables.shape}")
    if term.pinned not in (None, 0):
        raise ValueError(f"only line 0 may be pinned, got line {term.pinned}")
    grid = num_lines - (term.pinned is not None)
    if grid > MAX_LINES:
        raise UnsupportedDimensionError(
            f"tensor quadrature supports at most {MAX_LINES} grid lines, got {grid}")
    if not math.isfinite(term.log_scale):
        raise NumericsError(f"integrand factor not finite: log-scale {term.log_scale}")
    _vet_steps(term)
    vectors, log = _line_vectors(term, w, Z)
    _vet_tables(term, Z)
    if grid > 2:
        _vet_reflection(term)
    pinned = _pinned_vectors(term)
    full = _sum_orders(term, vectors, term.tables, pinned)
    # every other node: spacing 2h, so weights double on each grid line
    coarse = [v if k == term.pinned else 2.0 * v[:, ::2] for k, v in enumerate(vectors)]
    half = _sum_orders(term, coarse, term.tables[:, ::2], {r: v[::2] for r, v in pinned.items()})
    for s_val in (full, half):
        if not (math.isfinite(s_val.real) and math.isfinite(s_val.imag)):
            raise NumericsError(f"contracted integrand term not finite: {s_val}")
    log += term.log_scale
    return (ScaledComplex(term.coef * full, log).normalize(),
            ScaledComplex(term.coef * half, log).normalize(), term.pinned)


def integrate_tensor(f, plan: ContourPlan, num_lines: int, decay_rates=None, abscissas=None):
    """Tensor-product trapezoid integral of a factored integrand.

    f(Z) -> one Interleavings, with Z of shape (num_lines, N) holding each
    line's nodes, all lines on the same imaginary parts (the grid invariant
    above), and the term's tables given as offset vectors of length 2N-1, one
    per entry of its pairs.  A term may pin one line (see Pinned line in the
    module docstring): that line is held at y = 0, and MAX_LINES counts the
    others, the grid lines.  At three or more grid lines the integrand must
    be real on the real axis, f(conj w) = conj f(w): every exponent row and
    table conjugate under node reversal, as the module's integrands are.
    The sum then runs on half the grid (see Reflection in the module
    docstring), and another integrand is refused with ValueError.
    Line k sits at Re w = theta + k*epsilon unless explicit `abscissas`
    override the real parts.  decay_rates (per-line Gaussian coefficients a_k with
    |integrand| ~ exp(-a_k y_k^2)) feed the tail bound; a pinned line's is
    not used, as nothing truncates it.
    """
    if num_lines < 1:
        raise ValueError(f"num_lines must be >= 1, got {num_lines}")
    if num_lines > MAX_LINES + 1:
        raise UnsupportedDimensionError(
            f"tensor quadrature supports at most {MAX_LINES} grid lines, and one pinned "
            f"line, got {num_lines} lines"
        )
    if abscissas is not None:
        abscissas = tuple(float(a) for a in abscissas)
        if len(abscissas) != num_lines or not all(map(math.isfinite, abscissas)):
            raise ValueError(f"need {num_lines} finite abscissas, got {abscissas}")
        re_parts = np.array(abscissas)
    else:
        re_parts = plan.theta + plan.epsilon * np.arange(num_lines)
    if decay_rates is not None:
        decay_rates = tuple(float(a) for a in decay_rates)
        if len(decay_rates) != num_lines or not all(0 < a < math.inf for a in decay_rates):
            raise ValueError(f"need {num_lines} positive finite decay rates, got {decay_rates}")
    check_grid_size(plan, num_lines)

    value, coarse, pinned = _trapezoid_sums(f, plan, num_lines, re_parts)
    tail = 0.0
    if decay_rates is not None:
        tail = sum(math.erfc(math.sqrt(a) * plan.half_width)
                   for k, a in enumerate(decay_rates) if k != pinned)
    step = rel_diff(value, coarse)
    return QuadratureResult(value=value, tail_bound=tail, step_estimate=step)
