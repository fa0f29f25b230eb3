"""Symmetrized permutation kernel, cluster determinant and cluster integrand.

The n-point kernel is a sum over permutations sigma of

    prod_{B<A} (z_{sigma(A)} - z_{sigma(B)} - 1) / (z_{sigma(A)} - z_{sigma(B)})
    * exp( sum_i t/2 z_{sigma(i)}^2 + x_(i) z_{sigma(i)} )

with the evaluation points x sorted nondecreasing once at entry.  Individual
terms have pair poles; the symmetrized sum is entire in z.

On a cluster layout (coordinates stacked at unit spacing over l base points)
any permutation that places some value v+1 after its same-cluster predecessor
v picks up an exactly-zero numerator factor, so only interleavings that keep
each cluster's coordinates in descending order contribute: n!/prod(lambda_k!)
terms instead of n!.  Those survivors are generated directly (never filtered
out of n!), and within-cluster pair differences are kept as exact small
integers so the dropped terms really are exact zeros — the unfiltered sum is
then bit-identical to the filtered one.

Two evaluations of the cluster integrand det[1/(w_i + lambda_i - w_j)] *
K / mult:
  * cluster_integrand (and clustered_kernel, cluster_determinant) evaluates
    it at one point from the surviving terms, with the determinant by
    pivoted LU: the oracle;
  * cluster_integrand_batch hands integrate_tensor the factored form, with
    the determinant in Cauchy product form: the constant 1/prod(lambda_i)
    times one table per line pair.  The surviving permutations are not
    expanded one by one.  A cross ratio's orientation depends only on which
    of its two coordinates comes later, so filling the positions from the
    last to the first, a complete cluster has fixed its ratios with every
    other cluster: each line pair's table enters whole when the first of its
    two lines closes.  The sum over interleavings is then a recursion over how
    many coordinates of each cluster are still unplaced (Held & Karp,
    J. SIAM 10 (1962) 196), and a line is summed out as soon as its cluster
    is complete: for 2+1+1, 5 four-line eliminations instead of 12.  The
    route evaluates an all-singleton partition 1+...+1 as one order of the
    nested integrand instead (see moments), so this recursion over its n!
    orders is there the oracle the tests compare against.
    Every line-pair factor depends on w_i - w_j only, and the lines share
    one uniform grid of imaginary parts, so each table is Toeplitz.  A table
    is a rational function of D = w_i - w_j, its Cauchy factor and cross
    ratios all products of linear factors +-D + c, so it is formed on the
    2N-1 node offsets as one product of numerators over one of denominators,
    and the tables are handed over as one (K, 2N-1) stack of offset vectors
    with the line pair of each row, beside one (rows, N) array of exponents
    per line (quadrature.Interleavings).
  * on the routes that factored form has its centre of mass integrated in
    closed form (see moments): each line's Gaussian becomes, with the
    x-linear exponents, a pair factor exp((t/2n) lam_i lam_j (w_i - w_j)^2)
    multiplied into the line pair's tables and a linear exponent per line,
    and the term pins line 0, the largest cluster.  A single cluster keeps
    no grid line and no table: its term is the pinned line's one node, the
    closed form up to rounding, which the routes take directly
    (moments.top_cluster_closed_form).  pinned=False gives the form with
    every line on the grid, the tests' oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import NearSingularityError, NumericsError, UnsupportedDimensionError
from .partitions import Partition, cluster_slots
from .quadrature import Interleavings, Placement, _node_differences
from .scaled import ScaledComplex
from .spectral import SpacePoints

DEFAULT_MIN_SEPARATION = 1e-8
MAX_DIRECT_SIZE = 9  # generic-point kernel: n! terms
MAX_UNFILTERED_SIZE = 7  # cluster layout with short_circuit off: n! terms
_PERM_BLOCK = 20000


@dataclass(frozen=True)
class _Term:
    perm: tuple[int, ...]
    scalar: float  # product of within-cluster pair ratios (exact 0 for dropped terms)
    cross: tuple[tuple[int, int, int], ...]  # (cluster_u, cluster_v, offset_u - offset_v)


@dataclass(frozen=True)
class _Tables:
    slots: tuple[tuple[int, int], ...]
    terms: tuple[_Term, ...]
    cross_keys: tuple[tuple[int, int, int], ...]


def _build_term(perm, slots) -> _Term:
    scalar = 1.0
    cross = []
    n = len(perm)
    for beta in range(n):
        for alpha in range(beta + 1, n):
            u, v = perm[alpha], perm[beta]
            cu, ou = slots[u]
            cv, ov = slots[v]
            if cu == cv:
                d = ou - ov  # nonzero integer; d == 1 gives the exact-zero factor
                scalar *= (d - 1.0) / d
            else:
                cross.append((cu, cv, ou - ov))
    return _Term(tuple(perm), scalar, tuple(cross))


def _label_sequences(counts):
    """Distinct sequences over cluster labels with given multiplicities, lex order."""
    counts = list(counts)
    seq = []
    total = sum(counts)

    def rec(remaining):
        if remaining == 0:
            yield tuple(seq)
            return
        for k in range(len(counts)):
            if counts[k]:
                counts[k] -= 1
                seq.append(k)
                yield from rec(remaining - 1)
                seq.pop()
                counts[k] += 1

    yield from rec(total)


@lru_cache(maxsize=None)
def _tables(parts: tuple[int, ...]) -> _Tables:
    """Surviving terms only, in permutation-lex order."""
    p = Partition(parts)
    slots = tuple(cluster_slots(p))
    starts = []
    acc = 0
    for lam in parts:
        starts.append(acc)
        acc += lam
    terms = []
    for labels in _label_sequences(parts):
        nxt = [starts[k] + parts[k] - 1 for k in range(len(parts))]
        perm = []
        for k in labels:
            perm.append(nxt[k])
            nxt[k] -= 1
        terms.append(_build_term(tuple(perm), slots))
    keys = sorted({key for t in terms for key in t.cross})
    return _Tables(slots=slots, terms=tuple(terms), cross_keys=tuple(keys))


@lru_cache(maxsize=None)
def _tables_unfiltered(parts: tuple[int, ...]) -> _Tables:
    """Every permutation of n, in lex order; dropped terms carry scalar == 0."""
    p = Partition(parts)
    if p.n > MAX_UNFILTERED_SIZE:
        raise UnsupportedDimensionError(
            f"unfiltered cluster sum needs n <= {MAX_UNFILTERED_SIZE}, got n={p.n}"
        )
    slots = tuple(cluster_slots(p))
    terms = tuple(_build_term(perm, slots) for perm in itertools.permutations(range(p.n)))
    keys = sorted({key for t in terms for key in t.cross})
    return _Tables(slots=slots, terms=terms, cross_keys=tuple(keys))


def surviving_permutations(p: Partition) -> tuple[tuple[int, ...], ...]:
    """Contributing permutations (0-based coordinate indices), lex order."""
    return tuple(t.perm for t in _tables(p.parts).terms)


def _refuse_poles(den, keys, min_separation):
    """Refuse cross-ratio denominators den[r] = w_cu - w_cv + d, keys[r] =
    (cu, cv, d), per sample point or per node offset, that come within
    min_separation of 0; the first such key in sorted order is named."""
    mag = np.abs(den)
    if mag.size and mag.min() < min_separation:
        hits = sorted((key, c) for key, c in zip(keys, mag.min(axis=-1)) if c < min_separation)
        (cu, cv, d), closest = hits[0]
        raise NearSingularityError(
            f"coordinate pair from clusters {cu},{cv} at offset difference {d} "
            f"came within {closest:.3e} of a kernel pole (floor {min_separation:.1e})"
        )


def _clustered_terms(t, x_sorted, parts, W, short_circuit=True):
    """Batch kernel on a cluster layout: W is (l, m) base points.

    Returns (mantissa[m], log_scale[m]).  The renormalization scale is the
    surviving-term maximum in both modes, which is what makes filtered and
    unfiltered results bit-identical.
    """
    tables = _tables(parts)
    slots = tables.slots
    n = len(slots)
    W = np.asarray(W, dtype=complex)
    if W.ndim != 2 or W.shape[0] != len(parts):
        raise ValueError(f"need base points shaped ({len(parts)}, m), got {W.shape}")
    active = tables.terms if short_circuit else _tables_unfiltered(parts).terms
    keys = tables.cross_keys if short_circuit else _tables_unfiltered(parts).cross_keys

    # cross-cluster pair ratios, one array per distinct (cluster_u, cluster_v, d)
    den = np.array([(W[cu] - W[cv]) + d for cu, cv, d in keys]).reshape(len(keys), W.shape[1])
    _refuse_poles(den, keys, DEFAULT_MIN_SEPARATION)
    ratios = dict(zip(keys, (den - 1.0) / den))

    Z = np.empty((n, W.shape[1]), dtype=complex)
    for a, (k, off) in enumerate(slots):
        Z[a] = W[k] + off
    quad = 0.5 * t * (Z * Z).sum(axis=0)  # permutation-independent

    exps = [
        sum(x_sorted[i] * Z[term.perm[i]] for i in range(n))
        for term in tables.terms
    ]
    scale = exps[0].real.copy()
    for L in exps[1:]:
        np.maximum(scale, L.real, out=scale)
    by_perm = {term.perm: L for term, L in zip(tables.terms, exps)}

    mant = np.zeros(W.shape[1], dtype=complex)
    for term in active:
        L = by_perm.get(term.perm)
        if L is None:  # dropped term, evaluated in full for the unfiltered mode
            L = sum(x_sorted[i] * Z[term.perm[i]] for i in range(n))
        pref = term.scalar
        for key in term.cross:
            pref = pref * ratios[key]
        mant += pref * np.exp(L - scale)
    mant *= np.exp(1j * quad.imag)
    return mant, quad.real + scale


def clustered_kernel(t, x, partition: Partition, w, *, short_circuit=True) -> ScaledComplex:
    """Kernel on the cluster layout of `partition` over base points w."""
    if partition.n > MAX_DIRECT_SIZE:
        raise UnsupportedDimensionError(
            f"cluster kernel supports n <= {MAX_DIRECT_SIZE}, got n={partition.n}"
        )
    x_sorted = np.asarray(SpacePoints.of(x).ordered)
    if x_sorted.size != partition.n:
        raise ValueError(f"got {x_sorted.size} points for partition of {partition.n}")
    W = np.asarray(w, dtype=complex).reshape(partition.length, 1)
    mant, logs = _clustered_terms(t, x_sorted, partition.parts, W, short_circuit=short_circuit)
    return ScaledComplex(complex(mant[0]), float(logs[0])).normalize()


def permutation_kernel(t, x, z) -> ScaledComplex:
    """Full n! kernel at generic coordinates z (no cluster structure assumed)."""
    z = np.asarray(z, dtype=complex).reshape(-1)
    n = z.size
    if n > MAX_DIRECT_SIZE:
        raise UnsupportedDimensionError(f"direct kernel supports n <= {MAX_DIRECT_SIZE}, got {n}")
    x_sorted = np.asarray(SpacePoints.of(x).ordered)
    if x_sorted.size != n:
        raise ValueError(f"got {x_sorted.size} points for {n} coordinates")

    diff = z[:, None] - z[None, :]
    off_diag = ~np.eye(n, dtype=bool)
    if n > 1:
        closest = float(np.min(np.abs(diff[off_diag])))
        if closest < DEFAULT_MIN_SEPARATION:
            raise NearSingularityError(
                f"coordinates {closest:.3e} apart, below the safety floor "
                f"{DEFAULT_MIN_SEPARATION:.1e}; the summed kernel is finite there but "
                f"individual terms are not evaluable"
            )
    ratio = np.ones_like(diff)
    np.divide(diff - 1.0, diff, out=ratio, where=off_diag)
    quad = 0.5 * t * np.sum(z * z)
    b_idx, a_idx = np.triu_indices(n, 1)  # positions beta < alpha

    blocks = []
    perm_iter = itertools.permutations(range(n))
    while True:
        block = np.array(list(itertools.islice(perm_iter, _PERM_BLOCK)), dtype=np.intp)
        if block.size == 0:
            break
        blocks.append(block.reshape(-1, n))
    # two passes: global exponent maximum, then the renormalized sum
    scale = -math.inf
    for block in blocks:
        L = z[block] @ x_sorted
        scale = max(scale, float(L.real.max()))
    total = 0j
    for block in blocks:
        L = z[block] @ x_sorted
        pref = np.prod(ratio[block[:, a_idx], block[:, b_idx]], axis=1)
        total += complex((pref * np.exp(L - scale)).sum())
    total *= complex(math.cos(quad.imag), math.sin(quad.imag))
    return ScaledComplex(total, quad.real + scale).normalize()


def cluster_determinant(w, parts) -> complex:
    """det of the l x l cluster matrix [1/(w_i + lambda_i - w_j)] by pivoted LU."""
    parts = parts.parts if isinstance(parts, Partition) else tuple(parts)
    w = np.asarray(w, dtype=complex).reshape(len(parts))
    lam = np.asarray(parts, dtype=float)
    det = complex(np.linalg.det(1.0 / ((w[:, None] + lam[:, None]) - w[None, :])))
    if not (math.isfinite(det.real) and math.isfinite(det.imag)) or det == 0:
        raise NumericsError(f"cluster matrix singular for w={list(w)}, parts={parts}: det={det}")
    return det


def cauchy_determinant(u, v) -> complex:
    """det [1/(u_i - v_j)] in product form:
    prod_{i<j} (u_i-u_j)(v_j-v_i) / prod_{i,j} (u_i-v_j).
    """
    u = np.asarray(u, dtype=complex).reshape(-1)
    v = np.asarray(v, dtype=complex).reshape(-1)
    if u.size != v.size:
        raise ValueError(f"need equally many u and v, got {u.size} and {v.size}")
    cross = u[:, None] - v[None, :]
    if np.any(cross == 0):
        raise NumericsError("cauchy matrix singular: some u_i equals some v_j")
    i, j = np.triu_indices(u.size, 1)
    num = complex(np.prod((u[i] - u[j]) * (v[j] - v[i])))
    return num / complex(np.prod(cross))


def cluster_integrand(t, x, partition: Partition, w) -> ScaledComplex:
    """One integrand sample: det * kernel / multiplicity at base points w."""
    det = cluster_determinant(w, partition)
    kern = clustered_kernel(t, x, partition, w)
    return kern * (det / partition.multiplicity)


class _Placements(NamedTuple):
    steps: tuple[tuple[Placement, ...], ...]
    # per line, by exponent row: the positions the line closes with
    closings: tuple[tuple[tuple[int, ...], ...], ...]
    tables: tuple  # per table row: (cross keys of its ratios, its Cauchy line pair)
    scalar: float  # product of the within-cluster ratios, the same for every interleaving
    # (off, r) for off >= 1: lines 0..r-1 have more than off coordinates,
    # as parts are nonincreasing
    grow: tuple[tuple[int, int], ...]
    # Each table as a rational function of D = w_i - w_j on its line pair
    # (i, j) = pairs[r], i < j: prod(num_sign * D + num_shift) /
    # prod(den_sign * D + den_shift), the (K, F, 1) factor arrays padded with
    # the constant 1.  pole_mask marks the cross-ratio denominators,
    # pole_keys their cross keys in mask order.
    pairs: tuple[tuple[int, int], ...]
    num: tuple[np.ndarray, np.ndarray]  # (num_sign, num_shift)
    den: tuple[np.ndarray, np.ndarray]  # (den_sign, den_shift)
    pole_mask: np.ndarray
    pole_keys: tuple[tuple[int, int, int], ...]


@lru_cache(maxsize=None)
def _placements(parts: tuple[int, ...]) -> _Placements:
    """The recursion over interleavings, filling positions last to first.

    A state records, per cluster still open, the positions its coordinates
    took so far (its placed offsets are 0, 1, ... in that order, as offsets
    descend along the positions), and None once the cluster is complete.
    Placing k's last coordinate closes line k with the positions its
    coordinates took, and multiplies in one table per open cluster u, whole:
    the Cauchy factor of the line pair times the lambda_k * lambda_u cross
    ratios between their coordinates.  Each ratio is fixed by then, oriented
    by which of its two coordinates takes the later position: u's where u
    placed it before k placed its own, and k's otherwise, as u's unplaced
    coordinates take earlier positions still.  So each line pair's table
    enters once, whole, at the closing step of the first of its two lines.

    Placing a coordinate that closes no line sums nothing out, so the graph
    keeps only the closing steps, each recorded under its anchor: the start,
    or the last state a line closed into on the way, where its message sits.
    The anchor is unique, as a state reached without closing a line has one
    predecessor: the cluster holding the lowest placed position loses it.
    The graph's states are then the start and every state a line closes
    into, told apart by the positions each partly placed cluster took, so
    that each line's exponent is formed whole, once per assignment.  The
    last of them is the one where every line has closed.  A cluster of one
    coordinate closes as soon as it is placed: for all-singleton partitions
    the states are exactly the 2**l subsets of open clusters.

    Placements name tables by row, in the order first met, one row per
    distinct (k, u, cross keys), and closings by exponent row, the line's
    closing positions in sorted order.  The graph also keeps each table's
    line pair and linear factors (see _Placements), so an integrand forms
    every table with a few array operations.
    """
    ell = len(parts)
    start = ((),) * ell
    moves = {start: []}  # graph state -> its (dst, line, tables, taken), in order reached
    anchor = {start: start}  # every state -> the graph state its message sits at
    level = [start]
    closings = [set() for _ in parts]
    factors = {}
    for p in range(sum(parts) - 1, -1, -1):
        nxt = []
        for key in level:
            open_ = [u for u in range(ell) if key[u] is not None]
            for k in open_:
                taken = key[k] + (p,)
                if len(taken) < parts[k]:
                    # k keeps the lowest placed position, p, so key is this
                    # state's one predecessor
                    dst = key[:k] + (taken,) + key[k + 1:]
                    anchor[dst] = anchor[key]
                    nxt.append(dst)
                    continue
                tables = []
                for u in (u for u in open_ if u != k):
                    # a ratio's key names first the coordinate at the later
                    # position: u's only where u placed it before k's
                    cross = tuple(
                        (u, k, ou - o) if ou < len(key[u]) and key[u][ou] > taken[o]
                        else (k, u, o - ou)
                        for o in range(parts[k]) for ou in range(parts[u]))
                    factors[k, u, cross] = (cross, (min(k, u), max(k, u)))
                    tables.append((k, u, cross))
                closings[k].add(taken)
                dst = key[:k] + (None,) + key[k + 1:]
                if dst not in moves:
                    moves[dst] = []
                    anchor[dst] = dst
                    nxt.append(dst)
                moves[anchor[key]].append((dst, k, tuple(tables), taken))
        level = nxt
    ids = {key: i for i, key in enumerate(moves)}
    rows = {name: r for r, name in enumerate(factors)}
    closings = tuple(tuple(sorted(c)) for c in closings)
    closing_rows = [{taken: r for r, taken in enumerate(c)} for c in closings]
    steps = tuple(
        tuple(Placement(ids[dst], k, tuple(rows[name] for name in tables),
                        closing_rows[k][taken])
              for dst, k, tables, taken in out)
        for out in moves.values())
    scalar = 1.0
    for lam in parts:  # offsets descend along the positions inside a cluster
        for beta in range(lam):
            for alpha in range(beta + 1, lam):
                d = beta - alpha
                scalar *= (d - 1.0) / d
    pairs, num, den, poles = [], [], [], []
    for cross, (i, j) in factors.values():
        pairs.append((i, j))
        num.append([(1.0, parts[i] - parts[j]), (-1.0, 0.0)])
        den.append([(1.0, parts[i]), (-1.0, parts[j])])
        for cu, cv, d in cross:  # (w_cu - w_cv + d - 1) / (w_cu - w_cv + d)
            sign = 1.0 if cu < cv else -1.0
            num[-1].append((sign, d - 1.0))
            poles.append((len(pairs) - 1, len(den[-1]), (cu, cv, d)))
            den[-1].append((sign, d))
    width = max(map(len, num + den), default=0)
    num, den = ([f + [(0.0, 1.0)] * (width - len(f)) for f in fs] for fs in (num, den))
    pole_mask = np.zeros((len(pairs), width), dtype=bool)
    for row, col, _ in poles:
        pole_mask[row, col] = True
    pole_mask.flags.writeable = False
    return _Placements(
        steps=steps, closings=closings, tables=tuple(factors.values()), scalar=scalar,
        grow=tuple((off, sum(lam > off for lam in parts)) for off in range(1, parts[0])),
        pairs=tuple(pairs),
        num=tuple(_frozen(num, float).reshape(len(pairs), width, 2)[..., s, None] for s in (0, 1)),
        den=tuple(_frozen(den, float).reshape(len(pairs), width, 2)[..., s, None] for s in (0, 1)),
        pole_mask=pole_mask,
        pole_keys=tuple(key for _, _, key in sorted(poles)),
    )


def _frozen(values, dtype):
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _line_pair_weights(parts: tuple[int, ...], pairs: tuple) -> tuple:
    """(lam_i lam_j per distinct line pair of `pairs`, the first table row on
    each, and per table row the index of its pair in that list); both None
    where every row has a pair of its own."""
    first = [r for r, pair in enumerate(pairs) if pair not in pairs[:r]]
    weights = _frozen([parts[pairs[r][0]] * parts[pairs[r][1]] for r in first], float)
    if len(first) == len(pairs):
        return weights, None, None
    index = [first.index(pairs.index(pair)) for pair in pairs]
    return weights, _frozen(first, int), _frozen(index, int)


def _relative_gaussian(t, parts, pairs, total):
    """The centre of mass of a term integrated in closed form, for tables
    on line pairs `pairs` and B = `total`, the sum over lines of each line's
    w-linear coefficient, the same on every path.  Returns g(d) ->
    (factors, log): per table row, d its node differences w_i - w_j and
    a = Re d, exp((t/2n) lam_i lam_j (d^2 - a^2)), at most 1 in modulus, the
    same for every row of a line pair; and the log-scale, the peaks
    exp((t/2n) lam_i lam_j a^2), once per line pair, times the closed-form
    factor exp(-B^2/(2nt)) / sqrt(2 pi n t)."""
    n, total = sum(parts), float(total)
    weights, first, index = _line_pair_weights(tuple(parts), tuple(pairs))
    coeff = (0.5 * t / n) * weights
    column = coeff[:, None]
    centre = -total * total / (2.0 * n * t) - 0.5 * math.log(2.0 * math.pi * n * t)

    def g(d):
        if first is not None:
            d = d[first]
        a, y = d.real[:, :1], d.imag
        gauss = np.exp(column * y * (2j * a - y))
        a = a[:, 0]
        return (gauss if index is None else gauss[index]), centre + float(coeff @ (a * a))

    return g


def cluster_integrand_batch(t, x, partition: Partition, *, pinned=True):
    """Factored integrand f(Z) -> Interleavings for integrate_tensor, Z of
    shape (l, N) holding each line's base points: the sum over the surviving
    permutations as a recursion over placements (see _placements).

    Every interleaving carries the constant scalar/(mult * prod lambda).  Line
    k closes with exp(sum over cluster k's offsets o of t/2 (w + o)^2 + c w + d),
    c and d collecting the x_(i) at the positions its coordinates took.  Line
    pair i < j carries the Cauchy factor of the cluster determinant,
        (d + lambda_i - lambda_j)(-d) / ((d + lambda_i)(lambda_j - d)),
    d = w_i - w_j, times the cross-cluster ratios between the two clusters,
    all in the table the first of the two lines to close multiplies in.

    Pinned (the default), the term is that form with its centre of mass
    integrated in closed form (see moments): line k closes with
    exp(b'_k w + d'), b'_k = c + t lambda_k (lambda_k - 1)/2 - B lambda_k/n
    and d' = d + (t/2) sum_o o^2, B = sum x + t sum_k lambda_k (lambda_k -
    1)/2; the tables carry the relative Gaussian (see _relative_gaussian);
    and line 0 is pinned.  A single cluster has no table, and its value is
    the centre's factor times its line's exponent at y = 0: the closed form,
    moments.top_cluster_closed_form, to rounding in the cancellation of
    their logs.  pinned=False sums every line on the grid: the tests'
    oracle.

    f relies on the grid invariant of quadrature: Z[k] = re_k + 1j*y on one
    shared uniform y.  Each table is then formed once per node offset, 2N-1
    values, and returned as that offset vector.
    """
    x_sorted = SpacePoints.of(x).ordered
    if len(x_sorted) != partition.n:
        raise ValueError(f"got {len(x_sorted)} points for partition of {partition.n}")
    parts = partition.parts
    graph = _placements(parts)
    coef = graph.scalar / (partition.multiplicity * math.prod(parts))
    # per line and exponent row, padded to the most rows any line has: the
    # (c, d) of its closing positions, summed in position order
    rows = [len(closings) for closings in graph.closings]
    c, d = [], []
    for closings in graph.closings:
        c.append([0.0] * max(rows))
        d.append([0.0] * max(rows))
        for r, taken in enumerate(closings):
            for off in range(len(taken) - 1, -1, -1):
                c[-1][r] += x_sorted[taken[off]]
                d[-1][r] += x_sorted[taken[off]] * off
    c, d = np.array(c)[..., None], np.array(d)[..., None]
    lower, upper = (np.array([pair[s] for pair in graph.pairs], dtype=int) for s in (0, 1))
    (num_sign, num_shift), (den_sign, den_shift) = graph.num, graph.den
    if pinned:
        lam = np.array(parts, dtype=float)[:, None, None]
        grow = lam * (lam - 1.0) / 2.0
        total = sum(x_sorted) + t * float(grow.sum())
        lin = c + (t * grow - total * lam / partition.n)
        const = d + (0.5 * t) * (lam - 1.0) * lam * (2.0 * lam - 1.0) / 6.0  # sum_o o^2
        relative = _relative_gaussian(t, parts, graph.pairs, total)

    def f(Z):
        if pinned:
            exps = lin * Z[:, None, :] + const
        else:
            quad = Z * Z
            for off, r in graph.grow:
                z = Z[:r] + off
                quad[:r] += z * z
            quad = (0.5 * t) * quad
            exps = quad[:, None, :] + c * Z[:, None, :] + d
        exponents = tuple(exps[k, :n] for k, n in enumerate(rows))
        diffs = _node_differences(Z[lower], Z[upper])
        den = diffs[:, None, :] * den_sign + den_shift
        _refuse_poles(den[graph.pole_mask], graph.pole_keys, DEFAULT_MIN_SEPARATION)
        tables = (diffs[:, None, :] * num_sign + num_shift).prod(axis=1) / den.prod(axis=1)
        log = 0.0
        if pinned:
            gauss, log = relative(diffs)
            tables *= gauss
        return Interleavings(graph.steps, exponents, tables, graph.pairs, coef, log,
                             0 if pinned else None)

    return f
