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
    last to the first, a placed coordinate fixes its ratios with every
    coordinate still unplaced: one line-pair table per open cluster.  The sum
    over interleavings is then a recursion over how many coordinates of each
    cluster are still unplaced (Held & Karp, J. SIAM 10 (1962) 196), and a
    line is summed out as soon as its cluster is complete: for 1+1+1+1,
    4 four-line eliminations and 12 three-line ones instead of 24 of each.
    Every line-pair factor depends on w_i - w_j only, and the lines share
    one uniform grid of imaginary parts, so each table is Toeplitz: its
    ratios, Cauchy factors and products are formed on the 2N-1 node offsets
    and handed over as strided N x N views (quadrature._toeplitz_table).
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
from .quadrature import Interleavings, Placement, _node_differences, _toeplitz_table
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


def _cross_ratio(den, key, min_separation):
    """(den - 1)/den for the cross-cluster pair key = (cu, cv, d), where den
    holds w_cu - w_cv + d per sample point or per node offset; refuses nodes
    too close to its pole."""
    closest = float(np.min(np.abs(den)))
    if closest < min_separation:
        cu, cv, d = key
        raise NearSingularityError(
            f"coordinate pair from clusters {cu},{cv} at offset difference {d} "
            f"came within {closest:.3e} of a kernel pole (floor {min_separation:.1e})"
        )
    return (den - 1.0) / den


def _clustered_terms(t, x_sorted, parts, W, short_circuit=True, min_separation=DEFAULT_MIN_SEPARATION):
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
    ratios = {(cu, cv, d): _cross_ratio((W[cu] - W[cv]) + d, (cu, cv, d), min_separation)
              for cu, cv, d in keys}

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


def clustered_kernel(t, x, partition: Partition, w, *, short_circuit=True,
                     min_separation=DEFAULT_MIN_SEPARATION) -> ScaledComplex:
    """Kernel on the cluster layout of `partition` over base points w."""
    if partition.n > MAX_DIRECT_SIZE:
        raise UnsupportedDimensionError(
            f"cluster kernel supports n <= {MAX_DIRECT_SIZE}, got n={partition.n}"
        )
    x_sorted = np.asarray(SpacePoints.of(x).ordered)
    if x_sorted.size != partition.n:
        raise ValueError(f"got {x_sorted.size} points for partition of {partition.n}")
    W = np.asarray(w, dtype=complex).reshape(partition.length, 1)
    mant, logs = _clustered_terms(
        t, x_sorted, partition.parts, W, short_circuit=short_circuit,
        min_separation=min_separation,
    )
    return ScaledComplex(complex(mant[0]), float(logs[0])).normalize()


def permutation_kernel(t, x, z, *, min_separation=DEFAULT_MIN_SEPARATION) -> ScaledComplex:
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
        if closest < min_separation:
            raise NearSingularityError(
                f"coordinates {closest:.3e} apart, below the safety floor "
                f"{min_separation:.1e}; the summed kernel is finite there but "
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
    closings: tuple[tuple[tuple[int, ...], ...], ...]  # per line: positions it can close with
    tables: dict  # table key -> (cross keys of its ratios, Cauchy line pair or None)
    cross_keys: tuple[tuple[int, int, int], ...]
    scalar: float  # product of the within-cluster ratios, the same for every interleaving


@lru_cache(maxsize=None)
def _placements(parts: tuple[int, ...]) -> _Placements:
    """The recursion over interleavings, filling positions last to first.

    A state records, per cluster still open, the positions its coordinates
    took so far (its placed offsets are 0, 1, ... in that order, as offsets
    descend along the positions), and None once the cluster is complete.
    Placing a coordinate of cluster k at offset o multiplies in one table per
    open cluster u: its cross ratios with u's unplaced offsets, all at
    earlier positions.  Placing k's last coordinate closes line k with the
    positions its coordinates took, and its tables also carry the Cauchy
    factors from k to the open clusters.  Once one cluster is left open,
    its remaining coordinates take the remaining positions in one step.

    The states are the prod(lambda_k + 1) counts of unplaced coordinates,
    told apart further by the positions a partly placed cluster took, so
    that each line's exponent is formed whole, once per assignment.  A
    cluster of one coordinate closes as soon as it is placed: for
    all-singleton partitions the states are exactly the 2**l subsets of
    open clusters.
    """
    ell = len(parts)
    start, final = ((),) * ell, (None,) * ell
    moves = {start: []}  # state -> its (dst, line, tables, closes), states in order reached
    level = [start]
    closings = [set() for _ in parts]
    factors = {}
    for p in range(sum(parts) - 1, -1, -1):
        nxt = []
        for key in level:
            open_ = [u for u in range(ell) if key[u] is not None]
            if len(open_) == 1:  # the last open cluster takes the remaining positions
                (k,) = open_
                taken = key[k] + tuple(range(p, -1, -1))
                closings[k].add(taken)
                moves[key].append((final, k, (), taken))
                continue
            for k in open_:
                o = len(key[k])
                taken = key[k] + (p,)
                closes = taken if len(taken) == parts[k] else None
                tables = []
                for u in open_:
                    if u != k:
                        left = parts[u] - len(key[u])
                        name = ("cross" if closes is None else "closing", k, o, u, left)
                        cross = tuple((k, u, o - ou) for ou in range(parts[u] - left, parts[u]))
                        factors[name] = (cross, None if closes is None else (min(k, u), max(k, u)))
                        tables.append((u, name))
                if closes is not None:
                    closings[k].add(taken)
                    taken = None
                dst = key[:k] + (taken,) + key[k + 1:]
                if dst not in moves:
                    moves[dst] = []
                    nxt.append(dst)
                moves[key].append((dst, k, tuple(tables), closes))
        level = nxt
    ids = {key: i for i, key in enumerate([*moves, final])}
    steps = tuple(tuple(Placement(ids[dst], k, tables, closes) for dst, k, tables, closes in out)
                  for out in moves.values()) + ((),)
    scalar = 1.0
    for lam in parts:  # offsets descend along the positions inside a cluster
        for beta in range(lam):
            for alpha in range(beta + 1, lam):
                d = beta - alpha
                scalar *= (d - 1.0) / d
    keys = sorted({key for cross, _ in factors.values() for key in cross})
    return _Placements(steps=steps, closings=tuple(tuple(sorted(c)) for c in closings),
                       tables=factors, cross_keys=tuple(keys), scalar=scalar)


def cluster_integrand_batch(t, x, partition: Partition, min_separation=DEFAULT_MIN_SEPARATION):
    """Factored integrand f(Z) -> (Interleavings,) for integrate_tensor, Z of
    shape (l, N) holding each line's base points: the sum over the surviving
    permutations as a recursion over placements (see _placements).

    Every interleaving carries the constant scalar/(mult * prod lambda).  Line
    k closes with exp(sum over cluster k's offsets o of t/2 (w + o)^2 + c w + d),
    c and d collecting the x_(i) at the positions its coordinates took.  Line
    pair i < j carries the Cauchy factor of the cluster determinant,
        (d + lambda_i - lambda_j)(-d) / ((d + lambda_i)(lambda_j - d)),
    d = w_i - w_j, and each placement the cross-cluster ratios it fixes.

    f relies on the grid invariant of quadrature: Z[k] = re_k + 1j*y on one
    shared uniform y.  Each table is then formed once per node offset, 2N-1
    values, and returned as a Toeplitz view of them.
    """
    x_sorted = np.asarray(SpacePoints.of(x).ordered)
    if x_sorted.size != partition.n:
        raise ValueError(f"got {x_sorted.size} points for partition of {partition.n}")
    parts = partition.parts
    graph = _placements(parts)
    coef = graph.scalar / (partition.multiplicity * math.prod(parts))
    linear = []  # per line: closing positions -> (c, d), summed in position order
    for closings in graph.closings:
        by_key = {}
        for taken in closings:
            c = d = 0.0
            for off in range(len(taken) - 1, -1, -1):
                c += x_sorted[taken[off]]
                d += x_sorted[taken[off]] * off
            by_key[taken] = (c, d)
        linear.append(by_key)

    def f(Z):
        quad = [(0.5 * t) * sum((Z[k] + off) * (Z[k] + off) for off in range(lam))
                for k, lam in enumerate(parts)]
        # every factor below is a vector over node offsets on (min line, max line)
        diffs = {(i, j): _node_differences(Z, i, j)
                 for i in range(len(parts)) for j in range(i + 1, len(parts))}
        ratios = {}
        for cu, cv, d in graph.cross_keys:
            den = diffs[cu, cv] + d if cu < cv else d - diffs[cv, cu]
            ratios[cu, cv, d] = _cross_ratio(den, (cu, cv, d), min_separation)
        cauchy = {}
        for (i, j), d in diffs.items():
            li, lj = parts[i], parts[j]
            cauchy[i, j] = ((d + (li - lj)) * -d) / ((d + li) * (lj - d))
        tables = {}
        for name, (keys, pair) in graph.tables.items():
            table = ratios[keys[0]] if pair is None else cauchy[pair] * ratios[keys[0]]
            for key in keys[1:]:
                table = table * ratios[key]
            tables[name] = _toeplitz_table(table)
        exponents = tuple({taken: quad[k] + c * Z[k] + d for taken, (c, d) in by_key.items()}
                          for k, by_key in enumerate(linear))
        return (Interleavings(graph.steps, exponents, tables, coef),)

    return f
