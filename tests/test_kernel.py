"""Permutation kernel: brute-force oracles, symmetries, cluster short-circuit."""

from __future__ import annotations

import cmath
import itertools
import math
import random

import pytest

from bosegas.errors import NearSingularityError, NumericsError
from bosegas.kernel import (
    cauchy_determinant,
    cluster_determinant,
    cluster_integrand,
    clustered_kernel,
    permutation_kernel,
    surviving_permutations,
)
from bosegas.partitions import Partition, cluster_expand, cluster_slots, enumerate_partitions
from bosegas.scaled import ScaledComplex, rel_diff


def oracle_kernel(t, x, z):
    """Literal formula, no vectorization, no scaling: for small moderate inputs."""
    n = len(z)
    xs = sorted(x)
    total = 0j
    for perm in itertools.permutations(range(n)):
        pref = 1.0 + 0j
        for beta in range(n):
            for alpha in range(beta + 1, n):
                d = z[perm[alpha]] - z[perm[beta]]
                pref *= (d - 1.0) / d
        expo = sum(0.5 * t * z[a] ** 2 for a in range(n))
        expo += sum(xs[i] * z[perm[i]] for i in range(n))
        total += pref * cmath.exp(expo)
    return total


def random_points(rng, n, spread=2.0):
    return [rng.uniform(-spread, spread) for _ in range(n)]


def random_coords(rng, n):
    # distinct real parts keep pairs comfortably away from poles
    return [complex(0.7 * k + rng.uniform(-0.2, 0.2), rng.uniform(-2, 2)) for k in range(n)]


def test_single_coordinate_closed_form():
    t, x, z = 0.8, -1.1, 0.4 + 0.9j
    got = permutation_kernel(t, [x], [z])
    want = cmath.exp(0.5 * t * z * z + x * z)
    assert got.to_complex() == pytest.approx(want, rel=1e-14)


def test_two_coordinate_hand_formula():
    rng = random.Random(41)
    for _ in range(20):
        t = rng.uniform(0.3, 3.0)
        x = random_points(rng, 2)
        z = random_coords(rng, 2)
        xs = sorted(x)
        d = z[1] - z[0]
        want = ((d - 1) / d) * cmath.exp(0.5 * t * (z[0] ** 2 + z[1] ** 2) + xs[0] * z[0] + xs[1] * z[1])
        want += ((-d - 1) / (-d)) * cmath.exp(0.5 * t * (z[0] ** 2 + z[1] ** 2) + xs[0] * z[1] + xs[1] * z[0])
        got = permutation_kernel(t, x, z)
        assert rel_diff(got, ScaledComplex.from_complex(want)) < 1e-13


@pytest.mark.parametrize("n", [3, 4, 5])
def test_matches_brute_force_oracle(n):
    rng = random.Random(100 + n)
    for _ in range(5):
        t = rng.uniform(0.4, 2.0)
        x = random_points(rng, n)
        z = random_coords(rng, n)
        got = permutation_kernel(t, x, z)
        want = oracle_kernel(t, x, z)
        assert rel_diff(got, ScaledComplex.from_complex(want)) < 1e-12


def test_permutation_symmetry_of_coordinates():
    rng = random.Random(7)
    t = 1.3
    x = random_points(rng, 4)
    z = random_coords(rng, 4)
    base = permutation_kernel(t, x, z)
    for _ in range(6):
        order = list(range(4))
        rng.shuffle(order)
        other = permutation_kernel(t, x, [z[i] for i in order])
        assert rel_diff(base, other) < 1e-12


def test_point_order_is_immaterial_exactly():
    # points are sorted at entry: shuffling them changes nothing at all
    t = 0.9
    x = [1.5, -0.3, 0.2]
    z = random_coords(random.Random(9), 3)
    a = permutation_kernel(t, x, z)
    b = permutation_kernel(t, [x[2], x[0], x[1]], z)
    assert a.mantissa == b.mantissa and a.log_scale == b.log_scale


def test_conjugate_symmetry():
    t = 1.1
    x = [0.4, -0.8]
    z = random_coords(random.Random(3), 2)
    a = permutation_kernel(t, x, z)
    b = permutation_kernel(t, x, [c.conjugate() for c in z])
    assert rel_diff(a.conjugate(), b) < 1e-14


def test_near_singularity_guard():
    with pytest.raises(NearSingularityError):
        permutation_kernel(1.0, [0.0, 0.0], [0.5, 0.5 + 1e-9])


def test_removable_singularity_limit():
    # colliding pair: the summed kernel tends to (2 - (x_(2)-x_(1))) e^{t a^2 + (x1+x2) a}
    t, a = 0.7, 0.3 + 0.2j
    x = [0.9, 0.1]
    dx = max(x) - min(x)
    limit = (2.0 - dx) * cmath.exp(t * a * a + (x[0] + x[1]) * a)
    errs = []
    for delta in (1e-2, 1e-3, 1e-4):
        got = permutation_kernel(t, x, [a, a + delta]).to_complex()
        errs.append(abs(got - limit) / abs(limit))
    assert errs[0] < 2e-2 and errs[1] < 2e-3 and errs[2] < 2e-4
    assert errs[1] < errs[0] / 5 and errs[2] < errs[1] / 5


def brute_survivors(p: Partition):
    """Oracle: filter all n! permutations by the forbidden-order rule."""
    slots = cluster_slots(p)
    out = []
    for perm in itertools.permutations(range(p.n)):
        pos = {v: i for i, v in enumerate(perm)}
        ok = True
        for a in range(p.n - 1):
            ka, _ = slots[a]
            kb, _ = slots[a + 1]
            if ka == kb and pos[a + 1] > pos[a]:
                ok = False
                break
        if ok:
            out.append(perm)
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_surviving_permutations_match_filter_oracle(n):
    for p in enumerate_partitions(n):
        got = surviving_permutations(p)
        want = brute_survivors(p)
        assert list(got) == want  # same set and same (lex) order
        expect_count = math.factorial(n)
        for lam in p.parts:
            expect_count //= math.factorial(lam)
        assert len(got) == expect_count


def test_full_cluster_survivor_is_reversal():
    for n in range(1, 8):
        got = surviving_permutations(Partition((n,)))
        assert got == (tuple(range(n - 1, -1, -1)),)


def test_two_stack_cluster_value():
    # single cluster of two: kernel = 2 exp(t/2 (w^2 + (w+1)^2) + x_(1)(w+1) + x_(2) w)
    t = 1.4
    x = [0.6, -0.2]
    xs = sorted(x)
    p = Partition((2,))
    for w in (0.3 + 0.5j, -1.0 - 2.2j):
        want = 2.0 * cmath.exp(0.5 * t * (w * w + (w + 1) ** 2) + xs[0] * (w + 1) + xs[1] * w)
        got = clustered_kernel(t, x, p, [w])
        assert rel_diff(got, ScaledComplex.from_complex(want)) < 1e-14


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_clustered_matches_generic_on_expanded_points(n):
    rng = random.Random(50 + n)
    for p in enumerate_partitions(n):
        w = [complex(0.11 * (k + 1), rng.uniform(-1.5, 1.5)) for k in range(p.length)]
        x = random_points(rng, n)
        t = rng.uniform(0.4, 1.8)
        a = clustered_kernel(t, x, p, w)
        b = permutation_kernel(t, x, cluster_expand(w, p))
        assert rel_diff(a, b) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_short_circuit_equals_unfiltered_bitwise(n):
    rng = random.Random(900 + n)
    for p in enumerate_partitions(n):
        w = [complex(0.13 * (k + 1), rng.uniform(-1.2, 1.2)) for k in range(p.length)]
        x = random_points(rng, n)
        t = rng.uniform(0.4, 1.8)
        fast = clustered_kernel(t, x, p, w, short_circuit=True)
        full = clustered_kernel(t, x, p, w, short_circuit=False)
        assert fast.mantissa == full.mantissa
        assert fast.log_scale == full.log_scale


def test_cluster_determinant_vs_cauchy_product():
    # the cluster matrix is a Cauchy matrix with u_i = w_i + lambda_i, v_j = w_j
    rng = random.Random(77)
    for n in (2, 3, 4, 5, 6):
        for p in enumerate_partitions(n):
            if p.length < 2 or p.length > 6:
                continue
            w = [complex(0.2 * k, rng.uniform(-1, 1)) for k in range(p.length)]
            lu = cluster_determinant(w, p)
            u = [w[i] + p.parts[i] for i in range(p.length)]
            cp = cauchy_determinant(u, w)
            assert abs(lu - cp) / abs(cp) < 1e-12


def test_cauchy_frozen_example():
    assert cauchy_determinant([2.0, 3.0], [0.0, 1.0]) == pytest.approx(-1.0 / 12.0, rel=1e-15)
    assert cauchy_determinant([2.0], [0.5]) == pytest.approx(1.0 / 1.5, rel=1e-15)


def test_cauchy_singular_raises():
    with pytest.raises(NumericsError):
        cauchy_determinant([1.0, 2.0], [2.0, 3.0])


def test_cluster_integrand_conjugate_pairs():
    # integrand at conjugate base points is the conjugate: integrals come out real
    t = 0.9
    x = [0.0, 0.7, 1.1]
    p = Partition((2, 1))
    w = [0.1 + 0.8j, 0.25 - 0.45j]
    a = cluster_integrand(t, x, p, w)
    b = cluster_integrand(t, x, p, [c.conjugate() for c in w])
    assert rel_diff(a.conjugate(), b) < 1e-13
