"""Partition enumeration against an independent recursive oracle."""

from __future__ import annotations

import math

import pytest

from bosegas.partitions import (
    Partition,
    cluster_expand,
    cluster_slots,
    enumerate_partitions,
)


def oracle_partitions(n, max_part=None):
    """Independent recursive enumeration (unordered), for cross-checking."""
    if max_part is None:
        max_part = n
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, max_part), 0, -1):
        out.extend((first,) + rest for rest in oracle_partitions(n - first, first))
    return out


def oracle_count(n, k):
    """Classical recurrence p(n, k) = partitions of n with parts <= k."""
    if n == 0:
        return 1
    if n < 0 or k == 0:
        return 0
    return oracle_count(n - k, k) + oracle_count(n, k - 1)


# frozen from the recurrence above (and p(30) computed once with it)
PARTITION_COUNTS = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 8: 22, 9: 30, 10: 42, 30: 5604}


@pytest.mark.parametrize("n", range(1, 13))
def test_enumeration_matches_recursive_oracle(n):
    got = [p.parts for p in enumerate_partitions(n)]
    assert sorted(got) == sorted(oracle_partitions(n))
    assert len(set(got)) == len(got)


@pytest.mark.parametrize("n,count", sorted(PARTITION_COUNTS.items()))
def test_counts_match_recurrence(n, count):
    if n <= 12:
        assert oracle_count(n, n) == count
    assert len(enumerate_partitions(n)) == count


def test_decreasing_lex_order():
    got = [p.parts for p in enumerate_partitions(4)]
    assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    for n in range(1, 11):
        seq = [p.parts for p in enumerate_partitions(n)]
        assert seq[0] == (n,)
        assert seq[-1] == (1,) * n
        assert all(a > b for a, b in zip(seq, seq[1:])), "not strictly decreasing lex"


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    with pytest.raises(ValueError):
        Partition(())
    with pytest.raises(ValueError):
        enumerate_partitions(0)


def test_multiplicity_values():
    assert Partition((1, 1, 1)).multiplicity == 6
    assert Partition((2, 2, 1)).multiplicity == 2
    assert Partition((3,)).multiplicity == 1
    assert Partition((2, 2, 2, 1, 1)).multiplicity == 12


@pytest.mark.parametrize("n", range(1, 13))
def test_length_factorial_over_multiplicity_is_integer(n):
    # l! / m(lambda) counts distinct orderings of the parts
    for p in enumerate_partitions(n):
        q, r = divmod(math.factorial(p.length), p.multiplicity)
        assert r == 0 and q >= 1


def test_cluster_expand_layout():
    p = Partition((2, 1))
    w = [0.5 + 1j, -2.0]
    assert cluster_expand(w, p) == [0.5 + 1j, 1.5 + 1j, -2.0]
    assert cluster_slots(p) == [(0, 0), (0, 1), (1, 0)]
    with pytest.raises(ValueError):
        cluster_expand([1.0], p)


def test_cluster_expand_identity_partition():
    p = Partition((1, 1, 1, 1))
    w = [1j, 2j, 3j, 4j]
    assert cluster_expand(w, p) == w
