"""Integer partitions and the cluster layout they induce.

A partition of n with parts (lambda_1 >= lambda_2 >= ... >= lambda_l) labels a
grouping of n coordinates into l clusters; cluster k carries lambda_k
coordinates stacked at unit spacing above a single free base point.  The
multiplicity constant prod_j m_j! (m_j = number of parts equal to j) counts the
relabelings of identical clusters and divides every cluster integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class Partition:
    """Nonincreasing positive parts summing to n."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("partition needs at least one part")
        for p in self.parts:
            if not isinstance(p, int) or p < 1:
                raise ValueError(f"parts must be positive integers, got {self.parts}")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError(f"parts must be nonincreasing, got {self.parts}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    @cached_property
    def multiplicity(self) -> int:
        """prod_j (number of parts equal to j)!"""
        out = 1
        for value in set(self.parts):
            out *= math.factorial(self.parts.count(value))
        return out

    def __str__(self) -> str:
        return "+".join(str(p) for p in self.parts)


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of n in decreasing lexicographic order, (n) first.

    Iterative successor construction: decrement the rightmost part that
    exceeds 1, then redistribute the freed total greedily.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    out = []
    parts = [n]
    while True:
        out.append(Partition(tuple(parts)))
        k = len(parts) - 1
        while k >= 0 and parts[k] == 1:
            k -= 1
        if k < 0:
            return out
        total = parts[k] + (len(parts) - k - 1)  # freed mass incl. trailing ones
        v = parts[k] - 1
        parts = parts[:k]
        while total > 0:
            c = min(v, total)
            parts.append(c)
            total -= c


def cluster_expand(w, p: Partition) -> list[complex]:
    """Stack cluster base points into the full coordinate list.

    For base points w = (w_1, ..., w_l) returns the n values
    (w_1, w_1+1, ..., w_1+lambda_1-1, w_2, ..., w_l+lambda_l-1).
    """
    if len(w) != p.length:
        raise ValueError(f"need {p.length} base points for {p}, got {len(w)}")
    out = []
    for base, lam in zip(w, p.parts):
        out.extend(base + i for i in range(lam))
    return out


def cluster_slots(p: Partition) -> list[tuple[int, int]]:
    """Per-coordinate (cluster index, integer offset) for the expanded layout."""
    return [(k, i) for k, lam in enumerate(p.parts) for i in range(lam)]
