"""Exact rational spectral data for the clustered moment expansion.

Everything here is arithmetic in `fractions.Fraction`, so the ordering
statements (which cluster grows fastest, how big the gap is) are proved for
the given n rather than sampled in floating point.

A cluster of size m contributes quadratic exponents (theta + i - 1)^2/2,
i = 1..m, when its contour sits at base abscissa theta.  Summed over the
clusters of a partition this is the t-coefficient of the integrand's growth
envelope; minimizing over theta ranks partitions.  The full-cluster partition
(n) attains the top-moment growth rate n(n^2-1)/24 and every other partition
stays strictly below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .partitions import Partition, enumerate_partitions


@dataclass(frozen=True)
class SpacePoints:
    """An n-tuple of real evaluation points; order of entry is immaterial."""

    coords: tuple[float, ...]

    def __post_init__(self):
        if not self.coords:
            raise ValueError("need at least one point")
        if not all(math.isfinite(c) for c in self.coords):
            raise ValueError(f"points must be finite, got {self.coords}")

    @classmethod
    def of(cls, x) -> "SpacePoints":
        if isinstance(x, SpacePoints):
            return x
        if isinstance(x, (int, float)):
            return cls((float(x),))
        return cls(tuple(float(c) for c in x))

    @property
    def n(self) -> int:
        return len(self.coords)

    @cached_property
    def ordered(self) -> tuple[float, ...]:
        return tuple(sorted(self.coords))  # stable, ties keep entry order


def lyapunov_exponent(n: int) -> Fraction:
    """Growth rate n(n^2 - 1)/24 of the n-th moment, exact."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    return Fraction(n * (n * n - 1), 24)


def log_ground_state(x) -> float:
    """log of the attractive Bose ground-state factor: -sum_{i<j} |x_i - x_j| / 2.

    Kept in log space; the factor itself underflows for spread-out points.
    """
    pts = SpacePoints.of(x).coords
    return -0.5 * sum(abs(a - b) for i, a in enumerate(pts) for b in pts[i + 1:])


def sorted_pairing_exponent(x) -> float:
    """sum_i x_(i) ((n+1)/2 - i), the sorted-coordinate form of log_ground_state."""
    ordered = SpacePoints.of(x).ordered
    n = len(ordered)
    return sum(c * ((n + 1) / 2 - i) for i, c in enumerate(ordered, start=1))


def optimal_theta(p: Partition) -> Fraction:
    """Base abscissa minimizing the growth envelope: (n - sum lambda_k^2) / (2n)."""
    n = p.n
    return Fraction(n - sum(q * q for q in p.parts), 2 * n)


def envelope_exponent(p: Partition, theta) -> Fraction:
    """t-coefficient of the contour growth envelope at base abscissa theta.

    Closed form via Faulhaber sums:
    (6 n theta^2 + 6 (sum lam^2 - n) theta + 2 sum lam^3 - 3 sum lam^2 + n) / 12.
    """
    th = Fraction(theta)
    n = p.n
    s2 = sum(q * q for q in p.parts)
    s3 = sum(q * q * q for q in p.parts)
    return Fraction(6 * n * th * th + 6 * (s2 - n) * th + 2 * s3 - 3 * s2 + n, 12)


def envelope_exponent_direct(p: Partition, theta) -> Fraction:
    """Literal double sum sum_k sum_{i=1}^{lambda_k} (theta + i - 1)^2 / 2.

    Independent route kept deliberately naive; must agree with
    envelope_exponent exactly.
    """
    th = Fraction(theta)
    total = Fraction(0)
    for lam in p.parts:
        for i in range(1, lam + 1):
            total += (th + i - 1) ** 2 / 2
    return total


def min_envelope_exponent(p: Partition) -> Fraction:
    """Envelope exponent at its minimizing theta: (4 s3 - 3 s2^2/n - n) / 24."""
    n = p.n
    s2 = sum(q * q for q in p.parts)
    s3 = sum(q * q * q for q in p.parts)
    return Fraction(4 * s3 - 3 * Fraction(s2 * s2, n) - n, 24)


@dataclass(frozen=True)
class GapReport:
    """Exact margins lyapunov_exponent(n) - min envelope, per non-top partition."""

    n: int
    margins: tuple[tuple[Partition, Fraction], ...]
    all_positive: bool
    min_margin: Fraction | None


def verify_gap(n: int) -> GapReport:
    """Sweep every partition of n and certify the strict growth gap.

    The top partition (n) must attain lyapunov_exponent(n) exactly; all others
    must fall strictly below.  Margins are exact rationals.
    """
    top = lyapunov_exponent(n)
    margins = []
    for p in enumerate_partitions(n):
        value = min_envelope_exponent(p)
        if p.parts == (n,):
            if value != top:
                raise ArithmeticError(
                    f"top partition of n={n} has exponent {value}, expected {top}"
                )
            continue
        margins.append((p, top - value))
    all_positive = all(m > 0 for _, m in margins)
    min_margin = min((m for _, m in margins), default=None)
    return GapReport(n=n, margins=tuple(margins), all_positive=all_positive, min_margin=min_margin)


def spectral_gap(n: int) -> Fraction:
    """Distance from the top growth rate to the best subleading partition."""
    report = verify_gap(n)
    if report.min_margin is None:
        raise ValueError(f"n={n} has no subleading partitions")
    return report.min_margin
