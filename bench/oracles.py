"""Closed forms the benchmark checks bosegas against.

Written from their formulas; nothing here imports bosegas, so an agreement
between the two is evidence, not an identity.  `self_check` tests each form
against an identity it must satisfy before any program output is judged.

Conventions: Z solves dZ = (1/2) Z'' dt + Z dW from a point mass at 0, so the
n-point moment u(t, x) solves du/dt = (1/2) sum_i d^2u/dx_i^2 +
sum_{i<j} delta(x_i - x_j) u.
"""

from __future__ import annotations

import math


def heat_kernel(t: float, x: float) -> float:
    """The n = 1 moment: e^{-x^2/(2t)} / sqrt(2 pi t)."""
    return math.exp(-x * x / (2.0 * t)) / math.sqrt(2.0 * math.pi * t)


def two_point_moment(t: float, x1: float, x2: float) -> float:
    """The n = 2 moment in erf form.  With beta = 1 - |x1 - x2| / t,

        e^{-(x1^2 + x2^2)/(2t)} / (2 pi t)
        * [1 + (sqrt(pi t)/2) e^{beta^2 t/4} (1 + erf(beta sqrt(t)/2))].
    """
    beta = 1.0 - abs(x1 - x2) / t
    gauss = math.exp(-(x1 * x1 + x2 * x2) / (2.0 * t)) / (2.0 * math.pi * t)
    bracket = 1.0 + 0.5 * math.sqrt(math.pi * t) * math.exp(beta * beta * t / 4.0) * (
        1.0 + math.erf(beta * math.sqrt(t) / 2.0))
    return gauss * bracket


def _prefactor_log(t: float, n: int) -> float:
    """log of (n-1)!/sqrt(2 pi n t) e^{n(n^2-1) t/24}."""
    return math.lgamma(n) - 0.5 * math.log(2.0 * math.pi * n * t) + n * (n * n - 1) * t / 24.0


def full_cluster_log(t: float, x) -> float:
    """log of the full-cluster (lambda = (n)) term in Gaussian form:

    (n-1)!/sqrt(2 pi n t) exp(n(n^2-1)t/24 + sum_i x_(i)((n+1)/2 - i)
                              - (sum x)^2/(2 n t)),  x_(1) <= ... <= x_(n).
    """
    xs = sorted(float(v) for v in x)
    n = len(xs)
    pairing = sum(v * ((n + 1) / 2.0 - i) for i, v in enumerate(xs, start=1))
    s = sum(xs)
    return _prefactor_log(t, n) + pairing - s * s / (2.0 * n * t)


def leading_log(t: float, x) -> float:
    """log of the large-t leading term
    (n-1)!/sqrt(2 pi n t) e^{n(n^2-1)t/24} e^{-sum_{i<j} |x_i - x_j|/2}."""
    xs = [float(v) for v in x]
    ground = -0.5 * sum(abs(a - b) for i, a in enumerate(xs) for b in xs[i + 1:])
    return _prefactor_log(t, len(xs)) + ground


def scaled_rel_error(mantissa: float, log_scale: float, oracle_log: float) -> float:
    """|m e^{log_scale} / e^{oracle_log} - 1| without forming either number."""
    return abs(mantissa * math.exp(log_scale - oracle_log) - 1.0)


def self_check() -> list[str]:
    """Identities each form must satisfy; returns the ones that fail."""
    bad = []

    def expect(ok: bool, what: str):
        if not ok:
            bad.append(what)

    # heat kernel: unit mass (trapezoid on a wide grid) and the heat equation
    t, h = 0.7, 1e-3
    width = 20.0 * math.sqrt(t)
    m = 4000
    mass = sum(heat_kernel(t, -width + 2.0 * width * k / m) for k in range(m + 1))
    mass = (mass - 0.5 * (heat_kernel(t, -width) + heat_kernel(t, width))) * 2.0 * width / m
    expect(abs(mass - 1.0) < 1e-12, f"heat kernel mass {mass!r} != 1")
    for x in (0.0, 0.4, -1.3):
        dt_ = (heat_kernel(t + h, x) - heat_kernel(t - h, x)) / (2.0 * h)
        dxx = (heat_kernel(t, x + h) - 2.0 * heat_kernel(t, x) + heat_kernel(t, x - h)) / (h * h)
        expect(abs(dt_ - 0.5 * dxx) < 1e-5 * heat_kernel(t, 0.0),
               f"heat kernel misses the heat equation at x={x}")

    # Gaussian form: n = 1 is the heat kernel; against the leading term it
    # differs exactly by the centre-of-mass factor e^{-(sum x)^2/(2nt)}
    for t, x in ((0.5, 0.0), (1.0, 0.7), (3.0, -2.0)):
        rel = abs(math.exp(full_cluster_log(t, (x,))) / heat_kernel(t, x) - 1.0)
        expect(rel < 1e-14, f"Gaussian form at n=1 misses the heat kernel by {rel:.2e}")
    for t, x in ((0.5, (0.0, 0.3)), (1.0, (-0.2, 0.5, 0.9)), (2.0, (0.1, -0.4, 0.8, 1.1))):
        n, s = len(x), sum(x)
        gap = full_cluster_log(t, x) - leading_log(t, x) + s * s / (2.0 * n * t)
        expect(abs(gap) < 1e-12, f"Gaussian form vs leading term off by e^{gap:.2e} at {x}")

    # erf form: symmetric in its points; off the diagonal it solves the
    # two-particle heat equation; across the diagonal its derivative jumps by
    # (d/dx2 - d/dx1) u = -u (the delta interaction); ratio to leading -> 1
    for t, a, b in ((0.5, 0.0, 0.7), (2.0, -1.0, 0.4)):
        expect(two_point_moment(t, a, b) == two_point_moment(t, b, a),
               f"erf form not symmetric at t={t}")
    u = two_point_moment
    for t, a, b in ((0.8, 0.1, 0.9), (2.0, -0.5, 1.5)):
        dt_ = (u(t + h, a, b) - u(t - h, a, b)) / (2.0 * h)
        lap = (u(t, a + h, b) + u(t, a - h, b) + u(t, a, b + h) + u(t, a, b - h)
               - 4.0 * u(t, a, b)) / (h * h)
        expect(abs(dt_ - 0.5 * lap) < 1e-5 * u(t, a, b),
               f"erf form misses the heat equation at t={t}, x=({a}, {b})")
    for t, a in ((0.8, 0.2), (2.0, -0.3)):
        # one-sided second-order difference in x2 - x1 from the diagonal
        def side(r):
            return u(t, a - r / 2.0, a + r / 2.0)
        slope = (-3.0 * side(0.0) + 4.0 * side(h) - side(2.0 * h)) / (2.0 * h)
        jump = 2.0 * slope  # (d/dx2 - d/dx1) = 2 d/dr
        expect(abs(jump + side(0.0)) < 1e-5 * side(0.0),
               f"erf form misses the delta jump at t={t}: {jump:.6g} vs {-side(0.0):.6g}")
    prev = math.inf
    for t in (4.0, 16.0, 64.0, 256.0):
        dev = abs(u(t, 0.0, 0.0) / math.exp(leading_log(t, (0.0, 0.0))) - 1.0)
        expect(dev < prev, f"erf/leading - 1 does not shrink at t={t}")
        prev = dev
    expect(prev < 1e-2, f"erf/leading - 1 = {prev:.2e} at t=256")
    return bad
