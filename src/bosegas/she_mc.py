"""Direct simulation of the multiplicative-noise heat equation.

Explicit Euler on a uniform grid for dZ = (1/2) Z'' dt + Z dW with a
discrete delta start (mass 1/dx in the center cell) and zero boundaries:

    Z[m+1, j] = Z[m, j] + (dt / 2 dx^2) (Z[m, j+1] - 2 Z[m, j] + Z[m, j-1])
                + Z[m, j] * eta[m, j] * sqrt(dt / dx)

with i.i.d. standard normals eta.  The scheme can push a cell negative; such
cells are clipped to zero and counted, since the continuum solution is
nonnegative and the moment identities assume it.

Replica r of a run with seed s draws its noise from an independent Philox
stream keyed by SeedSequence((s, r)), so any subset of replicas can be
reproduced in isolation and batching cannot change any sample.  Noise is
drawn step-major — one (n_steps, interior) block per replica — which makes
the batched evolution bit-identical to stepping a single replica.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import SpacePoints

MIN_REPLICAS = 100
_BATCH = 64


@dataclass(frozen=True)
class GridSpec:
    """Uniform space-time grid on [-half_width, half_width] x [0, t_final]."""

    dx: float
    dt: float
    half_width: float
    t_final: float

    def __post_init__(self):
        for name in ("dx", "dt", "half_width", "t_final"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive and finite, got {v}")
        if self.dt > self.dx * self.dx / 2.0 * (1.0 + 1e-12):
            raise ValueError(
                f"explicit scheme unstable: need dt <= dx^2/2 = {self.dx ** 2 / 2:.3e}, "
                f"got dt = {self.dt:.3e}"
            )
        if self.half_width < 4.0 * math.sqrt(self.t_final):
            raise ValueError(
                f"domain too small: need half_width >= 4 sqrt(t_final) = "
                f"{4.0 * math.sqrt(self.t_final):.3f} to keep boundary mass loss negligible"
            )
        for num, den, label in ((self.half_width, self.dx, "half_width/dx"),
                                (self.t_final, self.dt, "t_final/dt")):
            ratio = num / den
            if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
                raise ValueError(f"{label} = {ratio} must be an integer")

    @property
    def n_side(self) -> int:
        return round(self.half_width / self.dx)

    @property
    def n_cells(self) -> int:
        return 2 * self.n_side + 1

    @property
    def n_steps(self) -> int:
        return round(self.t_final / self.dt)

    def coordinates(self) -> np.ndarray:
        return (np.arange(self.n_cells) - self.n_side) * self.dx

    def index_of(self, x: float) -> int:
        if abs(x) > self.half_width:
            raise ValueError(f"point {x} outside [-{self.half_width}, {self.half_width}]")
        return self.n_side + round(x / self.dx)


@dataclass(frozen=True)
class SimulatedField:
    """Field values at t_final plus how many cell-steps were clipped."""

    grid: GridSpec
    values: np.ndarray
    clip_count: int

    def value_at(self, x: float) -> float:
        return float(self.values[self.grid.index_of(x)])

    def mass(self) -> float:
        return float(np.add.reduce(self.values)) * self.grid.dx


def replica_generator(seed: int, replica: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, replica))))


def _evolve(grid: GridSpec, noise_blocks):
    """Advance a batch; noise_blocks is (R, n_steps, interior) or None."""
    r = 1 if noise_blocks is None else noise_blocks.shape[0]
    z = np.zeros((r, grid.n_cells))
    z[:, grid.n_side] = 1.0 / grid.dx
    lam = grid.dt / (2.0 * grid.dx * grid.dx)
    amp = math.sqrt(grid.dt / grid.dx)
    clipped = 0
    for m in range(grid.n_steps):
        interior = z[:, 1:-1]
        lap = z[:, :-2] - 2.0 * interior + z[:, 2:]
        if noise_blocks is None:
            z[:, 1:-1] = interior + lam * lap
        else:
            z[:, 1:-1] = interior + lam * lap + interior * (amp * noise_blocks[:, m, :])
            neg = z < 0.0
            c = int(np.count_nonzero(neg))
            if c:
                clipped += c
                np.putmask(z, neg, 0.0)
    return z, clipped


def simulate_field(grid: GridSpec, seed: int, replica: int = 0, noise: bool = True) -> SimulatedField:
    """One realization (or the noise-free diffusion when noise=False)."""
    if noise:
        rng = replica_generator(seed, replica)
        blocks = rng.standard_normal((1, grid.n_steps, grid.n_cells - 2))
    else:
        blocks = None
    z, clipped = _evolve(grid, blocks)
    return SimulatedField(grid=grid, values=z[0], clip_count=clipped)


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    std_error: float
    replicas: int
    clip_count: int
    cell_steps: int

    @property
    def clip_fraction(self) -> float:
        return self.clip_count / self.cell_steps


def estimate_moment(grid: GridSpec, points, replicas: int, seed: int) -> MCEstimate:
    """Monte Carlo mean of prod_i Z(t_final, x_i) over independent replicas."""
    if replicas < MIN_REPLICAS:
        raise ValueError(f"need at least {MIN_REPLICAS} replicas, got {replicas}")
    pts = SpacePoints.of(points)
    extent = max(abs(x) for x in pts.coords)
    if extent > grid.half_width - grid.dx:
        raise ValueError(
            f"points must lie inside [-{grid.half_width - grid.dx:.3f}, "
            f"{grid.half_width - grid.dx:.3f}] (one cell clear of the boundary)"
        )
    if grid.half_width < 4.0 * math.sqrt(grid.t_final) + extent:
        raise ValueError(
            f"domain too small for these points: need half_width >= "
            f"4 sqrt(t_final) + max|x| = {4.0 * math.sqrt(grid.t_final) + extent:.3f}"
        )
    idx = [grid.index_of(x) for x in pts.coords]
    interior = grid.n_cells - 2
    samples = np.empty(replicas)
    clipped = 0
    # noise is drawn in place into one batch buffer, so peak memory is one
    # batch however the allocator reuses freed blocks
    buffer = np.empty((min(_BATCH, replicas), grid.n_steps, interior))
    for start in range(0, replicas, _BATCH):
        stop = min(start + _BATCH, replicas)
        blocks = buffer[: stop - start]
        for block, r in zip(blocks, range(start, stop)):
            replica_generator(seed, r).standard_normal(out=block)
        z, c = _evolve(grid, blocks)
        clipped += c
        prod = z[:, idx[0]].copy()
        for i in idx[1:]:
            prod *= z[:, i]
        samples[start:stop] = prod
    mean = float(np.add.reduce(samples)) / replicas
    resid = samples - mean
    var = float(np.add.reduce(resid * resid)) / (replicas - 1)
    return MCEstimate(
        mean=mean,
        std_error=math.sqrt(var / replicas),
        replicas=replicas,
        clip_count=clipped,
        cell_steps=replicas * grid.n_steps * interior,
    )
