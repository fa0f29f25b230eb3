"""Direct simulation of the multiplicative-noise heat equation.

Explicit Euler on a uniform grid for dZ = (1/2) Z'' dt + Z dW with a
discrete delta start (mass 1/dx in the center cell) and zero boundaries:

    Z[m+1, j] = Z[m, j] + (dt / 2 dx^2) (Z[m, j+1] - 2 Z[m, j] + Z[m, j-1])
                + Z[m, j] * eta[m, j] * sqrt(dt / dx)

with i.i.d. standard normals eta.  The scheme can push a cell negative; such
cells are clipped to zero and counted, since the continuum solution is
nonnegative and the moment identities assume it.

Replica r of a run with seed s draws its noise from an independent Philox
stream keyed by SeedSequence((s, r)), step-major, so any subset of replicas
can be reproduced in isolation.  Each replica's noise is drawn a chunk of
steps at a time, and successive draws continue its stream.  Replicas are
advanced in batches, and the batches run on one worker thread per usable
core (numpy releases the GIL in the draws and the step ufuncs): of W
workers, worker w takes batches w, w + W, w + 2W, ..., the calling thread
being worker 0.  The update is elementwise per replica and keeps one
operation order, so no sample depends on the chunk length, the batch size or
the number of workers.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .spectral import SpacePoints

MIN_REPLICAS = 100
_BATCH = 256  # replicas one worker advances together
_CHUNK = 25  # steps of noise drawn per replica at a time


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


class _Stepper:
    """Euler evolution of up to `capacity` replicas in preallocated work arrays."""

    def __init__(self, grid: GridSpec, capacity: int):
        interior = grid.n_cells - 2
        self.grid = grid
        self._z = np.empty((capacity, grid.n_cells))
        self._eta = np.empty((capacity, min(_CHUNK, grid.n_steps), interior))
        self._lap = np.empty((capacity, interior))
        self._kick = np.empty((capacity, interior))
        self._neg = np.empty((capacity, interior), dtype=bool)

    def run(self, generators):
        """Advance one replica per generator (None: one noise-free replica) to t_final.

        Returns the (replicas, n_cells) field, a view valid until the next run,
        and the number of clipped cell-steps.
        """
        grid = self.grid
        r = 1 if generators is None else len(generators)
        z = self._z[:r]
        z.fill(0.0)
        z[:, grid.n_side] = 1.0 / grid.dx
        left, mid, right = z[:, :-2], z[:, 1:-1], z[:, 2:]
        lap, kick, neg = self._lap[:r], self._kick[:r], self._neg[:r]
        lam = grid.dt / (2.0 * grid.dx * grid.dx)
        amp = math.sqrt(grid.dt / grid.dx)
        chunk = self._eta.shape[1]
        clipped = 0
        for first in range(0, grid.n_steps, chunk):
            steps = min(chunk, grid.n_steps - first)
            if generators is not None:
                eta = self._eta[:r, :steps]
                for row, gen in zip(eta, generators):
                    gen.standard_normal(out=row)
                np.multiply(eta, amp, out=eta)
            for m in range(steps):
                # mid + lam * (left - 2 mid + right) [+ mid * (amp eta)], in that order
                np.multiply(mid, 2.0, out=lap)
                np.subtract(left, lap, out=lap)
                np.add(lap, right, out=lap)
                np.multiply(lap, lam, out=lap)
                if generators is None:
                    np.add(mid, lap, out=mid)
                    continue
                np.add(mid, lap, out=lap)
                np.multiply(mid, eta[:, m], out=kick)
                np.add(lap, kick, out=mid)
                np.less(mid, 0.0, out=neg)
                c = int(np.count_nonzero(neg))
                if c:
                    clipped += c
                    np.copyto(mid, 0.0, where=neg)
        return z, clipped


def _run_on_cores(items: int, new_state, run) -> None:
    """Call run(state, i) once for each i in range(items), spread over one thread
    per usable core (at most `items`, this thread included): of W workers,
    worker w takes i = w, w + W, w + 2W, ..., and this thread is worker 0.
    Each worker makes its own state with new_state().  The first error a
    worker raises is raised here once every worker has finished."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cores = os.cpu_count() or 1
    workers = min(cores, items)
    errors = []

    def work(w):
        try:
            state = new_state()
            for i in range(w, items, workers):
                run(state, i)
        except BaseException as exc:  # re-raised on the calling thread below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(w,)) for w in range(1, workers)]
    for t in threads:
        t.start()
    work(0)
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def simulate_field(grid: GridSpec, seed: int, replica: int = 0, noise: bool = True) -> SimulatedField:
    """One realization (or the noise-free diffusion when noise=False)."""
    generators = [replica_generator(seed, replica)] if noise else None
    z, clipped = _Stepper(grid, 1).run(generators)
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


def _cells_of(grid: GridSpec, points) -> list[int]:
    """Grid indices of the points, after checking they sit well inside the domain."""
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
    return [grid.index_of(x) for x in pts.coords]


def estimate_moments(grid: GridSpec, point_sets, replicas: int, seed: int) -> list[MCEstimate]:
    """Monte Carlo means of prod_i Z(t_final, x_i), one per point set, from one ensemble."""
    if replicas < MIN_REPLICAS:
        raise ValueError(f"need at least {MIN_REPLICAS} replicas, got {replicas}")
    cells = [_cells_of(grid, points) for points in point_sets]
    if not cells:
        raise ValueError("need at least one point set")
    samples = np.empty((len(cells), replicas))
    n_batches = -(-replicas // _BATCH)
    clips = [0] * n_batches

    def run_batch(stepper, b):
        lo, hi = b * _BATCH, min((b + 1) * _BATCH, replicas)
        z, clips[b] = stepper.run([replica_generator(seed, r) for r in range(lo, hi)])
        for row, idx in zip(samples, cells):
            prod = z[:, idx[0]].copy()
            for i in idx[1:]:
                prod *= z[:, i]
            row[lo:hi] = prod

    _run_on_cores(n_batches, lambda: _Stepper(grid, min(_BATCH, replicas)), run_batch)
    interior = grid.n_cells - 2
    estimates = []
    for row in samples:
        mean = float(np.add.reduce(row)) / replicas
        resid = row - mean
        var = float(np.add.reduce(resid * resid)) / (replicas - 1)
        estimates.append(MCEstimate(
            mean=mean,
            std_error=math.sqrt(var / replicas),
            replicas=replicas,
            clip_count=sum(clips),
            cell_steps=replicas * grid.n_steps * interior,
        ))
    return estimates


def estimate_moment(grid: GridSpec, points, replicas: int, seed: int) -> MCEstimate:
    """Monte Carlo mean of prod_i Z(t_final, x_i) over independent replicas."""
    return estimate_moments(grid, [points], replicas, seed)[0]
