"""Simulation checks: deterministic diffusion limit, martingale structure,
replica-stream reproducibility, and agreement with the exact moment anchors.

All Monte Carlo assertions use pinned seeds, so they are deterministic; the
3-standard-error windows were confirmed to hold for these seeds when frozen.
"""

import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import bosegas
import bosegas.she_mc as she_mc
from bosegas.moments import heat_kernel, two_point_moment
from bosegas.she_mc import (
    GridSpec,
    MCEstimate,
    estimate_moment,
    estimate_moments,
    replica_generator,
    simulate_field,
)

GRID = GridSpec(dx=0.05, dt=0.00125, half_width=3.0, t_final=0.5)
# 44 steps and 600 replicas: neither a whole number of noise chunks nor of batches
RAGGED = GridSpec(dx=0.1, dt=0.005, half_width=2.5, t_final=0.22)


# --- grid -------------------------------------------------------------------


def test_grid_validation():
    with pytest.raises(ValueError, match="unstable"):
        GridSpec(dx=0.05, dt=0.01, half_width=3.0, t_final=0.5)
    with pytest.raises(ValueError, match="domain too small"):
        GridSpec(dx=0.05, dt=0.00125, half_width=2.0, t_final=0.5)
    with pytest.raises(ValueError, match="must be an integer"):
        GridSpec(dx=0.07, dt=0.00125, half_width=3.0, t_final=0.5)
    with pytest.raises(ValueError, match="positive"):
        GridSpec(dx=0.05, dt=-0.001, half_width=3.0, t_final=0.5)


def test_grid_geometry():
    assert GRID.n_cells == 121 and GRID.n_cells % 2 == 1
    assert GRID.n_steps == 400
    coords = GRID.coordinates()
    assert coords[GRID.n_side] == 0.0
    assert coords[0] == -3.0 and coords[-1] == 3.0
    assert GRID.index_of(0.024) == GRID.n_side  # nearest cell
    assert GRID.index_of(0.026) == GRID.n_side + 1
    assert GRID.index_of(-3.0) == 0
    with pytest.raises(ValueError, match="outside"):
        GRID.index_of(3.05)


# --- noise-free scheme is a plain diffusion --------------------------------


def test_noise_free_diffusion_matches_heat_kernel():
    f = simulate_field(GRID, seed=0, noise=False)
    assert f.clip_count == 0
    assert np.all(f.values >= 0.0)
    assert f.mass() == pytest.approx(1.0, abs=1e-3)
    assert f.value_at(0.0) == pytest.approx(heat_kernel(0.5, 0.0), rel=5e-3)
    assert f.value_at(1.0) == pytest.approx(heat_kernel(0.5, 1.0), rel=5e-3)
    np.testing.assert_allclose(f.values, f.values[::-1])  # symmetric start


# --- reproducibility --------------------------------------------------------


def test_replica_streams_are_stable_and_distinct():
    a = replica_generator(3, 0).standard_normal(4)
    b = replica_generator(3, 0).standard_normal(4)
    c = replica_generator(3, 1).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_batched_estimate_bit_identical_to_single_replicas():
    est = estimate_moment(GRID, (0.0,), replicas=130, seed=5)
    singles = np.array(
        [simulate_field(GRID, seed=5, replica=r).value_at(0.0) for r in range(130)]
    )
    assert est.mean == float(np.add.reduce(singles)) / 130
    again = estimate_moment(GRID, (0.0,), replicas=130, seed=5)
    assert again.mean == est.mean and again.std_error == est.std_error


def test_estimates_pinned_bit_for_bit():
    # (mean, std_error, clip_count) as computed before noise was drawn in step
    # chunks and batches ran on worker threads
    pinned = {
        (GRID, (0.0,), 300, 5): (0.6166247902353731, 0.04990236100825053, 1),
        (GRID, (-0.1, 0.1), 300, 5): (0.8081832255385389, 0.28955144422716306, 1),
        (RAGGED, (0.0,), 600, 3): (0.8066438258822699, 0.024782265436102874, 21),
        (RAGGED, (-0.2, 0.3), 600, 3): (0.690794666448635, 0.05665948695611485, 21),
    }
    for (grid, points, replicas, seed), want in pinned.items():
        est = estimate_moment(grid, points, replicas=replicas, seed=seed)
        assert (est.mean, est.std_error, est.clip_count) == want


def test_one_ensemble_serves_every_point_set():
    point_sets = [(0.0,), (-0.2, 0.3), (0.0, 0.0, 0.1)]
    joint = estimate_moments(RAGGED, point_sets, replicas=600, seed=3)
    for points, est in zip(point_sets, joint):
        alone = estimate_moment(RAGGED, points, replicas=600, seed=3)
        assert (est.mean, est.std_error, est.clip_count) == (
            alone.mean, alone.std_error, alone.clip_count)
        assert est.cell_steps == alone.cell_steps and est.replicas == 600
    with pytest.raises(ValueError, match="inside"):
        estimate_moments(RAGGED, [(0.0,), (2.45,)], replicas=100, seed=1)
    with pytest.raises(ValueError, match="point set"):
        estimate_moments(RAGGED, [], replicas=100, seed=1)


_CPU_PROBE = """
import os, sys
if sys.argv[1] == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from bosegas.she_mc import GridSpec, estimate_moment
grid = GridSpec(dx=0.1, dt=0.005, half_width=2.5, t_final=0.22)
for points in ((0.0,), (-0.2, 0.3)):
    e = estimate_moment(grid, points, replicas=600, seed=3)
    print(repr((e.mean, e.std_error, e.clip_count)))
print(len(os.sched_getaffinity(0)))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_cpu_count_invariance():
    # the worker count follows the process's CPU affinity; results must not
    src = str(Path(bosegas.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    runs = {}
    for cpus in ("one", "all"):
        proc = subprocess.run([sys.executable, "-c", _CPU_PROBE, cpus], env=env,
                              capture_output=True, text=True, timeout=300, check=True)
        *estimates, ncpu = proc.stdout.splitlines()
        runs[cpus] = (estimates, int(ncpu))
    assert runs["one"][1] == 1
    assert runs["one"][0] == runs["all"][0]  # bit-identical, not approximately equal
    assert runs["all"][0] == [repr((0.8066438258822699, 0.024782265436102874, 21)),
                              repr((0.690794666448635, 0.05665948695611485, 21))]


def test_more_workers_than_cores_change_nothing(monkeypatch):
    # workers share the sample array and the clip counts; a skipped batch
    # would leave unwritten samples and drop its clips
    point_sets = [(0.0,), (-0.2, 0.3)]
    runs = []
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for cpus in (range(1), range(8)):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, c=cpus: set(c),
                                raising=False)
            ests = estimate_moments(RAGGED, point_sets, replicas=8 * 256 - 1, seed=9)
            runs.append([(e.mean, e.std_error, e.clip_count) for e in ests])
    finally:
        sys.setswitchinterval(interval)
    assert runs[0] == runs[1]


@pytest.mark.parametrize("failing", [0, 1, 3])
def test_failing_batch_raises_in_caller(monkeypatch, failing):
    # four workers, the calling thread worker 0 and batch b on worker b: an
    # error in a batch on any of them reaches the caller once all have joined
    run = she_mc._Stepper.run

    def flaky(self, generators):
        if generators[0].bit_generator.seed_seq.entropy == (9, failing * she_mc._BATCH):
            raise FloatingPointError(f"batch {failing}")
        return run(self, generators)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setattr(she_mc._Stepper, "run", flaky)
    threads = threading.active_count()
    with pytest.raises(FloatingPointError, match=f"batch {failing}"):
        estimate_moments(RAGGED, [(0.0,)], replicas=4 * she_mc._BATCH, seed=9)
    assert threading.active_count() == threads

# --- statistics against exact values ---------------------------------------


def test_mass_is_a_martingale():
    masses = np.array(
        [simulate_field(GRID, seed=7, replica=r).mass() for r in range(300)]
    )
    ref = simulate_field(GRID, seed=7, noise=False).mass()
    se = masses.std(ddof=1) / math.sqrt(masses.size)
    assert abs(masses.mean() - ref) <= 3.0 * se


def test_first_moment_hits_heat_kernel():
    est = estimate_moment(GRID, (0.0,), replicas=2000, seed=42)
    assert isinstance(est, MCEstimate)
    assert abs(est.mean - 1.0 / math.sqrt(math.pi)) <= 3.0 * est.std_error
    assert est.replicas == 2000
    assert est.clip_fraction <= 1e-7


def test_refinement_shrinks_deterministic_bias():
    # the noise-free scheme is the mean-field of the noisy one (the noise term
    # has zero mean), so its bias is exactly the n=1 estimator's bias
    biases, l1s = [], []
    for dx in (0.1, 0.05, 0.025):
        g = GridSpec(dx=dx, dt=dx * dx / 2.0, half_width=3.0, t_final=0.5)
        f = simulate_field(g, seed=0, noise=False)
        kernel = np.array([heat_kernel(0.5, x) for x in g.coordinates()])
        biases.append(abs(f.value_at(0.0) - heat_kernel(0.5, 0.0)))
        l1s.append(float(np.sum(np.abs(f.values - kernel)) * dx))
    assert biases[0] > biases[1] > biases[2]
    assert l1s[0] > l1s[1] > l1s[2]
    assert l1s[2] < 1e-4  # second-order scheme: ~4x drop per halving


def test_std_error_follows_clt_scaling():
    a = estimate_moment(GRID, (0.0,), replicas=2000, seed=21)
    b = estimate_moment(GRID, (0.0,), replicas=4000, seed=21)
    ratio = b.std_error / a.std_error
    assert abs(ratio - 1.0 / math.sqrt(2.0)) <= 0.2 / math.sqrt(2.0)


def test_short_time_two_point_matches_nested_quadrature():
    from bosegas.moments import MomentRequest, moment_nested_contours

    nested = moment_nested_contours(MomentRequest(0.2, (0.0, 0.0))).value.to_complex().real
    grid = GridSpec(dx=0.05, dt=0.00125, half_width=2.0, t_final=0.2)
    est = estimate_moment(grid, (0.0, 0.0), replicas=3000, seed=17)
    assert abs(est.mean - nested) <= 3.0 * est.std_error


def test_second_moment_hits_erf_form():
    est = estimate_moment(GRID, (-0.1, 0.1), replicas=3000, seed=11)
    exact = two_point_moment(0.5, -0.1, 0.1)
    assert abs(est.mean - exact) <= 3.0 * est.std_error + 0.1 * exact


# --- clipping ---------------------------------------------------------------


def test_clipping_is_counted_and_fields_stay_nonnegative():
    # coarse grid at the stability limit clips often: the center cell dies
    # whenever the first noise draw is below -1 sigma
    rough = GridSpec(dx=0.5, dt=0.125, half_width=4.0, t_final=1.0)
    total = 0
    for r in range(100):
        f = simulate_field(rough, seed=13, replica=r)
        assert np.all(f.values >= 0.0)
        total += f.clip_count
    assert total > 0


def test_estimate_validation():
    with pytest.raises(ValueError, match="replicas"):
        estimate_moment(GRID, (0.0,), replicas=50, seed=1)
    with pytest.raises(ValueError, match="inside"):
        estimate_moment(GRID, (5.0,), replicas=100, seed=1)
    with pytest.raises(ValueError, match="inside"):
        estimate_moment(GRID, (2.98,), replicas=100, seed=1)  # within dx of edge
    with pytest.raises(ValueError, match="domain too small"):
        # grid itself is fine, but a far-out point eats the 4-sigma margin
        estimate_moment(GRID, (1.0,), replicas=100, seed=1)
