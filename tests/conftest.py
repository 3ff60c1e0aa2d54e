from dataclasses import replace

import numpy as np
import pytest

from cqnls.dynamics import StepperConfig, Trajectory, evolve
from cqnls.functionals import chi, report
from cqnls.grid import RadialField, RadialGrid
from cqnls.variational import bubble, thresholds


@pytest.fixture(scope="session")
def grid64():
    return RadialGrid(64.0, 2**12 - 1)


@pytest.fixture(scope="session")
def grid128():
    return RadialGrid(128.0, 2**13 - 1)


@pytest.fixture(scope="session")
def grid_default():
    return RadialGrid(256.0, 2**14 - 1)


@pytest.fixture(scope="session")
def grid_bubble():
    """Fine grid for integrals of the slowly decaying bubble (r^-4 tails)."""
    return RadialGrid(4096.0, 2**16 - 1)


@pytest.fixture(scope="session")
def th1024():
    return thresholds(RadialGrid(1024.0, 2**16))


def gaussian(grid, amplitude=1.0, width=1.0):
    return RadialField(grid, amplitude * np.exp(-((grid.nodes / width) ** 2)).astype(complex))


def trajectory_head(traj, steps):
    """The first ``steps`` steps of traj: its times and series up to record
    ``steps`` and the snapshots taken by then.  A sponge-on evolve to
    steps * dt records exactly this head of a longer run, with its t_end."""
    times = traj.times[: steps + 1]
    snaps = traj.snapshot_times <= times[-1]
    return Trajectory(times=times, series={k: v[: steps + 1] for k, v in traj.series.items()},
                      stepper=replace(traj.stepper, t_end=float(times[-1])),
                      snapshots=[s for s, keep in zip(traj.snapshots, snaps) if keep],
                      snapshot_times=traj.snapshot_times[snaps])


def random_smooth_field(grid, rng, n_bumps=3, max_amp=1.0, chirp=True):
    r = grid.nodes
    vals = np.zeros(grid.n, dtype=complex)
    for _ in range(rng.integers(1, n_bumps + 1)):
        amp = rng.uniform(0.1, max_amp) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        width = rng.uniform(0.5, 4.0)
        vals += amp * np.exp(-((r / width) ** 2)) * (1 + rng.uniform(0, 2) * (r / width) ** 2)
    if chirp and rng.uniform() < 0.5:
        vals *= np.exp(1j * rng.uniform(-0.5, 0.5) * r**2)
    return RadialField(grid, vals)


def textbook_radial_derivative(grid, values):
    """radial_derivative with its interior stencil in the textbook term order,
    (-y[j+2] + 8 y[j+1] - 8 y[j-1] + y[j-2]) / (12 h): the reference that the
    accuracy guards hold the two-pass stencil and the dot-product quadrature to."""
    from cqnls.grid import radial_derivative

    y = np.asarray(values)
    d = radial_derivative(grid, y)  # the one-sided closures are unchanged
    d[2:-2] = (-y[4:] + 8 * y[3:-1] - 8 * y[1:-3] + y[:-4]) / (12 * grid.dr)
    return d


def random_chirped_field(grid, rng):
    """random_smooth_field with a chirp always on, so that Im(conj(u) du/dr) is not
    zero up to roundoff, as it is for a real profile times a constant phase."""
    u = random_smooth_field(grid, rng, chirp=False)
    return RadialField(grid, u.values * np.exp(1j * rng.uniform(0.1, 0.5) * grid.nodes**2))


def sample_below_threshold(grid: RadialGrid, rng: np.random.Generator, count: int,
                           ec_w: float) -> list[RadialField]:
    """Random radial H^1 fields with energy below the threshold.

    Mixes smooth multi-bump profiles (gradient-dominated, k > 0 side) with
    concentrated cutoff bubbles (sextic-dominated, k < 0 side) so both
    branches of the dichotomy are exercised.
    """
    fields = []
    r = grid.nodes
    while len(fields) < count:
        if rng.uniform() < 0.35:
            lam = rng.choice([4.0, 8.0, 16.0])
            a = rng.uniform(1.02, 1.8)
            vals = bubble(r, a, lam) * chi(r / rng.uniform(6.0, 12.0))
            u = RadialField(grid, vals.astype(complex))
        else:
            vals = np.zeros(grid.n, dtype=complex)
            for _ in range(rng.integers(1, 4)):
                amp = rng.uniform(0.05, 0.9) * np.exp(1j * rng.uniform(0, 2 * np.pi))
                width = rng.uniform(0.5, 4.0)
                vals += amp * np.exp(-((r / width) ** 2)) * (1 + rng.uniform(0, 2) * (r / width) ** 2)
            if rng.uniform() < 0.5:
                vals *= np.exp(1j * rng.uniform(-0.5, 0.5) * r**2)
            u = RadialField(grid, vals)
        rep = report(u)
        if rep.mass == 0:
            continue
        if rep.energy >= ec_w:
            # pull the amplitude down until the field sits below threshold
            for _ in range(40):
                u = RadialField(grid, 0.8 * u.values)
                if report(u).energy < ec_w:
                    break
            else:
                continue
        fields.append(u)
    return fields


@pytest.fixture(scope="session")
def kplus_run():
    """Amplitude-0.1 gaussian, dt = 1e-3, T = 10, sponge off (shared by several tests)."""
    grid = RadialGrid(128.0, 2**13 - 1)
    u0 = gaussian(grid, amplitude=0.1)
    cfg = StepperConfig(dt=1e-3, t_end=10.0, snapshot_stride=2000, sponge=False)
    traj, outcome = evolve(u0, cfg)
    return u0, cfg, traj, outcome
