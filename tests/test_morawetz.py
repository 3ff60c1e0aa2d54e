"""Morawetz weight, action, rate identity, and averaged local L^6 mass."""

import dataclasses

import numpy as np
import pytest

from cqnls.dynamics import StepperConfig, Trajectory, evolve
from cqnls.errors import ContractError
from cqnls.functionals import local_l6, report
from cqnls.grid import (FieldDerivative, RadialField, RadialGrid, integrate_ball,
                        radial_derivative)
from cqnls.morawetz import (
    _Q,
    _Q1,
    _Q2,
    _Q3,
    MorawetzWeight,
    _polyval,
    averaged_local_l6,
    identity_residual,
    morawetz_action,
    morawetz_rate,
    weight_build,
)

from conftest import (
    gaussian,
    random_chirped_field,
    random_smooth_field,
    textbook_radial_derivative,
    trajectory_head,
)


@pytest.fixture(scope="module")
def w8():
    return weight_build(8.0)


def test_weight_region_exactness(w8):
    rng = np.random.default_rng(30)
    R = w8.R
    r = np.concatenate([rng.uniform(0.01, R, 500), rng.uniform(2 * R, 5 * R, 500)])
    inner = r <= R
    a = w8.a(r)
    da = w8.delta_a(r)
    assert np.max(np.abs(a[inner] - r[inner] ** 2)) <= 1e-12
    assert np.max(np.abs(a[~inner] - 3 * R * r[~inner])) <= 1e-9  # values ~ 1e3
    assert np.max(np.abs(da[inner] - 6.0)) <= 1e-12
    assert np.max(np.abs(da[~inner] - 6 * R / r[~inner])) <= 1e-12


def test_weight_spot_values(w8):
    R = w8.R
    assert w8.a(np.array([R / 2]))[0] == pytest.approx(R**2 / 4, rel=1e-14)
    assert w8.delta_a(np.array([R / 2]))[0] == pytest.approx(6.0, rel=1e-14)
    assert w8.a(np.array([3 * R]))[0] == pytest.approx(9 * R**2, rel=1e-14)


def test_weight_junction_continuity(w8):
    R = w8.R
    eps = 1e-9
    for r0 in (R, 2 * R):
        lo, hi = np.array([r0 - eps]), np.array([r0 + eps])
        assert w8.a(lo)[0] == pytest.approx(w8.a(hi)[0], abs=1e-6)
        assert w8.a_r(lo)[0] == pytest.approx(w8.a_r(hi)[0], abs=1e-5)
        assert w8.a_rr(lo)[0] == pytest.approx(w8.a_rr(hi)[0], abs=1e-4)


def test_weight_monotone_and_tangential_sign(w8):
    r = np.linspace(1e-3, 5 * w8.R, 4001)
    # the Hessian's radial and tangential eigenvalues
    a_rr, tangential = w8.a_rr(r), w8.a_r(r) / r
    assert np.all(w8.a_r(r) >= -1e-12)
    assert np.all(tangential >= -1e-12)
    # radial convexity holds exactly on both closed-form regions; on the
    # transition annulus it necessarily fails (chord slope 5R vs end slope 3R)
    exact = (r <= w8.R) | (r > 2 * w8.R)
    assert np.all(a_rr[exact] >= -1e-12)
    assert -20 < np.min(a_rr[~exact]) < 0


def test_transition_patch_meets_both_branches_exactly():
    """q and its first three derivatives meet the ball's (R^2, 2R, 2, 0) at s = 0
    and the exterior's (6R^2, 3R, 0, 0) at s = 1, in units of R^(2-k); the integer
    coefficients make every value exact.  q' >= 0 on the annulus, its minimum 2 at s = 0."""
    for Qk, ball, exterior in zip((_Q, _Q1, _Q2, _Q3), (1, 2, 2, 0), (6, 3, 0, 0)):
        assert _polyval(0.0, Qk) == ball
        assert _polyval(1.0, Qk) == exterior
    assert np.all(_polyval(np.linspace(0.0, 1.0, 1001), _Q1) >= 0)


@pytest.mark.parametrize("build", [weight_build, MorawetzWeight])
@pytest.mark.parametrize("R", [-1.0, 0.0, np.nan, np.inf])
def test_weight_build_rejects_bad_radius(build, R):
    with pytest.raises(ContractError, match="weight radius must be positive and finite"):
        build(R)


def test_weight_radius_is_fixed(grid64):
    """The node cache is keyed by grid alone, so the weight's R cannot be reassigned."""
    w = MorawetzWeight(4.0)
    w.on_grid(grid64)
    with pytest.raises(dataclasses.FrozenInstanceError):
        w.R = 8.0


def test_action_real_field_vanishes(grid64, w8):
    u = gaussian(grid64)
    assert abs(morawetz_action(u, w8)) <= 1e-14


def test_action_outgoing_chirp_positive(grid64, w8):
    u = RadialField(grid64, np.exp(-grid64.nodes**2) * np.exp(1j * grid64.nodes**2))
    assert morawetz_action(u, w8) > 0


def test_action_bound(grid64, w8):
    rng = np.random.default_rng(31)
    max_ap = np.max(w8.a_r(np.linspace(0, 5 * w8.R, 20001)))
    for _ in range(20):
        u = random_smooth_field(grid64, rng)
        rep = report(u)
        m = abs(morawetz_action(u, w8))
        bound = np.sqrt(rep.mass * rep.kinetic)
        assert m <= 2 * max_ap * bound * (1 + 1e-9)  # Cauchy-Schwarz, any field
        assert m <= 6 * w8.R * bound  # sampled family stays well inside


def test_rate_inner_supported(grid64, w8):
    u = gaussian(grid64, amplitude=0.8, width=0.9)  # mass beyond R/2 ~ e^{-32}
    rep = report(u)
    main, err1, err2 = morawetz_rate(u, w8)
    assert abs(err1) <= 1e-10
    assert abs(err2) <= 1e-10
    assert main == pytest.approx(8 * (rep.kinetic - rep.l6 + 0.75 * rep.l4), rel=1e-6)
    assert main == pytest.approx(4 * rep.k, rel=1e-6)


def test_rate_zero(grid64, w8):
    z = RadialField(grid64, np.zeros(grid64.n))
    assert morawetz_rate(z, w8) == (0.0, 0.0, 0.0)


def test_rate_matches_raw_integrals(grid64, w8):
    """Independent formulation: unsplit integrals, bilaplacian by parts.

    int LapLap(a)|u|^2 dx = [4 pi r^2 (Delta a)' |u|^2] at 2R
                            - int (Delta a)'(r) (|u|^2)' 4 pi r^2 dr,
    with (Delta a)'(2R) = -3/(2R) from the outer branch.
    """
    from cqnls.grid import cubic_resample

    rng = np.random.default_rng(32)
    r = grid64.nodes
    for _ in range(5):
        u = random_smooth_field(grid64, rng)
        du = radial_derivative(grid64, u.values)
        a2 = np.abs(u.values) ** 2
        bilap = (
            4 * np.pi * (2 * w8.R) ** 2 * (-3.0 / (2 * w8.R))
            * abs(cubic_resample(u, np.array([2 * w8.R]))[0]) ** 2
            - integrate_ball(grid64, w8.delta_a_prime(r) * radial_derivative(grid64, a2)
                             * ((r > w8.R) & (r <= 2 * w8.R)))
        )
        raw = (
            4 * integrate_ball(grid64, w8.a_rr(r) * np.abs(du) ** 2)
            - bilap
            + integrate_ball(grid64, w8.delta_a(r) * a2**2)
            - (4.0 / 3.0) * integrate_ball(grid64, w8.delta_a(r) * a2**3)
        )
        main, err1, err2 = morawetz_rate(u, w8)
        assert main + err1 + err2 == pytest.approx(raw, rel=1e-8, abs=1e-10)


def test_rate_linear_identity_wide_field(w8):
    """d/dt M under the exact free flow matches the linear rate terms.

    Regression for the LapLap(a) junction jumps: wide fields straddling the
    annulus expose any mis-quadrature of the fourth-derivative term.
    """
    from cqnls.grid import free_propagate
    from cqnls.morawetz import morawetz_action

    grid = RadialGrid(128.0, 4095)
    u = RadialField(grid, 0.16 * np.exp(-((grid.nodes / 16.0) ** 2)).astype(complex))
    h = 1e-4
    fd = (morawetz_action(free_propagate(u, h), w8)
          - morawetz_action(free_propagate(u, -h), w8)) / (2 * h)
    rep = report(u)
    main, err1, err2 = morawetz_rate(u, w8)
    # subtract the nonlinear part: int Delta a (|u|^4 - 4/3 |u|^6)
    r = grid.nodes
    a2 = np.abs(u.values) ** 2
    nonlinear = integrate_ball(grid, w8.delta_a(r) * (a2**2 - (4.0 / 3.0) * a2**3))
    linear = main + err1 + err2 - nonlinear
    assert linear == pytest.approx(fd, rel=2e-3)


def _identity_run(dt, t_end=1.0):
    grid = RadialGrid(128.0, 2**12 - 1)
    u0 = gaussian(grid, amplitude=0.5)
    cfg = StepperConfig(dt=dt, t_end=t_end, snapshot_stride=10**9, morawetz_radius=8.0)
    traj, _ = evolve(u0, cfg)
    return traj


def test_identity_residual_small(w8):
    assert identity_residual(_identity_run(1e-3), w8) <= 1e-2


def test_identity_residual_refines_with_dt(w8):
    # second-order decay while time differencing dominates; the residual
    # bottoms out on a ~1e-6 spatial-quadrature floor
    coarse = identity_residual(_identity_run(3.2e-2, t_end=1.024), w8)
    fine = identity_residual(_identity_run(1.6e-2, t_end=1.024), w8)
    assert fine <= 0.6 * coarse


def test_identity_residual_zero_run(w8):
    grid = RadialGrid(128.0, 2**12 - 1)
    zero = RadialField(grid, np.zeros(grid.n))
    cfg = StepperConfig(dt=1e-3, t_end=0.01, snapshot_stride=10**9, morawetz_radius=8.0)
    traj, _ = evolve(zero, cfg)
    assert identity_residual(traj, w8) == 0.0


def test_identity_requires_matching_weight(w8):
    traj = _identity_run(1e-3, t_end=0.01)
    with pytest.raises(ContractError):
        identity_residual(traj, weight_build(4.0))


def _l6_series_trajectory(u, times, R):
    """A trajectory holding u at every time, with its l6_local series recorded at R."""
    return Trajectory(times=times, series={"l6_local": np.full(len(times), local_l6(u, R))},
                      stepper=StepperConfig(evacuation_radius=R),
                      snapshots=[u], snapshot_times=times[:1])


def test_averaged_local_l6_time_constant(grid64):
    u = gaussian(grid64)
    traj = _l6_series_trajectory(u, np.linspace(0.0, 3.0, 7), 5.0)
    assert averaged_local_l6(traj, 5.0) == pytest.approx(local_l6(u, 5.0), rel=1e-12)


def test_averaged_local_l6_zero(grid64):
    z = RadialField(grid64, np.zeros(grid64.n))
    traj = _l6_series_trajectory(z, np.linspace(0.0, 1.0, 5), 5.0)
    assert averaged_local_l6(traj, 5.0) == 0.0


def test_averaged_l6_shell_constants_stable():
    """avg <= (C1 R + C2 T/R^2)/T with fitted constants stable across a family.

    The family holds the H^1 norm and the width scale fixed and varies the
    shape; phase-chirped data shift the constants by ~3x (they depend on the
    solution, not only on its size), so the stability claim is checked on
    real-valued packets.
    """
    grid = RadialGrid(128.0, 2047)
    r = grid.nodes

    def h1_rescale(vals, target=2.0):
        u = RadialField(grid, vals.astype(complex))
        rep = report(u)
        return RadialField(grid, u.values * (target / np.sqrt(rep.mass + rep.kinetic)))

    base = 0.6 * np.exp(-((r / 1.5) ** 2))
    family = [
        h1_rescale(base),
        h1_rescale(base * (1 + 0.2 * np.exp(-(((r - 2.5) / 1.0) ** 2)))),
        h1_rescale(base * (1 + 0.3 * (r / 1.5) ** 2 * np.exp(-((r / 1.5) ** 2)))),
    ]
    fits = []
    for u0 in family:
        # one run to T = 32 per radius; the T = 16 run is its head
        # (test_evolve_sponge_run_is_head_of_longer_run)
        runs = {R: evolve(u0, StepperConfig(dt=4e-3, t_end=32.0, snapshot_stride=10**9,
                                            sponge=True, evacuation_radius=R))[0]
                for R in (3.0, 5.0, 8.0)}
        rows = [(T, R, averaged_local_l6(trajectory_head(runs[R], round(T / 4e-3)), R))
                for T in (16.0, 32.0) for R in (3.0, 5.0, 8.0)]
        A = np.array([[R, T / R**2] for T, R, _ in rows])
        b = np.array([avg * T for T, _, avg in rows])
        C, *_ = np.linalg.lstsq(A, b, rcond=None)
        fits.append(C)
        for (T, R, avg), pred in zip(rows, A @ C):
            assert avg * T <= 1.5 * pred  # the fitted shell really bounds the data
    for cs in zip(*fits):
        mean = np.mean(cs)
        assert all(abs(c - mean) <= 0.5 * abs(mean) for c in cs), cs


def test_averaged_local_l6_from_series(grid64):
    u0 = gaussian(grid64, amplitude=0.4)
    cfg = StepperConfig(dt=1e-3, t_end=0.5, snapshot_stride=10**9,
                        evacuation_radius=6.0)
    traj, _ = evolve(u0, cfg)
    series = traj.series["l6_local"]
    assert series[0] == local_l6(u0, 6.0) > 0
    T = traj.times[-1] - traj.times[0]
    assert averaged_local_l6(traj, 6.0) == np.trapezoid(series, traj.times) / T


def test_averaged_local_l6_refuses_other_radius(grid64):
    u0 = gaussian(grid64, amplitude=0.4)
    cfg = StepperConfig(dt=1e-3, t_end=0.01, snapshot_stride=10**9, evacuation_radius=6.0)
    traj, _ = evolve(u0, cfg)
    for R in (5.0, 5.999, 10.0):
        with pytest.raises(ContractError):
            averaged_local_l6(traj, R)


def _rate_by_masks(u, w):
    """dM/dt groups from the array evaluators, region masks rebuilt per call.

    Each integral is a dot product of quadrature weight times weight factor
    with a pointwise array, one per region, as morawetz_rate takes them.
    """
    from cqnls.grid import cubic_resample

    grid, r, q = u.grid, u.grid.nodes, u.grid.weights
    inner, mid, outer = r <= w.R, (r > w.R) & (r <= 2 * w.R), r > 2 * w.R
    du = radial_derivative(grid, u.values)
    a2 = np.abs(u.values) ** 2
    kin = np.abs(du) ** 2
    pot = a2 * a2 - (4.0 / 3.0) * (a2 * a2 * a2)
    w_kin, w_pot = q * (4.0 * w.a_rr(r)), q * w.delta_a(r)
    da2 = radial_derivative(grid, a2)
    smooth = float((q * w.delta_a_prime(r))[mid] @ da2[mid])
    u_edge = cubic_resample(u, np.array([2.0 * w.R]))[0]
    bilap = 24.0 * np.pi * w.R * float(np.abs(u_edge) ** 2) + smooth
    return (float(w_kin[inner] @ kin[inner] + w_pot[inner] @ pot[inner]),
            float(w_pot[outer] @ pot[outer]),
            float(w_kin[mid] @ kin[mid] + w_pot[mid] @ pot[mid]) + bilap)


@pytest.mark.parametrize("R", [0.3, 5.0, 9.9])
def test_weight_nodes_match_branch_formulas(R):
    """The weight and its node vectors are, byte for byte, its three branches written
    out: r^2 on the ball, R^2 q((r - R)/R) on the annulus and 3Rr outside, with q the
    patch of the module docstring.  R = 9.9 leaves the 16-wide grid no exterior."""
    polyval = np.polynomial.polynomial.polyval
    grid = RadialGrid(16.0, 255)
    r, q = grid.nodes, grid.weights
    s = (r - R) / R
    ball, outside = r <= R, r > 2 * R

    def branches(inner, mid, outer):
        return np.where(ball, inner, np.where(outside, outer, mid))

    a = branches(r**2, R**2 * polyval(s, [1, 2, 1, 0, 80, -193, 161, -46]), 3 * R * r)
    a_r = branches(2 * r, R * polyval(s, [2, 2, 0, 320, -965, 966, -322]), 3 * R)
    a_rr = branches(2.0, polyval(s, [2, 0, 960, -3860, 4830, -1932]), 0.0)
    a_rrr = branches(0.0, polyval(s, [0, 1920, -11580, 19320, -9660]) / R, 0.0)
    delta_a = a_rr + 2.0 * a_r / r
    delta_a_prime = a_rrr + 2.0 * a_rr / r - 2.0 * a_r / r**2
    w = weight_build(R)
    assert w.a(r).tobytes() == a.tobytes()
    nodes = w.on_grid(grid)
    lo, hi = nodes.lo, nodes.hi
    assert (lo, hi) == (np.count_nonzero(ball), grid.n - np.count_nonzero(outside))
    assert nodes.weighted_a_r2.tobytes() == (q * (2.0 * a_r)).tobytes()
    assert nodes.weighted_a_rr4.tobytes() == (q[:hi] * (4.0 * a_rr[:hi])).tobytes()
    assert nodes.weighted_delta_a.tobytes() == (q * delta_a).tobytes()
    assert nodes.weighted_delta_a_prime.tobytes() == (q[lo:hi] * delta_a_prime[lo:hi]).tobytes()


@pytest.mark.parametrize("R_in_dr", [0.3, 0.45, 0.6, 1.0, 1.5, 2.2, 30.0, 63.7, 64.0, 100.0])
def test_cached_nodes_match_array_evaluators(R_in_dr):
    """The per-grid node vectors give exactly the per-call evaluator numbers.

    Covers an empty annulus (R < dr/2), annuli of one or two nodes at r = 0,
    an annulus ending at r_max and a weight wider than the grid.
    """
    grid = RadialGrid(16.0, 127)
    w = weight_build(R_in_dr * grid.dr)
    rng = np.random.default_rng(40)
    r = grid.nodes
    for _ in range(3):
        u = RadialField(grid, rng.uniform(0.2, 1.0) * np.exp(-((r / rng.uniform(0.3, 6.0)) ** 2))
                        * np.exp(1j * rng.uniform(-1, 1) * r))
        du = radial_derivative(grid, u.values)
        action = (grid.weights * (2.0 * w.a_r(r))) @ np.imag(np.conj(u.values) * du)
        for state in (u, FieldDerivative.of(u)):
            assert morawetz_action(state, w) == action
            assert morawetz_rate(state, w) == _rate_by_masks(u, w)


def _full_grid_sums(u, w):
    """M and the dM/dt groups as np.sum(w * f) over region masks on the textbook
    stencil, each as (value, sum of |w * f| over its terms)."""
    from cqnls.grid import cubic_resample

    grid, r, q = u.grid, u.grid.nodes, u.grid.weights
    inner, mid, outer = r <= w.R, (r > w.R) & (r <= 2 * w.R), r > 2 * w.R
    du = textbook_radial_derivative(grid, u.values)
    a2 = np.abs(u.values) ** 2
    action = 2.0 * q * (np.imag(np.conj(u.values) * du) * w.a_r(r))
    dens = q * (4.0 * w.a_rr(r) * np.abs(du) ** 2
                + w.delta_a(r) * (a2**2 - (4.0 / 3.0) * (a2 * a2 * a2)))
    smooth = q[mid] * w.delta_a_prime(r[mid]) * textbook_radial_derivative(grid, a2)[mid]
    edge = 24.0 * np.pi * w.R * float(np.abs(cubic_resample(u, np.array([2.0 * w.R]))[0]) ** 2)
    return ((np.sum(action), np.sum(np.abs(action))),
            (np.sum(dens[inner]), np.sum(np.abs(dens[inner]))),
            (np.sum(dens[outer]), np.sum(np.abs(dens[outer]))),
            (np.sum(dens[mid]) + (edge + np.sum(smooth)),
             np.sum(np.abs(dens[mid])) + edge + np.sum(np.abs(smooth))))


@pytest.mark.parametrize("r_max, n", [(16.0, 255), (64.0, 4095)])
def test_morawetz_dots_match_full_grid_sums(r_max, n):
    """morawetz_action and morawetz_rate, dot products on the two-pass stencil, agree
    with the np.sum(w * f) formulas on the textbook stencil to 1e-13 of the sum of
    |w * f|.  The integrands change sign, and a random field's ball group can cancel
    to a thirtieth of that sum, so the integral itself is not the scale.  The fields are
    chirped: for a real profile the current, and with it M, is zero up to roundoff."""
    grid = RadialGrid(r_max, n)
    rng = np.random.default_rng(n + 2)
    for R in (1.0, 3.7, r_max / 4):
        w = weight_build(R)
        for _ in range(4):
            u = random_chirped_field(grid, rng)
            got = (morawetz_action(u, w),) + morawetz_rate(u, w)
            for value, (want, scale) in zip(got, _full_grid_sums(u, w)):
                assert abs(value - want) <= 1e-13 * scale


def test_cubic_point_matches_cubic_resample():
    from cqnls.grid import CubicPoint, cubic_resample

    grid = RadialGrid(16.0, 127)
    u = random_smooth_field(grid, np.random.default_rng(41))
    for radius in (0.3 * grid.dr, grid.dr, 2.5 * grid.dr, 7.77, 16.0 - 0.5 * grid.dr,
                   16.0, 17.0):
        want = cubic_resample(u, np.array([radius]))[0]
        assert CubicPoint.at(grid, radius)(u.values) == want


@pytest.mark.parametrize("seed,R", [(50, 8.0), (51, 5.0), (52, 0.01)])
def test_evolve_series_match_public_functions(seed, R):
    """The stepper's recorded Morawetz series equal the public functions on its snapshots.

    R = 0.01 < dr leaves the transition annulus without nodes; the evacuation ball
    must hold a node, so its radius is at least dr.
    """
    grid = RadialGrid(32.0, 511)
    assert not np.any((grid.nodes > 0.01) & (grid.nodes <= 0.02))
    u0 = random_smooth_field(grid, np.random.default_rng(seed))
    cfg = StepperConfig(dt=1e-3, t_end=0.01, snapshot_stride=1, morawetz_radius=R,
                        flux_radius=R, evacuation_radius=max(R, grid.dr))
    traj, _ = evolve(u0, cfg)
    w = weight_build(R)
    assert len(traj.snapshots) == len(traj.times)
    for i, snap in enumerate(traj.snapshots):
        main, err1, err2 = morawetz_rate(snap, w)
        assert traj.series["morawetz_m"][i] == morawetz_action(snap, w)
        assert (traj.series["morawetz_main"][i], traj.series["morawetz_err1"][i],
                traj.series["morawetz_err2"][i]) == (main, err1, err2)
        assert (main, err1, err2) == _rate_by_masks(snap, w)
