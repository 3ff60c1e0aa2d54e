"""Strang stepping, conservation, outcomes, and the local flux identity."""

import resource
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqnls.dynamics import (
    BLEW_UP,
    SCATTERED,
    UNDECIDED,
    StepperConfig,
    Trajectory,
    evolve,
    judge,
    _phase_factor,
    flux_identity_residual,
    strang_step,
)
from cqnls.errors import ContractError
from cqnls.functionals import GROUND_STATE_KINETIC, chi, chi_derivatives, local_l6, report
from cqnls.grid import RadialField, RadialGrid, SpectralPlan, free_propagate, radial_derivative

from cqnls.morawetz import identity_residual, weight_build

from conftest import (
    gaussian,
    random_chirped_field,
    random_smooth_field,
    textbook_radial_derivative,
)


def test_nonlinear_phase_fixed_modulus_one(grid64):
    vals = np.full(grid64.n, 0.5, dtype=complex)
    vals[10] = 1.0  # |u|^2 - |u|^4 vanishes at unit modulus
    out = vals * _phase_factor(vals, 0.37)
    assert out[10] == pytest.approx(1.0, abs=1e-15)


def test_nonlinear_phase_zero(grid64):
    vals = np.zeros(grid64.n, dtype=complex)
    out = vals * _phase_factor(vals, 0.1)
    assert np.all(out == 0)


def test_nonlinear_phase_explicit_value(grid64):
    vals = np.zeros(grid64.n, dtype=complex)
    vals[5] = 2.0
    out = vals * _phase_factor(vals, 0.1)
    # phase -dt (|u|^2 - |u|^4) = -0.1 (4 - 16) = +1.2 radians, modulus kept
    assert out[5] == pytest.approx(2.0 * np.exp(1.2j), rel=1e-14)


@pytest.mark.parametrize("t", [2.5e-5, 1e-3, 0.05, 0.37])
def test_phase_factor_is_the_complex_exp_bitwise(t):
    """cos and sin of the real phase, written into the factor, are the bytes of the
    complex exp: on exact and signed zeros, where |v|^2 is subnormal, at |v| = 1,
    for phases on both sides of the bound below which no libm call is made, and up
    to |v| = 30.  A platform whose sin/cos differ from its complex exp fails here."""
    rng = np.random.default_rng(5)
    # |v|^2 - |v|^4 = 2^-27 / t puts the phase at the bound
    at_bound = np.sqrt(2.0**-27 / t) * np.array([1 - 1e-15, 1.0, 1 + 1e-15, 1 + 1e-12])
    v = np.concatenate([
        [0.0, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 1.0, -1.0, 1j],
        1e-160 * (rng.standard_normal(64) + 1j * rng.standard_normal(64)),
        np.exp(2j * np.pi * rng.random(64)),  # |v| = 1 up to rounding
        at_bound, -at_bound,
        10.0 ** rng.uniform(-12.0, 0.0, 4096),
        rng.uniform(0.0, 30.0, 4096) * np.exp(2j * np.pi * rng.random(4096)),
    ])
    a2 = np.abs(v) ** 2
    assert _phase_factor(v, t).tobytes() == np.exp(-1j * t * (a2 - a2 * a2)).tobytes()


def test_complex_nodes_multiply_and_divide_as_the_real_nodes():
    """The step's products and quotients with the complex nodes are bitwise those
    with the real nodes, signed zeros included."""
    grid = RadialGrid(16.0, 255)
    r = SpectralPlan.for_grid(grid).complex_nodes
    rng = np.random.default_rng(3)
    z = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    z[::7] = complex(-0.0, 0.0)
    z[1::7] = complex(0.0, -0.0)
    z[2::7] = complex(-0.0, -0.0)
    z[3::7] = 0.0
    assert r.dtype == np.complex128 and r.real.tobytes() == grid.nodes.tobytes()
    assert (r * z).tobytes() == (grid.nodes * z).tobytes()
    assert (z / r).tobytes() == (z / grid.nodes).tobytes()


@settings(max_examples=25, deadline=None)
@given(dt=st.floats(1e-5, 0.5), amp=st.floats(0.1, 3.0))
def test_nonlinear_phase_preserves_modulus(dt, amp):
    g = RadialGrid(16.0, 255)
    u = RadialField(g, amp * np.exp(-g.nodes**2) * np.exp(0.3j * g.nodes**2))
    out = u.values * _phase_factor(u.values, dt)
    assert np.max(np.abs(np.abs(out) - np.abs(u.values))) <= 1e-15 * amp


def test_strang_linear_regime(grid64):
    u = RadialField(grid64, 1e-6 * np.exp(-grid64.nodes**2).astype(complex))
    dt = 1e-3
    split = strang_step(u, dt)
    free = free_propagate(u, dt)
    assert np.max(np.abs(split.values - free.values)) <= 1e-12 * np.max(np.abs(u.values))


def test_strang_self_convergence_order():
    g = RadialGrid(64.0, 2**12 - 1)
    u0 = gaussian(g)

    def run(dt):
        u = u0
        for _ in range(round(1.0 / dt)):
            u = strang_step(u, dt)
        return u.values

    ref = run(1 / 1024)
    errs = [np.max(np.abs(run(dt) - ref)) for dt in (1 / 32, 1 / 64)]
    order = np.log2(errs[0] / errs[1])
    assert 1.8 <= order <= 2.2


def test_time_reversal(grid64):
    rng = np.random.default_rng(20)
    u = random_smooth_field(grid64, rng)
    fwd = strang_step(u, 2e-3)
    back = np.conj(strang_step(RadialField(grid64, np.conj(fwd.values)), 2e-3).values)
    assert np.max(np.abs(back - u.values)) <= 1e-10


def test_conservation_short_run(kplus_run):
    _, cfg, traj, _ = kplus_run
    T = traj.times[-1]
    mass = traj.series["mass"]
    energy = traj.series["energy"]
    assert np.max(np.abs(mass - mass[0])) / mass[0] / T <= 1e-10
    assert np.max(np.abs(energy - energy[0])) / abs(energy[0]) / T <= 1e-6


def test_kinetic_ceiling_kplus(kplus_run):
    # coercivity: the kinetic norm of below-threshold data never reaches the
    # bubble's kinetic norm
    _, _, traj, _ = kplus_run
    y = traj.series["kinetic"] / GROUND_STATE_KINETIC
    assert np.max(y) < 1.0


def test_determinism(grid64):
    u = gaussian(grid64, amplitude=0.3)
    cfg = StepperConfig(dt=1e-3, t_end=0.1, snapshot_stride=100)
    t1, o1 = evolve(u, cfg)
    t2, o2 = evolve(u, cfg)
    for key in t1.series:
        assert np.array_equal(t1.series[key], t2.series[key])
    assert np.array_equal(t1.snapshots[-1].values, t2.snapshots[-1].values)
    assert o1.tag == o2.tag


def test_steps_do_not_refault_memory(grid_default):
    """With freed memory kept in the process, a warmed-up 16383-node run takes
    fewer minor page faults than steps (glibc's defaults take ~450 per step)."""
    import cqnls.grid

    if not cqnls.grid._FREED_MEMORY_KEPT:
        pytest.skip("the allocator has no mallopt")
    u0 = gaussian(grid_default, amplitude=0.5, width=2.0)
    cfg = StepperConfig(dt=1e-3, t_end=0.05, snapshot_stride=10**9)
    evolve(u0, cfg)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    traj, _ = evolve(u0, cfg)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    steps = len(traj.times) - 1
    assert steps == 50
    assert faults < steps


def test_evolve_zero_data(grid64):
    zero = RadialField(grid64, np.zeros(grid64.n))
    cfg = StepperConfig(dt=1e-2, t_end=1.0, snapshot_stride=10)
    traj, outcome = evolve(zero, cfg)
    assert outcome.tag == UNDECIDED
    assert len(traj.times) == 101
    for key in ("mass", "energy", "kinetic", "l6_local"):
        assert np.all(traj.series[key] == 0.0)


def test_evolve_scattering():
    grid = RadialGrid(128.0, 2**12 - 1)
    u0 = gaussian(grid, amplitude=0.1)
    cfg = StepperConfig(dt=2e-3, t_end=60.0, snapshot_stride=10**9, sponge=True,
                        evacuation_radius=10.0, evacuation_epsilon=0.3)
    traj, outcome = evolve(u0, cfg)
    assert outcome.tag == SCATTERED
    assert outcome.evidence["min_local_l6"] <= 0.3**6
    y = traj.series["kinetic"] / GROUND_STATE_KINETIC
    assert np.max(y) < 1.0


def test_evolve_blowup():
    import cqnls.dynamics as dyn
    from cqnls.config import InitialData
    from cqnls.experiments import build_initial, find_kminus_amplitude
    from cqnls.variational import classify

    grid = RadialGrid(64.0, 2**14 - 1)
    a = find_kminus_amplitude(grid)
    u0 = build_initial(grid, InitialData(family="bubble", amplitude=a, scale=16.0, cutoff=10.0))
    assert classify(u0).tag == "KMinus"
    cfg = StepperConfig(dt=5e-5, t_end=10.0, snapshot_stride=10**9)
    traj, outcome = evolve(u0, cfg)
    assert outcome.tag == BLEW_UP
    assert outcome.t_event is not None and outcome.t_event < 10.0
    assert outcome.evidence["max_kinetic_ratio"] >= dyn._BLOWUP_GRADIENT_FACTOR
    assert outcome.evidence["trigger_kinetic_ratio"] >= dyn._BLOWUP_GRADIENT_FACTOR
    assert outcome.evidence["tail_fraction"] > 0.1


def test_trajectory_series_length(grid64):
    u = gaussian(grid64, amplitude=0.2)
    cfg = StepperConfig(dt=1e-3, t_end=0.05, snapshot_stride=10)
    traj, _ = evolve(u, cfg)
    n_steps = round(0.05 / 1e-3)
    assert len(traj.times) == n_steps + 1
    assert traj.times[0] == 0.0
    assert np.all(np.diff(traj.times) > 0)
    for arr in traj.series.values():
        assert len(arr) == n_steps + 1


def test_flux_identity_zero(grid64):
    zero = RadialField(grid64, np.zeros(grid64.n))
    cfg = StepperConfig(dt=1e-3, t_end=0.01, snapshot_stride=10**9, flux_radius=8.0)
    traj, _ = evolve(zero, cfg)
    assert flux_identity_residual(traj, 8.0) == 0.0


def test_flux_identity_nonlinear_run(grid64):
    u0 = gaussian(grid64, amplitude=0.5)
    cfg = StepperConfig(dt=1e-3, t_end=2.0, snapshot_stride=10**9, flux_radius=8.0)
    traj, _ = evolve(u0, cfg)
    assert flux_identity_residual(traj, 8.0) <= 1e-2


def test_flux_identity_radius_mismatch(grid64):
    u0 = gaussian(grid64, amplitude=0.5)
    cfg = StepperConfig(dt=1e-3, t_end=0.01, snapshot_stride=10**9, flux_radius=8.0)
    traj, _ = evolve(u0, cfg)
    with pytest.raises(ContractError):
        flux_identity_residual(traj, 4.0)


def test_nonfinite_state_aborts_undecided(grid64, monkeypatch):
    """A NaN appearing mid-run aborts; without a gradient trigger the tag is Undecided."""
    import cqnls.dynamics as dyn

    real_factor = dyn._phase_factor
    count = {"n": 0}

    def poisoned(v, t):
        count["n"] += 1
        out = real_factor(v, t)
        if count["n"] == 6:  # call 1 opens step 1, call k + 1 closes step k
            out = out.copy()
            out[0] = np.nan
        return out

    monkeypatch.setattr(dyn, "_phase_factor", poisoned)
    u0 = gaussian(grid64, amplitude=0.3)
    cfg = StepperConfig(dt=1e-3, t_end=0.02, snapshot_stride=10**9)
    traj, outcome = evolve(u0, cfg)
    assert outcome.tag == UNDECIDED
    assert outcome.evidence.get("aborted_nonfinite")
    assert len(traj.times) == 5  # recorded through the last finite step
    assert np.all(np.isfinite(traj.series["mass"]))


def test_overflowing_finite_state_is_kept(grid64, monkeypatch):
    """Finite entries whose |u|^2 overflows make the recorded mass infinite but not the
    state: that step is kept, and the run aborts one step later, when the state is
    non-finite.  The gradient trigger fired on the kept step, so the tag is BlewUp."""
    import cqnls.dynamics as dyn

    real_factor = dyn._phase_factor
    count = {"n": 0}

    def poisoned(v, t):
        count["n"] += 1
        out = real_factor(v, t)
        if count["n"] == 6:  # closes step 5
            out = out.copy()
            out[0] = 1e160
        return out

    monkeypatch.setattr(dyn, "_phase_factor", poisoned)
    u0 = gaussian(grid64, amplitude=0.3)
    cfg = StepperConfig(dt=1e-3, t_end=0.02, snapshot_stride=10**9)
    with np.errstate(over="ignore", invalid="ignore"):
        traj, outcome = evolve(u0, cfg)
    assert len(traj.times) == 6  # step 5 kept, step 6 non-finite
    assert np.all(np.isfinite(traj.series["mass"][:5])) and traj.series["mass"][5] == np.inf
    assert outcome.tag == BLEW_UP and outcome.t_event == traj.times[-1]
    assert outcome.evidence["aborted_nonfinite"] and outcome.evidence["gradient_fired"]


def test_evacuation_ball_without_nodes_is_refused():
    """A ball of radius below dr holds no node, so l6_local would read 0 and every run
    Scattered; evolve refuses it.  A radius of exactly dr holds the first node."""
    grid = RadialGrid(32.0, 511)
    u0 = gaussian(grid, 1.0)
    for radius in (0.01, 0.999 * grid.dr):
        with pytest.raises(ContractError, match="evacuation_radius"):
            evolve(u0, StepperConfig(dt=1e-3, t_end=2e-3, evacuation_radius=radius))
    traj, _ = evolve(u0, StepperConfig(dt=1e-3, t_end=2e-3, evacuation_radius=grid.dr))
    a2 = np.abs(u0.values[0]) ** 2
    assert traj.series["l6_local"][0] == grid.weights[0] * (a2 * a2 * a2) > 0


def test_stepper_config_validation():
    with pytest.raises(ContractError):
        StepperConfig(dt=-1.0)
    with pytest.raises(ContractError):
        StepperConfig(dt=1.0, t_end=0.5)
    with pytest.raises(ContractError):
        StepperConfig(evacuation_epsilon=1.5)


_BAD_FLOATS = st.one_of(st.floats(max_value=0.0), st.sampled_from([np.inf, -np.inf, np.nan]))
_RADIUS_FIELDS = ("morawetz_radius", "flux_radius", "evacuation_radius")


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(_RADIUS_FIELDS + ("dt", "t_end")), bad=_BAD_FLOATS)
def test_stepper_config_rejects_nonpositive_or_nonfinite(name, bad):
    """Zero, negative and non-finite values are refused; only None disables a diagnostic."""
    with pytest.raises(ContractError):
        StepperConfig(**{name: bad})


@settings(max_examples=40, deadline=None)
@given(morawetz=st.none() | st.floats(1e-3, 1e3), flux=st.none() | st.floats(1e-3, 1e3),
       evac=st.floats(1e-3, 1e3), dt=st.floats(1e-6, 1.0), steps=st.integers(1, 10**4))
def test_valid_stepper_config_round_trips(morawetz, flux, evac, dt, steps):
    from cqnls.config import ExperimentConfig, from_dict

    t_end = dt * steps
    cfg = ExperimentConfig(stepper=StepperConfig(dt=dt, t_end=t_end, morawetz_radius=morawetz,
                                                 flux_radius=flux, evacuation_radius=evac))
    assert from_dict(cfg.to_dict()) == cfg


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(_RADIUS_FIELDS), factor=st.floats(0.05, 3.0))
def test_evolve_rejects_radius_beyond_domain(name, factor):
    """A radius beyond r_max is refused before stepping; one within runs and is recorded."""
    grid = RadialGrid(16.0, 63)
    radius = factor * grid.r_max
    cfg = StepperConfig(dt=1e-3, t_end=2e-3, **{"evacuation_radius": 1.0, name: radius})
    if radius > grid.r_max:
        with pytest.raises(ContractError):
            evolve(gaussian(grid, amplitude=0.3), cfg)
    else:
        traj, _ = evolve(gaussian(grid, amplitude=0.3), cfg)
        assert traj.stepper is cfg and getattr(traj.stepper, name) == radius


def test_gradient_trigger_records_detector_quantities(grid64, monkeypatch):
    """An unconfirmed gradient trigger leaves its kinetic ratio and spectral tail in evidence."""
    import cqnls.dynamics as dyn

    monkeypatch.setattr(dyn, "_BLOWUP_GRADIENT_FACTOR", 1.005)
    u0 = RadialField(grid64, 1.5 * np.exp(-grid64.nodes**2 - 0.5j * grid64.nodes**2))
    cfg = StepperConfig(dt=1e-3, t_end=0.02, snapshot_stride=10**9)
    traj, outcome = evolve(u0, cfg)
    ev = outcome.evidence
    assert ev["gradient_fired"] and outcome.tag != BLEW_UP
    assert ev["trigger_kinetic_ratio"] >= 1.005
    assert ev["trigger_kinetic_ratio"] <= ev["max_kinetic_ratio"]
    assert 0.0 <= ev["tail_fraction"] <= 0.1


def test_no_gradient_trigger_no_detector_quantities(grid64):
    cfg = StepperConfig(dt=1e-3, t_end=0.02, snapshot_stride=10**9)
    _, outcome = evolve(gaussian(grid64, amplitude=0.3), cfg)
    assert not outcome.evidence["gradient_fired"]
    assert "tail_fraction" not in outcome.evidence


def test_stepper_config_rejects_fractional_step_count():
    """dt = 0.3 does not divide t_end = 1.0: refused rather than stopped at t = 0.9."""
    with pytest.raises(ContractError, match="whole number of steps"):
        StepperConfig(dt=0.3, t_end=1.0)
    traj, _ = evolve(gaussian(RadialGrid(16.0, 63), 0.3), StepperConfig(dt=0.1, t_end=0.3))
    assert len(traj.times) == 4 and traj.times[-1] == pytest.approx(0.3, rel=1e-15)


@settings(max_examples=60, deadline=None)
@given(dt=st.floats(1e-4, 1.0), steps=st.integers(1, 10**4), frac=st.floats(1e-3, 0.999))
def test_stepper_config_rejects_partial_last_step(dt, steps, frac):
    with pytest.raises(ContractError, match="whole number of steps"):
        StepperConfig(dt=dt, t_end=dt * (steps + frac))


@settings(max_examples=60, deadline=None)
@given(dt=st.floats(1e-6, 1.0), steps=st.integers(1, 10**6))
def test_stepper_config_accepts_whole_step_counts(dt, steps):
    cfg = StepperConfig(dt=dt, t_end=dt * steps)
    # steps is a property, so asdict, and with it the config hash, leaves it out
    assert round(cfg.t_end / dt) == steps == cfg.steps and "steps" not in asdict(cfg)


def _phase_factor_ref(v, t):
    a2 = np.abs(v) ** 2
    return np.exp(-1j * t * (a2 - a2 * a2))


def _ref_step(v, q, r, free, dt, damp=None):
    """Reference Strang step written out on scipy's DST-I, each complex transform
    being scipy's two real ones: half-phase q, free flow, damping, and the closing
    half-phase, whose factor is returned to open the next step."""
    from scipy.fft import dst, idst

    y = idst(free * dst(r * (v * q), type=1), type=1) / r
    if damp is not None:
        y = y * damp
    q = _phase_factor_ref(y, 0.5 * dt)
    return y * q, q


def _chirped(grid, amplitude=1.0, chirp=0.2):
    r = grid.nodes
    return RadialField(grid, amplitude * np.exp(-(r**2) + 1j * chirp * r**2))


@pytest.mark.parametrize("dt", [1e-3, 0.05])
def test_strang_step_matches_old_formula_bitwise(dt):
    # below 16384 nodes, where numpy reuses no temporary in place (see grid._sine_transform)
    grid = RadialGrid(32.0, 255)
    u = _chirped(grid, 1.3)
    free = np.exp(-1j * SpectralPlan.for_grid(grid).eigenvalues * dt)
    expected, _ = _ref_step(u.values, _phase_factor_ref(u.values, 0.5 * dt), grid.nodes,
                            free, dt)
    assert strang_step(u, dt).values.tobytes() == expected.tobytes()


def test_sponge_evolve_matches_old_formula_bitwise():
    """The sponge damps the state after the free flow and before the closing half-phase,
    whose factor, carried into the next step, is then exact for the damped modulus."""
    import cqnls.dynamics as dyn

    grid = RadialGrid(32.0, 255)
    cfg = StepperConfig(dt=2e-3, t_end=0.1, snapshot_stride=1, sponge=True)
    traj, _ = evolve(_chirped(grid, 1.3), cfg)
    free = np.exp(-1j * SpectralPlan.for_grid(grid).eigenvalues * cfg.dt)
    sponge = np.exp(-cfg.dt * dyn._sponge_profile(grid))
    v = _chirped(grid, 1.3).values
    q = _phase_factor_ref(v, 0.5 * cfg.dt)
    ball = grid.nodes <= cfg.evacuation_radius
    assert len(traj.snapshots) == 51
    for k, snap in enumerate(traj.snapshots):
        if k:
            v, q = _ref_step(v, q, grid.nodes, free, cfg.dt, sponge)
        assert snap.values.tobytes() == v.tobytes()
        assert traj.series["mass"][k] == grid.weights @ (np.abs(v) ** 2)
        a2 = (np.abs(v) ** 2)[ball]
        assert traj.series["l6_local"][k] == grid.weights[ball] @ (a2 * a2 * a2)


def test_evolve_sponge_run_is_head_of_longer_run():
    """A sponge-on run to T is bitwise the head of the run to 2T: no step depends on
    the time or on t_end, which lets a T-scaling study slice one long run."""
    grid = RadialGrid(32.0, 255)
    u0 = _chirped(grid, 1.3)
    cfg = StepperConfig(dt=4e-3, t_end=0.4, snapshot_stride=100, sponge=True,
                        evacuation_radius=3.0, morawetz_radius=4.0, flux_radius=5.0)
    short, _ = evolve(u0, cfg)
    long, _ = evolve(u0, replace(cfg, t_end=0.8))
    n = len(short.times)
    assert n == 101 and len(long.times) == 201
    assert short.times.tobytes() == long.times[:n].tobytes()
    assert short.series.keys() == long.series.keys()
    for name, values in short.series.items():
        assert values.tobytes() == long.series[name][:n].tobytes(), name
    assert short.snapshot_times.tolist() == [0.0, short.times[-1]] == long.snapshot_times[:2].tolist()
    assert short.snapshots[-1].values.tobytes() == long.snapshots[1].values.tobytes()


def test_sponge_free_evolve_matches_strang_steps(grid64):
    """Carrying the half-step factor into the next step, instead of taking it from the
    recorded state, changes roundoff only."""
    u0 = _chirped(grid64, 1.2)
    cfg = StepperConfig(dt=1e-3, t_end=0.2, snapshot_stride=20)
    traj, _ = evolve(u0, cfg)
    u = u0
    for k in range(1, 201):
        u = strang_step(u, cfg.dt)
        if k % 20 == 0:
            got = traj.snapshots[k // 20].values
            assert np.max(np.abs(got - u.values)) <= 1e-12 * np.max(np.abs(u.values))
    mass = traj.series["mass"]
    assert np.max(np.abs(mass - mass[0])) / mass[0] / cfg.t_end <= 1e-10  # criterion 2


@pytest.mark.parametrize("sponge", [False, True])
def test_transforms_per_step(monkeypatch, sponge):
    """Every step takes one forward and one inverse transform and a run takes no others,
    with the sponge on or off."""
    calls = {"n": 0}
    for name in ("forward", "inverse"):
        original = getattr(SpectralPlan, name)

        def counted(self, x, _original=original):
            calls["n"] += 1
            return _original(self, x)

        monkeypatch.setattr(SpectralPlan, name, counted)
    cfg = StepperConfig(dt=1e-3, t_end=0.03, snapshot_stride=7, sponge=sponge,
                        morawetz_radius=4.0, flux_radius=4.0)
    traj, outcome = evolve(_chirped(RadialGrid(16.0, 127), 0.8), cfg)
    assert outcome.evidence["completed"] and len(traj.times) == 31
    assert calls["n"] == 2 * 30


_FLUX_GRID = RadialGrid(16.0, 63)
_DR = _FLUX_GRID.dr


@settings(max_examples=40, deadline=None)
@given(R=st.sampled_from([0.3 * _DR, _DR, 2.5 * _DR, 3 * _DR, 3.5 * _DR, 16.0 - 2.5 * _DR,
                          16.0 - 2 * _DR, 16.0 - _DR, 16.0 - 0.5 * _DR, 16.0])
       | st.floats(0.3 * _DR, 16.0))
def test_flux_rhs_equals_full_grid_formula(R):
    """The flux terms are taken only on the leading nodes where chi_R or chi_R' is
    nonzero: exactly the windowed formula, and the full-grid formula to roundoff,
    from radii below the first node through radii within two nodes of r_max."""
    grid = _FLUX_GRID
    cfg = StepperConfig(dt=1e-3, t_end=4e-3, snapshot_stride=1, flux_radius=R)
    traj, _ = evolve(_chirped(grid, 1.1, chirp=0.5), cfg)
    s = grid.nodes / R
    ch, dch = chi(s), chi_derivatives(s)[0] / R
    win = slice(np.flatnonzero((ch != 0) | (dch != 0)).max(initial=-1) + 1)
    w_ch, w_dch = grid.weights[win] * ch[win], grid.weights[win] * dch[win]
    for k, snap in enumerate(traj.snapshots):
        vals = snap.values
        current = np.imag(np.conj(vals) * radial_derivative(grid, vals))
        a2 = np.abs(vals) ** 2
        a4 = a2 * a2
        d_a4 = radial_derivative(grid, a4)
        windowed = 6.0 * ((w_dch * a4[win] + w_ch * d_a4[win]) @ current[win])
        assert traj.series["flux_rhs"][k] == windowed
        assert traj.series["flux_chi_l6"][k] == w_ch @ (a4 * a2)[win]
        full = 6.0 * np.sum(grid.weights * (dch * a4 + ch * d_a4) * current)
        assert abs(traj.series["flux_rhs"][k] - full) <= 1e-13 * abs(full)
        full_l6 = np.sum(grid.weights * ch * (a4 * a2))
        assert abs(traj.series["flux_chi_l6"][k] - full_l6) <= 1e-13 * full_l6


@pytest.mark.parametrize("r_max, n", [(16.0, 255), (64.0, 4095)])
def test_windowed_flux_terms_match_full_grid_sums(r_max, n):
    """The flux terms, dot products over the chi_R window on the two-pass stencil,
    agree with the full-grid np.sum(w * f) formulas on the textbook stencil to 1e-13
    of the sum of |w * f| (flux_rhs changes sign; chi_R |u|^6 does not).  The fields
    are chirped, so that the current is not zero up to roundoff."""
    grid = RadialGrid(r_max, n)
    rng = np.random.default_rng(n + 3)
    for R in (1.0, 3.7, r_max / 4):
        s = grid.nodes / R
        ch, dch = chi(s), chi_derivatives(s)[0] / R
        for _ in range(3):
            u = random_chirped_field(grid, rng)
            traj, _ = evolve(u, StepperConfig(dt=1e-3, t_end=1e-3, flux_radius=R))
            a2 = np.abs(u.values) ** 2
            a4 = a2 * a2
            current = np.imag(np.conj(u.values) * textbook_radial_derivative(grid, u.values))
            rhs = 6.0 * grid.weights * (dch * a4 + ch * textbook_radial_derivative(grid, a4))
            rhs *= current
            chi_l6 = grid.weights * ch * (a2 * a2 * a2)
            assert (abs(traj.series["flux_rhs"][0] - np.sum(rhs))
                    <= 1e-13 * np.sum(np.abs(rhs)))
            assert (abs(traj.series["flux_chi_l6"][0] - np.sum(chi_l6))
                    <= 1e-13 * np.sum(chi_l6))


@pytest.mark.parametrize("amplitude, chirp", [(1.3, 0.2), (0.9, -0.4)])
def test_recorded_series_are_the_functionals_report(amplitude, chirp):
    """evolve records mass, kinetic, energy and l6_local through report and local_l6,
    also when the Morawetz and flux terms share the state's derivative."""
    grid = RadialGrid(16.0, 255)
    cfg = StepperConfig(dt=1e-3, t_end=0.05, snapshot_stride=1, evacuation_radius=3.0,
                        morawetz_radius=4.0, flux_radius=4.0)
    traj, _ = evolve(_chirped(grid, amplitude, chirp), cfg)
    assert len(traj.snapshots) == 51
    for k, snap in enumerate(traj.snapshots):
        rep = report(snap)
        assert traj.series["mass"][k] == rep.mass
        assert traj.series["kinetic"][k] == rep.kinetic
        assert traj.series["energy"][k] == rep.energy
        assert traj.series["l6_local"][k] == local_l6(snap, cfg.evacuation_radius)


def test_identity_residuals_refuse_short_trajectories():
    """A centred difference needs three recorded steps; both residuals say so."""
    cfg = StepperConfig(dt=1e-3, t_end=1e-3, morawetz_radius=4.0, flux_radius=4.0)
    traj, _ = evolve(_chirped(RadialGrid(16.0, 127), 0.8), cfg)
    assert len(traj.times) == 2
    with pytest.raises(ContractError, match="three recorded steps"):
        identity_residual(traj, weight_build(4.0))
    with pytest.raises(ContractError, match="three recorded steps"):
        flux_identity_residual(traj, 4.0)


@pytest.mark.parametrize("r_max, n, dt", [(16.0, 127, 1e-3), (128.0, 2047, 2e-3)])
def test_outcome_reports_top_mode_phase_per_step(r_max, n, dt):
    """dt * lambda_max is the phase the top sine mode turns in one free step."""
    grid = RadialGrid(r_max, n)
    _, outcome = evolve(gaussian(grid, 0.3), StepperConfig(dt=dt, t_end=3 * dt))
    assert outcome.evidence["dt_lambda_max"] == dt * (n * np.pi / r_max) ** 2


# ---------------------------------------------------------------------------
# judge: the verdict on synthetic records

_RECORD_GRID = RadialGrid(16.0, 63)


def _recorded(l6_local, steps=None, dt=0.1, mass=1.0, kinetic=1.0) -> Trajectory:
    """A record of len(l6_local) states of a run of ``steps`` steps (default: all
    recorded), with constant mass and kinetic series."""
    n = len(l6_local)
    steps = n - 1 if steps is None else steps
    series = {"mass": np.full(n, mass), "energy": np.zeros(n),
              "kinetic": np.full(n, kinetic), "l6_local": np.asarray(l6_local, dtype=float)}
    return Trajectory(np.arange(n) * dt, series, StepperConfig(dt=dt, t_end=steps * dt),
                      [RadialField(_RECORD_GRID, np.zeros(_RECORD_GRID.n))], np.array([0.0]))


_FIRED = {"trigger_kinetic_ratio": 12.5, "tail_fraction": 0.05}  # unconfirmed
_CONFIRMED = {"trigger_kinetic_ratio": 40.0, "tail_fraction": 0.25}


def test_judge_scatters_at_epsilon_six_and_not_one_ulp_above():
    eps6 = StepperConfig().evacuation_epsilon ** 6
    l6 = np.full(11, 1.0)
    l6[-1] = eps6
    outcome = judge(_recorded(l6), {})
    assert outcome.tag == SCATTERED and outcome.t_event is None
    assert outcome.evidence == {"min_local_l6": eps6, "max_kinetic_ratio": 1.0,
                                "completed": True, "gradient_fired": False,
                                "dt_lambda_max": 0.1 * (63 * np.pi / 16.0) ** 2}
    l6[-1] = np.nextafter(eps6, 1.0)
    outcome = judge(_recorded(l6), {})
    assert outcome.tag == UNDECIDED and outcome.evidence["min_local_l6"] == l6[-1]


def test_judge_zero_data_is_undecided():
    outcome = judge(_recorded(np.zeros(11), mass=0.0, kinetic=0.0), {})
    assert outcome.tag == UNDECIDED and outcome.t_event is None
    assert outcome.evidence["min_local_l6"] == 0.0
    assert outcome.evidence["max_kinetic_ratio"] == 0.0 and outcome.evidence["completed"]


@pytest.mark.parametrize("steps", [5, 10])
def test_judge_confirmed_trigger_blows_up_at_the_last_recorded_time(steps):
    """A confirmed trigger stops the run at the step that fired it, the last one or not;
    the run did not complete, and it is no non-finite abort."""
    traj = _recorded(np.zeros(6), steps=steps)
    outcome = judge(traj, _CONFIRMED)
    assert outcome.tag == BLEW_UP and outcome.t_event == traj.times[-1] == 0.5
    assert type(outcome.t_event) is float
    assert outcome.evidence == {"min_local_l6": 0.0, "max_kinetic_ratio": 1.0,
                                "completed": False, "gradient_fired": True,
                                "dt_lambda_max": 0.1 * (63 * np.pi / 16.0) ** 2, **_CONFIRMED}


def test_judge_nonfinite_abort():
    """Fewer recorded steps than t_end/dt without a confirmed trigger is a non-finite
    stop: BlewUp at the last finite time after an unconfirmed trigger, Undecided without
    one, even where l6_local already fell below epsilon^6."""
    traj = _recorded(np.zeros(6), steps=10)
    outcome = judge(traj, _FIRED)
    assert outcome.tag == BLEW_UP and outcome.t_event == traj.times[-1]
    assert outcome.evidence["aborted_nonfinite"] and outcome.evidence["gradient_fired"]
    assert not outcome.evidence["completed"] and outcome.evidence["tail_fraction"] == 0.05
    outcome = judge(traj, {})
    assert outcome.tag == UNDECIDED and outcome.t_event is None
    assert outcome.evidence["aborted_nonfinite"] and not outcome.evidence["gradient_fired"]
    assert "tail_fraction" not in outcome.evidence
    assert "aborted_nonfinite" not in judge(_recorded(np.zeros(6)), _FIRED).evidence


@pytest.mark.parametrize("low_at, tag", [(15, UNDECIDED), (16, SCATTERED), (20, SCATTERED)])
def test_judge_late_window_is_the_last_fifth_of_the_recorded_times(low_at, tag):
    """On t = 0, 0.25, ..., 5 the last fifth is t >= 4, from index 16 on."""
    l6 = np.ones(21)
    l6[low_at] = 0.0
    outcome = judge(_recorded(l6, dt=0.25), {})
    assert outcome.tag == tag
    assert outcome.evidence["min_local_l6"] == (0.0 if tag == SCATTERED else 1.0)


def test_judge_rereads_what_evolve_recorded(grid64, monkeypatch):
    """evolve's verdict is judge of its trajectory and trigger, which the evidence
    keeps, so a record can be judged again without stepping."""
    import cqnls.dynamics as dyn

    monkeypatch.setattr(dyn, "_BLOWUP_GRADIENT_FACTOR", 1.005)
    u0 = RadialField(grid64, 1.5 * np.exp(-grid64.nodes**2 - 0.5j * grid64.nodes**2))
    traj, outcome = evolve(u0, StepperConfig(dt=1e-3, t_end=0.02, snapshot_stride=10**9))
    trigger = {k: outcome.evidence[k] for k in ("trigger_kinetic_ratio", "tail_fraction")}
    assert judge(traj, trigger) == outcome
