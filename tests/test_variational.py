"""Ground-state bubble, thresholds, classification, scalings, cubic barrier."""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqnls.errors import AccuracyError, ContractError, ResolutionError
from cqnls.functionals import GROUND_STATE_ENERGY_C, GROUND_STATE_KINETIC, report
from cqnls.grid import RadialField, RadialGrid, laplacian
from cqnls.variational import (
    ABOVE_THRESHOLD,
    K_MINUS,
    K_PLUS,
    bubble,
    classify,
    cubic_barrier,
    ground_state,
    scale_f12,
    scale_phi,
    thresholds,
)

from conftest import gaussian, sample_below_threshold


@pytest.fixture(scope="module")
def fine_grid():
    """Fine enough that cubic resampling survives the harshest dilation."""
    return RadialGrid(256.0, 2**20 - 1)


def scaling_sample(grid, rng):
    r = grid.nodes
    vals = np.zeros(grid.n, dtype=complex)
    for _ in range(3):
        amp = rng.uniform(0.3, 1.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        width = rng.uniform(2.5, 3.5)
        vals += amp * np.exp(-((r / width) ** 2)) * (1 + rng.uniform(0, 1.5) * (r / width) ** 2)
    return RadialField(grid, vals)


def test_ground_state_values(grid64):
    w = ground_state(grid64)
    assert np.allclose(w.values.real, (1 + grid64.nodes**2 / 3) ** -0.5, rtol=0, atol=0)
    # spot values: W(0) = 1 (limit), W(sqrt(3)) = 2^{-1/2}
    j = np.argmin(np.abs(grid64.nodes - np.sqrt(3.0)))
    assert w.values.real[j] == pytest.approx(2**-0.5, abs=1e-3)
    assert w.values.real[0] == pytest.approx(1.0, abs=1e-4)


def test_ground_state_elliptic_residual(grid_default):
    w = ground_state(grid_default)
    res = np.abs(-laplacian(w).values - w.values**5)
    assert np.max(res) <= 1e-5


def test_thresholds_against_closed_forms(th1024):
    assert th1024.kinetic == pytest.approx(GROUND_STATE_KINETIC, rel=1e-2)
    assert th1024.l6 == pytest.approx(GROUND_STATE_KINETIC, rel=1e-2)
    assert th1024.energy_c == pytest.approx(GROUND_STATE_ENERGY_C, rel=1e-2)
    assert th1024.energy_c == pytest.approx(th1024.kinetic / 3, rel=1e-2)


def test_thresholds_rejects_small_domain():
    with pytest.raises(AccuracyError):
        thresholds(RadialGrid(64.0, 2**12 - 1))


def test_thresholds_grid_refinement():
    a = thresholds(RadialGrid(512.0, 2**14))
    b = thresholds(RadialGrid(512.0, 2**15))
    assert abs(b.kinetic - a.kinetic) / a.kinetic < 0.002


def test_classify_small_gaussian(grid64):
    cls = classify(RadialField(grid64, 0.1 * gaussian(grid64).values))
    assert cls.tag == K_PLUS
    assert cls.report.energy == pytest.approx(0.029547856527097828, abs=1e-4)
    assert cls.kbar_agrees


def test_classify_unit_gaussian_below_threshold(grid64):
    # E(e^{-r^2}) ~= 3.064 sits below ec_W ~= 4.274 with k > 0
    cls = classify(gaussian(grid64))
    assert cls.tag == K_PLUS
    assert cls.energy_margin > 0
    assert cls.kbar_agrees


def test_classify_above_threshold(grid64):
    cls = classify(gaussian(grid64, amplitude=1.4))
    assert cls.tag == ABOVE_THRESHOLD
    assert cls.energy_margin <= 0


def test_classify_bubble_kminus():
    from cqnls.config import InitialData
    from cqnls.experiments import build_initial, find_kminus_amplitude

    grid = RadialGrid(64.0, 2**14 - 1)
    a = find_kminus_amplitude(grid)
    u = build_initial(grid, InitialData(family="bubble", amplitude=a, scale=16.0, cutoff=10.0))
    cls = classify(u)
    assert cls.tag == K_MINUS
    assert cls.k_value < 0 and cls.energy_margin > 0
    assert cls.kbar_agrees  # kinetic exceeds the bubble's


def test_kminus_preset_is_the_scanned_amplitude():
    from cqnls.experiments import _BUBBLE, find_kminus_amplitude

    assert find_kminus_amplitude(RadialGrid(64.0, 2**14 - 1)) == _BUBBLE.amplitude


def test_classification_equivalence_sampled(grid128, th1024):
    """sign(k) >= 0 iff kinetic <= ||grad W||^2, below the threshold."""
    rng = np.random.default_rng(11)
    for u in sample_below_threshold(grid128, rng, 100, th1024.energy_c):
        cls = classify(u)
        tol = 1e-6 * (cls.report.kinetic + cls.report.l6 + cls.report.l4 + 1)
        if abs(cls.k_value) < 10 * tol or abs(cls.grad_margin) < 10 * tol:
            continue
        assert cls.kbar_agrees, (cls.k_value, cls.grad_margin)


def test_scale_phi_identity_at_zero(grid64):
    u = gaussian(grid64)
    assert np.array_equal(scale_phi(u, 0.0).values, u.values)


def test_scale_phi_mass_invariance(fine_grid):
    u = gaussian(fine_grid, width=3.0)
    for lam in (-0.5, 0.3, 0.7):
        m0 = report(u).mass
        m1 = report(scale_phi(u, lam)).mass
        assert abs(m1 - m0) / m0 <= 1e-6


def test_scale_phi_derivative_is_k(grid_default):
    u = gaussian(grid_default)
    h = 1e-4
    ep = report(scale_phi(u, h)).energy
    em = report(scale_phi(u, -h)).energy
    k = report(u).k
    assert (ep - em) / (2 * h) == pytest.approx(k, rel=1e-3)


def test_scale_phi_resolution_error(grid64):
    with pytest.raises(ResolutionError):
        scale_phi(gaussian(grid64), 4.0)


def test_scale_f12_identity_at_zero(grid64):
    u = gaussian(grid64)
    assert np.array_equal(scale_f12(u, 0.0).values, u.values)


def test_scale_f12_h_invariance(fine_grid):
    u = gaussian(fine_grid)
    rep0 = report(u)
    assert rep0.h == pytest.approx(1.0474967434256683, abs=2e-3)
    rep1 = report(scale_f12(u, 0.7))
    assert abs(rep1.h - rep0.h) / rep0.h <= 1e-6


def test_scale_f12_quartic_transfer(fine_grid):
    # k(u^lam) = kc(u) + 1.5 e^{-3 lam} l4(u); for the unit gaussian at lam = 1
    # the right side is 11.054 + 1.5 e^{-3} 0.69604 = 11.10643
    u = gaussian(fine_grid)
    rep1 = report(scale_f12(u, 1.0))
    assert rep1.k == pytest.approx(11.10643475872679, abs=5e-3)


def test_scale_f12_identity_random(fine_grid):
    rng = np.random.default_rng(12)
    for _ in range(5):
        u = scaling_sample(fine_grid, rng)
        rep = report(u)
        for lam in (-1.0, -0.5, 0.5, 1.0, 2.0):
            rep_l = report(scale_f12(u, lam))
            ident = rep.kc + 1.5 * np.exp(-3 * lam) * rep.l4
            scale = 2 * (rep.kinetic + rep.l6) + 1.5 * np.exp(-3 * lam) * rep.l4
            assert abs(rep_l.k - ident) / scale <= 1e-5


def test_scale_f12_energy_monotone(fine_grid):
    rng = np.random.default_rng(13)
    for _ in range(5):
        u = scaling_sample(fine_grid, rng)
        e0 = report(u).energy
        for lam in (0.25, 0.5, 1.0):
            assert report(scale_f12(u, lam)).energy <= e0 + 1e-10 * abs(e0)


def test_cubic_barrier_values():
    # delta0 -> 0+: the cubic equals 1 at y = 1, so the root approaches 1
    assert cubic_barrier(0.0, 1e-9) == pytest.approx(1.0, abs=1e-3)
    # 1.5 y - 0.5 y^3 = 0.5 has the root 2 sin(pi/18); the selftest's literal
    assert cubic_barrier(0.0, 0.5) == 0.3472963553338607


@settings(max_examples=50, deadline=None)
@given(delta0=st.floats(1e-6, 1 - 1e-6))
def test_cubic_barrier_is_root(delta0):
    y = cubic_barrier(0.0, delta0)
    assert 0 < y <= 1
    assert 1.5 * y - 0.5 * y**3 == pytest.approx(1 - delta0, abs=1e-12)


def test_cubic_barrier_errors():
    with pytest.raises(ContractError):
        cubic_barrier(0.0, 1.5)
    with pytest.raises(ContractError):
        cubic_barrier(0.0, 0.0)
    root = cubic_barrier(0.0, 0.5)
    with pytest.raises(ContractError):
        cubic_barrier(root + 0.01, 0.5)  # hypothesis violated: y0 above the barrier


@pytest.mark.parametrize("amplitude", [0.1, 1.0, 1.4])
def test_classify_defaults_to_closed_forms(grid64, amplitude):
    """classify takes the field alone and measures it against the closed forms."""
    from cqnls.experiments import find_kminus_amplitude

    assert list(inspect.signature(classify).parameters) == ["u"]
    assert list(inspect.signature(find_kminus_amplitude).parameters) == ["grid"]
    u = gaussian(grid64, amplitude=amplitude)
    cls = classify(u)
    assert cls.energy_margin == GROUND_STATE_ENERGY_C - report(u).energy
    assert cls.grad_margin == GROUND_STATE_KINETIC - report(u).kinetic


def test_thresholds_are_the_report_of_the_ground_state():
    """The quadrature check reads its norms from the one diagnostics pass."""
    grid = RadialGrid(512.0, 2**14)
    assert thresholds(grid) == report(ground_state(grid))


@pytest.mark.parametrize("amplitude, scale", [(1.0, 1.0), (1.3, 16.0), (0.7, 4.0), (1.8, 0.5)])
def test_bubble_equals_the_formulas_it_replaces(grid64, amplitude, scale):
    from cqnls.config import InitialData
    from cqnls.experiments import build_initial
    from cqnls.functionals import chi

    r = grid64.nodes
    old = amplitude * np.sqrt(scale) * (1.0 + (scale * r) ** 2 / 3.0) ** -0.5
    assert np.array_equal(bubble(r, amplitude, scale), old)
    spec = InitialData(family="bubble", amplitude=amplitude, scale=scale, cutoff=10.0)
    assert np.array_equal(build_initial(grid64, spec).values, old * chi(r / 10.0))
    assert np.array_equal(ground_state(grid64).values, (1.0 + r**2 / 3.0) ** -0.5)
