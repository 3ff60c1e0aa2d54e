"""Functional reports, cutoffs and radial embedding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqnls.errors import ContractError
from cqnls.functionals import (
    GROUND_STATE_KINETIC,
    SHARP_SOBOLEV_C3,
    chi,
    chi_derivatives,
    chi_profile,
    cutoff_identity_residual,
    local_l6,
    report,
)
from cqnls.grid import (
    FieldDerivative,
    RadialField,
    RadialGrid,
    integrate_ball,
    radial_derivative,
)

from conftest import gaussian, random_smooth_field, textbook_radial_derivative

# adaptive-quadrature oracle values for u = exp(-r^2)
GAUSS = {
    "mass": 1.9687012432153024,
    "kinetic": 5.906103729645908,
    "l4": 0.6960409996039634,
    "l6": 0.3788767309081018,
    "energy": 3.063915992905928,
    "energy_c": 2.889905743004937,
    "k": 12.098515496881557,
    "h": 1.0474967434256683,
    "kc": 11.054453997475612,
}


def test_report_zero(grid64):
    rep = report(RadialField(grid64, np.zeros(grid64.n)))
    for name in GAUSS:
        assert getattr(rep, name) == 0.0
    assert rep.y_ratio == 0.0


def test_report_gaussian(grid64):
    rep = report(gaussian(grid64))
    for name, want in GAUSS.items():
        assert getattr(rep, name) == pytest.approx(want, abs=2e-3), name
    assert rep.y_ratio == pytest.approx(GAUSS["kinetic"] / GROUND_STATE_KINETIC, rel=1e-3)


def test_report_truncated_bubble(grid_bubble):
    """kc of the bubble vanishes (up to the r^-4 kinetic tail of the ball)."""
    g = grid_bubble
    rep = report(RadialField(g, (1 + g.nodes**2 / 3.0) ** -0.5))
    assert abs(rep.kc) <= 2e-2
    assert rep.k == pytest.approx(76.92595322981478, abs=0.2)


def test_report_identities_random(grid64):
    rng = np.random.default_rng(3)
    for _ in range(20):
        rep = report(random_smooth_field(grid64, rng))
        assert rep.energy == pytest.approx(rep.h + rep.k / 6, rel=1e-12, abs=1e-13)
        assert rep.energy == pytest.approx(rep.kinetic / 2 + rep.l4 / 4 - rep.l6 / 6)
        assert rep.kc == pytest.approx(2 * (rep.kinetic - rep.l6))


@settings(max_examples=30, deadline=None)
@given(c=st.floats(1e-3, 30.0))
def test_report_scaling_homogeneity(c):
    g = RadialGrid(32.0, 1023)
    u = gaussian(g)
    r1 = report(u)
    r2 = report(RadialField(g, c * u.values))
    assert r2.mass == pytest.approx(c**2 * r1.mass, rel=1e-12)
    assert r2.kinetic == pytest.approx(c**2 * r1.kinetic, rel=1e-12)
    assert r2.l4 == pytest.approx(c**4 * r1.l4, rel=1e-12)
    assert r2.l6 == pytest.approx(c**6 * r1.l6, rel=1e-12)


def test_sharp_sobolev_sampled(grid64, grid_bubble):
    rng = np.random.default_rng(4)
    for _ in range(50):
        rep = report(random_smooth_field(grid64, rng))
        assert rep.l6 <= SHARP_SOBOLEV_C3 * rep.kinetic**3 * (1 + 1e-6)
    w = report(RadialField(grid_bubble, (1 + grid_bubble.nodes**2 / 3.0) ** -0.5))
    ratio = w.l6 / (SHARP_SOBOLEV_C3 * w.kinetic**3)
    assert ratio == pytest.approx(1.0, abs=1e-2)


def test_local_l6(grid64):
    zero = RadialField(grid64, np.zeros(grid64.n))
    assert local_l6(zero, 5.0) == 0.0
    u = gaussian(grid64)
    rep = report(u)
    assert local_l6(u, grid64.r_max) == pytest.approx(rep.l6, rel=1e-14)
    # oracle: 4*pi int_0^1 r^2 e^{-6 r^2} dr (adaptive quadrature)
    assert local_l6(u, 1.0) == pytest.approx(0.3760794231920614, abs=1e-3)
    with pytest.raises(ContractError):
        local_l6(u, 2 * grid64.r_max)


def test_local_l6_monotone(grid64):
    rng = np.random.default_rng(5)
    u = random_smooth_field(grid64, rng)
    vals = [local_l6(u, R) for R in np.linspace(0.5, 60.0, 24)]
    # pairwise summation reorders terms; allow roundoff-level dips
    assert np.all(np.diff(vals) >= -1e-12 * max(vals))


def test_cutoff_plateau_and_support():
    """chi = 1 on s <= 1/2 and 0 on s >= 1, decreasing strictly in between."""
    s = np.linspace(0.0, 2.0, 4001)
    ch = chi(s)
    assert np.all(ch[s <= 0.5] == 1.0)
    assert np.all(ch[s >= 1.0] == 0.0)
    ramp = ch[(s > 0.5) & (s < 1.0)]
    assert np.all((ramp > 0.0) & (ramp < 1.0))
    assert np.all(np.diff(ramp) < 0)


def test_cutoff_identity_wide_radius(grid64):
    u = gaussian(grid64)
    cut = chi(grid64.nodes / (2 * grid64.r_max)) * u.values
    assert np.array_equal(cut, u.values)


def test_cutoff_mass_contracts(grid64):
    """0 <= chi <= 1, so the cut-off field chi(r/R) u holds no more mass than u."""
    rng = np.random.default_rng(6)
    for _ in range(10):
        u = random_smooth_field(grid64, rng)
        ch = chi(grid64.nodes / rng.uniform(2, 30))
        assert np.all((ch >= 0.0) & (ch <= 1.0))
        assert integrate_ball(grid64, np.abs(ch * u.values) ** 2) <= integrate_ball(
            grid64, np.abs(u.values) ** 2
        ) * (1 + 1e-14)


def test_cutoff_refuses_nonpositive_radius(grid64):
    u = gaussian(grid64)
    for R in (0.0, -1.0, float("nan")):
        with pytest.raises(ContractError):
            chi_profile(grid64, R)
        with pytest.raises(ContractError):
            cutoff_identity_residual(u, R)


def test_cutoff_identity_residual(grid64):
    assert cutoff_identity_residual(gaussian(grid64), 4.0) <= 1e-5
    assert cutoff_identity_residual(RadialField(grid64, np.zeros(grid64.n)), 4.0) == 0.0
    rng = np.random.default_rng(7)
    for _ in range(5):
        u = random_smooth_field(grid64, rng)
        assert cutoff_identity_residual(u, 8.0) <= 1e-4


def test_radial_embedding_ratio(grid64):
    """||r u||_inf / ||u||_H1 <= 0.3 on sampled fields (provable bound 1/sqrt(4 pi))."""
    rng = np.random.default_rng(8)
    for _ in range(100):
        u = random_smooth_field(grid64, rng)
        rep = report(u)
        h1 = np.sqrt(rep.mass + rep.kinetic)
        assert np.max(grid64.nodes * np.abs(u.values)) / h1 <= 0.3


def test_report_with_shared_derivative(grid64):
    rng = np.random.default_rng(11)
    for _ in range(5):
        u = random_smooth_field(grid64, rng)
        assert report(FieldDerivative.of(u)) == report(u)


def test_field_derivative_products(grid64):
    u = random_smooth_field(grid64, np.random.default_rng(12))
    du = FieldDerivative(grid64, u.values)
    a2 = np.abs(u.values) ** 2
    assert np.array_equal(du.du, radial_derivative(grid64, u.values))
    assert np.array_equal(du.a2, a2)
    assert np.array_equal(du.a6, a2 * a2 * a2)
    assert FieldDerivative.of(du) is du
    same = FieldDerivative.of(u)
    for name in ("du", "a2", "a4", "a6", "du2"):
        assert np.array_equal(getattr(same, name), getattr(du, name))


@pytest.mark.parametrize("R", [0.01, 1.0, 3.7, 10.0, 64.0])
def test_local_l6_is_the_masked_sum(grid64, R):
    u = random_smooth_field(grid64, np.random.default_rng(13))
    if R < grid64.dr:  # the ball holds no node: refused, not read as zero
        for state in (u, FieldDerivative.of(u)):
            with pytest.raises(ContractError, match="holds no node"):
                local_l6(state, R)
        return
    mask = grid64.nodes <= R
    a2 = (np.abs(u.values) ** 2)[mask]
    expected = grid64.weights[mask] @ (a2 * a2 * a2)
    assert local_l6(u, R) == expected
    assert local_l6(FieldDerivative.of(u), R) == expected


@pytest.mark.parametrize("r_max, n", [(16.0, 255), (64.0, 4095)])
def test_report_dots_match_full_grid_sums(r_max, n):
    """report and local_l6, dot products on the two-pass stencil, agree with the
    np.sum(w * f) formulas on the textbook stencil to 1e-13 relative; every
    integrand is nonnegative, so no cancellation hides an error."""
    grid = RadialGrid(r_max, n)
    w = grid.weights
    rng = np.random.default_rng(n + 1)
    for _ in range(5):
        u = random_smooth_field(grid, rng)
        a2 = np.abs(u.values) ** 2
        du = textbook_radial_derivative(grid, u.values)
        rep = report(u)
        for name, want in (("mass", np.sum(w * a2)), ("kinetic", np.sum(w * np.abs(du) ** 2)),
                           ("l4", np.sum(w * a2 * a2)), ("l6", np.sum(w * (a2 * a2 * a2)))):
            assert abs(getattr(rep, name) - want) <= 1e-13 * want
        for R in (1.0, 3.7, r_max / 4):
            ball = grid.nodes <= R
            want = np.sum(w[ball] * (a2 * a2 * a2)[ball])
            assert abs(local_l6(u, R) - want) <= 1e-13 * want


@pytest.mark.parametrize("R", [0.01, 1.0, 4.0, 8.0, 37.5, 64.0])
def test_chi_profile_equals_the_formulas_it_replaces(grid64, R):
    ch, chi_r, lap_chi = chi_profile(grid64, R)
    s = grid64.nodes / R
    d1, d2 = chi_derivatives(s)
    assert np.array_equal(ch, chi(s))
    assert np.array_equal(chi_r, chi_derivatives(s)[0] / R)
    assert np.array_equal(lap_chi, d2 / R**2 + 2.0 * (d1 / R) / grid64.nodes)
    chi_rr = d2 / R**2
    assert np.array_equal(lap_chi, chi_rr + 2.0 * (d1 / R) / grid64.nodes)
