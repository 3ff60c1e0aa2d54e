"""Grid, quadrature, differentiation, spectral Laplacian, free propagator."""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cqnls
from cqnls.errors import ContractError
from cqnls.grid import (
    RadialField,
    RadialGrid,
    SpectralPlan,
    _load_pocketfft,
    free_propagate,
    integrate_ball,
    laplacian,
    radial_derivative,
    radial_derivative_on,
)

from cqnls.functionals import report

from conftest import gaussian, random_smooth_field, textbook_radial_derivative

EXACT_GRAD_W = 12.820992204969127  # 3*sqrt(3)*pi^2/4
W_L6_BALL_200 = 12.820978069710502  # adaptive-quadrature oracle on [0, 200]
W_KIN_BALL_200 = 12.632510781648444


def test_grid_invariants():
    g = RadialGrid(12.0, 511)
    assert g.dr > 0
    assert np.all(np.diff(g.nodes) > 0)
    assert g.nodes[0] > 0 and g.nodes[-1] < g.r_max
    assert g.dr == pytest.approx(12.0 / 512)


@pytest.mark.parametrize("r_max, n", [(64.0, 2**14 - 1), (32.0, 2047)])
def test_grid_pickles_as_its_two_numbers(r_max, n):
    """A sweep sends its grids to worker processes: r_max and n travel, the node
    vectors are rebuilt bitwise."""
    grid = RadialGrid(r_max, n)
    data = pickle.dumps(grid)
    back = pickle.loads(data)
    assert len(data) < 1024 and back == grid and back.dr == grid.dr
    assert back.nodes.tobytes() == grid.nodes.tobytes()
    assert back.weights.tobytes() == grid.weights.tobytes()


def test_constant_profile_ball_volume():
    # endpoint handling costs ~1.5*dr/r_max of the volume; stays within 10*dr^2
    for g in (RadialGrid(256.0, 2**14 - 1), RadialGrid(12.0, 511)):
        vol = integrate_ball(g, np.ones(g.n))
        exact = 4.0 / 3.0 * np.pi * g.r_max**3
        assert abs(vol - exact) / exact <= 10 * g.dr**2


def test_integrate_gaussian_mass():
    g = RadialGrid(12.0, 1023)
    val = integrate_ball(g, np.exp(-2.0 * g.nodes**2))
    assert val == pytest.approx((np.pi / 2) ** 1.5, abs=1e-4)


def test_integrate_zero():
    g = RadialGrid(12.0, 511)
    assert integrate_ball(g, np.zeros(g.n)) == 0.0


def test_integrate_bubble_l6():
    g = RadialGrid(200.0, 2**16)
    w6 = (1 + g.nodes**2 / 3.0) ** -3
    assert integrate_ball(g, w6) == pytest.approx(W_L6_BALL_200, abs=5e-3)


def test_integrate_length_mismatch():
    g = RadialGrid(12.0, 511)
    with pytest.raises(ContractError):
        integrate_ball(g, np.zeros(g.n + 1))


@settings(max_examples=20, deadline=None)
@given(a=st.floats(-3, 3), b=st.floats(-3, 3))
def test_integrate_linear(a, b):
    g = RadialGrid(12.0, 511)
    f1 = np.exp(-g.nodes**2)
    f2 = np.exp(-2 * g.nodes**2) * g.nodes
    lhs = integrate_ball(g, a * f1 + b * f2)
    rhs = a * integrate_ball(g, f1) + b * integrate_ball(g, f2)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_integrate_monotone():
    g = RadialGrid(12.0, 511)
    rng = np.random.default_rng(0)
    f = rng.uniform(0, 1, g.n)
    assert integrate_ball(g, f) <= integrate_ball(g, f + rng.uniform(0, 1, g.n))


def test_gradient_norm_gaussian(grid64):
    u = gaussian(grid64)
    assert report(u).kinetic == pytest.approx(3 * (np.pi / 2) ** 1.5, abs=1e-3)


def test_gradient_norm_windowed_constant(grid64):
    from cqnls.functionals import chi

    windowed = chi(grid64.nodes / 32.0).astype(complex)
    du = radial_derivative(grid64, windowed)
    interior = grid64.nodes <= 10.0
    assert np.max(np.abs(du[interior])) <= 1e-12


def test_gradient_norm_truncated_bubble():
    g = RadialGrid(200.0, 2**16)
    u = RadialField(g, (1 + g.nodes**2 / 3.0) ** -0.5)
    assert report(u).kinetic == pytest.approx(W_KIN_BALL_200, abs=5e-3)


@pytest.mark.parametrize("r_max, n", [(16.0, 255), (64.0, 4095)])
def test_two_pass_stencil_matches_textbook_order(r_max, n):
    """The two-pass interior stencil rounds the same four terms as the textbook order.

    The difference is a few ulp of those terms, which reach 8 max|u|/(12 dr): within
    1e-14 of max|du| for data that vary on the grid scale, and of max|u|/dr for data
    smooth on it, where du is much smaller than the terms.
    """
    grid = RadialGrid(r_max, n)
    rng = np.random.default_rng(n)
    for _ in range(5):
        for u in (random_smooth_field(grid, rng).values,
                  rng.standard_normal(n) + 1j * rng.standard_normal(n),
                  rng.standard_normal(n)):
            new, old = radial_derivative(grid, u), textbook_radial_derivative(grid, u)
            scale = max(np.max(np.abs(old)), np.max(np.abs(u)) / grid.dr)
            assert np.max(np.abs(new - old)) <= 1e-14 * scale


def _reference_radial_derivative(h, y):
    """The full-grid stencil with its four one-sided closures, written out."""
    d = np.empty_like(y)
    t = y[:-4] - y[4:]
    t += 8 * (y[3:-1] - y[1:-3])
    d[2:-2] = t * (1 / (12 * h))
    d[0] = (-25 * y[0] + 48 * y[1] - 36 * y[2] + 16 * y[3] - 3 * y[4]) / (12 * h)
    d[1] = (-3 * y[0] - 10 * y[1] + 18 * y[2] - 6 * y[3] + y[4]) / (12 * h)
    d[-1] = (25 * y[-1] - 48 * y[-2] + 36 * y[-3] - 16 * y[-4] + 3 * y[-5]) / (12 * h)
    d[-2] = (3 * y[-1] + 10 * y[-2] - 18 * y[-3] + 6 * y[-4] - y[-5]) / (12 * h)
    return d


@pytest.mark.parametrize("r_max, n", [(16.0, 255), (64.0, 4095)])
def test_windowed_derivative_is_the_full_derivative_bitwise(r_max, n):
    """radial_derivative_on(lo, hi) is radial_derivative()[lo:hi] byte for byte, for
    real and complex data and every kind of window: interior, at either grid end,
    shorter than the 5-point stencil, empty."""
    grid = RadialGrid(r_max, n)
    rng = np.random.default_rng(n + 7)
    windows = [(0, n), (0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 3), (2, 6),
               (0, 100), (3, n - 3), (100, 101), (100, 103), (100, 104), (100, 160),
               (n - 1, n), (n - 2, n), (n - 3, n - 1), (n - 4, n), (n - 2, n - 1),
               (n - 100, n), (7, 7), (9, 4)]
    for _ in range(20):
        lo = int(rng.integers(0, n))
        windows.append((lo, int(rng.integers(lo + 1, n + 1))))
    for v in (random_smooth_field(grid, rng).values,
              rng.standard_normal(n) + 1j * rng.standard_normal(n),
              rng.standard_normal(n),
              np.abs(random_smooth_field(grid, rng).values) ** 4):
        full = radial_derivative(grid, v)
        assert full.tobytes() == _reference_radial_derivative(grid.dr, v).tobytes()
        for lo, hi in windows:
            part = radial_derivative_on(grid, v, lo, hi)
            assert part.dtype == v.dtype
            assert part.tobytes() == full[lo:hi].tobytes(), (lo, hi)


def test_laplacian_eigenfunction(grid_default):
    g = grid_default
    u = RadialField(g, np.sin(np.pi * g.nodes / g.r_max) / g.nodes)
    lap = laplacian(u)
    target = -((np.pi / g.r_max) ** 2) * u.values
    assert np.max(np.abs(lap.values - target)) <= 1e-10


def test_laplacian_bubble_elliptic(grid_default):
    g = grid_default
    w = RadialField(g, (1 + g.nodes**2 / 3.0) ** -0.5)
    res = -laplacian(w).values - w.values**5
    inner = g.nodes <= g.r_max / 2
    assert np.max(np.abs(res[inner])) <= 1e-6


def test_laplacian_gaussian(grid64):
    u = gaussian(grid64)
    exact = (4 * grid64.nodes**2 - 6) * np.exp(-grid64.nodes**2)
    interior = grid64.nodes <= 50.0
    err = np.abs(laplacian(u).values - exact)
    assert np.max(err[interior]) <= 1e-8


def test_laplacian_matches_finite_difference_order():
    """Spectral vs 4th-order FD (1/r)(ru)'': difference shrinks at order >= 3.5."""

    def fd_laplacian(g, u):
        w = g.nodes * u
        h = g.dr
        ww = np.concatenate([[0.0 + 0.0j], w, [0.0 + 0.0j]])  # Dirichlet pad
        d2 = np.empty_like(w)
        d2[1:-1] = (
            -ww[4:] + 16 * ww[3:-1] - 30 * ww[2:-2] + 16 * ww[1:-3] - ww[:-4]
        ) / (12 * h * h)
        # near-end nodes: second-order stencil is enough for a max-norm check
        d2[0] = (ww[0] - 2 * ww[1] + ww[2]) / (h * h)
        d2[-1] = (ww[-3] - 2 * ww[-2] + ww[-1]) / (h * h)
        return d2 / g.nodes

    errs = []
    for n in (1023, 2047):
        g = RadialGrid(32.0, n)
        u = np.exp(-((g.nodes - 8.0) ** 2)).astype(complex)  # compactly supported bump
        f = RadialField(g, u)
        spec = laplacian(f).values
        fd = fd_laplacian(g, u)
        interior = (g.nodes > 2.0) & (g.nodes < 30.0)
        errs.append(np.max(np.abs(spec - fd)[interior]))
    order = np.log2(errs[0] / errs[1])
    assert order >= 3.5


def test_transform_roundtrip(grid64):
    rng = np.random.default_rng(1)
    u = random_smooth_field(grid64, rng)
    plan = SpectralPlan.for_grid(grid64)
    w = grid64.nodes * u.values
    back = plan.inverse(plan.forward(w))
    assert np.max(np.abs(back - w)) / np.max(np.abs(w)) <= 1e-12


@pytest.mark.parametrize("n", [8, 63, 2047, 4095, 16383])
def test_complex_transforms_equal_scipy_bitwise(n):
    """forward/inverse run a complex vector as one transform of its (n, 2) float view;
    the bytes equal scipy's dst/idst, for contiguous and strided input alike."""
    from scipy.fft import dst, idst

    rng = np.random.default_rng(n)
    plan = SpectralPlan.for_grid(RadialGrid(16.0, n))
    x = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
    for vec in (x[:n], x[::2]):
        assert plan.forward(vec).tobytes() == dst(vec, type=1).tobytes()
        assert plan.inverse(vec).tobytes() == idst(vec, type=1).tobytes()
    # real input is cast to complex first, exactly
    real = x.real[:n]
    assert plan.forward(real).tobytes() == dst(real.astype(complex), type=1).tobytes()
    assert plan.inverse(real).tobytes() == idst(real.astype(complex), type=1).tobytes()


# a fresh interpreter importing cqnls with scipy.fft imported after it (as
# perfbench's environment() does) or before it; prints what cqnls' imports
# loaded and whether forward/inverse, called before and after scipy.fft's
# import, give scipy's bytes
_FRESH_IMPORT = """
import json, sys
if sys.argv[1] == "before":
    import scipy.fft
import cqnls, cqnls.cli, cqnls.experiments
loaded = sorted(m for m in ("scipy.fft", "scipy.special") if m in sys.modules)
import numpy as np
from cqnls.grid import RadialGrid, SpectralPlan
n = 2047
plan = SpectralPlan.for_grid(RadialGrid(16.0, n))
x = np.random.default_rng(n).standard_normal(2 * n).view(complex)
early = plan.forward(x).tobytes(), plan.inverse(x).tobytes()
import scipy.fft
want = scipy.fft.dst(x, type=1).tobytes(), scipy.fft.idst(x, type=1).tobytes()
late = plan.forward(x).tobytes(), plan.inverse(x).tobytes()
print(json.dumps({"loaded": loaded, "equal": early == want == late}))
"""


@pytest.mark.parametrize("scipy_fft", ["after", "before"])
def test_cqnls_imports_no_scipy_fft_and_keeps_its_bytes(scipy_fft):
    """Importing cqnls, cqnls.experiments and cqnls.cli loads neither scipy.fft nor
    scipy.special, and the transforms equal scipy's dst/idst whichever is imported first."""
    src = str(Path(cqnls.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    run = subprocess.run([sys.executable, "-c", _FRESH_IMPORT, scipy_fft], env=env,
                         capture_output=True, text=True, check=True)
    got = json.loads(run.stdout)
    assert got["loaded"] == ([] if scipy_fft == "after" else ["scipy.fft", "scipy.special"])
    assert got["equal"]


def test_missing_pocketfft_is_an_import_error_naming_the_directory(tmp_path):
    (tmp_path / "pocketfft.txt").write_text("not an extension")
    with pytest.raises(ImportError, match="no pypocketfft extension") as err:
        _load_pocketfft(tmp_path)
    assert str(tmp_path) in str(err.value)


def test_free_propagate_identity(grid64):
    u = gaussian(grid64)
    out = free_propagate(u, 0.0)
    assert np.max(np.abs(out.values - u.values)) <= 1e-12


def test_free_propagate_gaussian_closed_form(grid64):
    u = gaussian(grid64)
    out = free_propagate(u, 1.0)
    # closed form (1+4it)^(-3/2) exp(-r^2/(1+4it)); origin value 17^(-3/4)
    exact = (1 + 4j) ** -1.5 * np.exp(-grid64.nodes**2 / (1 + 4j))
    assert np.max(np.abs(out.values - exact)) <= 1e-10
    assert abs(out.values[0]) == pytest.approx(0.11944371675699593, abs=1e-3)


def test_free_propagate_unitary(grid64):
    rng = np.random.default_rng(2)
    u = random_smooth_field(grid64, rng)
    m0 = integrate_ball(grid64, np.abs(u.values) ** 2)
    m1 = integrate_ball(grid64, np.abs(free_propagate(u, 3.7).values) ** 2)
    assert abs(m1 - m0) / m0 <= 1e-12


@settings(max_examples=15, deadline=None)
@given(s=st.floats(0.01, 5.0), t=st.floats(0.01, 5.0))
def test_free_propagate_composes(s, t):
    g = RadialGrid(64.0, 2**11 - 1)
    u = gaussian(g)
    one = free_propagate(free_propagate(u, s), t)
    two = free_propagate(u, s + t)
    assert np.max(np.abs(one.values - two.values)) <= 1e-11


def test_dispersive_decay_rate():
    g = RadialGrid(256.0, 2**13 - 1)
    u = gaussian(g)
    ts = np.linspace(2.0, 20.0, 19)
    sups = [np.max(np.abs(free_propagate(u, t).values)) for t in ts]
    alpha = -np.polyfit(np.log(ts), np.log(sups), 1)[0]
    assert 1.40 <= alpha <= 1.60


def test_field_validation(grid64):
    with pytest.raises(ContractError):
        RadialField(grid64, np.zeros(grid64.n - 1))
    bad = np.zeros(grid64.n)
    bad[0] = np.nan
    with pytest.raises(ContractError):
        RadialField(grid64, bad)


@settings(max_examples=40, deadline=None)
@given(r_max=st.sampled_from([float("nan"), float("inf"), -float("inf"), 0.0, -0.0])
       | st.floats(max_value=0.0))
def test_grid_refuses_bad_radius(r_max):
    with pytest.raises(ContractError, match="r_max"):
        RadialGrid(r_max, 63)
