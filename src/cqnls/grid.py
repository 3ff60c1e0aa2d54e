"""Radial grid, quadrature, differentiation and the sine-spectral Laplacian.

A ball of radius ``r_max`` is discretized on the uniform interior nodes
``r_j = j*dr`` with ``dr = r_max/(n+1)``.  Radial complex profiles u(r) are
manipulated through the substitution w = r*u, which turns the 3D radial
Laplacian into a plain second derivative with Dirichlet ends w(0) = 0 and
w(r_max) = 0.  On these nodes the eigenbasis of w'' is sin(k*pi*r/r_max),
i.e. a type-I discrete sine transform, so the Laplacian and the free
propagator e^{it*Laplacian} are diagonal.

Grid sizes of the form 2**k - 1 map the DST-I onto a radix-2 FFT and are
roughly an order of magnitude faster than neighbouring sizes.

The sine transforms are scipy's compiled pocketfft DST-I, the kernel that
``scipy.fft.dst``/``idst`` call.  This module loads that extension from
scipy's ``fft/_pocketfft`` directory (see ``_load_pocketfft``) instead of
importing the ``scipy.fft`` package, whose import also loads
``scipy.special`` (through its fftlog module) and took about half the
start-up time of ``import cqnls``.  The bytes are the same, but
``scipy.fft.set_workers`` and ``set_backend`` do not reach these
transforms, which always run on one thread.

Importing this module tells glibc's allocator to keep freed memory in the
process (see ``_keep_freed_memory``).
"""

from __future__ import annotations

import ctypes
import importlib.util
from dataclasses import dataclass, field
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from pathlib import Path
from types import ModuleType
from typing import Callable, ClassVar

import numpy as np
from numpy.typing import NDArray

from .errors import ContractError

# mallopt parameter numbers, from glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> bool:
    """Keep freed heap memory in the process instead of returning it to the kernel.

    By default glibc serves blocks of 128 KiB and more (one 16383-node
    complex array is 256 KiB) with mmap and unmaps them on free, and it trims
    the heap top once 128 KiB of it are free.  A step allocates and frees
    the same arrays and transform scratch every time, so each step would
    fault all of that memory in again.  Raising both thresholds keeps it
    mapped.  Both are set: setting either one switches off glibc's dynamic
    adjustment of the pair.  Returns whether the allocator took the
    settings; without glibc's ``mallopt`` it does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    return (mallopt(_M_MMAP_THRESHOLD, 32 * 2**20) == 1  # glibc's maximum
            and mallopt(_M_TRIM_THRESHOLD, 256 * 2**20) == 1)


_FREED_MEMORY_KEPT = _keep_freed_memory()


def _load_pocketfft(directory: Path) -> ModuleType:
    """Load the compiled ``pypocketfft`` extension found in ``directory``.

    The module keeps the name scipy gives it, so its init function is the one
    the file exports and a later ``import scipy.fft`` finds the same
    initialized extension; it is not entered in ``sys.modules``.
    """
    for suffix in EXTENSION_SUFFIXES:
        path = directory / f"pypocketfft{suffix}"
        if path.is_file():
            loader = ExtensionFileLoader("scipy.fft._pocketfft.pypocketfft", str(path))
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_file_location(loader.name, path, loader=loader))
            loader.exec_module(module)
            return module
    raise ImportError(f"no pypocketfft extension ({', '.join(EXTENSION_SUFFIXES)}) "
                      f"in {directory}")


def _scipy_pocketfft_dir() -> Path:
    """scipy's ``fft/_pocketfft`` directory, found without importing scipy."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("cqnls needs scipy, whose pocketfft extension it loads")
    return Path(spec.submodule_search_locations[0]) / "fft" / "_pocketfft"


_pocketfft = _load_pocketfft(_scipy_pocketfft_dir())


@dataclass(frozen=True)
class RadialGrid:
    """Uniform interior nodes of [0, r_max] with 4*pi*r^2 dr quadrature.

    Attributes:
        r_max: Ball radius (Dirichlet end for w = r*u).
        n: Interior node count; nodes exclude r = 0 and r = r_max.

    A config's ``[grid]`` section is a RadialGrid, so these checks run when it
    loads.  It is frozen: ``dr``, ``nodes`` and ``weights`` are built from
    r_max and n once, and equality, hashing and pickling read only r_max and n.
    """

    r_max: float = 256.0
    n: int = 2**14 - 1

    def __post_init__(self):
        if not (self.r_max > 0 and np.isfinite(self.r_max)):
            raise ContractError(f"r_max must be positive and finite, got {self.r_max!r}")
        if self.n < 8:
            raise ContractError(f"need at least 8 interior nodes, got {self.n!r}")
        dr = self.r_max / (self.n + 1)
        nodes = np.arange(1, self.n + 1) * dr
        object.__setattr__(self, "dr", dr)
        object.__setattr__(self, "nodes", nodes)
        # composite trapezoid on the 4*pi*r^2 measure; both endpoint values
        # are taken as 0 (integrands are expected to vanish at r=0 and r_max)
        object.__setattr__(self, "weights", 4.0 * np.pi * nodes**2 * dr)

    def __reduce__(self):
        return RadialGrid, (self.r_max, self.n)


@dataclass
class RadialField:
    """Complex radial profile u(r_j) on a grid; the state of the PDE."""

    grid: RadialGrid
    values: NDArray[np.complex128]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.grid.n,):
            raise ContractError(
                f"field has {self.values.shape} values for a grid of {self.grid.n} nodes"
            )
        if not np.all(np.isfinite(self.values.view(float))):
            raise ContractError("field contains non-finite entries")

    def copy(self) -> "RadialField":
        return RadialField(self.grid, self.values.copy())


@dataclass
class SpectralPlan:
    """Diagonalization data for the Dirichlet Laplacian on w = r*u."""

    grid: RadialGrid
    eigenvalues: NDArray[np.float64] = field(init=False)
    # the nodes cast to complex once, for products and quotients with complex fields
    complex_nodes: NDArray[np.complex128] = field(init=False)

    def __post_init__(self):
        k = np.arange(1, self.grid.n + 1)
        self.eigenvalues = (k * np.pi / self.grid.r_max) ** 2
        self.complex_nodes = self.grid.nodes.astype(np.complex128)

    _cache: ClassVar[dict] = {}

    @classmethod
    def for_grid(cls, grid: RadialGrid) -> "SpectralPlan":
        plan = cls._cache.get((grid.r_max, grid.n))
        if plan is None:
            plan = cls(grid)
            cls._cache[(grid.r_max, grid.n)] = plan
        return plan

    def forward(self, w: NDArray) -> NDArray:
        return _sine_transform(w, inorm=0)

    def inverse(self, c: NDArray) -> NDArray:
        return _sine_transform(c, inorm=2)


def _sine_transform(x: NDArray, inorm: int) -> NDArray:
    """DST-I along the last axis, one pocketfft call per array.

    The call is ``pypocketfft.dst(pairs, 1, (-2,), inorm, None, 1)``: type 1,
    a new output array, one thread.  ``inorm`` is pocketfft's normalization:
    0 leaves the sum unscaled (``scipy.fft.dst``), 2 divides it by
    2*(n + 1) (``scipy.fft.idst``).  scipy's wrappers make this same call,
    so the bytes equal theirs; going to the extension directly spares the
    import of ``scipy.fft`` and ``scipy.special``, which the transform never
    uses.

    scipy splits a complex input into two real transforms.  A contiguous
    complex128 array is the same memory as a float array with a trailing
    axis of (real, imag) pairs, so transforming that view along the
    second-to-last axis does both halves in one call.  The output is
    bitwise identical to ``scipy.fft.dst``/``idst(x, type=1)``.  Other dtypes
    are cast to complex128 first, which is exact.

    The complex result is a view of the float output.  numpy never reuses a
    view in place as a temporary, so from 256 KiB (16384 nodes) on, where it
    would have reused the plain call's output, a product such as
    ``free * forward(w)`` keeps its operand order and may differ in the
    last bit from the same product on the plain call.
    """
    x = np.ascontiguousarray(x, dtype=np.complex128)
    pairs = x.view(np.float64).reshape(x.shape + (2,))
    out = _pocketfft.dst(pairs, 1, (-2,), inorm, None, 1)
    return np.ascontiguousarray(out).view(np.complex128)[..., 0]


def integrate_ball(grid: RadialGrid, samples: NDArray) -> float:
    """Quadrature of a real profile over the ball: ``grid.weights @ f``.

    The weights are 4*pi*r_j^2 * dr; endpoint contributions at r = 0 and
    r = r_max are included with value 0, which is exact for integrands
    vanishing there.
    """
    samples = np.asarray(samples)
    if samples.shape != (grid.n,):
        raise ContractError("sample array does not match the grid")
    return float(grid.weights @ samples)


def radial_derivative(grid: RadialGrid, values: NDArray) -> NDArray:
    """4th-order finite-difference d/dr with one-sided closure at both ends.

    The interior stencil (y[j-2] - y[j+2] + 8 (y[j+1] - y[j-1])) / (12 h) is
    taken in two passes over the nodes, the outer differences first, and
    multiplied by 1/(12 h).  It rounds the same four terms as the textbook
    order and differs from it by a few ulp of those terms.
    """
    return radial_derivative_on(grid, values, 0, len(values))


def radial_derivative_on(grid: RadialGrid, values: NDArray, lo: int, hi: int) -> NDArray:
    """radial_derivative(grid, values)[lo:hi], computed on those nodes only.

    The interior stencil reads two nodes past the window; a one-sided
    closure is evaluated only for a grid end inside the window.
    """
    y = np.asarray(values)
    n, h = len(y), grid.dr
    d = np.empty_like(y[lo:hi])
    a, b = max(lo, 2), min(hi, n - 2)  # the window's interior nodes
    if a < b:
        t = y[a - 2:b - 2] - y[a + 2:b + 2]
        t += 8 * (y[a + 1:b + 1] - y[a - 1:b - 1])
        d[a - lo:b - lo] = t * (1 / (12 * h))
    if lo <= 0 < hi:
        d[-lo] = (-25 * y[0] + 48 * y[1] - 36 * y[2] + 16 * y[3] - 3 * y[4]) / (12 * h)
    if lo <= 1 < hi:
        d[1 - lo] = (-3 * y[0] - 10 * y[1] + 18 * y[2] - 6 * y[3] + y[4]) / (12 * h)
    if lo <= n - 2 < hi:
        d[n - 2 - lo] = (3 * y[-1] + 10 * y[-2] - 18 * y[-3] + 6 * y[-4] - y[-5]) / (12 * h)
    if lo <= n - 1 < hi:
        d[n - 1 - lo] = (25 * y[-1] - 48 * y[-2] + 36 * y[-3] - 16 * y[-4] + 3 * y[-5]) / (12 * h)
    return d


class FieldDerivative:
    """The pointwise arrays of one state, computed once, that its diagnostics share.

    du/dr, |u|^2, |u|^4, |u|^6 and |du/dr|^2 are computed when built, so the
    diagnostics of one state take one derivative, one square and one cube.
    |u|^6 is |u|^4 * |u|^2, bitwise the product |u|^2 * |u|^2 * |u|^2.  The
    values are not checked: a recorded state may be non-finite.
    """

    def __init__(self, grid: RadialGrid, values: NDArray):
        self.grid, self.values = grid, values
        self.du = radial_derivative(grid, values)
        self.a2 = np.abs(values) ** 2
        self.a4 = self.a2 * self.a2
        self.a6 = self.a4 * self.a2
        self.du2 = np.abs(self.du) ** 2

    @classmethod
    def of(cls, u: RadialField | FieldDerivative) -> FieldDerivative:
        """u itself if it is a FieldDerivative, else the FieldDerivative of the field u."""
        return u if isinstance(u, cls) else cls(u.grid, u.values)


def _boundary_lift(grid: RadialGrid, w: NDArray) -> NDArray:
    """Subtract the linear ramp matching the extrapolated boundary value.

    The DST-I basis assumes w(r_max) = 0.  Slowly decaying profiles (the
    static bubble in particular) have w = r*u tending to a nonzero constant,
    whose odd periodic extension would ring through the second derivative.
    The ramp c*r/r_max carries the boundary value and has zero Laplacian,
    so subtracting it is exact.  c is a cubic extrapolation from the last
    four nodes.
    """
    c = 4.0 * w[-1] - 6.0 * w[-2] + 4.0 * w[-3] - w[-4]
    return w - c * (grid.nodes / grid.r_max)


def laplacian(u: RadialField) -> RadialField:
    """3D radial Laplacian, computed as (1/r) * (sine-spectral (r*u)'')."""
    grid = u.grid
    plan = SpectralPlan.for_grid(grid)
    w = _boundary_lift(grid, grid.nodes * u.values)
    d2 = plan.inverse(-plan.eigenvalues * plan.forward(w))
    return RadialField(grid, d2 / grid.nodes)


def free_propagate(u: RadialField, t: float) -> RadialField:
    """Exact free Schrodinger flow: multiply sine coefficients by e^{-i*lam_k*t}."""
    return free_flow(u)(t)


def free_flow(u: RadialField) -> Callable[[float], RadialField]:
    """t -> free_propagate(u, t), with the sine coefficients of r*u taken once."""
    grid = u.grid
    plan = SpectralPlan.for_grid(grid)
    c = plan.forward(grid.nodes * u.values)

    def at(t: float) -> RadialField:
        w = plan.inverse(np.exp(-1j * plan.eigenvalues * t) * c)
        return RadialField(grid, w / grid.nodes)
    return at


def _cubic_taps(grid: RadialGrid, radii: NDArray):
    """Lattice taps b-1 .. b+2 around each radius, as (index, scale, weights):
    a tap reads w = scale * u[index], with scale r_j on the grid, -r_1 at the
    mirrored tap j = -1, and 0 at r = 0, past r_max and for a radius past r_max."""
    radii = np.asarray(radii)
    x = radii / grid.dr
    b = np.clip(np.floor(x).astype(np.int64), 0, grid.n)
    t = x - b
    tp1, tm1, tm2 = t + 1, t - 1, t - 2
    coef = (
        -t * tm1 * tm2 / 6,
        tp1 * tm1 * tm2 / 2,
        -tp1 * t * tm2 / 2,
        tp1 * t * tm1 / 6,
    )
    index = b + np.arange(-2, 2)[:, None]  # tap j = b-1 .. b+2 reads node j-1
    off = (index < 0) | (index >= grid.n)
    index[off] = 0  # a tap off the lattice reads node 0
    scale = grid.nodes[index]
    scale[off | ~(radii <= grid.r_max)] = 0.0
    scale[0, b == 0] = -grid.nodes[0]  # the mirrored tap j = -1
    return index, scale, coef


def _cubic_sum(values: NDArray, index: NDArray, scale: NDArray, coef: tuple):
    """The Lagrange sum over the four taps of w = r*u that _cubic_taps describes."""
    w = scale * values[index]
    c0, c1, c2, c3 = coef
    return c0 * w[0] + c1 * w[1] + c2 * w[2] + c3 * w[3]


def cubic_resample(u: RadialField, radii: NDArray) -> NDArray:
    """Values of u at arbitrary radii by cubic Lagrange interpolation.

    Interpolates the odd extension of w = r*u on the uniform lattice (w(0)=0
    exactly, w(-r_j) = -w(r_j)), then divides by the query radius.  Queries
    beyond r_max return 0 (zero extension).
    """
    inside = radii <= u.grid.r_max  # taps and sums are built for these radii only
    r = radii[inside]
    out = np.zeros(radii.shape, dtype=np.result_type(u.values, float))
    out[inside] = _cubic_sum(u.values, *_cubic_taps(u.grid, r)) / np.where(r > 0, r, 1.0)
    return out


@dataclass(frozen=True)
class CubicPoint:
    """cubic_resample at one fixed radius > 0, its taps built once per
    (grid, radius) so that evaluating it reads four nodes."""

    radius: float
    index: NDArray
    scale: NDArray
    coef: tuple

    @classmethod
    def at(cls, grid: RadialGrid, radius: float) -> "CubicPoint":
        if not radius > 0:
            raise ContractError("interpolation radius must be positive")
        index, scale, coef = _cubic_taps(grid, np.array([radius]))
        return cls(radius, index[:, 0], scale[:, 0], tuple(c[0] for c in coef))

    def __call__(self, values: NDArray) -> complex:
        return _cubic_sum(values, self.index, self.scale, self.coef) / self.radius
