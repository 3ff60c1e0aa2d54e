"""Piecewise Morawetz weight, the action M(t), its rate identity, and the
time-averaged local L^6 estimate.

The weight is a(r) = r^2 inside radius R and a(r) = 3R*r beyond 2R, glued on
(R, 2R] by the unique degree-7 polynomial matching value and three
derivatives at both junctions (so the distributional bilaplacian carries no
boundary terms).  In the dimensionless variable s = (r - R)/R the patch is

    q(s) = 1 + 2s + s^2 + 80 s^4 - 193 s^5 + 161 s^6 - 46 s^7,   a = R^2 q(s).

The patch is monotone (a' >= 0 everywhere) but cannot be convex: any
transition between these two pinned branches needs average slope 5R across
the annulus while ending at slope 3R, so a'' < 0 somewhere in (R, 2R) for
*every* admissible interpolant.  Both properties hold for every R, since q
does not depend on it; tests/test_morawetz.py checks them exactly on q's
integer coefficients.

For a radial field the rate of M(t) = 2 Im int conj(u) u_r a'(r) splits as

    dM/dt = 4 int a''|u_r|^2 - int |u|^2 LapLap(a)
            + int Lap(a) (|u|^4 - (4/3)|u|^6),

grouped by region into (main, err1, err2): ball, exterior, transition.
On the ball this is 8*(kinetic - l6 + 0.75*l4) of the localized field; the
angular-derivative part of the Hessian term vanishes identically on radial
data and is hard-wired to zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .errors import ContractError
from .grid import CubicPoint, FieldDerivative, RadialField, RadialGrid, radial_derivative_on

# dimensionless transition patch q(s) and its derivatives (exact integers)
_Q = np.array([1.0, 2.0, 1.0, 0.0, 80.0, -193.0, 161.0, -46.0])
_Q1 = np.polynomial.polynomial.polyder(_Q)
_Q2 = np.polynomial.polynomial.polyder(_Q, 2)
_Q3 = np.polynomial.polynomial.polyder(_Q, 3)
_polyval = np.polynomial.polynomial.polyval

# a, a', a'' and a''' on each branch as functions of (r, R): the ball r <= R,
# the transition annulus R < r <= 2R (through s = (r - R)/R) and the exterior
_BALL = (lambda r, R: r**2, lambda r, R: 2 * r, lambda r, R: 2.0, lambda r, R: 0.0)
_TRANSITION = (
    lambda r, R: R**2 * _polyval((r - R) / R, _Q),
    lambda r, R: R * _polyval((r - R) / R, _Q1),
    lambda r, R: _polyval((r - R) / R, _Q2),
    lambda r, R: _polyval((r - R) / R, _Q3) / R,
)
_EXTERIOR = (lambda r, R: 3 * R * r, lambda r, R: 3 * R, lambda r, R: 0.0, lambda r, R: 0.0)
_BRANCHES = (_BALL, _TRANSITION, _EXTERIOR)


@dataclass(frozen=True)
class MorawetzWeight:
    """Evaluators for the piecewise radial weight and its derivatives.

    Frozen: its node cache is keyed by grid alone, so R must not change."""

    R: float
    _node_cache: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if not (self.R > 0 and np.isfinite(self.R)):
            raise ContractError("weight radius must be positive and finite")

    def on_grid(self, grid: RadialGrid) -> "WeightNodes":
        """The weight's node vectors on ``grid``, built on first use and kept."""
        nodes = self._node_cache.get(grid)
        if nodes is None:
            nodes = self._node_cache[grid] = WeightNodes.build(self, grid)
        return nodes

    def _derivative(self, r: NDArray, k: int) -> NDArray:
        """The k-th derivative of a at radii r, each branch on its region."""
        r = np.asarray(r, dtype=float)
        inner = r <= self.R
        outer = r > 2 * self.R
        out = np.empty_like(r)
        for mask, branch in zip((inner, ~inner & ~outer, outer), _BRANCHES):
            out[mask] = branch[k](r[mask], self.R)
        return out

    def a(self, r: NDArray) -> NDArray:
        return self._derivative(r, 0)

    def a_r(self, r: NDArray) -> NDArray:
        return self._derivative(r, 1)

    def a_rr(self, r: NDArray) -> NDArray:
        return self._derivative(r, 2)

    def delta_a(self, r: NDArray) -> NDArray:
        """3D Laplacian of the weight: a'' + 2 a'/r (6 inside, 6R/r outside)."""
        return self.a_rr(r) + 2.0 * self.a_r(r) / np.asarray(r, dtype=float)

    def delta_a_prime(self, r: NDArray) -> NDArray:
        """d/dr of the Laplacian; continuous across the junctions (a is C^3)."""
        r = np.asarray(r, dtype=float)
        return self._derivative(r, 3) + 2.0 * self.a_rr(r) / r - 2.0 * self.a_r(r) / r**2


@dataclass(frozen=True)
class WeightNodes:
    """A weight's quadrature-weighted node vectors on one grid, shared by every
    state on it.

    Each vector is the quadrature weight w_j = 4 pi r_j^2 dr times a weight
    factor, so every integral of M(t) and dM/dt is one dot product with a
    pointwise array of the state.  The masks of the three regions are
    contiguous node ranges: the ball r <= R is nodes[:lo], the annulus
    R < r <= 2R is nodes[lo:hi] and the exterior is nodes[hi:].  a'' vanishes
    on the exterior, so ``weighted_a_rr4`` stops at the annulus end.
    """

    lo: int
    hi: int
    weighted_a_r2: NDArray  # w 2 a', every node
    weighted_a_rr4: NDArray  # w 4 a'', nodes[:hi]
    weighted_delta_a: NDArray  # w Delta a, every node
    weighted_delta_a_prime: NDArray  # w (Delta a)', the annulus
    edge: CubicPoint  # u(2R)

    @classmethod
    def build(cls, w: MorawetzWeight, grid: RadialGrid) -> "WeightNodes":
        r, q = grid.nodes, grid.weights
        lo = int(np.count_nonzero(r <= w.R))
        hi = grid.n - int(np.count_nonzero(r > 2 * w.R))
        return cls(
            lo=lo,
            hi=hi,
            weighted_a_r2=q * (2.0 * w.a_r(r)),
            weighted_a_rr4=q[:hi] * (4.0 * w.a_rr(r[:hi])),
            weighted_delta_a=q * w.delta_a(r),
            weighted_delta_a_prime=q[lo:hi] * w.delta_a_prime(r[lo:hi]),
            edge=CubicPoint.at(grid, 2.0 * w.R),
        )


def weight_build(R: float) -> MorawetzWeight:
    """The weight of radius R; refuses an R that is not positive and finite."""
    return MorawetzWeight(R)


def morawetz_action(u: RadialField | FieldDerivative, w: MorawetzWeight) -> float:
    """M = 2 int Im(conj(u) du/dr) a'(r) over the ball, of a field or of its
    FieldDerivative."""
    d = FieldDerivative.of(u)
    current = np.imag(np.conj(d.values) * d.du)
    return float(w.on_grid(d.grid).weighted_a_r2 @ current)


def _bilaplacian_term(d: FieldDerivative, w: MorawetzWeight, nodes: WeightNodes) -> float:
    """-int LapLap(a) |u|^2, supported on the transition annulus.

    LapLap(a) jumps at both junctions, which a node-based quadrature samples
    at O(dr * jump) error; one integration by parts trades it for the
    continuous (Delta a)' against (|u|^2)' plus the exact surface value
    4 pi (2R)^2 (Delta a)'(2R) |u(2R)|^2 = -24 pi R |u(2R)|^2
    (the inner surface vanishes since Delta a is constant there).
    """
    da2 = radial_derivative_on(d.grid, d.a2, nodes.lo, nodes.hi)
    smooth = float(nodes.weighted_delta_a_prime @ da2)
    u_edge = nodes.edge(d.values)
    return 24.0 * np.pi * w.R * float(np.abs(u_edge) ** 2) + smooth


def morawetz_rate(u: RadialField | FieldDerivative,
                  w: MorawetzWeight) -> tuple[float, float, float]:
    """The three regional groups of dM/dt: (ball, exterior, transition), of a
    field or of its FieldDerivative."""
    d = FieldDerivative.of(u)
    nodes = w.on_grid(d.grid)
    lo, hi = nodes.lo, nodes.hi
    # 4 Re(conj(u_i) a_ij u_j) = 4 a''|u_r|^2 on radial data; the tangential
    # part 12R/r |angular grad u|^2 of the exterior group is identically 0,
    # and so is a'' there.
    kin, pot = d.du2, d.a4 - (4.0 / 3.0) * d.a6
    wk, wp = nodes.weighted_a_rr4, nodes.weighted_delta_a
    main = float(wk[:lo] @ kin[:lo] + wp[:lo] @ pot[:lo])
    err1 = float(wp[hi:] @ pot[hi:])
    err2 = (float(wk[lo:hi] @ kin[lo:hi] + wp[lo:hi] @ pot[lo:hi])
            + _bilaplacian_term(d, w, nodes))
    return main, err1, err2


# kept only because perfbench/tracer.py looks up MorawetzSeries.to_csv when it is
# imported; no run writes one (a run's per-step record is Trajectory.to_csv)
@dataclass
class MorawetzSeries:
    """Per-step action values with the three rate groups."""

    times: NDArray
    m_values: NDArray
    rate_main: NDArray
    rate_err1: NDArray
    rate_err2: NDArray

    def fd_rate(self) -> NDArray:
        """Centered finite difference of m_values (endpoints one-sided)."""
        t, m = self.times, self.m_values
        out = np.empty_like(m)
        out[1:-1] = (m[2:] - m[:-2]) / (t[2:] - t[:-2])
        out[0] = (m[1] - m[0]) / (t[1] - t[0])
        out[-1] = (m[-1] - m[-2]) / (t[-1] - t[-2])
        return out

    def to_csv(self, path) -> None:
        data = np.column_stack(
            [self.times, self.m_values, self.rate_main, self.rate_err1,
             self.rate_err2, self.fd_rate()]
        )
        np.savetxt(path, data, delimiter=",", header="t,M,main,err1,err2,fd_rate",
                   comments="")


def identity_residual(traj, w: MorawetzWeight) -> float:
    """Max over interior steps of the normalized dM/dt identity defect.

    |centered-difference dM/dt - (main + err1 + err2)| / (1 + |rate|).
    """
    if traj.stepper.morawetz_radius != w.R:
        raise ContractError("trajectory was recorded with a different weight radius")
    s = traj.series
    rate = s["morawetz_main"] + s["morawetz_err1"] + s["morawetz_err2"]
    return centred_residual(traj.times, s["morawetz_m"], rate)


def centred_residual(times: NDArray, values: NDArray, rate: NDArray) -> float:
    """Max over interior steps of |centred-difference d(values)/dt - rate| / (1 + |rate|)."""
    if len(times) < 3:
        raise ContractError("need at least three recorded steps")
    fd = (values[2:] - values[:-2]) / (times[2:] - times[:-2])
    res = np.abs(fd - rate[1:-1]) / (1.0 + np.abs(rate[1:-1]))
    return float(np.max(res))


def averaged_local_l6(traj, R: float) -> float:
    """Time average (1/T) int_0^T of the local sextic mass inside radius R.

    Uses the per-step l6_local series recorded by evolve (evacuation_radius
    must match R).
    """
    if traj.stepper.evacuation_radius != R:
        raise ContractError("trajectory was recorded with a different local L^6 radius")
    times, vals = traj.times, traj.series["l6_local"]
    T = times[-1] - times[0]
    if T <= 0:
        return float(vals[0])
    return float(np.trapezoid(vals, times) / T)
