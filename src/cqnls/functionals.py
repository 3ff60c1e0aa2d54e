"""Scalar functionals of a radial field and the plateau cutoff.

Conventions (all integrals over the ball, measure 4*pi*r^2 dr):

    mass     = int |u|^2
    kinetic  = int |du/dr|^2
    l4, l6   = int |u|^4, int |u|^6
    energy   = kinetic/2 + l4/4 - l6/6          (conserved Hamiltonian)
    energy_c = kinetic/2 - l6/6                 (quintic-only part)
    k        = 2*(kinetic - l6) + 1.5*l4        (scaling derivative of energy)
    h        = (kinetic + l6)/6
    kc       = 2*(kinetic - l6)

so that energy = h + k/6 holds identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import ContractError
from .grid import FieldDerivative, RadialField, RadialGrid, integrate_ball, radial_derivative

# Closed forms for the static bubble W(r) = (1 + r^2/3)^(-1/2), the optimizer
# of the sharp Sobolev inequality l6 <= C3 * kinetic^3.  Both the kinetic norm
# and the L^6 norm of W equal 3*sqrt(3)*pi^2/4.
GROUND_STATE_KINETIC = 0.75 * math.sqrt(3.0) * math.pi**2
GROUND_STATE_ENERGY_C = GROUND_STATE_KINETIC / 3.0
SHARP_SOBOLEV_C3 = GROUND_STATE_KINETIC**-2


@dataclass
class FunctionalReport:
    """Every scalar functional of one field, from a single quadrature pass."""

    mass: float
    kinetic: float
    l4: float
    l6: float
    energy: float
    energy_c: float
    k: float
    h: float
    kc: float
    y_ratio: float


def report(u: RadialField | FieldDerivative) -> FunctionalReport:
    """All scalar functionals of a field, or of its FieldDerivative, in one pass."""
    d = FieldDerivative.of(u)
    w = d.grid.weights
    mass = float(w @ d.a2)
    kinetic = float(w @ d.du2)
    l4 = float(w @ d.a4)
    l6 = float(w @ d.a6)
    return FunctionalReport(
        mass=mass,
        kinetic=kinetic,
        l4=l4,
        l6=l6,
        energy=kinetic / 2 + l4 / 4 - l6 / 6,
        energy_c=kinetic / 2 - l6 / 6,
        k=2 * (kinetic - l6) + 1.5 * l4,
        h=(kinetic + l6) / 6,
        kc=2 * (kinetic - l6),
        y_ratio=kinetic / GROUND_STATE_KINETIC,
    )


def local_l6(u: RadialField | FieldDerivative, R: float) -> float:
    """Sextic mass on the nodes r <= R, a leading slice (the evacuation monitor),
    of a field or of its FieldDerivative.

    A ball that holds no node (R below the first node ``dr``) is refused, not
    read as zero.
    """
    grid = u.grid
    if R > grid.r_max:
        raise ContractError(f"local radius {R} exceeds the domain radius {grid.r_max}")
    if not R >= grid.nodes[0]:  # a NaN radius is refused here too
        raise ContractError(f"local radius {R} is below the node spacing {grid.dr}: "
                            f"its ball holds no node")
    k = int(np.searchsorted(grid.nodes, R, side="right"))  # the nodes are sorted
    return float(grid.weights[:k] @ FieldDerivative.of(u).a6[:k])


# ---------------------------------------------------------------------------
# cutoffs

def chi(s: NDArray) -> NDArray:
    """C^2 plateau cutoff: 1 on [0, 1/2], quintic-smoothstep decay to 0 at 1."""
    s = np.asarray(s, dtype=float)
    x = np.clip(2.0 * s - 1.0, 0.0, 1.0)
    ramp = 1.0 - x**3 * (10.0 - 15.0 * x + 6.0 * x * x)
    return np.where(s >= 1.0, 0.0, np.where(s <= 0.5, 1.0, ramp))


def chi_derivatives(s: NDArray) -> tuple[NDArray, NDArray]:
    """First and second derivative of chi with respect to s."""
    s = np.asarray(s, dtype=float)
    x = np.clip(2.0 * s - 1.0, 0.0, 1.0)
    on_ramp = (s > 0.5) & (s < 1.0)
    d1 = np.where(on_ramp, -2.0 * (30.0 * x**2 - 60.0 * x**3 + 30.0 * x**4), 0.0)
    d2 = np.where(on_ramp, -4.0 * (60.0 * x - 180.0 * x**2 + 120.0 * x**3), 0.0)
    return d1, d2


def chi_profile(grid: RadialGrid, R: float) -> tuple[NDArray, NDArray, NDArray]:
    """chi_R(r) = chi(r/R), chi_R' and Lap chi_R = chi_R'' + 2 chi_R'/r on the grid nodes."""
    if not R > 0:
        raise ContractError("cutoff radius must be positive")
    s = grid.nodes / R
    d1, d2 = chi_derivatives(s)
    chi_r = d1 / R
    return chi(s), chi_r, d2 / R**2 + 2.0 * chi_r / grid.nodes


def cutoff_identity_residual(u: RadialField, R: float) -> float:
    """Discrete check of int chi^2 |grad u|^2 = int |grad(chi u)|^2 + int chi Lap(chi) |u|^2.

    Returns |lhs - rhs|/(1 + |lhs|); a small value certifies that quadrature
    and differentiation are mutually consistent under integration by parts.
    """
    grid = u.grid
    ch, _, lap_chi = chi_profile(grid, R)
    lhs = integrate_ball(grid, ch**2 * np.abs(radial_derivative(grid, u.values)) ** 2)
    d_chu = radial_derivative(grid, ch * u.values)
    rhs = integrate_ball(grid, np.abs(d_chu) ** 2) + integrate_ball(
        grid, ch * lap_chi * np.abs(u.values) ** 2
    )
    return abs(lhs - rhs) / (1.0 + abs(lhs))

