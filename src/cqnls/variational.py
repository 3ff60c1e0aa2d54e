"""Ground-state bubble, sharp thresholds, K+/K- classification, scalings, cubic barrier.

The static bubble W(r) = (1 + r^2/3)^(-1/2) solves -Lap W = W^5 and
saturates the sharp Sobolev inequality l6 <= C3 * kinetic^3.  Its kinetic
norm equals its L^6 norm (both 3*sqrt(3)*pi^2/4 ~= 12.821), and the
dichotomy threshold is the quintic-only energy at W,
ec_W = kinetic(W)/3 ~= 4.2737.

W is not square-integrable (|W| ~ sqrt(3)/r), so dynamical experiments use
cutoff bubbles.  Classification measures against the closed forms
GROUND_STATE_ENERGY_C and GROUND_STATE_KINETIC and takes no thresholds.
The threshold integrals converge absolutely (integrands decay like r^-4 and
r^-6), and ``thresholds(grid)`` takes them by quadrature on a large grid
without a cutoff, only as a check of the closed forms: it returns
``report(ground_state(grid))``, whose kinetic, l6 and energy_c are the
quadrature ||grad W||^2, ||W||_6^6 and ec_W.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import AccuracyError, ContractError, ResolutionError
from .functionals import (
    GROUND_STATE_ENERGY_C,
    GROUND_STATE_KINETIC,
    FunctionalReport,
    report,
)
from .grid import RadialField, RadialGrid, cubic_resample

K_PLUS = "KPlus"
K_MINUS = "KMinus"
ABOVE_THRESHOLD = "AboveThreshold"


def bubble(r: NDArray, amplitude: float = 1.0, scale: float = 1.0) -> NDArray:
    """amplitude * sqrt(scale) * W(scale * r); the scaling keeps kinetic and l6 of W."""
    return amplitude * np.sqrt(scale) * (1.0 + (scale * r) ** 2 / 3.0) ** -0.5


def ground_state(grid: RadialGrid) -> RadialField:
    """The bubble W evaluated exactly on the grid nodes."""
    return RadialField(grid, bubble(grid.nodes))


def thresholds(grid: RadialGrid) -> FunctionalReport:
    """``report(ground_state(grid))``, the bubble norms by quadrature on ``grid``: a
    check of the closed forms.  Its kinetic and l6 agree up to domain truncation
    (the kinetic integrand has an r^-4 tail, so the ball of radius r_max misses
    ~ 12*pi/r_max)."""
    if grid.r_max < 100.0:
        raise AccuracyError(
            f"r_max = {grid.r_max} is too small for the slowly decaying bubble; "
            f"the kinetic tail beyond the ball is ~ {12 * math.pi / grid.r_max:.3f} "
            "(need r_max >= 100)"
        )
    rep = report(ground_state(grid))
    if abs(rep.kinetic - rep.l6) > 1e-2 * rep.kinetic:
        raise AccuracyError(
            f"bubble norms disagree beyond tolerance on this grid: "
            f"kinetic {rep.kinetic:.5f} vs l6 {rep.l6:.5f}"
        )
    return rep


@dataclass
class Classification:
    """Sign data placing a field relative to the dichotomy threshold."""

    tag: str
    report: FunctionalReport
    energy_margin: float  # ec_W - E(u); positive below threshold
    k_value: float
    grad_margin: float  # ||grad W||^2 - ||grad u||^2
    kbar_agrees: bool  # K-sign test and gradient-comparison test coincide


def classify(u: RadialField) -> Classification:
    rep = report(u)
    energy_margin = GROUND_STATE_ENERGY_C - rep.energy
    grad_margin = GROUND_STATE_KINETIC - rep.kinetic
    if energy_margin <= 0:
        tag = ABOVE_THRESHOLD
    elif rep.k >= 0:
        tag = K_PLUS
    else:
        tag = K_MINUS
    kbar_agrees = (rep.k >= 0) == (grad_margin >= 0)
    return Classification(tag, rep, energy_margin, rep.k, grad_margin, kbar_agrees)


# ---------------------------------------------------------------------------
# the two scaling families

def _support_radius(u: RadialField) -> float:
    amax = np.max(np.abs(u.values))
    if amax == 0:
        return 0.0
    idx = np.nonzero(np.abs(u.values) > 1e-8 * amax)[0]
    return float(u.grid.nodes[idx[-1]])


def _rescale(u: RadialField, amplitude: float, stretch: float) -> RadialField:
    """amplitude * u(stretch * r), resampled cubically onto the same grid."""
    supp = _support_radius(u)
    if supp > 0 and supp / stretch < 4 * u.grid.dr:
        raise ResolutionError(
            f"rescaled support {supp / stretch:.3g} falls below 4 nodes "
            f"(dr = {u.grid.dr:.3g})"
        )
    vals = amplitude * cubic_resample(u, stretch * u.grid.nodes)
    return RadialField(u.grid, vals)


def scale_phi(u: RadialField, lam: float) -> RadialField:
    """Mass-preserving dilation e^{3*lam} u(e^{2*lam} r).

    The derivative of the energy along this family at lam = 0 is the
    functional k of the report.
    """
    if lam == 0:
        return u.copy()
    return _rescale(u, math.exp(3 * lam), math.exp(2 * lam))


def scale_f12(u: RadialField, lam: float) -> RadialField:
    """h-preserving dilation e^{3*lam/2} u(e^{3*lam} r).

    Leaves kinetic, l6 (hence h) invariant while the quartic norm scales by
    e^{-3*lam}, so k along the family interpolates between k and kc:

        k(u^lam) = kc(u) + 1.5 * e^{-3*lam} * l4(u).
    """
    if lam == 0:
        return u.copy()
    return _rescale(u, math.exp(1.5 * lam), math.exp(3 * lam))


# ---------------------------------------------------------------------------
# energy trapping

def cubic_barrier(y0: float, delta0: float) -> float:
    """Continuity-argument ceiling for y(t) = kinetic(t)/grad_w_sq.

    Returns the smallest positive root of (3/2) y - (1/2) y^3 = 1 - delta0.
    The cubic increases from 0 to 1 on [0, 1], so the root exists and is
    unique there; the hypothesis of the argument requires y0 below it.
    With y = 2 sin(theta) the cubic is sin(3 theta), so the root is
    2 sin(arcsin(1 - delta0) / 3).
    """
    if not (0 < delta0 < 1):
        raise ContractError("delta0 must lie in (0, 1)")
    if not (0 <= y0 < 1):
        raise ContractError("y0 must lie in [0, 1)")
    root = 2.0 * math.sin(math.asin(1.0 - delta0) / 3.0)
    if y0 >= root:
        raise ContractError(
            f"hypothesis violated: y0 = {y0:.6f} is not below the barrier {root:.6f}"
        )
    return root


__all__ = [
    "ABOVE_THRESHOLD",
    "Classification",
    "GROUND_STATE_ENERGY_C",
    "GROUND_STATE_KINETIC",
    "K_MINUS",
    "K_PLUS",
    "classify",
    "bubble",
    "cubic_barrier",
    "ground_state",
    "scale_f12",
    "scale_phi",
    "thresholds",
]
