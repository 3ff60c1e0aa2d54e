"""Strang-split spectral time evolution of i u_t + Lap u = |u|^2 u - |u|^4 u.

One step of size dt is nonlinear half-step, free step, nonlinear half-step.
Both substeps are unitary, so mass is conserved to roundoff; the splitting
is symmetric, so the scheme is second order and time-reversible under
conjugation.  A step starts and ends in physical space, where every
diagnostic is taken.

The exact nonlinear flow keeps |u| fixed, so one phase factor per step,
q = exp(-i (dt/2)(|y|^2 - |y|^4)) taken from the state y after the free
flow, serves twice: y*q is the recorded state that closes the step, and
y*q*q starts the free flow of the next one.  A step thus takes one cos and
one sin of the real phase where it is not below roundoff, written into the
factor (bitwise the complex exp; see ``_phase_factor``), and one forward and
one inverse sine transform.  Its products and quotients take the nodes (cast
once per grid on the ``SpectralPlan``) and the sponge multiplier as
complex128, so numpy casts no real operand per step; the cast is exact and
the bytes are unchanged.
The sponge, when on, damps y before q is taken, so q is exact for the
damped modulus too.

Outcome detection is deliberately resolution-aware.  A kinetic norm above
``_BLOWUP_GRADIENT_FACTOR`` (10) times its initial value fires the in-loop
trigger, which records that ratio and the share of the spectral kinetic
density in the top third of the sine modes (of r*y after the free flow,
before the sponge).  A share above ``_TAIL_FRACTION_LIMIT`` (10%) confirms a
blowup, since a collapsing core drives both, and stops the run, as does a
non-finite state.  ``judge(traj, trigger)`` then reads the verdict off the
record: ``BlewUp`` at the last recorded time after a confirmed trigger, or
after a non-finite stop (``aborted_nonfinite``) that the trigger preceded;
``Scattered`` for nonzero data whose sextic mass inside the evacuation
radius reaches epsilon^6 in the last fifth of the run; else ``Undecided``.
Its evidence: ``min_local_l6`` (that late minimum), ``max_kinetic_ratio``,
``completed`` (every step ran, no confirmed trigger), ``gradient_fired``,
``dt_lambda_max`` (the top sine mode's phase per step) and the trigger record.

Neither construction of scattering states nor continuation past the trigger
is attempted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import ContractError
from .functionals import chi_profile, local_l6, report
from .grid import FieldDerivative, RadialField, SpectralPlan, radial_derivative_on
from .morawetz import centred_residual, morawetz_action, morawetz_rate, weight_build

SCATTERED = "Scattered"
BLEW_UP = "BlewUp"
UNDECIDED = "Undecided"

_TAIL_FRACTION_LIMIT = 0.1  # spectral-tail kinetic share that flags underresolution
_BLOWUP_GRADIENT_FACTOR = 10.0  # kinetic growth over its initial value that arms the detector
_SPONGE_STRENGTH = 5.0  # peak absorption rate of the sponge, at r = r_max
_TINY_PHASE = 2.0**-27  # below it, cos and sin of a phase round to 1 and the phase


@dataclass
class StepperConfig:
    dt: float = 1e-3
    t_end: float = 10.0
    snapshot_stride: int = 1000
    sponge: bool = False
    evacuation_radius: float = 10.0
    evacuation_epsilon: float = 0.3
    morawetz_radius: float | None = None
    flux_radius: float | None = None

    def __post_init__(self):
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ContractError("dt must be positive and finite")
        if not (self.t_end >= self.dt and math.isfinite(self.t_end)):
            raise ContractError("t_end must be finite and at least one step")
        ratio = self.t_end / self.dt  # may miss a whole step count by roundoff only
        if abs(ratio - round(ratio)) > 1e-9 * ratio:
            raise ContractError(f"t_end {self.t_end} is not a whole number of steps of dt {self.dt}")
        if self.snapshot_stride < 1:
            raise ContractError("snapshot_stride must be a positive integer")
        if not (0 < self.evacuation_epsilon < 1):
            raise ContractError("evacuation epsilon must lie in (0, 1)")
        if not (self.evacuation_radius > 0 and math.isfinite(self.evacuation_radius)):
            raise ContractError("evacuation_radius must be positive and finite")
        # None is the only way to switch a diagnostic off
        for name in ("morawetz_radius", "flux_radius"):
            radius = getattr(self, name)
            if radius is not None and not (radius > 0 and math.isfinite(radius)):
                raise ContractError(f"{name} must be positive and finite, or None")

    @property
    def steps(self) -> int:
        """The number of steps of dt to t_end."""
        return round(self.t_end / self.dt)


@dataclass
class Trajectory:
    """Strided snapshots plus per-step scalar series, and the config that
    ``evolve`` stepped with."""

    times: NDArray
    series: dict[str, NDArray]
    stepper: StepperConfig
    snapshots: list[RadialField]
    snapshot_times: NDArray

    def to_csv(self, path) -> None:
        names = list(self.series)
        data = np.column_stack([self.times] + [self.series[k] for k in names])
        np.savetxt(path, data, delimiter=",", header=",".join(["t"] + names),
                   comments="")


@dataclass
class RunOutcome:
    tag: str
    t_event: float | None
    evidence: dict

    def to_dict(self) -> dict:
        return {"tag": self.tag, "t_event": self.t_event, "evidence": self.evidence}


def _phase_factor(v: NDArray, t: float) -> NDArray:
    """exp(-i t (|v|^2 - |v|^4)): the nonlinear flow over time t, as a multiplier of v.

    Bitwise the complex exp of that argument, taken as one cos and one sin of
    the real phase theta = (|v|^2 - |v|^4) * -t written into the factor.
    Python's -1j * t is the scalar (+0.0, -t), so the complex argument is
    (+0.0, theta + 0.0) and its exp is (cos, sin) of the imaginary part.  The
    + 0.0 turns a -0.0 phase into the +0.0 that the complex product gives
    (sin keeps the sign of zero); theta is -0.0 where |v|^2 - |v|^4 is +0.0,
    as at |v| = 0 or 1, and where its product with -t underflows.

    Below |theta| = 2^-27, cos theta rounds to 1 and sin theta to theta (the
    next terms are under half an ulp), which is what glibc and any correctly
    rounded libm return.  Such nodes, most of a grid whose field has
    dispersed or decayed to roundoff, get (1, theta) without a libm call.
    A NaN phase is not below the bound and goes through cos and sin.
    """
    a2 = np.abs(v) ** 2
    theta = (a2 - a2 * a2) * -t
    theta += 0.0
    q = np.empty(theta.shape, dtype=np.complex128)
    q.real = 1.0
    q.imag = theta
    live = np.nonzero(~(np.abs(theta) < _TINY_PHASE))
    q.real[live] = np.cos(theta[live])
    q.imag[live] = np.sin(theta[live])
    return q


def _step(plan: SpectralPlan, free: NDArray, v: NDArray, q: NDArray, dt: float,
          damp: NDArray | None = None) -> tuple[NDArray, NDArray, NDArray]:
    """Strang step of v: half-phase q, free flow dt, damping, closing half-phase.

    q is the half-step factor of |v|.  Returns the sine coefficients of r*y
    after the free flow, the stepped state and its half-step factor, which
    opens the next step.
    """
    r = plan.complex_nodes  # complex, so numpy runs its complex loop without a cast
    coef = free * plan.forward(r * (v * q))
    y = plan.inverse(coef) / r
    if damp is not None:
        y = y * damp
    q = _phase_factor(y, 0.5 * dt)
    return coef, y * q, q


def strang_step(u: RadialField, dt: float) -> RadialField:
    """Symmetric split step: nonlinear dt/2, free dt, nonlinear dt/2."""
    plan = SpectralPlan.for_grid(u.grid)
    free = np.exp(-1j * plan.eigenvalues * dt)
    _, v, _ = _step(plan, free, u.values, _phase_factor(u.values, 0.5 * dt), dt)
    return RadialField(u.grid, v)


def _sponge_profile(grid) -> NDArray:
    """Quadratic absorber supported on the outer 10% of the ball."""
    r0 = 0.9 * grid.r_max
    ramp = np.clip((grid.nodes - r0) / (grid.r_max - r0), 0.0, 1.0)
    return _SPONGE_STRENGTH * ramp**2


def _flux_weights(grid, R: float):
    """Quadrature weight times chi_R and times chi_R' on the leading k nodes,
    past which both vanish, and k."""
    ch, dch, _ = chi_profile(grid, R)
    k = int(np.flatnonzero((ch != 0) | (dch != 0)).max(initial=-1) + 1)
    q = grid.weights[:k]
    return q * ch[:k], q * dch[:k], k


def evolve(u0: RadialField, cfg: StepperConfig) -> tuple[Trajectory, RunOutcome]:
    """Step to t_end (or to a blowup trigger), recording diagnostics per step."""
    grid = u0.grid
    for name in ("evacuation_radius", "morawetz_radius", "flux_radius"):
        radius = getattr(cfg, name)
        if radius is not None and radius > grid.r_max:
            raise ContractError(f"{name} {radius} exceeds the domain radius {grid.r_max}")
    if cfg.evacuation_radius < grid.dr:
        # a ball without nodes would read l6_local = 0 and call every run Scattered
        raise ContractError(f"evacuation_radius {cfg.evacuation_radius} is below the "
                            f"node spacing {grid.dr}: its ball holds no node")
    plan = SpectralPlan.for_grid(grid)
    dt = cfg.dt
    n_steps = cfg.steps
    free = np.exp(-1j * plan.eigenvalues * dt)
    sponge_mult = np.exp(-dt * _sponge_profile(grid)).astype(complex) if cfg.sponge else None

    weight = weight_build(cfg.morawetz_radius) if cfg.morawetz_radius is not None else None
    flux = _flux_weights(grid, cfg.flux_radius) if cfg.flux_radius is not None else None

    names = ["mass", "energy", "kinetic", "l6_local"]
    if weight is not None:
        names += ["morawetz_m", "morawetz_main", "morawetz_err1", "morawetz_err2"]
    if flux is not None:
        names += ["flux_chi_l6", "flux_rhs"]
    series = {k: np.zeros(n_steps + 1) for k in names}
    times = np.arange(n_steps + 1) * dt

    v = u0.values.astype(complex)
    snapshots = [RadialField(grid, v.copy())]
    snap_times = [0.0]

    def record(i: int, vals: NDArray) -> None:
        d = FieldDerivative(grid, vals)  # a recorded state may be non-finite
        rep = report(d)
        series["mass"][i] = rep.mass
        series["kinetic"][i] = rep.kinetic
        series["energy"][i] = rep.energy
        series["l6_local"][i] = local_l6(d, cfg.evacuation_radius)
        if weight is not None:
            series["morawetz_m"][i] = morawetz_action(d, weight)
            for name, val in zip(("morawetz_main", "morawetz_err1", "morawetz_err2"),
                                 morawetz_rate(d, weight)):
                series[name][i] = val
        if flux is not None:
            # both integrands vanish past the leading k nodes
            w_ch, w_dch, k = flux
            series["flux_chi_l6"][i] = w_ch @ d.a6[:k]
            d_a4 = radial_derivative_on(grid, d.a4, 0, k)
            w_grad_chi_u4 = w_dch * d.a4[:k] + w_ch * d_a4
            current = np.imag(np.conj(vals[:k]) * d.du[:k])
            series["flux_rhs"][i] = 6.0 * (w_grad_chi_u4 @ current)

    record(0, v)
    kin0 = series["kinetic"][0]

    last = n_steps  # the last step recorded
    trigger: dict = {}  # detector quantities at the last gradient trigger
    if series["mass"][0] != 0.0:  # zero data stays zero: nothing to step
        q = _phase_factor(v, 0.5 * dt)
        for k in range(1, n_steps + 1):
            coef, v, q = _step(plan, free, v, q, dt, sponge_mult)
            record(k, v)
            # a non-finite entry makes the mass non-finite (every weight is
            # positive); only then is the state itself checked, since |v|^2
            # can overflow on finite entries
            if not math.isfinite(series["mass"][k]) and not np.all(np.isfinite(v.view(float))):
                last = k - 1
                break
            if k % cfg.snapshot_stride == 0:
                snapshots.append(RadialField(grid, v.copy()))
                snap_times.append(k * dt)
            if series["kinetic"][k] >= _BLOWUP_GRADIENT_FACTOR * kin0 and kin0 > 0:
                spectral = np.abs(coef) ** 2 * plan.eigenvalues
                tail_fraction = np.sum(spectral[(2 * grid.n) // 3:]) / np.sum(spectral)
                trigger = {"trigger_kinetic_ratio": float(series["kinetic"][k] / kin0),
                           "tail_fraction": float(tail_fraction)}
                if tail_fraction > _TAIL_FRACTION_LIMIT:
                    last = k
                    break

    times = times[: last + 1]
    series = {k2: a[: last + 1] for k2, a in series.items()}
    if snap_times[-1] < times[-1] and np.all(np.isfinite(v.view(float))):
        snapshots.append(RadialField(grid, v.copy()))
        snap_times.append(times[-1])

    traj = Trajectory(times, series, cfg, snapshots, np.array(snap_times))
    return traj, judge(traj, trigger)


def judge(traj: Trajectory, trigger: dict) -> RunOutcome:
    """The verdict on what ``evolve`` recorded (see the module docstring); ``trigger``
    holds the detector quantities at the last kinetic trigger, ``{}`` if none."""
    cfg, times, series = traj.stepper, traj.times, traj.series
    kin0 = series["kinetic"][0]
    late = times >= times[-1] - 0.2 * (times[-1] - times[0]) if times[-1] > 0 else slice(None)
    min_late_l6 = float(np.min(series["l6_local"][late]))
    blew_up = bool(trigger) and trigger["tail_fraction"] > _TAIL_FRACTION_LIMIT
    finished = len(times) - 1 == cfg.steps
    plan = SpectralPlan.for_grid(traj.snapshots[0].grid)
    evidence = {
        "min_local_l6": min_late_l6,
        "max_kinetic_ratio": float(np.max(series["kinetic"]) / kin0) if kin0 > 0 else 0.0,
        "completed": finished and not blew_up,
        "gradient_fired": bool(trigger),
        "dt_lambda_max": float(cfg.dt * plan.eigenvalues[-1]),
        **trigger,
    }
    aborted = not (finished or blew_up)  # stopped at a non-finite state
    if aborted:
        evidence["aborted_nonfinite"] = True
    if blew_up or (aborted and trigger):
        return RunOutcome(BLEW_UP, float(times[-1]), evidence)
    if not aborted and series["mass"][0] != 0.0 and min_late_l6 <= cfg.evacuation_epsilon**6:
        return RunOutcome(SCATTERED, None, evidence)
    return RunOutcome(UNDECIDED, None, evidence)


def flux_identity_residual(traj, R: float) -> float:
    """Defect of d/dt int chi_R |u|^6 = 6 int grad(chi_R |u|^4) . Im(conj(u) grad u).

    Uses the per-step series recorded by evolve (flux_radius must match R).
    Returns max over interior steps of |fd - rhs| / (1 + |rhs|).
    """
    if traj.stepper.flux_radius != R:
        raise ContractError("trajectory was recorded with a different flux radius")
    return centred_residual(traj.times, traj.series["flux_chi_l6"], traj.series["flux_rhs"])
