"""Experiment presets, the sweep driver, and the reproducibility surface.

Every experiment takes an ExperimentConfig, writes its numeric artifacts
(CSV/JSON, snapshots as .npy) plus a manifest under
``<out_dir>/<experiment>/``, and returns a summary dict.  Reruns of the same
config reproduce the numeric artifacts byte for byte; the manifest
additionally records wall time, versions and the run's memory cost.
"""

from __future__ import annotations

import math
import resource
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import storage
from .config import ExperimentConfig, InitialData
from .dynamics import BLEW_UP, SCATTERED, StepperConfig, Trajectory, evolve, strang_step
from .errors import ConfigError, ContractError
from .functionals import GROUND_STATE_KINETIC, chi, cutoff_identity_residual, report
from .grid import (RadialField, RadialGrid, SpectralPlan, cubic_resample, free_flow,
                   free_propagate, integrate_ball, laplacian)
from .morawetz import averaged_local_l6, identity_residual, weight_build
from .variational import (K_MINUS, K_PLUS, bubble, classify, cubic_barrier, ground_state,
                          thresholds)


# ---------------------------------------------------------------------------
# initial data

def build_initial(grid: RadialGrid, spec: InitialData) -> RadialField:
    r = grid.nodes
    if spec.family == "gaussian":
        vals = spec.amplitude * np.exp(-((r / spec.width) ** 2))
    elif spec.family == "gaussian-mix":
        vals = np.zeros_like(r)
        for a, w in zip(spec.amplitudes, spec.widths):
            vals = vals + a * np.exp(-((r / w) ** 2))
    elif spec.family == "bubble":
        vals = bubble(r, spec.amplitude, spec.scale) * chi(r / spec.cutoff)
    elif spec.family == "file":
        field, _ = storage.read_snapshot(spec.path)
        if field.grid == grid:
            return field
        return RadialField(grid, cubic_resample(field, np.minimum(r, field.grid.r_max)))
    return RadialField(grid, vals.astype(complex))


# ---------------------------------------------------------------------------
# experiments

def run_thresholds(cfg: ExperimentConfig, out: Path) -> dict:
    rep = thresholds(cfg.grid)
    w = ground_state(cfg.grid)
    residual = float(np.max(np.abs(-laplacian(w).values - w.values**5)))
    summary = {
        "grad_w_sq": rep.kinetic,
        "w_l6": rep.l6,
        "ec_w": rep.energy_c,
        "c3": rep.kinetic**-2,
        "elliptic_residual": residual,
    }
    storage.write_json(out / "thresholds.json", summary)
    return summary


def run_classify(cfg: ExperimentConfig, out: Path) -> dict:
    u = build_initial(cfg.grid, cfg.initial)
    cls = classify(u)
    summary = {key: getattr(cls, key)
               for key in ("tag", "energy_margin", "k_value", "grad_margin", "kbar_agrees")}
    storage.write_json(out / "classification.json", summary)
    return summary


def run_evolve(cfg: ExperimentConfig, out: Path) -> dict:
    u0 = build_initial(cfg.grid, cfg.initial)
    traj, outcome = evolve(u0, cfg.stepper)
    traj.to_csv(out / "series.csv")
    storage.write_json(out / "outcome.json", outcome.to_dict())
    snapdir = out / "snapshots"
    snapdir.mkdir(exist_ok=True)
    # every snapshot time is k * dt; its step k names it exactly, in time order
    for t, snap in zip(map(float, traj.snapshot_times), traj.snapshots):
        name = f"step{round(t / cfg.stepper.dt):09d}.npy"
        storage.write_snapshot(snapdir / name, snap, t=t, label=cfg.initial.family)
    return {"outcome": outcome.to_dict(), "steps": len(traj.times) - 1}


# the dichotomy blowup preset: a concentrated cutoff bubble needs a finer
# grid than the sweep's gaussians.  Its amplitude is the one
# find_kminus_amplitude returns on _BUBBLE_GRID, so classify() lands in KMinus;
# it is 1.26 as np.arange yields it, one ulp above the literal 1.26.
_BUBBLE_GRID = RadialGrid(r_max=64.0, n=2**14 - 1)
_BUBBLE_STEPPER = dict(dt=5e-5, t_end=2.0)
_BUBBLE = InitialData(family="bubble", amplitude=1.2600000000000002)


def find_kminus_amplitude(grid: RadialGrid) -> float:
    """Smallest _BUBBLE amplitude (0.01 steps) with k < 0 and energy below ec_w."""
    for a in np.arange(1.05, 2.0, 0.01):
        u = build_initial(grid, replace(_BUBBLE, amplitude=float(a)))
        if classify(u).tag == K_MINUS:
            return float(a)
    raise ContractError("no KMinus amplitude found in the scanned range")


def _sweep_point(args: tuple[RadialGrid, StepperConfig, InitialData]) -> dict:
    grid, stepper, initial = args
    u0 = build_initial(grid, initial)
    cls = classify(u0)
    traj, outcome = evolve(u0, stepper)
    rep = cls.report
    return {
        "amplitude": initial.amplitude,
        "family": initial.family,
        "classification": cls.tag,
        "outcome": outcome.tag,
        "t_event": outcome.t_event if outcome.t_event is not None else "",
        "energy": rep.energy,
        "k": rep.k,
        "kinetic": rep.kinetic,
        "min_local_l6": outcome.evidence["min_local_l6"],
        "max_kinetic_ratio": outcome.evidence["max_kinetic_ratio"],
    }


@dataclass
class SweepResult:
    rows: list[dict]

    CSV_COLUMNS = ("amplitude", "family", "classification", "outcome", "t_event",
                   "energy", "k", "kinetic", "min_local_l6", "max_kinetic_ratio")

    def to_csv(self, path) -> None:
        lines = [",".join(self.CSV_COLUMNS)]
        for row in self.rows:
            lines.append(",".join(str(row[c]) for c in self.CSV_COLUMNS))
        Path(path).write_text("\n".join(lines) + "\n")


def run_dichotomy(cfg: ExperimentConfig, out: Path) -> dict:
    if cfg.initial.family != "gaussian":
        raise ConfigError(f"dichotomy-sweep sweeps gaussian amplitudes at the [initial] width; "
                          f"family {cfg.initial.family!r} cannot be swept")
    sw = cfg.sweep
    amps = np.arange(sw.amplitude_start, sw.amplitude_stop + sw.amplitude_step / 2,
                     sw.amplitude_step)
    # sweeps keep the scalar series of the nonlinear flow only
    stepper = replace(cfg.stepper, snapshot_stride=10**9,
                      morawetz_radius=None, flux_radius=None)
    points = [(cfg.grid, stepper,
               InitialData(family="gaussian", amplitude=float(a), width=cfg.initial.width))
              for a in amps]
    if sw.include_bubble:
        points.append((_BUBBLE_GRID, replace(stepper, sponge=False, **_BUBBLE_STEPPER), _BUBBLE))
    if cfg.workers > 1:
        import multiprocessing  # loaded only for a parallel sweep
        from concurrent.futures import ProcessPoolExecutor

        # spawn, not fork: this process already runs the BLAS pool's threads
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=cfg.workers, mp_context=spawn) as pool:
            rows = list(pool.map(_sweep_point, points))
    else:
        rows = [_sweep_point(p) for p in points]
    result = SweepResult(rows)
    result.to_csv(out / "sweep.csv")

    violations = [r for r in rows
                  if r["classification"] == K_PLUS and r["outcome"] == BLEW_UP]
    energies = [r["energy"] for r in rows if r["family"] == "gaussian"]
    summary = {
        "points": len(rows),
        "scattered": sum(r["outcome"] == SCATTERED for r in rows),
        "blew_up": sum(r["outcome"] == BLEW_UP for r in rows),
        "kplus_blowup_violations": len(violations),
        "energy_strictly_increasing": bool(np.all(np.diff(energies) > 0)),
    }
    storage.write_json(out / "sweep_summary.json", summary)
    return summary


def run_morawetz(cfg: ExperimentConfig, out: Path) -> dict:
    """Identity check plus the T-scaling of the averaged local sextic mass.

    The dM/dt identity, with its nonlinear terms, holds for the conservative
    nonlinear flow only, so the residual is measured on a short sponge-off,
    nonlinear companion run; the T-scaling rows keep the configured sponge
    (long runs must shed radiation).  Every other stepper field comes from
    cfg.stepper.
    """
    u0 = build_initial(cfg.grid, cfg.initial)
    R_w = cfg.stepper.morawetz_radius or 8.0
    w = weight_build(R_w)

    # the identity run stops at the last whole step that passes neither t = 2 nor t_end
    dt, horizon = cfg.stepper.dt, min(2.0, cfg.stepper.t_end)
    steps = horizon / dt
    if abs(steps - round(steps)) > 1e-9 * steps:  # StepperConfig's tolerance
        horizon = math.floor(steps) * dt
    ident_cfg = replace(cfg.stepper, t_end=horizon, snapshot_stride=10**9,
                        sponge=False, morawetz_radius=R_w, flux_radius=None)
    ident_traj, _ = evolve(u0, ident_cfg)
    residual = identity_residual(ident_traj, w)

    rows, slope, _ = averaged_l6_scaling(u0, cfg.stepper)
    ident_traj.to_csv(out / "morawetz_series.csv")
    summary = {"rows": rows, "fit_slope": slope, "identity_residual": residual,
               "weight_radius": R_w}
    storage.write_json(out / "averaged_l6.json", summary)
    return summary


def averaged_l6_scaling(u0: RadialField,
                        stepper: StepperConfig) -> tuple[list[dict], float, list[Trajectory]]:
    """The rows {T, R, average} of the averaged local sextic mass at R = T^(1/3)
    for T = t_end/4, t_end/2, t_end, their log-log slope, and the trajectories.

    Morawetz and flux recording are off; every other field is ``stepper``'s."""
    rows, trajs = [], []
    for T in (stepper.t_end / 4, stepper.t_end / 2, stepper.t_end):
        st = replace(stepper, t_end=T, snapshot_stride=10**9,
                     evacuation_radius=T ** (1.0 / 3.0), morawetz_radius=None, flux_radius=None)
        traj, _ = evolve(u0, st)
        rows.append({"T": T, "R": T ** (1.0 / 3.0),
                     "average": averaged_local_l6(traj, T ** (1.0 / 3.0))})
        trajs.append(traj)
    slope = float(np.polyfit(np.log([r["T"] for r in rows]),
                             np.log([max(r["average"], 1e-300) for r in rows]), 1)[0])
    return rows, slope, trajs


def free_decay_study(cfg: ExperimentConfig, out: Path) -> dict:
    """Sup-norm decay fit and the discrete L^4_t L^inf_x norm of the free flow.

    Both read one series of sup norms, taken every 0.25 in time up to t = 80:
    the fit its entries at t = 2, 2.5, ..., 20, and the norm over [0, T] the
    trapezoid rule of their fourth powers up to T."""
    windows = (10.0, 20.0, 40.0, 80.0)
    u0 = build_initial(cfg.grid, cfg.initial)
    if integrate_ball(cfg.grid, np.abs(u0.values) ** 2) == 0.0:
        summary = {"degenerate": True, "exponent": None, "saturation": None,
                   "norms": {str(T): 0.0 for T in windows}}
        storage.write_json(out / "free_decay.json", summary)
        return summary
    times = np.arange(0.0, windows[-1] + 0.125, 0.25)
    at = free_flow(u0)
    sups = np.array([np.max(np.abs(at(t).values)) for t in times])
    fit = slice(8, 81, 2)  # t = 2, 2.5, ..., 20
    exponent = -float(np.polyfit(np.log(times[fit]), np.log(sups[fit]), 1)[0])
    norms = {}
    for T in windows:
        sel = times <= T + 1e-12
        norms[str(T)] = float(np.trapezoid(sups[sel] ** 4, times[sel]) ** 0.25)
    saturation = norms[str(windows[-1])] / norms[str(windows[-2])] - 1.0
    summary = {"degenerate": False, "exponent": exponent, "norms": norms,
               "saturation": saturation}
    storage.write_json(out / "free_decay.json", summary)
    return summary


# ---------------------------------------------------------------------------
# selftest

def _selftest_checks():
    rng = np.random.default_rng(0)
    grid = RadialGrid(64.0, 2**12 - 1)
    plan = SpectralPlan.for_grid(grid)
    r = grid.nodes

    def random_field():
        vals = np.zeros(grid.n, dtype=complex)
        for _ in range(3):
            amp = rng.uniform(0.1, 1.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            vals += amp * np.exp(-((r / rng.uniform(0.8, 3.0)) ** 2))
        return RadialField(grid, vals)

    u = random_field()
    w = r * u.values
    rt = np.max(np.abs(plan.inverse(plan.forward(w)) - w)) / np.max(np.abs(w))
    yield "transform_roundtrip", rt <= 1e-12, f"{rt:.2e}"

    g = RadialField(grid, np.exp(-2.0 * r**2))
    mass = integrate_ball(grid, g.values.real)
    yield "gaussian_quadrature", abs(mass - (np.pi / 2) ** 1.5) < 1e-6, f"{mass:.8f}"

    eig = RadialField(grid, np.sin(np.pi * r / grid.r_max) / r)
    lap = laplacian(eig)
    res = np.max(np.abs(lap.values + (np.pi / grid.r_max) ** 2 * eig.values))
    yield "laplacian_eigenfunction", res <= 1e-10, f"{res:.2e}"

    v1 = free_propagate(free_propagate(u, 0.7), 0.3)
    v2 = free_propagate(u, 1.0)
    comp = np.max(np.abs(v1.values - v2.values))
    yield "propagator_composition", comp <= 1e-11, f"{comp:.2e}"

    rep = report(u)
    ehk = abs(rep.energy - (rep.h + rep.k / 6)) / max(abs(rep.energy), 1e-30)
    yield "energy_h_k_identity", ehk <= 1e-12, f"{ehk:.2e}"

    cres = cutoff_identity_residual(u, 8.0)
    yield "cutoff_identity", cres <= 1e-4, f"{cres:.2e}"

    wb = weight_build(8.0)
    ends = np.array([8.0, 16.0])  # R and 2R, where a and a' are exact
    ok = wb.a(ends).tolist() == [64.0, 384.0] and wb.a_r(ends).tolist() == [16.0, 24.0]
    yield "weight_build", ok, "ok" if ok else f"a {wb.a(ends)}, a_r {wb.a_r(ends)}"

    s1 = strang_step(u, 1e-3)
    m0 = integrate_ball(grid, np.abs(u.values) ** 2)
    m1 = integrate_ball(grid, np.abs(s1.values) ** 2)
    yield "step_mass", abs(m1 - m0) / m0 <= 1e-12, f"{abs(m1 - m0) / m0:.2e}"

    back = RadialField(grid, np.conj(strang_step(
        RadialField(grid, np.conj(s1.values)), 1e-3).values))
    rev = np.max(np.abs(back.values - u.values))
    yield "time_reversal", rev <= 1e-10, f"{rev:.2e}"

    w_rep = thresholds(RadialGrid(512.0, 2**15 - 1))
    ok = (abs(w_rep.kinetic - GROUND_STATE_KINETIC) <= 0.01 * GROUND_STATE_KINETIC
          and abs(w_rep.l6 - GROUND_STATE_KINETIC) <= 0.01 * GROUND_STATE_KINETIC)
    yield "thresholds", ok, f"grad_w_sq={w_rep.kinetic:.4f}"

    root = cubic_barrier(0.0, 0.5)
    yield "cubic_barrier", abs(root - 0.3472963553338607) <= 1e-10, f"{root:.10f}"

    small = RadialField(grid, 0.1 * np.exp(-r**2).astype(complex))
    st = StepperConfig(dt=1e-3, t_end=0.05, snapshot_stride=50)
    t1, _ = evolve(small, st)
    t2, _ = evolve(small, st)
    same = all(np.array_equal(t1.series[k2], t2.series[k2]) for k2 in t1.series)
    yield "determinism", same, "bitwise" if same else "mismatch"


def run_selftest(cfg: ExperimentConfig, out: Path) -> dict:
    results = list(_selftest_checks())
    for name, ok, detail in results:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    failures = [name for name, ok, _ in results if not ok]
    summary = {"checks": len(results), "failures": failures}
    storage.write_json(out / "selftest.json", summary)
    return summary


REGISTRY = {
    "thresholds": run_thresholds,
    "classify": run_classify,
    "evolve": run_evolve,
    "dichotomy-sweep": run_dichotomy,
    "morawetz": run_morawetz,
    "free-decay": free_decay_study,
    "selftest": run_selftest,
}


_EXIT_STATUS = {0: "ok", 1: "config error", 2: "numerical failure", 3: "selftest failure"}


def _file_stamps(out: Path) -> dict[str, tuple[int, int, int]]:
    """(inode, size, mtime) of each file under ``out``, keyed by its relative POSIX path;
    writing a file changes its stamp."""
    stats = {p.relative_to(out).as_posix(): p.stat() for p in out.rglob("*") if p.is_file()}
    return {name: (st.st_ino, st.st_size, st.st_mtime_ns) for name, st in stats.items()}


def _memory_usage() -> tuple[int, float]:
    """Minor page faults so far and peak RSS in MB, of this process and its reaped workers.

    ``ru_maxrss`` is in KiB, as Linux reports it.
    """
    own, workers = (resource.getrusage(who)
                    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return own.ru_minflt + workers.ru_minflt, max(own.ru_maxrss, workers.ru_maxrss) / 1024


def run(cfg: ExperimentConfig) -> int:
    """Execute the configured experiment; returns a process exit code."""
    out = Path(cfg.out_dir) / cfg.experiment
    out.mkdir(parents=True, exist_ok=True)
    error_path = out / "error.txt"
    error_path.unlink(missing_ok=True)  # left by an earlier failed run
    before = _file_stamps(out)
    faults_before, _ = _memory_usage()
    start = time.perf_counter()
    code = 0
    try:
        summary = REGISTRY[cfg.experiment](cfg, out)
    except (ContractError, ConfigError) as exc:
        error_path.write_text(traceback.format_exc())
        print(f"error: {exc} (traceback in {error_path})", file=sys.stderr)
        code = 1
    except Exception as exc:
        error_path.write_text(traceback.format_exc())
        print(f"numerical failure: {exc} (traceback in {error_path})", file=sys.stderr)
        code = 2
    else:
        if cfg.experiment == "selftest" and summary.get("failures"):
            code = 3
    wall = time.perf_counter() - start
    faults, peak_rss_mb = _memory_usage()
    artifacts = [name for name, stamp in _file_stamps(out).items()
                 if before.get(name) != stamp and name != "manifest.json"]
    storage.write_manifest(out / "manifest.json", cfg.to_dict(), wall, artifacts,
                           status=_EXIT_STATUS[code], exit_code=code,
                           resources={"minor_page_faults": faults - faults_before,
                                      "peak_rss_mb": peak_rss_mb})
    return code
