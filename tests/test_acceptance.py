"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The per-criterion lines also go to acceptance_report.txt at the repo root
(pytest captures stdout), in run order, once every test of this module has
written its line; a partial run leaves the file as it was. `pytest -v` shows
the same verdicts through test outcomes. Heavy runs are shared through
session fixtures.
"""

from pathlib import Path

import numpy as np
import pytest

from cqnls.config import ExperimentConfig, InitialData, load_config
from cqnls.dynamics import BLEW_UP, SCATTERED, StepperConfig, evolve
from cqnls.experiments import averaged_l6_scaling, build_initial, free_decay_study, run_dichotomy
from cqnls.functionals import GROUND_STATE_ENERGY_C, GROUND_STATE_KINETIC, report
from cqnls.grid import RadialField, RadialGrid, SpectralPlan, laplacian
from cqnls.morawetz import identity_residual, weight_build
from cqnls.variational import (
    K_PLUS,
    classify,
    cubic_barrier,
    ground_state,
    scale_f12,
    scale_phi,
)

from conftest import gaussian, random_smooth_field, sample_below_threshold

ROOT = Path(__file__).resolve().parent.parent
REPORT = ROOT / "acceptance_report.txt"


_LINES: list[str] = []  # this run's report lines, in run order


@pytest.fixture(scope="module", autouse=True)
def _report():
    _LINES.clear()
    yield
    if len(_LINES) == sum(name.startswith("test_") for name in globals()):
        REPORT.write_text("".join(_LINES))


def _line(num, name, ok, detail):
    line = f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    _LINES.append(line + "\n")
    assert ok, f"criterion {num} {name}: {detail}"


@pytest.fixture(scope="module")
def fine_grid():
    return RadialGrid(256.0, 2**20 - 1)


@pytest.fixture(scope="module")
def scaling_study():
    """The T-scaling study that configs/morawetz_scaling.json ships: the
    multiscale KPlus packet, T in {40, 80, 160}, R = T^(1/3)."""
    cfg = load_config(ROOT / "configs" / "morawetz_scaling.json")
    u0 = build_initial(RadialGrid(cfg.grid.r_max, cfg.grid.n), cfg.initial)
    return u0, averaged_l6_scaling(u0, cfg.stepper)


def test_criterion_1_ground_state_identities(th1024):
    # oracle: trig substitution r = sqrt(3) tan(theta) gives
    # ||grad W||^2 = ||W||_6^6 = 3 sqrt(3) pi^2 / 4 and ec_W = a third of it
    ok = (
        abs(th1024.kinetic - th1024.l6) <= 0.01 * th1024.kinetic
        and abs(th1024.kinetic - GROUND_STATE_KINETIC) <= 0.01 * GROUND_STATE_KINETIC
        and abs(th1024.l6 - GROUND_STATE_KINETIC) <= 0.01 * GROUND_STATE_KINETIC
        and abs(th1024.energy_c - GROUND_STATE_ENERGY_C) <= 0.01 * GROUND_STATE_ENERGY_C
    )
    grid = RadialGrid(1024.0, 2**16 - 1)
    w = ground_state(grid)
    residual = float(np.max(np.abs(-laplacian(w).values - w.values**5)))
    ok = ok and residual <= 1e-5
    _line(1, "ground-state identities", ok,
          f"grad_w_sq={th1024.kinetic:.4f} w_l6={th1024.l6:.4f} "
          f"ec_w={th1024.energy_c:.4f} elliptic_residual={residual:.2e}")


def test_criterion_2_conservation(kplus_run):
    _, _, traj, _ = kplus_run
    T = traj.times[-1]
    mass = traj.series["mass"]
    energy = traj.series["energy"]
    mass_drift = float(np.max(np.abs(mass - mass[0])) / mass[0] / T)
    energy_drift = float(np.max(np.abs(energy - energy[0])) / abs(energy[0]) / T)
    ok = mass_drift <= 1e-10 and energy_drift <= 1e-6
    _line(2, "mass/energy conservation", ok,
          f"mass_drift={mass_drift:.2e}/t energy_drift={energy_drift:.2e}/t")


def test_criterion_3_coercivity_ceiling(kplus_run):
    u0, _, traj, _ = kplus_run
    assert classify(u0).tag == K_PLUS
    y = traj.series["kinetic"] / GROUND_STATE_KINETIC
    e0 = traj.series["energy"][0]
    delta0 = 1.0 - e0 / GROUND_STATE_ENERGY_C
    ybar = cubic_barrier(float(y[0]), delta0)
    ok = bool(np.max(y) < 1.0 and np.max(y) < ybar)
    _line(3, "kinetic ceiling below barrier", ok,
          f"max_y={np.max(y):#.9g} barrier={ybar:#.9g} delta0={delta0:.4f}")


def test_criterion_4_scaling_identities(fine_grid, grid_default):
    rng = np.random.default_rng(100)
    lams = (-1.0, -0.5, 0.5, 1.0, 2.0)
    worst_k = worst_h = 0.0
    for _ in range(20):
        r = fine_grid.nodes
        vals = np.zeros(fine_grid.n, dtype=complex)
        for _ in range(3):
            amp = rng.uniform(0.3, 1.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            width = rng.uniform(2.8, 3.5)  # resolvable after the e^6 compression
            vals += amp * np.exp(-((r / width) ** 2)) * (1 + rng.uniform(0, 1.5) * (r / width) ** 2)
        u = RadialField(fine_grid, vals)
        rep = report(u)
        for lam in lams:
            rep_l = report(scale_f12(u, lam))
            ident = rep.kc + 1.5 * np.exp(-3 * lam) * rep.l4
            # relative to the magnitude of the identity's terms (the signed
            # value itself can cancel to near zero)
            size = 2 * (rep.kinetic + rep.l6) + 1.5 * np.exp(-3 * lam) * rep.l4
            worst_k = max(worst_k, abs(rep_l.k - ident) / size)
            worst_h = max(worst_h, abs(rep_l.h - rep.h) / rep.h)
    # k as the dilation derivative of the energy at lam = 0
    u = gaussian(grid_default)
    h = 1e-4
    dE = (report(scale_phi(u, h)).energy - report(scale_phi(u, -h)).energy) / (2 * h)
    k = report(u).k
    deriv_rel = abs(dE - k) / abs(k)
    ok = worst_k <= 1e-5 and worst_h <= 1e-6 and deriv_rel <= 1e-3
    _line(4, "dilation-family identities", ok,
          f"worst_k_ident={worst_k:.2e} worst_h={worst_h:.2e} k_deriv_rel={deriv_rel:.2e}")


def test_criterion_5_classification_equivalence(grid128, th1024):
    rng = np.random.default_rng(101)
    fields = sample_below_threshold(grid128, rng, 500, th1024.energy_c)
    counterexamples = 0
    excluded = 0
    minus_side = 0
    for u in fields:
        cls = classify(u)
        tol = 1e-6 * (cls.report.kinetic + cls.report.l6 + cls.report.l4 + 1)
        if abs(cls.k_value) < 10 * tol or abs(cls.grad_margin) < 10 * tol:
            excluded += 1
            continue
        if cls.grad_margin < 0:
            minus_side += 1
        if not cls.kbar_agrees:
            counterexamples += 1
    ok = counterexamples == 0 and len(fields) >= 500 and minus_side >= 50
    _line(5, "sign(k) vs gradient-comparison equivalence", ok,
          f"samples={len(fields)} excluded={excluded} "
          f"minus_side={minus_side} counterexamples={counterexamples}")


def test_criterion_6_morawetz_identity():
    grid = RadialGrid(128.0, 2**12 - 1)
    u0 = gaussian(grid, amplitude=1.0)
    w = weight_build(8.0)

    def residual(dt, t_end):
        cfg = StepperConfig(dt=dt, t_end=t_end, snapshot_stride=10**9,
                            morawetz_radius=8.0)
        traj, _ = evolve(u0, cfg)
        return identity_residual(traj, w)

    res_fine = residual(1e-3, 1.0)
    res_half = residual(5e-4, 1.0)
    # clean second-order decay is exhibited at coarse steps, above the
    # spatial-quadrature floor (~1e-6) the fine residuals approach
    res_c = residual(3.2e-2, 1.024)
    res_c2 = residual(1.6e-2, 1.024)
    ok = res_fine <= 1e-2 and res_half <= 0.95 * res_fine and res_c2 <= 0.6 * res_c
    _line(6, "dM/dt identity", ok,
          f"residual(dt=1e-3)={res_fine:.2e} halved={res_half:.2e} "
          f"coarse {res_c:.2e}->{res_c2:.2e}")


def test_criterion_7_averaged_l6_scaling(scaling_study):
    u0, (rows, slope, _) = scaling_study
    assert classify(u0).tag == K_PLUS
    ok = -0.85 <= slope <= -0.45
    _line(7, "averaged local-L6 decay rate", ok,
          "slope=%.3f averages=%s" % (slope, ["%.3e" % row["average"] for row in rows]))


def test_criterion_7_kinetic_ceiling_on_scaling_run(scaling_study):
    # every KPlus run in the suite keeps its kinetic ratio below 1
    _, (_, _, trajs) = scaling_study
    y_max = float(np.max(trajs[0].series["kinetic"]) / GROUND_STATE_KINETIC)
    _line(3, "ceiling on the multiscale run", y_max < 1.0, f"max_y={y_max:.3f}")


def test_criterion_8_dichotomy(tmp_path):
    cfg = ExperimentConfig(experiment="dichotomy-sweep")
    cfg.grid = RadialGrid(r_max=128.0, n=2047)
    cfg.stepper = StepperConfig(dt=2e-3, t_end=20.0, sponge=True,
                                evacuation_radius=10.0, evacuation_epsilon=0.3)
    summary = run_dichotomy(cfg, tmp_path)
    rows = [line.split(",") for line in
            (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
    cols = ("amplitude", "family", "classification", "outcome", "t_event",
            "energy", "k", "kinetic", "min_local_l6", "max_kinetic_ratio")
    rows = [dict(zip(cols, row)) for row in rows]
    kplus_ok = all(r["outcome"] != BLEW_UP for r in rows if r["classification"] == K_PLUS)
    confirmed_scatter = any(
        r["outcome"] == SCATTERED and float(r["min_local_l6"]) <= 0.3**6
        and float(r["energy"]) > 1.0  # nontrivial sextic mass had to evacuate
        for r in rows
    )
    bubble = [r for r in rows if r["family"] == "bubble"]
    bubble_ok = (len(bubble) == 1 and bubble[0]["classification"] == "KMinus"
                 and bubble[0]["outcome"] == BLEW_UP and bubble[0]["t_event"] != "")
    ok = kplus_ok and confirmed_scatter and bubble_ok and summary["energy_strictly_increasing"]
    _line(8, "scattering/blowup dichotomy", ok,
          f"points={summary['points']} scattered={summary['scattered']} "
          f"blew_up={summary['blew_up']} kplus_violations={summary['kplus_blowup_violations']}")


def test_criterion_9_dispersive_decay(tmp_path):
    cfg = ExperimentConfig(experiment="free-decay")
    cfg.grid = RadialGrid(r_max=256.0, n=2**13 - 1)
    cfg.initial = InitialData(family="gaussian", amplitude=1.0, width=1.0)
    res = free_decay_study(cfg, tmp_path)
    norms = [res["norms"][k] for k in ("10.0", "20.0", "40.0", "80.0")]
    ok = (not res["degenerate"]
          and 1.40 <= res["exponent"] <= 1.60
          and abs(res["saturation"]) <= 0.02
          and all(b >= a for a, b in zip(norms, norms[1:])))
    _line(9, "free-flow decay and saturation", ok,
          f"exponent={res['exponent']:.3f} saturation={res['saturation']:.2e}")


def test_criterion_10_numerics_hygiene(grid64):
    from cqnls.dynamics import strang_step

    u0 = gaussian(grid64)

    def run(dt):
        u = u0
        for _ in range(round(1.0 / dt)):
            u = strang_step(u, dt)
        return u.values

    ref = run(1 / 1024)
    errs = [np.max(np.abs(run(dt) - ref)) for dt in (1 / 32, 1 / 64)]
    order = float(np.log2(errs[0] / errs[1]))

    plan = SpectralPlan.for_grid(grid64)
    rng = np.random.default_rng(102)
    u = random_smooth_field(grid64, rng)
    w = grid64.nodes * u.values
    rt = float(np.max(np.abs(plan.inverse(plan.forward(w)) - w)) / np.max(np.abs(w)))

    small = gaussian(grid64, amplitude=0.3)
    cfg = StepperConfig(dt=1e-3, t_end=0.1, snapshot_stride=100)
    t1, _ = evolve(small, cfg)
    t2, _ = evolve(small, cfg)
    deterministic = all(np.array_equal(t1.series[k], t2.series[k]) for k in t1.series)

    ok = 1.8 <= order <= 2.2 and rt <= 1e-12 and deterministic
    _line(10, "numerics hygiene", ok,
          f"strang_order={order:.3f} roundtrip={rt:.2e} deterministic={deterministic}")
