"""Config parsing round-trips, CLI surface, persistence, reproducibility."""

import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqnls.cli import main
from cqnls.config import ExperimentConfig, InitialData, SweepSpec, from_dict, load_config
from cqnls.dynamics import StepperConfig
from cqnls.errors import ConfigError, ContractError
from cqnls.experiments import build_initial, free_decay_study
from cqnls.grid import RadialGrid, free_propagate
from cqnls.morawetz import centred_residual
from cqnls.storage import read_snapshot, write_snapshot

from conftest import gaussian


def test_default_config_is_selftest():
    cfg = ExperimentConfig()
    assert cfg.experiment == "selftest"
    assert cfg.grid.r_max == 256.0
    assert cfg.stepper.dt == 1e-3


def test_json_roundtrip():
    cfg = ExperimentConfig(experiment="evolve", seed=7)
    cfg.stepper.morawetz_radius = 8.0
    cfg.initial.family = "gaussian-mix"
    cfg.initial.amplitudes = (0.5, 0.2)
    cfg.initial.widths = (1.0, 4.0)
    back = from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert back == cfg


def test_ini_sets_every_field_kind(tmp_path):
    """Every section, and a bool, int, float, tuple, none and str field, from INI text."""
    path = tmp_path / "cfg.ini"
    path.write_text(
        "[run]\nexperiment = dichotomy-sweep\nout_dir = runs/a\nseed = 3\nworkers = 2\n\n"
        "[grid]\nr_max = 64.0\nn = 2047\n\n"
        "[initial]\nfamily = gaussian-mix\namplitudes = 0.5, 0.25\nwidths = 1,4.0\n"
        "path = data/u0.npy\n\n"
        "[stepper]\ndt = 2e-3\nt_end = 0.5\nsnapshot_stride = 50\nsponge = yes\n"
        "morawetz_radius = 8\nflux_radius = none\n\n"
        "[sweep]\namplitude_step = 0.25\ninclude_bubble = off\n"
    )
    assert load_config(path) == ExperimentConfig(
        experiment="dichotomy-sweep", out_dir="runs/a", seed=3, workers=2,
        grid=RadialGrid(r_max=64.0, n=2047),
        initial=InitialData(family="gaussian-mix", amplitudes=(0.5, 0.25), widths=(1.0, 4.0),
                            path="data/u0.npy"),
        stepper=StepperConfig(dt=2e-3, t_end=0.5, snapshot_stride=50, sponge=True,
                              morawetz_radius=8.0, flux_radius=None),
        sweep=SweepSpec(amplitude_step=0.25, include_bubble=False),
    )


def test_ini_example(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "[run]\nexperiment = evolve\n\n"
        "[grid]\nr_max = 64.0\nn = 4095\n\n"
        "[initial]\nfamily = gaussian\namplitude = 0.3\n\n"
        "[stepper]\ndt = 2e-3\nt_end = 0.5\nsponge = true\nmorawetz_radius = none\n"
    )
    cfg = load_config(path)
    assert cfg.experiment == "evolve"
    assert cfg.grid.n == 4095
    assert cfg.stepper.sponge is True
    assert cfg.stepper.morawetz_radius is None


def test_config_errors(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[nosuch]\nx = 1\n")
    with pytest.raises(ConfigError):
        load_config(bad)
    bad.write_text("[grid]\nbogus_key = 1\n")
    with pytest.raises(ConfigError):
        load_config(bad)
    bad.write_text("[run]\nexperiment = not-an-experiment\n")
    with pytest.raises(ConfigError):
        load_config(bad)
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.ini")
    # the stepper has no free-flow switch, sponge strength or blowup factor to set
    for key, value in (("linear", "true"), ("sponge_strength", "7"),
                       ("blowup_gradient_factor", "50")):
        bad.write_text(f"[stepper]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=f"unknown key '{key}' in section \\[stepper\\]"):
            load_config(bad)


@pytest.mark.parametrize("name, text, says", [
    ("a.ini", "[nosuch]\nx = 1\n", "unknown key 'nosuch' in section [run]; known: experiment,"),
    ("a.json", '{"foo": 1}', "unknown key 'foo' in section [run]; known: experiment,"),
    ("a.ini", "[run]\nbogus = 1\n", "unknown key 'bogus' in section [run]; known: experiment,"),
    ("a.ini", "[run]\ngrid = 5\n\n[grid]\nn = 255\n",
     "section [grid] must be an object of keys, not str"),
    ("a.ini", "[run]\nworkers = 0\n", "bad [run] section: workers must be at least 1, got 0"),
], ids=["ini-section", "json-key", "run-key", "run-key-shadows-section", "run-value"])
def test_run_keys_are_checked_like_section_keys(tmp_path, capsys, name, text, says):
    """INI and JSON have one reader, whose top level is the [run] section: an unknown
    section or [run] key is an unknown [run] key, named beside the accepted names, and
    a [run] key that names a section replaces it.  Each exits 1 before any output."""
    cfgfile = tmp_path / name
    cfgfile.write_text(text)
    out = tmp_path / "o"
    assert main(["thresholds", "--config", str(cfgfile), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and says in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("config, says", [
    ({"out_dir": [1]}, "bad value for 'out_dir' in section [run]: expected a string, got [1]"),
    ({"experiment": 5}, "bad value for 'experiment' in section [run]: expected a string"),
    ({"initial": {"path": {"a": 1}}}, "bad value for 'path' in section [initial]"),
])
def test_string_fields_take_only_strings(config, says):
    """A JSON list, object or number is not silently turned into its repr."""
    with pytest.raises(ConfigError) as info:
        from_dict(config)
    assert says in str(info.value)
    assert from_dict({"out_dir": "runs/a", "initial": {"path": "u0.npy"}}).out_dir == "runs/a"


def test_bad_json_reports_location(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"experiment": }')
    with pytest.raises(ConfigError, match=r":\d+"):
        load_config(bad)


@pytest.mark.parametrize("text, where", [
    ("[1, 2]", "top level"),
    ('"thresholds"', "top level"),
    ('{"grid": [1, 2]}', r"section \[grid\]"),
    ('{"stepper": null}', r"section \[stepper\]"),
    ('{"sweep": 3}', r"section \[sweep\]"),
])
def test_json_config_that_is_not_an_object_is_a_config_error(tmp_path, capsys, text, where):
    cfgfile = tmp_path / "a.json"
    cfgfile.write_text(text)
    with pytest.raises(ConfigError, match=where):
        load_config(cfgfile)
    assert main(["thresholds", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "config error:" in err and "Traceback" not in err


def test_snapshot_roundtrip(tmp_path, grid64):
    u = gaussian(grid64, amplitude=0.7)
    u.values *= np.exp(0.2j * grid64.nodes**2)
    path = tmp_path / "snap.npy"
    write_snapshot(path, u, t=1.5, label="test")
    back, meta = read_snapshot(path)
    assert back.grid == grid64
    assert meta == {"r_max": 64.0, "n": grid64.n, "t": 1.5, "label": "test"}
    assert back.values.dtype == np.complex128 and back.values.shape == (grid64.n,)
    assert back.values.tobytes() == u.values.tobytes()
    stored = np.load(path, allow_pickle=False)
    assert stored.dtype == np.complex128 and stored.tobytes() == u.values.tobytes()


@pytest.mark.parametrize("values", [
    np.zeros(4095),                         # float64
    np.zeros(4095, dtype=np.complex64),
    np.zeros(4095, dtype=">c16"),           # complex, but not native complex128
    np.zeros(4094, dtype=complex),          # not the sidecar's n
    np.zeros((4095, 1), dtype=complex),
    np.array([None] * 4095, dtype=object),  # pickled data
], ids=["float64", "complex64", "big-endian", "short", "column", "object"])
def test_read_snapshot_refuses_wrong_arrays(tmp_path, grid64, values):
    path = tmp_path / "snap.npy"
    write_snapshot(path, gaussian(grid64))
    np.save(path, values, allow_pickle=True)  # same path: the name ends in .npy
    with pytest.raises(ContractError, match=re.escape(str(path))):
        read_snapshot(path)


def test_read_snapshot_refuses_truncated_or_missing_files(tmp_path, grid64):
    path = tmp_path / "snap.npy"
    write_snapshot(path, gaussian(grid64))
    path.write_bytes(path.read_bytes()[:1000])
    with pytest.raises(ContractError, match=re.escape(str(path))):
        read_snapshot(path)
    path.unlink()
    with pytest.raises(ContractError, match=re.escape(str(path))):
        read_snapshot(path)


def _write_csv_snapshot(path, u):
    """A snapshot in the CSV layout (header r,re_u,im_u) that cqnls no longer reads."""
    data = np.column_stack([u.grid.nodes, u.values.real, u.values.imag])
    np.savetxt(path, data, delimiter=",", header="r,re_u,im_u", comments="")
    sidecar = {"r_max": u.grid.r_max, "n": u.grid.n, "t": 0.0, "label": "gaussian"}
    Path(str(path) + ".json").write_text(json.dumps(sidecar))


def test_read_snapshot_refuses_csv(tmp_path, grid64):
    path = tmp_path / "snap.csv"
    _write_csv_snapshot(path, gaussian(grid64))
    with pytest.raises(ContractError, match=re.escape(str(path)) + ".*snapshots are complex128 .npy"):
        read_snapshot(path)


def test_evolve_from_csv_snapshot_is_a_config_error(tmp_path, capsys):
    """family = "file" pointing at a CSV snapshot exits 1 with error.txt; no CSV fallback."""
    grid = RadialGrid(16.0, 255)
    snap = tmp_path / "old.csv"
    _write_csv_snapshot(snap, gaussian(grid, amplitude=0.3))
    cfgfile = tmp_path / "ev.json"
    cfgfile.write_text(json.dumps({
        "experiment": "evolve", "grid": {"r_max": 16.0, "n": 255},
        "initial": {"family": "file", "path": str(snap)},
        "stepper": {"dt": 1e-3, "t_end": 2e-3},
    }))
    out = tmp_path / "o"
    assert main(["evolve", "--config", str(cfgfile), "--out", str(out)]) == 1
    error = out / "evolve" / "error.txt"
    assert str(error) in capsys.readouterr().out
    assert "is not a .npy file" in error.read_text()
    assert not (out / "evolve" / "series.csv").exists()


def test_evolve_restarts_from_its_own_snapshot(tmp_path):
    """run_evolve writes step<k>.npy snapshots, named by their step k, that
    family = "file" reads back bitwise."""
    base = {"experiment": "evolve", "grid": {"r_max": 16.0, "n": 255},
            "stepper": {"dt": 1e-3, "t_end": 2e-3, "snapshot_stride": 1}}
    cfgfile = tmp_path / "ev.json"
    cfgfile.write_text(json.dumps(dict(base, initial={"family": "gaussian", "amplitude": 0.3})))
    assert main(["evolve", "--config", str(cfgfile), "--out", str(tmp_path / "a")]) == 0
    snapdir = tmp_path / "a" / "evolve" / "snapshots"
    assert sorted(p.name for p in snapdir.iterdir()) == [
        f"step{k:09d}.npy{ext}" for k in (0, 1, 2) for ext in ("", ".json")]
    snap = snapdir / "step000000000.npy"
    cfgfile.write_text(json.dumps(dict(base, initial={"family": "file", "path": str(snap)})))
    assert main(["evolve", "--config", str(cfgfile), "--out", str(tmp_path / "b")]) == 0
    assert ((tmp_path / "a" / "evolve" / "series.csv").read_bytes()
            == (tmp_path / "b" / "evolve" / "series.csv").read_bytes())


_TAIL = {"dt": 1e-7, "t_end": 1.03e-5, "snapshot_stride": 100}  # a last snapshot 3 steps on


@pytest.mark.parametrize("stepper, steps, assigned", [
    pytest.param({"dt": 1e-6, "t_end": 1e-5, "snapshot_stride": 1}, range(11), False,
                 id="dt1e-6"),
    pytest.param({"dt": 1e-7, "t_end": 1e-6, "snapshot_stride": 1}, range(11), False,
                 id="dt1e-7-stride1"),
    pytest.param({"dt": 1e-7, "t_end": 1e-5, "snapshot_stride": 100}, (0, 100), False,
                 id="dt1e-7-stride100"),
    pytest.param(_TAIL, (0, 100, 103), False, id="dt1e-7-tail"),
    pytest.param(_TAIL, (0, 100, 103), True, id="dt1e-7-tail-assigned"),
])
def test_evolve_at_snapshot_name_resolution_writes_every_snapshot(tmp_path, monkeypatch,
                                                                   stepper, steps, assigned):
    """Each snapshot is named by its step, so snapshots however close in time get names
    of their own, whether the stepper comes from the config file or is assigned after
    the config is built; each sidecar's t is its snapshot's time."""
    from cqnls import experiments

    trajs = []
    real_evolve = experiments.evolve

    def recording_evolve(u0, st):
        traj, outcome = real_evolve(u0, st)
        trajs.append(traj)
        return traj, outcome

    monkeypatch.setattr(experiments, "evolve", recording_evolve)
    out = tmp_path / "o"
    if assigned:
        cfg = ExperimentConfig(experiment="evolve", grid=RadialGrid(16.0, 255), out_dir=str(out))
        cfg.stepper = StepperConfig(**stepper)
        assert experiments.run(cfg) == 0
    else:
        cfgfile = tmp_path / "ev.json"
        cfgfile.write_text(json.dumps({"experiment": "evolve", "grid": {"r_max": 16.0, "n": 255},
                                       "stepper": stepper}))
        assert main(["evolve", "--config", str(cfgfile), "--out", str(out)]) == 0
    snapdir = out / "evolve" / "snapshots"
    names = [f"step{k:09d}.npy" for k in steps]
    assert sorted(p.name for p in snapdir.iterdir()) == [
        name + ext for name in names for ext in ("", ".json")]
    (traj,) = trajs
    assert [read_snapshot(snapdir / name)[1]["t"] for name in names] == traj.snapshot_times.tolist()


def test_cli_thresholds(tmp_path):
    cfgfile = tmp_path / "th.ini"
    cfgfile.write_text("[run]\nexperiment = thresholds\n\n[grid]\nr_max = 512.0\nn = 16384\n")
    code = main(["thresholds", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    assert code == 0
    got = json.loads((tmp_path / "o" / "thresholds" / "thresholds.json").read_text())
    assert set(got) == {"grad_w_sq", "w_l6", "ec_w", "c3", "elliptic_residual"}
    assert got["grad_w_sq"] == pytest.approx(12.7474, abs=0.01)
    assert got["c3"] == got["grad_w_sq"] ** -2
    assert got["ec_w"] == got["grad_w_sq"] / 2 - got["w_l6"] / 6
    assert (tmp_path / "o" / "thresholds" / "manifest.json").exists()


def test_cli_bad_config(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[grid]\nn = not_an_int\n")
    assert main(["thresholds", "--config", str(bad)]) == 1


def test_cli_numerical_failure_exit_code(tmp_path):
    # the bubble's tail needs r_max >= 100; smaller domains fail with an
    # accuracy diagnostic, surfaced as exit code 2
    cfgfile = tmp_path / "th.ini"
    cfgfile.write_text("[run]\nexperiment = thresholds\n\n[grid]\nr_max = 64.0\nn = 2047\n")
    assert main(["thresholds", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 2


def test_cli_failures_leave_traceback(tmp_path, capsys):
    """Exit codes 1 and 2 write the traceback to <out>/error.txt and print its path;
    a later successful run in the same directory removes it."""
    cfgfile = tmp_path / "th.ini"
    cfgfile.write_text("[run]\nexperiment = thresholds\n\n[grid]\nr_max = 64.0\nn = 2047\n")
    assert main(["thresholds", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 2
    error = tmp_path / "o" / "thresholds" / "error.txt"
    assert str(error) in capsys.readouterr().out
    assert error.read_text().startswith("Traceback")

    out = tmp_path / "ev"
    base = {"experiment": "evolve", "grid": {"r_max": 16.0, "n": 255},
            "initial": {"family": "gaussian", "amplitude": 0.3}}
    bad = dict(base, stepper={"dt": 1e-3, "t_end": 2e-3, "flux_radius": 40.0})
    cfgfile = tmp_path / "ev.json"
    cfgfile.write_text(json.dumps(bad))
    assert main(["evolve", "--config", str(cfgfile), "--out", str(out)]) == 1
    error = out / "evolve" / "error.txt"
    assert str(error) in capsys.readouterr().out
    assert "ContractError: flux_radius 40.0 exceeds" in error.read_text()

    good = dict(base, stepper={"dt": 1e-3, "t_end": 2e-3, "evacuation_radius": 5.0})
    cfgfile.write_text(json.dumps(good))
    assert main(["evolve", "--config", str(cfgfile), "--out", str(out)]) == 0
    assert not error.exists()


def test_cli_failures_write_manifest(tmp_path):
    """Exit codes 1 and 2 still write manifest.json: status, exit code, wall time,
    and error.txt among the artifacts; a successful run records status ok."""
    cfgfile = tmp_path / "th.ini"
    cfgfile.write_text("[run]\nexperiment = thresholds\n\n[grid]\nr_max = 64.0\nn = 2047\n")
    assert main(["thresholds", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 2
    manifest = json.loads((tmp_path / "o" / "thresholds" / "manifest.json").read_text())
    assert manifest["status"] == "numerical failure" and manifest["exit_code"] == 2
    assert manifest["wall_time_s"] >= 0.0
    assert "error.txt" in manifest["artifacts"]

    out = tmp_path / "ev"
    base = {"experiment": "evolve", "grid": {"r_max": 16.0, "n": 255},
            "initial": {"family": "gaussian", "amplitude": 0.3}}
    cfgfile = tmp_path / "ev.json"
    cfgfile.write_text(json.dumps(dict(base, stepper={"dt": 1e-3, "t_end": 2e-3,
                                                      "flux_radius": 40.0})))
    assert main(["evolve", "--config", str(cfgfile), "--out", str(out)]) == 1
    manifest = json.loads((out / "evolve" / "manifest.json").read_text())
    assert manifest["status"] == "config error" and manifest["exit_code"] == 1
    assert "error.txt" in manifest["artifacts"]

    cfgfile.write_text(json.dumps(dict(base, stepper={"dt": 1e-3, "t_end": 2e-3})))
    assert main(["evolve", "--config", str(cfgfile), "--out", str(out)]) == 0
    manifest = json.loads((out / "evolve" / "manifest.json").read_text())
    assert manifest["status"] == "ok" and manifest["exit_code"] == 0
    assert "error.txt" not in manifest["artifacts"]


def test_linear_evolve_with_morawetz_radius_is_a_config_error(tmp_path, capsys):
    """`linear` is no stepper key (every run steps the nonlinear flow): the config fails
    to load, so the CLI exits 1 with the key named on stderr and creates no output."""
    cfgfile = tmp_path / "ev.json"
    cfgfile.write_text(json.dumps({
        "experiment": "evolve",
        "grid": {"r_max": 16.0, "n": 255},
        "initial": {"family": "gaussian", "amplitude": 0.3},
        "stepper": {"dt": 1e-3, "t_end": 2e-3, "linear": True, "morawetz_radius": 4.0},
    }))
    out = tmp_path / "o"
    assert main(["evolve", "--config", str(cfgfile), "--out", str(out)]) == 1
    assert "unknown key 'linear' in section [stepper]" in capsys.readouterr().err
    assert not out.exists()


def test_free_decay_zero_data(tmp_path):
    cfgfile = tmp_path / "fd.json"
    cfgfile.write_text(json.dumps({
        "experiment": "free-decay",
        "grid": {"r_max": 64.0, "n": 1023},
        "initial": {"family": "gaussian", "amplitude": 0.0},
    }))
    out = tmp_path / "o"
    assert main(["free-decay", "--config", str(cfgfile), "--out", str(out)]) == 0
    got = json.loads((out / "free-decay" / "free_decay.json").read_text())
    assert got["degenerate"] is True
    assert all(v == 0.0 for v in got["norms"].values())


def test_free_decay_equals_the_snapshot_formula(tmp_path):
    """The study's exponent and norms are bitwise those of a fit over 37 separately
    propagated times and of an L^4_t L^inf_x trapezoid over one snapshot per 0.25."""
    cfg = ExperimentConfig(experiment="free-decay", grid=RadialGrid(r_max=64.0, n=1023),
                           initial=InitialData(amplitude=1.0))
    got = free_decay_study(cfg, tmp_path)
    u0 = build_initial(RadialGrid(64.0, 1023), cfg.initial)

    fit_times = np.linspace(2.0, 20.0, 37)
    sups = np.array([np.max(np.abs(free_propagate(u0, t).values)) for t in fit_times])
    assert got["exponent"] == -float(np.polyfit(np.log(fit_times), np.log(sups), 1)[0])
    t_grid = np.arange(0.0, 80.0 + 0.25 / 2, 0.25)
    snaps = [free_propagate(u0, t) for t in t_grid]
    for T in (10.0, 20.0, 40.0, 80.0):
        sel = t_grid <= T + 1e-12
        vals = np.array([np.max(np.abs(s.values)) for s, keep in zip(snaps, sel) if keep])
        assert got["norms"][str(T)] == float(np.trapezoid(vals**4, t_grid[sel]) ** (1.0 / 4))


@pytest.mark.parametrize("family, key, value", [
    ("gaussian", "width", "0"),
    ("gaussian", "width", "inf"),
    ("gaussian-mix", "widths", "1.0, -2.0"),
    ("bubble", "scale", "0"),
    ("bubble", "cutoff", "-10"),
    ("bubble", "cutoff", "nan"),
])
def test_non_positive_initial_sizes_are_config_errors(tmp_path, capsys, family, key, value):
    """A zero or negative width, scale or cutoff builds a zero field or an uncut bubble:
    the config fails to load, so `cqnls evolve` exits 1 with the field named."""
    mix = "amplitudes = 0.5, 0.5\n" if family == "gaussian-mix" else ""
    cfgfile = tmp_path / "ev.ini"
    cfgfile.write_text(f"[grid]\nr_max = 16.0\nn = 255\n\n"
                       f"[initial]\nfamily = {family}\n{mix}{key} = {value}\n\n"
                       f"[stepper]\ndt = 1e-3\nt_end = 2e-3\n")
    out = tmp_path / "o"
    assert main(["evolve", "--config", str(cfgfile), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{key} must be positive and finite" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("grid", ["n = 4", "r_max = 0", "r_max = -1", "r_max = nan",
                                  "r_max = inf"])
def test_bad_grid_is_a_config_error(tmp_path, capsys, grid):
    """The [grid] section is the run's RadialGrid, checked at load: too few nodes or a
    non-positive or non-finite radius exits 1 before any output directory is made."""
    cfgfile = tmp_path / "ev.ini"
    cfgfile.write_text(f"[grid]\n{grid}\n\n[stepper]\ndt = 1e-3\nt_end = 2e-3\n")
    out = tmp_path / "o"
    assert main(["evolve", "--config", str(cfgfile), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: bad [grid] section:") and "Traceback" not in err
    assert f"got {grid.split(' = ')[1]}" in err  # the refused value, as given
    assert not out.exists()


def test_config_grid_cannot_drift_from_its_nodes():
    """The loaded grid is frozen: its nodes were built from r_max and n, which stay put."""
    import dataclasses

    cfg = from_dict({"grid": {"r_max": 64.0, "n": 1023}})
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.grid.n = 2047
    assert cfg.grid.nodes.size == 1023 and cfg.grid == RadialGrid(64.0, 1023)


@pytest.mark.parametrize("family, key, value", [
    ("gaussian", "amplitude", "nan"),
    ("gaussian", "amplitude", "inf"),
    ("bubble", "amplitude", "-inf"),
    ("gaussian-mix", "amplitudes", "0.5, nan"),
])
def test_non_finite_initial_amplitudes_are_config_errors(tmp_path, capsys, family, key, value):
    """A non-finite amplitude builds a non-finite field: the config fails to load,
    so `cqnls evolve` exits 1 with the key named, before any output is made."""
    mix = "widths = 1.0, 2.0\n" if family == "gaussian-mix" else ""
    cfgfile = tmp_path / "ev.ini"
    cfgfile.write_text(f"[grid]\nr_max = 16.0\nn = 255\n\n"
                       f"[initial]\nfamily = {family}\n{mix}{key} = {value}\n\n"
                       f"[stepper]\ndt = 1e-3\nt_end = 2e-3\n")
    out = tmp_path / "o"
    assert main(["evolve", "--config", str(cfgfile), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{key} must be finite" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("mix", [
    "",
    "amplitudes = 0.5\nwidths = 1.0, 2.0\n",
    "amplitudes = 0.5, 0.5\n",
    "widths = 1.0\n",
], ids=["neither", "fewer-amplitudes", "no-widths", "no-amplitudes"])
def test_unmatched_gaussian_mix_is_a_config_error(tmp_path, capsys, mix):
    """A gaussian-mix without amplitudes, or with a different number of widths, fails
    to load: `cqnls evolve` exits 1 before any output is made."""
    cfgfile = tmp_path / "ev.ini"
    cfgfile.write_text(f"[grid]\nr_max = 16.0\nn = 255\n\n"
                       f"[initial]\nfamily = gaussian-mix\n{mix}\n"
                       f"[stepper]\ndt = 1e-3\nt_end = 2e-3\n")
    out = tmp_path / "o"
    assert main(["evolve", "--config", str(cfgfile), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert "gaussian-mix needs matching amplitudes and widths" in err
    assert not out.exists()


def test_initial_amplitudes_need_only_be_finite():
    with pytest.raises(ConfigError, match="amplitude must be finite"):
        from_dict({"initial": {"amplitude": "nan"}})
    for amplitude in (0.0, -0.5):
        assert from_dict({"initial": {"amplitude": amplitude}}).initial.amplitude == amplitude
    mix = from_dict({"initial": {"family": "gaussian-mix", "amplitudes": [0.0, -1.0],
                                 "widths": [1.0, 2.0]}})
    assert mix.initial.amplitudes == (0.0, -1.0)


def test_cli_env_out_root(tmp_path, monkeypatch):
    monkeypatch.setenv("CQNLS_OUT_ROOT", str(tmp_path / "envout"))
    monkeypatch.chdir(tmp_path)
    cfgfile = tmp_path / "fd.ini"
    cfgfile.write_text(
        "[run]\nexperiment = free-decay\n\n[grid]\nr_max = 128.0\nn = 2047\n\n"
        "[initial]\nfamily = gaussian\namplitude = 1.0\n"
    )
    # --config sets out_dir from the file; env root applies when no config given
    code = main(["free-decay", "--config", str(cfgfile), "--out", str(tmp_path / "x")])
    assert code == 0
    assert (tmp_path / "x" / "free-decay" / "free_decay.json").exists()
    assert main(["selftest"]) == 0
    assert (tmp_path / "envout" / "selftest" / "selftest.json").exists()


def test_cli_selftest(tmp_path, capsys):
    assert main(["selftest", "--out", str(tmp_path)]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("[")]
    assert len(lines) >= 10
    assert all(l.startswith("[PASS]") for l in lines)
    got = json.loads((tmp_path / "selftest" / "selftest.json").read_text())
    assert got["failures"] == []


def test_rerun_reproduces_artifacts(tmp_path):
    cfgfile = tmp_path / "ev.ini"
    cfgfile.write_text(
        "[run]\nexperiment = evolve\n\n[grid]\nr_max = 64.0\nn = 2047\n\n"
        "[initial]\nfamily = gaussian\namplitude = 0.3\n\n"
        "[stepper]\ndt = 1e-3\nt_end = 0.2\nsnapshot_stride = 100\n"
    )
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["evolve", "--config", str(cfgfile), "--out", str(out)]) == 0
        outs.append((out / "evolve" / "series.csv").read_bytes())
    assert outs[0] == outs[1]


def test_morawetz_experiment(tmp_path):
    cfgfile = tmp_path / "mw.json"
    cfgfile.write_text(json.dumps({
        "experiment": "morawetz",
        "grid": {"r_max": 64.0, "n": 2047},
        "initial": {"family": "gaussian", "amplitude": 0.5},
        "stepper": {"dt": 2e-3, "t_end": 2.0, "morawetz_radius": 8.0},
    }))
    out = tmp_path / "o"
    assert main(["morawetz", "--config", str(cfgfile), "--out", str(out)]) == 0
    got = json.loads((out / "morawetz" / "averaged_l6.json").read_text())
    assert got["identity_residual"] <= 1e-2
    assert len(got["rows"]) == 3
    path = out / "morawetz" / "morawetz_series.csv"
    header = path.read_text().splitlines()[0].split(",")
    assert header == ["t", "mass", "energy", "kinetic", "l6_local", "morawetz_m",
                      "morawetz_main", "morawetz_err1", "morawetz_err2"]
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (1001, len(header))  # one row per step of the identity run
    # the file is the identity run's whole record: %.18e round-trips float64, so its
    # columns give back the residual bit for bit
    cols = dict(zip(header, data.T))
    rate = cols["morawetz_main"] + cols["morawetz_err1"] + cols["morawetz_err2"]
    assert centred_residual(cols["t"], cols["morawetz_m"], rate) == got["identity_residual"]


def test_morawetz_runs_derive_from_the_stepper_section(tmp_path, monkeypatch):
    """Each run that run_morawetz steps differs from cfg.stepper only in the fields it
    sets itself, so a configured dt or evacuation epsilon reaches every run.  The
    identity run alone steps with the sponge off, whatever the section says, and no
    run records flux columns."""
    import dataclasses

    from cqnls import experiments
    from cqnls.dynamics import StepperConfig

    stepper = StepperConfig(dt=4e-3, t_end=0.08, sponge=True, evacuation_radius=3.0,
                            evacuation_epsilon=0.2, morawetz_radius=4.0, flux_radius=3.0)
    cfg = ExperimentConfig(experiment="morawetz", grid=RadialGrid(r_max=64.0, n=1023),
                           stepper=stepper)
    seen = []
    real_evolve = experiments.evolve

    def recording_evolve(u0, st):
        seen.append(st)
        return real_evolve(u0, st)

    monkeypatch.setattr(experiments, "evolve", recording_evolve)
    experiments.run_morawetz(cfg, tmp_path)
    overridden = {"t_end", "snapshot_stride", "sponge", "evacuation_radius",
                  "morawetz_radius", "flux_radius"}
    assert [st.t_end for st in seen] == [0.08, 0.02, 0.04, 0.08]
    assert [st.sponge for st in seen] == [False, True, True, True]
    assert [st.flux_radius for st in seen] == [None] * 4
    for st in seen:
        for f in dataclasses.fields(StepperConfig):
            if f.name not in overridden:
                assert getattr(st, f.name) == getattr(stepper, f.name), f.name


def test_sweep_bubble_row_needs_no_amplitude_scan(tmp_path, monkeypatch):
    from cqnls import experiments
    from cqnls.config import InitialData, SweepSpec
    from cqnls.dynamics import StepperConfig
    from cqnls.grid import RadialGrid

    stepper = StepperConfig(dt=4e-3, t_end=0.4, sponge=True)
    bubble_grid = experiments._BUBBLE_GRID
    scanned = experiments.find_kminus_amplitude(RadialGrid(bubble_grid.r_max, bubble_grid.n))
    expected = experiments._sweep_point(
        (bubble_grid, replace(stepper, sponge=False, **experiments._BUBBLE_STEPPER),
         InitialData(family="bubble", amplitude=scanned)))

    def no_scan(*args, **kwargs):
        raise AssertionError("the sweep scanned for the K- amplitude")

    monkeypatch.setattr(experiments, "find_kminus_amplitude", no_scan)
    cfg = ExperimentConfig(experiment="dichotomy-sweep", grid=RadialGrid(r_max=64.0, n=1023),
                           stepper=stepper,
                           sweep=SweepSpec(amplitude_start=0.2, amplitude_stop=0.2,
                                           amplitude_step=0.1, include_bubble=True))
    experiments.run_dichotomy(cfg, tmp_path)
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert rows[-1] == ",".join(str(expected[c]) for c in experiments.SweepResult.CSV_COLUMNS)


@pytest.mark.parametrize("family", ["bubble", "gaussian-mix", "file"])
def test_dichotomy_sweep_of_non_gaussian_family_is_a_config_error(tmp_path, capsys, family):
    """The sweep steps gaussians only; another [initial] family exits 1 instead of
    being swept as width-1 gaussians."""
    cfgfile = tmp_path / "sw.ini"
    mix = "amplitudes = 0.5\nwidths = 1.0\n" if family == "gaussian-mix" else ""
    cfgfile.write_text("[run]\nexperiment = dichotomy-sweep\n\n[grid]\nr_max = 64.0\nn = 1023\n\n"
                       f"[initial]\nfamily = {family}\n{mix}\n[stepper]\ndt = 4e-3\nt_end = 0.04\n")
    out = tmp_path / "o"
    assert main(["dichotomy-sweep", "--config", str(cfgfile), "--out", str(out)]) == 1
    error = out / "dichotomy-sweep" / "error.txt"
    assert str(error) in capsys.readouterr().out
    assert f"family {family!r} cannot be swept" in error.read_text()
    assert not (out / "dichotomy-sweep" / "sweep.csv").exists()


def test_sweep_workers_deterministic(tmp_path):
    from cqnls.config import SweepSpec
    from cqnls.dynamics import StepperConfig
    from cqnls.config import ExperimentConfig
    from cqnls.experiments import run_dichotomy

    base = dict(
        grid=RadialGrid(r_max=64.0, n=1023),
        stepper=StepperConfig(dt=4e-3, t_end=2.0, sponge=True),
        sweep=SweepSpec(amplitude_start=0.2, amplitude_stop=0.6,
                        amplitude_step=0.2, include_bubble=False),
    )
    outs = []
    for name, workers in (("w1", 1), ("w2", 2)):
        out = tmp_path / name
        out.mkdir()
        cfg = ExperimentConfig(experiment="dichotomy-sweep", workers=workers, **base)
        run_dichotomy(cfg, out)
        outs.append((out / "sweep.csv").read_bytes())
    assert outs[0] == outs[1]


# a fresh interpreter importing cqnls, cqnls.experiments and cqnls.cli; prints
# whether the process pool of a parallel sweep was loaded with them
_FRESH_IMPORT = """
import json, sys
import cqnls, cqnls.cli, cqnls.experiments
print(json.dumps(sorted(m for m in ("concurrent.futures", "multiprocessing") if m in sys.modules)))
"""


def _fresh_env():
    """The environment of a fresh interpreter that imports this cqnls."""
    import cqnls

    src = str(Path(cqnls.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def test_cqnls_imports_no_process_pool():
    """concurrent.futures is imported by a sweep with workers > 1, not by importing cqnls."""
    run = subprocess.run([sys.executable, "-c", _FRESH_IMPORT], env=_fresh_env(),
                         capture_output=True, text=True, check=True)
    assert json.loads(run.stdout) == []


def test_experiment_names_are_the_registry():
    """A name that config validation accepts but run() cannot dispatch would surface as a
    KeyError inside run, reported as a numerical failure."""
    from cqnls.config import EXPERIMENTS
    from cqnls.experiments import REGISTRY

    assert EXPERIMENTS == tuple(REGISTRY)


def test_classify_experiment(tmp_path):
    cfgfile = tmp_path / "cl.json"
    cfgfile.write_text(json.dumps({
        "experiment": "classify",
        "grid": {"r_max": 64.0, "n": 4095},
        "initial": {"family": "gaussian", "amplitude": 0.1},
    }))
    out = tmp_path / "o"
    assert main(["classify", "--config", str(cfgfile), "--out", str(out)]) == 0
    got = json.loads((out / "classify" / "classification.json").read_text())
    assert got["tag"] == "KPlus"
    assert not (out / "classify" / "classifications.csv").exists()


# each integer field: the config dict that sets it, and how to read it back
_INT_FIELDS = (
    (lambda v: {"grid": {"n": v}}, lambda cfg: cfg.grid.n),
    (lambda v: {"stepper": {"snapshot_stride": v}}, lambda cfg: cfg.stepper.snapshot_stride),
    (lambda v: {"workers": v}, lambda cfg: cfg.workers),
    (lambda v: {"seed": v}, lambda cfg: cfg.seed),
)


@settings(max_examples=60, deadline=None)
@given(value=st.booleans()
       | st.floats(allow_nan=True, allow_infinity=True).filter(lambda x: not x.is_integer())
       | st.floats(-1e6, 1e6).filter(lambda x: not x.is_integer()).map(repr)
       | st.sampled_from([[8], {"n": 8}, "8 nodes"]))
def test_int_fields_refuse_non_integral_values(value):
    """No truncation: 2047.9, true, 2.5, NaN or "2047.5" for an int field is a ConfigError."""
    for build, _ in _INT_FIELDS:
        with pytest.raises(ConfigError):
            from_dict(build(value))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(8, 10**6), form=st.sampled_from([int, float, str, np.int64]))
def test_int_fields_accept_integral_values(n, form):
    for build, read in _INT_FIELDS:
        got = read(from_dict(build(form(n))))
        assert got == n and type(got) is int


@pytest.mark.parametrize("section, key, value", [
    ("grid", "r_max", True), ("stepper", "dt", False), ("stepper", "morawetz_radius", True),
    ("initial", "amplitudes", [True, 0.2]),
])
def test_float_fields_refuse_booleans(section, key, value):
    with pytest.raises(ConfigError, match="boolean"):
        from_dict({section: {key: value}})


def test_tuple_fields_parse_lists_and_strings():
    for raw in ([0.5, 2], "0.5, 2", ("0.5", "2")):
        assert from_dict({"initial": {"widths": raw}}).initial.widths == (0.5, 2.0)


# the manifest's config_hash of each shipped config; a refactor must not move them
_SHIPPED_CONFIG_HASHES = {
    "dichotomy.ini": "5c00ee47a0207a758fe6ecfdd18f30b0a9a8a53699de50209b196fad66fc7d5d",
    "free_decay.ini": "a4fd085d4d49ec1f88f69a0fdd9fbe52935fc2ea38430b51eaad2b6a07ca4075",
    "morawetz_scaling.json": "fed69da956434412d29ace0f2fc67db3ff4939204b8d2a6188338c1b04e8ee6f",
    "thresholds.ini": "778359125023c781bd822240b9cfa3b2af0e7dd5846ef27d65b69ec61385bec1",
}


def test_shipped_configs_load():
    from cqnls.experiments import REGISTRY
    from cqnls.storage import config_hash

    configs = sorted((Path(__file__).parent.parent / "configs").glob("*.*"))
    assert [p.name for p in configs] == sorted(_SHIPPED_CONFIG_HASHES)
    for path in configs:
        cfg = load_config(path)
        assert isinstance(cfg, ExperimentConfig)
        assert cfg.experiment in REGISTRY
        assert config_hash(cfg.to_dict()) == _SHIPPED_CONFIG_HASHES[path.name], path.name


_SNAPSHOTS = ["snapshots/step000000000.npy", "snapshots/step000000000.npy.json",
              "snapshots/step000000002.npy", "snapshots/step000000002.npy.json"]


def test_manifest_lists_only_this_runs_files(tmp_path):
    """Files left by earlier runs and manifest.json itself are not this run's artifacts."""
    out = tmp_path / "o"
    base = {"experiment": "evolve", "grid": {"r_max": 16.0, "n": 255},
            "initial": {"family": "gaussian", "amplitude": 0.3}}
    cfgfile = tmp_path / "ev.json"
    good = dict(base, stepper={"dt": 1e-3, "t_end": 2e-3})
    cfgfile.write_text(json.dumps(good))
    assert main(["evolve", "--config", str(cfgfile), "--out", str(out)]) == 0
    manifest_path = out / "evolve" / "manifest.json"
    assert json.loads(manifest_path.read_text())["artifacts"] == [
        "outcome.json", "series.csv", *_SNAPSHOTS]

    cfgfile.write_text(json.dumps(dict(base, stepper={"dt": 1e-3, "t_end": 2e-3,
                                                      "evacuation_radius": 40.0})))
    assert main(["evolve", "--config", str(cfgfile), "--out", str(out)]) == 1
    assert json.loads(manifest_path.read_text())["artifacts"] == ["error.txt"]

    cfgfile.write_text(json.dumps(good))
    assert main(["evolve", "--config", str(cfgfile), "--out", str(out)]) == 0
    assert json.loads(manifest_path.read_text())["artifacts"] == [
        "outcome.json", "series.csv", *_SNAPSHOTS]


def test_evolve_writes_one_per_step_csv(tmp_path):
    """With a Morawetz radius, series.csv holds the Morawetz columns beside the
    conservation series, and it is the run's only per-step file."""
    out = tmp_path / "o"
    cfgfile = tmp_path / "ev.json"
    cfgfile.write_text(json.dumps({
        "experiment": "evolve", "grid": {"r_max": 16.0, "n": 255},
        "initial": {"family": "gaussian", "amplitude": 0.3},
        "stepper": {"dt": 1e-3, "t_end": 2e-3, "morawetz_radius": 4.0}}))
    assert main(["evolve", "--config", str(cfgfile), "--out", str(out)]) == 0
    manifest = json.loads((out / "evolve" / "manifest.json").read_text())
    assert manifest["artifacts"] == ["outcome.json", "series.csv", *_SNAPSHOTS]
    header = (out / "evolve" / "series.csv").read_text().splitlines()[0]
    assert header == ("t,mass,energy,kinetic,l6_local,"
                      "morawetz_m,morawetz_main,morawetz_err1,morawetz_err2")


def test_manifest_lists_this_runs_snapshots_not_stale_ones(tmp_path):
    """A rerun with a coarser snapshot stride into the same --out lists the snapshots it
    wrote and not the two an earlier run left beside them."""
    out = tmp_path / "o"
    cfgfile = tmp_path / "ev.json"
    for stride in (1, 2):
        cfgfile.write_text(json.dumps({
            "experiment": "evolve", "grid": {"r_max": 16.0, "n": 255},
            "initial": {"family": "gaussian", "amplitude": 0.3},
            "stepper": {"dt": 1e-3, "t_end": 4e-3, "snapshot_stride": stride}}))
        assert main(["evolve", "--config", str(cfgfile), "--out", str(out)]) == 0
    snapdir = out / "evolve" / "snapshots"
    assert len(list(snapdir.glob("*.npy"))) == 5
    written = [f"snapshots/step{k:09d}.npy{ext}" for k in (0, 2, 4) for ext in ("", ".json")]
    manifest = json.loads((out / "evolve" / "manifest.json").read_text())
    assert manifest["artifacts"] == ["outcome.json", "series.csv", *written]


def test_config_hash_ignores_out_dir_and_workers(tmp_path):
    """config_hash names what the run computes: two --out directories and two worker
    counts of one config record one hash."""
    from cqnls.storage import config_hash

    cfgfile = tmp_path / "cl.json"
    cfgfile.write_text(json.dumps({"experiment": "classify", "grid": {"r_max": 16.0, "n": 255},
                                   "initial": {"family": "gaussian", "amplitude": 0.1}}))
    hashes = set()
    for name in ("o1", "o2"):
        out = tmp_path / name
        assert main(["classify", "--config", str(cfgfile), "--out", str(out)]) == 0
        hashes.add(json.loads((out / "classify" / "manifest.json").read_text())["config_hash"])
    cfg = load_config(cfgfile)
    hashes.add(config_hash(replace(cfg, workers=2).to_dict()))
    assert hashes == {config_hash(cfg.to_dict())}


def test_too_short_morawetz_run_is_a_config_error(tmp_path, capsys):
    """The identity run steps to t = 2 and needs two steps for its dM/dt residual, so a
    morawetz dt above 1 is refused when the config loads, naming dt and the identity
    run: exit 1, no output directory."""
    cfgfile = tmp_path / "mw.json"
    cfgfile.write_text(json.dumps({
        "experiment": "morawetz",
        "grid": {"r_max": 16.0, "n": 255},
        "initial": {"family": "gaussian", "amplitude": 0.5},
        "stepper": {"dt": 1.5, "t_end": 6.0, "morawetz_radius": 4.0},
    }))
    out = tmp_path / "o"
    assert main(["morawetz", "--config", str(cfgfile), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "identity run" in err and "dt 1.5" in err
    assert not out.exists()
    # dt = 1 gives the identity run its two steps
    assert from_dict({"experiment": "morawetz",
                      "stepper": {"dt": 1.0, "t_end": 4.0}}).stepper.steps == 4


def test_refused_morawetz_run_writes_no_series(tmp_path):
    """A stepper assigned after the config is built skips the load-time checks; the run
    then fails in its T-scaling rows and leaves no morawetz_series.csv behind."""
    from cqnls.experiments import run

    cfg = ExperimentConfig(experiment="morawetz", grid=RadialGrid(r_max=64.0, n=1023),
                           out_dir=str(tmp_path))
    cfg.stepper = StepperConfig(dt=1e-2, t_end=1.01, morawetz_radius=4.0)
    assert run(cfg) == 1
    assert sorted(p.name for p in (tmp_path / "morawetz").iterdir()) == [
        "error.txt", "manifest.json"]


def test_morawetz_identity_run_stops_at_a_whole_step(tmp_path):
    """t = 2 is not a whole number of steps of dt 3e-3: the identity run takes the
    666 steps to t = 1.998, the last whole step before it."""
    cfgfile = tmp_path / "mw.json"
    cfgfile.write_text(json.dumps({
        "experiment": "morawetz",
        "grid": {"r_max": 64.0, "n": 1023},
        "initial": {"family": "gaussian", "amplitude": 0.5},
        "stepper": {"dt": 3e-3, "t_end": 2.4, "sponge": True, "morawetz_radius": 4.0},
    }))
    out = tmp_path / "o"
    assert main(["morawetz", "--config", str(cfgfile), "--out", str(out)]) == 0
    series = (out / "morawetz" / "morawetz_series.csv").read_text().splitlines()
    assert len(series) == 1 + 667
    assert float(series[-1].split(",")[0]) == pytest.approx(1.998, rel=1e-12)
    got = json.loads((out / "morawetz" / "averaged_l6.json").read_text())
    assert len(got["rows"]) == 3


def test_morawetz_step_count_not_a_multiple_of_four_is_refused(tmp_path, capsys):
    """The T-scaling rows step t_end/4 and t_end/2, so 101 steps of dt 1e-2 are refused
    when the config loads, before any run and without an output directory."""
    cfgfile = tmp_path / "mw.json"
    cfgfile.write_text(json.dumps({
        "experiment": "morawetz",
        "grid": {"r_max": 64.0, "n": 1023},
        "initial": {"family": "gaussian", "amplitude": 0.5},
        "stepper": {"dt": 1e-2, "t_end": 1.01, "morawetz_radius": 4.0},
    }))
    out = tmp_path / "o"
    assert main(["morawetz", "--config", str(cfgfile), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "t_end 1.01" in err and "dt 0.01" in err
    assert not out.exists()
    # the rule is the morawetz experiment's: an evolve of the same stepper loads
    evolve = from_dict({"experiment": "evolve", "stepper": {"dt": 1e-2, "t_end": 1.01}})
    assert evolve.stepper.t_end == 1.01


@pytest.mark.parametrize("workers", [0, -1, -8])
def test_workers_below_one_refused(tmp_path, capsys, workers):
    """No silent serial run: a worker count below 1 is a config error, in a config or on the
    CLI, and reads the same from either source."""
    with pytest.raises(ConfigError, match="workers"):
        from_dict({"workers": workers})
    says = f"bad [run] section: workers must be at least 1, got {workers}"
    out = tmp_path / "o"
    assert main(["selftest", "--workers", str(workers), "--out", str(out)]) == 1
    assert says in capsys.readouterr().err
    cfgfile = tmp_path / "w.ini"
    cfgfile.write_text(f"[run]\nworkers = {workers}\n")
    assert main(["selftest", "--config", str(cfgfile), "--out", str(out)]) == 1
    assert says in capsys.readouterr().err
    assert not out.exists()


def test_negative_seed_refused(tmp_path, capsys):
    """The selftest's generator takes no negative seed, so the config refuses one at load."""
    with pytest.raises(ConfigError, match="seed must be at least 0, got -1"):
        from_dict({"seed": -1})
    cfgfile = tmp_path / "s.ini"
    cfgfile.write_text("[run]\nseed = -1\n")
    out = tmp_path / "o"
    assert main(["selftest", "--config", str(cfgfile), "--out", str(out)]) == 1
    assert "config error: bad [run] section: seed must be at least 0, got -1" in (
        capsys.readouterr().err)
    assert not out.exists()


_MORAWETZ_101_STEPS = {
    "grid": {"r_max": 64.0, "n": 1023},
    "initial": {"family": "gaussian", "amplitude": 0.5},
    "stepper": {"dt": 1e-2, "t_end": 1.01, "morawetz_radius": 4.0},
}


def test_cli_experiment_is_the_one_checked(tmp_path, capsys):
    """The command line's experiment replaces the file's before the run is checked, so an
    evolve runs from a file that names morawetz with a step count morawetz refuses, and a
    morawetz run from a file that names evolve is refused at load."""
    cfgfile = tmp_path / "m.json"
    cfgfile.write_text(json.dumps(dict(_MORAWETZ_101_STEPS, experiment="morawetz")))
    out = tmp_path / "o"
    assert main(["evolve", "--config", str(cfgfile), "--out", str(out)]) == 0
    assert (out / "evolve" / "series.csv").exists()
    assert (out / "evolve" / "outcome.json").exists()

    cfgfile = tmp_path / "e.json"
    cfgfile.write_text(json.dumps(dict(_MORAWETZ_101_STEPS, experiment="evolve")))
    out = tmp_path / "m"
    assert main(["morawetz", "--config", str(cfgfile), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        "config error: bad [run] section: morawetz needs ")
    assert not out.exists()


def _unreadable(tmp_path, kind):
    path = tmp_path / f"{kind}.ini"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b"[run]\nout_dir = \xff\xfe\n")
    elif kind == "percent":  # configparser resolves `%` when a value is read, not at parse
        path.write_text("[run]\nout_dir = runs/50%\n")
    return path


@pytest.mark.parametrize("kind, says", [
    ("missing", "cannot read config file {path}: "),
    ("directory", "cannot read config file {path}: "),
    ("not-utf8", "cannot read config file {path}: "),
    ("percent", "'%' must be followed by"),
])
def test_unreadable_config_is_a_config_error(tmp_path, capsys, kind, says):
    """A config file that cannot be read as text or INI values exits 1 with no traceback."""
    path = _unreadable(tmp_path, kind)
    out = tmp_path / "o"
    assert main(["selftest", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: " + says.format(path=path))
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_module_entry_point(tmp_path):
    """`python -m cqnls.cli` exits with main's status and prints its config error."""
    path = _unreadable(tmp_path, "directory")
    out = tmp_path / "o"
    run = subprocess.run([sys.executable, "-m", "cqnls.cli", "selftest", "--config", str(path),
                          "--out", str(out)], env=_fresh_env(), capture_output=True, text=True)
    assert run.returncode == 1
    assert run.stderr.startswith("config error:") and "Traceback" not in run.stderr
    assert not out.exists()


_FINITE = st.floats(-10.0, 10.0)


@settings(max_examples=60, deadline=None)
@given(start=_FINITE | st.sampled_from([np.nan, np.inf, -np.inf]),
       stop=_FINITE | st.sampled_from([np.nan, np.inf, -np.inf]),
       step=st.floats(-1.0, 1.0) | st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf]))
def test_sweep_spec_refuses_empty_or_unbounded_ranges(start, stop, step):
    """A sweep runs over a finite range start <= stop in positive finite steps, or not at all."""
    sweep = {"amplitude_start": start, "amplitude_stop": stop, "amplitude_step": step}
    valid = (np.isfinite(start) and np.isfinite(stop) and start <= stop
             and np.isfinite(step) and step > 0)
    if valid:
        assert from_dict({"sweep": sweep}).sweep.amplitude_step == step
    else:
        with pytest.raises(ConfigError, match="amplitude"):
            from_dict({"sweep": sweep})


def test_sweep_ignores_diagnostics_and_linear_flow(tmp_path):
    """The sweep steps the nonlinear flow without Morawetz or flux terms, whatever the
    stepper section says; radii beyond the grid would make evolve refuse the run."""
    from cqnls.config import SweepSpec
    from cqnls.dynamics import StepperConfig
    from cqnls.experiments import run_dichotomy

    sweep = SweepSpec(amplitude_start=0.4, amplitude_stop=1.2, amplitude_step=0.4,
                      include_bubble=False)
    plain = StepperConfig(dt=4e-3, t_end=0.4, sponge=True)
    extra = StepperConfig(dt=4e-3, t_end=0.4, sponge=True,
                          morawetz_radius=100.0, flux_radius=100.0)
    outs = []
    for name, stepper in (("plain", plain), ("extra", extra)):
        out = tmp_path / name
        out.mkdir()
        cfg = ExperimentConfig(experiment="dichotomy-sweep", grid=RadialGrid(r_max=64.0, n=1023),
                               stepper=stepper, sweep=sweep)
        run_dichotomy(cfg, out)
        outs.append((out / "sweep.csv").read_bytes())
    assert outs[0] == outs[1]


def test_manifest_records_the_package_version(tmp_path):
    import cqnls
    from cqnls.storage import write_manifest

    write_manifest(tmp_path / "manifest.json", {"a": 1}, 0.5, [])
    got = json.loads((tmp_path / "manifest.json").read_text())
    assert got["versions"]["cqnls"] == cqnls.__version__


def test_manifest_records_memory_cost(tmp_path):
    """manifest.json carries the run's minor page faults and peak RSS, failed or not."""
    base = {"experiment": "evolve", "grid": {"r_max": 16.0, "n": 255},
            "initial": {"family": "gaussian", "amplitude": 0.3}}
    cfgfile = tmp_path / "ev.json"
    out = tmp_path / "o"
    for stepper, code in (({"dt": 1e-3, "t_end": 2e-3}, 0),
                          ({"dt": 1e-3, "t_end": 2e-3, "evacuation_radius": 40.0}, 1)):
        cfgfile.write_text(json.dumps(dict(base, stepper=stepper)))
        assert main(["evolve", "--config", str(cfgfile), "--out", str(out)]) == code
        manifest = json.loads((out / "evolve" / "manifest.json").read_text())
        assert isinstance(manifest["minor_page_faults"], int)
        assert manifest["minor_page_faults"] >= 0
        assert manifest["peak_rss_mb"] > 0.0
