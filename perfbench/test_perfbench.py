"""Tests of the benchmark's own code: run with ``python -m pytest perfbench``."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from tracer import PER_LAYER_UNITS, TARGETS, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _bindings() -> dict:
    """Every attribute of every cqnls module, and every wrapped class attribute."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name == "cqnls" or name.startswith("cqnls."):
            snap.update({(name, k): v for k, v in vars(mod).items()})
    for t in TARGETS:
        if isinstance(t.owner, type):
            snap[(t.owner.__qualname__, t.attr)] = t.owner.__dict__[t.attr]
    return snap


def _assert_restored(before: dict) -> None:
    after = _bindings()
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert not changed


def test_benchmark_json_names_match_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert UNIT.fullmatch(m["unit"]), m["unit"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        **PER_LAYER_UNITS, "trace.overhead_frac": "ratio"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_passes_gate_and_restores_names(name, tmp_path):
    workload = workloads.WORKLOADS[name](0)
    before = _bindings()
    repeats = [run.run_repeat(workload, tmp_path, traced=traced) for traced in (False, True)]
    _assert_restored(before)
    run.gate(repeats)
    for r in repeats:
        assert "error" not in r, r.get("error")
        assert r["passed"], r["checks"]
    layers = repeats[1]["layers"]
    assert layers["dynamics.steps"] == repeats[0]["steps"] > 0
    assert layers["grid.transforms_per_step"] == 4
    instrumented = name == "morawetz"
    assert layers["morawetz.rate_calls"] == (layers["dynamics.steps"] + 1) * instrumented
    assert layers["morawetz.action_calls"] == layers["morawetz.rate_calls"]
    assert (layers["experiments.points"] == 21) == (name == "sweep")
    assert (layers["storage.files_written"] > 0) == (name != "morawetz")


def test_tracer_restores_names_when_the_body_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with Tracer():
            assert _bindings() != before
            raise RuntimeError("body failed")
    _assert_restored(before)


def test_self_time_excludes_children(tmp_path):
    r = run.run_repeat(workloads.Morawetz(0), tmp_path, traced=True)
    spans = r["spans"]  # [name, parent, start, end, child_s, info]
    for i, (name, parent, start, end, child_s, _) in enumerate(spans):
        children = [s for s in spans if s[1] == i]
        assert child_s == pytest.approx(sum(s[3] - s[2] for s in children), abs=1e-9)
        assert all(start <= s[2] and s[3] <= end for s in children)


def test_nested_storage_writes_count_once(tmp_path):
    import cqnls.storage

    path = tmp_path / "manifest.json"
    with Tracer() as tracer:
        cqnls.storage.write_manifest(path, {"a": 1}, 0.5, [])  # calls write_json inside
    assert len(tracer.spans) == 2
    layers = layer_metrics(tracer.spans)
    assert layers["storage.files_written"] == 1
    assert layers["storage.bytes_written"] == path.stat().st_size
    assert layers["storage.write_s"] == pytest.approx(tracer.spans[0].duration)


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
