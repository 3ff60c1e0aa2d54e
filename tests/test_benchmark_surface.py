"""The names the benchmark under perfbench/ reaches in cqnls still exist, and
each workload passes its own gate.

perfbench is loaded by file path, as it stands: a change that deletes or
renames a name it imports, traces or calls, or that fails a workload's
checks, fails here, not only in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up while it runs
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    return _load("tracer")


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


def test_every_traced_entry_point_has_a_binding(tracer):
    unbound = [target.name for target in tracer.TARGETS if not tracer.bindings(target)]
    assert unbound == []


def test_every_workload_builds(workloads, tmp_path):
    """Each workload builds, runs and passes its own gate at seed 1."""
    assert workloads.WORKLOADS
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(1)
        out = tmp_path / name
        out.mkdir()
        checked = workload.check(workload.run(out), out)
        assert all(checked.checks.values()), (name, checked.checks)
