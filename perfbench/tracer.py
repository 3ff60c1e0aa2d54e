"""Span tracer for the cqnls layers, installed from outside the package.

The tracer replaces each layer entry point at every name its callers look
up (a class attribute for methods, each importing module's binding for
functions), records one span per call in memory, and puts the original
objects back on exit.  Nothing under ``src/`` is edited.

A span's self time is its duration minus the time covered by its child
spans; calls are single-threaded, so children nest strictly and their
durations add up.
"""

from __future__ import annotations

import functools
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import cqnls.dynamics
import cqnls.experiments
import cqnls.functionals
import cqnls.grid
import cqnls.morawetz
import cqnls.storage
import cqnls.variational


def _dst_bytes(args, result) -> int:
    # computed from array sizes: one input and one output array per transform
    return args[1].nbytes + result.nbytes


def _evolve_info(args, result) -> tuple[int, str, bool]:
    traj, outcome = result
    return len(traj.times) - 1, outcome.tag, bool(outcome.evidence.get("aborted_nonfinite"))


def _written_bytes(path_index: int, sidecar: bool = False):
    def info(args, result) -> tuple[int, int]:
        path = Path(args[path_index])
        files = [path]
        if sidecar:
            files.append(path.with_suffix(path.suffix + ".json"))
        return len(files), sum(f.stat().st_size for f in files)
    return info


@dataclass(frozen=True)
class Target:
    """One layer entry point: ``attr`` on ``owner`` (a module or a class)."""

    layer: str
    owner: object
    attr: str
    info: Callable | None = None  # (args, result) -> span info, run after the span ends

    @property
    def name(self) -> str:
        owner = self.owner.__name__.rpartition(".")[2]
        return f"{owner}.{self.attr}"


TARGETS = (
    Target("grid", cqnls.grid.SpectralPlan, "forward", _dst_bytes),
    Target("grid", cqnls.grid.SpectralPlan, "inverse", _dst_bytes),
    Target("grid", cqnls.grid, "radial_derivative"),
    Target("dynamics", cqnls.dynamics, "evolve", _evolve_info),
    Target("functionals", cqnls.functionals, "report"),
    Target("variational", cqnls.variational, "thresholds"),
    Target("variational", cqnls.variational, "classify"),
    Target("morawetz", cqnls.morawetz, "morawetz_action"),
    Target("morawetz", cqnls.morawetz, "morawetz_rate"),
    Target("morawetz", cqnls.morawetz, "weight_build"),
    Target("storage", cqnls.storage, "write_snapshot", _written_bytes(0, sidecar=True)),
    Target("storage", cqnls.storage, "write_json", _written_bytes(0)),
    Target("storage", cqnls.storage, "write_manifest", _written_bytes(0)),
    Target("storage", cqnls.dynamics.Trajectory, "to_csv", _written_bytes(1)),
    Target("storage", cqnls.experiments.SweepResult, "to_csv", _written_bytes(1)),
    Target("storage", cqnls.morawetz.MorawetzSeries, "to_csv", _written_bytes(1)),
    Target("experiments", cqnls.experiments, "run_dichotomy"),
    Target("experiments", cqnls.experiments, "run_evolve"),
    Target("experiments", cqnls.experiments, "find_kminus_amplitude"),
    Target("experiments", cqnls.experiments, "_sweep_point"),
)


def bindings(target: Target) -> list[object]:
    """Every owner whose ``target.attr`` is the entry point callers reach.

    A method lives on its class.  A function is looked up through the global
    namespace of each module that imported it, so each such binding counts.
    """
    if isinstance(target.owner, type):
        return [target.owner]
    original = getattr(target.owner, target.attr)
    return [mod for name, mod in sorted(sys.modules.items())
            if (name == "cqnls" or name.startswith("cqnls."))
            and getattr(mod, target.attr, None) is original]


class Span:
    __slots__ = ("name", "layer", "parent", "start", "end", "child_s", "info")

    def __init__(self, name: str, layer: str, parent: int, start: float):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.start = start
        self.end = start
        self.child_s = 0.0
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def to_list(self) -> list:
        return [self.name, self.parent, self.start, self.end, self.child_s, self.info]


class Tracer:
    """Context manager that wraps ``targets`` on entry and restores them on exit."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for target in self.targets:
                owners = bindings(target)
                original = getattr(owners[0], target.attr)
                wrapper = self._wrap(target, original)
                for owner in owners:
                    self._patched.append((owner, target.attr, original))
                    setattr(owner, target.attr, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, target: Target, original: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        name, layer, info = target.name, target.layer, target.info

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = Span(name, layer, parent, perf_counter())
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent].child_s += span.duration
            if info is not None:
                span.info = info(args, result)
            return result

        return wrapper


# ---------------------------------------------------------------------------
# per-layer metrics of one traced repeat

# name -> unit; units "s" and "us" are timings, every other unit is a count
# that repeats exactly between runs of one seed
PER_LAYER_UNITS = {
    "grid.dst_calls": "count",
    "grid.dst_s": "s",
    "grid.dst_us_per_call": "us",
    "grid.dst_mb_computed": "MB",
    "grid.transforms_per_step": "count/step",
    "grid.raddiff_calls": "count",
    "grid.raddiff_s": "s",
    "dynamics.steps": "count",
    "dynamics.evolve_s": "s",
    "dynamics.self_s": "s",
    "dynamics.self_us_per_step": "us",
    "dynamics.decided_frac": "ratio",
    "dynamics.aborted_runs": "count",
    "functionals.report_calls": "count",
    "functionals.report_s": "s",
    "variational.thresholds_s": "s",
    "variational.classify_calls": "count",
    "variational.classify_s": "s",
    "morawetz.action_calls": "count",
    "morawetz.rate_calls": "count",
    "morawetz.action_s": "s",
    "morawetz.rate_s": "s",
    "morawetz.us_per_step": "us",
    "morawetz.weight_build_s": "s",
    "storage.files_written": "count",
    "storage.bytes_written": "byte",
    "storage.write_s": "s",
    "experiments.points": "count",
    "experiments.point_s_p50": "s",
    "experiments.point_s_max": "s",
    "experiments.self_s": "s",
}


def is_timing(unit: str) -> bool:
    return unit in ("s", "us")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and times of one traced repeat."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def of(*names: str) -> list[Span]:
        return [s for n in names for s in by_name.get(n, [])]

    def total(group: list[Span]) -> float:
        return sum(s.duration for s in group)

    # a transform belongs to a step when an evolve span encloses it
    in_evolve = [False] * len(spans)
    for i, s in enumerate(spans):
        in_evolve[i] = s.name == "dynamics.evolve" or (s.parent >= 0 and in_evolve[s.parent])

    dst = of("SpectralPlan.forward", "SpectralPlan.inverse")
    evolves = of("dynamics.evolve")
    steps = sum(s.info[0] for s in evolves)
    dst_in_steps = sum(1 for i, s in enumerate(spans)
                       if in_evolve[i] and s.name.startswith("SpectralPlan."))
    raddiff = of("grid.radial_derivative")
    action, rate = of("morawetz.morawetz_action"), of("morawetz.morawetz_rate")
    # a write made inside another write (write_manifest -> write_json) counts once
    writes = [s for s in spans
              if s.layer == "storage" and (s.parent < 0 or spans[s.parent].layer != "storage")]
    points = [s.duration for s in of("experiments._sweep_point")]

    def per_step(seconds: float) -> float:
        return seconds / steps * 1e6 if steps else 0.0

    return {
        "grid.dst_calls": len(dst),
        "grid.dst_s": total(dst),
        "grid.dst_us_per_call": total(dst) / len(dst) * 1e6 if dst else 0.0,
        "grid.dst_mb_computed": sum(s.info for s in dst) / 1e6,
        "grid.transforms_per_step": dst_in_steps / steps if steps else 0.0,
        "grid.raddiff_calls": len(raddiff),
        "grid.raddiff_s": total(raddiff),
        "dynamics.steps": steps,
        "dynamics.evolve_s": total(evolves),
        "dynamics.self_s": sum(s.self_s for s in evolves),
        "dynamics.self_us_per_step": per_step(sum(s.self_s for s in evolves)),
        "dynamics.decided_frac": (sum(s.info[1] != cqnls.dynamics.UNDECIDED for s in evolves)
                                  / len(evolves) if evolves else 0.0),
        "dynamics.aborted_runs": sum(s.info[2] for s in evolves),
        "functionals.report_calls": len(of("functionals.report")),
        "functionals.report_s": total(of("functionals.report")),
        "variational.thresholds_s": total(of("variational.thresholds")),
        "variational.classify_calls": len(of("variational.classify")),
        "variational.classify_s": total(of("variational.classify")),
        "morawetz.action_calls": len(action),
        "morawetz.rate_calls": len(rate),
        "morawetz.action_s": total(action),
        "morawetz.rate_s": total(rate),
        "morawetz.us_per_step": per_step(total(action) + total(rate)),
        "morawetz.weight_build_s": total(of("morawetz.weight_build")),
        "storage.files_written": sum(s.info[0] for s in writes),
        "storage.bytes_written": sum(s.info[1] for s in writes),
        "storage.write_s": total(writes),
        "experiments.points": len(points),
        "experiments.point_s_p50": statistics.median(points) if points else 0.0,
        "experiments.point_s_max": max(points, default=0.0),
        "experiments.self_s": sum(s.self_s for s in spans if s.layer == "experiments"),
    }
