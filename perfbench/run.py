"""cqnls benchmark: one workload, measured for a fixed time, gated for correctness.

Usage, from the repository root:

    python3 perfbench/run.py --workload {sweep,morawetz,evolve-large} \
        --seed N --seconds S --trace {0,1}

The workload body is repeated, in this one process, until ``--seconds`` is
used up.  ``--trace 0`` reports the end-to-end metrics: medians over the
repeats of the body's wall time and step rate, the set-up time of a fresh
interpreter (median of several), peak RSS and the share of repeats that
passed their gate.  ``--trace 1`` alternates untraced and traced repeats and
reports the per-layer metrics of the traced ones, plus the tracing overhead.

Every repeat is gated: the workload's own checks, and a bitwise comparison of
its outputs with the first repeat's.  A failed gate or an exception counts in
``failed`` and does not stop the run.  The last stdout line is the JSON
result; the lines before it list every metric by name with its unit, the
accuracy values and the environment.  A full record (and, when traced, the
spans of the first traced repeat) is written under ``.perfbench_out/`` in the
repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5

# a fresh interpreter up to ready: imports plus one warm-up transform per grid
SETUP_CODE = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.warm_up(workloads.WORKLOADS[sys.argv[3]].grids)
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


def cap_thread_pools() -> dict[str, str]:
    """Cap BLAS/OpenMP pools at the core count; must run before numpy loads."""
    cap = os.cpu_count() or 1
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        os.environ[var] = str(min(int(current), cap) if current.isdigit() else cap)
    return {var: os.environ[var] for var in THREAD_VARS}


def environment(seed: int, caps: dict[str, str], workload) -> dict:
    import numpy
    import scipy
    import scipy.fft

    caches = {}
    try:
        listing = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                                 timeout=10).stdout
        for line in listing.splitlines():
            key, _, value = line.partition(" ")
            if key.endswith("CACHE_SIZE") and value.strip():
                caches[key] = int(value)
    except (OSError, subprocess.SubprocessError, ValueError):
        caches = {"unavailable": True}
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "caches_bytes": caches,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_caps": caps,
        "scipy_fft_workers": scipy.fft.get_workers(),
        "experiment_workers": getattr(workload.cfg, "workers", None),
    }


def measure_setup(workload: str) -> list[float]:
    """Wall time of fresh interpreters importing and warming up; first one unmeasured."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE), workload]
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = perf_counter()
        subprocess.run(cmd, check=True, timeout=120)
        if i:
            times.append(perf_counter() - t0)
    return times


def run_repeat(workload, work: Path, traced: bool) -> dict:
    """One timed body plus its untimed check; never raises."""
    from tracer import Tracer, layer_metrics

    out = Path(tempfile.mkdtemp(dir=work))
    rec: dict = {"traced": traced}
    gc.collect()
    try:
        with (Tracer() if traced else contextlib.nullcontext()) as tracer:
            t0 = perf_counter()
            raw = workload.run(out)
            rec["body_s"] = perf_counter() - t0
        if traced:
            rec["layers"] = layer_metrics(tracer.spans)
            rec["spans"] = [s.to_list() for s in tracer.spans]
        checked = workload.check(raw, out)
        rec.update(steps=checked.steps, fingerprint=checked.fingerprint,
                   checks=checked.checks, values=checked.values)
    except Exception:
        rec["error"] = traceback.format_exc()
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return rec


def gate(repeats: list[dict]) -> None:
    """Add the run-level checks to each repeat and mark whether it passed."""
    from tracer import PER_LAYER_UNITS, is_timing

    ok = [r for r in repeats if "error" not in r]
    reference = ok[0] if ok else None
    traced = [r for r in ok if r["traced"]]
    for r in ok:
        r["checks"]["bitwise_repeat"] = r["fingerprint"] == reference["fingerprint"]
        if r["traced"]:
            layers, first = r["layers"], traced[0]["layers"]
            r["checks"]["traced_steps"] = layers["dynamics.steps"] == r["steps"]
            r["checks"]["counts_repeat"] = all(
                layers[k] == first[k] for k, unit in PER_LAYER_UNITS.items() if not is_timing(unit))
    for r in repeats:
        r["passed"] = "error" not in r and all(r["checks"].values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cqnls" / "__init__.py").is_file():
        print(f"error: no cqnls sources under {SRC}", file=sys.stderr)
        return 2
    caps = cap_thread_pools()
    sys.path.insert(0, str(SRC))
    import workloads
    from tracer import PER_LAYER_UNITS, is_timing

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    setup_times = [] if args.trace else measure_setup(args.workload)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    env = environment(args.seed, caps, workload)
    workloads.warm_up(workload.grids)

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    repeats: list[dict] = []
    min_repeats = 4 if args.trace else 2
    start = perf_counter()
    try:
        while True:
            t0 = perf_counter()
            rec = run_repeat(workload, work, traced=bool(args.trace) and len(repeats) % 2 == 1)
            rec["total_s"] = perf_counter() - t0
            if any("spans" in r for r in repeats):
                rec.pop("spans", None)  # counts repeat exactly: one repeat's spans suffice
            repeats.append(rec)
            typical = statistics.median(r["total_s"] for r in repeats)
            if len(repeats) >= min_repeats and perf_counter() - start + typical > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    gate(repeats)

    failed = sum(not r["passed"] for r in repeats)
    plain = [r for r in repeats if "error" not in r and not r["traced"]]
    traced = [r for r in repeats if "error" not in r and r["traced"]]
    if not plain or (args.trace and not traced):
        for r in repeats:
            sys.stderr.write(r.get("error", ""))
        print("error: no repeat of the workload completed", file=sys.stderr)
        return 1

    wall = statistics.median(r["body_s"] for r in plain)
    if args.trace:
        metrics = {}
        for name, unit in PER_LAYER_UNITS.items():
            vals = [r["layers"][name] for r in traced]
            metrics[name] = (statistics.median(vals) if is_timing(unit) else vals[0], unit)
        traced_wall = statistics.median(r["body_s"] for r in traced)
        metrics["trace.overhead_frac"] = (traced_wall / wall - 1.0, "ratio")
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall,
            "steps_per_s": statistics.median(r["steps"] / r["body_s"] for r in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": 1.0 - failed / len(repeats),
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}

    values = plain[0]["values"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repeats {len(repeats)} ({len(plain)} untraced, {len(traced)} traced)  "
          f"steps/repeat {plain[0]['steps']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:>16.6g} {unit}")
    print(f"  {'failed_frac':28s} {failed / len(repeats):>16.6g} ratio")
    for name, value in values.items():
        print(f"  {name:28s} {value:>16.6g} (accuracy, not timed)")
    for r in repeats:
        bad = [k for k, v in r.get("checks", {}).items() if not v]
        if bad or "error" in r:
            print(f"  gate failed: {', '.join(bad) or r['error'].strip().splitlines()[-1]}")
    print("env " + json.dumps(env, sort_keys=True))

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = [r.pop("spans") for r in traced if "spans" in r]
    record = {"env": env, "args": vars(args), "setup_s": setup_times,
              "metrics": {k: v for k, (v, _) in metrics.items()}, "repeats": repeats}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if spans:
        with open(OUT / f"{stem}-spans.jsonl", "w") as fh:
            fh.write(json.dumps(["name", "parent", "start", "end", "child_s", "info"]) + "\n")
            for s in spans[0]:
                fh.write(json.dumps(s) + "\n")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(repeats),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
