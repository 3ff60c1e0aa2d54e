"""On-disk formats: field snapshots, run series, outcomes, manifests."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ContractError
from .grid import RadialField, RadialGrid

SNAPSHOT_HEADER = "r,re_u,im_u"


def write_snapshot(path, u: RadialField, t: float = 0.0, label: str = "") -> None:
    """CSV with one row per node plus a JSON sidecar {r_max, n, t, label}."""
    path = Path(path)
    data = np.column_stack([u.grid.nodes, u.values.real, u.values.imag])
    np.savetxt(path, data, delimiter=",", header=SNAPSHOT_HEADER, comments="")
    sidecar = {"r_max": u.grid.r_max, "n": u.grid.n, "t": t, "label": label}
    path.with_suffix(path.suffix + ".json").write_text(json.dumps(sidecar, indent=2))


def read_snapshot(path) -> tuple[RadialField, dict]:
    path = Path(path)
    sidecar = json.loads(path.with_suffix(path.suffix + ".json").read_text())
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    grid = RadialGrid(r_max=sidecar["r_max"], n=int(sidecar["n"]))
    if data.shape[0] != grid.n:
        raise ContractError(f"snapshot {path} does not match its sidecar grid")
    values = data[:, 1] + 1j * data[:, 2]
    return RadialField(grid, values), sidecar


def write_json(path, obj: dict) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True))


def config_hash(config_dict: dict) -> str:
    canonical = json.dumps(config_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def write_manifest(path, config_dict: dict, wall_time: float, artifacts: list[str],
                   status: str = "ok", exit_code: int = 0) -> None:
    import scipy

    manifest = {
        "status": status,
        "exit_code": exit_code,
        "config_hash": config_hash(config_dict),
        "versions": {
            "cqnls": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "wall_time_s": round(wall_time, 3),
        "artifacts": sorted(artifacts),
    }
    write_json(path, manifest)
