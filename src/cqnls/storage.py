"""On-disk formats: field snapshots, run series, outcomes, manifests."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ContractError
from .grid import RadialField, RadialGrid

_NPY_MAGIC = np.lib.format.MAGIC_PREFIX


def _sidecar_path(path: Path) -> Path:
    return path.with_suffix(path.suffix + ".json")


def write_snapshot(path, u: RadialField, t: float = 0.0, label: str = "") -> None:
    """complex128 ``.npy`` of the node values plus a JSON sidecar {r_max, n, t, label}.

    The values go to exactly ``path`` (``np.save`` on a path would append
    ``.npy``); the nodes are not stored, the sidecar's grid gives them.
    """
    path = Path(path)
    with open(path, "wb") as fh:
        np.save(fh, u.values)
    sidecar = {"r_max": u.grid.r_max, "n": u.grid.n, "t": t, "label": label}
    _sidecar_path(path).write_text(json.dumps(sidecar, indent=2))


def read_snapshot(path) -> tuple[RadialField, dict]:
    """The field and sidecar written by write_snapshot.

    Refuses, naming the path, anything but a complex128 ``.npy`` of shape
    (n,) for the sidecar's n; an old CSV snapshot is refused, not parsed.
    """
    path = Path(path)
    try:
        sidecar = json.loads(_sidecar_path(path).read_text())
        grid = RadialGrid(r_max=sidecar["r_max"], n=int(sidecar["n"]))
        with open(path, "rb") as fh:
            magic = fh.read(len(_NPY_MAGIC))
            fh.seek(0)
            values = np.load(fh, allow_pickle=False) if magic == _NPY_MAGIC else None
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ContractError(f"cannot read snapshot {path}: {exc}") from exc
    if values is None:
        raise ContractError(f"snapshot {path} is not a .npy file; snapshots are complex128 "
                            ".npy files now, and old CSV snapshots are not read")
    if values.dtype != np.complex128 or values.shape != (grid.n,):
        raise ContractError(f"snapshot {path} holds {values.dtype} values of shape "
                            f"{values.shape}, not complex128 of shape ({grid.n},) "
                            "as its sidecar grid says")
    try:
        return RadialField(grid, values), sidecar
    except ContractError as exc:
        raise ContractError(f"snapshot {path}: {exc}") from exc


def write_json(path, obj: dict) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True))


def config_hash(config_dict: dict) -> str:
    """SHA-256 of what the run computes: the config without ``out_dir`` and ``workers``,
    which move no artifact byte."""
    computed = {k: v for k, v in config_dict.items() if k not in ("out_dir", "workers")}
    canonical = json.dumps(computed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def write_manifest(path, config_dict: dict, wall_time: float, artifacts: list[str],
                   status: str = "ok", exit_code: int = 0, resources: dict | None = None) -> None:
    """``resources`` (the run's memory cost) goes into the manifest's top level."""
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
        **(resources or {}),
    }
    write_json(path, manifest)
