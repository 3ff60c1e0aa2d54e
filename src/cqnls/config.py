"""Experiment configuration: dataclasses plus INI and JSON encodings.

The on-disk format is a flat-sectioned key-value file (INI); JSON carrying
the same section/field structure is accepted interchangeably.  Every field
has a default, and a fully defaulted config runs the selftest experiment.

There is one reader, ``from_dict``.  Its top level is the ``[run]`` section:
the keys ``experiment``, ``out_dir``, ``seed`` and ``workers``, beside one
object per section.  It builds each section, then the run itself, with
``_build_section``, so every key is checked and coerced the same way.  The
INI reader only parses, lifting the ``[run]`` keys to the top level.  Keyword
``run_keys`` (the command line's) replace the file's ``[run]`` keys first.
"""

from __future__ import annotations

import configparser
import dataclasses
import json
import math
import numbers
from dataclasses import dataclass, field, fields
from pathlib import Path

from .dynamics import StepperConfig
from .errors import ConfigError
from .grid import RadialGrid

EXPERIMENTS = (
    "thresholds", "classify", "evolve", "dichotomy-sweep",
    "morawetz", "free-decay", "selftest",
)


# the [grid] section is the run's RadialGrid; the old name stays for code that imports it
GridSpec = RadialGrid


@dataclass
class InitialData:
    """Initial-data descriptor.

    Families:
      gaussian      amplitude * exp(-(r/width)^2)
      gaussian-mix  sum of amplitudes[i] * exp(-(r/widths[i])^2)
      bubble        amplitude * sqrt(scale) * W(scale*r) * chi_{cutoff}(r)
      file          snapshot read from path (resampled if grids differ)
    """

    family: str = "gaussian"
    amplitude: float = 0.1
    width: float = 1.0
    amplitudes: tuple[float, ...] = ()
    widths: tuple[float, ...] = ()
    scale: float = 16.0
    cutoff: float = 10.0
    path: str = ""

    def __post_init__(self):
        if self.family not in ("gaussian", "gaussian-mix", "bubble", "file"):
            raise ConfigError(f"unknown initial-data family {self.family!r}")
        self.amplitudes = tuple(self.amplitudes)
        self.widths = tuple(self.widths)
        # a zero or negative size builds a zero field or an uncut bubble
        for name, value in (("width", self.width), ("scale", self.scale),
                            ("cutoff", self.cutoff), *(("widths", w) for w in self.widths)):
            if not (value > 0 and math.isfinite(value)):
                raise ConfigError(f"{name} must be positive and finite, got {value!r}")
        # a zero or negative amplitude builds a valid field, a non-finite one a non-finite field
        for name, value in (("amplitude", self.amplitude),
                            *(("amplitudes", a) for a in self.amplitudes)):
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if self.family == "gaussian-mix" and not (
                self.amplitudes and len(self.amplitudes) == len(self.widths)):
            raise ConfigError("gaussian-mix needs matching amplitudes and widths, got "
                              f"{len(self.amplitudes)} and {len(self.widths)}")


@dataclass
class SweepSpec:
    amplitude_start: float = 0.1
    amplitude_stop: float = 2.0
    amplitude_step: float = 0.1
    include_bubble: bool = True  # append the cutoff-bubble blowup preset

    def __post_init__(self):
        start, stop = self.amplitude_start, self.amplitude_stop
        if not (math.isfinite(start) and math.isfinite(stop) and start <= stop):
            raise ConfigError("amplitude_start and amplitude_stop must be finite, start <= stop")
        if not (self.amplitude_step > 0 and math.isfinite(self.amplitude_step)):
            raise ConfigError("amplitude_step must be positive and finite")


@dataclass
class ExperimentConfig:
    experiment: str = "selftest"
    grid: RadialGrid = field(default_factory=RadialGrid)
    initial: InitialData = field(default_factory=InitialData)
    stepper: StepperConfig = field(default_factory=StepperConfig)
    sweep: SweepSpec = field(default_factory=SweepSpec)
    out_dir: str = "outputs"
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if self.workers < 1:
            raise ConfigError(f"workers must be at least 1, got {self.workers}")
        if self.seed < 0:  # numpy's generators take no negative seed
            raise ConfigError(f"seed must be at least 0, got {self.seed}")
        steps = self.stepper.steps
        if self.experiment == "morawetz" and steps % 4:
            # its T-scaling rows step t_end/4 and t_end/2
            raise ConfigError(f"morawetz needs t_end {self.stepper.t_end} to be a multiple of "
                              f"4 steps of dt {self.stepper.dt}, got {steps} steps")
        if self.experiment == "morawetz" and self.stepper.dt > 1:
            # its identity run steps to t = 2 and needs two steps for its residual
            raise ConfigError(f"morawetz needs dt at most 1 for its identity run to t = 2, "
                              f"got dt {self.stepper.dt}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


_SECTIONS = {"grid": RadialGrid, "initial": InitialData, "stepper": StepperConfig,
             "sweep": SweepSpec}


def _coerce(raw, default):
    if isinstance(default, bool):
        if isinstance(raw, bool):
            return raw
        if str(raw).lower() in ("1", "true", "yes", "on"):
            return True
        if str(raw).lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"expected a boolean, got {raw!r}")
    if isinstance(raw, bool):
        raise ConfigError(f"boolean {raw!r} given for a non-boolean field")
    if isinstance(default, int):  # no truncation: 2047.9 must not become 2047
        integral = isinstance(raw, float) and raw.is_integer()
        if not (integral or isinstance(raw, (numbers.Integral, str))):
            raise ConfigError(f"expected an integer, got {raw!r}")
        return int(raw)
    if isinstance(default, float):
        return float(raw)
    if isinstance(default, tuple):
        if not isinstance(raw, (list, tuple)):
            raw = [x for x in str(raw).split(",") if x.strip()]
        return tuple(_coerce(x, 0.0) for x in raw)
    if isinstance(default, str):
        if not isinstance(raw, str):
            raise ConfigError(f"expected a string, got {raw!r}")
        return "" if raw in ("none", "None") else raw
    if default is None:
        return None if raw in ("", "none", "None", None) else float(raw)
    return raw  # a section that from_dict has already built


def _coerce_field(raw, default, key: str, where: str):
    try:
        return _coerce(raw, default)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key!r} in section [{where}]: {exc}") from exc


def _build_section(cls, mapping: dict, where: str):
    if not isinstance(mapping, dict):
        raise ConfigError(f"section [{where}] must be an object of keys, "
                          f"not {type(mapping).__name__}")
    kwargs = {}
    defaults = cls()
    known = [f.name for f in fields(cls)]
    for key, raw in mapping.items():
        if key not in known:
            raise ConfigError(f"unknown key {key!r} in section [{where}]; "
                              f"known: {', '.join(known)}")
        kwargs[key] = _coerce_field(raw, getattr(defaults, key), key, where)
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad [{where}] section: {exc}") from exc


def from_dict(d: dict, **run_keys) -> ExperimentConfig:
    if not isinstance(d, dict):
        raise ConfigError(f"the config's top level must be an object of sections, "
                          f"not {type(d).__name__}")
    top = {key: _build_section(_SECTIONS[key], raw, key) if key in _SECTIONS else raw
           for key, raw in {**d, **run_keys}.items()}
    return _build_section(ExperimentConfig, top, "run")


def load_config(path=None, **run_keys) -> ExperimentConfig:
    if path is None:  # a fully defaulted config
        return from_dict({}, **run_keys)
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if path.suffix == ".json" or text.lstrip().startswith("{"):
        try:
            return from_dict(json.loads(text), **run_keys)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text, source=str(path))
        d = {sec: dict(parser.items(sec)) for sec in parser.sections()}  # items() interpolates
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    d.update(d.pop("run", {}))  # a [run] key replaces a section of its name, never loses to it
    return from_dict(d, **run_keys)
