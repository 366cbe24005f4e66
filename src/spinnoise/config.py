"""Flat key=value configuration files, presets, and run manifests.

Every physical quantity carries a unit suffix in its key name; angular
frequencies are derived on load.  A run manifest is just a config file with
every key resolved (defaults + preset + file + overrides), sufficient to
reproduce the run bit-exactly.
"""

from __future__ import annotations

import importlib.resources
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .core import SystemParams, doppler_pole
from .detection import SIGNAL_MODES, DetectorParams
from .exceptions import ConfigError
from .integrator import TrajectoryConfig
from .spectral import format_value

# Scan axis -> the configuration key it sweeps.
AXIS_KEYS = {"theta": "theta_deg", "b_field": "b_gauss", "detuning": "delta_hz"}
# Either signal, in the order the engine records them, or both.
DETECTION_MODES = SIGNAL_MODES + ("both",)
# The most points a scan grid may hold: far beyond any scan the package
# runs, and a bound on what a mistyped grid can ask to allocate.
MAX_SCAN_POINTS = 10**6
# Keys whose physics needs a sign.  A step, an atom number, a bandwidth
# (vbw_hz when set) or a detector constant must be > 0, and so must the
# Raman rate: only it relaxes the ground coherences that the probe leaves
# dark, so without it the steady state is not unique.  A field, a Rabi
# frequency, the other rates, the coupling and the seed must be >= 0.
_POSITIVE_KEYS = (
    "dt_s", "n_atoms", "rbw_hz", "vbw_hz", "gamma_r_hz",
    "responsivity_A_per_W", "transimpedance_V_per_A", "input_power_W",
)
_NON_NEGATIVE_KEYS = (
    "b_gauss", "rabi_hz", "gamma0_hz", "gamma_opt_hz", "gamma_t_hz", "kappa", "master_seed",
)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_int(text: str) -> int:
    """An integer literal, exactly; or an integral float (1e5, 131072.0) of
    magnitude at most 2**53, where every integer is exact."""
    refusal = ValueError(f"not an integer: {text.strip()!r}")
    try:
        return int(text)
    except ValueError:
        try:
            value = float(text)
        except ValueError:
            raise refusal from None
    if not value.is_integer() or abs(value) > 2**53:
        raise refusal
    return int(value)


def _optional(parser):
    """A blank value as None, anything else through ``parser``."""
    return lambda text: None if text.strip() == "" else parser(text)


# Field annotation -> parser of a config value of that type.
_PARSERS = {
    "float": float,
    "int": _parse_int,
    "int | None": _optional(_parse_int),
    "float | None": _optional(float),
    "bool": _parse_bool,
    "str": str,
}


@dataclass
class ExperimentConfig:
    """Fully resolved settings for a simulation, scan, or absorption run.

    Each field is one config key: its name, its default, and, through its
    annotation, its parser in ``_PARSERS``.
    """

    # physics; the defaults are the far-detuned bench-like point
    b_gauss: float = 1.0
    rabi_hz: float = 40e6
    theta_deg: float = 0.0
    delta_hz: float = 1.5e9
    gamma0_hz: float = 1.6e6
    gamma_opt_hz: float = 0.8e9   # Doppler HWHM; the optical pole derives from it
    gamma_t_hz: float = 30e3
    gamma_r_hz: float = 30e3
    n_atoms: float = 3.4e9
    kappa: float = 1.0            # signal scale: coupling times mean-field amplitude
    # trajectory
    dt_s: float = 1.0 / 18e6
    n_steps: int = 131072
    burn_in_steps: int | None = None   # blank -> 5/gamma_t
    record_stride: int = 1
    n_trajectories: int = 64
    master_seed: int = 12345
    # detector (key casing is part of the file format)
    responsivity_A_per_W: float = 0.7
    transimpedance_V_per_A: float = 5e3
    input_power_W: float = 1e-3
    # spectral
    rbw_hz: float = 91e3
    vbw_hz: float | None = None
    absolute_units: bool = False
    # scan
    scan_axis: str = "theta"
    scan_start: float = 0.0
    scan_stop: float = 90.0
    scan_step: float = 7.5
    detection_mode: str = "both"

    def __post_init__(self):
        if self.scan_axis not in AXIS_KEYS:
            raise ConfigError(
                f"scan_axis must be one of {tuple(AXIS_KEYS)}, got {self.scan_axis!r}"
            )
        if self.detection_mode not in DETECTION_MODES:
            raise ConfigError(
                f"detection_mode must be one of {DETECTION_MODES}, got {self.detection_mode!r}"
            )
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        for key in _POSITIVE_KEYS:
            value = getattr(self, key)
            if value is not None and not value > 0:
                raise ConfigError(f"{key} must be > 0, got {value}")
        for key in _NON_NEGATIVE_KEYS:
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be >= 0, got {getattr(self, key)}")
        # Without relaxation the steady state is not unique: the populations
        # need gamma0_hz or gamma_t_hz, the optical coherences a line width
        # from gamma0_hz or gamma_opt_hz.
        for pair in (("gamma0_hz", "gamma_t_hz"), ("gamma0_hz", "gamma_opt_hz")):
            if all(getattr(self, key) == 0 for key in pair):
                raise ConfigError(f"no unique steady state: {pair[0]} and {pair[1]} are both zero")
        if self.scan_step <= 0:
            raise ConfigError(f"scan_step must be > 0, got {self.scan_step}")
        if self.scan_stop < self.scan_start:
            raise ConfigError("scan_stop must be >= scan_start")
        # The grid's least value is scan_start; a field scan sweeps b_gauss.
        if self.scan_axis == "b_field" and self.scan_start < 0:
            raise ConfigError(
                f"scan_start must be >= 0 on the b_field axis (b_gauss), got {self.scan_start}"
            )
        if not self._grid_count() <= MAX_SCAN_POINTS:
            raise ConfigError(
                f"scan grid from scan_start={self.scan_start!r} to scan_stop={self.scan_stop!r} "
                f"in steps of scan_step={self.scan_step!r} has {self._grid_count():g} points; "
                f"at most {MAX_SCAN_POINTS} are allowed"
            )
        if self.n_trajectories < 1:
            raise ConfigError(f"n_trajectories must be >= 1, got {self.n_trajectories}")
        self.trajectory_config()   # refuses n_steps, burn_in_steps and record_stride by key

    def lab_values(self, axis_value: float | None = None) -> dict:
        """The lab value of every ``AXIS_KEYS`` key at one scan point, in
        that order: the configured values, with ``axis_value`` (when given)
        for the scanned key."""
        lab = {key: getattr(self, key) for key in AXIS_KEYS.values()}
        if axis_value is not None:
            lab[AXIS_KEYS[self.scan_axis]] = axis_value
        return lab

    def system_params(self, axis_value: float | None = None) -> SystemParams:
        """SystemParams for one scan point; axis_value overrides the scanned knob.

        ``gamma_opt_hz`` is the Doppler half width at half maximum of the
        line and ``gamma0_hz / 2`` its homogeneous half width; the model's
        single optical pole is the one that reproduces the Doppler-averaged
        response at the probe detuning (see ``core.doppler_pole``).
        """
        lab = self.lab_values(axis_value)
        pole_delta_hz, pole_gamma_hz = doppler_pole(
            lab["delta_hz"], self.gamma_opt_hz, 0.5 * self.gamma0_hz
        )
        return SystemParams.from_lab_units(
            b_gauss=lab["b_gauss"],
            rabi_hz=self.rabi_hz,
            theta_deg=lab["theta_deg"],
            delta_hz=pole_delta_hz,
            gamma0_hz=self.gamma0_hz,
            gamma_opt_hz=pole_gamma_hz,
            gamma_t_hz=self.gamma_t_hz,
            gamma_r_hz=self.gamma_r_hz,
            n_atoms=self.n_atoms,
            kappa=self.kappa,
        )

    def resolved_burn_in(self) -> int:
        """Configured burn-in, or 5 transit lifetimes' worth of steps."""
        if self.burn_in_steps is not None:
            return self.burn_in_steps
        gamma_t = 2.0 * math.pi * self.gamma_t_hz
        if gamma_t == 0.0:
            return 0
        steps = 5.0 / (gamma_t * self.dt_s) if gamma_t * self.dt_s > 0.0 else math.inf
        if not steps <= 2**53:
            raise ConfigError(
                f"gamma_t_hz={self.gamma_t_hz!r} gives a burn-in of {steps:g} steps "
                "(five transit lifetimes); set burn_in_steps"
            )
        return math.ceil(steps)

    def trajectory_config(self) -> TrajectoryConfig:
        return TrajectoryConfig(
            dt=self.dt_s,
            n_steps=self.n_steps,
            burn_in_steps=self.resolved_burn_in(),
            record_stride=self.record_stride,
        )

    def detector_params(self) -> DetectorParams:
        return DetectorParams(
            responsivity=self.responsivity_A_per_W,
            transimpedance=self.transimpedance_V_per_A,
            input_power=self.input_power_W,
        )

    def _grid_count(self) -> float:
        """Points the scan grid is cut from: floor(span / step + 1.5), inf
        where the span overflows the float range."""
        return float(np.floor((self.scan_stop - self.scan_start) / self.scan_step + 1.5))

    def axis_values(self) -> np.ndarray:
        """Scan grid start, start+step, ..., up to scan_stop (inclusive)."""
        values = self.scan_start + self.scan_step * np.arange(int(self._grid_count()))
        return values[values <= self.scan_stop + 1e-9 * self.scan_step]

    def modes(self) -> list[str]:
        return list(SIGNAL_MODES) if self.detection_mode == "both" else [self.detection_mode]

    def resolved_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


# Config key -> parser, in declaration order; a field whose annotation has no
# parser fails here, at import.
_KEY_PARSERS = {f.name: _PARSERS[f.type] for f in fields(ExperimentConfig)}


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Raw key=value pairs of one file; comments and blank lines skipped."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, equals, value = stripped.partition("=")
        if not equals or not key.strip():
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {line!r}")
        raw[key.strip()] = value.split("#", 1)[0].strip()
    return raw


def preset_path(name: str) -> Path:
    """Path of a shipped preset; accepts 'fig3_end' or 'fig3_end.cfg'."""
    filename = name if name.endswith(".cfg") else name + ".cfg"
    resource = importlib.resources.files("spinnoise") / "presets" / filename
    if not resource.is_file():
        available = sorted(
            p.name for p in (importlib.resources.files("spinnoise") / "presets").iterdir()
        )
        raise ConfigError(f"unknown preset {name!r}; shipped presets: {available}")
    return Path(str(resource))


def load_config(
    path: str | Path | None = None,
    preset: str | None = None,
    overrides: list[str] | None = None,
) -> ExperimentConfig:
    """Resolve defaults, an optional preset, an optional file, and overrides.

    Later sources win.  Unknown keys and malformed values raise ConfigError
    naming the offending key.
    """
    raw: dict[str, str] = {}
    if preset:
        raw.update(parse_config_text(preset_path(preset).read_text(), source=preset))
    if path is not None:
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        raw.update(parse_config_text(path.read_text(), source=str(path)))
    for item in overrides or []:
        key, equals, value = item.partition("=")
        if not equals or not key.strip():
            raise ConfigError(f"override must look like key=value, got {item!r}")
        raw[key.strip()] = value.strip()

    values = {}
    for key, parser in _KEY_PARSERS.items():
        if key in raw:
            try:
                values[key] = parser(raw.pop(key))
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"invalid value for key {key!r}: {exc}") from exc
    if raw:
        unknown = ", ".join(sorted(raw))
        raise ConfigError(f"unknown config key(s): {unknown}")
    return ExperimentConfig(**values)


def write_manifest(cfg: ExperimentConfig, path: str | Path) -> None:
    """Write the fully resolved configuration; reloadable via load_config."""
    resolved = cfg.resolved_dict()
    # Freeze the derived burn-in so a rerun is bit-identical even if the
    # derivation rule changes.
    resolved["burn_in_steps"] = cfg.resolved_burn_in()
    lines = [f"{key}={format_value(value)}" for key, value in resolved.items()]
    with open(path, "w", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")
