"""Experiment orchestration: polarization, field, and detuning scans.

Each axis point runs an independent ensemble of noisy trajectories from the
deterministic steady state, synthesizes the rotation- and ellipticity-noise
signals, and averages their Welch PSDs.  Trajectory seeds derive from
(master_seed, axis-value bits, trajectory index), so any sub-range of a
scan reproduces exactly the corresponding rows of the full scan.
"""

from __future__ import annotations

import csv
import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, write_manifest
from .core import SQRT2, SQRT3, SystemParams
from .detection import shot_noise_floor, transmission
from .exceptions import DomainError
from .integrator import (
    evolve_ensemble_coherences,
    free_evolve_ground,
    steady_state,
)
from .spectral import (
    SpectrumRecord,
    average_spectra,
    replace_metadata,
    video_average,
    welch_psd_batch,
    write_spectrum_csv,
)

logger = logging.getLogger(__name__)


@dataclass
class ScanPoint:
    """Averaged spectra and detection bookkeeping of one axis value."""

    axis_value: float
    spectra: dict[str, SpectrumRecord]
    transmission: float
    shot_floor: float
    series: np.ndarray | None = None   # e_perp of trajectory 0, when kept


@dataclass
class ScanResult:
    axis_name: str
    points: list[ScanPoint]


@dataclass
class ModeReport:
    """Free Larmor precession of one initial spin state over one period."""

    initial: str
    omega_l: float
    t: np.ndarray
    labels: tuple[str, str, str]
    populations: np.ndarray          # (3, n_samples)
    dominant_freqs_hz: tuple[float, float, float]
    dominant_freq_hz: float


def seed_key(master_seed: int, axis_value: float, trajectory_index: int) -> list[int]:
    """Independent-stream key; uses the axis value's bit pattern so that
    identical physical points share seeds across different scan ranges."""
    bits = int(np.float64(axis_value).view(np.uint64))
    return [int(master_seed), bits, int(trajectory_index)]


def _point_metadata(cfg: ExperimentConfig, axis_value: float, mode: str) -> dict:
    params_lab = {
        "theta_deg": cfg.theta_deg,
        "b_gauss": cfg.b_gauss,
        "delta_hz": cfg.delta_hz,
    }
    axis_to_key = {"theta": "theta_deg", "b_field": "b_gauss", "detuning": "delta_hz"}
    params_lab[axis_to_key[cfg.scan_axis]] = axis_value
    return {
        **params_lab,
        "mode": mode,
        "vbw_hz": cfg.vbw_hz,
        "seed": cfg.master_seed,
    }


# Field values projected per block of rows: the projection's temporaries
# stay near this many complex values however long the record.
_PROJECTION_BLOCK = 2**16


def _perpendicular_field(coherences: np.ndarray, params: SystemParams) -> np.ndarray:
    scale = params.kappa / SQRT3
    e_plus = 1j * scale * coherences[..., 0]
    e_minus = 1j * scale * coherences[..., 1]
    e_x = (e_minus - e_plus) / SQRT2
    e_y = e_plus + e_minus
    e_y *= -1j / SQRT2
    return -np.sin(params.theta) * e_x + np.cos(params.theta) * e_y


def perpendicular_field_series(
    coherences: np.ndarray, params: SystemParams
) -> np.ndarray:
    """e_perp(t) for recorded coherence pairs (rho[3,0], rho[3,2]).

    Memory-lean equivalent of detection.fields_from_coherence_series for
    long recordings: works through the leading axis in blocks, with the
    same arithmetic per element.  Input shape (..., 2), output shape (...).
    """
    coherences = np.asarray(coherences)
    if coherences.ndim < 2:
        return _perpendicular_field(coherences, params)
    out = np.empty(coherences.shape[:-1], dtype=complex)
    rows = max(1, _PROJECTION_BLOCK // max(1, out[0].size))
    for start in range(0, len(out), rows):
        out[start : start + rows] = _perpendicular_field(
            coherences[start : start + rows], params
        )
    return out


def run_point(
    cfg: ExperimentConfig, axis_value: float, keep_series: bool = False
) -> ScanPoint:
    """Simulate one axis value: ensemble, signals, averaged spectra, floor.

    With ``keep_series`` the point also carries e_perp of trajectory 0.
    """
    params = cfg.system_params(axis_value)
    tcfg = cfg.trajectory_config()
    detector = cfg.detector_params()
    rho0 = steady_state(params)
    keys = [seed_key(cfg.master_seed, axis_value, t) for t in range(cfg.n_trajectories)]
    coherences = evolve_ensemble_coherences(params, tcfg, keys, rho0=rho0)
    e_perp = perpendicular_field_series(coherences, params)
    del coherences
    series = e_perp[:, 0].copy() if keep_series else None

    trans = transmission(params, detector)
    floor = shot_noise_floor(detector, trans)
    dt_signal = tcfg.dt * tcfg.record_stride
    spectra: dict[str, SpectrumRecord] = {}
    for mode in cfg.modes():
        if mode == "rnd":
            signal = 2.0 * cfg.mean_field_au * np.real(e_perp)
        else:
            signal = 2.0 * cfg.mean_field_au * np.imag(e_perp)
        records = welch_psd_batch(
            signal, dt_signal, cfg.rbw_hz, metadata=_point_metadata(cfg, axis_value, mode)
        )
        del signal
        averaged = average_spectra(records)
        if cfg.vbw_hz is not None:
            averaged = video_average(averaged, cfg.vbw_hz)
        if cfg.absolute_units:
            averaged = SpectrumRecord(
                averaged.freqs,
                averaged.psd + floor,
                rbw=averaged.rbw,
                n_averages=averaged.n_averages,
                metadata=dict(averaged.metadata),
            )
            averaged = replace_metadata(averaged, shot_floor_added="true")
        spectra[mode] = averaged
    return ScanPoint(
        axis_value=float(axis_value), spectra=spectra, transmission=trans,
        shot_floor=floor, series=series,
    )


def run_scan(cfg: ExperimentConfig, n_workers: int = 1) -> ScanResult:
    """Run every axis point of the configured scan.

    Points are independent; with n_workers > 1 they run in separate
    processes.  Results are ordered by axis value regardless of completion
    order, and a failing point reports its axis value.
    """
    values = cfg.axis_values()
    if values.size == 0:
        raise DomainError("scan range is empty")
    points: list[ScanPoint] = []
    if n_workers > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            futures = [pool.submit(run_point, cfg, value) for value in values]
            for value, future in zip(values, futures):
                try:
                    points.append(future.result())
                except Exception:
                    logger.error("scan point %s=%g failed", cfg.scan_axis, value)
                    for pending in futures:
                        pending.cancel()
                    raise
    else:
        for i, value in enumerate(values):
            logger.info("scan point %d/%d: %s=%g", i + 1, values.size, cfg.scan_axis, value)
            try:
                points.append(run_point(cfg, value))
            except Exception:
                logger.error("scan point %s=%g failed", cfg.scan_axis, value)
                raise
    return ScanResult(axis_name=cfg.scan_axis, points=points)


def absorption_scan(
    cfg: ExperimentConfig, thetas_deg: np.ndarray
) -> list[tuple[float, float]]:
    """Absorbed fraction versus polarization angle (steady state only).

    Each angle uses the configuration's own optical line, so absorption and
    transmission see the same line as the spectra of a scan.
    """
    detector = cfg.detector_params()
    out = []
    for theta in np.asarray(thetas_deg, dtype=float):
        params = replace(cfg, theta_deg=float(theta)).system_params()
        out.append((float(theta), 1.0 - transmission(params, detector)))
    return out


# Initial states of the free-precession study, in the z basis {-1, 0, +1}.
_KET_MINUS1_Z = np.array([1.0, 0.0, 0.0], dtype=complex)
_KET_X = np.array([1.0, 0.0, 1.0], dtype=complex) / SQRT2
_KET_Y = 1j * np.array([1.0, 0.0, -1.0], dtype=complex) / SQRT2
_KET_ZERO_Z = np.array([0.0, 1.0, 0.0], dtype=complex)
_KET_PLUS_PI4 = np.array([np.exp(-1j * np.pi / 4), 0.0, np.exp(1j * np.pi / 4)], dtype=complex) / SQRT2
_KET_MINUS_PI4 = np.array([np.exp(1j * np.pi / 4), 0.0, np.exp(-1j * np.pi / 4)], dtype=complex) / SQRT2

MODE_INITIAL_STATES = {
    # initial ket, projection basis, population labels
    "minus1_z": (
        _KET_MINUS1_Z,
        np.eye(3, dtype=complex),
        ("pop_minus1_z", "pop_zero_z", "pop_plus1_z"),
    ),
    "x": (
        _KET_X,
        np.stack([_KET_X, _KET_Y, _KET_ZERO_Z], axis=1),
        ("pop_x", "pop_y", "pop_zero_z"),
    ),
    "minus_pi_4": (
        _KET_MINUS_PI4,
        np.stack([_KET_PLUS_PI4, _KET_MINUS_PI4, _KET_ZERO_Z], axis=1),
        ("pop_plus_pi4", "pop_minus_pi4", "pop_zero_z"),
    ),
}


def oscillation_mode_report(
    omega_l: float, initial: str, n_samples: int = 512
) -> ModeReport:
    """Free-precession populations over one Larmor period, with their
    dominant oscillation frequencies.

    ``initial`` selects the starting ket and the projection basis in which
    the motion is simplest: the z basis for ``minus1_z``, {x, y, 0_z} for
    ``x``, and the +-45-degree superposition pair for ``minus_pi_4``.
    """
    if omega_l <= 0:
        raise DomainError(f"omega_l must be > 0, got {omega_l}")
    if n_samples < 256:
        raise DomainError(f"need at least 256 samples per period, got {n_samples}")
    try:
        ket, basis, labels = MODE_INITIAL_STATES[initial]
    except KeyError:
        raise DomainError(
            f"unknown initial state {initial!r}; choose from {sorted(MODE_INITIAL_STATES)}"
        ) from None
    period = 2.0 * np.pi / omega_l
    t = np.arange(n_samples) * (period / n_samples)
    rhos = free_evolve_ground(ket, omega_l, t)
    # populations[k, t] = <b_k| rho(t) |b_k>
    populations = np.real(np.einsum("ik,tij,jk->kt", np.conj(basis), rhos, basis))
    dominant = []
    peak_mag = []
    for k in range(3):
        spectrum = np.abs(np.fft.rfft(populations[k]))
        spectrum[0] = 0.0
        k_max = int(np.argmax(spectrum))
        if spectrum[k_max] < 1e-9 * n_samples:
            dominant.append(0.0)
            peak_mag.append(0.0)
        else:
            dominant.append(k_max / period)
            peak_mag.append(float(spectrum[k_max]))
    overall = dominant[int(np.argmax(peak_mag))] if any(peak_mag) else 0.0
    return ModeReport(
        initial=initial,
        omega_l=omega_l,
        t=t,
        labels=labels,
        populations=populations,
        dominant_freqs_hz=tuple(dominant),
        dominant_freq_hz=overall,
    )


def simulate_point(cfg: ExperimentConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray, ScanPoint]:
    """Single-point run: time axis, RND and END series of trajectory 0, and
    the averaged-spectra ScanPoint at the configured parameters.

    The series come from the ensemble of run_point itself, so trajectory 0
    is integrated once.
    """
    axis_value = {
        "theta": cfg.theta_deg, "b_field": cfg.b_gauss, "detuning": cfg.delta_hz,
    }[cfg.scan_axis]
    point = run_point(cfg, axis_value, keep_series=True)
    tcfg = cfg.trajectory_config()
    e_perp = point.series
    t = (cfg.resolved_burn_in() + 1 + np.arange(e_perp.size) * tcfg.record_stride) * tcfg.dt
    rnd = 2.0 * cfg.mean_field_au * np.real(e_perp)
    end = 2.0 * cfg.mean_field_au * np.imag(e_perp)
    return t, rnd, end, point


def write_scan(result: ScanResult, cfg: ExperimentConfig, outdir: str | Path) -> list[Path]:
    """Write per-point spectrum CSVs, the scan manifest, and the run manifest."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    manifest_rows = []
    for index, point in enumerate(result.points):
        for mode, spec in point.spectra.items():
            filename = f"{mode}_{index:03d}.csv"
            write_spectrum_csv(spec, outdir / filename)
            written.append(outdir / filename)
            manifest_rows.append(
                (point.axis_value, mode, point.transmission, point.shot_floor, filename)
            )
    manifest_path = outdir / "scan_manifest.csv"
    with open(manifest_path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(
            ["axis_value", "mode", "transmission", "shot_floor_v2_per_hz", "file"]
        )
        for value, mode, trans, floor, filename in manifest_rows:
            writer.writerow([repr(float(value)), mode, repr(float(trans)), repr(float(floor)), filename])
    written.append(manifest_path)
    write_manifest(cfg, outdir / "run_manifest.cfg")
    written.append(outdir / "run_manifest.cfg")
    return written


def write_mode_report_csv(report: ModeReport, path: str | Path) -> None:
    lines = [
        f"# initial={report.initial}",
        f"# omega_l_rad_per_s={repr(float(report.omega_l))}",
        f"# dominant_freq_hz={repr(float(report.dominant_freq_hz))}",
    ]
    for label, freq in zip(report.labels, report.dominant_freqs_hz):
        lines.append(f"# dominant_{label}_hz={repr(float(freq))}")
    lines.append("t_s," + ",".join(report.labels))
    for i, t in enumerate(report.t):
        row = [repr(float(t))] + [repr(float(report.populations[k, i])) for k in range(3)]
        lines.append(",".join(row))
    with open(path, "w", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def write_absorption_csv(
    rows: list[tuple[float, float]], cfg: ExperimentConfig, path: str | Path
) -> None:
    lines = [
        f"# delta_hz={repr(float(cfg.delta_hz))}",
        f"# rabi_hz={repr(float(cfg.rabi_hz))}",
        f"# b_gauss={repr(float(cfg.b_gauss))}",
        f"# input_power_W={repr(float(cfg.input_power_W))}",
        "theta_deg,absorption,transmission",
    ]
    for theta, absorption in rows:
        lines.append(
            f"{repr(float(theta))},{repr(float(absorption))},{repr(float(1.0 - absorption))}"
        )
    with open(path, "w", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")
