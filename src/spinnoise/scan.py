"""Experiment orchestration: polarization, field, and detuning scans.

Each axis point runs an independent ensemble of noisy trajectories from the
deterministic steady state, records the rotation- and ellipticity-noise
signals, and averages their Welch PSDs.  The (points x trajectories) grid
is cut into tasks that give each worker process the same share: each
point's trajectories in one range a worker, the points grouped within the
ranges.  Each task sets up each of its points in one pass, then steps
them in one engine call of at most ``_CALL_TRAJECTORIES`` trajectories,
which records their signals directly (the readout is part of its
operators) and hands each chunk to a sink that pushes it straight into
the task's Welch estimate, so no record is held and no buffer grows with
the scan.
Trajectory seeds derive from (master_seed, axis-value bits, trajectory
index), so any sub-range of a scan, and any grouping of points and
trajectories into tasks, reproduces exactly the corresponding rows of the
full scan.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import logging
import math
import multiprocessing
import os
from concurrent.futures import Executor, ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import AXIS_KEYS, ExperimentConfig, write_manifest
from .core import SQRT2
from .detection import SIGNAL_MODES, readout_matrix, shot_noise_floor, transmission
from .exceptions import ConfigError, DomainError, NumericError
from .integrator import (
    evolve_ensemble_coherences,
    free_evolve_ground,
    steady_state,
)
from .spectral import (
    SpectrumRecord,
    TableRows,
    WelchAccumulator,
    average_spectra,
    video_average,
    welch_psd_batch,  # noqa: F401  (looked up on this module by perfbench/tracer.py)
    write_spectrum_csv,
    write_table,
)

logger = logging.getLogger(__name__)


@dataclass
class ScanPoint:
    """Averaged spectra and detection bookkeeping of one axis value."""

    axis_value: float
    spectra: dict[str, SpectrumRecord]
    transmission: float
    shot_floor: float
    series: np.ndarray | None = None   # [RND, END] of trajectory 0, from simulate_point


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
    identical physical points share seeds across different scan ranges
    (-0.0 is keyed as 0.0)."""
    bits = int(np.float64(axis_value + 0.0).view(np.uint64))
    return [int(master_seed), bits, int(trajectory_index)]


def _point_metadata(cfg: ExperimentConfig, axis_value: float, mode: str) -> dict:
    return {
        **cfg.lab_values(axis_value),
        "mode": mode,
        "vbw_hz": cfg.vbw_hz,
        "seed": cfg.master_seed,
    }


def _series_metadata(cfg: ExperimentConfig) -> dict:
    """The time-series table's metadata: the point's lab parameters and seed."""
    return {**cfg.lab_values(), "seed": cfg.master_seed}


# perfbench/tracer.py hooks this name as detection.field_projection.
def perpendicular_field_series(
    coords: np.ndarray, readouts: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Signals of P points' (rows, P * n_traj, 4) held coherence
    coordinates through their (P, 4, M) readouts, into the
    (rows, P * M * n_traj) ``out`` (columns by point, mode, trajectory).
    Either may be a transposed view: ``out`` is only split along its
    columns, which numpy does without a copy.  The four products are
    summed elementwise, not by matmul, so no bit depends on the layout.
    Scans do not use it: their engine call records the signals directly.
    """
    rows = len(coords)
    n_points, _, n_modes = readouts.shape
    x = coords.reshape(rows, n_points, 1, -1, 4)
    y = out.reshape(rows, n_points, n_modes, -1)
    g = readouts[..., None]
    np.multiply(x[..., 0], g[:, 0], out=y)
    for k in range(1, 4):
        y += x[..., k] * g[:, k]
    return out


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _split(n: int, n_groups: int, wide_first: bool = False) -> list[range]:
    """Contiguous, non-empty ranges of near-equal size covering range(n);
    with ``wide_first`` the ranges one longer than the rest come first."""
    n_groups = max(1, min(n_groups, n))
    if wide_first:
        size, extra = divmod(n, n_groups)
        bounds = [g * size + min(g, extra) for g in range(n_groups + 1)]
    else:
        bounds = [g * n // n_groups for g in range(n_groups + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


# The most trajectories (points times trajectories) one engine call steps.
# From about 16 trajectories up, a call costs the same per trajectory and
# chunk whatever its width, while its buffers grow with the width.
_CALL_TRAJECTORIES = 64


def _scan_tasks(n_values: int, n_traj: int, n_workers: int) -> list[tuple[range, range]]:
    """(points, trajectories) of each task, each one engine call of at most
    ``_CALL_TRAJECTORIES`` trajectories, cut so that ``n_workers`` workers,
    each taking the next task when it is free, step near-equal shares.

    Each point's trajectories are cut into ``n_workers`` near-equal ranges,
    or a whole multiple of that where a range would be wider than one call
    (on one worker, as few ranges as fit the calls), but never into more
    ranges than trajectories; the wider ranges come first.  The points are
    cut into near-equal contiguous groups, as many as fit the calls and at
    least enough for ``n_workers`` tasks.  Tasks go group by group, each
    group's ranges in trajectory order, so equal tasks come in runs, the
    least busy worker takes a group's widest range, and each point's tasks
    are in trajectory order.  Workers that take the tasks in turn then step
    shares that differ by at most one trajectory of each point of a group.
    """
    per_share = -(-n_traj // n_workers)
    n_ranges = min(n_traj, n_workers * -(-per_share // _CALL_TRAJECTORIES))
    ranges = _split(n_traj, n_ranges, wide_first=True)
    per_call = _CALL_TRAJECTORIES // len(ranges[0])
    n_groups = max(-(-n_values // per_call), -(-n_workers // len(ranges)))
    return [(points, group) for points in _split(n_values, n_groups) for group in ranges]


@dataclass
class _PointPart:
    """One trajectory group's share of a point, as a task returns it.  Its
    records carry no metadata: ``_finish_point`` attaches the point's to
    their average."""

    records: dict[str, list[SpectrumRecord]]   # per-trajectory PSDs by mode
    transmission: float | None = None          # from the group holding trajectory 0


# Trajectory 0's [RND, END] while simulate_point runs, None otherwise.  It
# is mapped before that run's pool forks, so the pool's workers hold it too.
_series: np.ndarray | None = None


def _run_task(
    cfg: ExperimentConfig, values: np.ndarray, trajectories: range
) -> list[_PointPart]:
    """Per-trajectory PSDs of a group of points over one trajectory range,
    without metadata (``_finish_point`` attaches the point's).

    Each point is set up in one pass: its params, its steady state and, in
    the group holding trajectory 0, its transmission.  The points'
    trajectories are then stepped in one engine call, whose sink pushes
    each chunk of recorded signals straight into the task's Welch
    accumulator, so no record is held; ``_scan_tasks`` bounds the call's
    width, so its buffers do not grow with the scan.  While simulate_point
    runs (one point), the group holding trajectory 0 also copies trajectory
    0's [RND, END] rows into the series buffer, which the result does not
    carry.  A trajectory's PSDs depend only on its seed, not on the
    grouping.  An exception carries the failing point's ``axis_value``.
    """
    first = trajectories.start == 0
    tcfg = cfg.trajectory_config()
    detector = cfg.detector_params()
    params, rho0, trans = [], [], []
    for value in values:
        try:
            params.append(cfg.system_params(value))
            rho0.append(steady_state(params[-1]))
            trans.append(transmission(params[-1], detector, rho0[-1]) if first else None)
        except Exception as exc:
            exc.axis_value = float(value)
            raise
    modes = cfg.modes()
    mode0 = SIGNAL_MODES.index(modes[0])
    n_traj = len(trajectories)
    welch = WelchAccumulator(
        len(values) * len(modes) * n_traj, tcfg.dt * tcfg.record_stride, cfg.rbw_hz
    )
    series = _series if first else None

    def push(rows: np.ndarray) -> None:
        # The engine's block is trajectory-major, (P * n_traj, n, 2); the
        # accumulator reads it in place through a (P, mode, n_traj, n) view.
        n = rows.shape[1]
        if series is not None:
            series[welch.n_samples : welch.n_samples + n] = rows[0]
        by_mode = rows.reshape(len(values), n_traj, n, 2).transpose(0, 3, 1, 2)
        welch.push(by_mode[:, mode0 : mode0 + len(modes)])

    keys = [seed_key(cfg.master_seed, value, t) for value in values for t in trajectories]
    try:
        evolve_ensemble_coherences(
            params, tcfg, keys, rho0=rho0, first_trajectory=trajectories.start,
            sink=push, readout=np.stack([readout_matrix(p) for p in params]),
        )
    except NumericError as exc:
        exc.axis_value = float(values[exc.point])
        raise
    return [
        _PointPart(
            records={
                mode: welch.records(traces=slice(c * n_traj, (c + 1) * n_traj))
                for c, mode in enumerate(modes, start=p * len(modes))
            },
            transmission=trans[p],
        )
        for p in range(len(values))
    ]


@contextlib.contextmanager
def worker_pool(cfg: ExperimentConfig, n_values: int, n_workers: int):
    """The task layout and the process pool of a run of ``n_values`` axis
    values on ``n_workers`` workers, as ``(layout, pool)``.

    The run's processes are ``n_workers``, but no more than the usable
    CPUs, and ``layout`` is the one cut of ``_scan_tasks`` for them.  The
    pool holds no more processes than the layout has tasks, each taking
    the next task when it is free; it is None (run in this process) for
    one process or one task.  The workers fork, whatever the platform's
    default start method, at the pool's first task, so opening a pool
    starts nothing, and they inherit this process's imports and any series
    buffer mapped before that task."""
    n_workers = max(1, min(n_workers, _usable_cpus()))
    layout = _scan_tasks(n_values, cfg.n_trajectories, n_workers)
    if n_workers < 2 or len(layout) < 2:
        yield layout, None
        return
    with ProcessPoolExecutor(
        max_workers=min(n_workers, len(layout)),
        mp_context=multiprocessing.get_context("fork"),
    ) as pool:
        yield layout, pool


def _shared_series(n_rows: int) -> np.ndarray:
    """A zeroed (n_rows, 2) float64 array in an anonymous shared mapping:
    processes forked after it write and read the same pages as this one.
    Nothing names the mapping: it is unmapped when the last view of it in
    the last process holding it goes, and nothing is left behind."""
    # Loaded here rather than with the module: only simulate maps a buffer,
    # and a scan's processes need not hold the extension.
    import mmap

    shared = mmap.mmap(-1, max(n_rows, 1) * 16)
    return np.frombuffer(shared, dtype=np.float64, count=2 * n_rows).reshape(n_rows, 2)


def _series_rows(
    burn_in: int, stride: int, dt: float, start: int, stop: int
) -> list[np.ndarray]:
    """Rows [start, stop) of the time-series table, read from the series
    buffer: the time of each recorded step, RND and END."""
    rows = _series[start:stop]
    t = (burn_in + 1 + np.arange(start, stop) * stride) * dt
    return [t, rows[:, 0], rows[:, 1]]


def _series_table(cfg: ExperimentConfig) -> TableRows:
    """``simulate_point``'s time-series table as ``write_table`` rows:
    ``t_s``, ``rnd_au`` and ``end_au`` of trajectory 0, read by row range
    from the series buffer, in this process or in a worker of its pool."""
    tcfg = cfg.trajectory_config()
    read = functools.partial(_series_rows, cfg.resolved_burn_in(), tcfg.record_stride, tcfg.dt)
    return TableRows(("t_s", "rnd_au", "end_au"), tcfg.n_recorded, read)


def _run_values(
    cfg: ExperimentConfig,
    values: np.ndarray,
    layout: list[tuple[range, range]],
    pool: Executor | None,
) -> list[ScanPoint]:
    """Scan points of ``values``, in order, run as the tasks of ``layout``.

    ``layout`` and ``pool`` are the run's ``worker_pool``: the tasks run on
    ``pool``, or in this process when it is None.  An ``rbw_hz`` no
    segment length reaches, a record too short for the Welch estimate at
    ``rbw_hz``, or a ``vbw_hz`` above the RBW it achieves, fails before
    any task starts.  A failing task logs the axis value of its failing
    point; the tasks not yet started are cancelled and the error
    propagates.
    """
    tcfg = cfg.trajectory_config()
    try:
        welch = WelchAccumulator(1, tcfg.dt * tcfg.record_stride, cfg.rbw_hz)
    except DomainError as exc:
        raise DomainError(f"rbw_hz: {exc}") from None
    try:
        welch.require(tcfg.n_recorded)
    except DomainError as exc:
        raise DomainError(
            f"{exc}; the record is set by n_steps, burn_in_steps and record_stride"
        ) from None
    if cfg.vbw_hz is not None and cfg.vbw_hz > welch.rbw:
        raise ConfigError(f"vbw_hz ({cfg.vbw_hz:g} Hz) must not exceed the achieved rbw ({welch.rbw:g} Hz)")
    tasks = [(cfg, values[points.start : points.stop], group) for points, group in layout]
    if pool is not None:
        futures = [pool.submit(_run_task, *task) for task in tasks]
        calls = [future.result for future in futures]
    else:
        futures = []
        calls = [functools.partial(_run_task, *task) for task in tasks]
    results = []
    for call, (_, task_values, group) in zip(calls, tasks):
        logger.info(
            "scan task: %s=%g..%g, trajectories %d..%d", cfg.scan_axis,
            task_values[0], task_values[-1], group.start, group.stop - 1,
        )
        try:
            results.append(call())
        except Exception as exc:
            failed = getattr(exc, "axis_value", None)
            if failed is None:
                logger.error("scan points %s=%g..%g failed", cfg.scan_axis,
                             task_values[0], task_values[-1])
            else:
                logger.error("scan point %s=%g failed", cfg.scan_axis, failed)
            for pending in futures:
                pending.cancel()
            raise
    parts: list[list[_PointPart]] = [[] for _ in values]
    for (points, _), task_parts in zip(layout, results):
        for index, part in zip(points, task_parts):
            parts[index].append(part)
    return [_finish_point(cfg, value, point_parts) for value, point_parts in zip(values, parts)]


def _finish_point(cfg: ExperimentConfig, value: float, parts: list[_PointPart]) -> ScanPoint:
    """Build a point's spectra, the one place that does: average its
    per-trajectory PSDs (trajectory groups in order), attach the point's
    metadata, then apply the video filter and, in absolute units, the shot
    floor, each step a new record with a metadata dict of its own."""
    trans = parts[0].transmission
    floor = shot_noise_floor(cfg.detector_params(), trans)
    spectra: dict[str, SpectrumRecord] = {}
    for mode in cfg.modes():
        averaged = dataclasses.replace(
            average_spectra([rec for part in parts for rec in part.records[mode]]),
            metadata=_point_metadata(cfg, value, mode),
        )
        if cfg.vbw_hz is not None:
            averaged = video_average(averaged, cfg.vbw_hz)
        if cfg.absolute_units:
            averaged = dataclasses.replace(
                averaged, psd=averaged.psd + floor,
                metadata={**averaged.metadata, "shot_floor_added": "true"},
            )
        spectra[mode] = averaged
    return ScanPoint(
        axis_value=float(value), spectra=spectra, transmission=trans, shot_floor=floor
    )


def run_point(cfg: ExperimentConfig, axis_value: float, n_workers: int = 1) -> ScanPoint:
    """Simulate one axis value: ensemble, signals, averaged spectra, floor.

    A scan of one value: with ``n_workers > 1`` (and as many usable CPUs)
    the ensemble is split into at least that many contiguous trajectory
    groups, run on a ``worker_pool`` of the call's own; the spectra are the
    same bits for any split.
    """
    with worker_pool(cfg, 1, n_workers) as (layout, pool):
        return _run_values(cfg, np.array([float(axis_value)]), layout, pool)[0]


def run_scan(cfg: ExperimentConfig, n_workers: int = 1) -> ScanResult:
    """Run every axis point of the configured scan.

    Points are independent, cut into the tasks of ``_scan_tasks`` for
    ``n_workers`` workers.  Results are ordered by axis value, the same
    bits for any ``n_workers``, and a failing point reports its axis value.
    """
    values = cfg.axis_values()
    if values.size == 0:
        raise DomainError("scan range is empty")
    with worker_pool(cfg, len(values), n_workers) as (layout, pool):
        return ScanResult(axis_name=cfg.scan_axis, points=_run_values(cfg, values, layout, pool))


def absorption_scan(
    cfg: ExperimentConfig, values: np.ndarray
) -> list[tuple[float, float]]:
    """Absorbed fraction at each value of the configured scan axis (steady
    state only).

    Each point is ``cfg.system_params(value)``, the configuration's own
    optical line, so absorption and transmission see the same line as the
    spectra of a scan.
    """
    detector = cfg.detector_params()
    return [
        (value, 1.0 - transmission(cfg.system_params(value), detector))
        for value in np.asarray(values, dtype=float).tolist()
    ]


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
    if not 0 < omega_l < math.inf:
        raise DomainError(f"omega_l must be > 0 and finite, got {omega_l}")
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


def simulate_point(
    cfg: ExperimentConfig, series_path: str | Path, n_workers: int = 1
) -> ScanPoint:
    """Single-point run at the configured parameters: the averaged-spectra
    ScanPoint, whose ``series`` is [RND, END] of trajectory 0, with that
    series written as a table to ``series_path``.

    The series buffer is mapped first, then the ``worker_pool`` of one
    value is opened, so every worker it forks holds the buffer.  The
    ensemble runs on that pool and the task holding trajectory 0 writes its
    signals into the buffer, so trajectory 0 is integrated once and the
    series goes through no pickle.  Only once the ensemble has succeeded is
    ``series_path``'s directory made; the same pool's workers then read the
    table's blocks from the buffer and format them.
    """
    global _series
    series_path = Path(series_path)
    _series = _shared_series(cfg.trajectory_config().n_recorded)
    try:
        with worker_pool(cfg, 1, n_workers) as (layout, pool):
            value = float(getattr(cfg, AXIS_KEYS[cfg.scan_axis]))
            (point,) = _run_values(cfg, np.array([value]), layout, pool)
            series_path.parent.mkdir(parents=True, exist_ok=True)
            write_table(series_path, _series_metadata(cfg), _series_table(cfg), executor=pool)
        point.series = _series
        return point
    finally:
        _series = None


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
    metadata = {
        "initial": report.initial,
        "omega_l_rad_per_s": float(report.omega_l),
        "dominant_freq_hz": float(report.dominant_freq_hz),
    }
    for label, freq in zip(report.labels, report.dominant_freqs_hz):
        metadata[f"dominant_{label}_hz"] = float(freq)
    write_table(path, metadata, {"t_s": report.t, **dict(zip(report.labels, report.populations))})


def write_absorption_csv(
    rows: list[tuple[float, float]], cfg: ExperimentConfig, path: str | Path
) -> None:
    """The absorption table: the scanned key's values, the absorbed and the
    transmitted fraction; the fixed keys of the line as metadata (the axis
    keys other than the scanned one, the Rabi frequency and the input
    power)."""
    axis_key = AXIS_KEYS[cfg.scan_axis]
    keys = ("theta_deg", "delta_hz", "rabi_hz", "b_gauss", "input_power_W")
    metadata = {key: float(getattr(cfg, key)) for key in keys if key != axis_key}
    values, absorption = np.array(rows, dtype=float).reshape(-1, 2).T
    write_table(
        path, metadata, {axis_key: values, "absorption": absorption, "transmission": 1.0 - absorption}
    )
