"""The benchmark's workloads: the timed call into spinnoise and the check of its outputs.

Each workload is one batch job through the command line, ``cli.main``,
looked up on its module at call time so that a traced run sees the call.
``run`` is the timed part.  ``check`` runs after the clock stops and
returns one entry per operation (a scan point): its id, a digest of its
output files and the problems found.

Checks:

* spectra are finite and non-negative;
* the RND Larmor-window centroid lies within one frequency bin of 2.8 MHz;
* on simulate_far, the Larmor and 2x-Larmor window powers of both modes lie
  within 5% of the linear-response oracle in ``tests/_ou_oracle.py``;
* on scan_theta, the absorbed fraction (1 - transmission) lies in [0, 1]
  and peaks within 3 degrees of the magic angle.

Digests are compared between operations by ``run.py``.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

import numpy as np

from spinnoise import cli, config
from spinnoise.spectral import find_peak, read_spectrum_csv

LARMOR_HZ = 2.8e6            # 1 G on the metastable-helium ground state
WINDOW_HALFWIDTH_HZ = 0.5e6
ORACLE_REL_TOL = 0.05
MAGIC_ANGLE_DEG = math.degrees(math.acos(1.0 / math.sqrt(3.0)))
PEAK_ANGLE_TOL_DEG = 3.0

FAR = ["delta_hz=1.5e9", "rabi_hz=40e6", "input_power_W=1.5e-3", "b_gauss=1.0", "rbw_hz=91e3"]
THETA_GRID = ["scan_start=0", "scan_stop=90", "scan_step=7.5"]

# Trajectories x steps per point; "tiny" exists only for the harness self-test.
SIZES = {
    "full": {"simulate_far": (64, 2**17), "scan_theta": (16, 2**15)},
    "tiny": {"simulate_far": (4, 2**12), "scan_theta": (2, 2**12)},
}


def _sets(items: list[str]) -> list[str]:
    return [arg for item in items for arg in ("--set", item)]


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def spectrum_problems(spectra: dict) -> list[str]:
    problems = []
    for mode, spec in sorted(spectra.items()):
        if not np.all(np.isfinite(spec.psd)):
            problems.append(f"{mode} spectrum has non-finite bins")
        elif np.any(spec.psd < 0):
            problems.append(f"{mode} spectrum has negative bins")
    centroid = find_peak(spectra["rnd"], LARMOR_HZ, WINDOW_HALFWIDTH_HZ).peak_freq
    if not abs(centroid - LARMOR_HZ) <= spectra["rnd"].df:
        problems.append(f"rnd Larmor centroid {centroid:.6g} Hz is more than one bin from 2.8 MHz")
    return problems


def _cli(argv: list[str]) -> None:
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"spinnoise {argv[0]} exited with {code}")


def _cli_work(outdir: Path, points: int) -> int:
    cfg = config.load_config(path=outdir / "run_manifest.cfg")
    return points * cfg.n_trajectories * cfg.n_steps


# --- scan_theta: the 13-angle grid through `spinnoise scan --threads 2` ------

def run_scan_theta(seed: int, size: str, outdir: Path):
    n_traj, n_steps = SIZES[size]["scan_theta"]
    _cli(["scan", "--threads", "2", "--seed", str(seed), "--out", str(outdir)] + _sets(
        FAR + THETA_GRID + [
            f"n_trajectories={n_traj}", f"n_steps={n_steps}", "detection_mode=both",
        ]
    ))


def check_scan_theta(outdir: Path):
    files: dict[str, dict[str, Path]] = {}
    absorbed: dict[str, float] = {}
    with open(outdir / "scan_manifest.csv", newline="") as handle:
        for row in csv.DictReader(handle):
            files.setdefault(row["axis_value"], {})[row["mode"]] = outdir / row["file"]
            absorbed[row["axis_value"]] = 1.0 - float(row["transmission"])
    values = list(files)
    operations = []
    for value, by_mode in files.items():
        spectra = {mode: read_spectrum_csv(path) for mode, path in by_mode.items()}
        problems = spectrum_problems(spectra)
        if not 0.0 <= absorbed[value] <= 1.0:
            problems.append(f"absorption {absorbed[value]!r} outside [0, 1]")
        digest = _digest(*(path.read_bytes() for _, path in sorted(by_mode.items())))
        operations.append((f"theta={value}", digest, problems))
    peak = max(range(len(values)), key=lambda i: absorbed[values[i]])
    peak_theta = float(values[peak])
    if not abs(peak_theta - MAGIC_ANGLE_DEG) <= PEAK_ANGLE_TOL_DEG:
        operations[peak][2].append(
            f"absorption peaks at {peak_theta:g} deg, not within "
            f"{PEAK_ANGLE_TOL_DEG:g} deg of {MAGIC_ANGLE_DEG:.1f} deg"
        )
    return operations, _cli_work(outdir, len(operations))


# --- simulate_far: `spinnoise simulate` at the far acceptance point ----------

def run_simulate_far(seed: int, size: str, outdir: Path):
    n_traj, n_steps = SIZES[size]["simulate_far"]
    _cli(["simulate", "--preset", "fig3_end", "--seed", str(seed), "--out", str(outdir)] + _sets([
        "theta_deg=30", f"n_trajectories={n_traj}", f"n_steps={n_steps}", "detection_mode=both",
    ]))


def check_simulate_far(outdir: Path):
    from _ou_oracle import predicted_window_power

    cfg = config.load_config(path=outdir / "run_manifest.cfg")
    paths = {mode: outdir / f"spectrum_{mode}.csv" for mode in ("end", "rnd")}
    spectra = {mode: read_spectrum_csv(path) for mode, path in paths.items()}
    problems = spectrum_problems(spectra)
    params = cfg.system_params(cfg.theta_deg)
    for mode in ("rnd", "end"):
        for f0 in (LARMOR_HZ, 2.0 * LARMOR_HZ):
            measured = find_peak(spectra[mode], f0, WINDOW_HALFWIDTH_HZ).peak_power
            predicted = predicted_window_power(params, cfg.dt_s, f0, WINDOW_HALFWIDTH_HZ, mode)
            deviation = measured / predicted - 1.0
            if not abs(deviation) <= ORACLE_REL_TOL:
                problems.append(f"{mode} window at {f0:g} Hz is {deviation:+.2%} off the oracle")
    digest = _digest(
        *(path.read_bytes() for _, path in sorted(paths.items())),
        (outdir / "timeseries.csv").read_bytes(),
    )
    return [("theta=30", digest, problems)], cfg.n_trajectories * cfg.n_steps


# name -> (timed run, check): run(seed, size, outdir), then check(outdir).
WORKLOADS = {
    "simulate_far": (run_simulate_far, check_simulate_far),
    "scan_theta": (run_scan_theta, check_scan_theta),
}
