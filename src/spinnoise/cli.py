"""Command-line entry point.

Subcommands:
    simulate     one parameter point: signal time series plus averaged PSDs
    scan         polarization / field / detuning scan producing CSV spectra
    modes        free Larmor precession of the three reference initial states
    absorption   absorbed fraction along the configured scan axis

Every run writes a ``run_manifest.cfg`` with the fully resolved
configuration; re-running from that manifest reproduces the outputs
bit-exactly.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .config import AXIS_KEYS, load_config, write_manifest
from .exceptions import SpinNoiseError
from .scan import (
    absorption_scan,
    oscillation_mode_report,
    run_scan,
    simulate_point,
    write_absorption_csv,
    write_mode_report_csv,
    write_scan,
)
from .spectral import write_spectrum_csv, write_table

logger = logging.getLogger(__name__)

MODE_INITIALS = ("minus1_z", "x", "minus_pi_4")


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinnoise",
        description="Spin-1 spin-noise spectroscopy simulator",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="chatty logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="configuration file (key=value lines)")
        p.add_argument("--preset", help="shipped preset name, e.g. fig3_end")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config key (repeatable)",
        )
        p.add_argument("--seed", type=int, help="override master_seed")
        p.add_argument("--out", default="out", help="output directory")

    p_sim = sub.add_parser("simulate", help="single-point time series and PSDs")
    p_scan = sub.add_parser("scan", help="run the configured scan")
    for p in (p_sim, p_scan):
        add_common(p)
        p.add_argument(
            "--threads",
            type=int,
            default=_usable_cpus(),
            help="worker processes: each steps a group of scan points, or a group of "
            "trajectories when there are fewer points than workers (default: usable CPUs)",
        )
    p_abs = sub.add_parser("absorption", help="absorption along the configured scan axis")
    add_common(p_abs)
    p_modes = sub.add_parser("modes", help="free spin precession reference modes")
    add_common(p_modes)
    p_modes.add_argument(
        "--omega-l-hz", type=float, default=1e6, help="Larmor frequency in Hz"
    )
    return parser


def _resolve_config(args):
    overrides = list(args.overrides)
    if args.seed is not None:
        overrides.append(f"master_seed={args.seed}")
    return load_config(path=args.config, preset=args.preset, overrides=overrides)


def _cmd_simulate(args) -> int:
    cfg = _resolve_config(args)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    t, rnd, end, point = simulate_point(cfg, n_workers=max(1, args.threads))
    series_path = outdir / "timeseries.csv"
    metadata = {key: getattr(cfg, key) for key in AXIS_KEYS.values()}
    metadata["seed"] = cfg.master_seed
    write_table(series_path, metadata, {"t_s": t, "rnd_au": rnd, "end_au": end})
    for mode, spec in point.spectra.items():
        write_spectrum_csv(spec, outdir / f"spectrum_{mode}.csv")
    write_manifest(cfg, outdir / "run_manifest.cfg")
    print(f"simulate: wrote {series_path} and {len(point.spectra)} spectra to {outdir}")
    return 0


def _cmd_scan(args) -> int:
    cfg = _resolve_config(args)
    result = run_scan(cfg, n_workers=max(1, args.threads))
    written = write_scan(result, cfg, args.out)
    print(f"scan: wrote {len(written)} files to {args.out}")
    return 0


def _cmd_modes(args) -> int:
    cfg = _resolve_config(args)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    omega_l = 2.0 * np.pi * args.omega_l_hz
    for initial in MODE_INITIALS:
        report = oscillation_mode_report(omega_l, initial)
        write_mode_report_csv(report, outdir / f"modes_{initial}.csv")
        print(
            f"modes: {initial}: dominant frequency {report.dominant_freq_hz / 1e6:.6g} MHz"
        )
    write_manifest(cfg, outdir / "run_manifest.cfg")
    return 0


def _cmd_absorption(args) -> int:
    cfg = _resolve_config(args)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = absorption_scan(cfg, cfg.axis_values())
    write_absorption_csv(rows, cfg, outdir / "absorption.csv")
    write_manifest(cfg, outdir / "run_manifest.cfg")
    best = max(rows, key=lambda r: r[1])
    print(
        f"absorption: {len(rows)} points, max {best[1]:.4g} at "
        f"{AXIS_KEYS[cfg.scan_axis]}={best[0]:g}"
    )
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "scan": _cmd_scan,
    "modes": _cmd_modes,
    "absorption": _cmd_absorption,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return _COMMANDS[args.command](args)
    except SpinNoiseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
