"""Command-line entry point.

Subcommands:
    simulate     one parameter point: signal time series plus averaged PSDs
    scan         polarization / field / detuning scan producing CSV spectra
    modes        free Larmor precession of the three reference initial states,
                 at the Larmor frequency of the configured field b_gauss
    absorption   absorbed fraction along the configured scan axis

Every run writes a ``run_manifest.cfg`` with the fully resolved
configuration; re-running from that manifest reproduces the outputs
bit-exactly.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .config import AXIS_KEYS, load_config, write_manifest
from .core import larmor_from_field
from .exceptions import DomainError, SpinNoiseError
from .scan import (
    MODE_INITIAL_STATES,
    _usable_cpus,
    absorption_scan,
    oscillation_mode_report,
    run_scan,
    simulate_point,
    write_absorption_csv,
    write_mode_report_csv,
    write_scan,
)
from .spectral import write_spectrum_csv

logger = logging.getLogger(__name__)


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
        p.add_argument(
            "--seed", metavar="SEED", help="override master_seed, as --set master_seed=SEED does"
        )
        p.add_argument("--out", default="out", help="output directory")

    p_sim = sub.add_parser("simulate", help="single-point time series and PSDs")
    p_scan = sub.add_parser("scan", help="run the configured scan")
    for p in (p_sim, p_scan):
        add_common(p)
        p.add_argument(
            "--threads",
            type=int,
            default=_usable_cpus(),
            help="worker processes, each taking the next group of scan points or of one "
            "point's trajectories; 1 runs in process; simulate's pool also formats the "
            "time series (default: usable CPUs)",
        )
    p_abs = sub.add_parser("absorption", help="absorption along the configured scan axis")
    add_common(p_abs)
    p_modes = sub.add_parser(
        "modes", help="free spin precession reference modes at the field b_gauss"
    )
    add_common(p_modes)
    return parser


def _resolve_config(args):
    overrides = list(args.overrides)
    if args.seed is not None:
        overrides.append(f"master_seed={args.seed}")
    return load_config(path=args.config, preset=args.preset, overrides=overrides)


def _output_dir(args) -> Path:
    """The ``--out`` directory, refused before any work when it, or the
    nearest of its parents that exists, is not a directory; it is created
    only once the run has something to write."""
    outdir = Path(args.out)
    for path in (outdir, *outdir.parents):
        if path.exists():
            if not path.is_dir():
                raise NotADirectoryError(f"--out {outdir}: {path} is not a directory")
            break
    return outdir


def _cmd_simulate(args) -> int:
    cfg = _resolve_config(args)
    outdir = _output_dir(args)
    series_path = outdir / "timeseries.csv"
    point = simulate_point(cfg, series_path, n_workers=max(1, args.threads))
    for mode, spec in point.spectra.items():
        write_spectrum_csv(spec, outdir / f"spectrum_{mode}.csv")
    write_manifest(cfg, outdir / "run_manifest.cfg")
    print(f"simulate: wrote {series_path} and {len(point.spectra)} spectra to {outdir}")
    return 0


def _cmd_scan(args) -> int:
    cfg = _resolve_config(args)
    outdir = _output_dir(args)
    result = run_scan(cfg, n_workers=max(1, args.threads))
    written = write_scan(result, cfg, outdir)
    print(f"scan: wrote {len(written)} files to {args.out}")
    return 0


def _cmd_modes(args) -> int:
    cfg = _resolve_config(args)
    omega_l = larmor_from_field(cfg.b_gauss)
    outdir = _output_dir(args)
    try:
        reports = [oscillation_mode_report(omega_l, initial) for initial in MODE_INITIAL_STATES]
    except DomainError as exc:
        raise DomainError(f"b_gauss: {exc}") from None
    outdir.mkdir(parents=True, exist_ok=True)
    for report in reports:
        write_mode_report_csv(report, outdir / f"modes_{report.initial}.csv")
        print(
            f"modes: {report.initial}: dominant frequency {report.dominant_freq_hz / 1e6:.6g} MHz"
        )
    write_manifest(cfg, outdir / "run_manifest.cfg")
    return 0


def _cmd_absorption(args) -> int:
    cfg = _resolve_config(args)
    outdir = _output_dir(args)
    rows = absorption_scan(cfg, cfg.axis_values())
    outdir.mkdir(parents=True, exist_ok=True)
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
    except (SpinNoiseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
