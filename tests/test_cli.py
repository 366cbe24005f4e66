import contextlib
import errno
import importlib
import io
import logging
import os
import runpy
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

import spinnoise
from spinnoise import cli, scan, spectral
from spinnoise.cli import main
from spinnoise.config import load_config
from spinnoise.core import larmor_from_field
from spinnoise.exceptions import ConfigError, DomainError, NumericError
from spinnoise.spectral import read_spectrum_csv

TINY = [
    "--set", "n_trajectories=2",
    "--set", "n_steps=1800",
    "--set", "burn_in_steps=200",
]


def read_meta(path):
    meta = {}
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key] = value
    return meta


def never_run(*args):
    raise AssertionError("a scan task was started")


def assert_same_outputs(reference, *others):
    """Each of ``others`` holds exactly the files of ``reference``, with the
    same names and the same bytes."""
    names = sorted(path.name for path in reference.iterdir())
    for other in others:
        assert sorted(path.name for path in other.iterdir()) == names, f"{other} holds other files"
        for name in names:
            assert (other / name).read_bytes() == (reference / name).read_bytes(), other / name


def sets(*settings):
    """``--set`` options, one a setting."""
    return [arg for setting in settings for arg in ("--set", setting)]


class TestModes:
    def test_three_reports_with_expected_frequencies(self, tmp_path, capsys):
        # The Larmor frequency follows the configured field: 1.4 MHz at 0.5 G.
        rc = main(["modes", "--set", "b_gauss=0.5", "--out", str(tmp_path)])
        assert rc == 0
        larmor_hz = larmor_from_field(0.5) / (2.0 * np.pi)
        expected = {"minus1_z": larmor_hz, "x": 2.0 * larmor_hz, "minus_pi_4": larmor_hz}
        for initial, freq in expected.items():
            meta = read_meta(tmp_path / f"modes_{initial}.csv")
            assert float(meta["dominant_freq_hz"]) == pytest.approx(freq, abs=1.0)
        out = capsys.readouterr().out
        assert out.count("dominant frequency") == 3

    def test_rerun_from_manifest_is_byte_identical(self, tmp_path):
        first, again = tmp_path / "first", tmp_path / "again"
        assert main(["modes", "--set", "b_gauss=0.7", "--out", str(first)]) == 0
        assert main(["modes", "--config", str(first / "run_manifest.cfg"), "--out", str(again)]) == 0
        assert_same_outputs(first, again)

    def test_zero_field_reported_before_writing(self, tmp_path, capsys):
        rc = main(["modes", "--set", "b_gauss=0", "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "omega_l must be > 0" in err and err.startswith("error: b_gauss: ")
        assert not (tmp_path / "out").exists()

    def test_takes_no_larmor_flag(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["modes", "--omega-l-hz", "2e6", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()


class TestScan:
    def test_preset_writes_full_grid(self, tmp_path):
        rc = main(
            ["scan", "--preset", "fig3_end", "--out", str(tmp_path), *TINY]
        )
        assert rc == 0
        spectra = sorted(tmp_path.glob("end_*.csv"))
        assert len(spectra) == 25  # -4 to 94 deg in 4-deg steps
        manifest = (tmp_path / "scan_manifest.csv").read_text().splitlines()
        assert len(manifest) == 26
        first = read_spectrum_csv(spectra[0])
        assert first.metadata["mode"] == "end"

    def test_seed_flag_changes_output(self, tmp_path):
        args = ["scan", "--out", None, *TINY,
                "--set", "scan_stop=0.0", "--set", "scan_step=1.0"]
        args_a = list(args); args_a[2] = str(tmp_path / "a")
        args_b = list(args); args_b[2] = str(tmp_path / "b")
        assert main(args_a + ["--seed", "1"]) == 0
        assert main(args_b + ["--seed", "2"]) == 0
        psd_a = read_spectrum_csv(tmp_path / "a" / "rnd_000.csv").psd
        psd_b = read_spectrum_csv(tmp_path / "b" / "rnd_000.csv").psd
        assert not np.array_equal(psd_a, psd_b)

    def test_rerun_from_manifest_is_byte_identical(self, tmp_path):
        first = tmp_path / "first"
        again = tmp_path / "again"
        assert main(["scan", "--out", str(first), *TINY,
                     "--set", "scan_stop=7.5", "--set", "scan_step=7.5"]) == 0
        assert main(["scan", "--config", str(first / "run_manifest.cfg"),
                     "--out", str(again)]) == 0
        assert_same_outputs(first, again)


class TestSimulate:
    def test_writes_series_and_spectra(self, tmp_path):
        rc = main(["simulate", "--out", str(tmp_path), *TINY])
        assert rc == 0
        series = (tmp_path / "timeseries.csv").read_text().splitlines()
        data = [l for l in series if not l.startswith(("#", "t_s"))]
        assert len(data) == 1800 - 200
        assert (tmp_path / "spectrum_rnd.csv").exists()
        assert (tmp_path / "spectrum_end.csv").exists()
        assert (tmp_path / "run_manifest.cfg").exists()

    def test_threads_do_not_change_output(self, tmp_path):
        # Two workers split the three trajectories unevenly.
        args = ["simulate", *TINY, "--set", "n_trajectories=3"]
        for threads in ("1", "2"):
            assert main(args + ["--threads", threads, "--out", str(tmp_path / threads)]) == 0
        assert_same_outputs(tmp_path / "1", tmp_path / "2")

    def test_pool_forks_under_a_forkserver_default(self, tmp_path):
        # The series buffer reaches the workers by fork; a process whose
        # default start method is forkserver must still write the bytes of
        # an in-process run, and leave nothing in shared memory.
        args = ["simulate", *TINY, "--set", "n_trajectories=3", "--set", "n_steps=9000"]
        assert main(args + ["--threads", "1", "--out", str(tmp_path / "1")]) == 0
        shm = Path("/dev/shm")
        before = set(shm.iterdir()) if shm.is_dir() else set()
        code = (
            "import multiprocessing as mp, sys; mp.set_start_method('forkserver', force=True); "
            "from spinnoise import cli; sys.exit(cli.main(sys.argv[1:]))"
        )
        src = Path(spinnoise.__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-c", code, *args, "--threads", "2", "--out", str(tmp_path / "2")],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
            timeout=120.0,
        )
        assert proc.returncode == 0, proc.stderr
        assert_same_outputs(tmp_path / "1", tmp_path / "2")
        if shm.is_dir():
            assert set(shm.iterdir()) <= before

    @pytest.mark.parametrize("threads, n_pools", [("1", 0), ("2", 1)])
    def test_one_pool_steps_and_formats(self, tmp_path, monkeypatch, threads, n_pools):
        # The pool that steps the ensemble also formats the time series; one
        # worker runs both in process.
        pools = []

        class Counting(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(scan, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(scan, "ProcessPoolExecutor", Counting)
        args = ["simulate", *TINY, "--set", "n_trajectories=3", "--threads", threads]
        assert main(args + ["--out", str(tmp_path)]) == 0
        assert len(pools) == n_pools
        assert (tmp_path / "timeseries.csv").is_file()

    @pytest.mark.parametrize("record_stride, warnings", [(1, 0), (3, 1)])
    def test_aliasing_warned_at_the_record_interval(
        self, tmp_path, caplog, record_stride, warnings
    ):
        # At the default 1 G and 18 MHz steps, END's 5.6 MHz 2x-Larmor line
        # is resolved by a record every step but folds into a record every
        # third step (3 MHz Nyquist).  One worker warns in process.
        args = ["simulate", "--set", "n_trajectories=2", "--set", "n_steps=4096",
                "--set", f"record_stride={record_stride}", "--threads", "1"]
        with caplog.at_level(logging.WARNING, logger="spinnoise.integrator"):
            assert main(args + ["--out", str(tmp_path)]) == 0
        aliased = [
            rec for rec in caplog.records
            if rec.name == "spinnoise.integrator" and "will alias" in rec.getMessage()
        ]
        assert len(aliased) == warnings

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_failed_ensemble_leaves_no_directory(self, tmp_path, capsys, monkeypatch, threads):
        def failing(*args, **kwargs):
            raise NumericError("non-finite state at step 0", point=0)

        monkeypatch.setattr(scan, "evolve_ensemble_coherences", failing)
        rc = main(["simulate", *TINY, "--set", "n_trajectories=3", "--threads", threads,
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == "error: non-finite state at step 0\n"
        assert not (tmp_path / "out").exists()
        assert scan._series is None


class TestThreadsOption:
    @pytest.mark.parametrize("command", ["absorption", "modes"])
    def test_only_simulate_and_scan_take_threads(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert "--threads" not in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main([command, "--threads", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["simulate", "scan"])
    def test_simulate_and_scan_document_threads(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert "--threads" in capsys.readouterr().out


# Settings shared by rows of the worker-count table: three trajectories of
# 4096 steps; three angles; and 5000 steps, burn-in 37 and stride 3, which put
# the 16-step sub-block and 256-step chunk edges off the record.
SMALL = sets("n_trajectories=3", "n_steps=4096")
THETA = sets("scan_start=0", "scan_stop=15", "scan_step=7.5")
OFF_GRID = sets("n_trajectories=3", "n_steps=5000", "burn_in_steps=37", "record_stride=3")
VIDEO = SMALL + sets("vbw_hz=1e4", "absolute_units=true")


class TestWorkerCounts:
    # (command, args, worker counts, a file that carries the video filter's
    # and the shot floor's metadata) per row.  Each count is a worker
    # process: the usable CPUs are patched to 3, so none is capped.
    ROWS = [
        # At rbw_hz=2e4 a Welch segment of 1350 samples begins in the
        # accumulator's buffer and ends in a later 256-row push.
        pytest.param("simulate", SMALL + sets("rbw_hz=2e4"), (1, 2), None, id="rbw_sim"),
        pytest.param(
            "simulate", SMALL + sets("rbw_hz=2e4", "detection_mode=rnd"), (1, 2), None,
            id="rbw_rnd_sim",
        ),
        # At rbw_hz=1e6 one push completes about 18 segments of 27 samples.
        pytest.param(
            "scan", THETA + SMALL + sets("rbw_hz=1e6"), (1, 2, 3), None, id="short_seg_scan"
        ),
        # Four 4096-row blocks of the series, which the workers format.
        pytest.param(
            "simulate", sets("n_trajectories=3", "n_steps=16384"), (1, 2, 3), None, id="blocks_sim"
        ),
        # With one detection mode each point reads out one column of its
        # readout matrix, and a scan pushes a view of one column of the record.
        pytest.param("simulate", SMALL + sets("detection_mode=end"), (1, 2), None, id="end_sim"),
        pytest.param(
            "scan", THETA + SMALL + sets("detection_mode=rnd"), (1, 2, 3), None, id="rnd_scan"
        ),
        pytest.param(
            "scan", THETA + SMALL + sets("detection_mode=end"), (1, 2, 3), None, id="end_scan"
        ),
        # Three workers run groups of one trajectory.
        pytest.param("simulate", OFF_GRID, (1, 2, 3), None, id="grid_sim"),
        pytest.param("scan", THETA + OFF_GRID, (1, 2, 3), None, id="grid_scan"),
        # A task is one engine call of at most 64 trajectories: 7 points of
        # 24 and one point of 150 are cut into tasks that change with the
        # worker count.
        pytest.param(
            "scan",
            sets("scan_start=0", "scan_stop=45", "scan_step=7.5", "n_trajectories=24",
                 "n_steps=2048"),
            (1, 2, 3), None, id="calls_scan",
        ),
        pytest.param(
            "simulate", sets("n_trajectories=150", "n_steps=1024"), (1, 2, 3), None, id="calls_sim"
        ),
        # 70 trajectories a point are wider than one call: ranges of 35 on
        # one and two workers, and both points in ranges of 24 or 23 on three.
        pytest.param(
            "scan",
            sets("scan_start=0", "scan_stop=7.5", "scan_step=7.5", "n_trajectories=70",
                 "n_steps=1024"),
            (1, 2, 3), None, id="wide_scan",
        ),
        # The benchmark's scan shape: 13 angles of 16 trajectories at the
        # far point.
        pytest.param(
            "scan",
            ["--preset", "fig3_end"] + sets(
                "scan_start=0", "scan_stop=90", "scan_step=7.5", "n_trajectories=16",
                "n_steps=2048", "detection_mode=both",
            ),
            (1, 2, 3), None, id="bench_scan",
        ),
        # On the field (0..1 G, below aliasing) and detuning axes a call's
        # points differ in drift.
        pytest.param(
            "scan",
            SMALL + sets("scan_axis=b_field", "scan_start=0", "scan_stop=1", "scan_step=0.25"),
            (1, 2, 3), None, id="field_scan",
        ),
        pytest.param(
            "scan",
            SMALL + sets("scan_axis=detuning", "scan_start=0.3e9", "scan_stop=1.5e9",
                         "scan_step=0.6e9"),
            (1, 2, 3), None, id="detuning_scan",
        ),
        # The video filter and shot floor act on each point's averaged PSDs.
        pytest.param("simulate", VIDEO, (1, 2, 3), "spectrum_rnd.csv", id="vbw_sim"),
        pytest.param("scan", THETA + VIDEO, (1, 2, 3), "end_002.csv", id="vbw_scan"),
    ]

    @pytest.mark.parametrize("command, args, workers, filtered", ROWS)
    def test_outputs_do_not_depend_on_workers(
        self, tmp_path, monkeypatch, command, args, workers, filtered
    ):
        pools = []

        class Recording(ProcessPoolExecutor):
            def __init__(self, max_workers, mp_context):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers, mp_context=mp_context)

        monkeypatch.setattr(scan, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(scan, "ProcessPoolExecutor", Recording)
        for n in workers:
            pools.clear()
            out = tmp_path / str(n)
            assert main([command, *args, "--threads", str(n), "--out", str(out)]) == 0
            assert pools == ([n] if n > 1 else [])
        assert_same_outputs(*(tmp_path / str(n) for n in workers))
        if filtered:
            lines = (tmp_path / "1" / filtered).read_text().splitlines()
            assert "# vbw_hz=10000.0" in lines and "# shot_floor_added=true" in lines

    def test_comparison_fails_on_two_seeds(self, tmp_path):
        for seed in ("1", "2"):
            args = ["simulate", *SMALL, "--seed", seed, "--threads", "1"]
            assert main(args + ["--out", str(tmp_path / seed)]) == 0
        with pytest.raises(AssertionError):
            assert_same_outputs(tmp_path / "1", tmp_path / "2")


class TestAbsorption:
    def test_quick_scan(self, tmp_path, capsys):
        rc = main([
            "absorption", "--preset", "fig5_absorption", "--out", str(tmp_path),
            "--set", "scan_step=15.0",
        ])
        assert rc == 0
        lines = (tmp_path / "absorption.csv").read_text().splitlines()
        data = [l for l in lines if not l.startswith(("#", "theta_deg"))]
        assert len(data) == 7  # 0..90 in 15-deg steps
        assert "max" in capsys.readouterr().out

    def test_field_axis_writes_the_field_grid(self, tmp_path):
        rc = main([
            "absorption", "--out", str(tmp_path), "--set", "scan_axis=b_field",
            "--set", "scan_start=0", "--set", "scan_stop=2", "--set", "scan_step=0.5",
        ])
        assert rc == 0
        lines = (tmp_path / "absorption.csv").read_text().splitlines()
        body = [line for line in lines if not line.startswith("#")]
        assert body[0] == "b_gauss,absorption,transmission"
        assert [float(row.split(",")[0]) for row in body[1:]] == [0.0, 0.5, 1.0, 1.5, 2.0]


class TestSeedOption:
    def test_large_seed_reaches_the_manifest_exactly(self, tmp_path):
        seed = 12345678901234567891
        assert main(["modes", "--seed", str(seed), "--out", str(tmp_path)]) == 0
        manifest = (tmp_path / "run_manifest.cfg").read_text().splitlines()
        assert f"master_seed={seed}" in manifest

    def test_seed_is_parsed_as_master_seed_is(self, tmp_path, capsys):
        # One rule for both spellings: an integral float is taken exactly,
        # a fraction is refused by key.
        assert main(["modes", "--seed", "1e5", "--out", str(tmp_path / "a")]) == 0
        manifest = (tmp_path / "a" / "run_manifest.cfg").read_text().splitlines()
        assert "master_seed=100000" in manifest
        capsys.readouterr()
        assert main(["modes", "--seed", "2.5", "--out", str(tmp_path / "b")]) == 1
        err = capsys.readouterr().err
        assert "master_seed" in err and "not an integer: '2.5'" in err
        assert not (tmp_path / "b").exists()


def loaded_scipy_modules(code):
    """The scipy modules in sys.modules after running code in a fresh interpreter."""
    code += (
        "\nimport sys\n"
        "print(*sorted(n for n in sys.modules if n == 'scipy' or n.startswith('scipy.')))"
    )
    src = Path(spinnoise.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()[-1].split()


class TestImports:
    # SciPy's import graph was about two thirds of every run's start-up; the
    # package needs numpy only.
    def test_package_loads_no_scipy(self):
        assert loaded_scipy_modules("import spinnoise, spinnoise.cli") == []

    def test_commands_run_without_scipy(self, tmp_path):
        code = (
            "from spinnoise.cli import main\n"
            f"out = {str(tmp_path)!r}\n"
            "assert main(['modes', '--out', out + '/modes']) == 0\n"
            "assert main(['absorption', '--set', 'scan_step=45', '--out', out + '/abs']) == 0\n"
            "assert main(['simulate', '--set', 'n_trajectories=2', '--set', 'n_steps=1800',\n"
            "             '--set', 'burn_in_steps=200', '--threads', '2',\n"
            "             '--out', out + '/sim']) == 0"
        )
        assert loaded_scipy_modules(code) == []
        assert (tmp_path / "sim" / "spectrum_rnd.csv").is_file()


class TestTracerHooks:
    # The traced benchmark rebinds these names on the package; a program
    # change that drops one would only show in a traced run.
    def test_every_hooked_name_exists(self):
        tracer = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
        hooks = runpy.run_path(str(tracer))["HOOKS"]
        assert hooks
        for module_name, attr, *_ in hooks:
            assert hasattr(importlib.import_module(module_name), attr), f"{module_name}.{attr}"


class TestErrors:
    def test_unknown_subcommand_exits_with_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_key_reported(self, tmp_path, capsys):
        # mean_field_au=1.0 is a line of an older manifest: kappa is now the
        # one signal scale.
        for setting in ("warp_speed=9", "mean_field_au=1.0"):
            rc = main(["scan", "--out", str(tmp_path), "--set", setting])
            assert rc == 1
            assert setting.partition("=")[0] in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["scan", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
        assert rc == 1
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("override, message", [
        ("absolute_units=maybe", "invalid value for key 'absolute_units': not a boolean: 'maybe'"),
        ("detection_mode=all", "detection_mode must be one of ('rnd', 'end', 'both'), got 'all'"),
        ("rbw_hz", "override must look like key=value, got 'rbw_hz'"),
        ("=5", "override must look like key=value, got '=5'"),
    ])
    def test_malformed_override_reported(self, tmp_path, capsys, override, message):
        rc = main(["modes", "--out", str(tmp_path / "out"), "--set", override])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_config_line_without_a_value_reported_by_line(self, tmp_path, capsys):
        # A line without "=", and one without a key.
        config = tmp_path / "run.cfg"
        for line in ("rbw_hz", "=5"):
            config.write_text(f"# a comment\nb_gauss=0.5\n{line}\n")
            rc = main(["modes", "--config", str(config), "--out", str(tmp_path / "out")])
            assert rc == 1
            err = capsys.readouterr().err
            assert err == f"error: {config}:3: expected key=value, got {line!r}\n"
            assert not (tmp_path / "out").exists()

    def test_bad_value_reported(self, tmp_path, capsys):
        rc = main(["scan", "--out", str(tmp_path), "--set", "delta_hz=blue"])
        assert rc == 1
        assert "delta_hz" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["absorption", "scan"])
    @pytest.mark.parametrize("setting", ["scan_step=nan", "scan_start=nan", "scan_stop=inf"])
    def test_non_finite_scan_grid_reported(self, tmp_path, capsys, command, setting):
        rc = main([command, "--out", str(tmp_path / "out"), "--set", setting] + TINY)
        assert rc == 1
        assert setting.partition("=")[0] in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["absorption", "scan"])
    @pytest.mark.parametrize(
        "settings", [["scan_step=1e-300"], ["scan_start=-1e308", "scan_stop=1e308"]]
    )
    def test_overflowing_scan_grid_reported(self, tmp_path, capsys, command, settings):
        rc = main([command, "--out", str(tmp_path / "out"), *sets(*settings)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "scan_step" in err[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("setting", [
        "kappa=nan", "rabi_hz=nan", "b_gauss=inf",
        "rbw_hz=nan", "rbw_hz=inf", "gamma_t_hz=-1",
        # Each sign the physics needs, refused by key when the config loads.
        "gamma0_hz=-1", "gamma_opt_hz=-1", "gamma_r_hz=-1", "n_atoms=0", "n_atoms=-1",
        "kappa=-1", "input_power_W=0", "responsivity_A_per_W=-1", "transimpedance_V_per_A=0",
        "b_gauss=-1", "rabi_hz=-1", "rbw_hz=-1", "vbw_hz=0", "vbw_hz=-1", "master_seed=-1",
        "record_stride=0", "burn_in_steps=-1", "n_steps=100",
    ])
    def test_invalid_value_reported_by_key(self, tmp_path, capsys, monkeypatch, setting):
        monkeypatch.setattr(scan, "_run_task", never_run)
        rc = main(["simulate", "--out", str(tmp_path / "out"), *TINY, "--set", setting])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert setting.partition("=")[0] in err[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["absorption", "scan", "simulate"])
    def test_negative_field_grid_reported_by_key(self, tmp_path, capsys, monkeypatch, command):
        # The grid's first value is a negative field: refused when the
        # config loads, before any task starts.
        monkeypatch.setattr(scan, "_run_task", never_run)
        rc = main([command, "--out", str(tmp_path / "out"), *TINY, "--set", "scan_axis=b_field",
                   "--set", "scan_start=-0.5", "--set", "scan_stop=0.5", "--set", "scan_step=0.5"])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: scan_start must be >= 0 on the b_field axis (b_gauss), got -0.5"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("other", ["gamma_t_hz", "gamma_opt_hz"])
    def test_relaxation_free_config_has_no_steady_state(self, other):
        with pytest.raises(ConfigError, match=f"gamma0_hz and {other} are both zero"):
            load_config(overrides=["gamma0_hz=0", f"{other}=0"])

    @pytest.mark.parametrize("gamma_t_hz", ["1e-300", "1e-320"])
    def test_overflowing_default_burn_in_is_refused_by_key(self, gamma_t_hz):
        # Five transit lifetimes of steps: beyond 2^53, or a division by a
        # product that underflows to zero.
        with pytest.raises(ConfigError, match="gamma_t_hz=.* set burn_in_steps"):
            load_config(overrides=[f"gamma_t_hz={gamma_t_hz}"])
        assert load_config(overrides=[f"gamma_t_hz={gamma_t_hz}", "burn_in_steps=0"])

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_vbw_above_the_achieved_rbw_reported_before_the_run(
        self, tmp_path, capsys, monkeypatch, threads
    ):
        # 64 trajectories of 2^17 steps by default: the error comes before
        # any task is started.
        monkeypatch.setattr(scan, "_run_task", never_run)
        rc = main(["simulate", "--out", str(tmp_path / "out"), "--set", "vbw_hz=1e6",
                   "--threads", threads])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: vbw_hz (1e+06 Hz) must not exceed")
        assert not (tmp_path / "out").exists()

    # The computation each command would run first, patched to fail if it
    # starts.
    COMPUTATIONS = {
        "simulate": "simulate_point",
        "scan": "run_scan",
        "absorption": "absorption_scan",
        "modes": "oscillation_mode_report",
    }

    @pytest.mark.parametrize("command", sorted(COMPUTATIONS))
    @pytest.mark.parametrize("under", [False, True])
    def test_out_that_is_a_file_is_refused_before_the_run(
        self, tmp_path, capsys, monkeypatch, command, under
    ):
        monkeypatch.setattr(cli, self.COMPUTATIONS[command], never_run)
        target = tmp_path / "taken"
        target.write_text("kept\n")
        out = target / "sub" if under else target
        rc = main([command, *TINY, "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: --out {out}: {target} is not a directory"]
        assert target.read_text() == "kept\n"

    @pytest.mark.parametrize(
        "command, writer",
        [("simulate", "write_manifest"), ("scan", "write_scan"),
         ("absorption", "write_manifest"), ("modes", "write_manifest")],
    )
    def test_failed_write_is_an_error_line(self, tmp_path, capsys, monkeypatch, command, writer):
        def full(*args):
            raise OSError(errno.ENOSPC, "No space left on device", str(args[-1]))

        monkeypatch.setattr(cli, writer, full)
        rc = main([command, *TINY, "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: [Errno 28] No space left on device")

    def test_failed_absorption_leaves_no_directory(self, tmp_path, capsys):
        # Without relaxation there is no steady state to absorb from.
        rc = main(["absorption", "--out", str(tmp_path / "out"),
                   "--set", "gamma0_hz=0", "--set", "gamma_t_hz=0"])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: no unique steady state")
        assert not (tmp_path / "out").exists()

    def test_too_fine_rbw_reported_before_the_run(self, tmp_path, capsys):
        # 64 trajectories of 2^17 steps by default: the error comes before
        # any of them is stepped.
        rc = main(["simulate", "--out", str(tmp_path / "out"), "--set", "rbw_hz=100"])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: series too short for rbw=100 Hz")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "rbw, cause",
        [("1e-300", "over 2**53"), ("1.23e-4", "the record is set by n_steps")],
    )
    def test_tiny_rbw_refused_without_a_hang(self, tmp_path, rbw, cause):
        # 1e-300 Hz needs a segment of about 2.7e307 samples, over 2**53, so
        # no record can hold it; 1.23e-4 Hz needs one of 2.2e11, longer than
        # the record.  The command runs in a subprocess whose timeout also
        # covers interpreter start-up, so a search that does not end fails
        # here instead of stalling the suite; the search alone is then timed
        # in process.
        src = Path(spinnoise.__file__).resolve().parent.parent
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "spinnoise.cli", "simulate", "--set", f"rbw_hz={rbw}",
             "--set", "n_trajectories=2", "--set", "n_steps=4096", "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
            timeout=30.0,
        )
        assert proc.returncode == 1
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert f"rbw={float(rbw):g} Hz" in err[0] and cause in err[0], err
        assert not out.exists()
        dt = load_config().dt_s
        start = time.perf_counter()
        with contextlib.suppress(DomainError):
            spectral.WelchAccumulator(1, dt, float(rbw))
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("command", ["absorption", "simulate"])
    @pytest.mark.parametrize("dt", ["0", "-1e-8"])
    def test_non_positive_step_length_reported(self, tmp_path, capsys, command, dt):
        rc = main([command, "--out", str(tmp_path / "out"), "--set", f"dt_s={dt}"] + TINY)
        assert rc == 1
        assert "dt_s" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


# Values of each config key a tiny simulate may be given: (valid, invalid),
# the invalid ones of the wrong sign, zero, non-finite or unparsable.
# n_steps and n_trajectories are always drawn, so every run stays tiny.
SURFACE = {
    "b_gauss": (["0", "0.5", "1.0"], ["-1", "inf"]),
    "rabi_hz": (["0", "10e6", "40e6"], ["-1e6", "nan"]),
    "theta_deg": (["0", "30", "54.7", "-90"], ["nan"]),
    "delta_hz": (["-1.5e9", "0", "3e8", "1.5e9"], ["inf"]),
    "gamma0_hz": (["0", "1.6e6"], ["-1"]),
    "gamma_opt_hz": (["0", "0.8e9"], ["-1", "nan"]),
    "gamma_t_hz": (["0", "30e3", "1e5"], ["-1", "1e-320"]),
    "gamma_r_hz": (["1e3", "30e3"], ["0", "-1"]),
    "n_atoms": (["1", "3.4e9"], ["0", "-1"]),
    "kappa": (["0", "1"], ["-1", "nan"]),
    "dt_s": (["5.555555555555556e-08", "1e-7"], ["0", "-1e-8", "nan"]),
    "burn_in_steps": (["", "0", "100"], ["-1", "5000", "1.5"]),
    "record_stride": (["1", "3"], ["0"]),
    "master_seed": (["0", "7", str(2**70)], ["-1"]),
    "responsivity_A_per_W": (["0.7"], ["0", "-1"]),
    "transimpedance_V_per_A": (["5e3"], ["0", "-1"]),
    "input_power_W": (["1e-3"], ["0", "-1e-3", "nan"]),
    "rbw_hz": (["2e4", "91e3", "1e6"], ["0", "-1", "nan", "1e-300"]),
    "vbw_hz": (["", "1e3", "2e4"], ["1e6", "0", "-1", "inf"]),
    "absolute_units": (["true", "false"], ["maybe"]),
    "detection_mode": (["rnd", "end", "both"], ["x"]),
}


def surface_value(key):
    valid, invalid = SURFACE[key]
    return st.sampled_from(3 * valid + invalid)


class ListHandler(logging.Handler):
    def __init__(self, level):
        super().__init__(level)
        self.records = []

    def emit(self, record):
        self.records.append(record)


def finite_table(path) -> bool:
    rows = [line for line in path.read_text().splitlines() if line and not line.startswith("#")]
    values = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    return bool(np.all(np.isfinite(values)))


# Scan grids of at most three points, by axis: a start, a step and up to
# two more points; or a refused value (an unknown axis, a negative field,
# a step that is not positive, a stop below the start, a non-finite value).
GRID_SCALES = {"theta": 30.0, "b_field": 0.5, "detuning": 1e9}


@st.composite
def scan_grid(draw):
    axis = draw(st.sampled_from(3 * sorted(GRID_SCALES) + ["power"]))
    scale = GRID_SCALES.get(axis, 1.0)
    start = draw(st.sampled_from([-1.0, 0.0, 0.5])) * scale
    step = draw(st.sampled_from(3 * [0.5, 1.0] + [0.0, -1.0])) * scale
    more = draw(st.sampled_from(3 * [0, 1, 2] + [-1]))
    grid = {
        "scan_axis": axis, "scan_start": repr(start), "scan_stop": repr(start + more * step),
        "scan_step": repr(step),
    }
    bad = draw(st.sampled_from([None] * 12 + ["scan_start", "scan_stop", "scan_step"]))
    if bad is not None:
        grid[bad] = draw(st.sampled_from(["nan", "inf", "-inf"]))
    return grid


class TestConfigSurface:
    @settings(max_examples=100, deadline=None)
    @given(
        command=st.sampled_from(["simulate", "scan"]),
        n_steps=st.one_of(st.just(4096), st.integers(0, 4096)),
        n_trajectories=st.integers(0, 3),
        threads=st.integers(1, 2),
        grid=scan_grid(),
        overrides=st.lists(st.sampled_from(sorted(SURFACE)), max_size=5, unique=True).flatmap(
            lambda keys: st.fixed_dictionaries({key: surface_value(key) for key in keys})
        ),
    )
    # A field grid whose first point is a negative field.
    @example(
        command="scan", n_steps=2000, n_trajectories=2, threads=2, overrides={},
        grid={"scan_axis": "b_field", "scan_start": "-0.5", "scan_stop": "0.5", "scan_step": "0.5"},
    )
    # An RBW no segment length reaches: refused by the key rbw_hz.
    @example(
        command="simulate", n_steps=4096, n_trajectories=1, threads=1,
        overrides={"rbw_hz": "1e-300"},
        grid={"scan_axis": "b_field", "scan_start": "0.0", "scan_stop": "0.0", "scan_step": "0.25"},
    )
    def test_a_run_finishes_finite_or_is_refused_by_key(
        self, command, n_steps, n_trajectories, threads, grid, overrides
    ):
        # Either the run writes finite tables, or it exits 1 with one
        # "error:" line naming a drawn key, having made no directory and
        # logged no failed scan task.
        settings_ = {
            **overrides, **grid, "n_steps": str(n_steps), "n_trajectories": str(n_trajectories),
        }
        sets = [arg for key, value in settings_.items() for arg in ("--set", f"{key}={value}")]
        errors = ListHandler(logging.ERROR)
        logging.getLogger("spinnoise").addHandler(errors)
        stderr = io.StringIO()
        try:
            with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(stderr):
                out = Path(tmp) / "out"
                rc = main([command, "--threads", str(threads), "--out", str(out), *sets])
                if rc == 0:
                    tables = sorted(out.glob("*.csv"))
                    names = [path.name for path in tables]
                    if command == "simulate":
                        assert "timeseries.csv" in names
                    else:
                        assert "scan_manifest.csv" in names
                        tables.remove(out / "scan_manifest.csv")
                        cfg = load_config(path=out / "run_manifest.cfg")
                        assert len(tables) == len(cfg.modes()) * len(cfg.axis_values()) <= 6
                    for path in tables:
                        assert finite_table(path), path.name
                else:
                    assert not out.exists()
        finally:
            logging.getLogger("spinnoise").removeHandler(errors)
        event(f"{command} finished" if rc == 0 else f"{command} refused")
        if rc == 0:
            return
        assert rc == 1
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
        assert any(key in lines[0] for key in settings_), lines[0]
        assert errors.records == [], [r.getMessage() for r in errors.records]
