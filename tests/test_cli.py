import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spinnoise
from spinnoise.cli import main
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


class TestModes:
    def test_three_reports_with_expected_frequencies(self, tmp_path, capsys):
        rc = main(["modes", "--omega-l-hz", "1e6", "--out", str(tmp_path)])
        assert rc == 0
        expected = {"minus1_z": 1e6, "x": 2e6, "minus_pi_4": 1e6}
        for initial, freq in expected.items():
            meta = read_meta(tmp_path / f"modes_{initial}.csv")
            assert float(meta["dominant_freq_hz"]) == pytest.approx(freq, abs=1.0)
        out = capsys.readouterr().out
        assert out.count("dominant frequency") == 3


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
        for name in ("rnd_000.csv", "end_001.csv", "scan_manifest.csv"):
            assert (first / name).read_bytes() == (again / name).read_bytes()


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
        for name in ("timeseries.csv", "spectrum_rnd.csv", "spectrum_end.csv", "run_manifest.cfg"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


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


class TestErrors:
    def test_unknown_subcommand_exits_with_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_key_reported(self, tmp_path, capsys):
        rc = main(["scan", "--out", str(tmp_path), "--set", "warp_speed=9"])
        assert rc == 1
        assert "warp_speed" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["scan", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
        assert rc == 1
        assert "not found" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command", ["absorption", "simulate"])
    @pytest.mark.parametrize("dt", ["0", "-1e-8"])
    def test_non_positive_step_length_reported(self, tmp_path, capsys, command, dt):
        rc = main([command, "--out", str(tmp_path / "out"), "--set", f"dt_s={dt}"] + TINY)
        assert rc == 1
        assert "dt_s" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
