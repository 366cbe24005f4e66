import numpy as np
import pytest

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
