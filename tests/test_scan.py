import logging
import multiprocessing
import pickle
import tracemalloc
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinnoise import detection, integrator, scan, spectral

from spinnoise.config import (
    AXIS_KEYS,
    MAX_SCAN_POINTS,
    ExperimentConfig,
    load_config,
    write_manifest,
)
from spinnoise.core import SystemParams
from spinnoise.detection import readout_matrix, transmission
from spinnoise.exceptions import ConfigError, DomainError, NumericError
from spinnoise.integrator import TrajectoryConfig, evolve_ensemble_coherences, steady_state
from spinnoise.scan import (
    ModeReport,
    absorption_scan,
    oscillation_mode_report,
    run_point,
    run_scan,
    seed_key,
    simulate_point,
    write_absorption_csv,
    write_mode_report_csv,
    write_scan,
)
from spinnoise.spectral import average_spectra, find_peak, welch_psd_batch

TWOPI = 2.0 * np.pi


def tiny_cfg(**overrides) -> ExperimentConfig:
    base = dict(
        n_trajectories=2,
        n_steps=1800,
        burn_in_steps=200,
        scan_start=0.0,
        scan_stop=15.0,
        scan_step=7.5,
        master_seed=77,
    )
    base.update(overrides)
    return load_config(overrides=[f"{k}={v}" for k, v in base.items()])


# Every config key, in declaration order, as text for a value other than its
# default.
NON_DEFAULT_TEXT = {
    "b_gauss": "0.7",
    "rabi_hz": "3e7",
    "theta_deg": "54.7",
    "delta_hz": "-3e8",
    "gamma0_hz": "1.7e6",
    "gamma_opt_hz": "0.1e9",
    "gamma_t_hz": "2.5e4",
    "gamma_r_hz": "1e4",
    "n_atoms": "1e10",
    "kappa": "0.3",
    "dt_s": "5e-8",
    "n_steps": "4096",
    "burn_in_steps": "37",
    "record_stride": "3",
    "n_trajectories": "5",
    "master_seed": "12345678901234567891",
    "responsivity_A_per_W": "0.65",
    "transimpedance_V_per_A": "1e4",
    "input_power_W": "1.5e-3",
    "rbw_hz": "30e3",
    "vbw_hz": "2e3",
    "absolute_units": "true",
    "scan_axis": "detuning",
    "scan_start": "1e9",
    "scan_stop": "2e9",
    "scan_step": "0.25e9",
    "detection_mode": "end",
}


class TestConfig:
    def test_defaults_resolve(self):
        cfg = load_config()
        assert cfg.rabi_hz == 40e6
        assert cfg.trajectory_config().dt == pytest.approx(1 / 18e6)

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="not_a_key"):
            load_config(overrides=["not_a_key=3"])

    def test_bad_value_names_key(self):
        with pytest.raises(ConfigError, match="rabi_hz"):
            load_config(overrides=["rabi_hz=fast"])

    @pytest.mark.parametrize("text", ["0", "-1e-8", "nan", "inf"])
    def test_step_length_must_be_positive_and_finite(self, text):
        with pytest.raises(ConfigError, match="dt_s"):
            load_config(overrides=[f"dt_s={text}"])

    @pytest.mark.parametrize("key", [f.name for f in fields(ExperimentConfig) if "float" in f.type])
    def test_every_float_key_must_be_finite(self, key):
        for text in ("nan", "inf", "-inf"):
            with pytest.raises(ConfigError, match=f"{key} must be finite"):
                load_config(overrides=[f"{key}={text}"])

    def test_transit_rate_must_not_be_negative(self):
        with pytest.raises(ConfigError, match="gamma_t_hz must be >= 0"):
            load_config(overrides=["gamma_t_hz=-1"])
        assert load_config(overrides=["gamma_t_hz=0"]).resolved_burn_in() == 0

    @pytest.mark.parametrize("key", ["scan_start", "scan_stop", "scan_step"])
    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_scan_grid_must_be_finite(self, key, text):
        with pytest.raises(ConfigError, match=key):
            load_config(overrides=[f"{key}={text}"])

    @pytest.mark.parametrize(
        "overrides", [["scan_step=1e-300"], ["scan_start=-1e308", "scan_stop=1e308"]]
    )
    def test_scan_grid_point_count_is_bounded(self, overrides):
        # 9e301 points, and a span that overflows to inf.
        with pytest.raises(ConfigError, match=f"at most {MAX_SCAN_POINTS}"):
            load_config(overrides=overrides)

    def test_largest_scan_grid_is_allowed(self):
        cfg = ExperimentConfig(scan_start=0.0, scan_stop=MAX_SCAN_POINTS - 1.0, scan_step=1.0)
        assert cfg.axis_values().size == MAX_SCAN_POINTS
        with pytest.raises(ConfigError, match="scan_step"):
            replace(cfg, scan_stop=float(MAX_SCAN_POINTS))

    @pytest.mark.parametrize(
        "key", ["n_steps", "record_stride", "n_trajectories", "master_seed", "burn_in_steps"]
    )
    @pytest.mark.parametrize("text", ["2.7", "1.9", "1e-3", "inf", "nan", "seven", "1e20"])
    def test_integer_key_rejects_non_integers(self, key, text):
        with pytest.raises(ConfigError, match=key):
            load_config(overrides=[f"{key}={text}"])

    def test_integer_keys_accept_integral_float_notation(self):
        cfg = load_config(overrides=["n_steps=131072.0", "n_trajectories=1e1", "burn_in_steps=5e2"])
        assert (cfg.n_steps, cfg.n_trajectories, cfg.burn_in_steps) == (131072, 10, 500)
        assert load_config(overrides=[f"master_seed={float(2**53)!r}"]).master_seed == 2**53
        with pytest.raises(ConfigError, match="master_seed"):
            load_config(overrides=[f"master_seed={float(2**54)!r}"])

    def test_large_seed_parsed_exactly(self, tmp_path):
        seed = 12345678901234567891
        cfg = load_config(overrides=[f"master_seed={seed}"])
        assert cfg.master_seed == seed
        write_manifest(cfg, tmp_path / "manifest.cfg")
        assert f"master_seed={seed}\n" in (tmp_path / "manifest.cfg").read_text()
        assert load_config(path=tmp_path / "manifest.cfg").master_seed == seed

    def test_unknown_preset_lists_available(self):
        with pytest.raises(ConfigError, match="fig3_end.cfg"):
            load_config(preset="nonexistent")

    def test_preset_grid(self):
        cfg = load_config(preset="fig3_end")
        values = cfg.axis_values()
        assert values.size == 25
        assert values[0] == -4.0 and values[-1] == 92.0  # 94 bounds the grid
        assert cfg.detection_mode == "end"
        assert cfg.delta_hz == 1.5e9

    def test_override_precedence(self):
        cfg = load_config(preset="fig3_end", overrides=["delta_hz=0.3e9"])
        assert cfg.delta_hz == 0.3e9

    def test_axis_values_inclusive(self):
        cfg = tiny_cfg(scan_start=0.0, scan_stop=90.0, scan_step=7.5)
        values = cfg.axis_values()
        assert values.size == 13
        assert values[-1] == 90.0

    def test_auto_burn_in(self):
        cfg = load_config(overrides=["burn_in_steps="])
        expected = int(np.ceil(5.0 / (TWOPI * cfg.gamma_t_hz * cfg.dt_s)))
        assert cfg.resolved_burn_in() == expected

    def test_invalid_scan_axis(self):
        with pytest.raises(ConfigError):
            load_config(overrides=["scan_axis=power"])

    def test_manifest_round_trip(self, tmp_path):
        cfg = tiny_cfg(vbw_hz=2e3)
        path = tmp_path / "manifest.cfg"
        write_manifest(cfg, path)
        back = load_config(path=path)
        resolved = cfg.resolved_dict()
        resolved["burn_in_steps"] = cfg.resolved_burn_in()
        assert back.resolved_dict() == resolved

    def test_default_manifest_is_exact(self, tmp_path):
        # Every key in declaration order; the blank burn-in is resolved.
        path = tmp_path / "run_manifest.cfg"
        write_manifest(load_config(), path)
        assert path.read_bytes() == (
            b"b_gauss=1.0\n"
            b"rabi_hz=40000000.0\n"
            b"theta_deg=0.0\n"
            b"delta_hz=1500000000.0\n"
            b"gamma0_hz=1600000.0\n"
            b"gamma_opt_hz=800000000.0\n"
            b"gamma_t_hz=30000.0\n"
            b"gamma_r_hz=30000.0\n"
            b"n_atoms=3400000000.0\n"
            b"kappa=1.0\n"
            b"dt_s=5.5555555555555555e-08\n"
            b"n_steps=131072\n"
            b"burn_in_steps=478\n"
            b"record_stride=1\n"
            b"n_trajectories=64\n"
            b"master_seed=12345\n"
            b"responsivity_A_per_W=0.7\n"
            b"transimpedance_V_per_A=5000.0\n"
            b"input_power_W=0.001\n"
            b"rbw_hz=91000.0\n"
            b"vbw_hz=\n"
            b"absolute_units=false\n"
            b"scan_axis=theta\n"
            b"scan_start=0.0\n"
            b"scan_stop=90.0\n"
            b"scan_step=7.5\n"
            b"detection_mode=both\n"
        )

    @pytest.mark.parametrize("blank", [(), ("burn_in_steps", "vbw_hz")])
    def test_every_key_round_trips_through_the_manifest(self, tmp_path, blank):
        text = {**NON_DEFAULT_TEXT, **{key: "" for key in blank}}
        assert list(text) == [f.name for f in fields(ExperimentConfig)]
        cfg = load_config(overrides=[f"{key}={value}" for key, value in text.items()])
        default = load_config()
        for key in text.keys() - set(blank):
            assert getattr(cfg, key) != getattr(default, key), key
        path = tmp_path / "manifest.cfg"
        write_manifest(cfg, path)
        back = load_config(path=path)
        assert back == replace(cfg, burn_in_steps=cfg.resolved_burn_in())
        assert back.master_seed == 12345678901234567891 and back.absolute_units is True
        assert (back.vbw_hz is None) == ("vbw_hz" in blank)
        write_manifest(back, tmp_path / "again.cfg")
        assert (tmp_path / "again.cfg").read_bytes() == path.read_bytes()


class TestSeeds:
    def test_same_value_same_key(self):
        assert seed_key(5, 45.0, 3) == seed_key(5, 45.0, 3)
        assert seed_key(5, 45.0, 3) != seed_key(5, 45.0, 4)
        assert seed_key(5, 44.0, 3) != seed_key(5, 45.0, 3)

    def test_value_bits_not_rounded(self):
        assert seed_key(1, 0.1 + 0.2, 0) != seed_key(1, 0.3, 0)

    def test_negative_zero_is_keyed_as_zero(self):
        assert seed_key(5, -0.0, 3) == seed_key(5, 0.0, 3)
        assert seed_key(5, np.float64(-0.0), 3) == seed_key(5, 0.0, 3)

    @pytest.mark.parametrize("axis", ["theta", "b_field", "detuning"])
    def test_negative_zero_point_is_the_zero_point(self, axis, tmp_path):
        # The config accepts -0.0 on every axis; it must draw the noise of 0.0.
        key = AXIS_KEYS[axis]
        zero = simulate_point(tiny_cfg(scan_axis=axis, **{key: 0.0}), tmp_path / "zero.csv")
        negative = simulate_point(tiny_cfg(scan_axis=axis, **{key: -0.0}), tmp_path / "negative.csv")
        for mode in ("rnd", "end"):
            assert np.array_equal(negative.spectra[mode].psd, zero.spectra[mode].psd)
            assert negative.spectra[mode].n_averages == zero.spectra[mode].n_averages
        assert np.array_equal(negative.series, zero.series)
        assert negative.transmission == zero.transmission


class TestRunScan:
    def test_deterministic_and_ordered(self):
        cfg = tiny_cfg()
        a = run_scan(cfg)
        b = run_scan(cfg)
        assert [p.axis_value for p in a.points] == [0.0, 7.5, 15.0]
        for pa, pb in zip(a.points, b.points):
            for mode in pa.spectra:
                assert np.array_equal(pa.spectra[mode].psd, pb.spectra[mode].psd)

    def test_subrange_reproduces_rows(self):
        full = run_scan(tiny_cfg())
        sub = run_scan(tiny_cfg(scan_start=7.5, scan_stop=7.5))
        assert sub.points[0].axis_value == full.points[1].axis_value
        for mode in ("rnd", "end"):
            assert np.array_equal(
                sub.points[0].spectra[mode].psd, full.points[1].spectra[mode].psd
            )

    def test_single_point_range(self):
        cfg = tiny_cfg(scan_start=10.0, scan_stop=10.0, scan_step=5.0)
        result = run_scan(cfg)
        assert [p.axis_value for p in result.points] == [10.0]

    def test_inverted_range_rejected_at_load(self):
        with pytest.raises(ConfigError):
            tiny_cfg(scan_start=10.0, scan_stop=5.0)

    def test_point_metadata(self):
        # On every axis the scanned key carries the axis value (none of them
        # the configured one), and the other axis keys the configuration's.
        for axis, value in [("theta", 7.5), ("b_field", 0.5), ("detuning", 0.3e9)]:
            cfg = tiny_cfg(detection_mode="rnd", scan_axis=axis)
            point = run_point(cfg, value)
            meta = point.spectra["rnd"].metadata
            assert value != getattr(cfg, AXIS_KEYS[axis])
            for key in AXIS_KEYS.values():
                assert meta[key] == (value if key == AXIS_KEYS[axis] else getattr(cfg, key))
            assert meta["mode"] == "rnd"
            assert meta["seed"] == cfg.master_seed
            assert 0.0 <= point.transmission <= 1.0
            assert point.shot_floor > 0

    def test_absolute_units_adds_floor(self):
        relative = run_point(tiny_cfg(detection_mode="rnd"), 7.5)
        absolute = run_point(tiny_cfg(detection_mode="rnd", absolute_units="true"), 7.5)
        diff = absolute.spectra["rnd"].psd - relative.spectra["rnd"].psd
        assert np.allclose(diff, relative.shot_floor, rtol=1e-9)

    @pytest.mark.parametrize("vbw, source", [(None, "average_spectra"), (10e3, "video_average")])
    def test_absolute_units_leaves_its_source_as_it_was(self, monkeypatch, vbw, source):
        # The shot floor is added to a record derived from the point's
        # average or, with a video filter, from the filtered record: that
        # record keeps its PSD and metadata, and the point's spectrum has a
        # metadata dict of its own.
        seen = []
        derive = getattr(scan, source)

        def keep(*args):
            out = derive(*args)
            seen.append((out, out.psd.copy(), dict(out.metadata)))
            return out

        monkeypatch.setattr(scan, source, keep)
        overrides = {} if vbw is None else {"vbw_hz": vbw}
        cfg = tiny_cfg(detection_mode="rnd", absolute_units="true", **overrides)
        point = run_point(cfg, 7.5)
        [(record, psd, metadata)] = seen
        assert np.array_equal(record.psd, psd)
        assert record.metadata == metadata
        spectrum = point.spectra["rnd"]
        assert spectrum.metadata is not record.metadata
        assert spectrum.metadata == {
            **scan._point_metadata(cfg, 7.5, "rnd"), "shot_floor_added": "true"
        }
        assert np.array_equal(spectrum.psd, psd + point.shot_floor)

    @staticmethod
    def failing_steady_state(monkeypatch):
        # theta = 7.5 has no steady state; the other two points are valid.
        # The patch is made before a pool forks, so its workers see it too.
        def solve(params):
            if np.isclose(params.theta, np.radians(7.5)):
                raise NumericError("no steady state")
            return steady_state(params)

        monkeypatch.setattr(scan, "steady_state", solve)

    def test_failing_point_reports_axis_value_under_pool(self, monkeypatch, caplog):
        # The failing point is the first of the second worker's task.
        self.failing_steady_state(monkeypatch)
        with caplog.at_level(logging.ERROR, logger="spinnoise.scan"):
            with pytest.raises(NumericError, match="no steady state"):
                run_scan(tiny_cfg(), n_workers=2)
        assert "scan point theta=7.5 failed" in caplog.text

    def test_failing_point_reports_axis_value_serially(self, monkeypatch, caplog):
        self.failing_steady_state(monkeypatch)
        with caplog.at_level(logging.ERROR, logger="spinnoise.scan"):
            with pytest.raises(NumericError, match="no steady state"):
                run_scan(tiny_cfg(), n_workers=1)
        assert "scan point theta=7.5 failed" in caplog.text

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_failing_transmission_reports_axis_value(self, monkeypatch, caplog, n_workers):
        # The task holding trajectory 0 solves each point's transmission in
        # the point's set-up, serially and on the pool alike.
        def absorb(params, detector, rho_ss=None):
            if np.isclose(params.theta, np.radians(7.5)):
                raise DomainError("no transmission")
            return transmission(params, detector, rho_ss)

        monkeypatch.setattr(scan, "transmission", absorb)
        with caplog.at_level(logging.ERROR, logger="spinnoise.scan"):
            with pytest.raises(DomainError, match="no transmission"):
                run_scan(tiny_cfg(), n_workers=n_workers)
        assert "scan point theta=7.5 failed" in caplog.text

    def test_parallel_matches_serial(self):
        cfg = tiny_cfg()
        serial = run_scan(cfg, n_workers=1)
        parallel = run_scan(cfg, n_workers=2)
        for ps, pp in zip(serial.points, parallel.points):
            for mode in ps.spectra:
                assert np.array_equal(ps.spectra[mode].psd, pp.spectra[mode].psd)


def poison(monkeypatch, axis_value, trajectory):
    """Give one trajectory of one point non-finite noise on its first step."""
    draw = integrator._draw_noise_chunk
    target = seed_key(0, axis_value, trajectory)[1:]

    def poisoned(rngs, chunk, noise):
        draw(rngs, chunk, noise)
        for j, rng in enumerate(rngs):
            if list(rng.bit_generator.seed_seq.entropy[1:]) == target:
                noise[j, 0, 0] = np.inf

    monkeypatch.setattr(integrator, "_draw_noise_chunk", poisoned)


class RecordingPool:
    """In-process stand-in for ProcessPoolExecutor that records its tasks."""

    def __init__(self, max_workers, mp_context=None):
        self.tasks = []
        RecordingPool.instances.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args, **kwargs):
        self.tasks.append((fn, args, kwargs))
        future = Future()
        future.set_result(fn(*args, **kwargs))
        return future


@pytest.fixture
def recording_pool(monkeypatch):
    # Four usable CPUs, whatever the machine: runs on up to four workers
    # are cut for all of them.
    RecordingPool.instances = []
    monkeypatch.setattr(scan, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(scan, "_usable_cpus", lambda: 4)
    return RecordingPool


def greedy_shares(tasks, n_workers):
    """Trajectory-points each of ``n_workers`` workers steps when each
    takes the next task as soon as it is free, a task's time being its
    trajectory-points (ties to the lowest worker)."""
    shares = [0] * n_workers
    for points, group in tasks:
        free = shares.index(min(shares))
        shares[free] += len(points) * len(group)
    return shares


class TestTrajectoryGroups:
    def test_contiguous_and_near_equal(self):
        assert scan._split(3, 2) == [range(0, 1), range(1, 3)]
        assert scan._split(64, 2) == [range(0, 32), range(32, 64)]
        assert scan._split(2, 5) == [range(0, 1), range(1, 2)]
        assert scan._split(4, 1) == [range(0, 4)]
        assert scan._split(3, 2, wide_first=True) == [range(0, 2), range(2, 3)]
        assert scan._split(150, 4, wide_first=True) == [
            range(0, 38), range(38, 76), range(76, 113), range(113, 150)
        ]

    def test_point_spectra_do_not_depend_on_the_split(self, monkeypatch, tmp_path):
        # Three usable CPUs, so that three workers get a layout of their own.
        monkeypatch.setattr(scan, "_usable_cpus", lambda: 3)
        cfg = tiny_cfg(n_trajectories=3, theta_deg=7.5)
        serial = simulate_point(cfg, tmp_path / "1.csv")
        for n_workers in (2, 3):
            split = simulate_point(cfg, tmp_path / f"{n_workers}.csv", n_workers=n_workers)
            for mode in ("rnd", "end"):
                assert np.array_equal(split.spectra[mode].psd, serial.spectra[mode].psd)
                assert split.spectra[mode].n_averages == serial.spectra[mode].n_averages
            assert np.array_equal(split.series, serial.series)
            assert split.transmission == serial.transmission
            assert (tmp_path / f"{n_workers}.csv").read_bytes() == (tmp_path / "1.csv").read_bytes()

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_failure_names_trajectory_within_point(self, monkeypatch):
        # Trajectory 2 gets non-finite noise on its first step; it sits
        # in the last group under two and three workers.
        poison(monkeypatch, 7.5, 2)
        cfg = tiny_cfg(n_trajectories=3)
        for n_workers in (1, 2, 3):
            with pytest.raises(NumericError, match="non-finite state in trajectory 2 during"):
                run_point(cfg, 7.5, n_workers=n_workers)

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_too_fine_rbw_fails_before_any_step(self, monkeypatch, n_workers):
        def never(*args):
            raise AssertionError("the ensemble was stepped")

        monkeypatch.setattr(integrator, "_draw_noise_chunk", never)
        cfg = tiny_cfg(rbw_hz=100.0)
        with pytest.raises(DomainError, match="series too short for rbw=100 Hz"):
            run_point(cfg, 7.5, n_workers=n_workers)
        with pytest.raises(DomainError, match="series too short"):
            run_scan(cfg, n_workers=n_workers)

    def test_one_steady_state_solve_per_point(self, monkeypatch):
        calls = []

        def counting(params):
            calls.append(params)
            return steady_state(params)

        monkeypatch.setattr(scan, "steady_state", counting)
        monkeypatch.setattr(detection, "steady_state", counting)
        point = run_point(tiny_cfg(), 7.5)
        assert len(calls) == 1
        direct = transmission(calls[0], tiny_cfg().detector_params())
        assert point.transmission == direct


class TestScanTasks:
    def test_task_layout(self):
        # Each point's trajectories in one range a worker, the points in
        # groups that fit one call: two groups of 8-trajectory ranges, so
        # each of two workers steps 104 trajectory-points.
        assert scan._scan_tasks(13, 16, 2) == [
            (points, group)
            for points in (range(0, 6), range(6, 13)) for group in (range(0, 8), range(8, 16))
        ]
        assert greedy_shares(scan._scan_tasks(13, 16, 2), 2) == [104, 104]
        assert scan._scan_tasks(3, 4, 1) == [(range(0, 3), range(4))]
        assert scan._scan_tasks(1, 64, 2) == [(range(0, 1), range(0, 32)), (range(0, 1), range(32, 64))]
        # Fewer trajectories than workers: one range a trajectory, and
        # enough point groups for a task a worker.
        assert scan._scan_tasks(2, 3, 3) == [
            (range(0, 2), group) for group in (range(0, 1), range(1, 2), range(2, 3))
        ]
        assert scan._scan_tasks(3, 2, 3) == [
            (points, group) for points in (range(0, 1), range(1, 3)) for group in (range(0, 1), range(1, 2))
        ]
        # A share wider than one call is cut twice as fine, wider ranges first.
        assert scan._scan_tasks(1, 150, 2) == [
            (range(0, 1), group)
            for group in (range(0, 38), range(38, 76), range(76, 113), range(113, 150))
        ]

    @settings(max_examples=300, deadline=None)
    @given(
        n_values=st.integers(1, 40), n_traj=st.integers(1, 200),
        n_workers=st.integers(1, 4), bound=st.integers(1, 64),
    )
    def test_every_trajectory_once_in_order_within_the_bound(self, n_values, n_traj, n_workers, bound):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scan, "_CALL_TRAJECTORIES", bound)
            tasks = scan._scan_tasks(n_values, n_traj, n_workers)
        covered = sorted((i, t) for points, group in tasks for i in points for t in group)
        assert covered == [(i, t) for i in range(n_values) for t in range(n_traj)]
        for i in range(n_values):
            starts = [group.start for points, group in tasks if i in points]
            assert starts == sorted(starts)
        assert all(len(points) * len(group) <= bound for points, group in tasks)
        assert len(tasks) >= min(n_workers, n_values * n_traj)
        # Workers taking the tasks in turn step shares that differ by at
        # most one trajectory of each point of the largest group.
        shares = greedy_shares(tasks, n_workers)
        assert max(shares) - min(shares) <= max(len(points) for points, _ in tasks)

    def test_one_task_per_point_when_points_cover_workers(self, recording_pool):
        # One trajectory a point and as many points as workers: each task is
        # one point with its trajectory.
        cfg = tiny_cfg(n_trajectories=1)
        result = run_scan(cfg, n_workers=3)
        (pool,) = recording_pool.instances
        assert [fn for fn, _, _ in pool.tasks] == [scan._run_task] * 3
        assert [list(args[1]) for _, args, _ in pool.tasks] == [[0.0], [7.5], [15.0]]
        assert [args[2] for _, args, _ in pool.tasks] == [range(0, 1)] * 3
        assert all(kwargs == {} for _, _, kwargs in pool.tasks)
        serial = run_scan(cfg, n_workers=1)
        for pp, ps in zip(result.points, serial.points):
            assert np.array_equal(pp.spectra["rnd"].psd, ps.spectra["rnd"].psd)

    def test_point_groups_when_points_cover_workers(self, recording_pool):
        # All three points fit one call: one group, one trajectory range a
        # worker.
        cfg = tiny_cfg()
        result = run_scan(cfg, n_workers=2)
        (pool,) = recording_pool.instances
        assert [fn for fn, _, _ in pool.tasks] == [scan._run_task] * 2
        assert [list(args[1]) for _, args, _ in pool.tasks] == [[0.0, 7.5, 15.0]] * 2
        assert [args[2] for _, args, _ in pool.tasks] == [range(0, 1), range(1, 2)]
        assert all(kwargs == {} for _, _, kwargs in pool.tasks)
        serial = run_scan(cfg, n_workers=1)
        for pp, ps in zip(result.points, serial.points):
            for mode in ("rnd", "end"):
                assert np.array_equal(pp.spectra[mode].psd, ps.spectra[mode].psd)
            assert pp.transmission == ps.transmission

    def test_fewer_points_than_workers_split_trajectories(self, recording_pool):
        cfg = tiny_cfg(scan_start=7.5, scan_stop=7.5, n_trajectories=3)
        result = run_scan(cfg, n_workers=2)
        (pool,) = recording_pool.instances
        assert [fn for fn, _, _ in pool.tasks] == [scan._run_task] * 2
        assert [list(args[1]) for _, args, _ in pool.tasks] == [[7.5], [7.5]]
        assert [args[2] for _, args, _ in pool.tasks] == [range(0, 2), range(2, 3)]
        serial = run_scan(cfg, n_workers=1)
        for mode in ("rnd", "end"):
            assert np.array_equal(
                result.points[0].spectra[mode].psd, serial.points[0].spectra[mode].psd
            )

    def test_pool_is_capped_at_the_usable_cpus(self, monkeypatch):
        # Three workers on two usable CPUs: two worker processes run the
        # tasks, in the layout of two workers.  The pool forks by name.  On
        # one usable CPU the tasks are cut for one and run in this process.
        # Each run cuts its layout once, and the pool is sized from it.
        sizes, cuts = [], []
        cut = scan._scan_tasks

        def recording(max_workers, mp_context):
            sizes.append((max_workers, mp_context.get_start_method()))
            return ProcessPoolExecutor(max_workers=min(max_workers, 2), mp_context=mp_context)

        def recording_cut(n_values, n_traj, n_workers):
            cuts.append(n_workers)
            return cut(n_values, n_traj, n_workers)

        monkeypatch.setattr(scan, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(scan, "ProcessPoolExecutor", recording)
        monkeypatch.setattr(scan, "_scan_tasks", recording_cut)
        cfg = tiny_cfg()
        capped = run_scan(cfg, n_workers=3)
        assert sizes == [(2, "fork")]
        assert cuts == [2]
        monkeypatch.setattr(scan, "_usable_cpus", lambda: 1)
        cuts.clear()
        in_process = run_scan(cfg, n_workers=3)
        assert sizes == [(2, "fork")]
        assert cuts == [1]
        serial = run_scan(cfg, n_workers=1)
        for pc, pi, ps in zip(capped.points, in_process.points, serial.points):
            for mode in ("rnd", "end"):
                assert np.array_equal(pc.spectra[mode].psd, ps.spectra[mode].psd)
                assert np.array_equal(pi.spectra[mode].psd, ps.spectra[mode].psd)

    def test_written_scan_does_not_depend_on_workers(self, tmp_path, monkeypatch):
        monkeypatch.setattr(scan, "_usable_cpus", lambda: 3)
        cfg = tiny_cfg(n_trajectories=3)
        for n_workers in (1, 2, 3):
            write_scan(run_scan(cfg, n_workers=n_workers), cfg, tmp_path / str(n_workers))
        names = sorted(p.name for p in (tmp_path / "1").iterdir())
        assert len(names) == 3 * 2 + 2
        for n_workers in ("2", "3"):
            assert sorted(p.name for p in (tmp_path / n_workers).iterdir()) == names
            for name in names:
                assert (tmp_path / n_workers / name).read_bytes() == (tmp_path / "1" / name).read_bytes()

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_failure_in_a_stacked_group_names_its_point(self, monkeypatch, caplog):
        # Trajectory 1 of theta = 15 gets non-finite noise.  Serially the
        # one task holds all three points; on two workers both tasks hold
        # them, and trajectory 1 is in the first, of trajectories 0 and 1.
        poison(monkeypatch, 15.0, 1)
        cfg = tiny_cfg(n_trajectories=3)
        for n_workers in (1, 2):
            caplog.clear()
            with caplog.at_level(logging.ERROR, logger="spinnoise.scan"):
                with pytest.raises(NumericError, match="non-finite state in trajectory 1 during"):
                    run_scan(cfg, n_workers=n_workers)
            assert "scan point theta=15 failed" in caplog.text


class TestEngineCalls:
    def test_call_layout(self):
        assert scan._CALL_TRAJECTORIES == 64
        # Whole points while a point's trajectories fit in one call.
        assert scan._scan_tasks(7, 16, 1) == [(range(0, 3), range(16)), (range(3, 7), range(16))]
        assert scan._scan_tasks(3, 32, 1) == [(range(0, 1), range(32)), (range(1, 3), range(32))]
        assert scan._scan_tasks(2, 64, 1) == [(range(i, i + 1), range(64)) for i in (0, 1)]
        # A point wider than one call: near-equal ranges of its
        # trajectories, the wider first.
        assert scan._scan_tasks(2, 140, 1) == [
            (range(i, i + 1), group)
            for i in (0, 1) for group in (range(0, 47), range(47, 94), range(94, 140))
        ]
        assert scan._scan_tasks(2, 70, 2) == [
            (range(i, i + 1), group) for i in (0, 1) for group in (range(0, 35), range(35, 70))
        ]
        # The 13-angle acceptance scans: two-point tasks of 32 trajectories,
        # the first point alone.
        assert scan._scan_tasks(13, 64, 2) == [
            (points, group)
            for points in [range(0, 1)] + [range(i, i + 2) for i in range(1, 13, 2)]
            for group in (range(0, 32), range(32, 64))
        ]

    # Bound 2 with one trajectory a point steps up to two points a call;
    # with three, one point's trajectories in calls of 2 and 1.  Bound 3
    # with two trajectories a point steps one point a call; with five,
    # calls of 3 and 2.
    @pytest.mark.parametrize("bound, n_traj", [(2, 1), (2, 3), (3, 2), (3, 5)])
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_calls_do_not_change_the_bits(self, monkeypatch, tmp_path, bound, n_traj, n_workers):
        cfg = tiny_cfg(n_trajectories=n_traj)
        whole = run_scan(cfg, n_workers=n_workers)
        point = simulate_point(cfg, tmp_path / "whole.csv", n_workers=n_workers)
        monkeypatch.setattr(scan, "_CALL_TRAJECTORIES", bound)
        cut = run_scan(cfg, n_workers=n_workers)
        point_cut = simulate_point(cfg, tmp_path / "cut.csv", n_workers=n_workers)
        for pw, pc in zip(whole.points + [point], cut.points + [point_cut]):
            assert pc.axis_value == pw.axis_value
            assert pc.transmission == pw.transmission
            for mode in ("rnd", "end"):
                assert np.array_equal(pc.spectra[mode].psd, pw.spectra[mode].psd)
                assert pc.spectra[mode].n_averages == pw.spectra[mode].n_averages
        assert np.array_equal(point_cut.series, point.series)
        assert (tmp_path / "cut.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()

    def test_no_call_is_wider_than_the_bound(self, monkeypatch, tmp_path):
        widths = []

        def spy(params, tcfg, keys, **kwargs):
            widths.append(len(keys))
            return evolve_ensemble_coherences(params, tcfg, keys, **kwargs)

        monkeypatch.setattr(scan, "evolve_ensemble_coherences", spy)
        monkeypatch.setattr(scan, "_CALL_TRAJECTORIES", 3)
        run_scan(tiny_cfg(n_trajectories=2, scan_stop=30.0), n_workers=1)
        assert widths == [2] * 5
        widths.clear()
        simulate_point(tiny_cfg(n_trajectories=7), tmp_path / "series.csv", n_workers=1)
        assert widths == [3, 2, 2]

    # Each poisoned trajectory sits in a later call than the first: with one
    # trajectory a point, theta = 15 is the second point of its call; with
    # three, trajectory 2 is in its point's second range and is numbered
    # within the point.
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("n_traj, trajectory", [(1, 0), (3, 2)])
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_failure_in_a_later_call_names_its_point_and_trajectory(
        self, monkeypatch, caplog, n_traj, trajectory, n_workers
    ):
        monkeypatch.setattr(scan, "_CALL_TRAJECTORIES", 2)
        poison(monkeypatch, 15.0, trajectory)
        cfg = tiny_cfg(n_trajectories=n_traj)
        with caplog.at_level(logging.ERROR, logger="spinnoise.scan"):
            with pytest.raises(
                NumericError, match=f"non-finite state in trajectory {trajectory} during"
            ):
                run_scan(cfg, n_workers=n_workers)
        assert "scan point theta=15 failed" in caplog.text

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_failure_without_an_axis_value_names_the_task_points(
        self, monkeypatch, caplog, n_workers
    ):
        # An error of the engine call as a whole carries no axis value, so
        # the log names the failing task's points: with one trajectory a
        # point in calls of two, the second task, theta = 7.5 and 15.  The
        # patch is made before a pool forks, so its workers see it too.
        def refuse(params, tcfg, keys, **kwargs):
            if len(params) > 1:
                raise DomainError("refused by the engine")
            return evolve_ensemble_coherences(params, tcfg, keys, **kwargs)

        monkeypatch.setattr(scan, "_CALL_TRAJECTORIES", 2)
        monkeypatch.setattr(scan, "evolve_ensemble_coherences", refuse)
        with caplog.at_level(logging.ERROR, logger="spinnoise.scan"):
            with pytest.raises(DomainError, match="^refused by the engine$"):
                run_scan(tiny_cfg(n_trajectories=1), n_workers=n_workers)
        assert "scan points theta=7.5..15 failed" in caplog.text
        assert "scan point theta" not in caplog.text

    def test_task_memory_does_not_grow_with_its_points(self):
        # 16 trajectories a point: four points fill one call, so a serial
        # scan of 20 points steps five calls of the width of a 4-point scan.
        def traced_peak(n_points):
            cfg = tiny_cfg(
                n_trajectories=16, n_steps=1024, burn_in_steps=0,
                scan_start=0.0, scan_stop=4.5 * (n_points - 1), scan_step=4.5,
            )
            tracemalloc.start()
            try:
                run_scan(cfg, n_workers=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert traced_peak(20) <= 1.5 * traced_peak(4)


class TestPolarizationSymmetry:
    def test_half_turn_leaves_spectra_unchanged(self):
        # theta and theta+180 deg differ by a global field sign; same noise
        # streams must give the same spectra to solver precision.
        cfg = TrajectoryConfig(dt=1 / 18e6, n_steps=2000, burn_in_steps=200)
        keys = [[3, 0], [3, 1]]
        psds = []
        for theta in (20.0, 200.0):
            p = SystemParams.from_lab_units(
                b_gauss=1.0, rabi_hz=40e6, theta_deg=theta, delta_hz=1.5e9
            )
            coh = evolve_ensemble_coherences(p, cfg, keys, rho0=steady_state(p))
            signals = coh @ readout_matrix(p)
            rnd = average_spectra(welch_psd_batch(signals[..., 0], cfg.dt, 91e3))
            end = average_spectra(welch_psd_batch(signals[..., 1], cfg.dt, 91e3))
            psds.append((rnd.psd, end.psd))
        assert np.allclose(psds[0][0], psds[1][0], rtol=1e-6)
        assert np.allclose(psds[0][1], psds[1][1], rtol=1e-6)


class TestSimulatedPeak:
    def test_rotation_peak_sits_at_larmor_frequency(self):
        # 2 MHz Larmor line from the full noisy pipeline.
        b = 2.0e6 / 2.8e6
        cfg = tiny_cfg(
            n_trajectories=8, n_steps=2**15, burn_in_steps=478,
            scan_axis="b_field", scan_start=b, scan_stop=b, scan_step=1.0,
            theta_deg=55.0,
        )
        point = run_point(cfg, b)
        spec = point.spectra["rnd"]
        report = find_peak(spec, around=2.0e6, halfwidth=0.5e6)
        assert abs(report.peak_freq - 2.0e6) <= spec.rbw
        assert report.peak_power > 0


class TestOscillationModes:
    def test_dominant_frequencies(self):
        omega = TWOPI * 1e6
        expected = {"minus1_z": 1e6, "x": 2e6, "minus_pi_4": 1e6}
        for initial, freq in expected.items():
            report = oscillation_mode_report(omega, initial)
            assert report.dominant_freq_hz == pytest.approx(freq, abs=1e-6)
            assert report.t.size >= 256
            assert report.populations.shape == (3, report.t.size)

    def test_transverse_component_stays_dark(self):
        report = oscillation_mode_report(TWOPI * 1e6, "x")
        idx = report.labels.index("pop_y")
        assert np.allclose(report.populations[idx], 0.0, atol=1e-12)
        assert report.dominant_freqs_hz[idx] == 0.0

    def test_per_population_frequencies(self):
        report = oscillation_mode_report(TWOPI * 1e6, "minus1_z")
        assert report.dominant_freqs_hz == pytest.approx((1e6, 2e6, 1e6))

    def test_validation(self):
        with pytest.raises(DomainError):
            oscillation_mode_report(0.0, "x")
        with pytest.raises(DomainError):
            oscillation_mode_report(1.0, "sideways")
        with pytest.raises(DomainError):
            oscillation_mode_report(1.0, "x", n_samples=100)

    @pytest.mark.parametrize("omega", [np.nan, np.inf])
    def test_non_finite_frequency_refused(self, omega):
        # A NaN passed the sign check and reported a dominant frequency of nan.
        with pytest.raises(DomainError, match=r"^omega_l must be > 0 and finite"):
            oscillation_mode_report(omega, "x")

    def test_csv_write(self, tmp_path):
        report = oscillation_mode_report(TWOPI * 1e6, "minus_pi_4")
        path = tmp_path / "modes.csv"
        write_mode_report_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# initial=minus_pi_4"
        header = [l for l in lines if l.startswith("t_s,")][0]
        assert header == "t_s,pop_plus_pi4,pop_minus_pi4,pop_zero_z"

    def test_csv_layout_is_exact(self, tmp_path):
        report = ModeReport(
            initial="x",
            omega_l=3,
            t=np.array([0.0, 0.1]),
            labels=("pop_x", "pop_y", "pop_zero_z"),
            populations=np.array([[1.0, 2.0 / 3.0], [0.0, 1e-17], [0.0, 1.0 / 3.0]]),
            dominant_freqs_hz=(0.954929658551372, 0.0, 0.954929658551372),
            dominant_freq_hz=0.954929658551372,
        )
        path = tmp_path / "modes.csv"
        write_mode_report_csv(report, path)
        assert path.read_bytes() == (
            b"# initial=x\n"
            b"# omega_l_rad_per_s=3.0\n"
            b"# dominant_freq_hz=0.954929658551372\n"
            b"# dominant_pop_x_hz=0.954929658551372\n"
            b"# dominant_pop_y_hz=0.0\n"
            b"# dominant_pop_zero_z_hz=0.954929658551372\n"
            b"t_s,pop_x,pop_y,pop_zero_z\n"
            b"0.0,1.0,0.0,0.0\n"
            b"0.1,0.6666666666666666,1e-17,0.3333333333333333\n"
        )


class TestAbsorptionScan:
    def test_no_light_no_absorption(self):
        cfg = tiny_cfg(rabi_hz=0.0)
        rows = absorption_scan(cfg, np.array([0.0, 30.0, 60.0]))
        assert all(abs(a) < 1e-9 for _, a in rows)

    def test_matches_direct_transmission(self):
        cfg = tiny_cfg(delta_hz=0.3e9, rabi_hz=30e6)
        rows = absorption_scan(cfg, np.array([20.0]))
        direct = 1.0 - transmission(cfg.system_params(20.0), cfg.detector_params())
        assert rows[0][1] == pytest.approx(direct, rel=1e-12)

    def test_csv_layout_is_exact(self, tmp_path):
        cfg = tiny_cfg(delta_hz=0.3e9, rabi_hz=30e6, input_power_W=1.5e-3)
        path = tmp_path / "absorption.csv"
        write_absorption_csv([(0.0, 0.25), (54.7, 1.0 / 3.0), (90.0, 1e-20)], cfg, path)
        assert path.read_bytes() == (
            b"# delta_hz=300000000.0\n"
            b"# rabi_hz=30000000.0\n"
            b"# b_gauss=1.0\n"
            b"# input_power_W=0.0015\n"
            b"theta_deg,absorption,transmission\n"
            b"0.0,0.25,0.75\n"
            b"54.7,0.3333333333333333,0.6666666666666667\n"
            b"90.0,1e-20,1.0\n"
        )

    def test_field_axis_rows_are_the_configured_field_points(self):
        cfg = tiny_cfg(
            delta_hz=0.3e9, rabi_hz=30e6, theta_deg=40.0,
            scan_axis="b_field", scan_start=0.0, scan_stop=2.0, scan_step=0.5,
        )
        detector = cfg.detector_params()
        rows = absorption_scan(cfg, cfg.axis_values())
        assert [b for b, _ in rows] == [0.0, 0.5, 1.0, 1.5, 2.0]
        for b, absorbed in rows:
            assert absorbed == 1.0 - transmission(cfg.system_params(b), detector)

    def test_csv_names_the_scanned_key(self, tmp_path):
        # The fixed keys are the axis keys but the scanned one, then the
        # Rabi frequency and the input power: a field or detuning scan
        # names its angle.
        cfg = tiny_cfg(delta_hz=0.3e9, rabi_hz=30e6, theta_deg=30.0, scan_axis="b_field")
        path = tmp_path / "absorption.csv"
        write_absorption_csv([(0.0, 0.25), (0.5, 0.5)], cfg, path)
        assert path.read_bytes() == (
            b"# theta_deg=30.0\n"
            b"# delta_hz=300000000.0\n"
            b"# rabi_hz=30000000.0\n"
            b"# input_power_W=0.001\n"
            b"b_gauss,absorption,transmission\n"
            b"0.0,0.25,0.75\n"
            b"0.5,0.5,0.5\n"
        )
        cfg = tiny_cfg(rabi_hz=30e6, theta_deg=60.0, b_gauss=0.5, scan_axis="detuning")
        write_absorption_csv([(-1e9, 0.25)], cfg, path)
        assert path.read_bytes() == (
            b"# theta_deg=60.0\n"
            b"# rabi_hz=30000000.0\n"
            b"# b_gauss=0.5\n"
            b"# input_power_W=0.001\n"
            b"delta_hz,absorption,transmission\n"
            b"-1000000000.0,0.25,0.75\n"
        )


class TestSimulatePoint:
    def test_outputs(self, tmp_path):
        cfg = tiny_cfg()
        path = tmp_path / "made" / "timeseries.csv"
        point = simulate_point(cfg, path)
        lines = path.read_text().splitlines()
        n_meta = sum(line.startswith("#") for line in lines)
        assert [line.partition("=")[0] for line in lines[:n_meta]] == [
            f"# {key}" for key in (*AXIS_KEYS.values(), "seed")
        ]
        assert lines[n_meta] == "t_s,rnd_au,end_au"
        t, rnd, end = np.array([[float(v) for v in row.split(",")] for row in lines[n_meta + 1 :]]).T
        n_expected = cfg.n_steps - cfg.resolved_burn_in()
        assert t.shape == rnd.shape == end.shape == (n_expected,)
        assert t[0] == pytest.approx((cfg.resolved_burn_in() + 1) * cfg.dt_s)
        assert point.series.shape == (n_expected, 2)
        assert np.array_equal(rnd, point.series[:, 0]) and np.array_equal(end, point.series[:, 1])
        assert set(point.spectra) == {"rnd", "end"}
        assert scan._series is None

    def test_one_integration_and_series_is_ensemble_column_zero(self, monkeypatch, tmp_path):
        calls = []

        def recording(*args, **kwargs):
            calls.append((args, kwargs))
            return evolve_ensemble_coherences(*args, **kwargs)

        monkeypatch.setattr(scan, "evolve_ensemble_coherences", recording)
        cfg = tiny_cfg()
        rnd, end = simulate_point(cfg, tmp_path / "timeseries.csv").series.T
        assert len(calls) == 1
        (params, tcfg, keys), kwargs = calls[0]
        assert kwargs.pop("sink") is not None
        assert np.array_equal(kwargs["readout"][0], readout_matrix(params[0]))
        # The same integration, its signals recorded whole: the series is
        # their column 0.
        signals = evolve_ensemble_coherences(params, tcfg, keys, **kwargs)
        assert signals.shape == (tcfg.n_recorded, cfg.n_trajectories, 2)
        assert np.array_equal(rnd, signals[:, 0, 0])
        assert np.array_equal(end, signals[:, 0, 1])


class TestSeriesPool:
    @staticmethod
    def cfg():
        return tiny_cfg(n_steps=2**14, burn_in_steps=200)

    def test_pool_series_is_the_in_process_series_and_no_result_carries_it(
        self, monkeypatch, tmp_path
    ):
        # Two trajectories on a real 2-process pool: the task holding
        # trajectory 0 writes its rows into the shared buffer, so its result
        # is its PSDs and transmission, not the 16 bytes a row of the series.
        # The same pool then formats the table's four blocks.
        monkeypatch.setattr(scan, "_usable_cpus", lambda: 2)
        cfg = self.cfg()
        serial = simulate_point(cfg, tmp_path / "1.csv")
        futures = []

        class Recording(ProcessPoolExecutor):
            def submit(self, fn, *args, **kwargs):
                futures.append((fn, args, super().submit(fn, *args, **kwargs)))
                return futures[-1][2]

        monkeypatch.setattr(scan, "ProcessPoolExecutor", Recording)
        pooled = simulate_point(cfg, tmp_path / "2.csv", n_workers=2)
        assert [fn for fn, _, _ in futures] == [scan._run_task] * 2 + [spectral._format_range] * 4
        assert [args[2] for _, args, _ in futures[:2]] == [range(0, 1), range(1, 2)]
        n_recorded = cfg.trajectory_config().n_recorded
        assert pooled.series.shape == (n_recorded, 2)
        assert np.array_equal(pooled.series, serial.series)
        for mode in ("rnd", "end"):
            assert np.array_equal(pooled.spectra[mode].psd, serial.spectra[mode].psd)
        assert len(pickle.dumps(futures[0][2].result())) < n_recorded * 16
        assert (tmp_path / "2.csv").read_bytes() == (tmp_path / "1.csv").read_bytes()

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_no_buffer_or_worker_is_left_behind(self, monkeypatch, tmp_path, n_workers):
        # After a run, and after a run whose ensemble fails, which also
        # makes no directory for its table.
        monkeypatch.setattr(scan, "_usable_cpus", lambda: 2)
        cfg = tiny_cfg(n_trajectories=3, scan_axis="theta", theta_deg=7.5, master_seed=0)
        simulate_point(cfg, tmp_path / "done" / "timeseries.csv", n_workers=n_workers)
        assert scan._series is None
        assert multiprocessing.active_children() == []
        poison(monkeypatch, 7.5, 2)
        with pytest.raises(NumericError):
            simulate_point(cfg, tmp_path / "failed" / "timeseries.csv", n_workers=n_workers)
        assert scan._series is None
        assert multiprocessing.active_children() == []
        assert not (tmp_path / "failed").exists()


class TestWriteScan:
    def test_files_and_manifest(self, tmp_path):
        cfg = tiny_cfg()
        result = run_scan(cfg)
        written = write_scan(result, cfg, tmp_path / "out")
        names = sorted(p.name for p in written)
        assert "scan_manifest.csv" in names
        assert "run_manifest.cfg" in names
        assert "rnd_000.csv" in names and "end_002.csv" in names
        manifest = (tmp_path / "out" / "scan_manifest.csv").read_text().splitlines()
        assert manifest[0] == "axis_value,mode,transmission,shot_floor_v2_per_hz,file"
        assert len(manifest) == 1 + 3 * 2  # three points, two modes

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tiny_cfg()
        for sub in ("a", "b"):
            write_scan(run_scan(cfg), cfg, tmp_path / sub)
        for name in ("rnd_001.csv", "end_001.csv", "scan_manifest.csv", "run_manifest.cfg"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
