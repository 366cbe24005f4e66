"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The desk-scale ensembles (criteria 2-4) share module-scoped scans.

Known failures at the pinned parameters: 3a and 4a encode flat
polarization maps that the modeled equations do not reach at the quoted
40 and 30 MHz Rabi frequencies.  The measured cause is the probe's own
optical pumping and light shift of the ground state: at a weak probe both
maps are flat, while noise that obeys the fluctuation-dissipation relation
of the pumped state leaves them as they are.  The assertions are kept at
the stated thresholds rather than loosened, and the messages print the
computed values.
"""

import time

import numpy as np
import pytest

from spinnoise.config import load_config
from spinnoise.core import SystemParams
from spinnoise.detection import DetectorParams, shot_noise_floor
from spinnoise.integrator import (
    Propagator,
    step,
    steady_state,
    steady_state_residual,
)
from spinnoise.core import equilibrium_rho
from spinnoise.noise import noise_stats, sample_increment, sample_increment_block
from spinnoise.scan import oscillation_mode_report, run_point, run_scan, write_scan
from spinnoise.spectral import find_peak, welch_psd

TWOPI = 2.0 * np.pi
DT = 1.0 / 18e6
RBW = 91e3
PEAK_HALFWIDTH = 0.5e6


def report(criterion: str, passed: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    return passed


def scan_config(**overrides):
    base = dict(
        b_gauss=1.0,
        scan_axis="theta",
        scan_start=0.0,
        scan_stop=90.0,
        scan_step=7.5,
        detection_mode="both",
        n_trajectories=64,
        n_steps=2**17,
        master_seed=20240,
        rbw_hz=RBW,
    )
    base.update(overrides)
    return load_config(overrides=[f"{k}={v}" for k, v in base.items()])


def peak_powers(scan_result, mode, f0):
    return np.array(
        [
            find_peak(pt.spectra[mode], f0, PEAK_HALFWIDTH).peak_power
            for pt in scan_result.points
        ]
    )


@pytest.fixture(scope="module")
def far_scan():
    cfg = scan_config(delta_hz=1.5e9, rabi_hz=40e6, input_power_W=1.5e-3)
    return run_scan(cfg, n_workers=2)


@pytest.fixture(scope="module")
def near_scan():
    cfg = scan_config(delta_hz=0.3e9, rabi_hz=30e6, input_power_W=1e-3)
    return run_scan(cfg, n_workers=2)


@pytest.fixture(scope="module")
def field_scan():
    # The 0.5/0.7/1.0 G points are not equally spaced, so they run as three
    # single-value scans rather than one gridded scan.
    cfg = scan_config(
        scan_axis="b_field",
        scan_start=0.5,
        scan_stop=1.0,
        scan_step=0.1,
        theta_deg=55.0,
        delta_hz=1.5e9,
        rabi_hz=40e6,
        n_trajectories=32,
    )
    start = time.monotonic()
    points = {b: run_point(cfg, b) for b in (0.5, 0.7, 1.0)}
    elapsed = time.monotonic() - start
    return points, elapsed


def test_criterion_1_oscillation_modes():
    start = time.monotonic()
    expected = {"minus1_z": 1e6, "x": 2e6, "minus_pi_4": 1e6}
    measured = {}
    for initial, want in expected.items():
        rep = oscillation_mode_report(TWOPI * 1e6, initial)
        measured[initial] = rep.dominant_freq_hz
    elapsed = time.monotonic() - start
    bin_hz = 1e6  # one FFT bin over a single period
    ok = all(
        abs(measured[k] - expected[k]) <= bin_hz for k in expected
    ) and elapsed < 1.0
    assert report(
        "1",
        ok,
        f"mode frequencies {[f'{measured[k]/1e6:.3f} MHz' for k in expected]} "
        f"(want 1, 2, 1 MHz), runtime {elapsed:.2f} s < 1 s",
    )


def test_criterion_2_peak_positions(field_scan):
    points, elapsed = field_scan
    details = []
    ok = elapsed < 300.0
    for b, point in points.items():
        rnd = point.spectra["rnd"]
        rnd_peak = find_peak(rnd, 2.8e6 * b, PEAK_HALFWIDTH)
        end_peak = find_peak(point.spectra["end"], 5.6e6 * b, PEAK_HALFWIDTH)
        rnd_err = rnd_peak.peak_freq - 2.8e6 * b
        end_err = end_peak.peak_freq - 5.6e6 * b
        ok &= abs(rnd_err) <= rnd.rbw and abs(end_err) <= rnd.rbw
        details.append(f"B={b}: dRND={rnd_err/1e3:+.1f} kHz, dEND={end_err/1e3:+.1f} kHz")
    assert report(
        "2", ok, "; ".join(details) + f"; bin {RBW/1e3:.0f} kHz, runtime {elapsed:.0f} s < 300 s"
    )


def test_criterion_3a_far_rnd_flat(far_scan):
    grid = [pt.axis_value for pt in far_scan.points]
    powers = peak_powers(far_scan, "rnd", 2.8e6)
    mean = powers.mean()
    lo, hi = powers.min() / mean, powers.max() / mean
    ok = lo >= 0.75 and hi <= 1.25
    assert report(
        "3a",
        ok,
        f"RND Larmor-peak power spread {lo:.2f}..{hi:.2f} of mean (need 0.75..1.25), "
        f"max at {grid[int(np.argmax(powers))]:.1f} deg, min at "
        f"{grid[int(np.argmin(powers))]:.1f} deg, 90/0-deg ratio "
        f"{powers[grid.index(90.0)] / powers[grid.index(0.0)]:.2f}; "
        "cause: optical pumping and light shift of the ground state by the 40 MHz-Rabi probe",
    )


def test_criterion_3b_far_end_double_frequency_peak(far_scan):
    grid = np.array([pt.axis_value for pt in far_scan.points])
    powers = peak_powers(far_scan, "end", 5.6e6)
    i_max = int(np.argmax(powers))
    ratio0 = powers[i_max] / powers[0]
    ratio90 = powers[i_max] / powers[-1]
    ok = ratio0 >= 10.0 and ratio90 >= 10.0
    assert report(
        "3b",
        ok,
        f"END 2x-Larmor peak max at theta={grid[i_max]:.1f} deg, "
        f"{ratio0:.0f}x its 0-deg value and {ratio90:.0f}x its 90-deg value (need >=10x)",
    )


def test_criterion_3c_far_end_larmor_contrast(far_scan):
    grid = [pt.axis_value for pt in far_scan.points]
    powers = peak_powers(far_scan, "end", 2.8e6)
    ratio = powers[grid.index(0.0)] / powers[grid.index(45.0)]
    ok = ratio >= 10.0
    assert report(
        "3c",
        ok,
        f"END Larmor-peak power at 0 deg is {ratio:.1f}x its 45-deg value (need >=10x); "
        "the 45-deg floor is rotation noise leaking into the ellipticity channel "
        "through the circular dichroism of the line at the probe detuning",
    )


def test_criterion_4a_near_end_flat(near_scan):
    grid = [pt.axis_value for pt in near_scan.points]
    powers = peak_powers(near_scan, "end", 2.8e6)
    two_wl = peak_powers(near_scan, "end", 5.6e6)
    mean = powers.mean()
    lo, hi = powers.min() / mean, powers.max() / mean
    single_peaked = np.all(two_wl <= 0.25 * powers)
    ok = lo >= 0.65 and hi <= 1.35 and single_peaked
    assert report(
        "4a",
        ok,
        f"END Larmor-peak spread {lo:.2f}..{hi:.2f} of mean (need 0.65..1.35), "
        f"2x-Larmor residual <= {np.max(two_wl / powers):.2f} of the Larmor peak, "
        f"max at {grid[int(np.argmax(powers))]:.1f} deg, 90/0-deg ratio "
        f"{powers[grid.index(90.0)] / powers[grid.index(0.0)]:.2f}; "
        "cause: optical pumping and light shift of the ground state by the 30 MHz-Rabi probe",
    )


def test_criterion_4b_near_end_double_frequency_suppressed(far_scan, near_scan):
    near_two = peak_powers(near_scan, "end", 5.6e6).max()
    far_end_map_max = max(
        peak_powers(far_scan, "end", 2.8e6).max(),
        peak_powers(far_scan, "end", 5.6e6).max(),
    )
    far_two_max = peak_powers(far_scan, "end", 5.6e6).max()
    ratio_map = near_two / far_end_map_max
    ratio_two = near_two / far_two_max
    ok = ratio_map <= 0.1
    assert report(
        "4b",
        ok,
        f"near-resonance END 2x-Larmor max is {ratio_map:.3f} of the far-detuned END "
        f"maximum (need <=0.1); against the far 2x-Larmor maximum alone it is {ratio_two:.2f}",
    )


def test_criterion_4c_near_rnd_double_frequency_peak(near_scan):
    grid = [pt.axis_value for pt in near_scan.points]
    powers = peak_powers(near_scan, "rnd", 5.6e6)
    p45 = powers[grid.index(45.0)]
    p90 = powers[grid.index(90.0)]
    ok = p45 > 0 and p45 >= 5.0 * p90
    assert report(
        "4c",
        ok,
        f"RND 2x-Larmor peak at 45 deg is {p45 / p90:.1f}x its 90-deg value (need >=5x)",
    )


def test_criterion_5_absorption_magic_angle():
    from spinnoise.scan import absorption_scan

    thetas = np.arange(0.0, 90.5, 1.0)
    near_cfg = scan_config(delta_hz=0.3e9, rabi_hz=30e6, input_power_W=1e-3)
    far_cfg = scan_config(delta_hz=1.5e9, rabi_hz=30e6, input_power_W=1e-3)
    near = np.array([a for _, a in absorption_scan(near_cfg, thetas)])
    far = np.array([a for _, a in absorption_scan(far_cfg, thetas)])
    theta_max = thetas[int(np.argmax(near))]
    ok = (
        abs(theta_max - 54.7) <= 3.0
        and int(np.argmin(near)) == 0
        and np.all(far < near)
    )
    assert report(
        "5",
        ok,
        f"near-resonance absorption max at {theta_max:.0f} deg (54.7 +/- 3), "
        f"min at {thetas[int(np.argmin(near))]:.0f} deg, far-detuned curve below "
        f"near-resonance at all angles: {bool(np.all(far < near))}",
    )


def test_criterion_6_shot_noise_floor():
    detector = DetectorParams(
        responsivity=0.7, transimpedance=5e3, input_power=1e-3
    )
    floor = shot_noise_floor(detector, 1.0)
    value_ok = abs(floor - 5.6e-15) <= 0.03 * 5.6e-15
    transmissions = np.linspace(0.05, 1.0, 20)
    ratios = np.array([shot_noise_floor(detector, t) / t for t in transmissions])
    linear_ok = np.allclose(ratios, floor, rtol=1e-12)
    ok = value_ok and linear_ok
    assert report(
        "6",
        ok,
        f"floor {floor:.4e} V^2/Hz vs 5.6e-15 +/- 3%, linear tracking of "
        f"transmission exact: {linear_ok}",
    )


def test_criterion_7_noise_generator_statistics():
    stats = noise_stats(TWOPI * 30e3, DT, 3.4e9)
    n = 1_000_000
    channels = sample_increment_block(stats, np.random.default_rng(424242), n)
    target = np.array([stats.sigma_sq] * 3 + [stats.offdiag_var] * 6)
    variances = channels.var(axis=0)
    var_ok = np.all(np.abs(variances / target - 1.0) < 0.02)
    cov = np.cov(channels.T)
    se = np.sqrt(np.outer(np.diag(cov), np.diag(cov)) / n)
    off_mask = ~np.eye(9, dtype=bool)
    cross_ok = np.all(np.abs(cov[off_mask]) < 4.0 * se[off_mask])
    inc = sample_increment(stats, np.random.default_rng(7)).entries
    herm_ok = np.array_equal(inc, np.conj(inc.T)) and np.all(inc[3] == 0)
    ok = var_ok and cross_ok and herm_ok
    assert report(
        "7",
        ok,
        f"1e6-sample variances within {np.max(np.abs(variances / target - 1)) * 100:.2f}% "
        f"of targets (need 2%), cross-correlations within 4 sigma: {cross_ok}, "
        f"Hermitian with silent upper level: {herm_ok}",
    )


def test_criterion_8_numerical_hygiene():
    # Parseval on random signals.
    rng = np.random.default_rng(31415)
    parseval_devs = []
    for _ in range(5):
        x = rng.normal(size=2**16)
        spec = welch_psd(x, DT, RBW)
        parseval_devs.append(abs(spec.psd.sum() * spec.df / np.mean(x**2) - 1.0))
    parseval_ok = max(parseval_devs) < 0.01

    # Noise-free trace conservation over 1e6 steps.
    params = SystemParams.from_lab_units(b_gauss=1.0, rabi_hz=40e6, delta_hz=1.5e9)
    prop = Propagator(params, DT)
    v = equilibrium_rho().reshape(16)
    worst = 0.0
    trace_idx = [0, 5, 10, 15]
    for _ in range(1_000_000):
        v = prop.step_vec(v)
        m = v.reshape(4, 4)
        v = (0.5 * (m + np.conj(m.T))).reshape(16)
        worst = max(worst, abs(v[trace_idx].sum().real - 1.0))
    trace_ok = worst < 1e-9

    # Steady-state residuals.
    residuals = [
        steady_state_residual(steady_state(p), p)
        for p in (
            params,
            SystemParams.from_lab_units(b_gauss=0.5, rabi_hz=30e6, theta_deg=54.7, delta_hz=0.3e9),
        )
    ]
    residual_ok = max(residuals) < 1e-10

    # Trace relaxation rate from an out-of-normalization start.
    rho = 1.1 * equilibrium_rho()
    gaps = []
    rng2 = np.random.default_rng(0)
    for _ in range(2000):
        rho = step(rho, params, DT, rng2, with_noise=False)
        gaps.append(np.trace(rho).real - 1.0)
    t = DT * np.arange(1, 2001)
    rate = -np.polyfit(t, np.log(gaps), 1)[0]
    rate_ok = abs(rate / params.gamma_t - 1.0) < 0.01

    ok = parseval_ok and trace_ok and residual_ok and rate_ok
    assert report(
        "8",
        ok,
        f"Parseval worst {max(parseval_devs) * 100:.2f}% (<1%), trace drift {worst:.1e} "
        f"(<1e-9), steady residual {max(residuals):.1e} (<1e-10), trace-relaxation "
        f"rate off by {abs(rate / params.gamma_t - 1) * 100:.2f}% (<1%)",
    )


def test_criterion_9_reproducibility(tmp_path):
    cfg = scan_config(
        n_trajectories=4, n_steps=2**14, scan_stop=15.0, master_seed=909,
    )
    write_scan(run_scan(cfg), cfg, tmp_path / "a")
    write_scan(run_scan(cfg), cfg, tmp_path / "b")
    names = [p.name for p in sorted((tmp_path / "a").iterdir())]
    identical = all(
        (tmp_path / "a" / n).read_bytes() == (tmp_path / "b" / n).read_bytes()
        for n in names
    )
    sub_cfg = scan_config(
        n_trajectories=4, n_steps=2**14, scan_start=7.5, scan_stop=7.5, master_seed=909,
    )
    write_scan(run_scan(sub_cfg), sub_cfg, tmp_path / "sub")
    rows_match = all(
        (tmp_path / "sub" / f"{mode}_000.csv").read_bytes()
        == (tmp_path / "a" / f"{mode}_001.csv").read_bytes()
        for mode in ("rnd", "end")
    )
    ok = identical and rows_match
    assert report(
        "9",
        ok,
        f"byte-identical reruns over {len(names)} files: {identical}; "
        f"sub-range rows equal full-scan rows: {rows_match}",
    )
