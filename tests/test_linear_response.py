"""Cross-validation of the full Monte-Carlo spectral pipeline.

The transit noise drives small Gaussian fluctuations around the steady
state, so the ensemble-averaged PSD of each detection channel must match
the resolvent prediction of the linearized (discrete-time) system.  The
oracle in _ou_oracle builds that prediction from the drift and detection
definitions alone; the time stepper, the trajectory ensemble, the signal
synthesis, and the Welch estimator under test play no part in it.
"""

import numpy as np
import pytest

from spinnoise.config import load_config
from spinnoise.core import SystemParams
from spinnoise.detection import readout_matrix
from spinnoise.integrator import TrajectoryConfig, evolve_ensemble_coherences, steady_state
from spinnoise.spectral import average_spectra, find_peak, welch_psd_batch

from _ou_oracle import predicted_window_power

DT = 1.0 / 18e6
RBW = 91e3


def monte_carlo_window_powers(params, windows, n_traj=16, n_steps=2**16):
    cfg = TrajectoryConfig(dt=DT, n_steps=n_steps, burn_in_steps=478)
    keys = [[101, t] for t in range(n_traj)]
    coh = evolve_ensemble_coherences(params, cfg, keys, rho0=steady_state(params))
    signals = coh @ readout_matrix(params)
    out = {}
    for m, mode in enumerate(("rnd", "end")):
        spec = average_spectra(welch_psd_batch(signals[..., m], DT, RBW))
        out[mode] = {
            f0: find_peak(spec, f0, hw).peak_power for f0, hw in windows
        }
    return out


def assert_matches_oracle(params):
    windows = [(2.8e6, 0.5e6), (5.6e6, 0.5e6)]
    measured = monte_carlo_window_powers(params, windows)
    for mode in ("rnd", "end"):
        for f0, hw in windows:
            predicted = predicted_window_power(params, DT, f0, hw, mode)
            assert measured[mode][f0] == pytest.approx(predicted, rel=0.05), (
                f"{mode} window at {f0:g} Hz"
            )


@pytest.mark.parametrize(
    "theta_deg,delta_hz,rabi_hz",
    [(45.0, 1.5e9, 40e6), (0.0, 0.3e9, 30e6)],
)
def test_spectra_match_linear_response(theta_deg, delta_hz, rabi_hz):
    assert_matches_oracle(
        SystemParams.from_lab_units(
            b_gauss=1.0, rabi_hz=rabi_hz, theta_deg=theta_deg, delta_hz=delta_hz
        )
    )


def test_spectra_match_linear_response_on_doppler_line():
    # The optical pole a config file produces for the far point at 45 deg,
    # where the ellipticity channel's Larmor window is at its weakest.
    cfg = load_config(overrides=["b_gauss=1.0", "rabi_hz=40e6", "delta_hz=1.5e9"])
    assert_matches_oracle(cfg.system_params(45.0))
