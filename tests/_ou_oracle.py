"""Linear-response spectral oracle for cross-validating the simulation chain.

Treats the noisy evolution as a discrete-time Ornstein-Uhlenbeck chain in a
real 16-dimensional coordinate system for Hermitian matrices,

    x_{k+1} = E x_k + n_k,     E = exp(Abar dt),

and predicts the one-sided PSD of any linear readout s = g . x via the
resolvent,

    S(f) = 2 dt g G(f) N G(f)^H g^T,   G(f) = (I - E e^{-2 pi i f dt})^{-1},

with N the per-step noise covariance.  Everything is built by probing the
public drift and detection functions with basis matrices; the time stepping,
trajectory ensemble, and Welch estimator under test are not used.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from spinnoise.core import liouville_rhs
from spinnoise.detection import field_from_coherences, rnd_signal, end_signal

PAIRS = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def mat_from_real(x):
    m = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        m[i, i] = x[i]
    for n, (i, j) in enumerate(PAIRS):
        m[i, j] = x[4 + 2 * n] + 1j * x[5 + 2 * n]
        m[j, i] = np.conj(m[i, j])
    return m


def real_from_mat(m):
    x = np.zeros(16)
    for i in range(4):
        x[i] = m[i, i].real
    for n, (i, j) in enumerate(PAIRS):
        x[4 + 2 * n] = m[i, j].real
        x[5 + 2 * n] = m[i, j].imag
    return x


def real_drift(params):
    """Affine drift in real coordinates: x_dot = A x + b."""
    b = real_from_mat(liouville_rhs(np.zeros((4, 4), dtype=complex), params))
    a = np.zeros((16, 16))
    for k in range(16):
        e = np.zeros(16)
        e[k] = 1.0
        a[:, k] = real_from_mat(liouville_rhs(mat_from_real(e), params)) - b
    return a, b


def step_noise_covariance(params, dt):
    sigma_sq = 2.0 * params.gamma_t * dt / (3.0 * params.n_atoms)
    n = np.zeros(16)
    n[0] = n[1] = n[2] = sigma_sq
    for k, (i, j) in enumerate(PAIRS):
        if j < 3:
            n[4 + 2 * k] = 0.75 * sigma_sq
            n[5 + 2 * k] = 0.75 * sigma_sq
    return np.diag(n)


def detection_row(params, mode):
    """Readout coefficients by probing the detection chain with basis states."""
    signal = rnd_signal if mode == "rnd" else end_signal
    g = np.zeros(16)
    for k in range(16):
        e = np.zeros(16)
        e[k] = 1.0
        g[k] = signal(field_from_coherences(mat_from_real(e), params))
    return g


def predicted_psd(params, dt, freqs_hz, mode):
    """One-sided PSD of the chosen detection mode on the given grid."""
    a, _ = real_drift(params)
    e = scipy.linalg.expm(a * dt)
    cov = step_noise_covariance(params, dt)
    g = detection_row(params, mode)
    eye = np.eye(16)
    out = np.empty(len(freqs_hz))
    for i, f in enumerate(freqs_hz):
        resolvent = np.linalg.solve(eye - e * np.exp(-2j * np.pi * f * dt), eye)
        out[i] = 2.0 * dt * np.real(g @ resolvent @ cov @ np.conj(resolvent.T) @ g)
    return out


def predicted_window_power(params, dt, f0, halfwidth, mode, n_grid=801):
    freqs = np.linspace(f0 - halfwidth, f0 + halfwidth, n_grid)
    return float(np.trapezoid(predicted_psd(params, dt, freqs, mode), freqs))
