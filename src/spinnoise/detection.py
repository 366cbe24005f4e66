"""From optical coherences to balanced-detection signals and noise floors.

A thin sample radiates a field proportional to the optical coherence of
each circular transition.  Decomposed back onto the mean-polarization
frame, the component perpendicular to the mean field carries the spin
noise: its real part is read out by the plain balanced detection (RND,
rotation noise), its imaginary part after a quarter-wave quadrature swap
(END, ellipticity noise).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .core import SQRT2, SQRT3, SystemParams, require_hermitian
from .exceptions import DomainError
from .integrator import steady_state

logger = logging.getLogger(__name__)

#: Probe wavelength (m); sets the photon energy used in the absorption model.
PROBE_WAVELENGTH_M = 1.083e-6

#: Exact SI values of the Planck constant (J s), the speed of light (m/s)
#: and the elementary charge (C).
PLANCK_J_S = 6.62607015e-34
SPEED_OF_LIGHT_M_PER_S = 299792458.0
ELEMENTARY_CHARGE_C = 1.602176634e-19

PHOTON_ENERGY_J = PLANCK_J_S * SPEED_OF_LIGHT_M_PER_S / PROBE_WAVELENGTH_M


@dataclass(frozen=True)
class DetectorParams:
    """Balanced detection chain constants."""

    responsivity: float = 0.7        # A/W
    transimpedance: float = 5e3      # V/A
    input_power: float = 1e-3        # W

    def __post_init__(self):
        for name in ("responsivity", "transimpedance", "input_power"):
            value = getattr(self, name)
            if value <= 0:
                raise DomainError(f"{name} must be > 0, got {value}")


@dataclass(frozen=True, eq=False)
class FieldSample:
    """Transmitted-field fluctuation at one instant (or an array of them).

    e_plus/e_minus are the circular components; e_par/e_perp their exact
    unitary reframing onto the mean polarization direction, so that
    |e_par|^2 + |e_perp|^2 == |e_plus|^2 + |e_minus|^2.
    """

    e_plus: np.ndarray | complex
    e_minus: np.ndarray | complex
    e_par: np.ndarray | complex
    e_perp: np.ndarray | complex


def fields_from_coherence_series(
    rho_e_m1: np.ndarray | complex,
    rho_e_p1: np.ndarray | complex,
    params: SystemParams,
) -> FieldSample:
    """Radiated-field sample(s) from the optical coherences rho[3,0], rho[3,2].

    Each circular transition radiates in quadrature with its coherence,
    e_plus = i*kappa*rho[3,0]/sqrt(3) and e_minus = i*kappa*rho[3,2]/sqrt(3),
    with equal signs because both circular branches of the line carry the
    same transition amplitude (matching the coupling convention of
    decompose_polarization, so an isotropic gas produces a pure common-mode
    phase shift and no polarization rotation).  Cartesian components follow
    the circular convention e+- = -+(x +- iy)/sqrt(2); the parallel and
    perpendicular projections use the mean polarization direction
    (cos theta, sin theta).
    """
    scale = params.kappa / SQRT3
    e_plus = 1j * scale * np.asarray(rho_e_m1)
    e_minus = 1j * scale * np.asarray(rho_e_p1)
    e_x = (e_minus - e_plus) / SQRT2
    e_y = -1j * (e_plus + e_minus) / SQRT2
    cos_t, sin_t = np.cos(params.theta), np.sin(params.theta)
    return FieldSample(
        e_plus=e_plus,
        e_minus=e_minus,
        e_par=cos_t * e_x + sin_t * e_y,
        e_perp=-sin_t * e_x + cos_t * e_y,
    )


def field_from_coherences(rho: np.ndarray, params: SystemParams) -> FieldSample:
    """FieldSample of a single density matrix."""
    rho = np.asarray(rho, dtype=complex)
    require_hermitian(rho)
    return fields_from_coherence_series(rho[3, 0], rho[3, 2], params)


def rnd_signal(sample: FieldSample) -> np.ndarray | float:
    """Rotation-noise channel: 2 Re(e_perp), first order in the fluctuation."""
    return 2.0 * np.real(sample.e_perp)


def end_signal(sample: FieldSample) -> np.ndarray | float:
    """Ellipticity-noise channel: 2 Im(e_perp) (quadrature-swapped readout)."""
    return 2.0 * np.imag(sample.e_perp)


#: Column order of ``readout_matrix``, and so of every recorded signal row.
SIGNAL_MODES = ("rnd", "end")


def readout_matrix(params: SystemParams) -> np.ndarray:
    """Real (4, 2) readout G: the [RND, END] signals of the coherence
    coordinates x = (Re rho[3,0], Im rho[3,0], Re rho[3,2], Im rho[3,2])
    are x @ G.

    Built by probing fields_from_coherence_series with the four unit
    coordinates and reading each probe through rnd_signal and end_signal.
    """
    probes = np.eye(4).view(complex)   # row k: coherence pair of unit coordinate k
    sample = fields_from_coherence_series(probes[:, 0], probes[:, 1], params)
    return np.stack([rnd_signal(sample), end_signal(sample)], axis=-1)


def transmission(
    params: SystemParams, detector: DetectorParams, rho_ss: np.ndarray | None = None
) -> float:
    """Transmitted power fraction of the probe through the vapor.

    The absorbed fraction is the steady-state scattered power,
    photon_energy * gamma0 * rho_ee * n_atoms, relative to the input power,
    clamped to [0, 1].  Clamping indicates the thin-sample assumption broke
    down and is logged.  An excited population rho_ee in [-1e-12, 0) is
    taken as zero, without a warning: at a vanishing probe a steady state
    solved to rounding reads rho_ee of about +-1e-14, which is no breakdown.
    ``rho_ss`` is the steady state of ``params`` when the caller has
    already solved it; otherwise it is solved here.
    """
    if rho_ss is None:
        rho_ss = steady_state(params)
    rho_ee = float(np.real(rho_ss[3, 3]))
    if -1e-12 <= rho_ee < 0.0:
        rho_ee = 0.0
    absorbed = PHOTON_ENERGY_J * params.gamma0 * rho_ee * params.n_atoms / detector.input_power
    if absorbed > 1.0 or absorbed < 0.0:
        logger.warning(
            "absorbed fraction %.3g clamped to [0, 1]; thin-sample mapping is breaking down",
            absorbed,
        )
        absorbed = min(max(absorbed, 0.0), 1.0)
    return 1.0 - absorbed


def shot_noise_floor(detector: DetectorParams, transmission_fraction: float) -> float:
    """One-sided shot-noise voltage PSD of the balanced pair, V^2/Hz.

    Both photodiodes together see the transmitted power, so the floor is
    2 q S (T P_in) G^2, flat across the detection bandwidth.
    """
    if not 0.0 <= transmission_fraction <= 1.0:
        raise DomainError(
            f"transmission must be in [0, 1], got {transmission_fraction}"
        )
    detected_power = transmission_fraction * detector.input_power
    return (
        2.0
        * ELEMENTARY_CHARGE_C
        * detector.responsivity
        * detected_power
        * detector.transimpedance**2
    )
