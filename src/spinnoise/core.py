"""Level structure, Hamiltonian, and relaxation for the probed transition.

The system is the spin-1 ground manifold plus a single J=0 excited level,
represented by a 4x4 complex density matrix in the fixed basis

    index 0: |-1>_z    index 1: |0>_z    index 2: |+1>_z    index 3: |e>

with the quantization axis z along the light propagation direction and the
static magnetic field along x.  All frequencies and rates are angular
(rad/s) throughout the package; configuration files use Hz and convert on
load.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .exceptions import ContractViolationError, DomainError

#: Zeeman shift of the m = +-1 ground sublevels, Hz per gauss.
ZEEMAN_HZ_PER_GAUSS = 2.8e6

#: Number of ground sublevels, which is also the excited level's index.
N_GROUND = 3
DIM = 4

SQRT2 = np.sqrt(2.0)
SQRT3 = np.sqrt(3.0)

#: Spin-1 Jx in the z basis {|-1>, |0>, |+1>} (dimensionless).
SPIN1_JX = np.array(
    [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]], dtype=complex
) / SQRT2

#: Eigenvectors of SPIN1_JX as columns, for eigenvalues (-1, 0, +1).
JX_EIGENVECTORS = np.array(
    [
        [0.5, -1.0 / SQRT2, 0.5],
        [-1.0 / SQRT2, 0.0, 1.0 / SQRT2],
        [0.5, 1.0 / SQRT2, 0.5],
    ],
    dtype=complex,
)
JX_EIGENVALUES = np.array([-1.0, 0.0, 1.0])


def larmor_from_field(b_gauss: float) -> float:
    """Angular Larmor frequency (rad/s) for a magnetic field in gauss."""
    if b_gauss < 0:
        raise DomainError(f"magnetic field must be >= 0 gauss, got {b_gauss}")
    return 2.0 * np.pi * ZEEMAN_HZ_PER_GAUSS * b_gauss


@dataclass(frozen=True)
class CircularCouplings:
    """Rabi couplings of the sigma+ and sigma- transitions (rad/s)."""

    omega_plus: complex
    omega_minus: complex


def decompose_polarization(rabi: float, theta: float) -> CircularCouplings:
    """Split a linear polarization into circular coupling amplitudes.

    The probe is linearly polarized at angle ``theta`` from the magnetic
    field axis x, in the plane transverse to the propagation axis z.  With
    circular unit vectors e+- = -+(x +- iy)/sqrt(2) and the sign of the
    m = +-1 transition amplitudes folded in (both circular branches of a
    J=1 -> J=0 line carry the same Clebsch-Gordan sign), the couplings of a
    unit polarization vector at angle theta are

        omega_plus  = -(rabi/sqrt(2)) * exp(-i theta)
        omega_minus = -(rabi/sqrt(2)) * exp(+i theta)

    so that |omega_plus|^2 + |omega_minus|^2 == rabi^2 for every theta.
    This pairing makes light at theta = 0 drive the m_x = 0 sublevel alone
    and light at the 54.7-degree magic angle drive all three equally, which
    fixes the one physical sign the convention must get right.
    """
    if rabi < 0:
        raise DomainError(f"rabi magnitude must be >= 0, got {rabi}")
    amp = rabi / SQRT2
    return CircularCouplings(
        omega_plus=-amp * np.exp(-1j * theta),
        omega_minus=-amp * np.exp(1j * theta),
    )


_SQRT_PI = math.sqrt(math.pi)
# Terms of Weideman's rational series, and of the asymptotic series used
# far from the origin.
_WEIDEMAN_N = 64
_ASYMPTOTIC_TERMS = 30


@functools.cache
def _weideman_coefficients() -> tuple[float, tuple[float, ...]]:
    """Weideman's scale L and his N coefficients, highest power first."""
    m = 2 * _WEIDEMAN_N
    scale = math.sqrt(_WEIDEMAN_N / math.sqrt(2.0))
    t = scale * np.tan(np.arange(-m + 1, m) * np.pi / (2 * m))
    f = np.concatenate(([0.0], np.exp(-t * t) * (scale * scale + t * t)))
    a = np.fft.fft(np.fft.fftshift(f)).real / (2 * m)
    return scale, tuple(a[_WEIDEMAN_N:0:-1].tolist())


def _weideman(z: np.ndarray) -> np.ndarray:
    """w(z) for Im z >= 0 by Weideman's rational expansion (SIAM J. Numer.
    Anal. 31, 1497 (1994)): accurate to ~1e-14 of |w|."""
    scale, a = _weideman_coefficients()
    d = scale - 1j * z
    zeta = (scale + 1j * z) / d
    p = np.zeros_like(zeta)
    for c in a:
        p = p * zeta + c
    return 2.0 * p / (d * d) + 1.0 / (_SQRT_PI * d)


def faddeeva(z) -> np.ndarray:
    """Faddeeva function w(z) = exp(-z^2) erfc(-iz) for Im z >= 0.

    Weideman's expansion has an absolute error of order 1e-17 of |w|, which
    swamps Re w near the real axis once |Re z| >~ 2 (there Re w is
    exp(-x^2) plus a term proportional to Im z).  So Re w is rebuilt from
    w = exp(-z^2) + (2i/sqrt(pi)) F(z), F being Dawson's function: on the
    axis Re w = exp(-x^2) exactly; for 2 <= |x| < 8 and y <= 0.05, Im F is
    its Taylor series in y about x, from F(x) = sqrt(pi)/2 Im w(x) and
    F' = 1 - 2 x F; and for |x| >= 8, y <= |x|/2, all of w comes from
    exp(-z^2) and the asymptotic series i/(sqrt(pi) z) sum (1/2)_m z^(-2m).
    """
    z = np.asarray(z, dtype=complex)
    shape = z.shape
    z = z.ravel()
    if np.any(z.imag < 0):
        raise DomainError("faddeeva needs Im z >= 0")
    x, y = z.real, z.imag
    out = _weideman(z)
    far = (np.abs(x) >= 8.0) & (y <= 0.5 * np.abs(x))
    if far.any():
        zf = z[far]
        u = 1.0 / (zf * zf)
        series = np.ones_like(zf)
        for m in range(_ASYMPTOTIC_TERMS - 2, -1, -1):   # sum of (1/2)_m u^m by Horner
            series = 1.0 + (m + 0.5) * u * series
        out[far] = np.exp(-zf * zf) + 1j * series / (_SQRT_PI * zf)
    near = (np.abs(x) >= 2.0) & (np.abs(x) < 8.0) & (y <= 0.05)
    if near.any():
        xn, yn = x[near], y[near]
        dawson = [0.5 * _SQRT_PI * _weideman(xn + 0j).imag]
        dawson.append(1.0 - 2.0 * xn * dawson[0])
        for n in range(1, 9):
            dawson.append(-2.0 * xn * dawson[n] - 2.0 * n * dawson[n - 1])
        im_f = sum(
            (-1) ** (n // 2) * dawson[n] * yn**n / math.factorial(n) for n in (9, 7, 5, 3, 1)
        )
        out[near] = (
            np.exp(yn * yn - xn * xn) * np.cos(2.0 * xn * yn) - 2.0 / _SQRT_PI * im_f
            + 1j * out[near].imag
        )
    axis = y == 0
    out[axis] = np.exp(-x[axis] ** 2) + 1j * out[axis].imag
    return out.reshape(shape)


def doppler_pole(
    delta: float, doppler_hwhm: float, gamma_h: float
) -> tuple[float, float]:
    """Single optical pole equivalent to a Doppler-broadened line at one detuning.

    Averages the optical response 1/(delta - k v - i gamma_h) of a
    homogeneous line of half width ``gamma_h`` over a Gaussian velocity
    distribution whose Doppler shifts k v have half width at half maximum
    ``doppler_hwhm``, and returns ``(delta_eff, gamma_eff)`` with

        delta_eff - i gamma_eff = 1 / <1 / (delta - k v - i gamma_h)>_v.

    The average is a Voigt profile, evaluated with the Faddeeva function.
    Any consistent frequency unit works.  ``doppler_hwhm = 0`` returns the
    homogeneous pole ``(delta, gamma_h)``.
    """
    if doppler_hwhm < 0:
        raise DomainError(f"Doppler half width must be >= 0, got {doppler_hwhm}")
    if gamma_h < 0:
        raise DomainError(f"homogeneous half width must be >= 0, got {gamma_h}")
    if doppler_hwhm == 0:
        return float(delta), float(gamma_h)
    scale = doppler_hwhm / np.sqrt(np.log(2.0))   # sqrt(2) * Gaussian sigma
    # <1/(z0 - x)> over x ~ N(0, sigma^2) is -i sqrt(pi) w(z0/scale)/scale for
    # Im z0 > 0; the conjugate gives the lower half plane of delta - i gamma_h.
    z = (delta + 1j * gamma_h) / scale
    mean = 1j * np.sqrt(np.pi) * np.conj(faddeeva(z)) / scale
    pole = 1.0 / mean
    return float(pole.real), float(-pole.imag)


# The angular frequencies of SystemParams (rad/s), whose largest sets the
# problem's rate scale.
RATE_FIELDS = ("omega_L", "rabi", "delta", "gamma0", "gamma_opt", "gamma_t", "gamma_R")


@dataclass(frozen=True)
class SystemParams:
    """Physical parameters of one simulation point.

    Attributes
    ----------
    omega_L : float
        Larmor angular frequency (rad/s).
    rabi : float
        Total probe Rabi magnitude Omega (rad/s).
    theta : float
        Probe polarization angle from the B-field axis (radians).
    delta : float
        Detuning of the model's single optical pole (rad/s).
    gamma0 : float
        Excited-state population decay rate (rad/s).
    gamma_opt : float
        Decay rate of the model's single optical pole (rad/s).  Taken as
        given here; ``ExperimentConfig.system_params`` derives ``delta`` and
        ``gamma_opt`` from the lab detuning and the Doppler width through
        :func:`doppler_pole`, so that the pole reproduces the
        Doppler-averaged optical response at the probe detuning.
    gamma_t : float
        Transit rate of atoms through the beam (rad/s).
    gamma_R : float
        Ground-state (Raman/Zeeman) coherence decay rate (rad/s).
    n_atoms : float
        Mean number of atoms in the probed volume (dimensionless).
    kappa : float
        Signal scale (arbitrary units): the coherence-to-radiated-field
        coupling times the mean-field amplitude the fluctuation beats with.
    """

    omega_L: float
    rabi: float
    theta: float
    delta: float
    gamma0: float
    gamma_opt: float
    gamma_t: float
    gamma_R: float
    n_atoms: float
    kappa: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise DomainError(f"{f.name} must be finite, got {value}")
        for name in ("omega_L", "rabi", "gamma0", "gamma_opt", "gamma_t", "gamma_R", "kappa"):
            value = getattr(self, name)
            if value < 0:
                raise DomainError(f"{name} must be >= 0, got {value}")
        if self.n_atoms <= 0:
            raise DomainError(f"n_atoms must be > 0, got {self.n_atoms}")

    @classmethod
    def from_lab_units(
        cls,
        b_gauss: float = 1.0,
        rabi_hz: float = 40e6,
        theta_deg: float = 0.0,
        delta_hz: float = 1.5e9,
        gamma0_hz: float = 1.6e6,
        gamma_opt_hz: float = 0.8e9,
        gamma_t_hz: float = 30e3,
        gamma_r_hz: float = 30e3,
        n_atoms: float = 3.4e9,
        kappa: float = 1.0,
    ) -> "SystemParams":
        """Build params from bench-style units (gauss, Hz, degrees).

        ``delta_hz`` and ``gamma_opt_hz`` are the optical pole itself, a
        homogeneous line; see :func:`doppler_pole` for a Doppler-broadened one.
        """
        twopi = 2.0 * np.pi
        return cls(
            omega_L=larmor_from_field(b_gauss),
            rabi=twopi * rabi_hz,
            theta=np.deg2rad(theta_deg),
            delta=twopi * delta_hz,
            gamma0=twopi * gamma0_hz,
            gamma_opt=twopi * gamma_opt_hz,
            gamma_t=twopi * gamma_t_hz,
            gamma_R=twopi * gamma_r_hz,
            n_atoms=n_atoms,
            kappa=kappa,
        )

    def couplings(self) -> CircularCouplings:
        return decompose_polarization(self.rabi, self.theta)

    def rate_scale(self) -> float:
        """Largest angular frequency in the problem; used to nondimensionalize."""
        return max(*(abs(getattr(self, name)) for name in RATE_FIELDS), 1.0)


def equilibrium_rho() -> np.ndarray:
    """Isotropic ground-state mixture: the no-light, transit-relaxed state."""
    return np.diag([1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0, 0.0]).astype(complex)


def hermitize(m: np.ndarray) -> np.ndarray:
    """Hermitian part (m + m^dagger)/2; supports a leading batch axis."""
    return 0.5 * (m + np.conj(np.swapaxes(m, -1, -2)))


def require_hermitian(rho: np.ndarray, tol: float = 1e-9, what: str = "rho") -> None:
    """Raise ContractViolationError unless rho is Hermitian within tol."""
    rho = np.asarray(rho)
    scale = max(1.0, float(np.max(np.abs(rho)))) if rho.size else 1.0
    dev = float(np.max(np.abs(rho - np.conj(rho.T))))
    if dev > tol * scale:
        raise ContractViolationError(
            f"{what} must be Hermitian: max asymmetry {dev:.3e} exceeds tolerance"
        )


def build_hamiltonian(params: SystemParams) -> np.ndarray:
    """Hamiltonian of the driven, magnetized four-level system (rad/s).

    The ground 3x3 block is omega_L * Jx.  The probe couples |-1> to |e>
    through omega_plus and |+1> to |e> through -omega_minus, each reduced
    by the 1/sqrt(3) transition amplitude of the J=1 -> J=0 line, and the
    excited level carries the detuning on the diagonal.
    """
    c = params.couplings()
    h = np.zeros((DIM, DIM), dtype=complex)
    wl = params.omega_L / SQRT2
    h[0, 1] = h[1, 0] = h[1, 2] = h[2, 1] = wl
    h[0, 3] = np.conj(c.omega_plus) / SQRT3
    h[3, 0] = c.omega_plus / SQRT3
    h[2, 3] = -np.conj(c.omega_minus) / SQRT3
    h[3, 2] = -c.omega_minus / SQRT3
    h[3, 3] = params.delta
    return h


def _dissipator_unchecked(rho: np.ndarray, params: SystemParams) -> np.ndarray:
    out = np.empty_like(rho, dtype=complex)
    g0, gt = params.gamma0, params.gamma_t
    ree = rho[3, 3]
    # Populations: closed decay branches equally into the three ground
    # sublevels; transit pulls the ground populations toward 1/3 each.
    for j in range(N_GROUND):
        out[j, j] = (g0 / 3.0) * ree - gt * (rho[j, j] - 1.0 / 3.0)
    out[3, 3] = -(g0 + gt) * ree
    # Optical coherences decay at the rate of the single optical pole.
    out[:3, 3] = -params.gamma_opt * rho[:3, 3]
    out[3, :3] = -params.gamma_opt * rho[3, :3]
    # Ground Zeeman coherences decay at the Raman rate.
    for i in range(N_GROUND):
        for j in range(N_GROUND):
            if i != j:
                out[i, j] = -params.gamma_R * rho[i, j]
    return out


def apply_dissipator(rho: np.ndarray, params: SystemParams) -> np.ndarray:
    """Relaxation superoperator D(rho), entrywise (rad/s).

    Satisfies Tr D(rho) = -gamma_t (Tr rho - 1): transit is the only
    channel that exchanges atoms with the reservoir.
    """
    rho = np.asarray(rho, dtype=complex)
    require_hermitian(rho)
    return _dissipator_unchecked(rho, params)


def _rhs_unchecked(rho: np.ndarray, h: np.ndarray, params: SystemParams) -> np.ndarray:
    comm = h @ rho - rho @ h
    return -1j * comm + _dissipator_unchecked(rho, params)


def liouville_rhs(rho: np.ndarray, params: SystemParams) -> np.ndarray:
    """Deterministic time derivative -i[H, rho] + D(rho).

    The stochastic term is added separately by the integrator, so this is
    the drift alone.  Output is Hermitian for Hermitian input.
    """
    rho = np.asarray(rho, dtype=complex)
    require_hermitian(rho)
    return _rhs_unchecked(rho, build_hamiltonian(params), params)
