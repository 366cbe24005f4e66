import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import given, settings, strategies as st

from spinnoise.core import (
    SPIN1_JX,
    JX_EIGENVECTORS,
    SystemParams,
    _dissipator_unchecked,
    _rhs_unchecked,
    apply_dissipator,
    build_hamiltonian,
    decompose_polarization,
    doppler_pole,
    equilibrium_rho,
    faddeeva,
    larmor_from_field,
    liouville_rhs,
)
from spinnoise.config import load_config
from spinnoise.exceptions import ContractViolationError, DomainError
from spinnoise.integrator import VEC_DIM, from_real, superoperator, to_real

TWOPI = 2.0 * np.pi
MAGIC_ANGLE = np.arctan(np.sqrt(2.0))  # 54.7356 deg


def params(**kw):
    return SystemParams.from_lab_units(**kw)


def random_hermitian(rng, dim=4):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (m + np.conj(m.T))


class TestLarmor:
    def test_one_gauss(self):
        assert larmor_from_field(1.0) == pytest.approx(TWOPI * 2.8e6, rel=1e-12)

    def test_zero_field(self):
        assert larmor_from_field(0.0) == 0.0

    def test_linear_scaling(self):
        assert larmor_from_field(2.5) == pytest.approx(TWOPI * 7.0e6, rel=1e-12)

    def test_negative_field_rejected(self):
        with pytest.raises(DomainError):
            larmor_from_field(-0.1)


class TestDecomposePolarization:
    def test_aligned_with_field(self):
        c = decompose_polarization(1.0, 0.0)
        # Both circular couplings carry the same folded transition sign.
        assert c.omega_plus == pytest.approx(-1.0 / np.sqrt(2))
        assert c.omega_minus == pytest.approx(-1.0 / np.sqrt(2))

    def test_no_light(self):
        c = decompose_polarization(0.0, 1.2345)
        assert c.omega_plus == 0.0 and c.omega_minus == 0.0

    def test_perpendicular(self):
        c = decompose_polarization(1.0, np.pi / 2)
        assert c.omega_plus == pytest.approx(1j / np.sqrt(2))
        assert c.omega_minus == pytest.approx(-1j / np.sqrt(2))

    def test_negative_rabi_rejected(self):
        with pytest.raises(DomainError):
            decompose_polarization(-1.0, 0.0)

    @given(
        rabi=st.floats(0.0, 1e10),
        theta=st.floats(-10.0, 10.0, allow_nan=False),
    )
    @settings(deadline=None, max_examples=200)
    def test_total_coupling_preserved(self, rabi, theta):
        c = decompose_polarization(rabi, theta)
        total = abs(c.omega_plus) ** 2 + abs(c.omega_minus) ** 2
        assert total == pytest.approx(rabi**2, rel=1e-12, abs=1e-30)

    def test_half_turn_is_global_sign(self):
        c0 = decompose_polarization(2.0, 0.7)
        c1 = decompose_polarization(2.0, 0.7 + np.pi)
        assert c1.omega_plus == pytest.approx(-c0.omega_plus, rel=1e-12)
        assert c1.omega_minus == pytest.approx(-c0.omega_minus, rel=1e-12)

    def test_magic_angle_balances_all_transitions(self):
        # At arctan(sqrt 2) the three field-quantized sublevels couple to the
        # excited state with equal strength; at 0 only the m_x=0 state does.
        def rates(theta_deg):
            h = build_hamiltonian(params(theta_deg=theta_deg, b_gauss=0.0))
            row = h[3, :3]
            return np.abs(row @ JX_EIGENVECTORS) ** 2

        balanced = rates(np.rad2deg(MAGIC_ANGLE))
        assert balanced == pytest.approx(np.full(3, balanced.mean()), rel=1e-10)
        aligned = rates(0.0)
        assert aligned[1] > 0  # m_x = 0 column of JX_EIGENVECTORS
        assert aligned[0] == pytest.approx(0.0, abs=1e-20)
        assert aligned[2] == pytest.approx(0.0, abs=1e-20)


class TestHamiltonian:
    def test_all_couplings_off(self):
        p = params(b_gauss=0.0, rabi_hz=0.0, delta_hz=2.0e9)
        h = build_hamiltonian(p)
        assert np.allclose(h, np.diag([0, 0, 0, p.delta]))

    def test_ground_block_is_larmor_jx(self):
        p = params(b_gauss=1.0, rabi_hz=0.0)
        h = build_hamiltonian(p)
        assert np.allclose(h[:3, :3], p.omega_L * SPIN1_JX, atol=1e-9)
        eigs = np.sort(np.linalg.eigvalsh(h[:3, :3]))
        assert eigs == pytest.approx([-p.omega_L, 0.0, p.omega_L], abs=1e-6)

    def test_probe_coupling_entries(self):
        p = params(b_gauss=0.0, rabi_hz=40e6, theta_deg=0.0)
        h = build_hamiltonian(p)
        c = p.couplings()
        assert h[3, 0] == pytest.approx(c.omega_plus / np.sqrt(3))
        assert h[0, 3] == pytest.approx(np.conj(c.omega_plus) / np.sqrt(3))
        assert h[3, 2] == pytest.approx(-c.omega_minus / np.sqrt(3))

    @given(
        b=st.floats(0.0, 10.0),
        rabi=st.floats(0.0, 100e6),
        theta=st.floats(-7.0, 7.0),
        delta=st.floats(-3e9, 3e9),
    )
    @settings(deadline=None, max_examples=100)
    def test_always_hermitian(self, b, rabi, theta, delta):
        h = build_hamiltonian(
            params(b_gauss=b, rabi_hz=rabi, theta_deg=np.rad2deg(theta), delta_hz=delta)
        )
        assert np.allclose(h, np.conj(h.T), atol=1e-6)


class TestDissipator:
    def test_equilibrium_is_fixed_point(self):
        out = apply_dissipator(equilibrium_rho(), params())
        assert np.allclose(out, 0.0, atol=1e-20)

    def test_excited_population_decay(self):
        p = params()
        rho = np.diag([0.0, 0.0, 0.0, 1.0]).astype(complex)
        out = apply_dissipator(rho, p)
        expected = [p.gamma0 / 3 + p.gamma_t / 3] * 3 + [-(p.gamma0 + p.gamma_t)]
        assert np.real(np.diag(out)) == pytest.approx(expected, rel=1e-12)
        assert np.allclose(out - np.diag(np.diag(out)), 0.0)

    def test_ground_coherence_decay(self):
        p = params()
        rho = equilibrium_rho()
        rho[0, 1] = 0.01 + 0.02j
        rho[1, 0] = np.conj(rho[0, 1])
        out = apply_dissipator(rho, p)
        assert out[0, 1] == pytest.approx(-p.gamma_R * rho[0, 1], rel=1e-12)

    def test_optical_coherence_decay(self):
        p = params()
        rho = equilibrium_rho()
        rho[0, 3] = 1e-3j
        rho[3, 0] = np.conj(rho[0, 3])
        out = apply_dissipator(rho, p)
        assert out[0, 3] == pytest.approx(-p.gamma_opt * rho[0, 3], rel=1e-12)

    def test_non_hermitian_rejected(self):
        rho = equilibrium_rho()
        rho[0, 1] = 1.0  # no conjugate partner
        with pytest.raises(ContractViolationError):
            apply_dissipator(rho, params())

    def test_trace_identity(self):
        # Tr D(rho) = -gamma_t (Tr rho - 1) for arbitrary Hermitian rho.
        rng = np.random.default_rng(7)
        p = params()
        for _ in range(50):
            rho = random_hermitian(rng)
            out = apply_dissipator(rho, p)
            assert np.trace(out).real == pytest.approx(
                -p.gamma_t * (np.trace(rho).real - 1.0), rel=1e-9, abs=1e-9
            )
            assert abs(np.trace(out).imag) < 1e-9

    def test_stack_is_each_matrix(self):
        rng = np.random.default_rng(8)
        p = params(theta_deg=40.0)
        stack = np.array([random_hermitian(rng) for _ in range(17)])
        expected = np.array([apply_dissipator(rho, p) for rho in stack])
        assert np.array_equal(_dissipator_unchecked(stack, p), expected)
        assert np.array_equal(
            _dissipator_unchecked(stack.reshape(17, 1, 4, 4), p), expected.reshape(17, 1, 4, 4)
        )


class TestSuperoperatorProbes:
    @pytest.mark.parametrize("preset", ["fig3_end", "fig6_end"], ids=["far", "near"])
    def test_stacked_probes_are_each_probe(self, preset):
        # superoperator evaluates the right-hand side once on all 17 probes;
        # that stack gives the bits of 17 separate evaluations.
        p = load_config(preset=preset).system_params(30.0)
        h = build_hamiltonian(p)
        probes = from_real(np.eye(VEC_DIM + 1, VEC_DIM, -1))
        rates = np.stack([to_real(_rhs_unchecked(rho, h, p)) for rho in probes])
        g, c = superoperator(p)
        assert np.array_equal(g, (rates[1:] - rates[0]).T)
        assert np.array_equal(c, rates[0])


class TestLiouvilleRhs:
    def test_stationary_equilibrium(self):
        p = params(rabi_hz=0.0)
        out = liouville_rhs(equilibrium_rho(), p)
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_larmor_commutator_entry(self):
        p = params(
            b_gauss=1.0, rabi_hz=0.0, gamma0_hz=0.0, gamma_t_hz=0.0, gamma_r_hz=0.0
        )
        rho = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        out = liouville_rhs(rho, p)
        expected = -1j * (p.omega_L / np.sqrt(2)) * (rho[1, 1] - rho[0, 0])
        assert out[0, 1] == pytest.approx(expected, rel=1e-12)

    def test_hermitian_output(self):
        rng = np.random.default_rng(11)
        p = params(theta_deg=33.0)
        for _ in range(100):
            out = liouville_rhs(random_hermitian(rng), p)
            assert np.allclose(out, np.conj(out.T), atol=1e-6)

    def test_trace_identity(self):
        rng = np.random.default_rng(13)
        p = params()
        rho = random_hermitian(rng)
        out = liouville_rhs(rho, p)
        assert np.trace(out).real == pytest.approx(
            -p.gamma_t * (np.trace(rho).real - 1.0), rel=1e-9, abs=1e-9
        )


class TestSystemParams:
    def test_negative_rate_rejected(self):
        with pytest.raises(DomainError):
            SystemParams(
                omega_L=1.0, rabi=1.0, theta=0.0, delta=0.0, gamma0=-1.0,
                gamma_opt=1.0, gamma_t=1.0, gamma_R=1.0, n_atoms=1.0,
            )

    def test_nonpositive_atom_number_rejected(self):
        with pytest.raises(DomainError):
            params(n_atoms=0.0)

    @pytest.mark.parametrize(
        "name",
        ["omega_L", "rabi", "theta", "delta", "gamma0", "gamma_opt", "gamma_t", "gamma_R",
         "n_atoms", "kappa"],
    )
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_refused_by_name(self, name, value):
        fields = dict(
            omega_L=1.0, rabi=1.0, theta=0.0, delta=0.0, gamma0=1.0,
            gamma_opt=1.0, gamma_t=1.0, gamma_R=1.0, n_atoms=1.0, kappa=1.0,
        )
        fields[name] = value
        with pytest.raises(DomainError, match=f"^{name} must be finite"):
            SystemParams(**fields)

    def test_non_finite_lab_units_refused(self):
        with pytest.raises(DomainError, match="^omega_L must be finite, got nan"):
            params(b_gauss=np.nan)
        with pytest.raises(DomainError, match="^theta must be finite"):
            params(theta_deg=np.inf)
        with pytest.raises(DomainError, match="^delta must be finite"):
            params(delta_hz=-np.inf)

    def test_lab_unit_conversion(self):
        p = params(b_gauss=0.5, rabi_hz=30e6, theta_deg=90.0, delta_hz=0.3e9)
        assert p.omega_L == pytest.approx(TWOPI * 1.4e6)
        assert p.rabi == pytest.approx(TWOPI * 30e6)
        assert p.theta == pytest.approx(np.pi / 2)
        assert p.delta == pytest.approx(TWOPI * 0.3e9)


def gaussian_average_pole(delta, doppler_hwhm, gamma_h):
    """1 / <1/(delta - x - i gamma_h)> by direct quadrature over x ~ N(0, sigma^2).

    The integration range is split around the narrow homogeneous resonance at
    x = delta so that adaptive quadrature resolves it.
    """
    sigma = doppler_hwhm / np.sqrt(2.0 * np.log(2.0))

    def density(x):
        return np.exp(-0.5 * (x / sigma) ** 2) / (np.sqrt(2.0 * np.pi) * sigma)

    edges = sorted(
        [-12.0 * sigma, 12.0 * sigma]
        + [delta + s * gamma_h for s in (-1e3, -30.0, -1.0, 0.0, 1.0, 30.0, 1e3)]
    )
    total = 0j
    for a, b in zip(edges[:-1], edges[1:]):
        for part, unit in ((np.real, 1.0), (np.imag, 1j)):
            value, _ = scipy.integrate.quad(
                lambda x: part(density(x) / (delta - x - 1j * gamma_h)),
                a, b, limit=200, epsabs=0.0, epsrel=1e-11,
            )
            total += unit * value
    pole = 1.0 / total
    return pole.real, -pole.imag


class TestDopplerPole:
    @pytest.mark.parametrize("delta_hz", [0.3e9, 1.5e9])
    def test_matches_gaussian_quadrature(self, delta_hz):
        got = doppler_pole(delta_hz, 0.8e9, 0.8e6)
        want = gaussian_average_pole(delta_hz, 0.8e9, 0.8e6)
        assert got == pytest.approx(want, rel=1e-9)

    def test_odd_in_delta(self):
        for delta_hz in (0.0, 0.3e9, 1.5e9, 4e9):
            d_pos, g_pos = doppler_pole(delta_hz, 0.8e9, 0.8e6)
            d_neg, g_neg = doppler_pole(-delta_hz, 0.8e9, 0.8e6)
            assert d_neg == pytest.approx(-d_pos, rel=1e-12, abs=1e-3)
            assert g_neg == pytest.approx(g_pos, rel=1e-12)

    def test_zero_doppler_width_is_homogeneous(self):
        assert doppler_pole(1.5e9, 0.0, 0.8e6) == (1.5e9, 0.8e6)
        assert doppler_pole(1.5e9, 1e3, 0.8e6) == pytest.approx((1.5e9, 0.8e6), rel=1e-6)
        p = load_config(overrides=["gamma_opt_hz=0", "gamma0_hz=1.6e6"]).system_params()
        assert p.delta == pytest.approx(TWOPI * 1.5e9, rel=1e-12)
        assert p.gamma_opt == pytest.approx(TWOPI * 0.8e6, rel=1e-12)

    def test_negative_width_rejected(self):
        with pytest.raises(DomainError):
            doppler_pole(1.5e9, -1.0, 0.8e6)
        with pytest.raises(DomainError):
            doppler_pole(1.5e9, 0.8e9, -1.0)


def wofz_pole(delta, doppler_hwhm, gamma_h):
    """doppler_pole's formula evaluated with scipy's Faddeeva function."""
    scale = doppler_hwhm / np.sqrt(np.log(2.0))
    mean = 1j * np.sqrt(np.pi) * np.conj(scipy.special.wofz((delta + 1j * gamma_h) / scale)) / scale
    return (1.0 / mean).real, -(1.0 / mean).imag


class TestFaddeeva:
    def test_matches_scipy_wofz(self):
        re = np.concatenate([-np.logspace(-8, 6, 300), np.logspace(-8, 6, 300)])
        im = np.concatenate([[0.0], np.logspace(-12, 6, 19)])
        z = re[:, None] + 1j * im[None, :]
        want = scipy.special.wofz(z)
        assert np.max(np.abs(faddeeva(z) - want) / np.abs(want)) <= 1e-13

    def test_real_part_keeps_its_relative_accuracy_near_the_axis(self):
        # There Re w is exp(-x^2) plus a term in Im z, far below |w|.
        x = np.concatenate([-np.logspace(np.log10(2.0), 6, 400), np.linspace(2.0, 12.0, 2001)])
        for y in (0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.049, 0.051, 0.5):
            want = scipy.special.wofz(x + 1j * y).real
            got = faddeeva(x + 1j * y).real
            nonzero = want != 0.0
            assert np.array_equal(got[~nonzero], want[~nonzero]), y
            assert np.max(np.abs(got - want)[nonzero] / np.abs(want[nonzero])) <= 1e-12, y

    def test_keeps_the_shape(self):
        assert faddeeva(1.0 + 1j).shape == ()
        assert faddeeva(np.ones((2, 3))).shape == (2, 3)

    def test_lower_half_plane_rejected(self):
        with pytest.raises(DomainError):
            faddeeva(1.0 - 1e-3j)

    def test_doppler_pole_matches_scipy_wofz(self):
        for delta in np.concatenate([-np.linspace(1e6, 50e9, 101), np.linspace(1e6, 50e9, 101)]):
            for hwhm in (0.3e9, 0.8e9, 1.5e9, 2e9):
                for gamma_h in (0.0, 1.0, 1e3, 1e5, 0.8e6, 1e7):
                    got = doppler_pole(delta, hwhm, gamma_h)
                    want = wofz_pole(delta, hwhm, gamma_h)
                    assert got == pytest.approx(want, rel=1e-11, abs=0.0), (delta, hwhm, gamma_h)
