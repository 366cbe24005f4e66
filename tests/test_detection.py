import logging

import numpy as np
import pytest
import scipy.constants
from hypothesis import given, settings, strategies as st

from spinnoise import detection
from spinnoise.core import SystemParams, equilibrium_rho
from spinnoise.detection import (
    DetectorParams,
    FieldSample,
    end_signal,
    field_from_coherences,
    fields_from_coherence_series,
    readout_matrix,
    rnd_signal,
    shot_noise_floor,
    transmission,
)
from spinnoise.exceptions import ContractViolationError, DomainError
from spinnoise.integrator import steady_state
from spinnoise.scan import perpendicular_field_series


def params(**kw):
    return SystemParams.from_lab_units(**kw)


def rho_with_coherences(c_minus1, c_plus1):
    rho = equilibrium_rho()
    rho[3, 0], rho[0, 3] = c_minus1, np.conj(c_minus1)
    rho[3, 2], rho[2, 3] = c_plus1, np.conj(c_plus1)
    return rho


class TestFieldMapping:
    def test_no_coherence_no_field(self):
        fs = field_from_coherences(equilibrium_rho(), params())
        assert fs.e_plus == 0 and fs.e_minus == 0
        assert fs.e_par == 0 and fs.e_perp == 0

    def test_kappa_linearity(self):
        rho = rho_with_coherences(1e-3 + 2e-3j, -3e-3j)
        one = field_from_coherences(rho, params(kappa=1.0, theta_deg=20.0))
        two = field_from_coherences(rho, params(kappa=2.0, theta_deg=20.0))
        for name in ("e_plus", "e_minus", "e_par", "e_perp"):
            assert getattr(two, name) == pytest.approx(2 * getattr(one, name))

    def test_circular_amplitudes(self):
        p = params(kappa=3.0)
        fs = field_from_coherences(rho_with_coherences(2e-3, 1e-3j), p)
        assert fs.e_plus == pytest.approx(1j * 3.0 * 2e-3 / np.sqrt(3))
        assert fs.e_minus == pytest.approx(1j * 3.0 * 1e-3j / np.sqrt(3))

    @given(
        re1=st.floats(-1, 1), im1=st.floats(-1, 1),
        re2=st.floats(-1, 1), im2=st.floats(-1, 1),
        theta=st.floats(-7, 7),
    )
    @settings(deadline=None, max_examples=150)
    def test_projection_is_norm_preserving(self, re1, im1, re2, im2, theta):
        p = params(theta_deg=np.rad2deg(theta))
        fs = field_from_coherences(
            rho_with_coherences(re1 + 1j * im1, re2 + 1j * im2), p
        )
        lhs = abs(fs.e_par) ** 2 + abs(fs.e_perp) ** 2
        rhs = abs(fs.e_plus) ** 2 + abs(fs.e_minus) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-18)

    def test_non_hermitian_rejected(self):
        rho = equilibrium_rho()
        rho[3, 0] = 0.1
        with pytest.raises(ContractViolationError):
            field_from_coherences(rho, params())

    def test_series_and_scalar_paths_agree(self):
        p = params(theta_deg=35.0)
        rng = np.random.default_rng(2)
        c = rng.normal(size=(40, 2)) + 1j * rng.normal(size=(40, 2))
        series = fields_from_coherence_series(c[:, 0], c[:, 1], p)
        fs0 = field_from_coherences(rho_with_coherences(c[0, 0], c[0, 1]), p)
        assert fs0.e_perp == pytest.approx(series.e_perp[0])

    def test_steady_state_perpendicular_dc_vanishes_on_axis(self):
        # At theta=0 the pumped medium keeps x/y symmetry axes, so the mean
        # transmitted fluctuation has no perpendicular component.
        p = params(b_gauss=1.0, rabi_hz=40e6, theta_deg=0.0, delta_hz=1.5e9)
        fs = field_from_coherences(steady_state(p), p)
        assert abs(fs.e_perp) < 1e-10 * abs(fs.e_par)


class TestBalancedSignals:
    def test_rotation_channel_reads_real_part(self):
        fs = FieldSample(e_plus=0, e_minus=0, e_par=0, e_perp=0.5)
        assert rnd_signal(fs) == pytest.approx(1.0)

    def test_rotation_channel_blind_to_quadrature(self):
        fs = FieldSample(e_plus=0, e_minus=0, e_par=0, e_perp=0.5j)
        assert rnd_signal(fs) == 0.0
        assert end_signal(fs) == pytest.approx(1.0)

    def test_parallel_component_invisible(self):
        fs = FieldSample(e_plus=0, e_minus=0, e_par=1.0 + 2.0j, e_perp=0.0)
        assert rnd_signal(fs) == 0.0
        assert end_signal(fs) == 0.0

    def test_quadrature_power_identity(self):
        rng = np.random.default_rng(0)
        e_perp = rng.normal(size=8) + 1j * rng.normal(size=8)
        fs = FieldSample(e_plus=0, e_minus=0, e_par=0, e_perp=e_perp)
        lhs = rnd_signal(fs) ** 2 + end_signal(fs) ** 2
        assert np.allclose(lhs, 4 * np.abs(e_perp) ** 2)


class TestReadoutMatrix:
    @pytest.mark.parametrize("theta_deg", [0.0, 35.0, 90.0, 200.0])
    def test_matches_the_field_definition(self, theta_deg):
        p = params(theta_deg=theta_deg, kappa=2.5)
        rng = np.random.default_rng(5)
        c = rng.normal(size=(60, 2)) + 1j * rng.normal(size=(60, 2))
        g = readout_matrix(p)
        assert g.shape == (4, 2) and g.dtype == float
        signals = c.view(float) @ g
        fs = fields_from_coherence_series(c[:, 0], c[:, 1], p)
        # Samples near zero come from cancelling terms, so their rounding
        # is measured on the scale of the series.
        for column, expected in enumerate((rnd_signal(fs), end_signal(fs))):
            scale = np.abs(expected).max()
            assert np.allclose(signals[:, column], expected, rtol=1e-14, atol=1e-14 * scale)

    def test_readout_bits_do_not_depend_on_layout(self):
        # Two points of three trajectories, read out together, against one
        # trajectory of one point alone: the same bits.
        rng = np.random.default_rng(4)
        coords = rng.normal(size=(45, 6, 4))
        readouts = np.stack([
            readout_matrix(params(theta_deg=theta, kappa=2.5)) for theta in (35.0, 200.0)
        ])
        block = perpendicular_field_series(coords, readouts, np.empty((45, 12)))
        for p in range(2):
            for t in range(3):
                alone = perpendicular_field_series(
                    coords[:, 3 * p + t : 3 * p + t + 1], readouts[p : p + 1], np.empty((45, 2))
                )
                for m in range(2):
                    assert np.array_equal(alone[:, m], block[:, (2 * p + m) * 3 + t])


class TestTransmission:
    detector = DetectorParams(input_power=1e-3)

    def test_no_light_full_transmission(self):
        assert transmission(params(rabi_hz=0.0), self.detector) == pytest.approx(1.0, abs=1e-9)

    def test_absorption_grows_with_power(self):
        absorptions = [
            1.0 - transmission(params(rabi_hz=r, theta_deg=54.7, delta_hz=0.3e9), self.detector)
            for r in (0.0, 5e6, 10e6, 20e6, 30e6)
        ]
        assert absorptions[0] == pytest.approx(0.0, abs=1e-9)
        assert all(b > a for a, b in zip(absorptions, absorptions[1:]))

    def test_far_detuning_absorbs_less(self):
        for theta in (0.0, 30.0, 54.7, 90.0):
            near = 1.0 - transmission(
                params(rabi_hz=30e6, theta_deg=theta, delta_hz=0.3e9), self.detector
            )
            far = 1.0 - transmission(
                params(rabi_hz=30e6, theta_deg=theta, delta_hz=1.5e9), self.detector
            )
            assert far < near

    def test_clamp_is_logged(self, caplog):
        # Absurd atom number forces absorbed fraction beyond 1.
        p = params(rabi_hz=30e6, theta_deg=54.7, delta_hz=0.3e9, n_atoms=1e14)
        with caplog.at_level(logging.WARNING, logger="spinnoise.detection"):
            t = transmission(p, self.detector)
        assert t == 0.0
        assert any("clamped" in rec.message for rec in caplog.records)


class TestConstants:
    def test_same_bits_as_scipy_constants(self):
        assert detection.PLANCK_J_S == scipy.constants.h
        assert detection.SPEED_OF_LIGHT_M_PER_S == scipy.constants.c
        assert detection.ELEMENTARY_CHARGE_C == scipy.constants.elementary_charge
        assert detection.PHOTON_ENERGY_J == (
            scipy.constants.h * scipy.constants.c / detection.PROBE_WAVELENGTH_M
        )


class TestShotNoiseFloor:
    def test_reference_value(self):
        # 2 q S P G^2 with S=0.7 A/W, P=1 mW, G=5e3 V/A, worked out by hand.
        det = DetectorParams(responsivity=0.7, transimpedance=5e3, input_power=1e-3)
        assert shot_noise_floor(det, 1.0) == pytest.approx(5.6076e-15, rel=1e-4)

    def test_dark_means_silent(self):
        det = DetectorParams()
        assert shot_noise_floor(det, 0.0) == 0.0

    def test_linear_in_transmission(self):
        det = DetectorParams()
        full = shot_noise_floor(det, 1.0)
        for t in (0.25, 0.5, 0.75):
            assert shot_noise_floor(det, t) == pytest.approx(t * full, rel=1e-12)

    def test_transmission_domain(self):
        with pytest.raises(DomainError):
            shot_noise_floor(DetectorParams(), 1.5)

    def test_detector_validation(self):
        with pytest.raises(DomainError):
            DetectorParams(responsivity=0.0)
