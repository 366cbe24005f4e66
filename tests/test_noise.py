import numpy as np
import pytest

from spinnoise.exceptions import DomainError
from spinnoise.noise import (
    OFFDIAG_PAIRS,
    increment_matrix,
    noise_stats,
    sample_increment,
    sample_increment_block,
)

TWOPI = 2.0 * np.pi


class TestNoiseStats:
    def test_reference_value(self):
        # 2 * (2 pi 30 kHz) * 55.6 ns / (3 * 1e8), evaluated by hand.
        stats = noise_stats(TWOPI * 30e3, 55.6e-9, 1e8)
        assert stats.sigma_sq == pytest.approx(6.987e-11, rel=1e-3)

    def test_offdiag_ratio(self):
        for gamma_t, dt, n in [(1.0, 1e-9, 1e3), (TWOPI * 30e3, 1 / 18e6, 3.4e9)]:
            stats = noise_stats(gamma_t, dt, n)
            assert stats.offdiag_var / stats.sigma_sq == pytest.approx(0.75)

    def test_vanishing_transit(self):
        assert noise_stats(0.0, 1e-8, 1e9).sigma_sq == 0.0

    @pytest.mark.parametrize(
        "gamma_t,dt,n_atoms",
        [(-1.0, 1e-8, 1e9), (1.0, 0.0, 1e9), (1.0, 1e-8, 0.0), (1.0, -1e-8, 1e9)],
    )
    def test_domain_errors(self, gamma_t, dt, n_atoms):
        with pytest.raises(DomainError):
            noise_stats(gamma_t, dt, n_atoms)


class TestSampleIncrement:
    def test_zero_variance_gives_zero_matrix(self):
        stats = noise_stats(0.0, 1e-8, 1e9)
        inc = sample_increment(stats, np.random.default_rng(0))
        assert np.all(inc.entries == 0.0)

    def test_structure(self):
        stats = noise_stats(TWOPI * 30e3, 1 / 18e6, 1e6)
        rng = np.random.default_rng(42)
        for _ in range(20):
            m = sample_increment(stats, rng).entries
            assert np.array_equal(m, np.conj(m.T))  # Hermitian exactly
            assert np.all(m[3, :] == 0.0) and np.all(m[:, 3] == 0.0)
            assert np.all(np.imag(np.diag(m)) == 0.0)

    def test_seed_reproducibility(self):
        stats = noise_stats(TWOPI * 30e3, 1 / 18e6, 1e6)
        a = sample_increment(stats, np.random.default_rng(123)).entries
        b = sample_increment(stats, np.random.default_rng(123)).entries
        assert np.array_equal(a, b)

    def test_single_matches_block_head(self):
        stats = noise_stats(TWOPI * 30e3, 1 / 18e6, 1e6)
        single = sample_increment(stats, np.random.default_rng(5)).entries
        block = sample_increment_block(stats, np.random.default_rng(5), 1)
        diag, off = block[:, 0:3], block[:, 3:6] + 1j * block[:, 6:9]
        assert np.array_equal(single, increment_matrix(diag[0], off[0]))

    def test_block_equals_complex_scaling(self):
        # The block is the real and imaginary parts of sqrt(v) * (a + ib),
        # bit for bit.
        stats = noise_stats(TWOPI * 30e3, 1 / 18e6, 1e6)
        block = sample_increment_block(stats, np.random.default_rng(8), 1000)
        draws = np.random.default_rng(8).standard_normal((1000, 9))
        diag = draws[:, 0:3] * np.sqrt(stats.sigma_sq)
        off = np.sqrt(stats.offdiag_var) * (draws[:, 3:6] + 1j * draws[:, 6:9])
        assert np.array_equal(block, np.hstack([diag, off.real, off.imag]))

    def test_block_drawn_into_out(self):
        stats = noise_stats(TWOPI * 30e3, 1 / 18e6, 1e6)
        rng_a, rng_b = np.random.default_rng(12), np.random.default_rng(12)
        allocated = sample_increment_block(stats, rng_a, 300)
        buf = np.full((300, 9), np.nan)
        assert sample_increment_block(stats, rng_b, 300, out=buf) is buf
        assert np.array_equal(buf, allocated)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
        with pytest.raises(DomainError, match="shape"):
            sample_increment_block(stats, rng_b, 299, out=buf)

    def test_zero_variance_block_into_out(self):
        stats = noise_stats(0.0, 1e-8, 1e9)
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        buf = np.ones((4, 9))
        assert sample_increment_block(stats, rng, 4, out=buf) is buf
        assert np.all(buf == 0.0)
        assert rng.bit_generator.state == before

    def test_quick_statistics(self):
        stats = noise_stats(TWOPI * 30e3, 1 / 18e6, 1e6)
        n = 200_000
        block = sample_increment_block(stats, np.random.default_rng(99), n)
        diag, off = block[:, 0:3], block[:, 3:6] + 1j * block[:, 6:9]
        se_mean = np.sqrt(stats.sigma_sq / n)
        assert np.all(np.abs(diag.mean(axis=0)) < 4 * se_mean)
        assert diag.var(axis=0) == pytest.approx(
            np.full(3, stats.sigma_sq), rel=0.02
        )
        assert off.real.var(axis=0) == pytest.approx(
            np.full(3, stats.offdiag_var), rel=0.02
        )
        assert off.imag.var(axis=0) == pytest.approx(
            np.full(3, stats.offdiag_var), rel=0.02
        )
        # one representative cross-correlation
        cov = np.mean(diag[:, 0] * off[:, 1].real)
        assert abs(cov) < 4 * np.sqrt(stats.sigma_sq * stats.offdiag_var / n)

    def test_pair_layout(self):
        diag = np.array([1.0, 2.0, 3.0])
        off = np.array([1 + 2j, 3 + 4j, 5 + 6j])
        m = increment_matrix(diag, off)
        for col, (i, j) in enumerate(OFFDIAG_PAIRS):
            assert m[j, i] == off[col]
            assert m[i, j] == np.conj(off[col])
        assert np.all(np.diag(m)[:3] == diag)
