"""Transit-noise generator: per-step stochastic increments of the density matrix.

Atoms wander in and out of the probed volume at the transit rate, so the
populations and Zeeman coherences of the ground manifold fluctuate.  Each
integration step receives an additive Hermitian increment whose upper-level
row and column are zero: the excited state is too short-lived for its
occupation noise to matter.

Per step of length dt the diagonal (population) entries are independent
zero-mean Gaussians of variance

    sigma^2 = 2 * gamma_t * dt / (3 * n_atoms)

and the real and imaginary parts of each ground coherence entry are
independent zero-mean Gaussians of variance 3 sigma^2 / 4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError

#: Index pairs (i < j) of the ground-coherence entries, in sampling order.
OFFDIAG_PAIRS = ((0, 1), (0, 2), (1, 2))


@dataclass(frozen=True)
class NoiseStats:
    """Variance budget of one stochastic step."""

    sigma_sq: float
    offdiag_var: float

    @property
    def block_scale(self) -> np.ndarray:
        """Standard deviation of each column of sample_increment_block."""
        return np.repeat([np.sqrt(self.sigma_sq), np.sqrt(self.offdiag_var)], [3, 6])


def noise_stats(gamma_t: float, dt: float, n_atoms: float) -> NoiseStats:
    """Variances of the per-step increment for the given transit rate.

    gamma_t may be zero (noise switches off); dt and n_atoms must be
    positive.
    """
    if gamma_t < 0:
        raise DomainError(f"gamma_t must be >= 0, got {gamma_t}")
    if dt <= 0:
        raise DomainError(f"dt must be > 0, got {dt}")
    if n_atoms <= 0:
        raise DomainError(f"n_atoms must be > 0, got {n_atoms}")
    sigma_sq = 2.0 * gamma_t * dt / (3.0 * n_atoms)
    return NoiseStats(sigma_sq=sigma_sq, offdiag_var=0.75 * sigma_sq)


def sample_increment_block(stats: NoiseStats, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw n steps of noise at once, as an (n, 9) real block.

    Columns: the three populations, then the real parts and then the
    imaginary parts of the three coherences in OFFDIAG_PAIRS order, which
    is the order of the integrator's noise-driven real coordinates.  Each
    block is one (n, 9) standard-normal draw scaled in place, so a given
    generator state yields a reproducible stream for a given blocking.
    Without variance the block is zeros and the generator is not consumed.
    """
    if stats.sigma_sq == 0.0:
        return np.zeros((n, 9))
    block = rng.standard_normal((n, 9))
    block *= stats.block_scale
    return block


def increment_matrix(diag: np.ndarray, offdiag: np.ndarray) -> np.ndarray:
    """Assemble the 4x4 Hermitian increment from sampled entries."""
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0], m[1, 1], m[2, 2] = diag
    for col, (i, j) in enumerate(OFFDIAG_PAIRS):
        m[i, j] = np.conj(offdiag[col])
        m[j, i] = offdiag[col]
    return m


def sample_increment(stats: NoiseStats, rng: np.random.Generator) -> np.ndarray:
    """Draw a single per-step increment, a 4x4 complex matrix
    (dimensionless, already times dt).

    Hermitian by construction, with the excited row and column identically
    zero; deterministic for a given generator state.
    """
    block = sample_increment_block(stats, rng, 1)[0]
    return increment_matrix(block[0:3], block[3:6] + 1j * block[6:9])
