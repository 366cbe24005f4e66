"""Transit-noise generator: per-step stochastic increments of the density matrix.

Atoms wander in and out of the probed volume at the transit rate, so the
populations and Zeeman coherences of the ground manifold fluctuate.  Each
integration step receives an additive increment of the nine real
coordinates of the ground populations and coherences (the first nine of
``integrator.REAL_COORDS``), so as a matrix it is Hermitian with a silent
upper level by construction: the excited state is too short-lived for its
occupation noise to matter.  The tests assemble it as that 4x4 matrix in
the single-step reference, ``tests/_step_reference.py``.

Per step of length dt the diagonal (population) entries are independent
zero-mean Gaussians of variance

    sigma^2 = 2 * gamma_t * dt / (3 * n_atoms)

and the real and imaginary parts of each ground coherence entry are
independent zero-mean Gaussians of variance 3 sigma^2 / 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError


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

    All three must be finite; gamma_t may be zero (noise switches off), and
    dt and n_atoms must be positive.
    """
    if not 0 <= gamma_t < math.inf:
        raise DomainError(f"gamma_t must be finite and >= 0, got {gamma_t}")
    if not 0 < dt < math.inf:
        raise DomainError(f"dt must be finite and > 0, got {dt}")
    if not 0 < n_atoms < math.inf:
        raise DomainError(f"n_atoms must be finite and > 0, got {n_atoms}")
    sigma_sq = 2.0 * gamma_t * dt / (3.0 * n_atoms)
    if sigma_sq == math.inf:
        raise DomainError(f"noise variance overflows: gamma_t={gamma_t}, dt={dt}, n_atoms={n_atoms}")
    return NoiseStats(sigma_sq=sigma_sq, offdiag_var=0.75 * sigma_sq)


def sample_increment_block(stats: NoiseStats, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw n steps of noise at once, as an (n, 9) real block.

    Columns: the three populations, then the real parts and then the
    imaginary parts of the lower coherences (1,0), (2,0) and (2,1), which
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
