"""Single-step reference for the stepping engine, on the complex 4x4 matrix.

One step is the exact drift propagator applied to vec(rho), plus one
transit-noise increment assembled as a 4x4 Hermitian matrix, then
re-symmetrized, (rho' + rho'^dagger) / 2.  It draws the noise of a step as
``noise.sample_increment_block(stats, rng, 1)``, so a run of repeated
``step`` calls consumes a generator exactly as the engine does
(``integrator.evolve``), and the two agree to rounding.  The engine itself
holds states in real coordinates, where Hermiticity holds by construction;
nothing in the package steps this way.
"""

from __future__ import annotations

import functools

import numpy as np

from spinnoise.core import hermitize, require_hermitian
from spinnoise.exceptions import NumericError
from spinnoise.integrator import VEC_DIM, Propagator
from spinnoise.noise import noise_stats, sample_increment_block

#: Index pairs (i < j) of the ground-coherence entries, in the column order
#: of sample_increment_block.
OFFDIAG_PAIRS = ((0, 1), (0, 2), (1, 2))


def increment_matrix(diag, offdiag):
    """Assemble the 4x4 Hermitian increment from sampled entries."""
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0], m[1, 1], m[2, 2] = diag
    for col, (i, j) in enumerate(OFFDIAG_PAIRS):
        m[i, j] = np.conj(offdiag[col])
        m[j, i] = offdiag[col]
    return m


def sample_increment(stats, rng):
    """Draw a single per-step increment, a 4x4 complex matrix (already
    times dt): Hermitian, with the excited row and column identically zero."""
    block = sample_increment_block(stats, rng, 1)[0]
    return increment_matrix(block[0:3], block[3:6] + 1j * block[6:9])


@functools.lru_cache(maxsize=32)
def propagator(params, dt):
    """The Propagator of (params, dt), built once: ``step`` asks for it on
    every step."""
    return Propagator(params, dt)


def step_vec(prop, v):
    """Advance vec states one step with a Propagator; v is (16,) or (batch, 16)."""
    return v @ prop.matrix.T + prop.offset


def step(rho, params, dt, rng, with_noise=True):
    """Advance rho by one step of drift plus one transit-noise increment.

    The result is re-symmetrized.  With ``with_noise=False`` the generator
    is not consumed.
    """
    rho = np.asarray(rho, dtype=complex)
    require_hermitian(rho)
    out = step_vec(propagator(params, dt), rho.reshape(VEC_DIM)).reshape(4, 4)
    if with_noise:
        out = out + sample_increment(noise_stats(params.gamma_t, dt, params.n_atoms), rng)
    out = hermitize(out)
    if not np.all(np.isfinite(out.view(float))):
        raise NumericError("non-finite density matrix after step")
    return out
