"""Time evolution of the noisy density matrix and related deterministic solves.

The drift -i[H, rho] + D(rho) is linear (affine, through the transit
feeding term) and constant within a run, so one step of length dt is
advanced with the exact propagator of the vectorized system,

    vec(rho') = E vec(rho) + c,      E = exp(A dt),

precomputed once per parameter set.  The transit-noise increment is then
added per step, exactly as in a first-order Euler-Maruyama scheme; the two
agree to O(dt^2) in the drift but the exponential form stays stable for
stiff optical rates (gamma_opt * dt >> 1), which the bench-like presets
require.  Within a step the optical coherences relax onto the adiabatic
response to the current ground state, which is the physically correct
behaviour at sampling intervals much longer than 1/gamma_opt.

Trajectories are stepped in 16 real coordinates of the Hermitian density
matrix (REAL_COORDS), where the step is x' = x E_real^T + c_real + noise
with a real 16x16 matrix.  Every state is Hermitian by construction, and
``evolve`` and ``evolve_ensemble_coherences`` share one engine; ``step``
is the single-step reference on the complex matrix.  The engine steps
several parameter points at once, one stacked matrix product per step,
and hands the recorded rows to a sink chunk by chunk.
"""

from __future__ import annotations

import functools
import logging
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import (
    DIM,
    JX_EIGENVALUES,
    JX_EIGENVECTORS,
    SystemParams,
    build_hamiltonian,
    equilibrium_rho,
    hermitize,
    require_hermitian,
    _rhs_unchecked,
)
from .exceptions import ConfigError, DomainError, NumericError, SteadyStateError
from .noise import NoiseStats, noise_stats, sample_increment, sample_increment_block

logger = logging.getLogger(__name__)

VEC_DIM = DIM * DIM

# Real coordinates of a Hermitian 4x4 matrix, as (row, column, part) with
# row >= column.  The nine entries the transit noise drives come first, in
# the column order of sample_increment_block (three populations, then the
# real and the imaginary parts of the lower entries (1,0) (2,0) (2,1)); the
# recorded optical coherences rho[3,0] and rho[3,2] come last, as
# (Re, Im, Re, Im), so that slice is a float view of two complex numbers.
REAL_COORDS = (
    (0, 0, "re"), (1, 1, "re"), (2, 2, "re"),
    (1, 0, "re"), (2, 0, "re"), (2, 1, "re"),
    (1, 0, "im"), (2, 0, "im"), (2, 1, "im"),
    (3, 3, "re"), (3, 1, "re"), (3, 1, "im"),
    (3, 0, "re"), (3, 0, "im"), (3, 2, "re"), (3, 2, "im"),
)
_NOISE_COORDS = slice(0, 9)
_COHERENCE_COORDS = slice(12, 16)


def _real_basis() -> tuple[np.ndarray, np.ndarray]:
    """Maps between row-major vec(rho) and the real coordinates.

    x = Re(to_real @ vec(rho)) for Hermitian rho, and
    vec(rho) = from_real @ x.
    """
    to_real = np.zeros((VEC_DIM, VEC_DIM), dtype=complex)
    from_real = np.zeros((VEC_DIM, VEC_DIM), dtype=complex)
    for k, (i, j, part) in enumerate(REAL_COORDS):
        lower, upper = i * DIM + j, j * DIM + i
        if i == j:
            to_real[k, lower] = 1.0
            from_real[lower, k] = 1.0
        elif part == "re":
            to_real[k, lower] = to_real[k, upper] = 0.5
            from_real[lower, k] = from_real[upper, k] = 1.0
        else:
            to_real[k, lower], to_real[k, upper] = -0.5j, 0.5j
            from_real[lower, k], from_real[upper, k] = 1j, -1j
    return to_real, from_real


_TO_REAL, _FROM_REAL = _real_basis()


def to_real(rho: np.ndarray) -> np.ndarray:
    """Real coordinates (..., 16) of Hermitian matrices (..., 4, 4)."""
    rho = np.asarray(rho, dtype=complex)
    return (rho.reshape(rho.shape[:-2] + (VEC_DIM,)) @ _TO_REAL.T).real


def from_real(x: np.ndarray) -> np.ndarray:
    """Hermitian matrices (..., 4, 4) from real coordinates (..., 16)."""
    x = np.asarray(x, dtype=float)
    return (x @ _FROM_REAL.T).reshape(x.shape[:-1] + (DIM, DIM))


# Steps per chunk of the engine: noise draw, step loop, finiteness check
# and hand-off of the recorded rows.  A trajectory's noise stream does not
# depend on it (a standard-normal draw gives the same values however it is
# split), and neither does any output bit.
_CHUNK = 256
# Steps per range that a NumericError reports (a multiple of _CHUNK).
_ERROR_SPAN = 4096


@dataclass(frozen=True)
class TrajectoryConfig:
    """Stepping, burn-in, and recording layout of one trajectory."""

    dt: float
    n_steps: int
    burn_in_steps: int = 0
    record_stride: int = 1

    def __post_init__(self):
        if self.dt <= 0:
            raise ConfigError(f"dt must be > 0, got {self.dt}")
        if self.burn_in_steps < 0:
            raise ConfigError(f"burn_in_steps must be >= 0, got {self.burn_in_steps}")
        if self.n_steps < self.burn_in_steps:
            raise ConfigError(
                f"n_steps ({self.n_steps}) must be >= burn_in_steps ({self.burn_in_steps})"
            )
        if self.record_stride < 1:
            raise ConfigError(f"record_stride must be >= 1, got {self.record_stride}")

    @property
    def n_recorded(self) -> int:
        span = self.n_steps - self.burn_in_steps
        return (span + self.record_stride - 1) // self.record_stride


def superoperator(params: SystemParams) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized drift: vec(rhs(rho)) = A vec(rho) + b, row-major vec.

    Built by probing the right-hand side with unit matrices, so it is the
    same map the rest of the package differentiates against.
    """
    h = build_hamiltonian(params)
    b = _rhs_unchecked(np.zeros((DIM, DIM), dtype=complex), h, params).reshape(VEC_DIM)
    a = np.empty((VEC_DIM, VEC_DIM), dtype=complex)
    probe = np.zeros((DIM, DIM), dtype=complex)
    for k in range(VEC_DIM):
        probe.reshape(VEC_DIM)[k] = 1.0
        a[:, k] = _rhs_unchecked(probe, h, params).reshape(VEC_DIM) - b
        probe.reshape(VEC_DIM)[k] = 0.0
    return a, b


class Propagator:
    """Exact one-step advance of the deterministic drift for fixed (params, dt).

    The affine step (E, c) comes from one 17x17 matrix exponential of the
    augmented system [[A, b], [0, 0]] * dt, which is well defined even when
    A is singular.
    """

    def __init__(self, params: SystemParams, dt: float):
        if dt <= 0:
            raise ConfigError(f"dt must be > 0, got {dt}")
        self.params = params
        self.dt = dt
        a, b = superoperator(params)
        aug = np.zeros((VEC_DIM + 1, VEC_DIM + 1), dtype=complex)
        aug[:VEC_DIM, :VEC_DIM] = a * dt
        aug[:VEC_DIM, VEC_DIM] = b * dt
        exp_aug = scipy.linalg.expm(aug)
        self.matrix = np.ascontiguousarray(exp_aug[:VEC_DIM, :VEC_DIM])
        self.offset = np.ascontiguousarray(exp_aug[:VEC_DIM, VEC_DIM])
        self._matrix_t = np.ascontiguousarray(self.matrix.T)
        # The same step in real coordinates: x' = x @ real_matrix_t + real_offset.
        self.real_matrix_t = np.ascontiguousarray((_TO_REAL @ self.matrix @ _FROM_REAL).real.T)
        self.real_offset = (_TO_REAL @ self.offset).real

    def step_vec(self, v: np.ndarray) -> np.ndarray:
        """Advance vec states one step; v has shape (16,) or (batch, 16)."""
        return v @ self._matrix_t + self.offset


@functools.lru_cache(maxsize=32)
def _cached_propagator(params: SystemParams, dt: float) -> Propagator:
    return Propagator(params, dt)


def step(
    rho: np.ndarray,
    params: SystemParams,
    dt: float,
    rng: np.random.Generator,
    with_noise: bool = True,
) -> np.ndarray:
    """Advance rho by one step of drift plus one transit-noise increment.

    The result is re-symmetrized, (rho' + rho'^dagger)/2.  With
    ``with_noise=False`` the generator is not consumed.
    """
    rho = np.asarray(rho, dtype=complex)
    require_hermitian(rho)
    prop = _cached_propagator(params, dt)
    v = prop.step_vec(rho.reshape(VEC_DIM))
    out = v.reshape(DIM, DIM)
    if with_noise:
        stats = noise_stats(params.gamma_t, dt, params.n_atoms)
        out = out + sample_increment(stats, rng).entries
    out = hermitize(out)
    if not np.all(np.isfinite(out.view(float))):
        raise NumericError("non-finite density matrix after step")
    return out


def evolve(
    rho0: np.ndarray,
    params: SystemParams,
    cfg: TrajectoryConfig,
    rng: np.random.Generator,
    with_noise: bool = True,
) -> np.ndarray:
    """Run cfg.n_steps steps from rho0 and return the recorded states.

    States are recorded after each step once burn-in has elapsed, every
    ``record_stride`` steps; shape (n_recorded, 4, 4).  A batch of one on
    the ensemble engine: it consumes ``rng`` exactly as repeated calls of
    ``step`` would, and is deterministic for a given generator state.
    """
    require_hermitian(rho0)
    _warn_if_aliasing(params, cfg.dt)
    x0 = to_real(rho0)[None, None, :]
    out = np.empty((cfg.n_recorded, 1, VEC_DIM))
    _integrate([params], cfg, [rng], x0, slice(None), _writer(out), with_noise)
    return from_real(out[:, 0, :])


def evolve_ensemble_coherences(
    params: SystemParams | Sequence[SystemParams],
    cfg: TrajectoryConfig,
    seed_keys: list,
    rho0: np.ndarray | Sequence[np.ndarray] | None = None,
    with_noise: bool = True,
    first_trajectory: int = 0,
    sink: Callable[[np.ndarray], None] | None = None,
) -> np.ndarray:
    """Batched trajectories, recording only the two optical coherences.

    Each entry of ``seed_keys`` seeds one trajectory's independent
    generator (any value np.random.default_rng accepts), so a trajectory's
    noise depends only on its own seed, not on the batch composition.

    ``params`` is one point or a sequence of P points stepped together;
    the keys are then P equal runs of trajectories, point by point, and
    ``rho0`` is one start state for all points or one per point (default:
    the equilibrium state).  A NumericError numbers the trajectories within
    their point from ``first_trajectory``, the index of the first key
    within a larger ensemble split into batches, and carries the index of
    the failing point in ``point``.

    The record is (n_recorded, n_keys, 2) complex: columns are rho[3,0] and
    rho[3,2] after each recorded step.  Without ``sink`` it is returned.
    With ``sink`` it is never held: sink receives it in consecutive blocks
    of rows, and the returned record is empty (no rows).
    """
    points = [params] if isinstance(params, SystemParams) else list(params)
    n_keys = len(seed_keys)
    if n_keys == 0 or not points:
        raise DomainError("need at least one trajectory seed and one point")
    if n_keys % len(points):
        raise DomainError(
            f"{n_keys} trajectory seeds do not split evenly over {len(points)} points"
        )
    for p in points:
        _warn_if_aliasing(p, cfg.dt)
    if rho0 is None:
        rho0 = equilibrium_rho()
    starts = np.asarray(rho0, dtype=complex)
    if starts.ndim == 2:
        starts = np.broadcast_to(starts, (len(points),) + starts.shape)
    if starts.shape != (len(points), DIM, DIM):
        raise DomainError(f"rho0 must be one 4x4 state or one per point, got {starts.shape}")
    for rho in starts:
        require_hermitian(rho)
    rngs = [np.random.default_rng(key) for key in seed_keys]
    n_traj = n_keys // len(points)
    # Converted one state at a time, as for a single point: a product of
    # several rows takes another BLAS kernel and could round differently.
    x0 = np.stack([np.tile(to_real(rho), (n_traj, 1)) for rho in starts])
    out = np.empty((cfg.n_recorded if sink is None else 0, n_keys, 2), dtype=complex)
    target = _writer(out.view(float)) if sink is None else (
        lambda rows: sink(rows.view(complex))
    )
    _integrate(points, cfg, rngs, x0, _COHERENCE_COORDS, target, with_noise, first_trajectory)
    return out


def _writer(out: np.ndarray) -> Callable[[np.ndarray], None]:
    """A sink that stores consecutive blocks of rows into ``out``."""
    filled = 0

    def write(rows: np.ndarray) -> None:
        nonlocal filled
        out[filled : filled + len(rows)] = rows
        filled += len(rows)

    return write


def _integrate(
    params: list[SystemParams],
    cfg: TrajectoryConfig,
    rngs: list,
    x0: np.ndarray,
    record: slice,
    sink: Callable[[np.ndarray], None],
    with_noise: bool,
    first_trajectory: int = 0,
) -> None:
    """The stepping engine, in real coordinates.

    Advances the (P, n_traj, 16) states ``x0`` of P points by cfg.n_steps
    steps of x' = x @ E_real^T + drive, one stacked matrix product for all
    points per step.  The drive is each point's propagator offset plus the
    transit noise of each trajectory's generator (``rngs``, point by point).
    Hermiticity holds by construction.

    Work proceeds in chunks of _CHUNK steps, so the state and drive
    buffers stay cache-sized whatever the run length.  After each chunk
    the states are checked for non-finite values, and the ``record``
    coordinates of the chunk's recorded steps go to ``sink`` as one
    contiguous (n_rows, P * n_traj, width) block.  A failure names the
    trajectory as ``first_trajectory`` plus its row, the point, and the
    _ERROR_SPAN-step range that holds the chunk.

    A single trajectory is stepped beside a noise-free copy of itself: the
    product of a one-row matrix goes through a different BLAS kernel, and
    this way every trajectory's bits are the same whatever the batch size.
    """
    n_points, n_traj, _ = x0.shape
    props = [_cached_propagator(p, cfg.dt) for p in params]
    stats = [noise_stats(p.gamma_t, cfg.dt, p.n_atoms) for p in params]
    noisy = [with_noise and s.sigma_sq > 0.0 for s in stats]
    matrices = np.stack([prop.real_matrix_t for prop in props])
    width = max(n_traj, 2)
    capacity = min(_CHUNK, cfg.n_steps)
    states = np.empty((capacity + 1, n_points, width, VEC_DIM))
    # Offset plus noise per step; only the noise-driven coordinates change
    # from chunk to chunk.
    drive = np.empty((capacity, n_points, width, VEC_DIM))
    for p, prop in enumerate(props):
        drive[:, p] = prop.real_offset
    # Each trajectory's noise block of a chunk, refilled point by point.
    blocks = np.empty((n_traj, capacity, 9))
    state_rows, drive_rows = list(states), list(drive)
    states[0] = x0[:, np.arange(width) % n_traj]
    done = 0
    while done < cfg.n_steps:
        chunk = min(_CHUNK, cfg.n_steps - done)
        for p in range(n_points):
            if noisy[p]:
                _draw_noise_chunk(
                    stats[p], rngs[p * n_traj : (p + 1) * n_traj], chunk, drive[:, p],
                    props[p].real_offset, blocks,
                )
        for k in range(chunk):
            np.matmul(state_rows[k], matrices, out=state_rows[k + 1])
            np.add(state_rows[k + 1], drive_rows[k], out=state_rows[k + 1])
        finite = np.isfinite(states[chunk, :, :n_traj]).all(axis=-1)
        if not finite.all():
            point, row = np.unravel_index(np.argmin(finite), finite.shape)
            span = done - done % _ERROR_SPAN
            raise NumericError(
                f"non-finite state in trajectory {first_trajectory + int(row)} during steps "
                f"{span}..{min(span + _ERROR_SPAN, cfg.n_steps) - 1} of {cfg.n_steps}",
                point=int(point),
            )
        # Step done + k is held in states[k + 1]; record from the first
        # step past burn-in that falls on the stride.
        first = max(done, cfg.burn_in_steps)
        first += -(first - cfg.burn_in_steps) % cfg.record_stride
        rows = states[first - done + 1 : chunk + 1 : cfg.record_stride, :, :n_traj, record]
        if len(rows):
            sink(np.ascontiguousarray(rows).reshape(len(rows), n_points * n_traj, -1))
        states[0] = states[chunk]
        done += chunk


def _draw_noise_chunk(
    stats: NoiseStats,
    rngs: list,
    chunk: int,
    drive: np.ndarray,
    offset: np.ndarray,
    blocks: np.ndarray,
) -> None:
    """Set drive[:chunk, j, :9] to offset[:9] plus chunk steps of noise.

    Trajectory j draws one block from rngs[j] into blocks[j, :chunk]; its
    columns are already in the order of the noise-driven real coordinates.
    One add then moves all the blocks into the strided drive.
    """
    for rng, block in zip(rngs, blocks):
        sample_increment_block(stats, rng, chunk, out=block[:chunk])
    np.add(
        blocks[:, :chunk].transpose(1, 0, 2), offset[_NOISE_COORDS],
        out=drive[:chunk, : len(rngs), _NOISE_COORDS],
    )


def _warn_if_aliasing(params: SystemParams, dt: float) -> None:
    nyquist = np.pi / dt  # rad/s
    if 2.0 * params.omega_L > 0.9 * nyquist:
        logger.warning(
            "2*omega_L = %.3g rad/s is above 90%% of the Nyquist band for dt=%.3g s; "
            "spin-noise peaks will alias",
            2.0 * params.omega_L,
            dt,
        )


def steady_state(params: SystemParams) -> np.ndarray:
    """Stationary density matrix of the deterministic drift, unit trace.

    Solves the vectorized linear system with a trace constraint, after
    rescaling time by the largest rate so the reported residual is
    dimensionless.  Raises SteadyStateError if the state is not unique
    (e.g. all relaxation rates zero) or the residual exceeds 1e-10.
    """
    if params.gamma0 == 0.0 and params.gamma_t == 0.0:
        raise SteadyStateError(
            "no unique steady state: gamma0 and gamma_t are both zero"
        )
    a, b = superoperator(params)
    scale = params.rate_scale()
    trace_row = np.zeros(VEC_DIM, dtype=complex)
    trace_row[[0, 5, 10, 15]] = 1.0
    m = np.vstack([a / scale, trace_row[None, :]])
    rhs = np.concatenate([-b / scale, [1.0]])
    solution, _, rank, _ = np.linalg.lstsq(m, rhs, rcond=None)
    if rank < VEC_DIM:
        raise SteadyStateError(
            f"steady state is not unique (rank {rank} < {VEC_DIM})"
        )
    rho = hermitize(solution.reshape(DIM, DIM))
    residual = steady_state_residual(rho, params)
    if residual > 1e-10:
        raise SteadyStateError(
            f"steady-state residual {residual:.3e} exceeds 1e-10"
        )
    return rho


def steady_state_residual(rho: np.ndarray, params: SystemParams) -> float:
    """Dimensionless stationarity defect ||rhs(rho)|| / rate_scale."""
    rhs = _rhs_unchecked(np.asarray(rho, dtype=complex), build_hamiltonian(params), params)
    return float(np.linalg.norm(rhs)) / params.rate_scale()


def free_evolve_ground(
    state0: np.ndarray, omega_L: float, t_grid: np.ndarray
) -> np.ndarray:
    """Unitary Larmor evolution of the bare spin-1 ground manifold.

    ``state0`` is either a 3-component ket or a 3x3 density matrix over
    {|-1>_z, |0>_z, |+1>_z}.  Uses the exact Jx eigendecomposition
    (eigenvalues -omega_L, 0, +omega_L); no decay, no noise.  Returns
    density matrices of shape (len(t_grid), 3, 3).
    """
    if omega_L < 0:
        raise DomainError(f"omega_L must be >= 0, got {omega_L}")
    state0 = np.asarray(state0, dtype=complex)
    if state0.ndim == 1:
        norm = np.linalg.norm(state0)
        if norm == 0:
            raise DomainError("initial ket must be nonzero")
        psi = state0 / norm
        rho0 = np.outer(psi, np.conj(psi))
    elif state0.shape == (3, 3):
        require_hermitian(state0, what="ground state")
        if abs(np.trace(state0).real - 1.0) > 1e-9:
            raise DomainError("ground-state density matrix must have unit trace")
        if np.linalg.eigvalsh(state0).min() < -1e-9:
            raise DomainError("ground-state density matrix must be positive semidefinite")
        rho0 = state0
    else:
        raise DomainError(f"state0 must be shape (3,) or (3, 3), got {state0.shape}")

    t = np.asarray(t_grid, dtype=float)
    phases = np.exp(-1j * omega_L * np.outer(t, JX_EIGENVALUES))  # (nt, 3)
    v = JX_EIGENVECTORS
    rho_eig = np.conj(v.T) @ rho0 @ v
    evolved = phases[:, :, None] * rho_eig[None, :, :] * np.conj(phases)[:, None, :]
    return np.einsum("ij,tjk,lk->til", v, evolved, np.conj(v))
