"""Time evolution of the noisy density matrix and related deterministic solves.

The drift -i[H, rho] + D(rho) is linear (affine, through the transit
feeding term) and constant within a run: dx/dt = G x + c in the 16 real
coordinates x of the Hermitian density matrix (REAL_COORDS), with the
real generator (G, c) of ``superoperator``, which evaluates the
right-hand side once on a stack of probe matrices.  ``to_real`` and
``from_real`` convert by index maps over the lower triangle, so a
conversion copies bits and does not round.  The steady state solves
G x = -c with unit trace, and one step of length dt is advanced with the
exact propagator x' = E x + e, [[E, e], [0, 1]] = exp([[G, c], [0, 0]] dt),
precomputed once per parameter set.  The transit-noise increment is then
added per step, exactly as in a first-order Euler-Maruyama scheme; the two
agree to O(dt^2) in the drift but the exponential form stays stable for
stiff optical rates (gamma_opt * dt >> 1), which the bench-like presets
require.  Within a step the optical coherences relax onto the adiabatic
response to the current ground state, which is the physically correct
behaviour at sampling intervals much longer than 1/gamma_opt.

Trajectories are stepped as row vectors of these coordinates, x' = x E^T
+ e + noise.  Every state is Hermitian by construction, and ``evolve``
and ``evolve_ensemble_coherences`` share one engine, the only one in the
package; the tests hold it against a single-step reference that adds the
noise to the complex matrix, ``tests/_step_reference.py``.  The engine
steps several parameter points at once.  It has no per-step loop: it
advances sub-blocks of _SUB steps with lifted operators (powers of E^T
and their sums, built for all points of a call in one batched pass), so
a chunk of steps is a few matrix products over the trajectories' raw
standard-normal draws, and it hands the recorded rows to a sink chunk by
chunk.  The lifted operators carry the per-coordinate noise scale and a
fixed linear record map (all coordinates for ``evolve``, a readout of the
optical coherences otherwise), so those products go from the draws to
the recorded signals directly.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    DIM,
    JX_EIGENVALUES,
    JX_EIGENVECTORS,
    RATE_FIELDS,
    SystemParams,
    build_hamiltonian,
    equilibrium_rho,
    require_hermitian,
    _rhs_unchecked,
)
from .exceptions import ConfigError, DomainError, NumericError, SteadyStateError
from .noise import (
    noise_stats,
    sample_increment_block,  # noqa: F401  (looked up on this module by perfbench/tracer.py)
)

logger = logging.getLogger(__name__)

VEC_DIM = DIM * DIM

# Real coordinates of a Hermitian 4x4 matrix, as (row, column, part) with
# row >= column.  The nine entries the transit noise drives come first, in
# the column order of sample_increment_block (three populations, then the
# real and the imaginary parts of the lower entries (1,0) (2,0) (2,1)); the
# recorded optical coherences rho[3,0] and rho[3,2] come last, as
# (Re, Im, Re, Im), so their default record is the float view of the two
# complex numbers.
REAL_COORDS = (
    (0, 0, "re"), (1, 1, "re"), (2, 2, "re"),
    (1, 0, "re"), (2, 0, "re"), (2, 1, "re"),
    (1, 0, "im"), (2, 0, "im"), (2, 1, "im"),
    (3, 3, "re"), (3, 1, "re"), (3, 1, "im"),
    (3, 0, "re"), (3, 0, "im"), (3, 2, "re"), (3, 2, "im"),
)
_NOISE_COORDS = slice(0, 9)
_COHERENCE_COORDS = slice(12, 16)


# Index maps of REAL_COORDS: the lower-triangle entry each coordinate
# reads, and which coordinates are imaginary parts.
_ROW, _COL = np.array([(i, j) for i, j, _ in REAL_COORDS]).T
_IM = np.array([part == "im" for _, _, part in REAL_COORDS])


def to_real(rho: np.ndarray) -> np.ndarray:
    """Real coordinates (..., 16) of Hermitian matrices (..., 4, 4).

    Reads the lower-triangle entries that REAL_COORDS names, so every
    coordinate is an exact copy of a real or imaginary part.
    """
    entries = np.asarray(rho, dtype=complex)[..., _ROW, _COL]
    return np.where(_IM, entries.imag, entries.real)


def from_real(x: np.ndarray) -> np.ndarray:
    """Hermitian matrices (..., 4, 4) from real coordinates (..., 16).

    Fills the lower triangle and mirrors it, conjugated, into the upper
    one: the exact inverse of ``to_real``.
    """
    x = np.asarray(x, dtype=float)
    rho = np.zeros(x.shape[:-1] + (DIM, DIM), dtype=complex)
    rho.real[..., _ROW[~_IM], _COL[~_IM]] = x[..., ~_IM]
    rho.imag[..., _ROW[_IM], _COL[_IM]] = x[..., _IM]
    return rho + np.conj(np.swapaxes(np.tril(rho, -1), -1, -2))


# Steps per chunk of the engine: noise draw, lifted stepping, finiteness
# check and hand-off of the recorded rows.  A trajectory's noise stream
# does not depend on it (a standard-normal draw gives the same values
# however it is split), and neither does any output bit.
_CHUNK = 256
# Steps per sub-block of the lifted stepping (a divisor of _CHUNK).
_SUB = 16


@dataclass(frozen=True)
class TrajectoryConfig:
    """Stepping, burn-in, and recording layout of one trajectory."""

    dt: float
    n_steps: int
    burn_in_steps: int = 0
    record_stride: int = 1

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ConfigError(f"dt must be finite and > 0, got {self.dt}")
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
    """The drift's real generator (G, c): to_real(rhs(from_real(x))) = G @ x + c.

    Built by one call of the right-hand side on a stack of 17 probes: the
    zero matrix and the Hermitian matrix of each unit coordinate.  So it
    is the same map the rest of the package differentiates against.
    """
    # Probe 0 is the zero matrix, probe k + 1 that of unit coordinate k.
    probes = from_real(np.eye(VEC_DIM + 1, VEC_DIM, -1))
    rates = to_real(_rhs_unchecked(probes, build_hamiltonian(params), params))
    return (rates[1:] - rates[0]).T, rates[0]


# Coefficients b_0..b_13 of the [13/13] Pade approximant to exp, and the
# 1-norm up to which it is accurate to double precision (Higham 2005).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring with the [13/13] Pade
    approximant (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005))."""
    norm = np.linalg.norm(a, 1)
    s = max(0, math.ceil(math.log2(norm / _THETA13))) if 0 < norm < math.inf else 0
    a = a / 2.0**s
    b = _PADE13
    ident = np.eye(len(a), dtype=a.dtype)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


class Propagator:
    """Exact one-step advance of the deterministic drift for fixed (params, dt),
    and the scale of the transit noise each step adds.

    The step x' = x @ ``real_matrix_t`` + ``real_offset`` comes from one
    real 17x17 exponential of the generator's column form [[G, c], [0, 0]]
    * dt, which is well defined even when G is singular.  An exponential
    that overflows is refused, so the engine only steps with finite
    operators.  ``noise_scale`` is the standard deviation of
    each of the nine noise-driven coordinates (``NoiseStats.block_scale``);
    all zero without transit noise.
    """

    def __init__(self, params: SystemParams, dt: float):
        if not 0 < dt < math.inf:
            raise ConfigError(f"dt must be finite and > 0, got {dt}")
        g, c = superoperator(params)
        aug = np.zeros((VEC_DIM + 1, VEC_DIM + 1))
        aug[:VEC_DIM, :VEC_DIM] = g * dt
        aug[:VEC_DIM, VEC_DIM] = c * dt
        exp_aug = _expm(aug)
        if not np.all(np.isfinite(exp_aug)):
            raise NumericError(f"non-finite propagator: the rates times dt={dt} overflow")
        self.real_matrix_t = np.ascontiguousarray(exp_aug[:VEC_DIM, :VEC_DIM].T)
        self.real_offset = exp_aug[:VEC_DIM, VEC_DIM].copy()
        self.noise_scale = noise_stats(params.gamma_t, dt, params.n_atoms).block_scale


def _lifted(props: Sequence[Propagator], records: np.ndarray) -> tuple[np.ndarray, ...]:
    """The operators that advance a sub-block of up to _SUB steps, for the
    P points' Propagators ``props`` and (P, 16, K) record maps ``records``.

    With M = ``real_matrix_t``, c = ``real_offset``, s = ``noise_scale``
    of a point's Propagator and z_i the standard normals of step i of a
    sub-block that starts in state y, the state after its step r is

        x_r = y M^(r+1) + sum_{i<=r} z_i diag(s) M^(r-i)[:9] + O_r,
        O_r = c (M^0 + ... + M^r),

    since only the first nine coordinates take noise.  A sub-block's draws
    are one row of 9 _SUB values, and its record is x_r @ R for the point's
    record map R.  The operators, stacked over the points and shaped to
    broadcast over trajectories and sub-blocks, are

        power       (P, 16, 16)             M^_SUB
        end_noise   (P, 1, 9 _SUB, 16)      rows 9i..9i+8: diag(s) M^(_SUB-1-i)[:9]
        end_offset  (P, 1, 1, 16)           O_(_SUB-1)
        start       (P, 1, 16, _SUB K)      column block r: M^(r+1) R
        noise       (P, 1, 9 _SUB, _SUB K)  block (i, r): diag(s) M^(r-i)[:9] R, 0 for i > r
        offset      (P, 1, 1, _SUB K)       block r: O_r R
        safe_size   (P, 1)

    so the records of all _SUB steps are one row, y @ start + z @ noise +
    offset, and the full end state is y @ power + z @ end_noise +
    end_offset.  The noise map is block upper-triangular, so a step's
    record does not read the draws of later steps: the record of a partial
    sub-block at the end of a run is the same product, whatever its row
    holds past the end.  No step of a sub-block that starts in y can leave
    the float range while max |y| <= ``safe_size`` (up to the offset and
    noise, which are of order one).  Every product is the one a single
    point would take, so a point's operators do not depend on the others.
    """
    m = np.array([prop.real_matrix_t for prop in props])
    c = np.array([prop.real_offset for prop in props])[:, None]
    scale = np.array([prop.noise_scale for prop in props])
    n, k = len(props), records.shape[2]
    powers = np.empty((n, _SUB + 1, VEC_DIM, VEC_DIM))
    powers[:, 0] = np.eye(VEC_DIM)
    offsets = np.empty((n, _SUB, 1, VEC_DIM))
    offsets[:, 0] = c
    for r in range(1, _SUB + 1):
        powers[:, r] = powers[:, r - 1] @ m
    for r in range(1, _SUB):
        offsets[:, r] = offsets[:, r - 1] @ m + c
    # diag(s) M^r[:9] for r < _SUB, and their records, after which a zero
    # block stands for every lag r - i < 0.
    kicks = scale[:, None, :, None] * powers[:, :_SUB, _NOISE_COORDS]
    kick_records = np.zeros((n, _SUB + 1, 9, k))
    kick_records[:, :_SUB] = kicks @ records[:, None]
    lag = np.arange(_SUB) - np.arange(_SUB)[:, None]
    noise = kick_records[:, np.where(lag < 0, _SUB, lag)]   # (P, i, r, 9, K)
    # |(y M^r)_k| <= max|y| * sum_j |M^r_jk|.
    growth = np.abs(powers[:, 1:]).sum(axis=2).reshape(n, -1).max(axis=1, keepdims=True)
    return (
        powers[:, _SUB],
        kicks[:, ::-1].reshape(n, 1, 9 * _SUB, VEC_DIM),
        offsets[:, _SUB - 1, None],
        (powers[:, 1:] @ records[:, None]).transpose(0, 2, 1, 3).reshape(n, 1, VEC_DIM, _SUB * k),
        noise.transpose(0, 1, 3, 2, 4).reshape(n, 1, 9 * _SUB, _SUB * k),
        (offsets[:, :, 0] @ records).reshape(n, 1, 1, _SUB * k),
        np.finfo(float).max / np.maximum(1.0, growth),
    )


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
    the ensemble engine: it consumes ``rng`` exactly as repeated steps of
    the single-step reference (``tests/_step_reference.py``) would, and is
    deterministic for a given generator state.
    """
    require_hermitian(rho0)
    _warn_if_aliasing(params, cfg.dt)
    x0 = to_real(rho0)[None, None, :]
    out = np.empty((cfg.n_recorded, 1, VEC_DIM))
    _integrate([params], cfg, [rng], x0, np.eye(VEC_DIM)[None], _writer(out), with_noise)
    return from_real(out[:, 0, :])


def evolve_ensemble_coherences(
    params: SystemParams | Sequence[SystemParams],
    cfg: TrajectoryConfig,
    seed_keys: list,
    rho0: np.ndarray | Sequence[np.ndarray] | None = None,
    with_noise: bool = True,
    first_trajectory: int = 0,
    sink: Callable[[np.ndarray], None] | None = None,
    readout: np.ndarray | None = None,
) -> np.ndarray:
    """Batched trajectories, recording real signals read out of the two
    optical coherences.

    Each entry of ``seed_keys`` seeds one trajectory's independent
    generator (any value np.random.default_rng accepts), so a trajectory's
    noise depends only on its own seed, not on the batch composition.

    ``params`` is one point or a sequence of P points stepped together;
    the keys are then P equal runs of trajectories, point by point, and
    ``rho0`` is one start state for all points or one per point (default:
    the equilibrium state).  A NumericError numbers the trajectories within
    their point from ``first_trajectory``, the index of the first key
    within a larger ensemble split into batches, and carries the index of
    the failing point in ``point``.  Only a batch from trajectory 0 logs a
    point's aliasing warning, so a split point warns once.

    ``readout`` is a real (4, M) map of the coherence coordinates
    (Re rho[3,0], Im rho[3,0], Re rho[3,2], Im rho[3,2]) to M signals
    (``detection.readout_matrix``), or one such map per point; the record
    is the (n_recorded, n_keys, M) real signals after each recorded step.
    The default is the 4x4 identity, which records the four coordinates
    themselves: ``.view(complex)`` of that record is rho[3,0] and
    rho[3,2].  The readout is part of the engine's lifted operators, so no
    coherence is formed on the way.  Without ``sink`` the record is
    returned.  With ``sink`` it is never held: sink receives it in
    consecutive trajectory-major blocks of rows, (n_keys, rows, M), and
    the returned record is empty (no rows).
    """
    points = [params] if isinstance(params, SystemParams) else list(params)
    n_keys = len(seed_keys)
    if n_keys == 0 or not points:
        raise DomainError("need at least one trajectory seed and one point")
    if n_keys % len(points):
        raise DomainError(
            f"{n_keys} trajectory seeds do not split evenly over {len(points)} points"
        )
    if first_trajectory == 0:
        for p in points:
            _warn_if_aliasing(p, cfg.dt)
    if rho0 is None:
        rho0 = equilibrium_rho()
    starts = np.asarray(rho0, dtype=complex)
    if starts.shape not in ((DIM, DIM), (len(points), DIM, DIM)):
        raise DomainError(f"rho0 must be one 4x4 state or one per point, got {starts.shape}")
    starts = np.broadcast_to(starts, (len(points), DIM, DIM))
    for rho in starts:
        require_hermitian(rho)
    maps = np.eye(4) if readout is None else np.asarray(readout, dtype=float)
    if maps.shape[:-2] not in ((), (len(points),)) or maps.shape[-2:-1] != (4,):
        raise DomainError(f"readout must be one (4, M) map or one per point, got {maps.shape}")
    maps = np.broadcast_to(maps, (len(points),) + maps.shape[-2:])
    # Record maps (16, M): the recorded row of a state x is x @ R.
    records = np.zeros((len(points), VEC_DIM, maps.shape[2]))
    records[:, _COHERENCE_COORDS] = maps
    out = np.empty((cfg.n_recorded if sink is None else 0, n_keys, maps.shape[2]))
    rngs = [np.random.default_rng(key) for key in seed_keys]
    n_traj = n_keys // len(points)
    x0 = np.broadcast_to(to_real(starts)[:, None], (len(points), n_traj, VEC_DIM))
    target = _writer(out) if sink is None else sink
    _integrate(points, cfg, rngs, x0, records, target, with_noise, first_trajectory)
    return out


def _writer(out: np.ndarray) -> Callable[[np.ndarray], None]:
    """A sink that stores consecutive trajectory-major blocks of rows,
    (n_keys, rows, width), into the (n_recorded, n_keys, width) ``out``."""
    filled = 0

    def write(rows: np.ndarray) -> None:
        nonlocal filled
        out[filled : filled + rows.shape[1]] = rows.transpose(1, 0, 2)
        filled += rows.shape[1]

    return write


def _integrate(
    params: list[SystemParams],
    cfg: TrajectoryConfig,
    rngs: list,
    x0: np.ndarray,
    records: np.ndarray,
    sink: Callable[[np.ndarray], None],
    with_noise: bool,
    first_trajectory: int = 0,
) -> None:
    """The stepping engine, in real coordinates.

    Advances the (P, n_traj, 16) states ``x0`` of P points by cfg.n_steps
    steps of x' = x @ E^T + e + noise (``Propagator``), where the noise
    comes from each trajectory's generator (``rngs``, point by point), and
    records x @ R after each recorded step, with R = ``records[p]``, the
    (16, K) record map of point p.  Hermiticity holds by construction.

    Work proceeds in chunks of _CHUNK steps, so every buffer stays
    cache-sized whatever the run length.  Each trajectory draws the
    standard normals of a chunk as one contiguous (chunk, 9) block, read
    in place as one row of 9 _SUB values per sub-block; the noise scale is
    in the lifted operators.  ``_lifted`` builds those of all P points in
    one pass, stacked and shaped to broadcast, and with them one matrix
    product gives the noise part of every sub-block's end state, chunk //
    _SUB coarse steps y <- y M^_SUB + F_b carry the state across the
    sub-blocks, and two more products give the record of every step.  After each chunk the sub-block states are
    checked for non-finite values (or values from which a step could
    overflow), and the chunk's recorded steps go to ``sink`` as one
    trajectory-major (P * n_traj, n_rows, K) block.  A failure names the
    trajectory as ``first_trajectory`` plus its row, the point, and the
    chunk's step range.

    A single trajectory is stepped beside a noise-free copy of itself: the
    product of a one-row matrix goes through a different BLAS kernel, and
    this way every trajectory's bits are the same whatever the batch size.
    """
    n_points, n_traj, _ = x0.shape
    n_rec = records.shape[2]
    props = [Propagator(p, cfg.dt) for p in params]
    power, end_noise, end_offset, start, noise_map, offset, safe_size = _lifted(props, records)
    noisy = [with_noise and prop.noise_scale.any() for prop in props]
    width = max(n_traj, 2)
    n_sub = -(-min(_CHUNK, cfg.n_steps) // _SUB)
    capacity = n_sub * _SUB
    # Each trajectory's standard normals of a chunk, drawn in place and
    # read as one row per sub-block; the noise-free copy's rows stay zero.
    noise = np.zeros((n_points, width, capacity, 9))
    noise_rows = noise.reshape(n_points, width, n_sub, 9 * _SUB)
    # Sub-block by sub-block, so that a coarse step reads and writes
    # contiguous blocks: the start state of each sub-block and, last, the
    # state the chunk ends in; the offset and noise part of each
    # sub-block's end state.  Then, per trajectory, the recorded
    # coordinates of each step.
    states = np.zeros((n_points, n_sub + 1, width, VEC_DIM))
    states[:, 0] = x0[:, np.arange(width) % n_traj]
    ends = np.empty((n_points, n_sub, width, VEC_DIM))
    rec = np.empty((n_points, width, n_sub, _SUB * n_rec))
    part = np.empty_like(rec)
    rows = rec.reshape(n_points, width, capacity, n_rec)
    done = 0
    while done < cfg.n_steps:
        chunk = min(capacity, cfg.n_steps - done)
        full = chunk // _SUB
        for p in range(n_points):
            if noisy[p]:
                _draw_noise_chunk(rngs[p * n_traj : (p + 1) * n_traj], chunk, noise[p])
        # numpy calls BLAS per trajectory and point (per point for the
        # coarse steps), and OpenBLAS runs products of these sizes on one
        # thread, so concurrent worker processes do not oversubscribe the
        # cores.
        np.matmul(noise_rows, end_noise, out=ends.transpose(0, 2, 1, 3))
        ends += end_offset
        for b in range(full):
            np.matmul(states[:, b], power, out=states[:, b + 1])
            states[:, b + 1] += ends[:, b]
        # The engine forms no state between sub-block starts, so a start
        # from which a step could overflow counts as non-finite, as the
        # step itself would be (NaN fails the comparison too).  A partial
        # sub-block ends the run; its start is the last state checked.
        size = np.abs(states[:, : full + 1, :n_traj]).max(axis=(1, 3))
        finite = size <= safe_size
        if not finite.all():
            point, row = np.unravel_index(np.argmin(finite), finite.shape)
            where = (
                f"in trajectory {first_trajectory + int(row)} during steps "
                f"{done}..{done + chunk - 1} of {cfg.n_steps}"
            )
            # The first sub-block start out of range names the cause: a
            # finite one is a state a step could overflow from.
            starts = np.abs(states[point, : full + 1, row]).max(axis=1)
            first_bad = starts[np.argmin(starts <= safe_size[point, 0])]
            if np.isfinite(first_bad):
                raise NumericError(
                    f"state out of the safe range {where}: max |x| = {first_bad:.3g} exceeds "
                    f"{safe_size[point, 0]:.3g}, from which a step could overflow",
                    point=int(point),
                )
            raise NumericError(f"non-finite state {where}", point=int(point))
        # Step done + k is held in row k of a trajectory; record from the
        # first step past burn-in that falls on the stride.
        first = max(done, cfg.burn_in_steps)
        first += -(first - cfg.burn_in_steps) % cfg.record_stride
        if first < done + chunk:
            np.matmul(noise_rows, noise_map, out=rec)
            np.matmul(states[:, :n_sub].transpose(0, 2, 1, 3), start, out=part)
            rec += part
            rec += offset
            block = rows[:, :n_traj, first - done : chunk : cfg.record_stride]
            sink(block.reshape(n_points * n_traj, -1, n_rec))
        states[:, 0] = states[:, full]
        done += chunk


def _draw_noise_chunk(rngs: list, chunk: int, noise: np.ndarray) -> None:
    """Draw chunk steps of standard normals for each trajectory into
    noise[j, :chunk].

    Trajectory j draws one (chunk, 9) block from rngs[j], the draw of
    ``sample_increment_block`` without its scale, which the lifted
    operators carry; its columns are in the order of the noise-driven real
    coordinates.
    """
    for rng, block in zip(rngs, noise):
        rng.standard_normal(out=block[:chunk])


def _warn_if_aliasing(params: SystemParams, dt: float) -> None:
    nyquist = np.pi / dt  # rad/s
    if 2.0 * params.omega_L > 0.9 * nyquist:
        logger.warning(
            "2*omega_L = %.3g rad/s is above 90%% of the Nyquist band for dt=%.3g s; "
            "spin-noise peaks will alias",
            2.0 * params.omega_L,
            dt,
        )


# The largest rate the steady-state solve takes: one whose square is
# finite.  Beyond it the scaled system loses its relaxation to rounding
# (b_gauss=1e300 and delta_hz=1e306 lose rank, and would be called not
# unique) or the residual's norm overflows.  Every rate is finite, so only
# a rate beyond it can make the drift, or its scaled system, non-finite.
_MAX_SOLVE_RATE = math.sqrt(np.finfo(float).max)


def _solve_steady(params: SystemParams) -> tuple[np.ndarray, int]:
    """Least-squares solution, in real coordinates, of the drift's
    stationarity with a unit-trace row, time rescaled by the largest rate,
    and the rank of that system."""
    g, c = superoperator(params)
    scale = params.rate_scale()
    m = np.vstack([g / scale, _ROW == _COL])   # unit trace
    rhs = np.append(-c / scale, 1.0)
    solution, _, rank, _ = np.linalg.lstsq(m, rhs, rcond=None)
    return solution, rank


def steady_state(params: SystemParams) -> np.ndarray:
    """Stationary density matrix of the deterministic drift, unit trace.

    Solves the real generator's system (``superoperator``) with a trace
    constraint, after rescaling time by the largest rate so the reported
    residual is dimensionless; the state is Hermitian by construction.
    Raises SteadyStateError if a rate is beyond the solve's range (named),
    the state is not unique (e.g. all relaxation rates zero), the rates
    span more than double precision resolves, or the residual exceeds
    1e-10.

    A short rank is told apart by the system's unit-rate twin, every
    nonzero rate set to 1 rad/s: a twin of full rank has a unique state,
    so the rank was lost to the span of the rates, not to a degeneracy.
    """
    if params.gamma0 == 0.0 and params.gamma_t == 0.0:
        raise SteadyStateError(
            "no unique steady state: gamma0 and gamma_t are both zero"
        )
    name = max(RATE_FIELDS, key=lambda rate: abs(getattr(params, rate)))
    if params.rate_scale() > _MAX_SOLVE_RATE:
        raise SteadyStateError(
            f"{name} = {getattr(params, name):.3g} rad/s is out of the steady-state solve's "
            f"range: its square overflows (rates up to {_MAX_SOLVE_RATE:.3g} rad/s)"
        )
    solution, rank = _solve_steady(params)
    if rank < VEC_DIM:
        twin = replace(
            params, **{rate: 1.0 for rate in RATE_FIELDS if getattr(params, rate) != 0.0}
        )
        if _solve_steady(twin)[1] < VEC_DIM:
            raise SteadyStateError(
                f"steady state is not unique (rank {rank} < {VEC_DIM})"
            )
        relaxation = ", ".join(
            f"{rate} = {getattr(params, rate):.3g}"
            for rate in ("gamma0", "gamma_opt", "gamma_t", "gamma_R")
        )
        raise SteadyStateError(
            f"the rates span more than double precision resolves (rank {rank} < {VEC_DIM}): "
            f"{name} = {getattr(params, name):.3g} rad/s against relaxation rates "
            f"{relaxation} rad/s"
        )
    rho = from_real(solution)
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
    if not 0 <= omega_L < math.inf:
        raise DomainError(f"omega_L must be >= 0 and finite, got {omega_L}")
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
