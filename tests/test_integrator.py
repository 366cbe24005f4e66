import logging
import re

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from spinnoise import integrator
from spinnoise.config import load_config
from spinnoise.core import SystemParams, equilibrium_rho, liouville_rhs
from spinnoise.detection import readout_matrix
from spinnoise.exceptions import (
    ConfigError,
    ContractViolationError,
    DomainError,
    NumericError,
    SteadyStateError,
)
from spinnoise.integrator import (
    REAL_COORDS,
    Propagator,
    VEC_DIM,
    _expm,
    TrajectoryConfig,
    evolve,
    evolve_ensemble_coherences,
    free_evolve_ground,
    from_real,
    steady_state,
    steady_state_residual,
    superoperator,
    to_real,
)
from spinnoise.noise import noise_stats, sample_increment_block

from _ou_oracle import real_drift, real_from_mat, mat_from_real
from _step_reference import step, step_rho

TWOPI = 2.0 * np.pi
SQRT2 = np.sqrt(2.0)


def params(**kw):
    return SystemParams.from_lab_units(**kw)


# Moderate rates: every frequency resolved by dt = 1e-8 s.
SOFT = dict(
    b_gauss=0.2, rabi_hz=1e6, theta_deg=25.0, delta_hz=2e6,
    gamma0_hz=1e5, gamma_opt_hz=3e6, gamma_t_hz=3e4, gamma_r_hz=3e4,
)


class TestTrajectoryConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            TrajectoryConfig(dt=0.0, n_steps=10)
        with pytest.raises(ConfigError):
            TrajectoryConfig(dt=1e-8, n_steps=5, burn_in_steps=6)
        with pytest.raises(ConfigError):
            TrajectoryConfig(dt=1e-8, n_steps=5, record_stride=0)

    @pytest.mark.parametrize("dt", [np.nan, np.inf])
    def test_rejects_non_finite_dt(self, dt):
        with pytest.raises(ConfigError, match="^dt must be finite and > 0"):
            TrajectoryConfig(dt=dt, n_steps=5)

    def test_recorded_count(self):
        cfg = TrajectoryConfig(dt=1e-8, n_steps=10, burn_in_steps=3, record_stride=2)
        assert cfg.n_recorded == 4  # steps 4, 6, 8, 10


class TestSuperoperator:
    def test_matches_rhs_on_random_states(self):
        # The real generator in the engine's coordinates: G x + c is the
        # right-hand side of the state with coordinates x.
        p = params(theta_deg=40.0)
        g, c = superoperator(p)
        assert g.shape == (16, 16) and c.shape == (16,)
        assert g.dtype == float and c.dtype == float
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = 0.5 * (m + np.conj(m.T))
            direct = liouville_rhs(rho, p)
            assert np.allclose(from_real(g @ to_real(rho) + c), direct, rtol=1e-12, atol=1e-3)


class TestPropagator:
    def test_exact_against_ode_solver(self):
        p = params(**SOFT)
        dt = 1e-7
        rho0 = equilibrium_rho()
        rho0[0, 0], rho0[1, 1] = 0.5, 1.0 / 6.0
        prop = Propagator(p, dt)
        stepped = step_rho(prop, rho0)

        def rhs(_, y):
            rho = (y[:16] + 1j * y[16:]).reshape(4, 4)
            out = liouville_rhs(rho, p).reshape(16)
            return np.concatenate([out.real, out.imag])

        y0 = np.concatenate([rho0.reshape(16).real, rho0.reshape(16).imag])
        sol = scipy.integrate.solve_ivp(
            rhs, (0.0, dt), y0, rtol=1e-12, atol=1e-14, dense_output=False
        )
        reference = (sol.y[:16, -1] + 1j * sol.y[16:, -1]).reshape(4, 4)
        assert np.allclose(stepped, reference, atol=1e-10)

    def test_matches_real_representation_exponential(self):
        # Same exponential built along an entirely different route.
        p = params(b_gauss=1.0, rabi_hz=40e6, theta_deg=55.0, delta_hz=1.5e9)
        dt = 1.0 / 18e6
        prop = Propagator(p, dt)
        a_real, b_real = real_drift(p)
        e_real = scipy.linalg.expm(a_real * dt)
        rng = np.random.default_rng(8)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = 0.5 * (m + np.conj(m.T))
        stepped = step_rho(prop, rho)
        # The affine piece needs the fixed point of the real representation.
        x_star = np.linalg.solve(a_real, -b_real)
        x = real_from_mat(rho)
        via_real = mat_from_real(e_real @ (x - x_star) + x_star)
        assert np.allclose(stepped, via_real, atol=1e-10)

    @pytest.mark.parametrize("dt", [0.0, -1e-8, np.nan, np.inf])
    def test_rejects_bad_dt(self, dt):
        with pytest.raises(ConfigError, match="^dt must be finite and > 0"):
            Propagator(params(), dt)

    def test_overflowing_exponential_refused(self):
        # Finite parameters whose rates times dt overflow the exponential.
        with np.errstate(all="ignore"):
            with pytest.raises(NumericError, match="non-finite propagator"):
                Propagator(params(b_gauss=1e300), 1e-8)

    def test_first_order_agreement_with_euler(self):
        p = params(**SOFT)
        rho = equilibrium_rho()
        rho[0, 0], rho[2, 2] = 0.4, 0.6 - 1.0 / 3.0

        def euler_gap(dt):
            exact = step_rho(Propagator(p, dt), rho)
            euler = rho + dt * liouville_rhs(rho, p)
            return np.max(np.abs(exact - euler))

        gap1, gap2 = euler_gap(1e-8), euler_gap(5e-9)
        assert gap1 / gap2 == pytest.approx(4.0, rel=0.35)  # O(dt^2) difference


def augmented(p, dt):
    """The real 17x17 matrix [[G, c], [0, 0]] dt whose exponential the propagator takes."""
    g, c = superoperator(p)
    aug = np.zeros((VEC_DIM + 1, VEC_DIM + 1))
    aug[:VEC_DIM, :VEC_DIM] = g * dt
    aug[:VEC_DIM, VEC_DIM] = c * dt
    return aug


def expm_error(m):
    """Largest deviation of _expm from scipy.linalg.expm, relative to its largest entry."""
    want = scipy.linalg.expm(m)
    return np.max(np.abs(_expm(m) - want)) / np.max(np.abs(want))


class TestExpm:
    @pytest.mark.parametrize(
        "preset", ["fig3_end", "fig3_rnd", "fig5_absorption", "fig6_end", "fig6_rnd"]
    )
    def test_matches_scipy_on_every_preset_point(self, preset):
        cfg = load_config(preset=preset)
        for value in cfg.axis_values():
            assert expm_error(augmented(cfg.system_params(value), cfg.dt_s)) <= 1e-12, value

    def test_zero_matrix(self):
        assert expm_error(np.zeros((17, 17))) <= 1e-12

    def test_far_preset_takes_seven_squarings(self):
        # ||[G, c] dt||_1 is about 497 at the far preset: 2^6 < 497 / theta_13 <= 2^7.
        cfg = load_config(preset="fig3_end")
        aug = augmented(cfg.system_params(30.0), cfg.dt_s)
        assert 2**6 < np.linalg.norm(aug, 1) / integrator._THETA13 <= 2**7
        assert expm_error(aug) <= 1e-12

    @given(
        theta=st.floats(0.0, 180.0),
        b_gauss=st.floats(0.0, 3.0),
        delta_hz=st.floats(-5e9, 5e9),
        rabi_hz=st.floats(0.0, 80e6),
        dt=st.floats(1e-9, 1e-6),
    )
    @example(theta=0.0, b_gauss=0.0, delta_hz=2.2250738585072e-309, rabi_hz=0.0, dt=1e-6)
    @settings(deadline=None, max_examples=100)
    def test_matches_scipy_on_drawn_points(self, theta, b_gauss, delta_hz, rabi_hz, dt):
        # The exponential's condition number grows with ||[G, c] dt||_1 (up
        # to about 2e4 here), so the bound does too past a norm of 1000.  With
        # no field, no probe and a subnormal detuning the matrix is triangular.
        point = params(b_gauss=b_gauss, rabi_hz=rabi_hz, theta_deg=theta, delta_hz=delta_hz)
        aug = augmented(point, dt)
        want = scipy.linalg.expm(aug)
        error = np.max(np.abs(_expm(aug) - want)) / np.max(np.abs(want))
        assert error <= 1e-12 * max(1.0, np.linalg.norm(aug, 1) / 1000.0)


class TestStep:
    """Properties of a step, on the engine (``evolve``)."""

    def test_fixed_point_without_rates(self):
        p = params(
            b_gauss=0.0, rabi_hz=0.0, gamma0_hz=0.0, gamma_opt_hz=0.0,
            gamma_t_hz=0.0, gamma_r_hz=0.0,
        )
        rho = equilibrium_rho()
        out = evolve(rho, p, TrajectoryConfig(dt=1e-8, n_steps=1), np.random.default_rng(0))
        assert np.allclose(out[0], rho, atol=1e-15)

    def test_noise_off_does_not_consume_rng(self):
        p = params()
        rng = np.random.default_rng(1)
        evolve(equilibrium_rho(), p, TrajectoryConfig(dt=1e-8, n_steps=300), rng, with_noise=False)
        assert rng.standard_normal() == np.random.default_rng(1).standard_normal()

    def test_rejects_non_hermitian(self):
        rho = equilibrium_rho()
        rho[0, 2] = 0.3
        with pytest.raises(ContractViolationError):
            evolve(rho, params(), TrajectoryConfig(dt=1e-8, n_steps=1), np.random.default_rng(0))

    def test_numeric_error_on_overflow(self):
        # Finite, but a step from it could overflow: the engine refuses it.
        rho = equilibrium_rho()
        rho[0, 0] = 1e308
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError):
                evolve(rho, params(), TrajectoryConfig(dt=1e-8, n_steps=1), np.random.default_rng(0))

    @pytest.mark.parametrize("n_steps, steps", [(1, "0..0 of 1"), (5000, "0..255 of 5000")])
    def test_finite_state_out_of_range_is_not_called_non_finite(self, n_steps, steps):
        # A finite start from which a step could overflow is named as out
        # of the safe range, even where the chunk's steps then overflow; a
        # NaN start is non-finite.
        rho = equilibrium_rho()
        rho[0, 0] = 1e308
        cfg = TrajectoryConfig(dt=1e-8, n_steps=n_steps)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(
                NumericError,
                match=rf"^state out of the safe range in trajectory 0 during steps {steps}: "
                r"max \|x\| = 1e\+308 exceeds 5\.7\de\+307, from which a step could overflow$",
            ):
                evolve(rho, params(), cfg, np.random.default_rng(0))
            rho[0, 0] = np.nan
            with pytest.raises(
                NumericError, match=rf"^non-finite state in trajectory 0 during steps {steps}$"
            ):
                evolve(rho, params(), cfg, np.random.default_rng(0))

    def test_trace_relaxes_at_transit_rate(self):
        p = params(rabi_hz=20e6)
        dt = 1.0 / 18e6
        cfg = TrajectoryConfig(dt=dt, n_steps=2000)
        states = evolve(1.1 * equilibrium_rho(), p, cfg, np.random.default_rng(0), with_noise=False)
        traces = np.trace(states, axis1=1, axis2=2).real - 1.0
        t = dt * np.arange(1, 2001)
        rate = -np.polyfit(t, np.log(traces), 1)[0]
        assert rate == pytest.approx(p.gamma_t, rel=0.01)

    def test_converges_to_steady_state(self):
        p = params(b_gauss=1.0, rabi_hz=40e6, theta_deg=30.0, delta_hz=1.5e9)
        target = steady_state(p)
        dt = 1.0 / 18e6
        n = int(15.0 / (p.gamma_t * dt)) + 1
        cfg = TrajectoryConfig(dt=dt, n_steps=n, burn_in_steps=n - 1)
        rho = evolve(equilibrium_rho(), p, cfg, np.random.default_rng(0), with_noise=False)[-1]
        assert np.max(np.abs(rho - target)) < 1e-6

    def test_halving_dt_leaves_noise_free_path(self):
        p = params(b_gauss=1.0, rabi_hz=40e6, delta_hz=1.5e9)
        rng = np.random.default_rng(0)

        def endpoint(dt, n):
            cfg = TrajectoryConfig(dt=dt, n_steps=n, burn_in_steps=n - 1)
            return evolve(equilibrium_rho(), p, cfg, rng, with_noise=False)[-1]

        coarse = endpoint(1.0 / 18e6, 200)
        fine = endpoint(0.5 / 18e6, 400)
        assert np.max(np.abs(coarse - fine)) < 1e-9


class TestEvolve:
    def test_short_run_never_returns_non_finite_states(self):
        # Five steps are less than one 16-step sub-block, whose start state
        # is the only one the engine checks: a NaN dt, or finite parameters
        # whose propagator overflows, must be refused, not stepped.
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError, match="^dt must be finite"):
            evolve(equilibrium_rho(), params(), TrajectoryConfig(dt=np.nan, n_steps=5), rng)
        with np.errstate(all="ignore"):
            with pytest.raises(NumericError, match="non-finite propagator"):
                evolve(
                    equilibrium_rho(), params(b_gauss=1e300), TrajectoryConfig(dt=1e-8, n_steps=5),
                    rng,
                )

    def test_burn_in_equals_steps_gives_empty(self):
        cfg = TrajectoryConfig(dt=1e-8, n_steps=5, burn_in_steps=5)
        out = evolve(equilibrium_rho(), params(), cfg, np.random.default_rng(0))
        assert out.shape == (0, 4, 4)

    def test_stride_subsamples(self):
        p = params(n_atoms=1e6)
        base = TrajectoryConfig(dt=1e-8, n_steps=64, burn_in_steps=0, record_stride=1)
        strided = TrajectoryConfig(dt=1e-8, n_steps=64, burn_in_steps=0, record_stride=2)
        a = evolve(equilibrium_rho(), p, base, np.random.default_rng(21))
        b = evolve(equilibrium_rho(), p, strided, np.random.default_rng(21))
        assert np.array_equal(a[::2], b)

    def test_deterministic_given_seed(self):
        p = params(n_atoms=1e6)
        cfg = TrajectoryConfig(dt=1e-8, n_steps=50, burn_in_steps=10)
        a = evolve(equilibrium_rho(), p, cfg, np.random.default_rng(4))
        b = evolve(equilibrium_rho(), p, cfg, np.random.default_rng(4))
        assert np.array_equal(a, b)

    def test_recorded_states_hermitian_unit_trace(self):
        p = params(n_atoms=1e6)
        cfg = TrajectoryConfig(dt=1.0 / 18e6, n_steps=200)
        out = evolve(equilibrium_rho(), p, cfg, np.random.default_rng(5))
        assert np.allclose(out, np.conj(np.swapaxes(out, 1, 2)))
        assert np.allclose(np.trace(out, axis1=1, axis2=2).imag, 0.0)


class TestRealCoordinates:
    def test_round_trip(self):
        rng = np.random.default_rng(9)
        m = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
        rho = 0.5 * (m + np.conj(np.swapaxes(m, 1, 2)))
        x = to_real(rho)
        assert x.shape == (3, 16) and x.dtype == float
        assert np.array_equal(from_real(x), rho)

    def test_stack_converts_as_each_state(self):
        # So the engine converts the start states of all points in one call.
        rng = np.random.default_rng(10)
        m = rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4))
        rho = 0.5 * (m + np.conj(np.swapaxes(m, 1, 2)))
        x = to_real(rho)
        assert np.array_equal(x, np.stack([to_real(r) for r in rho]))
        assert np.array_equal(from_real(x), np.stack([from_real(v) for v in x]))

    def test_reads_the_lower_entries_named(self):
        # Every real and imaginary part of the lower triangle is named once,
        # and the upper triangle is never read: a non-Hermitian matrix
        # gives the parts of its own lower entries.
        assert all(i >= j for i, j, _ in REAL_COORDS)
        assert len(set(REAL_COORDS)) == 16
        assert not any(i == j and part == "im" for i, j, part in REAL_COORDS)
        rng = np.random.default_rng(11)
        rho = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        named = [rho[i, j].imag if part == "im" else rho[i, j].real for i, j, part in REAL_COORDS]
        assert np.array_equal(to_real(rho), named)

    def test_layout(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[1, 1], rho[2, 0], rho[0, 2] = 0.5, 0.25 - 0.75j, 0.25 + 0.75j
        rho[3, 0], rho[0, 3] = 1.0 + 2.0j, 1.0 - 2.0j
        rho[3, 2], rho[2, 3] = 3.0 - 4.0j, 3.0 + 4.0j
        x = to_real(rho)
        assert x[1] == 0.5 and x[4] == 0.25 and x[7] == -0.75
        assert np.array_equal(x[12:16], [1.0, 2.0, 3.0, -4.0])


class TestEngine:
    def test_batch_of_one_matches_repeated_step(self):
        # Runs over several 256-step chunks and ends in a partial one;
        # neither the burn-in nor the stride divides the chunk length.
        p = params(b_gauss=1.0, rabi_hz=40e6, theta_deg=30.0, delta_hz=1.5e9, n_atoms=1e5)
        cfg = TrajectoryConfig(dt=1.0 / 18e6, n_steps=5000, burn_in_steps=37, record_stride=3)
        rho0 = steady_state(p)
        rng_engine, rng_step = np.random.default_rng(42), np.random.default_rng(42)
        engine = evolve(rho0, p, cfg, rng_engine)
        rho = rho0
        reference = []
        for k in range(cfg.n_steps):
            rho = step(rho, p, cfg.dt, rng_step)
            if k >= cfg.burn_in_steps and (k - cfg.burn_in_steps) % cfg.record_stride == 0:
                reference.append(rho)
        assert engine.shape == (cfg.n_recorded, 4, 4) == (len(reference), 4, 4)
        assert np.allclose(engine, np.array(reference), rtol=0.0, atol=1e-12)
        # Both consumed the generator by the same amount.
        assert rng_engine.standard_normal() == rng_step.standard_normal()

    def test_ensemble_columns_match_batch_of_one(self):
        p = params(b_gauss=1.0, rabi_hz=40e6, theta_deg=30.0, delta_hz=1.5e9, n_atoms=1e5)
        cfg = TrajectoryConfig(dt=1.0 / 18e6, n_steps=4500, burn_in_steps=100, record_stride=2)
        rho0 = steady_state(p)
        keys = [[7, 0], [7, 1]]
        coherences = evolve_ensemble_coherences(p, cfg, keys, rho0=rho0).view(complex)
        for j, key in enumerate(keys):
            states = evolve(rho0, p, cfg, np.random.default_rng(key))
            assert np.allclose(coherences[:, j, 0], states[:, 3, 0], rtol=0.0, atol=1e-13)
            assert np.allclose(coherences[:, j, 1], states[:, 3, 2], rtol=0.0, atol=1e-13)

    def test_numeric_error_names_trajectory_and_steps(self):
        # Every entry at 1e308: the first step's sums overflow.
        rho = np.full((4, 4), 1e308, dtype=complex)
        cfg = TrajectoryConfig(dt=1e-8, n_steps=5000)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match=r"trajectory 0 during steps 0\.\.255 of 5000"):
                evolve_ensemble_coherences(params(), cfg, [[0], [1], [2]], rho0=rho)
            with pytest.raises(NumericError, match=r"trajectory 0 during steps 0\.\.255"):
                evolve(rho, params(), cfg, np.random.default_rng(0))


class TestLiftedEngine:
    """The engine advances sub-blocks of 16 steps with lifted operators;
    chunks are 256 steps.  These pin it against the plain step recursion
    and pin the batch and block layouts."""

    P = dict(b_gauss=1.0, rabi_hz=40e6, theta_deg=30.0, delta_hz=1.5e9, n_atoms=1e5)

    @pytest.mark.parametrize("n_steps", [1, 15, 16, 17, 255, 257, 5000])
    def test_noise_free_run_matches_repeated_real_steps(self, n_steps):
        # Sub-block and chunk edges, a partial sub-block on either side.
        p = params(**self.P)
        dt = 1.0 / 18e6
        rho0 = equilibrium_rho()
        rho0[0, 0], rho0[1, 1], rho0[2, 1], rho0[1, 2] = 0.5, 1.0 / 6.0, 0.1j, -0.1j
        cfg = TrajectoryConfig(dt=dt, n_steps=n_steps)
        engine = to_real(evolve(rho0, p, cfg, np.random.default_rng(0), with_noise=False))
        prop = Propagator(p, dt)
        x = to_real(rho0)
        reference = []
        for _ in range(n_steps):
            x = x @ prop.real_matrix_t + prop.real_offset
            reference.append(x)
        reference = np.array(reference)
        assert engine.shape == reference.shape
        assert np.max(np.abs(engine - reference)) <= 1e-13 * np.max(np.abs(reference))

    @pytest.mark.parametrize("n_traj", [1, 2, 3, 17])
    def test_ensemble_columns_equal_batch_of_one_runs(self, n_traj):
        # 1000 steps end in a partial chunk and a partial sub-block; the
        # burn-in and the stride divide neither.
        p = params(**self.P)
        cfg = TrajectoryConfig(dt=1.0 / 18e6, n_steps=1000, burn_in_steps=37, record_stride=3)
        rho0 = steady_state(p)
        keys = [[12, t] for t in range(n_traj)]
        ensemble = evolve_ensemble_coherences(p, cfg, keys, rho0=rho0)
        for j, key in enumerate(keys):
            alone = evolve_ensemble_coherences(p, cfg, [key], rho0=rho0)
            assert np.array_equal(ensemble[:, j], alone[:, 0])

    def test_sink_blocks_are_trajectory_major_per_chunk(self):
        # Two points of three trajectories; steps 37, 40, ... of 600: 73
        # rows fall in the first 256-step chunk, 86 in the second, 29 in
        # the last, partial one.
        points = TestStackedPoints.points()[:2]
        cfg = TrajectoryConfig(dt=1.0 / 18e6, n_steps=600, burn_in_steps=37, record_stride=3)
        keys = [[13, point, t] for point in range(2) for t in range(3)]
        blocks = []
        evolve_ensemble_coherences(points, cfg, keys, sink=lambda rows: blocks.append(rows.copy()))
        assert [block.shape for block in blocks] == [(6, 73, 4), (6, 86, 4), (6, 29, 4)]
        assert all(block.dtype == float for block in blocks)
        record = evolve_ensemble_coherences(points, cfg, keys)
        for key in range(6):
            assert np.array_equal(np.concatenate([block[key] for block in blocks]), record[:, key])


class TestStackedPoints:
    """Several points stepped in one engine call, one matrix per point."""

    @staticmethod
    def points():
        return [
            params(b_gauss=1.0, rabi_hz=40e6, theta_deg=theta, delta_hz=1.5e9, n_atoms=1e5)
            for theta in (0.0, 30.0, 75.0)
        ]

    @staticmethod
    def mixed_points():
        # Points that differ in field (0 and 1 G), detuning and transit
        # rate, the last without transit noise: their safe sizes and kick
        # rows differ, and the last has all-zero kicks and draws nothing.
        return [
            params(b_gauss=0.0, theta_deg=30.0, delta_hz=1.5e9, n_atoms=1e5),
            params(b_gauss=1.0, theta_deg=30.0, delta_hz=0.3e9, n_atoms=1e5, gamma_t_hz=1e5),
            params(b_gauss=1.0, theta_deg=30.0, delta_hz=0.9e9, gamma_t_hz=0.0),
        ]

    # Runs over several 256-step chunks (18, the last partial); burn-in and
    # stride divide neither.
    CFG = TrajectoryConfig(dt=1.0 / 18e6, n_steps=4500, burn_in_steps=37, record_stride=3)

    def stacked_and_alone(self, points, n_traj, seed):
        starts = [steady_state(p) for p in points]
        keys = [[seed, point, t] for point in range(len(points)) for t in range(n_traj)]
        stacked = evolve_ensemble_coherences(points, self.CFG, keys, rho0=starts)
        assert stacked.shape == (self.CFG.n_recorded, len(points) * n_traj, 4)
        for i, (p, rho0) in enumerate(zip(points, starts)):
            alone = evolve_ensemble_coherences(
                p, self.CFG, keys[i * n_traj : (i + 1) * n_traj], rho0=rho0
            )
            assert np.array_equal(stacked[:, i * n_traj : (i + 1) * n_traj], alone)
        return stacked

    @pytest.mark.parametrize("n_traj", [1, 3])
    def test_stacked_records_equal_separate_runs(self, n_traj):
        self.stacked_and_alone(self.points(), n_traj, 5)

    @pytest.mark.parametrize("n_traj", [1, 3])
    def test_mixed_points_equal_separate_runs(self, monkeypatch, n_traj):
        draws = []
        draw = integrator._draw_noise_chunk

        def counted(rngs, chunk, noise):
            draws.append(len(rngs))
            draw(rngs, chunk, noise)

        monkeypatch.setattr(integrator, "_draw_noise_chunk", counted)
        stacked = self.stacked_and_alone(self.mixed_points(), n_traj, 11)
        # The stacked call draws for the two noisy points in each of its 18
        # chunks, and the runs alone do so once more; the noise-free point
        # never draws, and its trajectories stay equal.
        assert draws == [n_traj] * (2 * 18) * 2
        quiet = stacked[:, 2 * n_traj :]
        assert np.array_equal(quiet, np.broadcast_to(quiet[:, :1], quiet.shape))

    def test_mixed_operators_are_each_points_own(self):
        # The batched build gives every point the bits it gets alone.
        props = [Propagator(p, self.CFG.dt) for p in self.mixed_points()]
        records = np.random.default_rng(3).standard_normal((3, VEC_DIM, 2))
        stacked = integrator._lifted(props, records)
        for i, prop in enumerate(props):
            alone = integrator._lifted([prop], records[i : i + 1])
            for op, op_alone in zip(stacked, alone):
                assert np.array_equal(op[i : i + 1], op_alone)
        safe_size = stacked[-1][:, 0]
        assert len(set(safe_size)) == 3
        noise = stacked[4]
        assert noise[:2].any(axis=(1, 2, 3)).all() and not noise[2].any()

    def test_batch_of_one_point(self):
        cfg = TrajectoryConfig(dt=1.0 / 18e6, n_steps=700, burn_in_steps=10)
        p = self.points()[1]
        keys = [[8, 0], [8, 1]]
        assert np.array_equal(
            evolve_ensemble_coherences([p], cfg, keys, rho0=[steady_state(p)]),
            evolve_ensemble_coherences(p, cfg, keys, rho0=steady_state(p)),
        )

    def test_sink_gets_the_record_in_blocks_and_none_is_held(self):
        cfg = TrajectoryConfig(dt=1.0 / 18e6, n_steps=1000, burn_in_steps=300, record_stride=2)
        points = self.points()[:2]
        keys = [[6, t] for t in range(4)]
        blocks = []
        held = evolve_ensemble_coherences(points, cfg, keys, sink=lambda rows: blocks.append(rows.copy()))
        assert held.shape == (0, 4, 4)
        assert all(block.shape[1] <= 256 for block in blocks)
        assert np.array_equal(
            np.concatenate(blocks, axis=1).transpose(1, 0, 2),
            evolve_ensemble_coherences(points, cfg, keys),
        )

    def test_numeric_error_names_point_and_trajectory(self):
        points = self.points()
        rho = np.full((4, 4), 1e308, dtype=complex)
        starts = [steady_state(points[0]), rho, rho]
        cfg = TrajectoryConfig(dt=1.0 / 18e6, n_steps=5000)
        keys = [[0, t] for t in range(6)]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match=r"trajectory 4 during steps 0\.\.255 of 5000") as info:
                evolve_ensemble_coherences(points, cfg, keys, rho0=starts, first_trajectory=4)
        assert info.value.point == 1

    def test_keys_must_split_evenly_over_points(self):
        cfg = TrajectoryConfig(dt=1e-8, n_steps=10)
        with pytest.raises(DomainError, match="split evenly"):
            evolve_ensemble_coherences(self.points()[:2], cfg, [[0], [1], [2]])


class TestFusedReadout:
    """The engine's lifted operators carry the noise scale and a readout, so
    one call goes from standard-normal draws to the detected signals."""

    CFG = TrajectoryConfig(dt=1.0 / 18e6, n_steps=5000, burn_in_steps=37, record_stride=3)

    @staticmethod
    def readouts(points):
        return np.stack([readout_matrix(p) for p in points])

    def test_signals_equal_held_coherences_through_the_readout(self):
        # Two stacked points, over several chunks and into a partial one;
        # burn-in and stride divide neither.
        points = TestStackedPoints.points()[:2]
        starts = [steady_state(p) for p in points]
        keys = [[14, point, t] for point in range(2) for t in range(3)]
        readouts = self.readouts(points)
        signals = evolve_ensemble_coherences(points, self.CFG, keys, rho0=starts, readout=readouts)
        coherences = evolve_ensemble_coherences(points, self.CFG, keys, rho0=starts)
        assert signals.shape == (self.CFG.n_recorded, 6, 2) and signals.dtype == float
        coords = coherences.reshape(self.CFG.n_recorded, 2, 3, 4)
        expected = np.einsum("npti,pim->nptm", coords, readouts).reshape(signals.shape)
        scale = np.abs(expected).max()
        assert np.max(np.abs(signals - expected)) <= 1e-13 * scale

    @pytest.mark.parametrize("n_traj", [1, 2, 3, 17])
    def test_signal_columns_do_not_depend_on_the_batch(self, n_traj):
        p = TestStackedPoints.points()[1]
        cfg = TrajectoryConfig(dt=1.0 / 18e6, n_steps=1000, burn_in_steps=37, record_stride=3)
        g = readout_matrix(p)
        keys = [[15, t] for t in range(n_traj)]
        ensemble = evolve_ensemble_coherences(p, cfg, keys, rho0=steady_state(p), readout=g)
        for j, key in enumerate(keys):
            alone = evolve_ensemble_coherences(p, cfg, [key], rho0=steady_state(p), readout=g)
            assert np.array_equal(ensemble[:, j], alone[:, 0])

    @pytest.mark.parametrize("n_traj", [1, 3])
    def test_stacked_signals_equal_separate_runs(self, n_traj):
        points = TestStackedPoints.points()
        starts = [steady_state(p) for p in points]
        keys = [[16, point, t] for point in range(len(points)) for t in range(n_traj)]
        readouts = self.readouts(points)
        stacked = evolve_ensemble_coherences(points, self.CFG, keys, rho0=starts, readout=readouts)
        for i, (p, rho0) in enumerate(zip(points, starts)):
            alone = evolve_ensemble_coherences(
                p, self.CFG, keys[i * n_traj : (i + 1) * n_traj], rho0=rho0, readout=readouts[i]
            )
            assert np.array_equal(stacked[:, i * n_traj : (i + 1) * n_traj], alone)

    def test_sink_blocks_equal_the_held_signals(self):
        points = TestStackedPoints.points()[:2]
        keys = [[17, point, t] for point in range(2) for t in range(3)]
        readouts = self.readouts(points)[..., 1:]
        blocks = []
        held = evolve_ensemble_coherences(
            points, self.CFG, keys, readout=readouts, sink=lambda rows: blocks.append(rows.copy())
        )
        assert held.shape == (0, 6, 1)
        assert all(block.dtype == float and block.shape[0] == 6 for block in blocks)
        assert np.array_equal(
            np.concatenate(blocks, axis=1).transpose(1, 0, 2),
            evolve_ensemble_coherences(points, self.CFG, keys, readout=readouts),
        )

    def test_default_record_is_the_identity_readout(self):
        # The four coherence coordinates, (Re, Im) of rho[3,0] then of
        # rho[3,2]: the same bits as an explicit 4x4 identity readout.
        points = TestStackedPoints.points()[:2]
        keys = [[19, point, t] for point in range(2) for t in range(2)]
        default = evolve_ensemble_coherences(points, self.CFG, keys)
        assert default.shape == (self.CFG.n_recorded, 4, 4) and default.dtype == float
        assert np.array_equal(
            default, evolve_ensemble_coherences(points, self.CFG, keys, readout=np.eye(4))
        )

    def test_readout_shape_is_checked(self):
        points = TestStackedPoints.points()[:2]
        with pytest.raises(DomainError, match="readout"):
            evolve_ensemble_coherences(
                points, self.CFG, [[0], [1]], readout=self.readouts(points[:1] * 3)
            )

    @pytest.mark.parametrize("readout", [np.ones((3, 2)), np.ones(4), np.ones((2, 3, 2))])
    def test_readout_of_the_wrong_shape_refused_by_its_own_shape(self, readout):
        # Two points take one (4, M) map or two; the message names the shape
        # given, not that of a map broadcast over the points.
        points = TestStackedPoints.points()[:2]
        shape = re.escape(str(readout.shape))
        with pytest.raises(DomainError, match=f"^readout must be one \\(4, M\\) map or one per point, got {shape}$"):
            evolve_ensemble_coherences(points, self.CFG, [[0], [1]], readout=readout)

    def test_raw_draws_times_scale_are_the_increment_block(self):
        # The engine draws standard normals; the lifted operators hold the
        # scale.  Two chunks of one trajectory's draws against the noise
        # generator's scaled blocks of the same lengths.
        stats = noise_stats(3e4, 1.0 / 18e6, 1e5)
        rng_raw, rng_block = np.random.default_rng([18, 0]), np.random.default_rng([18, 0])
        raw = np.zeros((1, 256, 9))
        for chunk in (256, 100):
            integrator._draw_noise_chunk([rng_raw], chunk, raw)
            block = sample_increment_block(stats, rng_block, chunk)
            assert np.array_equal(raw[0, :chunk] * stats.block_scale, block)


class TestEnsemble:
    def test_neighbor_seeds_do_not_change_a_stream(self):
        p = params(n_atoms=1e6)
        cfg = TrajectoryConfig(dt=1.0 / 18e6, n_steps=500, burn_in_steps=100)
        a = evolve_ensemble_coherences(p, cfg, [[9, 0], [9, 1], [9, 2]])
        b = evolve_ensemble_coherences(p, cfg, [[5, 5], [9, 1], [6, 6]])
        assert np.array_equal(a[:, 1, :], b[:, 1, :])
        assert not np.array_equal(a[:, 0, :], b[:, 0, :])

    def test_needs_at_least_one_seed(self):
        cfg = TrajectoryConfig(dt=1e-8, n_steps=10)
        with pytest.raises(DomainError):
            evolve_ensemble_coherences(params(), cfg, [])

    @pytest.mark.parametrize(
        "rho0", [np.stack([np.eye(4) / 4] * 3), np.stack([np.eye(3) / 3] * 2), np.eye(3, 4) / 3]
    )
    def test_start_states_of_the_wrong_shape_refused(self, rho0):
        # Two points take one 4x4 start state or two, not three, nor two 3x3,
        # nor one 3x4; the message names the shape given.
        cfg = TrajectoryConfig(dt=1e-8, n_steps=10)
        points = TestStackedPoints.points()[:2]
        shape = re.escape(str(np.shape(rho0)))
        with pytest.raises(DomainError, match=f"^rho0 must be one 4x4 state or one per point, got {shape}$"):
            evolve_ensemble_coherences(points, cfg, [[0], [1]], rho0=rho0)

    @pytest.mark.parametrize("first_trajectory, warnings", [(0, 2), (3, 0)])
    def test_aliasing_warned_by_the_batch_holding_trajectory_0(
        self, caplog, first_trajectory, warnings
    ):
        # 2 omega_L of 1 G is above 90% of the Nyquist band at dt = 1e-7 s.
        # A point whose ensemble is split into batches warns once, from
        # the batch that starts at trajectory 0, however many batches run.
        cfg = TrajectoryConfig(dt=1e-7, n_steps=16)
        points = TestStackedPoints.points()[:2]
        with caplog.at_level(logging.WARNING, logger="spinnoise.integrator"):
            evolve_ensemble_coherences(
                points, cfg, [[0], [1]], with_noise=False, first_trajectory=first_trajectory
            )
        assert len(caplog.records) == warnings
        assert all("will alias" in rec.message for rec in caplog.records)

    def test_time_average_matches_steady_state(self):
        p = params(b_gauss=0.5, rabi_hz=30e6, theta_deg=30.0, delta_hz=0.3e9, n_atoms=1e4)
        dt = 1.0 / 18e6
        cfg = TrajectoryConfig(dt=dt, n_steps=20000, burn_in_steps=2000)
        rho_ss = steady_state(p)
        states = evolve(rho_ss, p, cfg, np.random.default_rng(17))
        means = np.real(np.einsum("tii->ti", states)[:, :3]).mean(axis=0)
        assert np.max(np.abs(means - np.real(np.diag(rho_ss)[:3]))) < 3e-3


class TestSteadyState:
    def test_no_light_equilibrium(self):
        rho = steady_state(params(rabi_hz=0.0))
        assert np.allclose(rho, equilibrium_rho(), atol=1e-12)

    def test_residual_contract(self):
        for theta in (0.0, 30.0, 54.7, 80.0):
            p = params(b_gauss=1.0, rabi_hz=40e6, theta_deg=theta, delta_hz=1.5e9)
            assert steady_state_residual(steady_state(p), p) < 1e-10

    def test_aligned_probe_empties_field_aligned_sublevel(self):
        # theta=0 drives only the m_x=0 state; population piles into m_x=+-1.
        p = params(
            b_gauss=0.0, rabi_hz=40e6, theta_deg=0.0, delta_hz=1.5e9,
            gamma_t_hz=10.0, gamma_r_hz=10.0,
        )
        rho = steady_state(p)
        v = np.array(
            [[0.5, -1 / SQRT2, 0.5], [-1 / SQRT2, 0, 1 / SQRT2], [0.5, 1 / SQRT2, 0.5]],
            dtype=complex,
        )
        pops = np.real(np.diag(np.conj(v.T) @ rho[:3, :3] @ v))
        assert pops[1] < 0.02
        assert pops[0] + pops[2] > 0.95

    def test_non_finite_rate_refused_before_the_solve(self):
        with pytest.raises(DomainError, match="^gamma_t must be finite"):
            steady_state(params(gamma_t_hz=np.nan))

    # Finite rates whose superoperator does not overflow, but whose squares
    # do: the scaled system's relaxation falls below the solve's rank
    # tolerance, which was reported as a non-unique state.
    @pytest.mark.parametrize("lab, name", [({"b_gauss": 1e300}, "omega_L"), ({"delta_hz": 1e306}, "delta")])
    def test_overflowing_rate_refused_by_name_before_the_solve(self, monkeypatch, lab, name):
        def never(*args, **kwargs):
            raise AssertionError("the system was solved")

        monkeypatch.setattr(np.linalg, "lstsq", never)
        with pytest.raises(
            SteadyStateError,
            match=rf"^{name} = -?\d\.\d\de\+30\d rad/s is out of the steady-state solve's range: "
            r"its square overflows",
        ):
            steady_state(params(**lab))

    # Finite, square-safe rates that span more than double precision
    # resolves (gamma_t / omega_L and gamma_t / delta near 1e-15) also lose
    # the solve's rank; their unit-rate twin has full rank, so the state is
    # unique and the error says what was lost.
    @pytest.mark.parametrize("lab, name", [({"b_gauss": 1e13}, "omega_L"), ({"delta_hz": 1e19}, "delta")])
    def test_lost_precision_is_not_called_not_unique(self, lab, name):
        with pytest.raises(
            SteadyStateError,
            match=rf"^the rates span more than double precision resolves \(rank 14 < 16\): "
            rf"{name} = \d\.\d\de\+\d\d rad/s against relaxation rates gamma0 = 1\.01e\+07, "
            r"gamma_opt = 5\.03e\+09, gamma_t = 1\.88e\+05, gamma_R = 1\.88e\+05 rad/s$",
        ):
            steady_state(params(**lab))

    def test_degenerate_twin_is_not_unique(self):
        # Without ground-coherence decay the twin loses rank too.
        with pytest.raises(SteadyStateError, match=r"^steady state is not unique \(rank 15 < 16\)$"):
            steady_state(params(gamma_r_hz=0.0))

    def test_all_rates_zero_rejected(self):
        p = params(gamma0_hz=0.0, gamma_t_hz=0.0)
        with pytest.raises(SteadyStateError):
            steady_state(p)

    def test_non_unique_state_detected(self):
        # Decay but no transit and no light: any ground mixture is stationary.
        p = params(rabi_hz=0.0, b_gauss=0.0, gamma_t_hz=0.0)
        with pytest.raises(SteadyStateError, match=r"^steady state is not unique \(rank 14 < 16\)$"):
            steady_state(p)


class TestFreeEvolution:
    omega = TWOPI * 1e6

    def grid(self, n=512):
        period = TWOPI / self.omega
        return np.arange(n) * (period / n)

    def test_circular_initial_state_analytic(self):
        t = self.grid()
        rhos = free_evolve_ground(np.array([1.0, 0, 0]), self.omega, t)
        x = 0.5 * self.omega * t
        pops = np.real(np.einsum("tii->ti", rhos))
        assert np.allclose(pops[:, 0], np.cos(x) ** 4, atol=1e-12)
        assert np.allclose(pops[:, 1], 0.5 * np.sin(self.omega * t) ** 2, atol=1e-12)
        assert np.allclose(pops[:, 2], np.sin(x) ** 4, atol=1e-12)

    def test_field_aligned_superposition_analytic(self):
        t = self.grid()
        ket_x = np.array([1.0, 0.0, 1.0]) / SQRT2
        ket_y = 1j * np.array([1.0, 0.0, -1.0]) / SQRT2
        ket_0 = np.array([0.0, 1.0, 0.0])
        rhos = free_evolve_ground(ket_x, self.omega, t)
        p_x = np.real(np.einsum("i,tij,j->t", np.conj(ket_x), rhos, ket_x))
        p_y = np.real(np.einsum("i,tij,j->t", np.conj(ket_y), rhos, ket_y))
        p_0 = np.real(np.einsum("i,tij,j->t", np.conj(ket_0), rhos, ket_0))
        assert np.allclose(p_x, np.cos(self.omega * t) ** 2, atol=1e-12)
        assert np.allclose(p_y, 0.0, atol=1e-12)
        assert np.allclose(p_0, np.sin(self.omega * t) ** 2, atol=1e-12)

    def test_diagonal_superposition_analytic(self):
        t = self.grid()
        ket_m = np.array([np.exp(1j * np.pi / 4), 0, np.exp(-1j * np.pi / 4)]) / SQRT2
        ket_p = np.array([np.exp(-1j * np.pi / 4), 0, np.exp(1j * np.pi / 4)]) / SQRT2
        rhos = free_evolve_ground(ket_m, self.omega, t)
        x = 0.5 * self.omega * t
        p_m = np.real(np.einsum("i,tij,j->t", np.conj(ket_m), rhos, ket_m))
        p_p = np.real(np.einsum("i,tij,j->t", np.conj(ket_p), rhos, ket_p))
        assert np.allclose(p_m, np.cos(x) ** 4, atol=1e-12)
        assert np.allclose(p_p, np.sin(x) ** 4, atol=1e-12)

    def test_unitarity_and_period(self):
        period = TWOPI / self.omega
        t = np.array([0.0, 0.3 * period, period])
        rho0 = np.diag([0.2, 0.3, 0.5]).astype(complex)
        rhos = free_evolve_ground(rho0, self.omega, t)
        for rho in rhos:
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
            purity = np.trace(rho @ rho).real
            assert purity == pytest.approx(np.trace(rho0 @ rho0).real, abs=1e-12)
        assert np.allclose(rhos[-1], rho0, atol=1e-12)

    def test_ket_and_matrix_inputs_agree(self):
        ket = np.array([0.6, 0.8j, 0.0])
        t = self.grid(16)
        a = free_evolve_ground(ket, self.omega, t)
        b = free_evolve_ground(np.outer(ket, np.conj(ket)), self.omega, t)
        assert np.allclose(a, b, atol=1e-12)

    def test_input_validation(self):
        with pytest.raises(DomainError):
            free_evolve_ground(np.array([1.0, 0, 0]), -1.0, np.array([0.0]))
        with pytest.raises(DomainError):
            free_evolve_ground(np.zeros(3), 1.0, np.array([0.0]))
        with pytest.raises(DomainError):
            free_evolve_ground(np.zeros((2, 2)), 1.0, np.array([0.0]))
        with pytest.raises(DomainError):
            free_evolve_ground(np.diag([0.5, 0.5, 0.5]).astype(complex), 1.0, np.array([0.0]))

    def test_state_not_positive_semidefinite_refused(self):
        rho = np.diag([1.5, -0.5, 0.0]).astype(complex)
        with pytest.raises(DomainError, match="^ground-state density matrix must be positive semidefinite$"):
            free_evolve_ground(rho, 1.0, np.array([0.0]))

    @pytest.mark.parametrize("omega", [np.nan, np.inf])
    def test_non_finite_frequency_refused(self, omega):
        with pytest.raises(DomainError, match=r"^omega_L must be >= 0 and finite"):
            free_evolve_ground(np.array([1.0, 0, 0]), omega, np.array([0.0]))
