import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from eigenuq import channel, tensors
from eigenuq.channel import ChannelConfig

PROPERTY = settings(max_examples=200, deadline=None)


class TestConfig:
    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError, match="re_tau"):
            ChannelConfig(re_tau=0.0)
        with pytest.raises(ValueError, match="n_cells"):
            ChannelConfig(re_tau=180.0, n_cells=4)
        with pytest.raises(ValueError, match="stretch"):
            ChannelConfig(re_tau=180.0, stretch=1.5)
        with pytest.raises(ValueError, match="residual_tol"):
            ChannelConfig(re_tau=180.0, residual_tol=0.0)


class TestGrid:
    def test_endpoints_and_monotonicity(self):
        y = channel.make_grid(1000.0, 193, 0.5)
        assert y[0] == 0.0
        assert y[-1] == pytest.approx(1000.0)
        assert np.all(np.diff(y) > 0)

    def test_first_spacing_near_target(self):
        y = channel.make_grid(1000.0, 193, 0.5)
        assert y[1] == pytest.approx(0.5, rel=0.05)

    def test_uniform_fallback_when_unstretched(self):
        y = channel.make_grid(10.0, 101, 0.5)
        assert np.allclose(np.diff(y), np.diff(y)[0])


def reference_transport_solve(y, gamma_mid, sink, source, wall_value):
    """The transport system assembled into banded storage and solved by
    scipy's validating banded solver, as the solver once did."""
    n = len(y)
    h = np.diff(y)
    sub, diag, sup, rhs = np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n)
    delta = 0.5 * (h[:-1] + h[1:])
    wm = gamma_mid[:-1] / (h[:-1] * delta)
    wp = gamma_mid[1:] / (h[1:] * delta)
    sub[1:-1] = wm
    sup[1:-1] = wp
    diag[1:-1] = -(wm + wp) + sink[1:-1]
    rhs[1:-1] = -source[1:-1]
    diag[0] = 1.0
    rhs[0] = wall_value
    wc = gamma_mid[-1] / (h[-1] * 0.5 * h[-1])
    sub[-1] = wc
    diag[-1] = -wc + sink[-1]
    rhs[-1] = -source[-1]
    ab = np.zeros((3, n))
    ab[0, 1:] = sup[:-1]
    ab[1, :] = diag
    ab[2, :-1] = sub[1:]
    return solve_banded((1, 1), ab, rhs)


grids = st.tuples(
    st.floats(10.0, 6000.0), st.integers(9, 400), st.floats(0.01, 0.99)
).map(lambda a: channel.make_grid(*a))
seeds = st.integers(0, 2**32 - 1)


class TestKernels:
    """The solver's gradient and tridiagonal kernels against the library
    calls they stand for, compared exactly."""

    @PROPERTY
    @given(y=grids, seed=seeds)
    @example(y=channel.make_grid(100.0, 201, 0.5), seed=0)  # exactly uniform spacing
    @example(y=channel.make_grid(10.0, 101, 0.5), seed=0)  # linspace, not exactly uniform
    def test_grid_gradient_is_numpy_gradient(self, y, seed):
        f = np.random.default_rng(seed).normal(size=(3, len(y))) * [[1.0], [1e3], [1e-6]]
        grid = channel._Grid(y)
        for row in f:
            assert np.array_equal(grid.grad(row), np.gradient(row, y))

    @PROPERTY
    @given(y=grids, seed=seeds)
    def test_transport_solve_matches_banded_solver(self, y, seed):
        rng = np.random.default_rng(seed)
        n = len(y)
        # positive diffusivity and nonpositive sink: diagonally dominant
        gamma_mid = rng.uniform(1.0, 1e3, n - 1)
        sink = -rng.uniform(0.0, 10.0, n)
        source = rng.normal(size=n)
        wall = rng.normal()
        x = channel._transport_solve(channel._Grid(y), gamma_mid, sink, source, wall)
        assert np.array_equal(x, reference_transport_solve(y, gamma_mid, sink, source, wall))

    def test_singular_system_raises_solver_error(self):
        y = channel.make_grid(180.0, 33, 0.5)
        n = len(y)
        with pytest.raises(channel.SolverError, match="singular"):
            channel._transport_solve(
                channel._Grid(y), np.zeros(n - 1), np.zeros(n), np.ones(n), 0.0
            )


class TestStackHelpers:
    """The stacked tensor helpers as the solver's injection chains them."""

    def random_stack(self, rng, n=64):
        a = rng.normal(size=(n, 3, 3))
        return np.einsum("nij,nkj->nik", a, a)

    def test_reconstruct_stack_round_trip(self, rng):
        tau = self.random_stack(rng)
        k, lam, vec, _ = tensors.decompose(tau)
        back = tensors.reconstruct(k, lam, vec)
        assert np.max(np.abs(back - tau)) <= 1e-9 * max(1.0, np.max(np.abs(tau)))

    def test_weights_points_round_trip(self, rng):
        tau = self.random_stack(rng)
        _, lam, _, _ = tensors.decompose(tau)
        w = tensors.eigenvalues_to_weights(lam)
        xy = tensors.weights_to_points(w)
        w2 = tensors.points_to_weights(xy)
        assert np.max(np.abs(w2 - w)) <= 1e-10
        lam2 = tensors.weights_to_eigenvalues(w2)
        assert np.max(np.abs(lam2 - lam)) <= 1e-10

    def test_clip_weights_preserves_sum(self, rng):
        w = rng.uniform(-0.5, 1.5, size=(100, 3))
        w /= w.sum(axis=1, keepdims=True)
        clipped = tensors.clip_weights(w)
        assert np.all(clipped >= -1e-12)
        assert np.allclose(clipped.sum(axis=1), 1.0, atol=1e-10)

    def test_boussinesq_stack_structure(self):
        k = np.array([1.0, 2.0])
        nu_t = np.array([0.5, 1.0])
        dudy = np.array([2.0, -1.0])
        tau = tensors.boussinesq(k, nu_t, dudy)
        assert np.allclose(np.trace(tau, axis1=1, axis2=2), 2.0 * k)
        assert tau[0, 0, 1] == pytest.approx(-0.5 * 2.0)
        assert np.allclose(tau[:, 0, 1], tau[:, 1, 0])
        assert np.allclose(tau[:, 0, 2], 0.0)


class TestRoughnessNoise:
    def test_deterministic_per_seed(self):
        y = np.linspace(0.0, 1000.0, 300)
        a = channel._roughness_noise(y, seed=3)
        b = channel._roughness_noise(y, seed=3)
        c = channel._roughness_noise(y, seed=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_unit_peak_and_small_mean(self):
        y = np.linspace(0.0, 1000.0, 500)
        noise = channel._roughness_noise(y, seed=0)
        assert np.max(np.abs(noise)) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.mean(noise)) < 0.2


class TestInjectionValidation:
    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown injection mode"):
            channel.PerturbationInjection(mode="magic")

    def test_datafree_needs_corner_and_delta(self):
        with pytest.raises(ValueError, match="corner and delta_b"):
            channel.PerturbationInjection(mode="datafree", corner="1C")

    def test_delta_b_range(self):
        with pytest.raises(ValueError, match="delta_b"):
            channel.PerturbationInjection(mode="datafree", corner="1C", delta_b=2.0)

    def test_data_driven_needs_forest(self):
        with pytest.raises(ValueError, match="forest"):
            channel.PerturbationInjection(mode="pcorr")

    def test_frozen_profile_must_cover_channel(self):
        from eigenuq import dns

        prof = dns.synthetic_profile(180.0)
        inj = channel.FrozenStressInjection(profile=prof)
        cfg = ChannelConfig(re_tau=1000.0, n_cells=64)
        with pytest.raises(ValueError, match="covers y\\+"):
            inj.prepare(cfg, channel.make_grid(1000.0, 65, 0.5))

    def test_shear_cap_only_for_state_coupled_modes(self):
        from eigenuq import dns

        assert channel.PerturbationInjection(
            mode="datafree", corner="1C", delta_b=1.0
        ).cap_shear
        assert not channel.FrozenStressInjection(
            profile=dns.synthetic_profile(180.0)
        ).cap_shear


@pytest.fixture(scope="module")
def state():
    return channel.solve_baseline(ChannelConfig(re_tau=180.0, n_cells=96))


class TestBaselineSolve:

    def test_converged_flags(self, state):
        assert state.iterations > 5
        assert state.residual_history[-1] < 1e-8

    def test_physical_profile(self, state):
        assert abs(state.U_plus[0]) < 1e-12
        assert np.all(np.diff(state.U_plus) >= 0)
        assert 15.0 < state.centerline_U < 25.0
        assert np.all(state.k_plus >= 0)
        assert np.all(state.omega_plus > 0)

    def test_momentum_balance(self, state):
        assert channel.total_shear_error(state) < 0.01

    def test_viscous_sublayer(self, state):
        # U+ ~ y+ below y+ = 5
        mask = (state.y_plus > 0) & (state.y_plus < 5.0)
        assert np.max(np.abs(state.U_plus[mask] - state.y_plus[mask])) < 0.2

    def test_trace_has_entry_per_node(self, state):
        xy, w = channel.barycentric_trace(state)
        assert xy.shape == (len(state.y_plus), 2)
        assert w.shape == (len(state.y_plus), 3)
        assert np.all(np.isnan(xy[0])) and np.all(np.isnan(w[0]))  # wall node is degenerate
        assert np.all(np.isfinite(xy[1:]))

    def test_solution_csv(self, state, tmp_path):
        path = tmp_path / "solution.csv"
        channel.write_solution_csv(state, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0].startswith("y_plus,U_plus,k_plus,omega_plus")
        assert len(lines) == len(state.y_plus) + 1

    def test_non_finite_stress_raises_solver_error(self):
        class NanShear(channel.StressInjection):
            def compute(self, arrays):
                tau = tensors.boussinesq(arrays.k_plus, arrays.nu_t_plus, arrays.dUdy_plus)
                tau[:, 0, 1] = tau[:, 1, 0] = np.nan
                return tau

        cfg = ChannelConfig(re_tau=180.0, n_cells=32)
        with pytest.raises(channel.SolverError, match="NaN/Inf detected at iteration 0") as err:
            channel.solve_with_injection(cfg, NanShear())
        assert len(err.value.residual_history) == 1
        assert np.isnan(err.value.residual_history[0])

    def test_non_finite_turbulence_fails_at_once(self, monkeypatch):
        # a NaN that reaches k and omega but not U in its iteration
        blending = channel._blending

        def nan_blending(*args):
            f1, f2 = blending(*args)
            f1[5] = np.nan
            return f1, f2

        monkeypatch.setattr(channel, "_blending", nan_blending)
        cfg = ChannelConfig(re_tau=180.0, n_cells=32)
        with pytest.raises(channel.SolverError, match="NaN/Inf detected at iteration 0") as err:
            channel.solve_baseline(cfg)
        assert np.isnan(err.value.residual_history[-1])

    def test_nonconvergence_raises(self):
        cfg = ChannelConfig(re_tau=180.0, n_cells=96, max_iters=10)
        with pytest.raises(channel.SolverError, match="no convergence"):
            channel.solve_baseline(cfg)
