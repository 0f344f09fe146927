import gc
import hashlib
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import solve_banded
from scipy.ndimage import gaussian_filter1d

from eigenuq import channel, dns, perturb, pipeline, rotation, tensors
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
        with pytest.raises(ValueError, match="max_iters must be a positive integer"):
            ChannelConfig(re_tau=180.0, max_iters=0)


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

    def test_builds_where_r_to_the_m_overflows(self):
        # 4,095 intervals: the search for a ratio tries r = 2, and 2.0**4095
        # is past the float range
        y = channel.make_grid(5200.0, 4096, 0.5)
        assert len(y) == 4096 and y[0] == 0.0
        assert y[-1] == pytest.approx(5200.0)
        assert np.all(np.isfinite(y)) and np.all(np.diff(y) > 0)

    # sha256 of the little-endian float64 bytes of each default-config grid,
    # as make_grid built them before an overflowing r**m counted as too large;
    # Re_tau 1000's with its last node set to 1000 (it ended at
    # 999.9999999999999)
    DEFAULT_GRIDS = {
        180.0: "30048059360a36d7650689760ff9e4135e38c187b6d4726d81a1bd1ca1febe1b",
        550.0: "961be0320c29f10f0d007f2a781e924adbc20a88f0a266d30dee224c4f166280",
        1000.0: "1b24c34d33c26d76290d852372ad92088733f0463fabb59d10fe96030fa6fa6f",
        2000.0: "a1525f886a49d5763cebf2a0dacc93fddfcff7a32ea2c946454c66afcd5b7a57",
        5200.0: "365783d98a38d824fedc25c21bf32b3a1f3aa17b1f9ad8497c712b791e350304",
    }

    @pytest.mark.parametrize("re_tau", sorted(DEFAULT_GRIDS))
    def test_default_grids_keep_their_bits(self, re_tau):
        cfg = ChannelConfig(re_tau=re_tau)
        y = channel.make_grid(re_tau, cfg.n_cells, cfg.stretch)
        assert hashlib.sha256(y.astype("<f8").tobytes()).hexdigest() == self.DEFAULT_GRIDS[re_tau]

    @pytest.mark.parametrize("n_cells", [32, 192, 384])
    @pytest.mark.parametrize("re_tau", sorted(DEFAULT_GRIDS))
    def test_last_node_is_re_tau(self, re_tau, n_cells):
        # the product that scales the nodes onto [0, re_tau] missed it by
        # an ulp at 1000 (192 cells), 2000 (384) and 5200 (32 and 384),
        # which left the shear cap 1 - y+/Re_tau nonzero at the centreline
        grid, _ = channel._start(re_tau, ChannelConfig(re_tau=re_tau, n_cells=n_cells))
        assert grid.y[-1] == re_tau
        assert channel._FixedPoint(grid, re_tau).cap[-1] == 0.0


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


class TestLapackLoader:
    """``channel`` takes gtsv, gbtrf and gbtrs from scipy's compiled
    ``_flapack`` without importing ``scipy.linalg``."""

    @pytest.mark.parametrize("name", ["gtsv", "gbtrf", "gbtrs"])
    def test_routines_are_scipys(self, name):
        routine = getattr(channel, f"_{name.upper()}")
        assert routine is scipy.linalg.get_lapack_funcs(name, dtype=np.float64)

    def test_routines_are_scipys_when_loaded_first(self):
        src = Path(__file__).resolve().parents[1] / "src"
        script = (
            "import sys, numpy as np\n"
            "from eigenuq import channel\n"
            "assert 'scipy.linalg' not in sys.modules\n"
            "import scipy.linalg\n"
            "for name in ('gtsv', 'gbtrf', 'gbtrs'):\n"
            "    routine = scipy.linalg.get_lapack_funcs(name, dtype=np.float64)\n"
            "    assert getattr(channel, '_' + name.upper()) is routine, name\n"
        )
        pythonpath = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": pythonpath})
        assert proc.returncode == 0, proc.stderr

    def test_missing_extension_is_named(self, tmp_path):
        with pytest.raises(ImportError, match="no scipy.linalg._flapack extension in") as info:
            channel._load_flapack([str(tmp_path)])
        assert str(tmp_path) in str(info.value)


class TestKernels:
    """The solver's gradient, tridiagonal and smoothing kernels against
    the library calls they stand for, compared exactly."""

    @PROPERTY
    @given(n=st.integers(1, 6000), sigma=st.one_of(st.just(20.0), st.floats(0.5, 40.0)),
           values=st.sampled_from(["uniform", "constant", "mixed"]), seed=seeds)
    @example(n=1, sigma=40.0, values="uniform", seed=0)  # one node, radius 160
    @example(n=5201, sigma=20.0, values="uniform", seed=0)  # the Re_tau 5200 noise line
    def test_gaussian_filter_is_scipys(self, n, sigma, values, seed):
        rng = np.random.default_rng(seed)
        if values == "uniform":
            x = rng.uniform(-1.0, 1.0, n)
        elif values == "constant":
            x = np.full(n, rng.normal())
        else:
            x = rng.normal(size=n) * 10.0 ** rng.integers(-12, 13, n)
        expected = gaussian_filter1d(x, sigma, mode="nearest")
        assert channel._gaussian_filter(x, sigma).tobytes() == expected.tobytes()

    @PROPERTY
    @given(y=grids, seed=seeds)
    @example(y=channel.make_grid(100.0, 201, 0.5), seed=0)  # exactly uniform spacing
    @example(y=channel.make_grid(10.0, 101, 0.5), seed=0)  # linspace, not exactly uniform
    @example(y=channel.make_grid(71.625, 192, 0.5), seed=0)  # exactly uniform, spacing 0.375
    @example(y=channel.make_grid(10.0, 17, 0.99), seed=0)  # exactly uniform, spacing 0.625
    def test_grid_gradient_is_numpy_gradient(self, y, seed):
        # where the spacings are all equal numpy takes (f[i+1] - f[i-1]) / 2h
        # at the interior nodes, and the grid keeps its three-point
        # weights, written out here as numpy writes them for other grids
        f = np.random.default_rng(seed).normal(size=(3, len(y))) * [[1.0], [1e3], [1e-6]]
        grid = channel._Grid(y)
        h = np.diff(y)
        dx1, dx2 = h[:-1], h[1:]
        for row in f:
            expected = np.gradient(row, y)
            if (h == h[0]).all():
                expected[1:-1] = (-dx2 / (dx1 * (dx1 + dx2)) * row[:-2]
                                  + (dx2 - dx1) / (dx1 * dx2) * row[1:-1]
                                  + dx1 / (dx2 * (dx1 + dx2)) * row[2:])
            assert np.array_equal(grid.grad(row), expected)

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

    @pytest.mark.parametrize("injected", [False, True], ids=["eddy_viscosity", "injected_shear"])
    def test_sweep_leaves_its_input_intact(self, injected):
        # the solver keeps earlier iterates by reference (Picard goes on
        # from the iterate a failed Newton attempt started at), so a sweep
        # must not write into its input
        grid = channel._Grid(channel.make_grid(180.0, 33, 0.5))
        x = np.stack(channel._init_state(grid))
        state = channel.ChannelState(180.0, grid.y, x, grid.grad(x[0]))
        shear = 0.8 * (1.0 - grid.y / 180.0) if injected else None
        names = ("y_plus", "U_plus", "k_plus", "omega_plus", "nu_t_plus", "dUdy_plus")
        before = {name: getattr(state, name).copy() for name in names}
        shear_before = None if shear is None else shear.copy()
        after = channel._sweep(grid, state, shear, 0.5)
        for name in names:
            assert np.array_equal(getattr(state, name), before[name]), name
        if injected:
            assert np.array_equal(shear, shear_before)
        assert not np.array_equal(after.U_plus, state.U_plus)

    @pytest.mark.parametrize("injected", [False, True], ids=["eddy_viscosity", "injected_shear"])
    def test_sweep_of_a_stack_is_each_row_alone(self, injected):
        # the rows of a stacked sweep, wall node of k included, are the
        # sweeps of the rows one by one, bit for bit
        grid = channel._Grid(channel.make_grid(180.0, 33, 0.5))
        scale = np.array([[1.0], [0.7], [1.3]])
        x = np.stack(channel._init_state(grid))[:, None] * scale
        state = channel.ChannelState(180.0, grid.y, x, grid.grad(x[0]))
        shear = 0.8 * (1.0 - grid.y / 180.0) * scale if injected else None
        stacked = channel._sweep(grid, state, shear, 0.5)
        for r in range(3):
            alone = channel._sweep(grid, channel._take(state, [r]),
                                   None if shear is None else shear[r], 0.5)
            assert np.array_equal(stacked.x[:, r], alone.x), r
            assert np.array_equal(stacked.dUdy_plus[r], alone.dUdy_plus), r
        assert np.all(stacked.k_plus[:, 0] == 0.0)

    @staticmethod
    def random_stacked_system(systems, rows, nodes, seed):
        """A grid of ``nodes`` nodes and the arguments of a stack of
        ``rows`` rows, or of ``systems`` (rows, nodes) stacks with one
        wall value each, a (systems, 1) array, as the k and omega systems
        of a sweep come: diffusivities and sinks of either sign and of
        magnitudes 1e-3 to 1e3, so that many rows are not diagonally
        dominant and gtsv pivots."""
        rng = np.random.default_rng(seed)
        y = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 2.0, nodes - 1))])
        lead = (rows,) if systems is None else (systems, rows)

        def draw(*shape):
            shape = lead + shape
            return rng.normal(size=shape) * 10.0 ** rng.uniform(-3.0, 3.0, shape)

        wall = rng.normal() if systems is None else rng.normal(size=(systems, 1))
        return channel._Grid(y), draw(nodes - 1), draw(nodes), draw(nodes), wall

    @staticmethod
    def alone(wall, place):
        """The wall value of the row at ``place`` of a stack."""
        return wall if np.ndim(wall) == 0 else wall[place[0], 0]

    @PROPERTY
    @given(systems=st.sampled_from([None, 2]), rows=st.integers(1, 4), nodes=st.integers(3, 40),
           seed=seeds)
    def test_stacked_transport_solve_is_each_row_alone(self, systems, rows, nodes, seed):
        # the stack is one gtsv call on the rows laid end to end; the wall
        # row's missing lower entry and the centreline row's missing
        # outflow keep pivoting inside each row
        grid, gamma_mid, sink, source, wall = self.random_stacked_system(systems, rows, nodes,
                                                                         seed)
        stacked = channel._transport_solve(grid, gamma_mid, sink, source, wall)
        assert stacked.shape == source.shape
        for place in np.ndindex(source.shape[:-1]):
            alone = channel._transport_solve(grid, gamma_mid[place], sink[place], source[place],
                                             self.alone(wall, place))
            assert np.array_equal(stacked[place], alone), place

    @PROPERTY
    @given(systems=st.sampled_from([None, 2]), rows=st.integers(1, 4), nodes=st.integers(3, 40),
           seed=seeds)
    def test_stacked_transport_residual_is_each_row_alone(self, systems, rows, nodes, seed):
        grid, gamma_mid, sink, source, wall = self.random_stacked_system(systems, rows, nodes,
                                                                         seed)
        phi = np.random.default_rng(seed).normal(size=source.shape)
        stacked = channel._transport_residual(grid, phi, gamma_mid, sink, source, wall)
        for place in np.ndindex(source.shape[:-1]):
            alone = channel._transport_residual(grid, phi[place], gamma_mid[place], sink[place],
                                                source[place], self.alone(wall, place))
            assert np.array_equal(stacked[place], alone), place


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

    @pytest.mark.parametrize("re_tau", [180.0, 550.0, 1000.0, 2000.0, 5200.0])
    def test_noise_is_the_scipy_filtered_noise(self, re_tau):
        def reference(y, seed, window=20.0):
            rng = np.random.default_rng(seed)
            eps = rng.uniform(-1.0, 1.0, len(y))
            yu = np.arange(0.0, y[-1] + 0.5, 1.0)
            smooth = gaussian_filter1d(np.interp(yu, y, eps), sigma=window, mode="nearest")
            eps = eps - np.interp(y, yu, smooth)
            return eps / np.max(np.abs(eps))

        y = channel.make_grid(re_tau, 193, 0.5)
        for seed in range(10):
            assert channel._roughness_noise(y, seed).tobytes() == reference(y, seed).tobytes()


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
        # the targets are the forest's predictions on the baseline
        with pytest.raises(ValueError, match="needs targets"):
            channel.PerturbationInjection(mode="pcorr")

    def test_frozen_profile_must_cover_channel(self):
        prof = dns.synthetic_profile(180.0)
        inj = channel.FrozenStressInjection(profile=prof)
        cfg = ChannelConfig(re_tau=1000.0, n_cells=64)
        with pytest.raises(ValueError, match="covers y\\+"):
            channel.solve(cfg, inj)

    def test_shear_cap_only_for_state_coupled_modes(self):
        assert channel.PerturbationInjection(
            mode="datafree", corner="1C", delta_b=1.0
        ).coupled
        assert not channel.FrozenStressInjection(
            profile=dns.synthetic_profile(180.0)
        ).coupled
        assert not channel.StressInjection.coupled


class TestInjectedSolve:
    def test_prescribed_stress_used_as_given(self):
        inj = channel.FrozenStressInjection(profile=dns.synthetic_profile(180.0))
        state = channel.solve(ChannelConfig(re_tau=180.0, n_cells=32), inj)
        assert np.array_equal(state.minus_uv_plus, -state.tau[:, 0, 1])

    def test_coupled_solve_reaches_its_fixed_point(self):
        cfg = ChannelConfig(re_tau=180.0, n_cells=32)
        inj = channel.PerturbationInjection(mode="datafree", corner="1C", delta_b=1.0)
        state = channel.solve(cfg, inj)
        assert state.picard_sweeps % channel.PICARD_BLOCK == 0
        assert state.newton_steps > 0
        assert state.iterations == state.picard_sweeps + state.newton_steps
        assert state.fixed_point_residual <= channel.NEWTON_TOL
        assert state.stress_consistency <= 1e-6
        assert channel.total_shear_error(state) <= 1e-8

    def test_corner_without_fixed_point_names_its_reason(self):
        # after 100 sweeps the 3C corner at Re_tau 5200 and delta_b 0.5 is
        # still outside Newton's basin, and max_iters allows no more: the
        # error names the sweeps, the steps of all attempts and how the
        # last ended
        cfg = ChannelConfig(re_tau=5200.0, max_iters=100)
        inj = channel.PerturbationInjection(mode="datafree", corner="3C", delta_b=0.5)
        with pytest.raises(channel.SolverError, match=(
            r"no fixed point after 100 Picard sweeps and [1-9]\d* Newton steps "
            r"\(no Newton step lowers the scaled F \S+ at step \d+\)")) as err:
            channel.solve(cfg, inj)
        assert len(err.value.residual_history) == 100

    def test_newton_follows_every_picard_block(self, monkeypatch):
        # no gate: every block, the last and shorter one included, ends
        # in a Newton attempt from the Picard iterate, and a failed
        # attempt leaves that iterate to the next block
        attempts = []
        picard_sweep = channel._picard_sweep

        def recorded_sweep(*args, **kwargs):
            new, change = picard_sweep(*args, **kwargs)
            recorded_sweep.last = new.x
            return new, change

        def failed(self, x, g):
            assert np.array_equal(x, recorded_sweep.last)
            attempts.append(x)
            self.newton_steps += 3
            self.f, self.reason = 0.5, f"attempt {len(attempts)} failed"

        monkeypatch.setattr(channel, "_picard_sweep", recorded_sweep)
        monkeypatch.setattr(channel._FixedPoint, "attempt", failed)
        cfg = ChannelConfig(re_tau=180.0, n_cells=32, max_iters=2 * channel.PICARD_BLOCK + 20)
        inj = channel.PerturbationInjection(mode="datafree", corner="1C", delta_b=1.0)
        with pytest.raises(channel.SolverError, match=(
            rf"no fixed point after {cfg.max_iters} Picard sweeps and 9 Newton steps "
            r"\(attempt 3 failed\)$")):
            channel.solve(cfg, inj)
        assert len(attempts) == 3

    def test_every_solve_kind_reaches_its_fixed_point(self):
        # the baseline, a prescribed stress and a coupled one all end at
        # a scaled F of NEWTON_TOL; only the coupled stress, which
        # follows the flow, has a self-consistency error to report
        cfg = ChannelConfig(re_tau=180.0, n_cells=32)
        prescribed = channel.FrozenStressInjection(profile=dns.synthetic_profile(180.0))
        coupled = channel.PerturbationInjection(mode="datafree", corner="2C", delta_b=0.5)
        states = {
            "baseline": channel.solve(cfg),
            "prescribed": channel.solve(cfg, prescribed),
            "coupled": channel.solve(cfg, coupled),
        }
        for kind, state in states.items():
            assert state.fixed_point_residual <= channel.NEWTON_TOL, kind
            assert state.iterations == state.picard_sweeps + state.newton_steps, kind
            assert (state.stress_consistency is not None) == (kind == "coupled"), kind


@pytest.fixture(scope="module")
def envelope_datafree_075_180():
    cfg = ChannelConfig(re_tau=180.0)
    return channel.uq_envelope(cfg, channel.corner_injections("datafree", delta_b=0.75))


class TestLaminarFlag:
    """A converged state is laminar when its k max is below
    LAMINAR_K_MAX or its centreline U+ lies within LAMINAR_U_RTOL of
    Re_tau / 2: pinned with the datafree corners at Re_tau 180, whose 3C
    corner is laminar past the fold near delta_b 0.52."""

    @pytest.mark.parametrize("delta_b, k_max_3c", [(1.0, 1.3e-12), (0.75, 6e-13)])
    def test_3c_past_the_fold_is_laminar(self, request, delta_b, k_max_3c):
        envelope = request.getfixturevalue(
            "envelope_datafree_180" if delta_b == 1.0 else "envelope_datafree_075_180")
        assert not envelope.baseline.laminar
        states = envelope.corner_states
        assert [states[c].laminar for c in ("1C", "2C", "3C")] == [False, False, True]
        assert np.max(states["3C"].k_plus) < k_max_3c
        assert states["3C"].centerline_U == pytest.approx(90.0, rel=1e-12)
        if delta_b == 1.0:
            assert [round(float(np.max(states[c].k_plus)), 2) for c in ("1C", "2C")] == [
                0.87, 1.62]

    def test_every_corner_before_the_fold_is_turbulent(self):
        envelope = channel.uq_envelope(ChannelConfig(re_tau=180.0),
                                       channel.corner_injections("datafree", delta_b=0.5))
        states = envelope.corner_states
        assert not any(states[c].laminar for c in ("1C", "2C", "3C"))
        assert round(float(np.max(states["3C"].k_plus)), 2) == 1.73
        assert round(states["3C"].centerline_U, 2) == 53.75

    def test_either_test_flags_a_state(self, envelope_datafree_180):
        # a turbulent corner with its k scaled below the bound, or with a
        # laminar centreline velocity
        state = envelope_datafree_180.corner_states["1C"]
        k_max = np.max(state.k_plus)
        for scale, laminar in ((0.99 * channel.LAMINAR_K_MAX / k_max, True),
                               (1.01 * channel.LAMINAR_K_MAX / k_max, False)):
            x = state.x.copy()
            x[1] = scale * state.k_plus
            assert replace(state, x=x).laminar == laminar
        x = state.x.copy()
        for rel, laminar in ((0.99 * channel.LAMINAR_U_RTOL, True),
                             (1.01 * channel.LAMINAR_U_RTOL, False)):
            x[0, -1] = 90.0 * (1 + rel)
            assert replace(state, x=x.copy()).laminar == laminar


class TestIterationCounts:
    """The Picard sweeps, Newton steps and Jacobian evaluations of the
    data-free envelopes: the benchmark's (delta_b 1 at Re_tau 180) and
    the fixtures'. A change to the cost of one evaluation keeps them."""

    @pytest.mark.parametrize("fixture, counts", [
        ("envelope_datafree_180", {"baseline": (50, 3, 1), "1C": (50, 5, 3), "2C": (50, 3, 1),
                                   "3C": (50, 0, 0)}),
        ("envelope_datafree_1000", {"baseline": (50, 2, 1), "1C": (50, 11, 9),
                                    "2C": (50, 6, 3), "3C": (50, 0, 0)}),
        # the laminarising 3C corner is left out: its Newton finish, 200
        # sweeps and 100 steps as measured, moves with roundoff in the stress
        ("envelope_datafree_075_180", {"baseline": (50, 3, 1), "1C": (50, 4, 2),
                                       "2C": (50, 3, 1)}),
    ])
    def test_sweeps_and_steps(self, request, fixture, counts):
        envelope = request.getfixturevalue(fixture)
        states = {"baseline": envelope.baseline, **envelope.corner_states}
        assert {slot: (states[slot].picard_sweeps, states[slot].newton_steps,
                       states[slot].jacobians) for slot in counts} == counts


class TestWallValues:
    """Every converged state holds its Dirichlet wall values exactly:
    U+, k+ and nu_t+ 0 and omega+ the wall omega of its grid, which the
    transport solves meet only to roundoff."""

    def test_wall_row_is_exact(self, envelope_datafree_180, envelope_datafree_1000,
                               envelope_datafree_075_180, envelope_datadriven_1000,
                               frozen_state_1000, frozen_state_noisy_1000):
        states = {"frozen_1000": frozen_state_1000, "frozen_noisy_1000": frozen_state_noisy_1000}
        for label, env in (("datafree_180", envelope_datafree_180),
                           ("datafree_1000", envelope_datafree_1000),
                           ("datafree_075_180", envelope_datafree_075_180),
                           ("datadriven_1000", envelope_datadriven_1000)):
            for slot, state in {"baseline": env.baseline, **env.corner_states}.items():
                states[f"{label}_{slot}"] = state
        for label, state in states.items():
            wall = (state.U_plus[0], state.k_plus[0], state.omega_plus[0], state.nu_t_plus[0])
            assert wall == (0.0, 0.0, channel._Grid(state.y_plus).om_wall, 0.0), (label, wall)


class TestStackedSolve:
    """uq_envelope solves its distinct corners as the rows of one stack,
    after the baseline's row unless a baseline is given, and
    solve_baselines the baselines of several Re_tau, each row on its own
    grid; the baseline's and every corner's or Re_tau's state, solve
    record and error is that of its own solve, bit for bit."""

    FIELDS = ("U_plus", "k_plus", "omega_plus", "nu_t_plus", "tau", "minus_uv_plus")
    RECORD = ("residual_history", "newton_steps", "fixed_point_residual", "stress_consistency")

    def assert_solved_alone(self, stacked, alone, label):
        for name in self.FIELDS + ("dUdy_plus",):
            assert np.array_equal(getattr(stacked, name), getattr(alone, name)), (label, name)
        for name in self.RECORD:
            assert getattr(stacked, name) == getattr(alone, name), (label, name)

    def assert_each_corner_solved_alone(self, cfg, injections, envelope):
        for corner, injection in injections.items():
            self.assert_solved_alone(envelope.corner_states[corner],
                                     channel.solve(cfg, injection), corner)

    def test_datafree_envelope(self, envelope_datafree_180):
        self.assert_each_corner_solved_alone(
            ChannelConfig(re_tau=180.0), channel.corner_injections("datafree", delta_b=1.0),
            envelope_datafree_180)

    def test_corner_sweeping_on_alone(self, envelope_datafree_075_180):
        # the baseline, 1C and 2C leave the stack after their first block;
        # 3C sweeps on alone to 200 + 134 sweeps + steps
        cfg = ChannelConfig(re_tau=180.0)
        injections = channel.corner_injections("datafree", delta_b=0.75)
        envelope = envelope_datafree_075_180
        sweeps = {c: s.picard_sweeps for c, s in envelope.corner_states.items()}
        assert envelope.baseline.picard_sweeps == channel.PICARD_BLOCK
        assert sweeps["1C"] == sweeps["2C"] == channel.PICARD_BLOCK < sweeps["3C"]
        self.assert_each_corner_solved_alone(cfg, injections, envelope)

    @pytest.mark.parametrize("delta_b", [1.0, 0.75])
    def test_baseline_row_is_the_baseline_solve(self, delta_b, envelope_datafree_180,
                                                envelope_datafree_075_180):
        # the baseline's row of the stack, with its relaxation factor 0.8,
        # implicit eddy diffusion and eddy-viscosity production, is the
        # baseline solve alone; its stress consistency is None
        envelope = envelope_datafree_180 if delta_b == 1.0 else envelope_datafree_075_180
        self.assert_solved_alone(envelope.baseline, channel.solve(ChannelConfig(re_tau=180.0)),
                                 "baseline")

    @pytest.mark.parametrize("mode", ["pcorr", "pcorr_angles"])
    def test_baseline_and_one_coupled_row(self, mode):
        # a corner-free mode has one coupled row, stacked after the
        # baseline's when no baseline is given: both rows are their own
        # solves, and the three slots share the one state
        cfg = ChannelConfig(re_tau=180.0, n_cells=32)
        rng = np.random.default_rng(5)
        targets = rng.uniform(-0.05, 0.05, (cfg.n_cells, 2))
        if mode == "pcorr_angles":
            targets = np.hstack([targets, rng.uniform(-0.2, 0.2, (cfg.n_cells, 3))])
        injections = channel.corner_injections(mode, targets=targets)
        envelope = channel.uq_envelope(cfg, injections)
        self.assert_solved_alone(envelope.baseline, channel.solve(cfg), "baseline")
        self.assert_solved_alone(envelope.corner_states["1C"],
                                 channel.solve(cfg, injections["1C"]), mode)
        assert len({id(state) for state in envelope.corner_states.values()}) == 1

    def test_data_driven_envelope(self, envelope_datadriven_1000, targets_p_1000):
        self.assert_each_corner_solved_alone(
            ChannelConfig(re_tau=1000.0), channel.corner_injections("p", targets=targets_p_1000),
            envelope_datadriven_1000)

    def test_first_failing_corner_is_reported(self, monkeypatch):
        # with a zero Newton tolerance every row fails; the envelope
        # reports 1C, as solving the corners in slot order does
        cfg = ChannelConfig(re_tau=180.0, n_cells=32, max_iters=60)
        baseline = channel.solve(cfg)
        monkeypatch.setattr(channel, "NEWTON_TOL", 0.0)
        injections = channel.corner_injections("datafree", delta_b=1.0)
        with pytest.raises(channel.SolverError) as alone:
            channel.solve(cfg, injections["1C"])
        with pytest.raises(channel.SolverError, match=(
                r"^corner 1C failed: no fixed point after 60 Picard sweeps")) as err:
            channel.uq_envelope(cfg, injections, baseline)
        assert str(err.value) == f"corner 1C failed: {alone.value}"
        assert err.value.residual_history == alone.value.residual_history

    def test_failing_baseline_is_reported(self, monkeypatch):
        # with a zero Newton tolerance every row fails; the envelope
        # reports the baseline's own error, as solving it first does
        cfg = ChannelConfig(re_tau=180.0, n_cells=32, max_iters=60)
        monkeypatch.setattr(channel, "NEWTON_TOL", 0.0)
        with pytest.raises(channel.SolverError) as alone:
            channel.solve(cfg)
        with pytest.raises(channel.SolverError, match=(
                r"^no fixed point after 60 Picard sweeps")) as err:
            channel.uq_envelope(cfg, channel.corner_injections("datafree", delta_b=1.0))
        assert str(err.value) == str(alone.value)
        assert err.value.residual_history == alone.value.residual_history

    def test_non_finite_row_fails_alone(self, monkeypatch):
        # a NaN shear in the 2C row spreads through the stacked
        # tridiagonal solves; the rows are then swept alone, each with its
        # own relaxation factor and momentum form, so 2C fails by itself
        # and 1C, and the baseline in the stack that holds it, go on to
        # their own fixed points
        shear = channel.PerturbationInjection.shear

        def nan_in_second_row(self, state):
            out = shear(self, state)
            if np.ndim(out) == 2 and len(out) == 3:
                out[1] = np.nan
            return out

        cfg = ChannelConfig(re_tau=180.0, n_cells=32)
        injections = channel.corner_injections("datafree", delta_b=1.0)
        baseline, alone = channel.solve(cfg), channel.solve(cfg, injections["1C"])
        monkeypatch.setattr(channel.PerturbationInjection, "shear", nan_in_second_row)
        for lead in ([], [None]):
            *rows, first, second, third = channel._solve_rows(cfg, lead + list(injections.values()))
            if lead:
                self.assert_solved_alone(rows[0], baseline, "baseline")
            self.assert_solved_alone(first, alone, "1C")
            assert str(second) == "NaN/Inf detected at iteration 0"
            assert third is None  # stopped: the failure of 2C is what is reported
            with pytest.raises(channel.SolverError, match=r"^corner 2C failed: NaN/Inf detected"):
                channel.uq_envelope(cfg, injections, None if lead else baseline)

    def assert_each_re_tau_solved_alone(self, cfg, re_taus):
        for re_tau, state in zip(re_taus, channel.solve_baselines(cfg, re_taus), strict=True):
            alone = channel.solve(replace(cfg, re_tau=re_tau))
            assert state.re_tau == alone.re_tau == re_tau
            assert np.array_equal(state.y_plus, alone.y_plus), re_tau
            self.assert_solved_alone(state, alone, re_tau)

    def test_train_re_tau_as_one_stack(self):
        # the default training Re_tau and the holdout's, as train solves
        # them: five stretched grids, each row with its own 1/Re_tau
        self.assert_each_re_tau_solved_alone(ChannelConfig(re_tau=180.0),
                                             [180.0, 550.0, 2000.0, 5200.0, 1000.0])

    def test_stack_of_uniform_and_stretched_grids(self):
        # at 192 nodes Re_tau 90 and 95.5 get evenly spaced (linspace)
        # grids, and only the spacings of 95.5 are all equal, 0.5, where
        # the three-point gradient is numpy's bit for bit too; with two
        # stretched grids in one stacked grid whose every term is that of
        # the row's own grid
        re_taus = (90.0, 95.5, 180.0, 5200.0)
        grids = [channel._Grid(channel.make_grid(re_tau, 192, 0.5)) for re_tau in re_taus]
        assert np.array_equal(grids[0].y, np.linspace(0.0, 90.0, 192))
        stacked = channel._Grid(np.stack([grid.y for grid in grids]))
        f = np.random.default_rng(3).uniform(-1.0, 1.0, stacked.y.shape)
        for r, grid in enumerate(grids):
            for name in ("yp", "yp2", "om_wall", "h_ends", "delta", "sub_den", "sup_den",
                         "half_h_end"):
                assert np.array_equal(getattr(stacked, name)[r], getattr(grid, name)), (r, name)
            assert np.array_equal(stacked.walls[:, r], grid.walls), r
            assert np.array_equal(stacked.grad(f)[r], np.gradient(f[r], grid.y)), r
        self.assert_each_re_tau_solved_alone(ChannelConfig(re_tau=90.0), list(re_taus))

    def test_failing_re_tau_rows_are_their_own_errors(self, monkeypatch):
        # with a zero Newton tolerance every row fails, each with the
        # message and residual history of its own solve, so a caller
        # that reports the first in list order reports that Re_tau's
        monkeypatch.setattr(channel, "NEWTON_TOL", 0.0)
        cfg = ChannelConfig(re_tau=2000.0, n_cells=32, max_iters=60)
        re_taus = [2000.0, 180.0, 5200.0]
        rows = channel.solve_baselines(cfg, re_taus)
        histories = []
        for re_tau, row in zip(re_taus, rows, strict=True):
            with pytest.raises(channel.SolverError) as alone:
                channel.solve(replace(cfg, re_tau=re_tau))
            assert isinstance(row, channel.SolverError), re_tau
            assert str(row) == str(alone.value), re_tau
            assert str(row).startswith("no fixed point after 60 Picard sweeps")
            assert row.residual_history == alone.value.residual_history, re_tau
            histories.append(row.residual_history)
        assert histories[0] != histories[1] != histories[2]

    def test_non_finite_re_tau_fails_alone(self, monkeypatch):
        # a NaN in the initial U of the Re_tau 5200 row spreads through
        # the stacked tridiagonal solves; the rows are then swept alone,
        # each on its own grid, so 5200 fails by itself and the other
        # rows go on to their own fixed points
        init_state = channel._init_state

        def nan_at_5200(grid):
            U, k, om, nu_t = init_state(grid)
            if grid.y[-1] > 5000.0:
                U[5] = np.nan
            return U, k, om, nu_t

        cfgs = [ChannelConfig(re_tau=re_tau) for re_tau in (180.0, 550.0, 5200.0)]
        alone = [channel.solve(cfg) for cfg in cfgs[:2]]
        monkeypatch.setattr(channel, "_init_state", nan_at_5200)
        with pytest.raises(channel.SolverError) as failing:
            channel.solve(cfgs[2])
        *rows, last = channel.solve_baselines(cfgs[0], [cfg.re_tau for cfg in cfgs])
        for cfg, state, own in zip(cfgs, rows, alone):
            self.assert_solved_alone(state, own, cfg.re_tau)
        assert str(last) == str(failing.value) == "NaN/Inf detected at iteration 0"
        assert np.array_equal(last.residual_history, failing.value.residual_history,
                              equal_nan=True)

    def test_rows_are_freed_without_the_collector(self):
        # no row's fixed point is left in a reference cycle that would
        # keep its converged state, and the row's Newton arrays, alive
        # until the garbage collector runs
        cfg = ChannelConfig(re_tau=180.0, n_cells=32)
        gc.collect()
        gc.disable()
        try:
            channel.solve_baselines(cfg, [180.0, 550.0])
            channel.uq_envelope(cfg, channel.corner_injections("datafree", delta_b=1.0))
            left = [o for o in gc.get_objects() if isinstance(o, channel._FixedPoint)]
        finally:
            gc.enable()
        assert left == []

    def test_stack_takes_corners_of_one_perturbation(self):
        datafree = channel.corner_injections("datafree", delta_b=1.0)
        stacked = channel.PerturbationInjection.stack(list(datafree.values()))
        # the stack holds each row's corner, as an (m, 1, 3) array
        assert np.array_equal(stacked.corner_lam[:, 0],
                              [injection.corner_lam for injection in datafree.values()])
        # a lone injection, of any mode, is its own stack
        pcorr = channel.PerturbationInjection("pcorr", targets=np.zeros((33, 2)))
        assert channel.PerturbationInjection.stack([pcorr]) is pcorr
        other = channel.PerturbationInjection("datafree", corner="2C", delta_b=0.5)
        for rows in ([datafree["1C"], other],
                     [datafree["1C"], channel.FrozenStressInjection(dns.synthetic_profile(180.0))],
                     [channel.PerturbationInjection("pcorr", targets=np.zeros((33, 2)))] * 2):
            with pytest.raises(ValueError, match="differ in their corner alone"):
                channel.PerturbationInjection.stack(rows)

    @pytest.mark.parametrize("mode", ["datafree", "p"])
    def test_stack_keeps_each_injections_own_corner(self, mode):
        # two injections whose corner eigenvalues and points are set to
        # 2C's and to the midpoint of 1C and 3C: the stack's shear on
        # each row is that injection's own, whatever corner names them
        lam = tensors.weights_to_eigenvalues(np.eye(3))
        xy = tensors.CORNERS - channel._BOUSSINESQ_POINT
        baseline = channel.solve(ChannelConfig(re_tau=180.0, n_cells=32))
        n = len(baseline.y_plus)
        kwargs = {"delta_b": 0.5} if mode == "datafree" else {"targets": np.full((n, 1), 0.2)}
        injections = []
        for corner, own in (("1C", (lam[1], xy[1])),
                            ("3C", (0.5 * (lam[0] + lam[2]), 0.5 * (xy[0] + xy[2])))):
            injection = channel.PerturbationInjection(mode, corner=corner, **kwargs)
            injection.corner_lam, injection.corner_xy = own
            injections.append(injection)
        state = channel._stack([baseline, baseline], 180.0, baseline.y_plus)
        shear = channel.PerturbationInjection.stack(injections).shear(state)
        for r, injection in enumerate(injections):
            assert np.array_equal(shear[r], injection.shear(channel._take(state, [r]))), r

    def test_envelope_takes_perturbation_corners_only(self, monkeypatch):
        # a prescribed stress in a corner slot would be swept under the
        # baseline's closure: it is rejected before any sweep, with the
        # baseline given or not
        def no_sweep(*_args):
            pytest.fail("swept before the corner was rejected")

        cfg = ChannelConfig(re_tau=180.0, n_cells=32)
        baseline = channel.solve(cfg)
        monkeypatch.setattr(channel, "_picard_sweep", no_sweep)
        prescribed = channel.FrozenStressInjection(dns.synthetic_profile(180.0))
        datafree = channel.corner_injections("datafree", delta_b=1.0)
        for injections, slot in ((dict.fromkeys(channel.CORNER_SLOTS, prescribed), "1C"),
                                 ({**datafree, "2C": prescribed}, "2C")):
            for given in (None, baseline):
                with pytest.raises(ValueError, match=(
                        rf"^corner {slot}: FrozenStressInjection is no perturbation$")):
                    channel.uq_envelope(cfg, injections, given)


MODES = ("datafree", "p", "pcorr", "pcorr_angles")
# nu_t > 0 as well as dU/dy > 0: where the anisotropy vanishes, any
# frame is an eigenframe and the decomposition's is arbitrary. k stays
# clear of K_FLOOR, below which the decomposition's k (half the trace,
# rounded) may fall where the closed form's does not
positive = st.floats(1e-6, 1e3)
channel_nodes = st.integers(2, 24).flatmap(lambda n: st.tuples(
    arrays(np.float64, n, elements=st.floats(2.0 * tensors.K_FLOOR, 1e3)),  # k
    arrays(np.float64, n, elements=positive),  # nu_t
    arrays(np.float64, n, elements=positive),  # dU/dy
))


def injection_and_decomposed(mode, rng, n):
    """An injection of ``mode`` with random arguments, and the same
    perturbation of a stress stack through the perturb mode functions,
    which find the frame by tensors.decompose (eigh)."""
    p_corr, angles = rng.uniform(-0.3, 0.3, (n, 2)), rng.uniform(-np.pi, np.pi, (n, 3))
    if mode == "datafree":
        delta_b = rng.uniform()
        return (channel.PerturbationInjection(mode, corner="2C", delta_b=delta_b),
                lambda tau: perturb.data_free_corner(tau, "2C", delta_b))
    if mode == "p":
        p = rng.uniform(-0.1, 0.5, (n, 1))
        return (channel.PerturbationInjection(mode, corner="1C", targets=p),
                lambda tau: perturb.data_driven_magnitude(tau, "1C", p[:, 0]))
    if mode == "pcorr":
        return (channel.PerturbationInjection(mode, targets=p_corr),
                lambda tau: perturb.componentwise_correction(tau, p_corr))
    return (channel.PerturbationInjection(mode, targets=np.hstack([p_corr, angles])),
            lambda tau: perturb.full_anisotropy_correction(tau, p_corr, angles))


class TestClosedFormInjection:
    """The closed-form stress of the channel's fixed frame is the stress
    every perturb mode gives on the Boussinesq tensor wherever dU/dy > 0,
    and its frame is tensors.decompose's sign-normalised one, the frame
    in which a forest's target angles were fitted."""

    @PROPERTY
    @given(nodes=channel_nodes, mode=st.sampled_from(MODES), seed=seeds)
    def test_matches_perturb_on_boussinesq(self, nodes, mode, seed):
        k, nu_t, dudy = nodes
        n = len(k)
        state = SimpleNamespace(re_tau=100.0, y_plus=np.linspace(0.0, 100.0, n),
                                k_plus=k, nu_t_plus=nu_t, dUdy_plus=dudy)
        injection, decomposed = injection_and_decomposed(mode, np.random.default_rng(seed), n)
        closed = injection.compute(state)
        expected = decomposed(tensors.boussinesq(k, nu_t, dudy))
        err = np.max(np.abs(closed - expected)[:-1], axis=(1, 2))
        assert np.all(err <= 1e-12 * k[:-1]), f"worst node error / k {np.max(err / k[:-1]):.3e}"
        # no shear at the centreline node: the mean of the stress and its
        # mirror image in y
        mirror = expected[-1] * np.outer([1, -1, 1], [1, -1, 1])
        assert np.max(np.abs(closed[-1] - 0.5 * (expected[-1] + mirror))) <= 1e-12 * k[-1]
        assert np.all(tensors.is_realizable(closed))

    @PROPERTY
    @given(nodes=channel_nodes)
    def test_fixed_frame_is_the_decomposition_frame(self, nodes):
        k, nu_t, dudy = nodes
        _, lam, frame, _ = tensors.decompose(tensors.boussinesq(k, nu_t, dudy))
        a = nu_t * dudy / k
        assert np.array_equal(frame, np.broadcast_to(channel._SHEAR_FRAME, frame.shape))
        assert np.max(np.abs(lam - np.column_stack([a, 0.0 * a, -a]))) <= 1e-12 * (1.0 + a.max())

    def test_laminar_nodes_keep_the_boussinesq_stress(self):
        k = np.array([0.0, 1e-13, 1.0, 1.0])
        state = SimpleNamespace(re_tau=3.0, y_plus=np.arange(4.0), k_plus=k,
                                nu_t_plus=np.ones(4), dUdy_plus=np.ones(4))
        injection = channel.PerturbationInjection("datafree", corner="1C", delta_b=1.0)
        tau = injection.compute(state)
        assert np.array_equal(tau[:2], tensors.boussinesq(k[:2], np.ones(2), np.ones(2)))


# a = nu_t |dU/dy| / k of one row per corner, on both sides of the clip
# at 2/3, at it, at 0, far past it and near 0, where the 3C corner's
# distance d meets the 1e-14 guard; and p <= 0, below and beyond the
# distance to the corner (at most 1), and near 0
corner_rows = st.integers(1, 24).flatmap(lambda n: st.tuples(
    arrays(np.float64, (3, n), elements=st.one_of(
        st.floats(0.0, 2.0), st.sampled_from([0.0, 2.0 / 3.0, 1e12]), st.floats(0.0, 1e-13))),
    arrays(np.float64, n, elements=st.one_of(st.floats(-1.0, 2.0), st.floats(0.0, 1e-13))),
))


def corner_state(a):
    """A state whose Boussinesq eigenvalues are (a, 0, -a)."""
    return SimpleNamespace(k_plus=np.ones(a.shape), nu_t_plus=a, dUdy_plus=np.ones(a.shape))


class TestCornerClosedForm:
    """The corner modes move the Boussinesq eigenvalues in closed form:
    (1 - delta) (b, 0, -b) + delta lam_c with b = min(a, 2/3). That is
    perturb.move_eigenvalues of (a, 0, -a) under corner_shift or
    magnitude_shift, to 1e-14 in every eigenvalue. The worst measured
    difference is 6.7e-16, and 7.5e-15 at the 3C corner where d, near
    1e-14, falls on either side of magnitude_shift's guard; there b is
    below 1e-14 itself."""

    @PROPERTY
    @given(rows=corner_rows, delta_b=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    @example(rows=(np.array([[0.0], [2.0 / 3.0], [0.0]]), np.array([0.5])), delta_b=0.5)
    def test_matches_the_barycentric_move(self, rows, delta_b):
        a, p = rows
        boussinesq = np.stack([a, 0.0 * a, -a], axis=-1)
        for mode, shift, kwargs in (
                ("datafree", lambda xt: perturb.corner_shift(xt, delta_b), {"delta_b": delta_b}),
                ("p", lambda xt: perturb.magnitude_shift(xt, p), {"targets": p[:, None]})):
            alone = [channel.PerturbationInjection(mode, corner=c, **kwargs)
                     for c in channel.CORNER_SLOTS]
            lams = []
            for row, injection in enumerate(alone):
                laminar, columns = injection._eigenvalues(corner_state(a[row]))
                lam = np.stack(columns, axis=-1)
                expected = perturb.move_eigenvalues(
                    boussinesq[row], shift(tensors.corner_coords(injection.corner)))
                assert not laminar.any()
                assert np.max(np.abs(lam - expected)) <= 1e-14, (mode, injection.corner)
                lams.append(lam)
            # the stack's rows are each corner alone, bit for bit
            _, stacked = channel.PerturbationInjection.stack(alone)._eigenvalues(corner_state(a))
            assert np.array_equal(np.stack(stacked, axis=-1), lams)

    def test_corner_modes_make_no_barycentric_round_trip(self, monkeypatch):
        calls = {"move_eigenvalues": 0}
        move_eigenvalues = perturb.move_eigenvalues

        def counted(*args):
            calls["move_eigenvalues"] += 1
            return move_eigenvalues(*args)

        monkeypatch.setattr(perturb, "move_eigenvalues", counted)
        cfg = ChannelConfig(re_tau=180.0, n_cells=32)
        p = np.random.default_rng(5).uniform(0.0, 0.3, (32, 1))
        for injection in (channel.PerturbationInjection("datafree", corner="1C", delta_b=1.0),
                          channel.PerturbationInjection("p", corner="2C", targets=p)):
            assert channel.solve(cfg, injection).fixed_point_residual <= channel.NEWTON_TOL
        assert calls == {"move_eigenvalues": 0}
        # the componentwise modes keep the barycentric path
        channel.solve(cfg, channel.PerturbationInjection("pcorr", targets=np.zeros((32, 2))))
        assert calls["move_eigenvalues"] > 0


# nodes of a state handed to an injection: any k from 0 up, laminar ones
# (below K_FLOOR) included, and dU/dy of either sign
any_nodes = st.integers(1, 24).flatmap(lambda n: st.tuples(
    arrays(np.float64, n, elements=st.one_of(
        st.floats(0.0, tensors.K_FLOOR, exclude_max=True), st.floats(tensors.K_FLOOR, 1e3))),
    arrays(np.float64, n, elements=st.floats(0.0, 1e3)),  # nu_t
    arrays(np.float64, n, elements=st.floats(-1e3, 1e3)),  # dU/dy
))


class TestShear:
    """The shear the solve loop evaluates is the uv of the stress it
    reports."""

    @PROPERTY
    @given(nodes=any_nodes, mode=st.sampled_from(MODES), seed=seeds)
    def test_shear_is_minus_uv_of_compute(self, nodes, mode, seed):
        # every state also holds a laminar node, a node with a = 1.5,
        # whose eigenvalue -a lies outside the triangle (the clip
        # acts), and a turbulent centreline node
        k, nu_t, dudy = (np.concatenate([head, v, tail]) for head, v, tail in zip(
            ([0.5 * tensors.K_FLOOR, 1.0], [1.0, 1.5], [1.0, 1.0]), nodes,
            ([2.0], [1.0], [0.5])))
        n = len(k)
        state = SimpleNamespace(re_tau=100.0, y_plus=np.linspace(0.0, 100.0, n),
                                k_plus=k, nu_t_plus=nu_t, dUdy_plus=dudy)
        injection, _ = injection_and_decomposed(mode, np.random.default_rng(seed), n)
        shear = injection.shear(state)
        minus_uv = -injection.compute(state)[:, 0, 1]
        if mode in ("datafree", "p"):
            assert np.array_equal(shear, minus_uv)
        else:
            assert np.all(np.abs(shear - minus_uv) <= 1e-15 * np.maximum(1.0, k))
        assert shear[-1] == 0.0
        assert shear[0] == nu_t[0] * dudy[0]  # laminar: the Boussinesq shear


class TestInputsStayIntact:
    """The stress and fixed-point evaluations write into no input: the
    solver keeps earlier iterates by reference."""

    def initial_state(self):
        grid = channel._Grid(channel.make_grid(180.0, 32, 0.5))
        x = np.stack(channel._init_state(grid))
        return grid, channel.ChannelState(180.0, grid.y, x, grid.grad(x[0]))

    @pytest.mark.parametrize("mode", MODES)
    def test_shear_and_residual(self, mode):
        grid, state = self.initial_state()
        injection, _ = injection_and_decomposed(mode, np.random.default_rng(3), len(grid.y))
        names = ("y_plus", "U_plus", "k_plus", "omega_plus", "nu_t_plus", "dUdy_plus")
        before = {name: getattr(state, name).copy() for name in names}
        injection.shear(state)
        for name in names:
            assert np.array_equal(getattr(state, name), before[name]), name
        fp = channel._FixedPoint(grid, 180.0, injection)
        x = state.x
        x_before = x.copy()
        f = fp.sweep(x)[2].x - x
        assert np.array_equal(x, x_before)
        assert np.array_equal(fp.sweep(x)[2].x - x, f)

    def test_pcorr_angles_rotates_once_per_injection(self, monkeypatch):
        # the rotated frame depends on the targets only; the stress
        # tensor is assembled once, for the reported state
        calls = {"apply_rotation": 0, "compute": 0}
        apply_rotation = rotation.apply_rotation
        compute = channel.PerturbationInjection.compute

        def counted_rotation(*args):
            calls["apply_rotation"] += 1
            return apply_rotation(*args)

        def counted_compute(self, state):
            calls["compute"] += 1
            return compute(self, state)

        monkeypatch.setattr(rotation, "apply_rotation", counted_rotation)
        monkeypatch.setattr(channel.PerturbationInjection, "compute", counted_compute)
        cfg = ChannelConfig(re_tau=180.0, n_cells=32)
        rng = np.random.default_rng(5)
        targets = np.hstack([rng.uniform(-0.05, 0.05, (32, 2)), rng.uniform(-0.2, 0.2, (32, 3))])
        injection = channel.PerturbationInjection("pcorr_angles", targets=targets)
        state = channel.solve(cfg, injection)
        assert state.fixed_point_residual <= channel.NEWTON_TOL
        assert calls == {"apply_rotation": 1, "compute": 1}


@pytest.fixture(scope="module", params=[*MODES, "baseline", "prescribed"])
def converged_newton(request):
    """A Newton solver at the converged small-grid corner of each mode
    (forest-like targets from a fixed seed), at the baseline and under a
    prescribed stress, its scale set, and the scaled state z."""
    cfg = ChannelConfig(re_tau=180.0, n_cells=32)
    rng = np.random.default_rng(5)
    n = cfg.n_cells
    p_corr = rng.uniform(-0.05, 0.05, (n, 2))
    kwargs = {
        "datafree": {"corner": "1C", "delta_b": 1.0},
        "p": {"corner": "2C", "targets": rng.uniform(0.0, 0.3, (n, 1))},
        "pcorr": {"targets": p_corr},
        "pcorr_angles": {"targets": np.hstack([p_corr, rng.uniform(-0.2, 0.2, (n, 3))])},
    }
    if request.param == "baseline":
        injection = None
    elif request.param == "prescribed":
        injection = channel.FrozenStressInjection(profile=dns.synthetic_profile(180.0))
    else:
        injection = channel.PerturbationInjection(request.param, **kwargs[request.param])
    state = channel.solve(cfg, injection)
    newton = channel._FixedPoint.under(channel._Grid(state.y_plus), state, injection)
    x = state.x
    newton.scale = channel._scale(x)
    return newton, x / newton.scale


# How far R reaches, column field -> row field: REACH[f][g] is the largest
# |i - j| at which field f of node j enters the row of field g of node i
# (None: never), fields in the iterate's order. It is the union of what the
# converged_newton cases measure, and the colouring and band of the
# Jacobian rely on it through channel._REACH, which must equal it.
REACH = {
    "U": {"U": 2, "k": 1, "omega": 1, "nu_t": 1},
    "k": {"U": 1, "k": 2, "omega": 2, "nu_t": 0},
    "omega": {"U": None, "k": 2, "omega": 2, "nu_t": 0},
    "nu_t": {"U": 1, "k": 1, "omega": 1, "nu_t": 0},
}
# [column field, row field], -1 for never
REACH_TABLE = np.array([[-1 if d is None else d for d in row.values()] for row in REACH.values()])


def reference_direction(newton, z):
    """``_FixedPoint.direction`` on the flat layout: z, R and the colour
    steps are (..., 4n) arrays, field f of node i at f n + i, the 17
    states are stacked by np.vstack, and the index tables carry the
    node-major order of the flat positions. R is the solver's, evaluated
    on the (4, 17, n) view of the flat stack."""
    n, band = z.shape[-1], channel.BAND
    order = np.arange(4 * n).reshape(4, n).T.ravel()
    colour = channel._COLOUR_BASE[:, None] + (np.arange(n) - channel._COLOUR_SHIFT[:, None]) % 8
    places = np.empty(16 * 4 * n, dtype=np.intp)
    reached = np.zeros(places.shape, dtype=bool)
    for (f, g), r in np.ndenumerate(channel._REACH):
        for d in range(-r, r + 1):
            i = np.arange(max(0, -d), n - max(0, d))
            difference = (colour[f, i] * 4 + g) * n + i + d
            reached[difference] = True
            places[difference] = (4 * i + f) * (3 * band + 1) + 2 * band + 4 * d + g - f
    colours = colour.ravel() == np.arange(16)[:, None]
    flat = z.ravel()
    h = 1.5e-8 * np.maximum(np.abs(flat), 1e-8)
    stack = np.vstack([flat, flat + colours * h]) * np.repeat(newton.scale, n)
    r = newton.local_residual(stack.reshape(17, 4, n).transpose(1, 0, 2))
    r = r.transpose(1, 0, 2).reshape(17, 4 * n)
    ab = np.zeros((4 * n, 3 * band + 1))
    ab.ravel()[places[reached]] = (r[1:] - r[0]).ravel()[reached]
    ab[:, band:] /= h[order, None]
    gbsv = scipy.linalg.get_lapack_funcs("gbsv", dtype=np.float64)
    *_, dz, info = gbsv(band, band, ab.T, -r[0, order], overwrite_ab=1, overwrite_b=1)
    assert info == 0
    out = np.empty_like(flat)
    out[order] = dz
    return out.reshape(4, n)


class TestBandTables:
    """Newton's colouring and band storage follow R's reach."""

    def test_module_reach_is_the_measured_one(self):
        assert np.array_equal(channel._REACH, REACH_TABLE)

    def test_band_is_the_widest_reach(self):
        widest = max(abs(4 * d + g - f)
                     for (f, g), r in np.ndenumerate(REACH_TABLE) for d in range(-r, r + 1))
        assert channel.BAND == widest == 9

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(8, 400))
    @example(n=8)
    @example(n=193)
    def test_tables_hold_every_reached_entry_once(self, n):
        band_index, reached, colours = channel._band_tables(n)
        m = 4 * n
        # the colours partition the columns of each field: (4, 16, n)
        assert colours.shape == (4, 16, n)
        assert np.all(colours.sum(axis=1) == 1)
        colour_of = np.argmax(colours, axis=1)
        # the reached entries, node-major: row 4 i + g, column 4 j + f
        node, fld = np.divmod(np.arange(m), 4)
        pattern = np.abs(node[:, None] - node) <= REACH_TABLE[fld, fld[:, None]]
        rows, cols = np.nonzero(pattern)
        # each goes to its own entry of the (4, 16, n) colour
        # differences: its row's field, its column's colour, its row's node
        difference = (fld[rows] * 16 + colour_of[fld[cols], node[cols]]) * n + node[rows]
        assert len(np.unique(difference)) == len(difference)
        assert np.array_equal(np.flatnonzero(reached), np.sort(difference))
        # and to its place in the band storage, in the order of the
        # differences, inside the 3 BAND + 1 rows below the fill-in
        storage_row = 2 * channel.BAND + rows - cols
        assert np.all((channel.BAND <= storage_row) & (storage_row <= 3 * channel.BAND))
        place = cols * (3 * channel.BAND + 1) + storage_row
        assert np.array_equal(band_index, place[np.argsort(difference)])
        assert band_index.max() < m * (3 * channel.BAND + 1)


class TestLocalResidual:
    """The banded Jacobian Newton solves with is the whole Jacobian of
    the local residual R, and R vanishes at a converged state."""

    @staticmethod
    def dense_jacobian(newton, z):
        """The dense forward-difference Jacobian of R at z, one column at
        a time, with the steps of ``direction``, in node-major order:
        entry 4 i + f is field f of node i, the transpose of the (4, n)
        state."""
        r = newton.local_residual(z * newton.scale)
        h = 1.5e-8 * np.maximum(np.abs(z), 1e-8)
        m = z.size
        dense = np.empty((m, m))
        for j in range(m):
            node, field = divmod(j, 4)
            moved = z.copy()
            moved[field, node] += h[field, node]
            column = (newton.local_residual(moved * newton.scale) - r) / h[field, node]
            dense[:, j] = column.T.ravel()
        return dense

    def test_banded_jacobian_is_the_dense_one(self, converged_newton, monkeypatch):
        newton, z = converged_newton
        factored = []
        gbtrf = channel._GBTRF

        def recorded_gbtrf(ab, kl, ku, **kwargs):
            factored.append(ab.copy())
            return gbtrf(ab, kl, ku, **kwargs)

        # the band that direction hands LAPACK, in gbtrf's storage
        monkeypatch.setattr(channel, "_GBTRF", recorded_gbtrf)
        newton.direction(z)
        (ab,) = factored
        assert ab.shape == (3 * channel.BAND + 1, z.size)
        dense = self.dense_jacobian(newton, z)
        m = z.size
        node, fields = np.divmod(np.arange(m), 4)
        allowed = np.abs(node[:, None] - node) <= REACH_TABLE[fields, fields[:, None]]
        assert np.count_nonzero(dense[~allowed]) == 0
        rows, cols = np.indices((m, m))
        in_band = np.abs(rows - cols) <= channel.BAND
        banded = np.zeros((m, m))
        banded[in_band] = ab[(2 * channel.BAND + rows - cols)[in_band], cols[in_band]]
        for j in range(m):
            assert np.array_equal(banded[:, j], dense[:, j]), f"column {j}"

    @pytest.mark.parametrize(
        "lead, coefficient_lead",
        [((), ()), ((3,), (3,)), ((2, 3), (2, 3)), ((3,), ())],
        ids=["one_row", "stack", "k_and_omega", "shared_coefficients"],
    )
    def test_transport_residual_is_the_tridiagonal_one(self, lead, coefficient_lead):
        # A phi - b as the full diagonals of _tridiagonal give it, bit for
        # bit: NaN, infinities and signed zeros in phi included
        n = 33
        grid = channel._Grid(channel.make_grid(180.0, n, 0.5))
        rng = np.random.default_rng(3)
        gamma = rng.uniform(0.5, 2.0, coefficient_lead + (n - 1,))
        sink = -rng.uniform(0.0, 1.0, coefficient_lead + (n,))
        source = rng.normal(size=coefficient_lead + (n,))
        phi = rng.normal(size=lead + (n,))
        phi[..., 0] = -0.0  # minus the wall value 0 gives -0
        phi.ravel()[rng.choice(phi.size, 6, replace=False)] = [
            np.nan, np.inf, -np.inf, 0.0, -0.0, 1e300]
        wall = grid.walls.reshape(2, 1) if lead == (2, 3) else 0.0
        lower, diag, upper, rhs = channel._tridiagonal(grid, gamma, sink, source, wall)
        expected = diag * phi - rhs
        expected[..., 1:] += lower[..., 1:] * phi[..., :-1]
        expected[..., :-1] += upper[..., :-1] * phi[..., 1:]
        r = channel._transport_residual(grid, phi, gamma, sink, source, wall)
        assert r.shape == expected.shape
        assert np.array_equal(r, expected, equal_nan=True)
        assert np.array_equal(np.signbit(r), np.signbit(expected))

    def test_singular_jacobian_ends_the_attempt(self, monkeypatch):
        # a local residual that does not depend on nu_t has zero nu_t
        # columns: gbsv reports the singular factor and the attempt ends
        grid = channel._Grid(channel.make_grid(180.0, 33, 0.5))
        fixed = channel._init_state(grid)
        x = np.stack(fixed)
        fp = channel._FixedPoint(grid, 180.0)
        local_residual = fp.local_residual

        def without_nu_t(x):
            x = x.copy()
            x[3] = fixed[3]
            return local_residual(x)

        monkeypatch.setattr(fp, "local_residual", without_nu_t)
        fp.attempt(x, fp.sweep(x))
        assert (fp.result, fp.newton_steps, fp.reason) == (
            None, 1, "singular Jacobian at Newton step 1")
        assert fp.f == fp.scaled_f(x)[0] > channel.NEWTON_TOL

    def test_direction_peak_memory(self, envelope_datafree_180):
        state = envelope_datafree_180.corner_states["1C"]
        injection = channel.PerturbationInjection("datafree", corner="1C", delta_b=1.0)
        newton = channel._FixedPoint.under(channel._Grid(state.y_plus), state, injection)
        x = state.x
        newton.scale = channel._scale(x)
        newton.direction(x / newton.scale)  # the index tables are built once per size
        tracemalloc.start()
        try:
            newton.direction(x / newton.scale)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the default grid's 192 nodes: 851,664 B with 16 colours and BAND 9
        # (851,080 B before the k and omega sinks and sources were written
        # into preallocated pairs)
        assert peak <= 922e3

    @staticmethod
    def assert_direction_is_the_flat_reference(newton, z):
        dz, expected = newton.direction(z), reference_direction(newton, z)
        assert np.array_equal(dz, expected)
        assert np.array_equal(np.signbit(dz), np.signbit(expected))

    def test_direction_is_the_flat_reference(self, converged_newton):
        self.assert_direction_is_the_flat_reference(*converged_newton)

    def test_direction_on_the_envelope_is_the_flat_reference(self, envelope_datafree_180):
        # at each corner of the default envelope, and at the initial
        # state under the corner's injection
        grid = channel._Grid(envelope_datafree_180.baseline.y_plus)
        start = channel._start(180.0, ChannelConfig(re_tau=180.0))[1].x
        for corner, state in envelope_datafree_180.corner_states.items():
            injection = channel.PerturbationInjection("datafree", corner=corner, delta_b=1.0)
            for x in (state.x, start):
                newton = channel._FixedPoint(grid, 180.0, injection)
                newton.scale = channel._scale(x)
                self.assert_direction_is_the_flat_reference(newton, x / newton.scale)

    def test_chord_step_is_the_dense_solve(self, converged_newton):
        # factored at z0, the step at z1 is -J0^-1 R(z1), J0 the dense
        # Jacobian at z0
        newton, z0 = converged_newton
        newton.direction(z0)
        j0 = self.dense_jacobian(newton, z0)
        rng = np.random.default_rng(11)
        z1 = z0 * (1.0 + 1e-3 * rng.uniform(-1.0, 1.0, z0.shape))
        dz = newton.chord(z1)
        r = newton.local_residual(z1 * newton.scale)
        expected = np.linalg.solve(j0, -r.T.ravel()).reshape(-1, 4).T
        assert np.max(np.abs(dz - expected)) <= 1e-12 * np.max(np.abs(expected))
        assert np.max(np.abs(expected)) > 1e-6

    @staticmethod
    def recorded_newton(monkeypatch):
        """The calls of ``_FixedPoint.direction`` and ``chord``, in
        order, each with a copy of its z; every chord step is 0, so none
        cuts F."""
        calls = []
        direction = channel._FixedPoint.direction

        def recorded_direction(self, z):
            calls.append(("direction", z.copy()))
            return direction(self, z)

        def zero_chord(self, z):
            calls.append(("chord", z.copy()))
            return np.zeros_like(z)

        monkeypatch.setattr(channel._FixedPoint, "direction", recorded_direction)
        monkeypatch.setattr(channel._FixedPoint, "chord", zero_chord)
        return calls

    def test_chord_step_that_keeps_f_is_discarded(self, monkeypatch):
        # every chord step fails the contraction test: each is followed
        # by a fresh direction at the same z, and only fresh steps count
        calls = self.recorded_newton(monkeypatch)
        cfg = ChannelConfig(re_tau=180.0, n_cells=32)
        state = channel.solve(cfg, channel.PerturbationInjection("datafree", corner="1C",
                                                                 delta_b=1.0))
        assert state.fixed_point_residual <= channel.NEWTON_TOL
        chords = [i for i, (name, _) in enumerate(calls) if name == "chord"]
        assert chords
        for i in chords:
            assert calls[i + 1][0] == "direction"
            assert np.array_equal(calls[i + 1][1], calls[i][1])
        assert state.newton_steps == state.jacobians == len(calls) - len(chords)

    def test_failing_line_search_after_a_discarded_chord_step(self, monkeypatch):
        # one full fresh step from near the fixed point keeps its
        # factors; the chord step after it is discarded, and when the
        # fresh step at its z finds no lower F the attempt ends there
        # with the line search's message, the discarded step uncounted
        cfg = ChannelConfig(re_tau=180.0, n_cells=32)
        converged = channel.solve(cfg)
        grid = channel._Grid(converged.y_plus)
        fp = channel._FixedPoint(grid, 180.0)
        x0 = converged.x * (1.0 + 1e-4 * np.random.default_rng(2).uniform(-1, 1, (4, 32)))
        x0[1, 0] = x0[3, 0] = 0.0
        calls = self.recorded_newton(monkeypatch)
        scaled_f = fp.scaled_f

        def no_lower_f_after_the_chord(x, g=None):
            f, g = scaled_f(x, g)
            directions = sum(name == "direction" for name, _ in calls)
            return (2.0 * fp.f if directions == 2 else f), g

        monkeypatch.setattr(fp, "scaled_f", no_lower_f_after_the_chord)
        fp.attempt(x0, None)
        assert [name for name, _ in calls] == ["direction", "chord", "direction"]
        assert np.array_equal(calls[1][1], calls[2][1])
        assert fp.result is None and fp.factors is None
        assert (fp.newton_steps, fp.jacobians) == (2, 2)
        assert fp.reason == f"no Newton step lowers the scaled F {fp.f:.3e} at step 2"

    def test_residual_vanishes_at_the_fixed_point(self, converged_newton):
        newton, z = converged_newton
        assert np.max(np.abs(newton.direction(z))) <= 1e-9


# values a state may hold where it enters a sweep or a residual
specials = st.lists(st.sampled_from([np.nan, np.inf, -np.inf, -0.0]), max_size=4)


class TestPackedIterate:
    """A sweep, a relative change and the local residual take the
    iterate U, k, omega, nu_t as one (4, ..., n) array, a state's ``x``.
    Whether it comes contiguous, as the strided rows of a stack's
    iterate (as Newton takes a row), as a sweep's output or as the
    iterate of ``_FixedPoint.state``, every result is the same bit for
    bit, NaN places, infinities and signs of zero included."""

    N = 33

    @staticmethod
    def same(a, b):
        return np.array_equal(a, b, equal_nan=True) and np.array_equal(np.signbit(a),
                                                                        np.signbit(b))

    @staticmethod
    def outcome(f, *args):
        """What f(*args) returns, or the message of its SolverError."""
        try:
            return f(*args)
        except channel.SolverError as e:
            return str(e)

    @staticmethod
    def strided(x):
        """x as the row of a stack's iterate: a view of (4, ..., 2, n)."""
        return np.stack([np.zeros_like(x), x], axis=-2)[..., 1, :]

    def inputs(self, data, rows):
        """One state, one row or a (3, n) stack, with NaN, infinities and
        -0.0 drawn into its U, k, omega and nu_t: on its iterate,
        contiguous and strided; as a sweep's output holding those values;
        as a fixed point's ``state`` of the iterate; and that fixed point
        and iterate."""
        grid = channel._Grid(channel.make_grid(180.0, self.N, 0.5))
        scale = 1.0 if rows is None else np.array([[1.0], [0.7], [1.3]])
        x = np.stack([f * scale for f in channel._init_state(grid)])
        # a sweep of the state before the draws, its output overwritten
        swept = channel._sweep(grid, channel.ChannelState(180.0, grid.y, x, grid.grad(x[0])),
                               None, 0.8)
        for name, f in zip(("U", "k", "omega", "nu_t"), x):
            values = data.draw(specials, label=name)
            places = data.draw(st.lists(st.integers(0, f.size - 1), min_size=len(values),
                                        max_size=len(values)), label=f"{name} places")
            f.ravel()[places] = values
        dudy = grid.grad(x[0])
        swept.x[...], swept.dUdy_plus[...] = x, dudy
        injection = data.draw(st.sampled_from(
            [None, channel.PerturbationInjection("datafree", corner="1C", delta_b=1.0)]))
        fp = channel._FixedPoint(grid, 180.0, injection)
        states = (channel.ChannelState(180.0, grid.y, x, dudy),
                  channel.ChannelState(180.0, grid.y, self.strided(x), dudy), swept, fp.state(x))
        return grid, states, fp, x

    @settings(max_examples=60, deadline=None)
    @given(rows=st.sampled_from([None, 3]), injected=st.booleans(), data=st.data())
    def test_sweep_and_relative_change(self, rows, injected, data):
        # the stack's first row takes the eddy-viscosity closure, as the
        # baseline row of a mixed stack does
        with np.errstate(all="ignore"):
            grid, states, _, _ = self.inputs(data, rows)
            shear = 0.8 * (1.0 - grid.y / 180.0) if injected or rows else None
            ur, eddy = 0.5, None
            if rows:
                shear = shear * np.array([[0.0], [1.0], [1.2]])
                ur, eddy = np.array([[0.8], [0.5], [0.5]]), np.arange(rows)[:, None] == 0
            swept = [self.outcome(channel._sweep, grid, state, shear, ur, eddy)
                     for state in states]
            if isinstance(swept[0], str):
                assert swept == [swept[0]] * len(states)
                return
            for out in swept[1:]:
                assert self.same(out.x, swept[0].x)
                assert self.same(out.dUdy_plus, swept[0].dUdy_plus)
            # the sweep's output, contiguous and strided
            new = swept[0]
            apart = replace(new, x=self.strided(new.x))
            changes = [channel._relative_change(old, after)
                       for old in states for after in (new, apart)]
        for change in changes[1:]:
            assert self.same(change, changes[0])

    @settings(max_examples=60, deadline=None)
    @given(rows=st.sampled_from([None, 3]), data=st.data())
    def test_local_residual(self, rows, data):
        with np.errstate(all="ignore"):
            _, _, fp, x = self.inputs(data, rows)
            assert self.same(fp.local_residual(self.strided(x)), fp.local_residual(x))


class TestIterateViews:
    """Every state the solver makes holds U, k, omega and nu_t as views
    of the rows of its iterate ``x``, the one store of the four."""

    @staticmethod
    def assert_views(state):
        for row, name in enumerate(("U_plus", "k_plus", "omega_plus", "nu_t_plus")):
            view = getattr(state, name)
            assert np.shares_memory(view, state.x[row]), name
            assert view.shape == state.x.shape[1:], name

    def test_stack_helpers(self):
        cfg = ChannelConfig(re_tau=180.0, n_cells=32)
        grid, start = channel._start(180.0, cfg)
        stack = channel._stack([start, replace(start, x=2.0 * start.x), start], 180.0, grid.y)
        assert stack.x.shape == (4, 3, 32)
        fp = channel._FixedPoint(grid, 180.0)
        states = [start, stack, channel._take(stack, [1]), channel._take(stack, [2, 0]),
                  channel._sweep(grid, start, None, 0.8), channel._sweep(grid, stack, None, 0.8),
                  fp.state(stack.x)]
        for state in states:
            self.assert_views(state)
        assert np.array_equal(channel._take(stack, [1]).x, 2.0 * start.x)
        assert np.array_equal(channel._take(stack, [2, 0]).U_plus, [start.U_plus] * 2)

    def test_solved_states(self, envelope_datafree_180):
        self.assert_views(channel.solve(ChannelConfig(re_tau=180.0, n_cells=32)))
        self.assert_views(envelope_datafree_180.baseline)
        for state in envelope_datafree_180.corner_states.values():
            self.assert_views(state)

    def test_replace_moves_all_four_fields(self, envelope_datafree_180):
        state = envelope_datafree_180.corner_states["1C"]
        y = np.arange(4.0)[:, None] + state.x
        moved = replace(state, x=y)
        for row, name in enumerate(("U_plus", "k_plus", "omega_plus", "nu_t_plus")):
            assert np.array_equal(getattr(moved, name), y[row]), name
            assert np.shares_memory(getattr(moved, name), y[row]), name
            with pytest.raises(AttributeError):
                setattr(moved, name, y[row])


@pytest.fixture(scope="module")
def state():
    return channel.solve(ChannelConfig(re_tau=180.0, n_cells=96))


class TestBaselineSolve:

    def test_converged_flags(self, state):
        assert state.iterations == state.picard_sweeps + state.newton_steps
        assert state.fixed_point_residual <= channel.NEWTON_TOL

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
        pipeline.write_tables([([path], *pipeline.solution_table(state))])
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
            channel.solve(cfg, NanShear())
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
            channel.solve(cfg)
        assert np.isnan(err.value.residual_history[-1])

    def test_nonconvergence_raises(self):
        cfg = ChannelConfig(re_tau=180.0, n_cells=96, max_iters=10)
        with pytest.raises(channel.SolverError, match="no fixed point after 10 Picard sweeps"):
            channel.solve(cfg)


# NaN of either sign, both infinities, signed zeros, subnormals
SPECIAL_FLOATS = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.2250738585072014e-308]


class TestCsvWriter:
    @settings(max_examples=150, deadline=None)
    @given(
        table=arrays(np.float64, st.tuples(st.integers(1, 300), st.integers(1, 12)),
                     elements=st.floats(allow_nan=True, allow_infinity=True)),
        header=st.text(alphabet="abcxyz_,%", min_size=1, max_size=30),
    )
    @example(  # NaN, both infinities, -0.0, subnormals, both ends of the exponent range
        table=np.array([[np.nan, np.inf, -np.inf, -0.0],
                        [5e-324, -2.2250738585072014e-308, 1e-320, 1.7976931348623157e308],
                        [1 / 3, -1e308, 123456789.0, 0.1]]),
        header="a,b,c,d",
    )
    def test_bytes_are_savetxt_bytes(self, tmp_path_factory, table, header):
        out = tmp_path_factory.mktemp("csv")
        pipeline.write_tables([([out / "block.csv"], header, table.T)])
        np.savetxt(out / "savetxt.csv", table, fmt="%.17g", delimiter=",", comments="",
                   header=header)
        assert (out / "block.csv").read_bytes() == (out / "savetxt.csv").read_bytes()

    @settings(max_examples=100, deadline=None)
    @given(
        pool=st.integers(1, 40).flatmap(lambda n: st.lists(
            arrays(np.float64, n, elements=st.floats() | st.sampled_from(SPECIAL_FLOATS)),
            min_size=1, max_size=4)),
        tables=st.lists(st.tuples(st.integers(1, 3),
                                  st.lists(st.integers(0, 7), min_size=1, max_size=8)),
                        min_size=1, max_size=5),
    )
    @example(
        pool=[np.array([0.0, np.nan, np.inf, 5e-324, 1.0]),
              np.array([-0.0, -np.nan, -np.inf, -5e-324, 1.0])],
        tables=[(2, [0, 1, 0]), (1, [1, 2, 3]), (3, [0, 3]), (1, [2, 2])],
    )
    def test_tables_are_savetxt_bytes(self, tmp_path_factory, pool, tables):
        # every column drawn with its zeros' signs flipped beside it (the
        # same bytes when it has no zero); the tables draw from the pool,
        # so columns recur within a table and across tables
        pool = [c for column in pool for c in (column, np.where(column == 0.0, -column, column))]
        out = tmp_path_factory.mktemp("csv")
        tables = [([out / f"{t}_{p}.csv" for p in range(n_paths)],
                   ",".join(f"c{i}" for i in picks), [pool[i % len(pool)] for i in picks])
                  for t, (n_paths, picks) in enumerate(tables)]
        pipeline.write_tables(tables)
        for paths, header, columns in tables:
            np.savetxt(out / "savetxt.csv", np.column_stack(columns), fmt="%.17g",
                       delimiter=",", comments="", header=header)
            for path in paths:
                assert path.read_bytes() == (out / "savetxt.csv").read_bytes()

    def test_every_path_gets_the_table(self, tmp_path):
        table = np.arange(6.0).reshape(3, 2)
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        pipeline.write_tables([(paths, "u,v", table.T)])
        for path in paths:
            assert path.read_text() == "u,v\n0,1\n2,3\n4,5\n"
            assert np.array_equal(np.loadtxt(path, delimiter=",", skiprows=1), table)
