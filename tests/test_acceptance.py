"""End-to-end acceptance suite.

Each test class checks one contract of the package: exactness of the
barycentric realizability map, algebraic round trips, solver physics
(plane strain, laminar limit, momentum balance), reference-stress
propagation, envelope behaviour of the data-driven mode, forest
training quality, realizability of every perturbed stress field, and
the full-anisotropy correction round trip.
"""

import numpy as np
import pytest
from scipy.stats import special_ortho_group

from eigenuq import channel, dns, perturb, pipeline, rotation, tensors
from eigenuq.channel import ChannelConfig


def random_realizable(rng, n, scale=1.0):
    a = rng.normal(size=(n, 3, 3))
    return np.asarray(scale)[..., None, None] * np.einsum("nij,nkj->nik", a, a)


def barycentric_points(tau):
    _, lam, _, _ = tensors.decompose(tau)
    return tensors.weights_to_points(tensors.eigenvalues_to_weights(lam))


class TestCornerExactness:
    """The three limiting states map onto the triangle corners exactly."""

    CORNERS = ("1C", "2C", "3C")

    @pytest.mark.parametrize("corner", CORNERS)
    def test_eigenvalue_map_round_trip(self, corner):
        target = tensors.corner_coords(corner)[None, :]
        lam = tensors.weights_to_eigenvalues(tensors.points_to_weights(target))
        back = tensors.weights_to_points(tensors.eigenvalues_to_weights(lam))
        assert np.max(np.abs(back - target)) <= 1e-12

    @pytest.mark.parametrize("corner", CORNERS)
    def test_tensor_level_round_trip(self, corner):
        target = tensors.corner_coords(corner)[None, :]
        lam = tensors.weights_to_eigenvalues(tensors.points_to_weights(target))
        tau = tensors.reconstruct(np.ones(1), lam, np.eye(3)[None])
        assert np.max(np.abs(barycentric_points(tau) - target)) <= 1e-12

    @pytest.mark.parametrize("corner", CORNERS)
    def test_unit_delta_b_lands_on_corner(self, corner, rng):
        target = tensors.corner_coords(corner)
        x = tensors.weights_to_points(rng.dirichlet(np.ones(3), size=100))
        lam = tensors.weights_to_eigenvalues(tensors.points_to_weights(x))
        tau = tensors.reconstruct(np.ones(100), lam, np.tile(np.eye(3), (100, 1, 1)))
        out = perturb.data_free_corner(tau, corner, 1.0)
        assert np.max(np.abs(barycentric_points(out) - target)) <= 1e-12

    @pytest.mark.parametrize("corner", CORNERS)
    def test_unit_delta_b_on_stress_tensor(self, corner, rng):
        target = tensors.corner_coords(corner)
        out = perturb.data_free_corner(random_realizable(rng, 20), corner, 1.0)
        assert np.max(np.abs(barycentric_points(out) - target)) <= 1e-9


class TestRoundTrips:
    """Algebraic round trips stay below 1e-9 over >= 1000 random cases."""

    N = 1000

    def test_decompose_reconstruct(self, rng):
        scale = rng.uniform(1e-4, 1e3, size=self.N)
        tau = random_realizable(rng, self.N, scale)
        k, lam, frame, _ = tensors.decompose(tau)
        err = np.max(np.abs(tensors.reconstruct(k, lam, frame) - tau), axis=(1, 2))
        assert np.all(err <= 1e-9 * np.maximum(1.0, 2.0 * k))

    def test_triangle_point_maps(self, rng):
        w = rng.dirichlet(np.ones(3), size=self.N)
        xy = tensors.weights_to_points(w)
        lam = tensors.weights_to_eigenvalues(tensors.points_to_weights(xy))
        back = tensors.eigenvalues_to_weights(lam)
        assert np.max(np.abs(tensors.weights_to_points(back) - xy)) <= 1e-9
        assert np.max(np.abs(back - w)) <= 1e-9

    def test_frame_rotation_extraction(self, rng):
        a = special_ortho_group.rvs(3, size=self.N, random_state=rng)
        b = special_ortho_group.rvs(3, size=self.N, random_state=rng)
        ang = rotation.extract_angles(a, b)
        assert np.max(np.abs(rotation.apply_rotation(a, ang) - b)) <= 1e-9


class TestPlaneStrainBaseline:
    """The baseline eddy-viscosity stress has a zero middle anisotropy
    eigenvalue at every turbulent node."""

    @pytest.mark.parametrize("label", ["baseline_180", "baseline_1000"])
    def test_middle_eigenvalue_vanishes(self, label, request):
        state = request.getfixturevalue(label)
        _, lam, _, degenerate = tensors.decompose(state.tau)
        assert np.all(np.abs(lam[~degenerate, 1]) < 1e-10)
        assert np.count_nonzero(~degenerate) > 100


class TestLaminarLimit:
    def test_analytic_parabola(self):
        # a prescribed zero Reynolds stress leaves only viscous shear
        cfg = ChannelConfig(re_tau=180.0, n_cells=384)
        y = np.linspace(0.0, cfg.re_tau, 8)
        zero = np.zeros_like(y)
        still = dns.DnsProfile(cfg.re_tau, y, zero, zero, zero, zero, zero)
        state = channel.solve_with_injection(cfg, channel.FrozenStressInjection(profile=still))
        y = state.y_plus
        exact = y - y**2 / (2.0 * cfg.re_tau)
        assert np.max(np.abs(state.U_plus - exact)) <= 1e-3


class TestMomentumBalance:
    """Converged total shear matches 1 - y+/Re_tau within 1 percent for
    the baseline and every injection mode at both Reynolds numbers, and
    to the solver tolerance wherever the stress is fixed."""

    def test_all_states(self, all_injected_states):
        for label, state in all_injected_states.items():
            err = channel.total_shear_error(state)
            assert err < 0.01, f"{label}: total shear off by {err:.3e}"

    def test_fixed_stress_states_balance_discretely(self, all_injected_states):
        # a prescribed or frozen stress leaves momentum one linear
        # equation, so its discrete balance holds to the solver tolerance
        fixed = {
            label: state for label, state in all_injected_states.items()
            if label.startswith("frozen") or state.frozen_at is not None
        }
        assert len(fixed) >= 6
        for label, state in fixed.items():
            err = channel.total_shear_error(state)
            tol = ChannelConfig(re_tau=state.re_tau).residual_tol
            assert err <= tol, f"{label}: total shear off by {err:.3e}"


class TestFixedPoint:
    """Every converged state is a fixed point of one more fixed-stress
    sweep, the sweep the solver runs once the stress is fixed, under the
    shear it reports: U, k and omega move by at most 10 x residual_tol
    in the solver's own relative-change norm.

    This is the flow equations' fixed point with the reported shear held
    fixed, not self-consistency of the stress: the frozen corner
    stresses differ from the stress recomputed from the converged flow
    by up to 0.9 in wall units.
    """

    def test_all_states(self, all_injected_states):
        for label, state in all_injected_states.items():
            shear = None if label.startswith("baseline") else state.minus_uv_plus
            after = channel._sweep(channel._Grid(state.y_plus), state, shear, 0.5, coupled=False)
            change = channel._relative_change(state, after)
            tol = 10.0 * ChannelConfig(re_tau=state.re_tau).residual_tol
            assert change <= tol, f"{label}: one more sweep moves the state by {change:.3e}"


class TestReferencePropagation:
    def test_clean_propagation_recovers_reference(
        self, frozen_state_1000, synthetic_1000
    ):
        ref = dns.interpolate(synthetic_1000, frozen_state_1000.y_plus)
        rel = np.linalg.norm(frozen_state_1000.U_plus - ref.U_plus) / np.linalg.norm(
            ref.U_plus
        )
        assert rel < 0.01

    def test_noise_robustness(self, frozen_state_1000, frozen_state_noisy_1000):
        clean = frozen_state_1000.U_plus
        noisy = frozen_state_noisy_1000.U_plus
        rel = np.linalg.norm(noisy - clean) / np.linalg.norm(clean)
        assert rel < 0.02


class TestEnvelopes:
    """The trained magnitude forest narrows the data-free envelope while
    keeping it strictly positive in the log layer."""

    def band(self, env):
        y = env.baseline.y_plus
        return (y >= 30.0) & (y <= 300.0)

    def test_data_driven_is_narrower(
        self, envelope_datafree_1000, envelope_datadriven_1000
    ):
        w_free = envelope_datafree_1000.integrated_width()
        w_driven = envelope_datadriven_1000.integrated_width()
        assert w_driven < w_free

    def test_widths_positive_in_log_layer(
        self, envelope_datafree_1000, envelope_datadriven_1000
    ):
        for env in (envelope_datafree_1000, envelope_datadriven_1000):
            mask = self.band(env)
            assert np.sum(mask) > 10
            assert np.min(env.width[mask]) > 0.0


class TestForestTraining:
    def test_holdout_beats_mean_predictor(self, forest_p):
        _, metrics = forest_p
        assert metrics["holdout_mse"] < metrics["holdout_mean_predictor_mse"]

    def test_training_is_deterministic(self, forest_p, settings):
        fitted, _ = forest_p
        refit, _ = pipeline.train_forest(settings, "p")
        probe = np.random.default_rng(0).uniform(0.0, 1.0, size=(200, fitted.n_features))
        assert np.array_equal(fitted.predict(probe), refit.predict(probe))


class TestRealizability:
    """No stress tensor produced by any run violates realizability."""

    def test_zero_violations_everywhere(self, all_injected_states):
        for label, state in all_injected_states.items():
            bad = pipeline.count_realizability_violations(state)
            assert bad == 0, f"{label}: {bad} non-realizable nodes"


class TestFullCorrectionRoundTrip:
    """Perturb a converged field into a synthetic reference, rebuild the
    exact per-node correction targets, and recover the reference
    stresses through the full-anisotropy mode to 1e-8 per node."""

    def test_recover_reference_stresses(self, baseline_180, rng):
        _, _, frame_r, degenerate = tensors.decompose(baseline_180.tau)
        tau = baseline_180.tau[~degenerate]
        frame_r = frame_r[~degenerate]
        n = len(tau)
        # synthetic reference: shift toward a random interior point and
        # rotate the frame
        x_t = tensors.weights_to_points(rng.dirichlet(np.ones(3), size=n))
        x_r = barycentric_points(tau)
        tau_ref = perturb.full_anisotropy_correction(
            tau, x_t - x_r, rng.uniform(-0.5, 0.5, size=(n, 3))
        )

        # targets exactly as a training-set builder would compute them
        _, _, frame_d, _ = tensors.decompose(tau_ref)
        p_corr = barycentric_points(tau_ref) - x_r
        angles = rotation.extract_angles(frame_r, frame_d)

        recovered = perturb.full_anisotropy_correction(tau, p_corr, angles)
        err = np.max(np.abs(recovered - tau_ref), axis=(1, 2))
        assert np.all(err <= 1e-8), f"max node error {err.max():.3e}"
        assert n > 100
