"""End-to-end acceptance suite.

Each test class checks one contract of the package: exactness of the
barycentric realizability map, algebraic round trips, solver physics
(plane strain, laminar limit, momentum balance), self-consistency of
every coupled corner and independence of its fixed point from the
iteration path and from the grid, convergence where Newton once stalled,
the baseline's order in the wall spacing, the gap the componentwise
modes leave with perfect targets, reference-stress propagation,
envelope behaviour of the data-driven mode, envelopes that hold the
reference, forest training quality, realizability of every perturbed
stress field, and the full-anisotropy correction round trip.
"""

import numpy as np
import pytest
from scipy.stats import special_ortho_group

from eigenuq import channel, dns, features, perturb, pipeline, rotation, tensors
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
        state = channel.solve(cfg, channel.FrozenStressInjection(profile=still))
        y = state.y_plus
        exact = y - y**2 / (2.0 * cfg.re_tau)
        assert np.max(np.abs(state.U_plus - exact)) <= 1e-3


class TestMomentumBalance:
    """Converged total shear matches 1 - y+/Re_tau within 1 percent for
    the baseline and every injection mode at both Reynolds numbers, and
    to 1e-8 for every injected stress."""

    def test_all_states(self, all_injected_states):
        for label, state in all_injected_states.items():
            err = channel.total_shear_error(state)
            assert err < 0.01, f"{label}: total shear off by {err:.3e}"

    def test_fixed_stress_states_balance_discretely(self, all_injected_states):
        # a prescribed stress, or a coupled one at its fixed point, leaves
        # momentum one linear equation, so its discrete balance holds to
        # 1e-8
        fixed = {
            label: state for label, state in all_injected_states.items()
            if not label.startswith("baseline")
        }
        assert len(fixed) == 11
        for label, state in fixed.items():
            err = channel.total_shear_error(state)
            assert err <= 1e-8, f"{label}: total shear off by {err:.3e}"


class TestFixedPoint:
    """Every converged state is a fixed point of one more fixed-stress
    sweep, the sweep the solver runs once the stress is fixed, under the
    shear it reports: U, k and omega move by at most 1e-7 in the
    solver's own relative-change norm.

    This is the flow equations' fixed point with the reported shear held
    fixed; TestStressConsistency checks the stress itself.
    """

    def test_all_states(self, all_injected_states):
        for label, state in all_injected_states.items():
            shear = None if label.startswith("baseline") else state.minus_uv_plus
            after = channel._sweep(channel._Grid(state.y_plus), state, shear, 0.5)
            change = channel._relative_change(state, after)
            assert change <= 1e-7, f"{label}: one more sweep moves the state by {change:.3e}"


def newton_correction(state, injection):
    """The largest entry of the scaled Newton step -J^-1 R that the
    local residual R asks for at a converged corner."""
    newton = channel._FixedPoint(channel._Grid(state.y_plus), state.re_tau, injection)
    x = state.x
    newton.scale = channel._scale(x)
    return np.max(np.abs(newton.direction(x / newton.scale)))


class TestStressConsistency:
    """Every coupled corner used the shear its injection gives on the
    converged flow, capped by the total-stress line, to within 1e-6,
    reached its fixed point to a scaled F of NEWTON_TOL, and is a zero
    of the local residual to roundoff: Newton would move it by at most
    1e-9 of each field's scale. Each one, and datafree 2C at delta_b 0.5
    and Re_tau 180, needs one Picard block to reach Newton's basin."""

    def test_unfrozen_coupled_states(self, all_injected_states, targets_p_1000):
        injections = {
            "datafree_180": channel.corner_injections("datafree", delta_b=1.0),
            "datafree_1000": channel.corner_injections("datafree", delta_b=1.0),
            "datadriven_1000": channel.corner_injections("p", targets=targets_p_1000),
        }
        for label, corners in injections.items():
            for corner, injection in corners.items():
                state = all_injected_states[f"{label}_{corner}"]
                cap = 1.0 - state.y_plus / state.re_tau
                recomputed = np.minimum(-injection.compute(state)[:, 0, 1], cap)
                err = np.max(np.abs(recomputed - state.minus_uv_plus))
                assert err <= 1e-6, f"{label}_{corner}: shear off by {err:.3e}"
                assert state.stress_consistency == err, f"{label}_{corner}"
                assert state.fixed_point_residual <= channel.NEWTON_TOL, f"{label}_{corner}"
                assert newton_correction(state, injection) <= 1e-9, f"{label}_{corner}"
                assert state.picard_sweeps == channel.PICARD_BLOCK, f"{label}_{corner}"
        half = channel.solve(
            ChannelConfig(re_tau=180.0),
            channel.PerturbationInjection("datafree", corner="2C", delta_b=0.5))
        assert half.fixed_point_residual <= channel.NEWTON_TOL
        assert half.picard_sweeps == channel.PICARD_BLOCK


class TestHighReynoldsCorners:
    """At Re_tau 5200, the largest training Re_tau, nu_t is largest, and
    a datafree corner with a small delta_b keeps a nearly Boussinesq
    shear that answers a change of dU/dy with a gain of about nu_t. The
    Picard stress relaxation damps that loop by 1 / (1 + nu_t): each
    corner at delta_b 0.1 reaches its fixed point within two blocks."""

    @pytest.mark.parametrize("corner", ["1C", "2C", "3C"])
    def test_small_delta_b_reaches_its_fixed_point(self, corner):
        state = channel.solve(
            ChannelConfig(re_tau=5200.0),
            channel.PerturbationInjection("datafree", corner=corner, delta_b=0.1))
        assert state.fixed_point_residual <= channel.NEWTON_TOL
        assert state.stress_consistency <= 1e-6
        assert state.picard_sweeps <= 2 * channel.PICARD_BLOCK


class TestNewtonWithoutStall:
    """The pcorr_angles envelope at Re_tau 1000 with the forest of
    ``train --seed 7``, on which matrix-free Newton-Krylov stalled for
    4,800 Picard sweeps and 128 steps, reaches its fixed point within a
    few Picard blocks."""

    def test_seed_7_pcorr_angles_envelope(self, baseline_1000):
        settings = pipeline.load_settings(overrides=[("train", "seed", 7)])
        fitted, _, _ = pipeline.train_forest(settings, "pcorr_angles")
        injections = channel.corner_injections(
            "pcorr_angles", targets=fitted.predict(features.feature_matrix(baseline_1000)))
        env = channel.uq_envelope(ChannelConfig(re_tau=1000.0), injections, baseline_1000)
        for corner, state in env.corner_states.items():
            assert state.fixed_point_residual <= channel.NEWTON_TOL, corner
            assert state.picard_sweeps <= 10 * channel.PICARD_BLOCK, corner
            assert state.stress_consistency <= 1e-6, corner
            assert newton_correction(state, injections[corner]) <= 1e-9, corner


class TestPathIndependence:
    """A corner's fixed point does not hinge on the iteration path.
    Moving the initial U by 4 ulp sends the 1C corner at Re_tau 1000
    down another path of Picard sweeps, yet the envelope moves by at most
    1e-6 in U+.
    """

    @pytest.mark.parametrize("mode", ["datafree", "p"])
    def test_ulp_shift_keeps_the_envelope(self, mode, request, targets_p_1000, monkeypatch):
        if mode == "datafree":
            env = request.getfixturevalue("envelope_datafree_1000")
            injection = channel.PerturbationInjection("datafree", corner="1C", delta_b=1.0)
        else:
            env = request.getfixturevalue("envelope_datadriven_1000")
            injection = channel.PerturbationInjection("p", corner="1C", targets=targets_p_1000)
        init_state = channel._init_state

        def shifted_init_state(grid):
            U, k, om, nu_t = init_state(grid)
            U = U.copy()
            for _ in range(4):
                U[1:] = np.nextafter(U[1:], np.inf)
            return U, k, om, nu_t

        monkeypatch.setattr(channel, "_init_state", shifted_init_state)
        shifted = channel.solve(ChannelConfig(re_tau=1000.0), injection)
        old = env.corner_states["1C"]
        assert not np.array_equal(shifted.U_plus, old.U_plus)
        others = [env.baseline] + [s for c, s in env.corner_states.items() if c != "1C"]
        profiles = np.vstack([s.U_plus for s in others] + [shifted.U_plus])
        lower = np.max(np.abs(profiles.min(axis=0) - env.U_min))
        upper = np.max(np.abs(profiles.max(axis=0) - env.U_max))
        assert max(lower, upper) <= 1e-6, f"U_min moved by {lower:.3e}, U_max by {upper:.3e}"


class TestGridConvergence:
    """The converged datafree envelope at Re_tau 180 is a property of the
    flow, not of the grid: doubling the 192 cells moves its integrated
    width and every corner's centreline U+ by 0.5% or less."""

    def test_envelope_on_a_doubled_grid(self, envelope_datafree_180):
        fine = channel.uq_envelope(ChannelConfig(re_tau=180.0, n_cells=384),
                                   channel.corner_injections("datafree", delta_b=1.0))
        coarse_width = envelope_datafree_180.integrated_width()
        assert abs(fine.integrated_width() / coarse_width - 1.0) <= 5e-3
        for corner, state in envelope_datafree_180.corner_states.items():
            change = fine.corner_states[corner].centerline_U / state.centerline_U - 1.0
            assert abs(change) <= 5e-3, f"{corner}: centreline U+ moved by {change:.2%}"


class TestWallSpacingStudy:
    """The grid study of the default baseline in its first-node spacing
    y1 (``stretch``), at 192 cells and a refinement ratio of 2: the
    observed order p = ln((U1 - U2) / (U2 - U3)) / ln 2 of the centreline
    U+ and the Richardson estimate E = (U1 - U2) / (1 - 2^-p) of the
    default's distance from the limit y1 -> 0 (Roache 1998; Celik et al.,
    J. Fluids Eng. 130, 2008). Measured: p 0.846 and 0.842, E 0.249 and
    0.273 U+ at Re_tau 180 and 1000."""

    @pytest.mark.parametrize("re_tau", [180.0, 1000.0])
    def test_observed_order_and_richardson_error(self, re_tau):
        default = ChannelConfig(re_tau=re_tau)
        u1, u2, u3 = (channel.solve(ChannelConfig(re_tau=re_tau, stretch=default.stretch / m))
                      .centerline_U for m in (1, 2, 4))
        order = np.log((u1 - u2) / (u2 - u3)) / np.log(2.0)
        error = (u1 - u2) / (1.0 - 2.0**-order)
        assert 0.75 <= order <= 0.95, f"observed order {order:.3f}"
        assert 0.20 <= error <= 0.32, f"Richardson error {error:.3f} U+"


class TestOracleGap:
    """With the targets a perfect forest would predict, those of
    ``dns.build_targets`` against the synthetic reference, the corrected
    state lands far from that reference: max |U+ - U_ref+| is 8.2 and 9.4
    for pcorr and 20.5 and 21.6 for pcorr_angles at Re_tau 180 and 1000,
    where the baseline is 0.75 and 1.07 away. Why is open."""

    GAP = {"pcorr": (6.0, 12.0), "pcorr_angles": (15.0, 25.0)}

    @pytest.mark.parametrize("kind", sorted(GAP))
    @pytest.mark.parametrize("re_tau", [180.0, 1000.0])
    def test_gap_with_perfect_targets(self, request, re_tau, kind):
        baseline = request.getfixturevalue(f"baseline_{re_tau:g}")
        reference = dns.synthetic_profile(re_tau)
        found = dns.build_targets(baseline, reference, kind)
        # only the wall node is excluded; it is laminar, and the injection
        # leaves laminar nodes alone, so its zeros are never read
        assert found.n_excluded == 1 and baseline.k_plus[0] < tensors.K_FLOOR
        targets = np.zeros((len(baseline.y_plus), found.Y.shape[1]))
        targets[1:] = found.Y
        env = channel.uq_envelope(ChannelConfig(re_tau=re_tau),
                                  channel.corner_injections(kind, targets=targets), baseline)
        state = env.corner_states["1C"]
        assert state.fixed_point_residual <= channel.NEWTON_TOL
        gap = np.max(np.abs(state.U_plus - dns.interpolate(reference, state.y_plus).U_plus))
        low, high = self.GAP[kind]
        assert low <= gap <= high, f"oracle gap {gap:.3f} U+"


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

    def test_envelopes_hold_the_reference(self, envelope_datafree_180,
                                          envelope_datadriven_1000):
        # the claim of the bounds, compared exactly at every node; measured,
        # the tightest margins off the wall are 1.6e-6 U+ (data-free) and
        # 1.8e-6 U+ (magnitude forest), at the first node, y+ 0.5
        for env, re_tau in ((envelope_datafree_180, 180.0), (envelope_datadriven_1000, 1000.0)):
            reference = dns.interpolate(dns.synthetic_profile(re_tau), env.baseline.y_plus).U_plus
            assert np.all(env.U_min <= reference), re_tau
            assert np.all(reference <= env.U_max), re_tau
        # the data-free edges are the outer corners: 1C below, 3C above
        corners = envelope_datafree_180.corner_states
        assert np.array_equal(envelope_datafree_180.U_min, corners["1C"].U_plus)
        assert np.array_equal(envelope_datafree_180.U_max, corners["3C"].U_plus)


class TestForestTraining:
    def test_holdout_beats_mean_predictor(self, forest_p):
        _, metrics = forest_p
        assert metrics["holdout_mse"] < metrics["holdout_mean_predictor_mse"]

    def test_training_is_deterministic(self, forest_p, settings):
        fitted, _ = forest_p
        refit, _, _ = pipeline.train_forest(settings, "p")
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
