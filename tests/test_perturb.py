from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from eigenuq import channel, perturb, rotation, tensors

PROPERTY = settings(max_examples=100, deadline=None)

N = 6
corners = st.sampled_from(["1C", "2C", "3C"])
# realizable stresses: random triangle points, frames and k per node
nodes = st.tuples(
    arrays(np.float64, (N, 3), elements=st.floats(1e-3, 1.0)),
    arrays(np.float64, (N, 3), elements=st.floats(-np.pi, np.pi)),
    arrays(np.float64, N, elements=st.floats(1e-6, 1e3)),
)


def stress_at(xy, frame=None, k=None):
    """Stress stack whose barycentric points are the rows of xy."""
    xy = np.atleast_2d(np.asarray(xy, dtype=float))
    n = len(xy)
    lam = tensors.weights_to_eigenvalues(tensors.points_to_weights(xy))
    frame = np.tile(np.eye(3), (n, 1, 1)) if frame is None else frame
    return tensors.reconstruct(np.ones(n) if k is None else k, lam, frame)


def stress_from(node):
    w, angles, k = node
    xy = tensors.weights_to_points(w / w.sum(axis=1, keepdims=True))
    return stress_at(xy, rotation.rotation_matrix(angles), k)


def points_of(tau):
    _, lam, _, _ = tensors.decompose(tau)
    return tensors.weights_to_points(tensors.eigenvalues_to_weights(lam))


def interior_points(rng, n=20):
    return tensors.weights_to_points(rng.dirichlet(np.ones(3), size=n))


def forest_stub(n_targets, n_features=6):
    """Stands in for a trained forest where only its shape is checked."""
    return SimpleNamespace(n_features=n_features, n_targets=n_targets)


def all_modes(tau, rng):
    n = len(tau)
    p_corr = rng.uniform(-0.3, 0.3, size=(n, 2))
    return {
        "corner": perturb.data_free_corner(tau, "1C", 0.7),
        "magnitude": perturb.data_driven_magnitude(tau, "3C", rng.uniform(0.0, 0.5, n)),
        "componentwise": perturb.componentwise_correction(tau, p_corr),
        "full": perturb.full_anisotropy_correction(
            tau, p_corr, rng.uniform(-np.pi, np.pi, size=(n, 3))
        ),
    }


class TestSpecValidation:
    """Mode arguments are validated where the injection is built."""

    def test_constructors(self):
        channel.PerturbationInjection("datafree", corner="1C", delta_b=0.5)
        channel.PerturbationInjection("p", corner="2C", forest=forest_stub(1))
        channel.PerturbationInjection("pcorr", forest=forest_stub(2))
        channel.PerturbationInjection("pcorr_angles", forest=forest_stub(5))

    def test_missing_required_field(self):
        with pytest.raises(ValueError, match="needs corner and delta_b"):
            channel.PerturbationInjection("datafree", corner="1C")
        with pytest.raises(ValueError, match="needs corner and forest"):
            channel.PerturbationInjection("p", forest=forest_stub(1))
        with pytest.raises(ValueError, match="needs forest"):
            channel.PerturbationInjection("pcorr_angles")

    def test_forbidden_field(self):
        with pytest.raises(ValueError, match="does not take delta_b"):
            channel.PerturbationInjection("pcorr", forest=forest_stub(2), delta_b=0.5)
        with pytest.raises(ValueError, match="does not take forest"):
            channel.PerturbationInjection(
                "datafree", corner="1C", delta_b=0.5, forest=forest_stub(1)
            )

    def test_forest_feature_count(self):
        with pytest.raises(ValueError, match="forest expects 4 features, solver provides 6"):
            channel.PerturbationInjection("pcorr", forest=forest_stub(2, n_features=4))

    @pytest.mark.parametrize(
        "mode, corner, needed, given",
        [("p", "1C", 1, 2), ("pcorr", None, 2, 1), ("pcorr_angles", None, 5, 2)],
    )
    def test_forest_target_count(self, mode, corner, needed, given):
        with pytest.raises(ValueError, match=f"needs {needed} forest targets, got {given}"):
            channel.PerturbationInjection(mode, corner=corner, forest=forest_stub(given))

    def test_delta_b_range(self):
        for bad in (1.5, -0.1):
            with pytest.raises(ValueError, match="delta_b"):
                channel.PerturbationInjection("datafree", corner="1C", delta_b=bad)

    def test_negative_p(self, rng):
        # a negative predicted magnitude moves nothing
        tau = stress_at(interior_points(rng))
        out = perturb.data_driven_magnitude(tau, "1C", np.full(len(tau), -1.0))
        assert np.max(np.abs(out - tau)) <= 1e-14

    def test_bad_corner(self):
        with pytest.raises(ValueError, match="unknown corner"):
            channel.PerturbationInjection("datafree", corner="5C", delta_b=0.5)
        with pytest.raises(ValueError, match="unknown corner"):
            perturb.data_free_corner(stress_at([0.4, 0.3]), "5C", 0.5)


class TestPointOperations:
    """Each mode moves the barycentric point as its closed form says."""

    def test_zero_delta_is_identity(self, rng):
        x = interior_points(rng)
        out = perturb.data_free_corner(stress_at(x), "1C", 0.0)
        assert np.max(np.abs(points_of(out) - x)) <= 1e-15

    def test_unit_delta_reaches_corner(self, rng):
        for corner in ("1C", "2C", "3C"):
            out = perturb.data_free_corner(stress_at(interior_points(rng)), corner, 1.0)
            assert np.max(np.abs(points_of(out) - tensors.corner_coords(corner))) <= 1e-14

    def test_intermediate_delta_is_collinear(self, rng):
        x = interior_points(rng)
        xt = tensors.corner_coords("3C")
        out = perturb.data_free_corner(stress_at(x), "3C", 0.25)
        assert np.allclose(points_of(out), x + 0.25 * (xt - x), atol=1e-14)

    def test_magnitude_moves_exact_distance(self, rng):
        x = interior_points(rng)
        p = 0.5 * np.linalg.norm(tensors.corner_coords("1C") - x, axis=1)
        out = perturb.data_driven_magnitude(stress_at(x), "1C", p)
        assert np.allclose(np.linalg.norm(points_of(out) - x, axis=1), p, atol=1e-12)

    def test_magnitude_clamps_at_corner(self, rng):
        out = perturb.data_driven_magnitude(stress_at(interior_points(rng)), "2C", 100.0)
        assert np.max(np.abs(points_of(out) - tensors.corner_coords("2C"))) <= 1e-14

    def test_componentwise_projects_back_inside(self):
        out = perturb.componentwise_correction(stress_at([0.9, 0.05]), np.array([[5.0, 0.0]]))
        assert np.allclose(points_of(out), [tensors.corner_coords("1C")], atol=1e-14)

    def test_componentwise_plain_shift(self):
        out = perturb.componentwise_correction(stress_at([0.4, 0.3]), np.array([[0.05, -0.1]]))
        assert np.allclose(points_of(out), [[0.45, 0.2]], atol=1e-14)


class TestBuildPerturbedStress:
    def stress(self):
        return tensors.stress_stack([2.0], [0.8], [0.6], [-0.5])

    @PROPERTY
    @given(nodes, st.integers(0, 2**32 - 1))
    def test_kinetic_energy_preserved(self, node, seed):
        tau = stress_from(node)
        k = 0.5 * np.trace(tau, axis1=1, axis2=2)
        for mode, out in all_modes(tau, np.random.default_rng(seed)).items():
            assert np.allclose(0.5 * np.trace(out, axis1=1, axis2=2), k, rtol=1e-12, atol=0.0), mode

    @PROPERTY
    @given(nodes, st.integers(0, 2**32 - 1))
    def test_result_realizable(self, node, seed):
        for mode, out in all_modes(stress_from(node), np.random.default_rng(seed)).items():
            assert np.all(tensors.is_realizable(out, tol=1e-10)), mode

    @PROPERTY
    @given(nodes, st.integers(0, 2**32 - 1))
    def test_exactly_symmetric(self, node, seed):
        # the solver reads uv from the upper triangle, eigh the lower one
        tau = stress_from(node)  # built by tensors.reconstruct
        assert np.array_equal(tau, tau.swapaxes(1, 2))
        for mode, out in all_modes(tau, np.random.default_rng(seed)).items():
            assert np.array_equal(out, out.swapaxes(1, 2)), mode

    @PROPERTY
    @given(nodes, corners)
    def test_unit_delta_lands_on_corner(self, node, corner):
        out = perturb.data_free_corner(stress_from(node), corner, 1.0)
        assert np.max(np.abs(points_of(out) - tensors.corner_coords(corner))) <= 1e-10

    def test_degenerate_passthrough(self, rng):
        tau = np.concatenate([tensors.stress_stack([1e-14], [1e-14], [1e-14], [0.0]), self.stress()])
        for mode, out in all_modes(tau, rng).items():
            assert np.array_equal(out[0], tau[0]), mode
            assert not np.array_equal(out[1], tau[1]), mode

    def test_rotation_only_applied_in_full_mode(self):
        p_corr = np.array([[0.02, 0.01]])
        comp = perturb.componentwise_correction(self.stress(), p_corr)
        full = perturb.full_anisotropy_correction(self.stress(), p_corr, np.zeros((1, 3)))
        assert np.allclose(comp, full, atol=1e-12)
