import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from eigenuq import rotation, tensors

PROPERTY = settings(max_examples=200, deadline=None)

unit = st.floats(-1.0, 1.0, allow_subnormal=False)
# random (n, 3, 3) factors a; a a^T is a realizable (PSD) stress stack
factors = arrays(np.float64, st.tuples(st.integers(1, 8), st.just(3), st.just(3)), elements=unit)
scales = st.floats(1e-6, 1e3)
# random corner weights: positive triples normalized to sum 1
weight_stacks = arrays(
    np.float64, st.tuples(st.integers(1, 8), st.just(3)), elements=st.floats(1e-3, 1.0)
).map(lambda w: w / w.sum(axis=1, keepdims=True))
angle_rows = arrays(np.float64, (8, 3), elements=st.floats(-np.pi, np.pi))
planes = arrays(np.float64, st.tuples(st.integers(1, 8), st.just(2)), elements=st.floats(-3.0, 3.0))


def psd(a, scale=1.0):
    return scale * np.einsum("nij,nkj->nik", a, a)


def turbulent(tau):
    """Decomposition of a stack, keeping only its non-degenerate nodes."""
    k, lam, frame, degenerate = tensors.decompose(tau)
    assume(not degenerate.all())
    keep = ~degenerate
    return tau[keep], k[keep], lam[keep], frame[keep]


def anisotropy(tau, k):
    return tau / k[:, None, None] - (2.0 / 3.0) * np.eye(3)


class TestReynoldsStress:
    def test_k_is_half_trace(self):
        tau = tensors.stress_stack([2.0], [1.0], [0.5], [-0.3])
        k, *_ = tensors.decompose(tau)
        assert k[0] == pytest.approx(0.5 * (2.0 + 1.0 + 0.5))

    def test_matrix_round_trip(self, rng):
        uu, vv, ww, uv = rng.normal(size=(4, 20))
        tau = tensors.stress_stack(uu, vv, ww, uv)
        assert np.array_equal(tau[:, 0, 0], uu)
        assert np.array_equal(tau[:, 1, 1], vv)
        assert np.array_equal(tau[:, 2, 2], ww)
        assert np.array_equal(tau[:, 0, 1], uv)
        assert np.all(tau[:, 0, 2] == 0.0) and np.all(tau[:, 1, 2] == 0.0)

    def test_matrix_is_symmetric(self, rng):
        tau = tensors.stress_stack(*rng.normal(size=(4, 20)))
        assert np.array_equal(tau, np.swapaxes(tau, 1, 2))


class TestCorners:
    def test_known_coordinates(self):
        assert np.allclose(tensors.corner_coords("1C"), [1.0, 0.0])
        assert np.allclose(tensors.corner_coords("2C"), [0.0, 0.0])
        assert np.allclose(tensors.corner_coords("3C"), [0.5, np.sqrt(3.0) / 2.0])

    def test_unknown_corner_raises(self):
        with pytest.raises(ValueError, match="unknown corner"):
            tensors.corner_coords("4C")

    def test_coords_are_copies(self):
        c = tensors.corner_coords("1C")
        c[0] = 99.0
        assert tensors.corner_coords("1C")[0] == 1.0


class TestDecompose:
    @PROPERTY
    @given(factors)
    def test_eigenvalues_sorted_descending(self, a):
        _, _, lam, _ = turbulent(psd(a))
        assert np.all(lam[:, 0] >= lam[:, 1]) and np.all(lam[:, 1] >= lam[:, 2])

    @PROPERTY
    @given(factors)
    def test_eigenpairs_satisfy_eigen_equation(self, a):
        tau, k, lam, frame = turbulent(psd(a))
        av = anisotropy(tau, k) @ frame
        assert np.max(np.abs(av - frame * lam[:, None, :])) <= 1e-12

    @PROPERTY
    @given(factors)
    def test_anisotropy_traceless(self, a):
        _, _, lam, _ = turbulent(psd(a))
        assert np.max(np.abs(lam.sum(axis=1))) < 1e-12

    @PROPERTY
    @given(factors)
    def test_frame_orthonormal_right_handed(self, a):
        _, _, _, frame = turbulent(psd(a))
        gram = np.swapaxes(frame, 1, 2) @ frame
        assert np.max(np.abs(gram - np.eye(3))) <= 1e-12
        assert np.allclose(np.linalg.det(frame), 1.0, atol=1e-12)

    @PROPERTY
    @given(factors)
    def test_largest_component_positive(self, a):
        # the third column is signed by right-handedness instead
        _, _, _, frame = turbulent(psd(a))
        imax = np.argmax(np.abs(frame), axis=1)
        lead = np.take_along_axis(frame, imax[:, None, :], axis=1)[:, 0, :]
        assert np.all(lead[:, :2] > 0.0)

    @PROPERTY
    @given(factors, scales)
    def test_reconstruct_inverts_decompose(self, a, scale):
        tau = psd(a, scale)
        k, lam, frame, degenerate = tensors.decompose(tau)
        back = tensors.reconstruct(k, lam, frame)
        err = np.max(np.abs(back - tau)[~degenerate], axis=(1, 2), initial=0.0)
        assert np.all(err <= 1e-9 * np.maximum(1.0, 2.0 * k[~degenerate]))

    def test_degenerate_below_k_floor(self):
        tau = tensors.stress_stack([1e-14, 1.0], [1e-14, 0.5], [1e-14, 0.5], [0.0, -0.2])
        k, lam, frame, degenerate = tensors.decompose(tau)
        assert degenerate.tolist() == [True, False]
        assert np.array_equal(lam[0], np.zeros(3))
        assert np.array_equal(frame[0], np.eye(3))

    @PROPERTY
    @given(
        arrays(np.float64, st.tuples(st.integers(1, 8), st.just(3), st.just(3)),
               elements=st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, 1e-13, -1e-13])),
        st.lists(st.booleans(), min_size=8, max_size=8),
    )
    @example(  # a node of signed zeros, one just under K_FLOOR, one turbulent
        tau=np.stack([np.full((3, 3), -0.0), np.diag([5e-13, 4e-13, -0.0]),
                      tensors.stress_stack([1.0], [0.5], [0.5], [-0.2])[0]]),
        laminar=[False] * 8,
    )
    def test_eigenvalues_alone_are_decompose_bit_for_bit(self, tau, laminar):
        # mirror the lower triangle up (signed zeros and all) and scale the
        # drawn nodes below K_FLOOR
        tau = np.where(np.tri(3, dtype=bool), tau, np.swapaxes(tau, 1, 2))
        tau[np.array(laminar[:len(tau)])] *= 1e-16
        _, lam, _, degenerate = tensors.decompose(tau)
        alone, alone_degenerate = tensors.anisotropy_eigenvalues(tau)
        assert alone.tobytes() == lam.tobytes()
        assert np.array_equal(alone_degenerate, degenerate)


class TestBarycentricMap:
    @PROPERTY
    @given(planes, factors)
    def test_weights_sum_to_one(self, xy, a):
        assert np.allclose(tensors.points_to_weights(xy).sum(axis=1), 1.0, atol=1e-12)
        _, _, lam, _ = turbulent(psd(a))
        assert np.allclose(tensors.eigenvalues_to_weights(lam).sum(axis=1), 1.0, atol=1e-12)

    def test_corner_weights_are_unit_vectors(self):
        assert np.max(np.abs(tensors.points_to_weights(tensors.CORNERS) - np.eye(3))) <= 1e-12
        assert np.array_equal(tensors.weights_to_points(np.eye(3)), tensors.CORNERS)

    def test_limiting_state_eigenvalues(self):
        # one-component: lam = (4/3, -2/3, -2/3); isotropic: lam = 0
        lam = tensors.weights_to_eigenvalues(tensors.points_to_weights(tensors.CORNERS))
        assert np.allclose(lam[0], [4.0 / 3.0, -2.0 / 3.0, -2.0 / 3.0], atol=1e-12)
        assert np.allclose(lam[1], [1.0 / 3.0, 1.0 / 3.0, -2.0 / 3.0], atol=1e-12)
        assert np.allclose(lam[2], np.zeros(3), atol=1e-12)

    @PROPERTY
    @given(weight_stacks)
    def test_point_eigenvalue_round_trip(self, w):
        xy = tensors.weights_to_points(w)
        lam = tensors.weights_to_eigenvalues(tensors.points_to_weights(xy))
        assert np.max(np.abs(lam.sum(axis=1))) <= 1e-12
        back = tensors.eigenvalues_to_weights(lam)
        assert np.max(np.abs(back - w)) <= 1e-12
        assert np.max(np.abs(tensors.weights_to_points(back) - xy)) <= 1e-12

    def test_inside(self):
        w = tensors.points_to_weights(np.array([[0.5, 0.2], [1.5, 0.0]]))
        assert w[0].min() >= 0.0
        assert w[1].min() < 0.0


class TestProjection:
    def test_inside_points_unchanged(self):
        xy = np.array([[0.4, 0.3], [0.5, 0.1]])
        assert np.array_equal(tensors.project_into_triangle(xy), xy)

    @PROPERTY
    @given(planes)
    def test_outside_points_land_inside(self, xy):
        out = tensors.project_into_triangle(xy)
        assert np.all(tensors.points_to_weights(out) >= -1e-12)

    @PROPERTY
    @given(planes)
    def test_projection_is_idempotent(self, xy):
        once = tensors.project_into_triangle(xy)
        twice = tensors.project_into_triangle(once)
        assert np.allclose(once, twice, atol=1e-12)

    @PROPERTY
    @given(planes, st.integers(0, 2**32 - 1))
    def test_matches_every_row_formula(self, xy, seed):
        # rows inside the triangle, on each edge and outside it, mixed
        rng = np.random.default_rng(seed)
        edge = rng.integers(0, 3, len(xy))
        on_edge = tensors.CORNERS[edge] + rng.uniform(0.0, 1.0, (len(xy), 1)) * (
            tensors.CORNERS[(edge + 1) % 3] - tensors.CORNERS[edge])
        inside = tensors.weights_to_points(rng.dirichlet(np.ones(3), len(xy)))
        rows = np.concatenate([xy, on_edge, inside])[rng.permutation(3 * len(xy))]
        before = rows.copy()
        assert np.array_equal(tensors.project_into_triangle(rows),
                              reference_project_into_triangle(rows))
        assert np.array_equal(rows, before)

    @PROPERTY
    @given(planes)
    def test_projection_is_nearest_point(self, xy):
        # p is the nearest point of the convex triangle to x iff
        # (x - p) . (c - p) <= 0 for every corner c
        p = tensors.project_into_triangle(xy)
        cone = np.einsum("nj,cnj->nc", xy - p, tensors.CORNERS[:, None, :] - p)
        assert np.all(cone <= 1e-12)


class TestRealizability:
    @PROPERTY
    @given(factors, scales)
    def test_psd_tensor_is_realizable(self, a, scale):
        assert np.all(tensors.is_realizable(psd(a, scale)))

    def test_indefinite_tensor_is_not(self):
        tau = tensors.stress_stack([1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [2.0, 0.5])
        assert tensors.is_realizable(tau).tolist() == [False, True]

    @PROPERTY
    @given(weight_stacks, angle_rows, scales)
    def test_reconstruction_from_triangle_is_realizable(self, w, angles, k):
        frame = rotation.rotation_matrix(angles[: len(w)])
        lam = tensors.weights_to_eigenvalues(w)
        tau = tensors.reconstruct(np.full(len(w), k), lam, frame)
        assert np.all(tensors.is_realizable(tau, tol=1e-10))


# the barycentric helpers as first written, one column_stack each; the
# helpers fill preallocated arrays with the same per-element formulas
def reference_eigenvalues_to_weights(lam):
    c1 = 0.5 * (lam[:, 0] - lam[:, 1])
    c2 = lam[:, 1] - lam[:, 2]
    c3 = 0.5 * (3.0 * lam[:, 2] + 2.0)
    return np.column_stack([c1, c2, c3])


def reference_points_to_weights(xy):
    c12 = (xy - tensors.CORNER_3C) @ tensors._A_INV.T
    return np.column_stack([c12, 1.0 - c12.sum(axis=1)])


def reference_weights_to_eigenvalues(w):
    l3 = (2.0 * w[:, 2] - 2.0) / 3.0
    l2 = w[:, 1] + l3
    l1 = 2.0 * w[:, 0] + l2
    return np.column_stack([l1, l2, l3])


def reference_project_into_triangle(xy):
    """The projection as first written: every row measured against the
    three edges, inside rows then kept as they are."""
    a = tensors.CORNERS
    ab = np.roll(tensors.CORNERS, -1, axis=0) - a
    t = np.clip(tensors._rowdot(xy[:, None, :] - a, ab) / tensors._rowdot(ab, ab), 0.0, 1.0)
    q = a + t[..., None] * ab
    dist = tensors._rowdot(xy[:, None, :] - q, xy[:, None, :] - q)
    nearest = q[np.arange(len(xy)), np.argmin(dist, axis=1)]
    inside = tensors.points_to_weights(xy).min(axis=1) >= 0.0
    return np.where(inside[:, None], xy, nearest)


def reference_clip_weights(w):
    w = np.clip(w, 0.0, None)
    return w / w.sum(axis=1)[:, None]


triples = arrays(np.float64, st.tuples(st.integers(1, 64), st.just(3)),
                 elements=st.floats(-2.0, 2.0))
# weights with a negative entry but a positive sum, as clip_weights gets
# them from roundoff or a point outside the triangle
near_weights = arrays(np.float64, st.tuples(st.integers(1, 64), st.just(3)),
                      elements=st.floats(-0.5, 1.5)).filter(
    lambda w: np.all(np.maximum(w, 0.0).sum(axis=1) > 0.0))


class TestStackedHelpers:
    """Each barycentric helper equals its column_stack form bit for bit
    and leaves its input as it was."""

    HELPERS = {
        "eigenvalues_to_weights": (tensors.eigenvalues_to_weights, reference_eigenvalues_to_weights),
        "weights_to_eigenvalues": (tensors.weights_to_eigenvalues, reference_weights_to_eigenvalues),
        "points_to_weights": (tensors.points_to_weights, reference_points_to_weights),
    }

    @PROPERTY
    @given(triples, st.sampled_from(sorted(HELPERS)))
    def test_matches_column_stack_form(self, arg, name):
        helper, reference = self.HELPERS[name]
        if name == "points_to_weights":
            arg = arg[:, :2]
        before = arg.copy()
        assert np.array_equal(helper(arg), reference(arg))
        assert np.array_equal(arg, before)

    @PROPERTY
    @given(near_weights)
    def test_clip_weights_matches_column_stack_form(self, w):
        before = w.copy()
        assert np.array_equal(tensors.clip_weights(w), reference_clip_weights(w))
        assert np.array_equal(w, before)
