import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import special_ortho_group

from eigenuq import rotation

PROPERTY = settings(max_examples=200, deadline=None)

angle = st.floats(-np.pi, np.pi)


def angle_stacks(beta=angle):
    rows = st.tuples(angle, beta, angle).map(list)
    return st.lists(rows, min_size=1, max_size=8).map(np.array)


def random_rotation(rng, n=1):
    return special_ortho_group.rvs(3, size=n, random_state=rng).reshape(n, 3, 3)


def wrapped(d):
    """Angle differences folded into (-pi, pi]."""
    return np.angle(np.exp(1j * d))


class TestRotationMatrix:
    def test_identity(self):
        r = rotation.rotation_matrix(np.zeros((1, 3)))
        assert np.allclose(r, np.eye(3), atol=1e-15)

    @PROPERTY
    @given(angle_stacks())
    def test_orthonormal_unit_determinant(self, ang):
        r = rotation.rotation_matrix(ang)
        assert np.allclose(np.swapaxes(r, 1, 2) @ r, np.eye(3), atol=1e-13)
        assert np.allclose(np.linalg.det(r), 1.0, atol=1e-13)

    @PROPERTY
    @given(angle_stacks())
    def test_matches_axis_product(self, ang):
        for (a, b, g), r in zip(ang, rotation.rotation_matrix(ang)):
            ca, sa, cb, sb, cg, sg = np.cos(a), np.sin(a), np.cos(b), np.sin(b), np.cos(g), np.sin(g)
            rz = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
            ry = np.array([[cb, 0.0, sb], [0.0, 1.0, 0.0], [-sb, 0.0, cb]])
            rx = np.array([[1.0, 0.0, 0.0], [0.0, cg, -sg], [0.0, sg, cg]])
            assert np.allclose(r, rz @ ry @ rx, atol=1e-13)

    def test_single_axis_rotations(self):
        a = 0.3
        rz, rx = rotation.rotation_matrix(np.array([[a, 0.0, 0.0], [0.0, 0.0, a]]))
        assert rz[2, 2] == pytest.approx(1.0)
        assert rz[0, 0] == pytest.approx(np.cos(a))
        assert rx[0, 0] == pytest.approx(1.0)
        assert rx[1, 1] == pytest.approx(np.cos(a))


class TestAnglesFromMatrix:
    def test_round_trip_from_matrix(self, rng):
        r = random_rotation(rng, 300)
        ang = rotation.angles_from_matrix(r)
        assert np.max(np.abs(rotation.rotation_matrix(ang) - r)) <= 1e-9

    @PROPERTY
    @given(angle_stacks(beta=st.floats(-np.pi / 2 + 0.01, np.pi / 2 - 0.01)))
    def test_round_trip_from_angles(self, ang):
        # beta on the principal branch, away from gimbal lock, so the
        # angles come back verbatim (alpha and gamma modulo 2 pi)
        back = rotation.angles_from_matrix(rotation.rotation_matrix(ang))
        assert np.max(np.abs(wrapped(back - ang))) <= 1e-9

    def test_gimbal_lock_reconstruction(self):
        # locked rows (beta = +-pi/2) and a free row in one stack
        ang = np.array([[0.4, np.pi / 2, 0.7], [-1.1, -np.pi / 2, 0.2], [0.4, 0.3, 0.7]])
        r = rotation.rotation_matrix(ang)
        back = rotation.angles_from_matrix(r)
        assert np.array_equal(back[:2, 2], [0.0, 0.0])
        assert np.allclose(back[2], ang[2], atol=1e-12)
        assert np.max(np.abs(rotation.rotation_matrix(back) - r)) <= 1e-9


class TestFrameRotation:
    def test_extract_apply_round_trip(self, rng):
        a = random_rotation(rng, 200)
        b = random_rotation(rng, 200)
        ang = rotation.extract_angles(a, b)
        assert np.max(np.abs(rotation.apply_rotation(a, ang) - b)) <= 1e-9

    def test_identical_frames_give_zero_angles(self, rng):
        a = random_rotation(rng, 20)
        ang = rotation.extract_angles(a, a)
        assert np.allclose(ang, 0.0, atol=1e-12)

    def test_non_orthonormal_frame_rejected(self):
        bad = np.stack([np.eye(3), np.eye(3) * 2.0])
        good = np.stack([np.eye(3), np.eye(3)])
        with pytest.raises(ValueError, match="not orthonormal"):
            rotation.extract_angles(bad, good)
        with pytest.raises(ValueError, match="not orthonormal"):
            rotation.apply_rotation(bad, np.array([[0.1, 0.2, 0.3]] * 2))
