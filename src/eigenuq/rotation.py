"""Intrinsic Tait-Bryan rotations (z-y'-x'' convention) between
eigenvector frames.

Angles are ``(n, 3)`` arrays of (alpha, beta, gamma) in radians,
rotations about z, then y', then x''; frames and rotation matrices are
``(n, 3, 3)`` stacks. The relative rotation from frame A to frame B is
R = B @ A.T, so that ``apply_rotation(A, extract_angles(A, B)) == B``
exactly. Frames must be orthonormal and right-handed; use the sign
normalization of :func:`eigenuq.tensors.decompose` before extracting
angles, otherwise eigenvector sign flips make the angles discontinuous.
"""

from __future__ import annotations

import numpy as np

_GIMBAL_EPS = 1e-8


def rotation_matrix(angles):
    """R = R_z(alpha) @ R_y(beta) @ R_x(gamma) for every row of angles."""
    ca, sa = np.cos(angles[:, 0]), np.sin(angles[:, 0])
    cb, sb = np.cos(angles[:, 1]), np.sin(angles[:, 1])
    cg, sg = np.cos(angles[:, 2]), np.sin(angles[:, 2])
    r = np.empty((len(angles), 3, 3))
    r[:, 0, 0] = ca * cb
    r[:, 0, 1] = ca * sb * sg - sa * cg
    r[:, 0, 2] = ca * sb * cg + sa * sg
    r[:, 1, 0] = sa * cb
    r[:, 1, 1] = sa * sb * sg + ca * cg
    r[:, 1, 2] = sa * sb * cg - ca * sg
    r[:, 2, 0] = -sb
    r[:, 2, 1] = cb * sg
    r[:, 2, 2] = cb * cg
    return r


def angles_from_matrix(r):
    """Recover (alpha, beta, gamma) from rotation matrices.

    At gimbal lock (|cos beta| < 1e-8) gamma is set to 0 and the
    residual rotation folded into alpha.
    """
    sb = -r[:, 2, 0]
    cb = np.hypot(r[:, 0, 0], r[:, 1, 0])
    beta = np.arctan2(sb, cb)
    # beta = +-pi/2: alpha and gamma are coupled; fix gamma = 0.
    lock = cb < _GIMBAL_EPS
    alpha = np.where(
        lock, np.arctan2(-r[:, 0, 1], r[:, 1, 1]), np.arctan2(r[:, 1, 0], r[:, 0, 0])
    )
    gamma = np.where(lock, 0.0, np.arctan2(r[:, 2, 1], r[:, 2, 2]))
    return np.column_stack([alpha, beta, gamma])


def _check_frame(frame, name: str) -> None:
    err = np.max(np.abs(np.swapaxes(frame, 1, 2) @ frame - np.eye(3)))
    if err > 1e-6:
        raise ValueError(f"{name} is not orthonormal (|F^T F - I| = {err:.3e})")


def extract_angles(frame_from, frame_to):
    """Tait-Bryan angles of the rigid rotations mapping one frame onto another."""
    _check_frame(frame_from, "frame_from")
    _check_frame(frame_to, "frame_to")
    return angles_from_matrix(frame_to @ np.swapaxes(frame_from, 1, 2))


def apply_rotation(frame, angles):
    """Rotate frames: rotation_matrix(angles) @ frame."""
    _check_frame(frame, "frame")
    return np.einsum("nij,njk->nik", rotation_matrix(angles), frame)
