"""Construction of perturbed Reynolds stresses, one function per mode.

Every mode works on an ``(n, 3, 3)`` stack: map each anisotropy onto
the barycentric triangle, move the point, invert to eigenvalues and
reassemble with the (possibly rotated) eigenvector frame. Corner weights
are clipped into the triangle on both sides of the move (roundoff
guard), turbulent kinetic energy is never changed, and degenerate
near-laminar nodes pass through unchanged.

Each mode's move of the barycentric points is built by one of
``corner_shift``, ``magnitude_shift`` and ``componentwise_shift``;
``move_eigenvalues`` applies a move to anisotropy eigenvalues. It is how
the channel solver moves the componentwise modes in the channel's fixed
frame, without an eigendecomposition, and the reference for the corner
modes, which the solver moves in closed form, as a convex combination of
the eigenvalues and the corner's (``channel.PerturbationInjection``).

The tensor-level mode functions (``data_free_corner``,
``data_driven_magnitude``, ``componentwise_correction`` and
``full_anisotropy_correction``) are the paper's general-frame algorithm,
for any stress. The commands run ``channel.PerturbationInjection``'s
closed form instead; these functions are the reference it is tested
against.
"""

from __future__ import annotations

import numpy as np

from . import rotation as rot
from . import tensors


def corner_shift(xt, delta_b: float):
    """Relative shift toward the corner point xt: x* = x + delta_b (xt - x).

    xt is a corner's plane point, (2,), or one per row of a stack of
    points, (m, 1, 2) against (m, n, 2)."""
    return lambda xy: xy + delta_b * (xt - xy)


def magnitude_shift(xt, p):
    """Move each node's point a distance p (negative counts as 0) toward
    the corner point xt, stopping at the corner; xt as ``corner_shift``
    takes it."""
    p_pos = np.maximum(p, 0.0)

    def move(xy):
        d = xt - xy
        dist = np.linalg.norm(d, axis=-1)
        step = np.minimum(np.where(dist > 1e-14, p_pos / np.maximum(dist, 1e-14), 0.0), 1.0)
        return xy + step[..., None] * d

    return move


def componentwise_shift(p_corr):
    """Add a plane correction vector (n, 2) per node; points pushed out of
    the triangle are projected back onto it."""
    return lambda xy: tensors.project_into_triangle(xy + p_corr)


def move_eigenvalues(lam, move):
    """Anisotropy eigenvalues (..., n, 3), sorted descending, whose
    barycentric points ``move`` has moved."""
    xy = tensors.weights_to_points(tensors.clip_weights(tensors.eigenvalues_to_weights(lam)))
    return tensors.weights_to_eigenvalues(tensors.clip_weights(tensors.points_to_weights(move(xy))))


def _perturb(tau, move, angles=None):
    k, lam, frame, degenerate = tensors.decompose(tau)
    if angles is not None:
        frame = rot.apply_rotation(frame, angles)
    out = tensors.reconstruct(k, move_eigenvalues(lam, move), frame)
    out[degenerate] = tau[degenerate]
    return out


def data_free_corner(tau, corner: str, delta_b: float):
    """Relative shift toward a corner: x* = x + delta_b (x_t - x)."""
    return _perturb(tau, corner_shift(tensors.corner_coords(corner), delta_b))


def data_driven_magnitude(tau, corner: str, p):
    """Move each node's point a distance p (negative counts as 0) toward
    a corner, stopping at the corner."""
    return _perturb(tau, magnitude_shift(tensors.corner_coords(corner), p))


def componentwise_correction(tau, p_corr):
    """Add a plane correction vector (n, 2) per node; points pushed out of
    the triangle are projected back onto it."""
    return _perturb(tau, componentwise_shift(p_corr))


def full_anisotropy_correction(tau, p_corr, angles):
    """Componentwise correction plus a Tait-Bryan rotation (n, 3) of
    each eigenvector frame."""
    return _perturb(tau, componentwise_shift(p_corr), angles)
