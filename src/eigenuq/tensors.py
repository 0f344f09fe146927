"""Symmetric Reynolds-stress algebra on stacks of tensors: anisotropy
eigendecomposition, barycentric realizability map and its inverse,
projection into the triangle, realizability checks.

Every function takes an ``(n, 3, 3)`` stack of stresses or the matching
``(n, 3)`` eigenvalue / corner-weight and ``(n, 2)`` plane-point arrays;
a single tensor is the case n = 1. The barycentric triangle uses the
standard equilateral layout with corners 1C = (1, 0), 2C = (0, 0),
3C = (1/2, sqrt(3)/2).
"""

from __future__ import annotations

import numpy as np

# Corner coordinates of the realizability triangle (1C, 2C, 3C).
CORNER_1C = np.array([1.0, 0.0])
CORNER_2C = np.array([0.0, 0.0])
CORNER_3C = np.array([0.5, np.sqrt(3.0) / 2.0])
CORNERS = np.vstack([CORNER_1C, CORNER_2C, CORNER_3C])

_CORNERS = {"1C": CORNER_1C, "2C": CORNER_2C, "3C": CORNER_3C}

# Affine map weights -> plane coordinates; precomputed inverse for the
# reverse direction (C3 is eliminated via C1 + C2 + C3 = 1).
_A = np.column_stack([CORNER_1C - CORNER_3C, CORNER_2C - CORNER_3C])
_A_INV = np.linalg.inv(_A)

# nodes with k below this are near-laminar (degenerate)
K_FLOOR = 1e-12

_LOWER = np.tril_indices(3, -1)  # (row, col) below the diagonal


def corner_coords(corner: str) -> np.ndarray:
    """Plane coordinates of a triangle corner ('1C', '2C' or '3C')."""
    try:
        return _CORNERS[corner].copy()
    except KeyError:
        raise ValueError(f"unknown corner {corner!r}, expected 1C/2C/3C") from None


def stress_stack(uu, vv, ww, uv):
    """Stacked stress tensors with normal components uu, vv, ww and the
    single off-diagonal uv of a 1D channel flow."""
    tau = np.zeros((len(uu), 3, 3))
    tau[:, 0, 0] = uu
    tau[:, 1, 1] = vv
    tau[:, 2, 2] = ww
    tau[:, 0, 1] = tau[:, 1, 0] = uv
    return tau


def boussinesq(k, nu_t, dudy):
    """Stacked Boussinesq stress tensors tau = (2/3) k I - 2 nu_t S."""
    iso = (2.0 / 3.0) * k
    return stress_stack(iso, iso, iso, -nu_t * dudy)


def decompose(tau):
    """Eigendecomposition of a_ij = tau_ij/k - (2/3) delta_ij.

    Returns ``(k, lam, frame, degenerate)``. ``lam`` is sorted descending;
    ``frame[:, :, j]`` is the unit eigenvector of ``lam[:, j]``. The first
    two columns have their largest-magnitude component positive; the
    third is then signed so that each frame is right-handed.
    Near-laminar nodes (k below K_FLOOR) are marked ``degenerate`` and
    carry lam = 0, frame = I instead of NaNs.
    """
    k = 0.5 * np.trace(tau, axis1=1, axis2=2)
    degenerate = k < K_FLOOR
    k_safe = np.where(degenerate, 1.0, k)
    a = tau / k_safe[:, None, None] - (2.0 / 3.0) * np.eye(3)
    a[degenerate] = 0.0
    lam, vec = np.linalg.eigh(a)
    lam = lam[:, ::-1]
    vec = vec[:, :, ::-1]
    # sign normalization: largest-magnitude component of each column positive
    imax = np.argmax(np.abs(vec), axis=1)
    signs = np.sign(np.take_along_axis(vec, imax[:, None, :], axis=1))[:, 0, :]
    signs[signs == 0] = 1.0
    vec = vec * signs[:, None, :]
    # the frame is orthonormal: its triple product c0 . (c1 x c2) has
    # the sign of its determinant
    c0, c1, c2 = vec[:, :, 0], vec[:, :, 1], vec[:, :, 2]
    triple = (c0[:, 0] * (c1[:, 1] * c2[:, 2] - c1[:, 2] * c2[:, 1])
              + c0[:, 1] * (c1[:, 2] * c2[:, 0] - c1[:, 0] * c2[:, 2])
              + c0[:, 2] * (c1[:, 0] * c2[:, 1] - c1[:, 1] * c2[:, 0]))
    vec[triple < 0, :, 2] *= -1.0
    lam[degenerate] = 0.0
    vec[degenerate] = np.eye(3)
    return k, lam, vec, degenerate


def reconstruct(k, lam, frame):
    """Assemble tau = k (v diag(lam) v^T + (2/3) I) for every node.

    The einsum rounds tau_ij and tau_ji differently, so the upper
    triangle (which the solver's uv reads) is mirrored into the lower one
    (which eigh reads): every returned tensor is exactly symmetric.
    """
    a = np.einsum("nij,nj,nkj->nik", frame, lam, frame)
    tau = k[:, None, None] * (a + (2.0 / 3.0) * np.eye(3))
    tau[:, _LOWER[0], _LOWER[1]] = tau[:, _LOWER[1], _LOWER[0]]
    return tau


def eigenvalues_to_weights(lam):
    """Corner weights (C1, C2, C3) of sorted anisotropy eigenvalues; C3
    uses (3 l3 + 2)/2 so the weights sum to 1 for any traceless triple."""
    c1 = 0.5 * (lam[:, 0] - lam[:, 1])
    c2 = lam[:, 1] - lam[:, 2]
    c3 = 0.5 * (3.0 * lam[:, 2] + 2.0)
    return np.column_stack([c1, c2, c3])


def weights_to_points(w):
    """Plane coordinates of corner weights."""
    return w @ CORNERS


def points_to_weights(xy):
    """Corner weights (C1, C2, C3) of plane points; always sum to 1."""
    d = xy - CORNER_3C
    c12 = d @ _A_INV.T
    return np.column_stack([c12, 1.0 - c12.sum(axis=1)])


def weights_to_eigenvalues(w):
    """Invert the barycentric map: corner weights -> eigenvalue triples."""
    l3 = (2.0 * w[:, 2] - 2.0) / 3.0
    l2 = w[:, 1] + l3
    l1 = 2.0 * w[:, 0] + l2
    return np.column_stack([l1, l2, l3])


def clip_weights(w):
    """Project barely-outside points back into the triangle by clipping
    negative weights and renormalizing (roundoff guard)."""
    w = np.clip(w, 0.0, None)
    return w / w.sum(axis=1)[:, None]


def _rowdot(u, v):
    """Row-wise dot products over the last axis (summed by matmul)."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def project_into_triangle(xy):
    """Euclidean projection of plane points onto the closed triangle;
    points inside it are returned unchanged."""
    a = CORNERS
    ab = np.roll(CORNERS, -1, axis=0) - a  # edges 1C-2C, 2C-3C, 3C-1C
    t = np.clip(_rowdot(xy[:, None, :] - a, ab) / _rowdot(ab, ab), 0.0, 1.0)
    q = a + t[..., None] * ab
    dist = _rowdot(xy[:, None, :] - q, xy[:, None, :] - q)
    nearest = q[np.arange(len(xy)), np.argmin(dist, axis=1)]
    inside = points_to_weights(xy).min(axis=1) >= 0.0
    return np.where(inside[:, None], xy, nearest)


def is_realizable(tau, tol: float = 1e-10):
    """Per node: True iff tau is positive semidefinite within a k-scaled
    slack."""
    w = np.linalg.eigvalsh(tau)
    return w[:, 0] >= -tol * np.maximum(1.0, np.trace(tau, axis1=1, axis2=2))
