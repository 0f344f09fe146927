"""Galilean-invariant input features for the regression forest.

Features are evaluated pointwise from wall-unit channel profiles
(nu = 1 in wall units). Bounded features use the normalization
q = n / (|n| + |d|) with d the feature's natural denominator quantity;
unbounded features (wall-distance Reynolds number, y+) pass through raw
with a cap.
"""

from __future__ import annotations

import numpy as np

from .channel import BETA_STAR

DEFAULT_FEATURES = [
    "re_wall_dist",
    "turb_intensity",
    "strain_ratio",
    "prod_dissip_ratio",
    "eddy_visc_ratio",
    "y_plus",
]


def _ratio(n, d):
    """n / (|n| + |d|), and 0 where both vanish."""
    denom = np.abs(n) + np.abs(d)
    return np.divide(n, denom, out=np.zeros_like(denom), where=denom != 0.0)


def feature_matrix(state) -> np.ndarray:
    """Pointwise features of a channel state as an (n_points,
    n_features) matrix, columns in DEFAULT_FEATURES order."""
    y, u, k, om, nut = state.y_plus, state.U_plus, state.k_plus, state.omega_plus, state.nu_t_plus
    s = np.abs(state.dUdy_plus)
    eps = BETA_STAR * k * om
    out = np.column_stack([
        np.minimum(np.sqrt(np.maximum(k, 0.0)) * y / 50.0, 2.0),
        _ratio(k, 0.5 * u * u),
        _ratio(s * k, eps),
        _ratio(nut * s * s, eps),
        _ratio(nut, 100.0),
        np.minimum(y, float(state.re_tau)),
    ])
    bad = np.argwhere(~np.isfinite(out))
    if len(bad):
        i, j = bad[0]
        raise ValueError(
            f"feature {DEFAULT_FEATURES[j]!r} is not finite at grid point {i}"
        )
    return out
