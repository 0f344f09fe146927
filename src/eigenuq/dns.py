"""Reference channel-flow statistics: parsing of the text of
whitespace-delimited DNS profile files, wall-unit interpolation onto
solver grids, synthetic self-consistent fixtures, and training-target
construction. The files themselves are read by
``pipeline.read_reference_profile``.

Profiles live on the half channel y+ in [0, Re_tau]. Only the uv
off-diagonal is nonzero in 1D channel data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rotation as rot
from . import tensors


class ProfileParseError(ValueError):
    pass


# tolerance of the profile checks on stresses in wall units
_STRESS_SLACK = 1e-8


@dataclass
class DnsProfile:
    re_tau: float
    y_plus: np.ndarray
    U_plus: np.ndarray
    uu_plus: np.ndarray
    vv_plus: np.ndarray
    ww_plus: np.ndarray
    uv_plus: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.re_tau) and self.re_tau > 0):
            raise ProfileParseError(f"Re_tau must be finite and positive, got {self.re_tau}")

    def validate(self) -> None:
        y = self.y_plus
        for name in ("y_plus", "U_plus", "uu_plus", "vv_plus", "ww_plus", "uv_plus"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ProfileParseError(f"non-finite value in {name}")
        if np.any(np.diff(y) <= 0) or y[0] < 0:
            raise ProfileParseError("y+ must be strictly increasing from >= 0")
        for name in ("uu_plus", "vv_plus", "ww_plus"):
            if np.any(getattr(self, name) < -_STRESS_SLACK):
                raise ProfileParseError(f"negative normal stress in {name}")
        bad = self.uv_plus**2 > self.uu_plus * self.vv_plus + _STRESS_SLACK
        if np.any(bad):
            i = int(np.argmax(bad))
            raise ProfileParseError(
                f"unrealizable stress at y+ = {y[i]:.4g} (uv^2 > uu*vv)"
            )


# the columns of a profile file after y/delta, in order
_COLUMNS = ("y_plus", "U_plus", "uu_plus", "vv_plus", "ww_plus", "uv_plus")


def parse_profile(text: str, re_tau: float) -> DnsProfile:
    """Parse the text of a profile in the layout :func:`write_profile`
    writes: seven whitespace-delimited columns y/delta, y+, U+, uu+, vv+,
    ww+, uv+ per line, lines in any order; lines starting with % or # are
    comments. The y/delta column is not read: y+ is the wall distance.
    The profile is checked by ``validate``, not for coverage of the half
    channel (``check_coverage``)."""
    rows = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        s = line.strip()
        if not s or s.startswith(("%", "#")):
            continue
        try:
            vals = [float(tok) for tok in s.split()]
        except ValueError as e:
            raise ProfileParseError(f"line {lineno}: non-numeric token ({e})") from None
        if len(vals) != 1 + len(_COLUMNS):
            raise ProfileParseError(
                f"line {lineno}: expected {1 + len(_COLUMNS)} columns, got {len(vals)}"
            )
        rows.append(vals[1:])
    if not rows:
        raise ProfileParseError("no data rows")
    data = np.array(rows)
    data = data[np.argsort(data[:, 0], kind="stable")]
    prof = DnsProfile(re_tau, **dict(zip(_COLUMNS, data.T)))
    prof.validate()
    return prof


def write_profile(profile: DnsProfile, path) -> None:
    with open(path, "w") as f:
        f.write(f"% channel profile, Re_tau = {profile.re_tau:g}\n")
        f.write("% y/delta  y+  U+  uu+  vv+  ww+  uv+\n")
        cols = [profile.y_plus / profile.re_tau] + [getattr(profile, name) for name in _COLUMNS]
        for row in np.column_stack(cols):
            f.write(" ".join(f"{v:.12e}" for v in row) + "\n")


def check_coverage(profile: DnsProfile, re_tau: float) -> None:
    """Reject a profile that starts above the wall or stops short of the
    centreline y+ = Re_tau: ``interpolate`` would clamp the uncovered
    part of the channel to the nearest row."""
    if profile.y_plus[0] > re_tau * 1e-9:
        raise ProfileParseError(
            f"profile starts at y+ = {profile.y_plus[0]:.4g}, needs [0, {re_tau:g}]"
        )
    if profile.y_plus[-1] < re_tau * (1 - 1e-9):
        raise ProfileParseError(
            f"profile covers y+ up to {profile.y_plus[-1]:.4g}, needs [0, {re_tau:g}]"
        )


def _pchip(x, y, t):
    """The columns of ``y``, given at strictly increasing ``x``, at the
    targets ``t`` in [x[0], x[-1]] by monotone cubic Hermite interpolation,
    with scipy's ``PchipInterpolator`` arithmetic in its order."""
    h = (x[1:] - x[:-1])[:, None]
    m = (y[1:] - y[:-1]) / h
    d = np.empty_like(y)
    if len(x) == 2:
        d[:] = m
    else:
        # Fritsch-Butland: the weighted harmonic mean of the adjacent
        # secants, zero where they differ in sign or one is zero
        flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
        w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            d[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
        # one-sided three-point ends, kept shape-preserving
        for j, k in ((0, 1), (-1, -2)):
            e = ((2 * h[j] + h[k]) * m[j] - h[j] * m[k]) / (h[j] + h[k])
            overshoot = (np.sign(m[j]) != np.sign(m[k])) & (np.abs(e) > 3.0 * np.abs(m[j]))
            d[j] = np.where(np.sign(e) != np.sign(m[j]), 0.0, np.where(overshoot, 3.0 * m[j], e))
    u = (d[:-1] + d[1:] - 2 * m) / h
    a2, a3 = (m - d[:-1]) / h - u, u / h
    # a breakpoint belongs to the interval on its right, x[-1] to the last
    i = np.clip(np.searchsorted(x, t, "right") - 1, 0, len(x) - 2)
    s = (t - x[i])[:, None]
    ss = s * s
    # scipy's sum starts from 0.0, which turns a -0.0 value into 0.0
    return (((0.0 + y[i]) + d[i] * s) + a2[i] * ss) + a3[i] * (ss * s)


def interpolate(profile: DnsProfile, y_plus_targets) -> DnsProfile:
    """Monotone piecewise-cubic (no overshoot) interpolation onto a new
    grid: PCHIP with the Fritsch-Butland weighted-harmonic-mean slopes
    inside and one-sided three-point slopes at the ends, the same
    floating-point operations in the same order as scipy's
    ``PchipInterpolator``, so its values are scipy's bit for bit.
    Targets within [0, Re_tau] but outside the data range are
    clamped to the boundary values; on a profile that passed
    ``check_coverage`` that is only roundoff at the wall and the
    centreline. Targets outside [0, Re_tau] are an extrapolation error."""
    t = np.asarray(y_plus_targets, dtype=float)
    if np.any(t < -1e-12) or np.any(t > profile.re_tau * (1 + 1e-12)):
        raise ValueError("interpolation targets outside [0, Re_tau]")
    tc = np.clip(t, profile.y_plus[0], profile.y_plus[-1])
    columns = np.column_stack([getattr(profile, name) for name in _COLUMNS[1:]])
    return DnsProfile(profile.re_tau, t, *_pchip(profile.y_plus, columns, tc).T)


def synthetic_profile(re_tau: float, n_points: int = 256) -> DnsProfile:
    """Self-consistent synthetic reference profile.

    The shear stress comes from a Cess eddy-viscosity closure and the
    velocity from the exact fully-developed momentum balance, so frozen
    propagation of the stresses through the 1D momentum equation
    reproduces U+ by construction. Normal-stress anisotropy follows
    smooth near-wall/core shape blends typical of channel DNS.
    """
    kappa, a_plus = 0.41, 25.4
    # fine working grid, cosine-clustered at the wall
    yf = re_tau * (1.0 - np.cos(np.linspace(0.0, np.pi / 2, 4096)))
    eta = yf / re_tau
    term = (
        (kappa * re_tau / 3.0) ** 2
        * (2.0 * eta - eta**2) ** 2
        * (3.0 - 4.0 * eta + 2.0 * eta**2) ** 2
        * (1.0 - np.exp(-yf / a_plus)) ** 2
    )
    nu_t = 0.5 * np.sqrt(1.0 + term) - 0.5
    dudy = (1.0 - eta) / (1.0 + nu_t)
    U = np.concatenate([[0.0], np.cumsum(np.diff(yf) * (dudy[1:] + dudy[:-1]) / 2.0)])
    minus_uv = nu_t * dudy

    # turbulent kinetic energy: equilibrium log-region level plus a
    # viscous near-wall peak and a small core floor
    k_eq = minus_uv / 0.30
    peak = 4.2 * (yf / 15.0) ** 2 * np.exp(2.0 * (1.0 - yf / 15.0))
    k = k_eq + peak + 0.4 * eta**2

    # componentality blend: streamwise-dominated near the wall, mildly
    # anisotropic in the core
    s = np.exp(-yf / 100.0)
    w_u = 0.70 * s + 0.40 * (1.0 - s)
    w_v = 0.06 * s + 0.27 * (1.0 - s)
    w_w = 1.0 - w_u - w_v
    uu = 2.0 * k * w_u
    vv = 2.0 * k * w_v
    ww = 2.0 * k * w_w
    uv = -minus_uv
    cap = 0.95 * np.sqrt(uu * vv)
    uv = np.clip(uv, -cap, cap)

    # resample onto the requested grid size (stretched toward the wall)
    yt = re_tau * (1.0 - np.cos(np.linspace(0.0, np.pi / 2, n_points)))
    columns = np.column_stack([U, uu, vv, ww, uv])
    return DnsProfile(re_tau, yt, *_pchip(yf, columns, yt).T)


# the target kinds and the names of their columns
TARGET_NAMES = {
    "p": ["p"],
    "pcorr": ["p_corr_x", "p_corr_y"],
    "pcorr_angles": ["p_corr_x", "p_corr_y", "alpha", "beta", "gamma"],
}


@dataclass
class TrainingSet:
    X: np.ndarray
    Y: np.ndarray
    feature_names: list[str]
    target_names: list[str]
    n_excluded: int = 0

    def extend(self, other: "TrainingSet") -> None:
        self.X = np.vstack([self.X, other.X])
        self.Y = np.vstack([self.Y, other.Y])
        self.n_excluded += other.n_excluded


def build_targets(rans_state, reference: DnsProfile, target_kind: str) -> TrainingSet:
    """Per-node discrepancy targets between a converged RANS state and a
    reference profile on any grid that covers the half channel:
    ``check_coverage`` at the state's Re_tau (ProfileParseError if not),
    then ``interpolate`` onto the state's y+.

    Degenerate (near-laminar) nodes in either field are excluded and
    counted in ``n_excluded``.
    """
    from . import features as feat

    if target_kind not in TARGET_NAMES:
        raise ValueError(f"unknown target kind {target_kind!r}")
    check_coverage(reference, rans_state.re_tau)
    ref = interpolate(reference, rans_state.y_plus)

    X = feat.feature_matrix(rans_state)
    _, lam_r, frame_r, degen_r = tensors.decompose(rans_state.tau)
    tau_d = tensors.stress_stack(ref.uu_plus, ref.vv_plus, ref.ww_plus, ref.uv_plus)
    _, lam_d, frame_d, degen_d = tensors.decompose(tau_d)
    keep = ~(degen_r | degen_d)
    if not keep.any():
        raise ValueError("all nodes degenerate; no training rows")
    x_r = tensors.weights_to_points(tensors.eigenvalues_to_weights(lam_r[keep]))
    x_d = tensors.weights_to_points(tensors.eigenvalues_to_weights(lam_d[keep]))
    p_corr = x_d - x_r
    if target_kind == "p":
        Y = np.linalg.norm(p_corr, axis=1)[:, None]
    elif target_kind == "pcorr":
        Y = p_corr
    else:
        Y = np.hstack([p_corr, rot.extract_angles(frame_r[keep], frame_d[keep])])
    return TrainingSet(
        X=X[keep],
        Y=Y,
        feature_names=list(feat.DEFAULT_FEATURES),
        target_names=list(TARGET_NAMES[target_kind]),
        n_excluded=int(np.count_nonzero(~keep)),
    )
