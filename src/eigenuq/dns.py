"""Reference channel-flow statistics: parsing of whitespace-delimited
DNS profile files, wall-unit interpolation onto solver grids, synthetic
self-consistent fixtures, and training-target construction.

Profiles live on the half channel y+ in [0, Re_tau]. Only the uv
off-diagonal is nonzero in 1D channel data unless extra columns are
mapped.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.interpolate import PchipInterpolator

from . import rotation as rot
from . import tensors


class ProfileParseError(ValueError):
    pass


@dataclass
class DnsProfile:
    re_tau: float
    y_plus: np.ndarray
    U_plus: np.ndarray
    uu_plus: np.ndarray
    vv_plus: np.ndarray
    ww_plus: np.ndarray
    uv_plus: np.ndarray
    y_delta: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.y_delta is None:
            self.y_delta = self.y_plus / self.re_tau

    @property
    def k_plus(self) -> np.ndarray:
        return 0.5 * (self.uu_plus + self.vv_plus + self.ww_plus)

    def validate(self, slack: float = 1e-8) -> None:
        y = self.y_plus
        for name in ("y_plus", "U_plus", "uu_plus", "vv_plus", "ww_plus", "uv_plus"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ProfileParseError(f"non-finite value in {name}")
        if np.any(np.diff(y) <= 0) or y[0] < 0:
            raise ProfileParseError("y+ must be strictly increasing from >= 0")
        for name in ("uu_plus", "vv_plus", "ww_plus"):
            if np.any(getattr(self, name) < -slack):
                raise ProfileParseError(f"negative normal stress in {name}")
        bad = self.uv_plus**2 > self.uu_plus * self.vv_plus + slack
        if np.any(bad):
            i = int(np.argmax(bad))
            raise ProfileParseError(
                f"unrealizable stress at y+ = {y[i]:.4g} (uv^2 > uu*vv)"
            )


_COLUMNS = ("y_delta", "y_plus", "U_plus", "uu_plus", "vv_plus", "ww_plus", "uv_plus")


def _read_table(stream) -> tuple[np.ndarray, int]:
    rows = []
    width = None
    for lineno, line in enumerate(stream, start=1):
        s = line.strip()
        if not s or s.startswith(("%", "#")):
            continue
        try:
            vals = [float(tok) for tok in s.split()]
        except ValueError as e:
            raise ProfileParseError(f"line {lineno}: non-numeric token ({e})") from None
        if width is None:
            width = len(vals)
        elif len(vals) != width:
            raise ProfileParseError(f"line {lineno}: expected {width} columns")
        rows.append(vals)
    if not rows:
        raise ProfileParseError("no data rows")
    return np.array(rows), width


def parse_profile(stream, column_map: dict[str, int], re_tau: float) -> DnsProfile:
    """Parse a whitespace-delimited profile.

    ``column_map`` names zero-based column indices for any of y_delta,
    y_plus, U_plus, uu_plus, vv_plus, ww_plus, uv_plus. At least y_plus
    (or y_delta) plus the mapped quantities are required; unmapped
    stress columns default to zero, unmapped U to zero.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    data, width = _read_table(stream)
    for name, col in column_map.items():
        if name not in _COLUMNS:
            raise ProfileParseError(f"unknown column name {name!r}")
        if not 0 <= col < width:
            raise ProfileParseError(f"column {name!r} index {col} out of range")
    if "y_plus" in column_map:
        y = data[:, column_map["y_plus"]]
    elif "y_delta" in column_map:
        y = data[:, column_map["y_delta"]] * re_tau
    else:
        raise ProfileParseError("column map must name y_plus or y_delta")
    order = np.argsort(y, kind="stable")

    def col(name):
        if name in column_map:
            return data[order, column_map[name]]
        return np.zeros(len(y))

    prof = DnsProfile(
        re_tau=re_tau,
        y_plus=y[order],
        U_plus=col("U_plus"),
        uu_plus=col("uu_plus"),
        vv_plus=col("vv_plus"),
        ww_plus=col("ww_plus"),
        uv_plus=col("uv_plus"),
    )
    prof.validate()
    return prof


def load_profile(
    path, column_map: dict[str, int] | None = None, re_tau: float = 0.0
) -> DnsProfile:
    """Read a profile file; ``column_map`` defaults to the layout
    produced by :func:`write_profile`."""
    if column_map is None:
        column_map = PROFILE_COLUMN_MAP
    with open(path) as f:
        return parse_profile(f, column_map, re_tau)


def write_profile(profile: DnsProfile, path) -> None:
    with open(path, "w") as f:
        f.write(f"% channel profile, Re_tau = {profile.re_tau:g}\n")
        f.write("% y/delta  y+  U+  uu+  vv+  ww+  uv+\n")
        cols = np.column_stack(
            [
                profile.y_delta,
                profile.y_plus,
                profile.U_plus,
                profile.uu_plus,
                profile.vv_plus,
                profile.ww_plus,
                profile.uv_plus,
            ]
        )
        for row in cols:
            f.write(" ".join(f"{v:.12e}" for v in row) + "\n")


PROFILE_COLUMN_MAP = {
    "y_delta": 0,
    "y_plus": 1,
    "U_plus": 2,
    "uu_plus": 3,
    "vv_plus": 4,
    "ww_plus": 5,
    "uv_plus": 6,
}


def check_coverage(profile: DnsProfile, re_tau: float) -> None:
    """Reject a profile that stops short of the centreline y+ = Re_tau:
    ``interpolate`` would clamp the rest of the channel to its last row."""
    if profile.y_plus[-1] < re_tau * (1 - 1e-9):
        raise ProfileParseError(
            f"profile covers y+ up to {profile.y_plus[-1]:.4g}, needs [0, {re_tau:g}]"
        )


def interpolate(profile: DnsProfile, y_plus_targets) -> DnsProfile:
    """Monotone piecewise-cubic (no overshoot) interpolation onto a new
    grid. Targets slightly outside the data range but within
    [0, Re_tau] are clamped to the boundary values; anything beyond is
    an extrapolation error."""
    t = np.asarray(y_plus_targets, dtype=float)
    if np.any(t < -1e-12) or np.any(t > profile.re_tau * (1 + 1e-12)):
        raise ValueError("interpolation targets outside [0, Re_tau]")
    tc = np.clip(t, profile.y_plus[0], profile.y_plus[-1])

    def interp(vals):
        return PchipInterpolator(profile.y_plus, vals)(tc)

    return DnsProfile(
        re_tau=profile.re_tau,
        y_plus=t,
        U_plus=interp(profile.U_plus),
        uu_plus=interp(profile.uu_plus),
        vv_plus=interp(profile.vv_plus),
        ww_plus=interp(profile.ww_plus),
        uv_plus=interp(profile.uv_plus),
    )


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
    U = np.concatenate([[0.0], cumulative_trapezoid(dudy, yf)])
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

    def onto(vals):
        return PchipInterpolator(yf, vals)(yt)

    return DnsProfile(
        re_tau=re_tau,
        y_plus=yt,
        U_plus=onto(U),
        uu_plus=onto(uu),
        vv_plus=onto(vv),
        ww_plus=onto(ww),
        uv_plus=onto(uv),
    )


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


def build_targets(rans_state, dns: DnsProfile, target_kind: str) -> TrainingSet:
    """Per-node discrepancy targets between a converged RANS state and a
    reference profile interpolated onto the same grid.

    Degenerate (near-laminar) nodes in either field are excluded and
    counted in ``n_excluded``.
    """
    from . import features as feat

    if target_kind not in TARGET_NAMES:
        raise ValueError(f"unknown target kind {target_kind!r}")
    y = np.asarray(rans_state.y_plus)
    if len(dns.y_plus) != len(y) or np.max(np.abs(dns.y_plus - y)) > 1e-8 * max(
        1.0, float(y[-1])
    ):
        raise ValueError("DNS profile is not on the RANS grid; interpolate first")

    X = feat.feature_matrix(rans_state)
    _, lam_r, frame_r, degen_r = tensors.decompose(rans_state.tau)
    tau_d = tensors.stress_stack(dns.uu_plus, dns.vv_plus, dns.ww_plus, dns.uv_plus)
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
