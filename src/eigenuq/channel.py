"""Wall-resolved 1D fully-developed turbulent channel flow in wall units.

Baseline closure is Menter SST k-omega. The momentum equation in wall
units reads d/dy+[(1 + nu_t+) dU+/dy+] = -1/Re_tau on the half channel
[0, Re_tau] with U+ = 0 at the wall and symmetry at the centerline, so
the converged total shear is the linear profile 1 - y+/Re_tau.

Stress injection replaces the eddy-viscosity shear stress by -u'v'* of
a perturbed (or externally prescribed) Reynolds stress and feeds the
production term P_k = -tau*_xy dU/dy back into the turbulence model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
from scipy.linalg import get_lapack_funcs

from . import features as feat
from . import perturb, tensors
from .dns import TARGET_NAMES, DnsProfile, check_coverage, interpolate

# SST closure constants (standard published set)
BETA_STAR = 0.09
KAPPA = 0.41
A1 = 0.31
SIGMA_K1, SIGMA_W1, BETA_1 = 0.85, 0.5, 0.075
SIGMA_K2, SIGMA_W2, BETA_2 = 1.0, 0.856, 0.0828
GAMMA_1 = BETA_1 / BETA_STAR - SIGMA_W1 * KAPPA**2 / np.sqrt(BETA_STAR)
GAMMA_2 = BETA_2 / BETA_STAR - SIGMA_W2 * KAPPA**2 / np.sqrt(BETA_STAR)

OMEGA_FLOOR = 1e-8

# LAPACK tridiagonal solver, called directly: scipy's banded solver
# calls the same routine but validates its inputs on every call
_GTSV = get_lapack_funcs("gtsv", dtype=np.float64)

# Injected-stress iteration controls. Strongly amplified perturbed
# stresses scale with the local k, which makes the coupled fixed point
# only marginally stable: the stress is under-relaxed (STRESS_RELAX),
# and when the self-consistent iteration stalls (no residual improvement
# by FREEZE_IMPROVE within FREEZE_STALL iterations) the stress field is
# frozen at the closest-approach iterate so the flow equations can
# converge tightly against it.
STRESS_RELAX = 0.2
FREEZE_IMPROVE = 0.7
FREEZE_STALL = 3000
POST_FREEZE_STALL = 4000


class SolverError(RuntimeError):
    def __init__(self, message, residual_history=None):
        super().__init__(message)
        self.residual_history = residual_history or []


@dataclass
class ChannelConfig:
    re_tau: float
    n_cells: int = 192
    stretch: float = 0.5  # target first off-wall node position y1+
    max_iters: int = 40000
    residual_tol: float = 1e-8

    def __post_init__(self):
        if self.re_tau <= 0:
            raise ValueError("re_tau must be positive")
        if self.n_cells < 8:
            raise ValueError("n_cells too small")
        if not 0 < self.stretch < 1.0:
            raise ValueError("stretch (first node y+) must be in (0, 1)")
        if self.residual_tol <= 0:
            raise ValueError("residual_tol must be positive")


@dataclass
class ChannelState:
    re_tau: float
    y_plus: np.ndarray
    U_plus: np.ndarray
    k_plus: np.ndarray
    omega_plus: np.ndarray
    nu_t_plus: np.ndarray
    dUdy_plus: np.ndarray
    minus_uv_plus: np.ndarray  # shear stress actually used in momentum
    tau: np.ndarray  # (n, 3, 3) Reynolds stress per node
    residual_history: list[float] = field(default_factory=list)
    iterations: int = 0

    @property
    def centerline_U(self) -> float:
        return float(self.U_plus[-1])


def make_grid(re_tau: float, n_nodes: int, y1: float) -> np.ndarray:
    """Geometrically stretched nodes on [0, re_tau] with first spacing y1."""
    m = n_nodes - 1  # intervals
    if y1 * m >= re_tau:
        # uniform grid already finer than requested clustering
        return np.linspace(0.0, re_tau, n_nodes)

    def total(r):
        return y1 * (r**m - 1.0) / (r - 1.0)

    lo, hi = 1.0 + 1e-12, 2.0
    while total(hi) < re_tau:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if total(mid) < re_tau:
            lo = mid
        else:
            hi = mid
    r = 0.5 * (lo + hi)
    h = y1 * r ** np.arange(m)
    y = np.concatenate([[0.0], np.cumsum(h)])
    y *= re_tau / y[-1]
    return y


class _Grid:
    """The nodes of one solve, their spacings and the stencil of numpy's
    gradient, built once with numpy's formulas: ``grad(f)`` equals
    numpy's ``gradient(f, y)`` bit for bit, uniform-spacing branch too."""

    def __init__(self, y):
        self.y = y
        self.h = h = np.diff(y)
        self.delta = delta = 0.5 * (h[:-1] + h[1:])
        # denominators of the transport and divergence stencils
        self.h_delta = (h[:-1] * delta, h[1:] * delta)
        self.h_center = h[-1] * 0.5 * h[-1]
        self.half_h_end = 0.5 * h[-1]
        if (h == h[0]).all():
            self.two_h, self.abc = 2.0 * h[0], None
        else:
            dx1, dx2 = h[:-1], h[1:]
            self.abc = (-(dx2) / (dx1 * (dx1 + dx2)), (dx2 - dx1) / (dx1 * dx2),
                        dx1 / (dx2 * (dx1 + dx2)))

    def grad(self, f):
        out = np.empty_like(f)
        if self.abc is None:
            out[1:-1] = (f[2:] - f[:-2]) / self.two_h
        else:
            a, b, c = self.abc
            out[1:-1] = a * f[:-2] + b * f[1:-1] + c * f[2:]
        out[0] = (f[1] - f[0]) / self.h[0]
        out[-1] = (f[-1] - f[-2]) / self.h[-1]
        return out


def _transport_solve(grid, gamma_mid, sink, source, wall_value):
    """Solve d/dy(Gamma dphi/dy) + sink*phi + source = 0 with Dirichlet
    wall value and zero flux at the centerline."""
    n = len(sink)
    h_delta_m, h_delta_p = grid.h_delta
    wm = gamma_mid[:-1] / h_delta_m
    wp = gamma_mid[1:] / h_delta_p
    wc = gamma_mid[-1] / grid.h_center
    sub, sup, diag, rhs = np.empty(n - 1), np.empty(n - 1), np.empty(n), np.empty(n)
    sub[:-1], sub[-1] = wm, wc
    sup[0], sup[1:] = 0.0, wp
    diag[0], diag[1:-1], diag[-1] = 1.0, -(wm + wp) + sink[1:-1], -wc + sink[-1]
    rhs[0], rhs[1:] = wall_value, -source[1:]
    *_, x, info = _GTSV(sub, diag, sup, rhs, 1, 1, 1, 1)  # may overwrite all four
    if info != 0:
        raise SolverError(f"singular transport system (LAPACK gtsv info={info})")
    return x


def _face_divergence(grid, g_mid):
    """Nodal divergence of a face flux with zero flux at the centerline
    face; entry 0 is unused (Dirichlet wall node)."""
    out = np.zeros(len(grid.y))
    out[1:-1] = (g_mid[1:] - g_mid[:-1]) / grid.delta
    out[-1] = (0.0 - g_mid[-1]) / grid.half_h_end
    return out


def _mid(a):
    return 0.5 * (a[:-1] + a[1:])


# ---------------------------------------------------------------------------
# stress injection modes


def _roughness_noise(y, seed, window=20.0):
    """Zero-mean uniform noise, high-passed so its running integral stays
    bounded; unit peak amplitude.

    Low-wavenumber content of pointwise noise is a systematic regional
    stress bias rather than roughness, and in 1D its integral feeds
    straight into the velocity profile. Removing a Gaussian running
    mean (window in wall units) keeps the pointwise roughness while
    making the robustness check probe derivative non-smoothness.
    """
    from scipy.ndimage import gaussian_filter1d

    rng = np.random.default_rng(seed)
    eps = rng.uniform(-1.0, 1.0, len(y))
    yu = np.arange(0.0, y[-1] + 0.5, 1.0)
    smooth = gaussian_filter1d(np.interp(yu, y, eps), sigma=window, mode="nearest")
    eps = eps - np.interp(y, yu, smooth)
    return eps / np.max(np.abs(eps))


class StressInjection:
    """Supplies per-node perturbed stress tensors during outer iterations."""

    # whether the solver may bound the injected shear stress by the
    # total-stress line (needed for strongly amplified state-coupled
    # perturbations; prescribed external stresses pass through as-is)
    cap_shear = False

    def prepare(self, cfg: ChannelConfig, y: np.ndarray) -> None:
        pass

    def compute(self, arrays) -> np.ndarray:
        raise NotImplementedError


@dataclass
class FrozenStressInjection(StressInjection):
    profile: DnsProfile
    noise_amplitude: float = 0.0
    noise_seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.noise_amplitude) and self.noise_amplitude >= 0.0):
            raise ValueError(
                f"noise amplitude must be finite and >= 0, got {self.noise_amplitude}"
            )

    def prepare(self, cfg, y):
        check_coverage(self.profile, cfg.re_tau)
        prof = interpolate(self.profile, y)
        uv = prof.uv_plus.copy()
        if self.noise_amplitude > 0.0:
            uv = uv * (1.0 + self.noise_amplitude * _roughness_noise(y, self.noise_seed))
        self._tau = tensors.stress_stack(
            np.maximum(prof.uu_plus, 0.0),
            np.maximum(prof.vv_plus, 0.0),
            np.maximum(prof.ww_plus, 0.0),
            uv,
        )

    def compute(self, arrays):
        return self._tau


class PerturbationInjection(StressInjection):
    """In-loop eigenspace perturbation of the Boussinesq stress.

    mode: 'datafree' (corner + delta_b), 'p' (magnitude forest +
    corner), 'pcorr' (componentwise forest), 'pcorr_angles'
    (componentwise + eigenvector rotation forest).
    """

    cap_shear = True

    # the uq modes and the arguments each takes, all of them required;
    # the CLI, the pipeline and corner_injections read the modes from here
    TAKES = {
        "datafree": ("corner", "delta_b"),
        "p": ("corner", "forest"),
        "pcorr": ("forest",),
        "pcorr_angles": ("forest",),
    }

    def __init__(self, mode, corner=None, delta_b=None, forest=None):
        if mode not in self.TAKES:
            raise ValueError(f"unknown injection mode {mode!r}")
        takes = self.TAKES[mode]
        given = {"corner": corner, "delta_b": delta_b, "forest": forest}
        if any(given[name] is None for name in takes):
            raise ValueError(f"mode {mode!r} needs {' and '.join(takes)}")
        extra = [name for name, val in given.items() if val is not None and name not in takes]
        if extra:
            raise ValueError(f"mode {mode!r} does not take {', '.join(extra)}")
        if delta_b is not None and not 0.0 <= delta_b <= 1.0:
            raise ValueError("delta_b must be in [0, 1]")
        if corner is not None:
            tensors.corner_coords(corner)  # validates the identifier
        if forest is not None:
            if forest.n_features != len(feat.DEFAULT_FEATURES):
                raise ValueError(
                    f"forest expects {forest.n_features} features, "
                    f"solver provides {len(feat.DEFAULT_FEATURES)}"
                )
            if forest.n_targets != len(TARGET_NAMES[mode]):
                raise ValueError(
                    f"mode {mode!r} needs {len(TARGET_NAMES[mode])} forest targets, "
                    f"got {forest.n_targets}"
                )
        self.mode = mode
        self.corner = corner
        self.delta_b = delta_b
        self.forest = forest

    def compute(self, arrays):
        tau = tensors.boussinesq(arrays.k_plus, arrays.nu_t_plus, arrays.dUdy_plus)
        if self.mode == "datafree":
            return perturb.data_free_corner(tau, self.corner, self.delta_b)
        pred = self.forest.predict(feat.feature_matrix(arrays))
        if self.mode == "p":
            return perturb.data_driven_magnitude(tau, self.corner, pred[:, 0])
        if self.mode == "pcorr":
            return perturb.componentwise_correction(tau, pred[:, :2])
        return perturb.full_anisotropy_correction(tau, pred[:, :2], pred[:, 2:])


# ---------------------------------------------------------------------------
# solver


def _init_state(y, re_tau):
    yp = np.maximum(y, 1e-30)
    U = (1.0 / KAPPA) * np.log1p(KAPPA * y) + 7.8 * (
        1.0 - np.exp(-y / 11.0) - (y / 11.0) * np.exp(-y / 3.0)
    )
    k = 0.01 + 3.2 * (1.0 - np.exp(-y / 25.0)) ** 2
    k[0] = 0.0
    om_vis = 6.0 / (BETA_1 * yp**2)
    om_log = 1.0 / (np.sqrt(BETA_STAR) * KAPPA * yp)
    om = np.sqrt(om_vis**2 + om_log**2)
    nu_t = k / np.maximum(om, OMEGA_FLOOR)
    return U, k, om, nu_t


def _blending(yp, yp2, k, om_s, dkdy, domdy):
    """SST blending F1, F2; yp = max(y, 1e-30), yp2 = yp**2, om_s = floored omega."""
    k_pos = np.maximum(k, 0.0)
    sqrt_k = np.sqrt(k_pos)
    om_yp = BETA_STAR * om_s * yp
    viscous = 500.0 / (yp2 * om_s)
    cd = np.maximum(2.0 * SIGMA_W2 / om_s * dkdy * domdy, 1e-10)
    arg1 = np.minimum(np.maximum(sqrt_k / om_yp, viscous), 4.0 * SIGMA_W2 * k_pos / (cd * yp2))
    f1 = np.tanh(arg1**4)
    arg2 = np.maximum(2.0 * sqrt_k / om_yp, viscous)
    f2 = np.tanh(arg2**2)
    f1[0], f2[0] = 1.0, 1.0
    return f1, f2


def solve_baseline(cfg: ChannelConfig) -> ChannelState:
    """Converge the baseline channel flow."""
    return _solve(cfg, injection=None)


def solve_with_injection(cfg: ChannelConfig, injection: StressInjection) -> ChannelState:
    """Converge with perturbed/prescribed Reynolds stresses in the
    momentum and production terms."""
    return _solve(cfg, injection=injection)


def _solve(cfg, injection):
    grid = _Grid(make_grid(cfg.re_tau, cfg.n_cells, cfg.stretch))
    y, h = grid.y, grid.h
    n = len(y)
    ur = 0.8 if injection is None else 0.5

    U, k, om, nu_t = _init_state(y, cfg.re_tau)
    if injection is not None:
        injection.prepare(cfg, y)

    minus_uv_star = None
    tau_star = None
    residuals = []
    om_wall = 60.0 / (BETA_1 * y[1] ** 2)
    # steady fully developed momentum bounds the turbulent shear stress
    # by the total-stress line
    shear_cap = 1.0 - y / cfg.re_tau
    frozen = False
    best_res = np.inf
    best_it = 0
    best_snap = None
    no_sink = np.zeros(n)
    src_const = np.full(n, 1.0 / cfg.re_tau)
    yp = np.maximum(y, 1e-30)
    yp2 = yp**2

    dudy = grid.grad(U)
    for it in range(cfg.max_iters):
        # every update below binds new arrays, so the old ones stay intact
        U_old, k_old, om_old = U, k, om

        if injection is not None and not frozen:
            arrays = SimpleNamespace(
                re_tau=cfg.re_tau, y_plus=y, U_plus=U, k_plus=k,
                omega_plus=om, nu_t_plus=nu_t, dUdy_plus=dudy,
            )
            ts = injection.compute(arrays)
            m_new = -ts[:, 0, 1]
            if injection.cap_shear:
                m_new = np.minimum(m_new, shear_cap)
            if minus_uv_star is None:
                minus_uv_star = m_new
            else:
                minus_uv_star = (
                    (1.0 - STRESS_RELAX) * minus_uv_star + STRESS_RELAX * m_new
                )
            tau_star = ts

        # momentum: implicit eddy diffusion plus, for injected modes, a
        # deferred correction so the converged shear is
        # dU/dy + (-u'v'*). The shear-aligned part of the injected
        # stress is folded into an effective viscosity and treated
        # implicitly, which keeps strongly amplified stresses stable.
        if injection is None:
            nu_eff = nu_t
        else:
            # any nonnegative nu_eff yields the same fixed point (the
            # deferred correction cancels it at convergence), so the
            # ratio is regularized and capped for stability
            ratio = minus_uv_star * dudy / (dudy**2 + 1e-8)
            nu_eff = np.clip(ratio, 0.0, 1e5)
        nu_mid = _mid(nu_eff)
        src_u = src_const
        if injection is not None:
            g_mid = nu_mid * np.diff(U) / h - _mid(minus_uv_star)
            src_u = src_u - _face_divergence(grid, g_mid)
        U_new = _transport_solve(grid, 1.0 + nu_mid, no_sink, src_u, 0.0)
        U = U_old + ur * (U_new - U_old)
        dudy = grid.grad(U)

        dkdy = grid.grad(k)
        domdy = grid.grad(om)
        om_s = np.maximum(om, OMEGA_FLOOR)
        f1, f2 = _blending(yp, yp2, k, om_s, dkdy, domdy)
        sigma_k = f1 * SIGMA_K1 + (1.0 - f1) * SIGMA_K2
        sigma_w = f1 * SIGMA_W1 + (1.0 - f1) * SIGMA_W2
        beta = f1 * BETA_1 + (1.0 - f1) * BETA_2
        gamma_c = f1 * GAMMA_1 + (1.0 - f1) * GAMMA_2

        if injection is None:
            pk = np.minimum(nu_t * dudy**2, 10.0 * BETA_STAR * k * om)
        else:
            pk = minus_uv_star * dudy
            pk = np.minimum(pk, 10.0 * BETA_STAR * k * om)

        # k transport
        gamma_k = 1.0 + _mid(sigma_k * nu_t)
        k_new = _transport_solve(grid, gamma_k, -BETA_STAR * om_s, pk, 0.0)
        k = k_old + ur * (k_new - k_old)
        k = np.maximum(k, 0.0)
        k[0] = 0.0

        # omega transport
        gamma_w = 1.0 + _mid(sigma_w * nu_t)
        prod_w = gamma_c * dudy**2
        cross = 2.0 * (1.0 - f1) * SIGMA_W2 / om_s * dkdy * domdy
        om_new = _transport_solve(grid, gamma_w, -beta * om_s, prod_w + cross, om_wall)
        om = om_old + ur * (om_new - om_old)
        om = np.maximum(om, OMEGA_FLOOR)

        sbar = np.abs(dudy)
        nu_t_new = A1 * k / np.maximum(A1 * om, sbar * f2)
        nu_t = nu_t + ur * (nu_t_new - nu_t)
        nu_t = np.maximum(nu_t, 0.0)

        scale_u = max(1.0, np.max(np.abs(U)))
        scale_k = max(1.0, np.max(k))
        scale_om = max(1.0, np.max(om))
        # np.max, unlike max(), keeps a NaN in any place
        res = np.max([
            np.max(np.abs(U - U_old)) / scale_u,
            np.max(np.abs(k - k_old)) / scale_k,
            np.max(np.abs(om - om_old)) / scale_om,
        ])
        residuals.append(res)
        if not np.isfinite(res):
            raise SolverError(f"NaN/Inf detected at iteration {it}", residuals)
        if res < cfg.residual_tol and it > 5:
            break
        if injection is not None:
            if res < FREEZE_IMPROVE * best_res:
                best_res = res
                best_it = it
                if not frozen:
                    best_snap = (
                        minus_uv_star.copy(), tau_star.copy(), U.copy(),
                        k.copy(), om.copy(), nu_t.copy(),
                    )
            elif not frozen and it - best_it > FREEZE_STALL:
                # marginally stable stress coupling: freeze the stress at
                # the closest-approach iterate and converge against it
                minus_uv_star, tau_star, U, k, om, nu_t = (
                    a.copy() for a in best_snap
                )
                dudy = grid.grad(U)
                frozen = True
                best_res = np.inf
                best_it = it
            elif frozen and it - best_it > POST_FREEZE_STALL and ur > 0.15:
                ur *= 0.5
                best_res = np.inf
                best_it = it
    else:
        raise SolverError(
            f"no convergence after {cfg.max_iters} iterations "
            f"(last residual {residuals[-1]:.3e})",
            residuals,
        )

    if minus_uv_star is None:
        minus_uv = nu_t * dudy
    else:
        minus_uv = minus_uv_star

    # report the injected stresses themselves (realizable by
    # construction); minus_uv_plus carries the relaxed/capped shear the
    # momentum equation actually used
    tau = tau_star if tau_star is not None else tensors.boussinesq(k, nu_t, dudy)

    return ChannelState(
        re_tau=cfg.re_tau,
        y_plus=y,
        U_plus=U,
        k_plus=k,
        omega_plus=om,
        nu_t_plus=nu_t,
        dUdy_plus=dudy,
        minus_uv_plus=minus_uv,
        tau=tau,
        residual_history=residuals,
        iterations=len(residuals),
    )


def total_shear_error(state: ChannelState) -> float:
    """Max deviation of the converged total shear from 1 - y+/Re_tau,
    evaluated at the interval midpoints the solver used."""
    y = state.y_plus
    h = np.diff(y)
    dudy_mid = np.diff(state.U_plus) / h
    shear = dudy_mid + _mid(state.minus_uv_plus)
    y_mid = _mid(y)
    return float(np.max(np.abs(shear - (1.0 - y_mid / state.re_tau))))


def barycentric_trace(state: ChannelState):
    """Barycentric points (n, 2) and corner weights (n, 3) of the
    state's stress; NaN at degenerate near-laminar nodes."""
    _, lam, _, degenerate = tensors.decompose(state.tau)
    w = tensors.eigenvalues_to_weights(lam)
    w[degenerate] = np.nan
    return tensors.weights_to_points(w), w


CORNER_SLOTS = ("1C", "2C", "3C")


@dataclass
class Envelope:
    baseline: ChannelState
    corner_states: dict[str, ChannelState]
    U_min: np.ndarray
    U_max: np.ndarray

    @property
    def width(self) -> np.ndarray:
        return self.U_max - self.U_min

    def integrated_width(self) -> float:
        return float(np.trapezoid(self.width, self.baseline.y_plus))


def corner_injections(mode, delta_b=None, forest=None) -> dict[str, PerturbationInjection]:
    """The injection of each corner slot 1C/2C/3C for one uq mode.

    Modes that take no corner get one shared instance in all three
    slots. Every argument is checked here, before any solve.
    """
    if "corner" in PerturbationInjection.TAKES.get(mode, ()):
        return {
            c: PerturbationInjection(mode, corner=c, delta_b=delta_b, forest=forest)
            for c in CORNER_SLOTS
        }
    shared = PerturbationInjection(mode, delta_b=delta_b, forest=forest)
    return dict.fromkeys(CORNER_SLOTS, shared)


def uq_envelope(cfg: ChannelConfig, injections: dict[str, StressInjection]) -> Envelope:
    """Solve the baseline and each distinct corner injection once and
    collect the per-node min/max velocity envelope.

    ``injections`` maps each corner slot to its StressInjection (see
    ``corner_injections``); slots sharing one instance share its state.
    """
    baseline = solve_baseline(cfg)
    solved = {}  # id(injection) -> state
    states = {}
    for corner, injection in injections.items():
        if id(injection) not in solved:
            try:
                solved[id(injection)] = solve_with_injection(cfg, injection)
            except SolverError as e:
                raise SolverError(f"corner {corner} failed: {e}", e.residual_history) from e
        states[corner] = solved[id(injection)]
    profiles = np.vstack([baseline.U_plus] + [s.U_plus for s in states.values()])
    return Envelope(
        baseline=baseline,
        corner_states=states,
        U_min=profiles.min(axis=0),
        U_max=profiles.max(axis=0),
    )


def write_solution_csv(state: ChannelState, path) -> None:
    _, w = barycentric_trace(state)
    tau = state.tau
    cols = np.column_stack([
        state.y_plus, state.U_plus, state.k_plus, state.omega_plus, state.nu_t_plus,
        tau[:, 0, 0], tau[:, 1, 1], tau[:, 2, 2], tau[:, 0, 1], w,
    ])
    np.savetxt(path, cols, fmt="%.17g", delimiter=",", comments="",
               header="y_plus,U_plus,k_plus,omega_plus,nu_t_plus,uu,vv,ww,uv,C1,C2,C3")
