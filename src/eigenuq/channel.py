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

import copy
import functools
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field, replace
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np

from . import perturb, rotation, tensors
from .dns import TARGET_NAMES, DnsProfile, check_coverage, interpolate

# SST closure constants (standard published set)
BETA_STAR = 0.09
KAPPA = 0.41
A1 = 0.31
SIGMA_K1, SIGMA_W1, BETA_1 = 0.85, 0.5, 0.075
SIGMA_K2, SIGMA_W2, BETA_2 = 1.0, 0.856, 0.0828
GAMMA_1 = BETA_1 / BETA_STAR - SIGMA_W1 * KAPPA**2 / np.sqrt(BETA_STAR)
GAMMA_2 = BETA_2 / BETA_STAR - SIGMA_W2 * KAPPA**2 / np.sqrt(BETA_STAR)
# the blended coefficients sigma_k, sigma_w, beta and gamma of one node
# are F1 times set 1 plus (1 - F1) times set 2; one column per set
_SET_1 = np.array([[SIGMA_K1], [SIGMA_W1], [BETA_1], [GAMMA_1]])
_SET_2 = np.array([[SIGMA_K2], [SIGMA_W2], [BETA_2], [GAMMA_2]])

OMEGA_FLOOR = 1e-8
NOISE_WINDOW = 20.0  # standard deviation, in wall units, of the mean _roughness_noise removes

_FLAPACK = "scipy.linalg._flapack"


def _load_flapack(directories):
    """scipy's compiled LAPACK wrappers, the extension module
    ``scipy.linalg._flapack``, loaded from the first of ``directories``
    that holds it, without running the ``__init__`` of ``scipy`` or
    ``scipy.linalg``; ImportError naming the directories if none does.
    The module is registered under its real name, so a later import of
    ``scipy.linalg`` finds it (and a module already registered is kept:
    both hold the same routine objects)."""
    for directory in directories:
        spec = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(_FLAPACK)
        if spec is not None:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return sys.modules.setdefault(_FLAPACK, module)
    raise ImportError(f"no {_FLAPACK} extension in {', '.join(directories)}", name=_FLAPACK)


# LAPACK's tridiagonal and banded solvers, called directly: scipy's
# banded solver calls the same routines but validates its inputs, and
# copies a banded matrix into new storage, on every call. They are the
# objects ``scipy.linalg.get_lapack_funcs`` returns, taken from the
# compiled module alone: importing ``scipy.linalg`` costs a fresh
# process about 0.3 s and 28 MB, more than a baseline solve, for modules
# no command uses. ``find_spec`` of a top-level package runs none of its
# code.
_scipy = importlib.util.find_spec("scipy")
if _scipy is None:
    raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
_flapack = _load_flapack([os.path.join(d, "linalg") for d in _scipy.submodule_search_locations])
_GTSV = _flapack.dgtsv
_GBTRF = _flapack.dgbtrf
_GBTRS = _flapack.dgbtrs

# Solve controls. Every solve, baseline, prescribed or coupled stress,
# is solved to its fixed point x = G(x), where x stacks U, k, omega and
# nu_t and G is one sweep at ur = 1 under the shear of x: the eddy
# viscosity's, the prescribed one, or the capped coupled stress evaluated
# at x. Picard sweeps (ur = 0.8 for the baseline, 0.5 under an injected
# stress, each row of a stack its own; a coupled stress relaxed toward
# the one of each iterate by min(STRESS_RELAX, 1 / (1 + nu_t))) run in
# blocks of PICARD_BLOCK; after each block, damped Newton on the local
# residual (``_FixedPoint.attempt``) takes over on a copy for at most
# NEWTON_STEPS steps. A fresh step evaluates the Jacobian (that residual
# on 17 states) and factors it (LAPACK gbtrf); the factors are kept, and
# the next step first tries the chord step on them (the residual on one
# state and one gbtrs call), taken only at full length and only if it
# cuts the scaled F by CHORD_CONTRACTION. A solve is done at a scaled
# max-norm of F = G(x) - x of NEWTON_TOL.
STRESS_RELAX = 0.2
PICARD_BLOCK = 50
NEWTON_STEPS = 40
NEWTON_TOL = 1e-10
CHORD_CONTRACTION = 0.1

# How far the local residual R reaches, column field -> row field, fields
# in the iterate's order (U, k, omega, nu_t): _REACH[f, g] is the largest
# |i - j| at which field f of node j enters the row of field g of node i,
# -1 where it never does. Newton's band and colouring rest on it (``_FixedPoint``).
_REACH = np.array([
    [2, 1, 1, 1],  # U
    [1, 2, 2, 0],  # k
    [-1, 2, 2, 0],  # omega
    [1, 1, 1, 0],  # nu_t
])
_REACH.flags.writeable = False
# the half-bandwidth of Newton's node-major Jacobian: field g of node
# j + d sits 4 d + g - f rows from field f of node j, at most
# 4 _REACH[f, g] + |g - f| away
BAND = int(max(4 * r + abs(g - f) for (f, g), r in np.ndenumerate(_REACH) if r >= 0))
# Newton's 16 colours: field f of node i is in colour
# _COLOUR_BASE[f] + (i - _COLOUR_SHIFT[f]) mod 8, so U of node i shares
# colour i mod 8 with omega of node i + 4, and k of node i colour
# 8 + i mod 8 with nu_t of node i + 4. By _REACH no two columns of one
# colour reach the same row.
_COLOURS = 16
_COLOUR_BASE = np.array([0, 8, 0, 8])
_COLOUR_SHIFT = np.array([0, 0, 4, 4])


# A converged state is the laminar fixed point when its k has died out or
# its centreline U+ is the laminar Re_tau / 2 (plane Poiseuille flow in
# wall units). At Re_tau 180 the laminar datafree 3C corners measure a k
# max of 1.2e-12 to 1.25e-9, the turbulent corners 0.87 or more.
LAMINAR_K_MAX = 1e-8
LAMINAR_U_RTOL = 1e-6


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

    def __post_init__(self):
        if not (np.isfinite(self.re_tau) and self.re_tau > 0):
            raise ValueError("re_tau must be finite and positive")
        if self.n_cells < 8:
            raise ValueError("n_cells too small")
        if not 0 < self.stretch < 1.0:
            raise ValueError("stretch (first node y+) must be in (0, 1)")
        if self.max_iters < 1:
            raise ValueError("max_iters must be a positive integer")


@dataclass
class ChannelState:
    re_tau: float
    y_plus: np.ndarray
    # the iterate, the one store of U+, k+, omega+ and nu_t+: the four
    # rows of one (4, ..., n) array, which the properties below read as
    # views
    x: np.ndarray
    dUdy_plus: np.ndarray
    # set once the solve ends; None on the iterates handed to an injection
    minus_uv_plus: np.ndarray | None = None  # shear stress actually used in momentum
    tau: np.ndarray | None = None  # (n, 3, 3) Reynolds stress per node
    # relative change of U, k and omega, one per Picard sweep
    residual_history: list[float] = field(default_factory=list)
    # how the solve reached its fixed point: Newton steps and Jacobian
    # evaluations over all attempts and the final scaled max-norm of F;
    # for a coupled stress also the largest change of the capped shear
    # recomputed from the converged flow (None otherwise)
    newton_steps: int = 0
    jacobians: int = 0
    fixed_point_residual: float | None = None
    stress_consistency: float | None = None

    @property
    def U_plus(self) -> np.ndarray:
        return self.x[0]

    @property
    def k_plus(self) -> np.ndarray:
        return self.x[1]

    @property
    def omega_plus(self) -> np.ndarray:
        return self.x[2]

    @property
    def nu_t_plus(self) -> np.ndarray:
        return self.x[3]

    @property
    def picard_sweeps(self) -> int:
        return len(self.residual_history)

    @property
    def iterations(self) -> int:
        return self.picard_sweeps + self.newton_steps

    @property
    def centerline_U(self) -> float:
        return float(self.U_plus[-1])

    @property
    def laminar(self) -> bool:
        """Whether this is the laminar fixed point (``LAMINAR_K_MAX``,
        ``LAMINAR_U_RTOL``)."""
        half = 0.5 * self.re_tau
        return bool(np.max(self.k_plus) < LAMINAR_K_MAX
                    or abs(self.centerline_U - half) <= LAMINAR_U_RTOL * half)


def make_grid(re_tau: float, n_nodes: int, y1: float) -> np.ndarray:
    """Geometrically stretched nodes on [0, re_tau] with first spacing y1;
    the last node is re_tau exactly."""
    m = n_nodes - 1  # intervals
    if y1 * m >= re_tau:
        # uniform grid already finer than requested clustering
        return np.linspace(0.0, re_tau, n_nodes)

    def total(r):
        # an r**m past the float range is larger than any re_tau
        try:
            return y1 * (r**m - 1.0) / (r - 1.0)
        except OverflowError:
            return math.inf

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
    y[-1] = re_tau  # the product can miss it by an ulp
    return y


class _Grid:
    """The nodes of a solve, their spacings, the three-point weights of
    the gradient, the wall-distance terms of the closure and the unit
    diffusivity and zero sink of momentum under a fixed stress, built
    once. ``grad(f)`` takes numpy's weights for arbitrary spacing at
    every interior node and its one-sided ends: it equals numpy's
    ``gradient(f, y)`` bit for bit wherever the spacings are not all
    equal, and differs in the last bits at most where they are, since
    numpy then takes (f[i+1] - f[i-1]) / 2h instead.

    ``y`` holds the (n,) nodes of one grid, or the (rows, n) nodes of a
    stack of rows. Then every term is per row, and the wall omega and the
    last half spacing (rows,) arrays."""

    def __init__(self, y):
        self.y = y
        n = y.shape[-1]
        self.unit_mid, self.no_sink = np.ones(n - 1), np.zeros(n)
        self.yp = np.maximum(y, 1e-30)
        self.yp2 = self.yp**2
        self.om_wall = 60.0 / (BETA_1 * y[..., 1] ** 2)
        self.walls = np.stack([np.zeros_like(self.om_wall), self.om_wall])  # of k and omega
        h = np.diff(y)
        self.last = n - 1
        self.h_ends = h[..., ::n - 2]
        self.delta = delta = 0.5 * (h[..., :-1] + h[..., 1:])
        # denominators of the transport and divergence stencils: the
        # lower diagonal's, the centreline row's last, and the upper's
        self.sub_den = np.concatenate([h[..., :-1] * delta, h[..., -1:] * 0.5 * h[..., -1:]],
                                      axis=-1)
        self.sup_den = h[..., 1:] * delta
        self.half_h_end = 0.5 * h[..., -1]
        dx1, dx2 = h[..., :-1], h[..., 1:]
        self.abc = (-(dx2) / (dx1 * (dx1 + dx2)), (dx2 - dx1) / (dx1 * dx2),
                    dx1 / (dx2 * (dx1 + dx2)))

    def grad(self, f):
        """The gradient along the last axis of ``f``."""
        out = np.empty_like(f)
        a, b, c = self.abc
        out[..., 1:-1] = a * f[..., :-2] + b * f[..., 1:-1] + c * f[..., 2:]
        # both one-sided ends in one strided operation: (f[1] - f[0]) / h[0]
        # and (f[-1] - f[-2]) / h[-1]
        out[..., ::self.last] = (f[..., 1::self.last - 1] - f[..., :-1:self.last - 1]) / self.h_ends
        return out


def _tridiagonal(grid, gamma_mid, sink, source, wall_value):
    """The finite-volume system (lower, diag, upper, rhs) of
    d/dy(Gamma dphi/dy) + sink*phi + source = 0 with Dirichlet wall
    value and zero flux at the centerline; along the last axis, with the
    leading axes of ``source``, and the wall value a number or an array
    that broadcasts against them. Each diagonal is as long as the system:
    the wall row has no lower entry and the centreline row no outflow,
    both 0, so the rows of a stack laid end to end are one
    block-diagonal tridiagonal system."""
    lower = np.zeros(source.shape)
    sub = np.divide(gamma_mid, grid.sub_den, out=lower[..., 1:])
    upper = np.zeros(source.shape)
    upper[..., 1:-1] = gamma_mid[..., 1:] / grid.sup_den
    diag = np.empty(source.shape)
    diag[..., 0] = 1.0
    diag[..., 1:] = -(sub + upper[..., 1:]) + sink[..., 1:]
    rhs = -source
    rhs[..., 0] = wall_value
    return lower, diag, upper, rhs


def _transport_solve(grid, gamma_mid, sink, source, wall_value):
    """Solve the system of ``_tridiagonal``, every row of a stack in one
    LAPACK call. Partial pivoting stays inside a row: at the seam the
    wall row's lower entry is 0, so no row interchange crosses it, and
    the zero couplings pass finite values on unchanged, so each row's
    solution is that of the row alone."""
    lower, diag, upper, rhs = _tridiagonal(grid, gamma_mid, sink, source, wall_value)
    *_, x, info = _GTSV(lower.ravel()[1:], diag.ravel(), upper.ravel()[:-1], rhs.ravel(),
                        1, 1, 1, 1)  # may overwrite all four
    if info != 0:
        raise SolverError(f"singular transport system (LAPACK gtsv info={info})")
    return x.reshape(rhs.shape)


def _transport_residual(grid, phi, gamma_mid, sink, source, wall_value, out=None):
    """A phi - b of the system of ``_tridiagonal``: (diag phi - rhs +
    lower phi_prev) + upper phi_next, each operation in that order, the
    zero upper entry of the wall row included; written into ``out`` when
    it is given."""
    lower, diag, upper, rhs = _tridiagonal(grid, gamma_mid, sink, source, wall_value)
    r = np.multiply(diag, phi, out=out)
    r -= rhs
    r[..., 1:] += lower[..., 1:] * phi[..., :-1]
    r[..., :-1] += upper[..., :-1] * phi[..., 1:]
    return r


def _face_divergence(grid, g_mid):
    """Nodal divergence of a face flux with zero flux at the centerline
    face; entry 0 is unused (Dirichlet wall node)."""
    out = np.zeros(g_mid.shape[:-1] + grid.y.shape[-1:])
    out[..., 1:-1] = (g_mid[..., 1:] - g_mid[..., :-1]) / grid.delta
    out[..., -1] = (0.0 - g_mid[..., -1]) / grid.half_h_end
    return out


def _mid(a):
    return 0.5 * (a[..., :-1] + a[..., 1:])


# ---------------------------------------------------------------------------
# stress injection modes


def _gaussian_filter(x, sigma):
    """Gaussian running mean of the 1D array ``x`` (standard deviation
    ``sigma`` samples, edges extended by their end values), bit for bit
    ``scipy.ndimage.gaussian_filter1d(x, sigma, mode="nearest")``: the
    same kernel, truncated at 4 sigma, and the floating-point operations
    of its symmetric correlation loop in their order."""
    radius = int(4.0 * sigma + 0.5)
    w = np.exp(-0.5 / (sigma * sigma) * np.arange(-radius, radius + 1) ** 2)
    w = w[radius:] / w.sum()  # symmetric: w[j] weighs x[i - j] and x[i + j]
    xp = np.pad(x, radius, mode="edge")
    n = len(x)
    out = xp[radius:radius + n] * w[0]
    for j in range(radius, 0, -1):
        out += (xp[radius - j:radius - j + n] + xp[radius + j:radius + j + n]) * w[j]
    return out


def _roughness_noise(y, seed):
    """Zero-mean uniform noise, high-passed so its running integral stays
    bounded; unit peak amplitude.

    Low-wavenumber content of pointwise noise is a systematic regional
    stress bias rather than roughness, and in 1D its integral feeds
    straight into the velocity profile. Removing a Gaussian running
    mean (NOISE_WINDOW wide) keeps the pointwise roughness while
    making the robustness check probe derivative non-smoothness.
    """
    rng = np.random.default_rng(seed)
    eps = rng.uniform(-1.0, 1.0, len(y))
    yu = np.arange(0.0, y[-1] + 0.5, 1.0)
    smooth = _gaussian_filter(np.interp(yu, y, eps), NOISE_WINDOW)
    eps = eps - np.interp(y, yu, smooth)
    return eps / np.max(np.abs(eps))


class StressInjection:
    """Supplies the per-node Reynolds stress tensors of a solve.

    A prescribed stress (``coupled`` False) is computed once, on the
    initial iterate, and used as given. A coupled stress depends on the
    flow: it is recomputed from every iterate and bounded by the
    total-stress line until the solve reaches its fixed point; the solve
    asks it only for ``shear``, the -u'v'* that momentum uses.
    """

    coupled = False

    def compute(self, state) -> np.ndarray:
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
        if self.noise_seed < 0:
            raise ValueError(f"noise seed must be a non-negative integer, got {self.noise_seed}")

    def compute(self, state):
        check_coverage(self.profile, state.re_tau)
        y = state.y_plus
        prof = interpolate(self.profile, y)
        uv = prof.uv_plus
        if self.noise_amplitude > 0.0:
            uv = uv * (1.0 + self.noise_amplitude * _roughness_noise(y, self.noise_seed))
        return tensors.stress_stack(
            np.maximum(prof.uu_plus, 0.0),
            np.maximum(prof.vv_plus, 0.0),
            np.maximum(prof.ww_plus, 0.0),
            uv,
        )


# Eigenvectors of the Boussinesq anisotropy of a channel flow with
# dU/dy > 0, as columns for the eigenvalues (a, 0, -a): the x-y axes
# turned by 45 degrees, plus z, signed as tensors.decompose signs them
_SHEAR_FRAME = np.array([
    [1.0, 0.0, -1.0],
    [-1.0, 0.0, -1.0],
    [0.0, np.sqrt(2.0), 0.0],
]) / np.sqrt(2.0)


# The Boussinesq anisotropy's eigenvalues are b (1, 0, -1), and their
# barycentric point x(b) = x(0) + b dx/db, the map being affine; x(0) is
# the 3C corner
_BOUSSINESQ_POINT = tensors.weights_to_points(tensors.eigenvalues_to_weights(np.zeros(3)))
_BOUSSINESQ_DIRECTION = (tensors.weights_to_points(tensors.eigenvalues_to_weights(
    np.array([1.0, 0.0, -1.0]))) - _BOUSSINESQ_POINT)


class PerturbationInjection(StressInjection):
    """In-loop eigenspace perturbation of the Boussinesq stress.

    mode: 'datafree' (corner + delta_b), 'p' (magnitude targets +
    corner), 'pcorr' (componentwise targets), 'pcorr_angles'
    (componentwise + eigenvector rotation targets). The targets are an
    (n, n_targets) array of per-node forest predictions, columns in
    ``dns.TARGET_NAMES[mode]`` order.

    The stress is perturbed in closed form in the channel's fixed frame:
    the Boussinesq anisotropy has eigenvalues (a, 0, -a) with
    a = nu_t |dU/dy| / k on ``_SHEAR_FRAME``. The shear is oriented by
    the total-stress line, positive wherever 1 - y+/Re_tau > 0 and zero
    at the centreline node, so the roundoff sign of dU/dy where the
    shear vanishes cannot flip it.

    The corner modes move those eigenvalues in closed form, as
    (1 - delta) (b, 0, -b) + delta lam_c with b = min(a, 2/3) and lam_c
    the corner's eigenvalues: the barycentric map is affine, so the
    straight move toward the corner point is this convex combination,
    and clipping (a, 0, -a) into the triangle is b = min(a, 2/3). delta
    is delta_b for 'datafree', and 'p' takes perturb.magnitude_shift's
    step per node. The componentwise modes move them through the
    barycentric map (perturb.move_eigenvalues): their projection into
    the triangle is no convex combination toward a fixed point.

    ``shear`` and ``compute`` share the moved eigenvalues, three (..., n)
    columns (``_eigenvalues``); ``shear`` assembles no tensor, and for
    'pcorr_angles' the rotated frame is built once, from the targets.
    ``shear`` also takes a stack of states, arrays (..., n), as the
    Newton solve's coloured differences hand it.
    """

    coupled = True

    # the uq modes and the arguments each takes, all of them required;
    # the CLI, the pipeline and corner_injections read the modes from here
    TAKES = {
        "datafree": ("corner", "delta_b"),
        "p": ("corner", "targets"),
        "pcorr": ("targets",),
        "pcorr_angles": ("targets",),
    }

    def __init__(self, mode, corner=None, delta_b=None, targets=None):
        if mode not in self.TAKES:
            raise ValueError(f"unknown injection mode {mode!r}")
        takes = self.TAKES[mode]
        given = {"corner": corner, "delta_b": delta_b, "targets": targets}
        if any(given[name] is None for name in takes):
            raise ValueError(f"mode {mode!r} needs {' and '.join(takes)}")
        extra = [name for name, val in given.items() if val is not None and name not in takes]
        if extra:
            raise ValueError(f"mode {mode!r} does not take {', '.join(extra)}")
        if delta_b is not None and not 0.0 <= delta_b <= 1.0:
            raise ValueError("delta_b must be in [0, 1]")
        if corner is not None:
            tensors.corner_coords(corner)  # validates the identifier
        if targets is not None:
            targets = np.asarray(targets, dtype=float)
            if targets.shape[-1] != len(TARGET_NAMES[mode]):
                raise ValueError(f"mode {mode!r} needs {len(TARGET_NAMES[mode])} forest "
                                 f"targets, got {targets.shape[-1]}")
        self.mode = mode
        self.corner = corner
        self.delta_b = delta_b
        self.targets = targets
        self.frame = None  # rotated eigenvector frames of pcorr_angles
        self.move = None  # the barycentric move of the componentwise modes
        if corner is None:
            self.move = perturb.componentwise_shift(targets[:, :2])
        else:
            # the corner's anisotropy eigenvalues, those of its unit weights
            # (C1, C2, C3 in CORNER_SLOTS order), and its plane point
            # relative to x(0), from which 'p' measures its distances
            index = CORNER_SLOTS.index(corner)
            self.corner_lam = tensors.weights_to_eigenvalues(np.eye(3)[index])
            self.corner_xy = tensors.CORNERS[index] - _BOUSSINESQ_POINT
        if mode == "p":
            self.p_pos = np.maximum(targets[:, 0], 0.0)  # the distances, negative counting as 0
        if mode == "pcorr_angles":
            shear_frame = np.broadcast_to(_SHEAR_FRAME, (len(targets), 3, 3))
            self.frame = rotation.apply_rotation(shear_frame, targets[:, 2:])

    @classmethod
    def stack(cls, injections):
        """One injection whose ``shear`` on row r of a stack of states is
        that of ``injections[r]``: a lone injection itself, or injections
        of one corner-taking mode with the same other arguments, as
        ``corner_injections`` builds them. Each injection's own
        ``corner_lam`` and ``corner_xy`` are stacked as (m, 1, 3) and
        (m, 1, 2) arrays, which broadcast, so the stack's shear is one
        evaluation, each row's arithmetic that of the row alone."""
        first = injections[0]
        if len(injections) == 1:
            return first
        for injection in injections:
            if not (isinstance(injection, cls) and injection.corner is not None
                    and injection.mode == first.mode and injection.delta_b == first.delta_b
                    and np.array_equal(injection.targets, first.targets)):
                raise ValueError("the injections of one stack must differ in their corner alone")
        stacked = copy.copy(first)
        stacked.corner_lam, stacked.corner_xy = (
            np.stack([getattr(injection, name) for injection in injections])[:, None]
            for name in ("corner_lam", "corner_xy"))
        return stacked

    def _eigenvalues(self, state):
        """The laminar nodes (k below K_FLOOR) and the moved anisotropy
        eigenvalues l1, l2, l3 of the Boussinesq stress at every node, as
        three (..., n) columns: for the componentwise modes the columns
        of the (3, ..., n) view of their (..., n, 3) stack, for the corner
        modes three contiguous arrays."""
        k = state.k_plus
        laminar = k < tensors.K_FLOOR
        a = state.nu_t_plus * np.abs(state.dUdy_plus) / np.where(laminar, 1.0, k)
        if self.move is not None:
            lam = np.zeros(a.shape + (3,))
            lam[..., 0], lam[..., 2] = a, -a
            return laminar, np.moveaxis(perturb.move_eigenvalues(lam, self.move), -1, 0)
        # the corner modes: (b, 0, -b) moved by delta toward the corner
        b = np.minimum(a, 2.0 / 3.0)
        if self.mode == "datafree":
            delta = self.delta_b
        else:
            # perturb.magnitude_shift's step, over the distance d from x(b)
            xy = self.corner_xy
            d = np.hypot(xy[..., 0] - b * _BOUSSINESQ_DIRECTION[0],
                         xy[..., 1] - b * _BOUSSINESQ_DIRECTION[1])
            delta = np.minimum(np.where(d > 1e-14, self.p_pos / np.maximum(d, 1e-14), 0.0), 1.0)
        # (1 - delta) b (1, 0, -1) + delta lam_c, column by column: t 1 is
        # t, and t 0 and t (-1) keep their signed zeros and NaN signs
        t = (1.0 - delta) * b
        lam_c = self.corner_lam
        return laminar, (t + delta * lam_c[..., 0], t * 0.0 + delta * lam_c[..., 1],
                         t * -1.0 + delta * lam_c[..., 2])

    def shear(self, state):
        """The -u'v'* of ``compute``'s stress: k (l1 - l3) / 2 from the
        moved eigenvalues' columns, or -k a_xy on the rotated frame of
        'pcorr_angles'; 0 at the centreline node and the Boussinesq shear
        nu_t dU/dy at the laminar ones."""
        k, nu_t, dudy = state.k_plus, state.nu_t_plus, state.dUdy_plus
        laminar, lam = self._eigenvalues(state)
        if self.frame is None:
            shear = 0.5 * k * (lam[0] - lam[2])
        else:
            # -k a_xy of the anisotropy diag(lam) on the rotated frame
            f = self.frame
            shear = -k * np.einsum("nj,...nj,nj->...n", f[:, 0], np.moveaxis(lam, 0, -1), f[:, 1])
        # the centreline and laminar rules of compute
        shear[..., -1] = 0.0
        return np.where(laminar, nu_t * dudy, shear)

    def compute(self, state):
        k, nu_t, dudy = state.k_plus, state.nu_t_plus, state.dUdy_plus
        laminar, lam = self._eigenvalues(state)
        if self.frame is None:
            # the anisotropy diag(lam) on _SHEAR_FRAME, written out
            l1, l2, l3 = lam
            iso = k * (0.5 * (l1 + l3) + 2.0 / 3.0)
            tau = tensors.stress_stack(iso, iso, k * (l2 + 2.0 / 3.0), -0.5 * k * (l1 - l3))
        else:
            tau = tensors.reconstruct(k, np.moveaxis(lam, 0, -1), self.frame)
        # zero orientation at the centreline: the mean of the stress and
        # its mirror image in y, which keeps it realizable
        tau[-1, 1, [0, 2]] = tau[-1, [0, 2], 1] = 0.0
        tau[laminar] = tensors.boussinesq(k[laminar], nu_t[laminar], dudy[laminar])
        return tau


# ---------------------------------------------------------------------------
# solver


def _init_state(grid):
    y, yp = grid.y, grid.yp
    U = (1.0 / KAPPA) * np.log1p(KAPPA * y) + 7.8 * (
        1.0 - np.exp(-y / 11.0) - (y / 11.0) * np.exp(-y / 3.0)
    )
    k = 0.01 + 3.2 * (1.0 - np.exp(-y / 25.0)) ** 2
    k[0] = 0.0
    om_vis = 6.0 / (BETA_1 * grid.yp2)
    om_log = 1.0 / (np.sqrt(BETA_STAR) * KAPPA * yp)
    om = np.sqrt(om_vis**2 + om_log**2)
    om[0] = grid.om_wall
    nu_t = k / np.maximum(om, OMEGA_FLOOR)
    return U, k, om, nu_t


def _blending(grid, k, om_s, dkdy, domdy):
    """SST blending F1, F2; om_s = floored omega."""
    k_pos = np.maximum(k, 0.0)
    sqrt_k = np.sqrt(k_pos)
    # sqrt(k) / (beta* omega y), doubled exactly in F2's argument
    turbulent = sqrt_k / (BETA_STAR * om_s * grid.yp)
    viscous = 500.0 / (grid.yp2 * om_s)
    cd = np.maximum(2.0 * SIGMA_W2 / om_s * dkdy * domdy, 1e-10)
    arg1 = np.minimum(np.maximum(turbulent, viscous), 4.0 * SIGMA_W2 * k_pos / (cd * grid.yp2))
    f1 = np.tanh(arg1**4)
    f2 = np.tanh(np.maximum(2.0 * turbulent, viscous) ** 2)
    f1[..., 0], f2[..., 0] = 1.0, 1.0
    return f1, f2


def _momentum(grid, state, minus_uv, eddy=None):
    """Face diffusivity and source of the momentum system of ``state``
    under the shear ``minus_uv`` (see ``_sweep``)."""
    if minus_uv is None:
        # implicit eddy diffusion
        return 1.0 + _mid(state.nu_t_plus), np.full(state.U_plus.shape, 1.0 / state.re_tau)
    # a given stress does not depend on this sweep's U: momentum is one
    # exact linear solve for U. The eddy rows of a mixed stack take implicit
    # diffusion; under their zero shear the source is 1/Re_tau bit for bit
    source = _face_divergence(grid, _mid(minus_uv)) + 1.0 / state.re_tau
    gamma = grid.unit_mid if eddy is None else np.where(eddy, 1.0 + _mid(state.nu_t_plus), 1.0)
    return gamma, source


def _turbulence(grid, k_omega, nu_t, dudy, minus_uv, eddy=None):
    """The SST closure at one state, its k and omega the two rows of the
    (2, ..., n) array ``k_omega``, and velocity gradient ``dudy``: the k
    and omega transport systems as the ``_tridiagonal`` arguments of one
    stack, k's first along the leading axis, wall values 0 and omega's;
    and the blending function F2 of the eddy viscosity. Both gradients
    are one ``grad`` call, and the k and omega sinks, like their
    sources, are written with ``out=`` into the rows of one (2, ..., n)
    array. Production is nu_t dU/dy^2 under the eddy-viscosity closure
    and -u'v'* dU/dy under the shear ``minus_uv`` (see ``_sweep``)."""
    dudy2 = dudy**2
    # the rows by index: unpacking an array through its iterator takes
    # about 1 us longer
    k, om = k_omega[0], k_omega[1]
    dk_omega = grid.grad(k_omega)
    dkdy, domdy = dk_omega[0], dk_omega[1]
    om_s = np.maximum(om, OMEGA_FLOOR)
    f1, f2 = _blending(grid, k, om_s, dkdy, domdy)
    not_f1 = 1.0 - f1
    sets = (4,) + (1,) * f1.ndim
    # sigma_k, sigma_w, beta, gamma
    blended = f1 * _SET_1.reshape(sets) + not_f1 * _SET_2.reshape(sets)

    if minus_uv is None:
        pk = nu_t * dudy2
    elif eddy is None:
        pk = minus_uv * dudy
    else:
        pk = np.where(eddy, nu_t * dudy2, minus_uv * dudy)
    cross = 2.0 * SIGMA_W2 * not_f1 / om_s * dkdy * domdy
    sink = np.empty((2,) + om_s.shape)
    source = np.empty_like(sink)
    np.multiply(-BETA_STAR, om_s, out=sink[0])
    np.multiply(np.negative(blended[2], out=sink[1]), om_s, out=sink[1])
    np.minimum(pk, 10.0 * BETA_STAR * k * om, out=source[0])
    np.add(np.multiply(blended[3], dudy2, out=source[1]), cross, out=source[1])
    systems = (1.0 + _mid(blended[:2] * nu_t), sink, source,
               grid.walls.reshape((2,) + (1,) * (f1.ndim - grid.y.ndim) + grid.y.shape[:-1]))
    return systems, f2


def _eddy_viscosity(k, om, dudy, f2):
    return A1 * k / np.maximum(A1 * om, np.abs(dudy) * f2)


# the floors of a sweep's k and omega, broadcast along the pair's axis
_K_OMEGA_FLOORS = np.array([0.0, OMEGA_FLOOR])


def _sweep(grid, state, minus_uv, ur, eddy=None):
    """One outer iteration: the relaxed U -> k and omega -> nu_t update
    of ``state`` under the shear stress ``minus_uv`` (-u'v'*; None for
    the eddy-viscosity closure), with under-relaxation factor ``ur``.
    A given shear is held fixed for the sweep, so momentum is solved
    exactly, whether the stress is prescribed, a Picard iterate of a
    coupled one or the one evaluation of the fixed-point map. In a stack
    whose rows differ, ``ur`` is a (rows, 1) array and the rows where
    the (rows, 1) mask ``eddy`` holds take the eddy-viscosity closure,
    whatever ``minus_uv`` holds there.

    The sweep reads the (4, ..., n) iterate ``x`` of ``state`` and
    writes the relaxed U, k and omega pair and nu_t into the rows of a
    new one: k and omega are its rows 1:3 throughout, with one gradient
    call, one transport solve, and one relaxed update floored at 0 and
    OMEGA_FLOOR. Each solve's wall entry is set to its Dirichlet value,
    which the solver meets only to roundoff.

    Returns a new ChannelState on the new iterate; every array of
    ``state`` stays intact.
    """
    x = state.x
    U, k_omega, nu_t = x[0], x[1:3], x[3]
    gamma_u, src_u = _momentum(grid, state, minus_uv, eddy)
    U_new = _transport_solve(grid, gamma_u, grid.no_sink, src_u, 0.0)
    U_new[..., 0] = 0.0
    out = np.empty(x.shape)
    dudy = grid.grad(np.add(U, ur * (U_new - U), out=out[0]))

    systems, f2 = _turbulence(grid, k_omega, nu_t, dudy, minus_uv, eddy)
    new = _transport_solve(grid, *systems)
    new[..., 0] = systems[3]
    floors = _K_OMEGA_FLOORS.reshape((2,) + (1,) * (k_omega.ndim - 1))
    np.maximum(k_omega + ur * (new - k_omega), floors, out=out[1:3])

    nu_t_new = _eddy_viscosity(out[1], out[2], dudy, f2)
    np.maximum(nu_t + ur * (nu_t_new - nu_t), 0.0, out=out[3])
    return ChannelState(state.re_tau, state.y_plus, out, dudy)


def _relative_change(old, new):
    """Largest change of U, k and omega from ``old`` to ``new`` in each
    row of a stack, each relative to the larger of 1 and its largest
    magnitude in the row of ``new``; the three in one pass over the
    first three rows of their iterates."""
    x = new.x[:3]
    d = np.abs(x - old.x[:3]).max(axis=-1) / np.abs(x).max(axis=-1, initial=1.0)
    # max, like np.maximum, keeps a NaN in any place
    return d.max(axis=0)


def _rows(a, rows, fields=()):
    """The rows ``rows`` (a list of indices) of a stack of arrays (n,)
    or (rows, n) behind the leading axes ``fields``: none, or the (4,)
    of an iterate (4, n) or (4, rows, n). A single row is a plain (n,)
    array, both ways: the same arithmetic costs more as two-dimensional
    ufunc calls, even on a (1, n) grid whose terms are (1, n) too. On a
    2-core x86 host a baseline ``_sweep`` at Re_tau 550 took 100.5 us as
    a (1, n) stack on such a grid against 96.5 us as (n,) arrays, and its
    ``_turbulence`` 44.4 against 43.1 us (best of 15 runs of 500 calls);
    whole baseline solves whose Picard sweeps ran that way took 1.021
    times as long at Re_tau 550 and 1.019 times at 180 (medians of 200
    interleaved pairs, slower in 150 and 140 of them)."""
    rows = list(rows)
    return a.reshape(fields + (-1, a.shape[-1]))[..., rows[0] if len(rows) == 1 else rows, :]


def _take(state, rows, fp=None):
    """The states of ``rows`` of a stack of states, as ``_rows``, on the
    Re_tau and nodes of ``fp``, the fixed point of those rows, or on the
    stack's own."""
    re_tau, y = (state.re_tau, state.y_plus) if fp is None else (fp.re_tau, fp.grid.y)
    return ChannelState(re_tau, y, _rows(state.x, rows, (4,)), _rows(state.dUdy_plus, rows))


def _stack(states, re_tau, y):
    """``states`` as the rows of one stack of states on Re_tau ``re_tau``
    and nodes ``y``; a single state as it is."""
    if len(states) == 1:
        return states[0]
    return ChannelState(re_tau, y, np.stack([state.x for state in states], axis=1),
                        np.stack([state.dUdy_plus for state in states]))


def solve(cfg: ChannelConfig, injection: StressInjection | None = None) -> ChannelState:
    """Converge the channel flow: the baseline closure, or with the
    perturbed/prescribed Reynolds stresses of ``injection`` in the
    momentum and production terms. Picard blocks, each followed by a
    Newton attempt, until Newton reaches the fixed point; SolverError
    when none does within ``max_iters`` sweeps. This is the one-row case
    of ``_solve_rows``."""
    (result,) = _solve_rows(cfg, [injection])
    if isinstance(result, SolverError):
        raise result
    return result


def solve_baselines(cfg: ChannelConfig, re_taus: list[float]) -> list:
    """The baseline of ``cfg`` at each of ``re_taus``, solved as the rows
    of one stack (``_solve_rows``). Returns, Re_tau by Re_tau, what
    ``_solve_rows`` returns: the state of ``solve(replace(cfg,
    re_tau=re_tau))``, the SolverError it raises, or None after the first
    row that fails."""
    return _solve_rows(cfg, [None] * len(re_taus), re_taus)


def _start(re_tau, cfg):
    """The grid of a solve at ``re_tau`` under ``cfg``, and its initial
    state."""
    grid = _Grid(make_grid(re_tau, cfg.n_cells, cfg.stretch))
    x = np.stack(_init_state(grid))
    return grid, ChannelState(re_tau, grid.y, x, grid.grad(x[0]))


def _solve_rows(cfg, injections, re_taus=None):
    """Solve the flow under each of ``injections`` (None for the baseline
    closure) as the rows of one stack, a state whose iterate is
    (4, rows, n) and its other arrays (rows, n). One row may be any
    solve; several rows are baseline rows alone, or at most one baseline
    row followed by the corners of one perturbation
    (``_FixedPoint.stack``). Row r is at Re_tau ``re_taus[r]``, by
    default cfg.re_tau; all rows share the n_cells, stretch and
    max_iters of ``cfg``.

    Each row is one ``_FixedPoint`` on its own (n,) grid, with its own
    relaxation factor and momentum form (``_FixedPoint.stack``). Each
    Picard sweep updates every row at once: one tridiagonal solve for
    momentum and one for k and omega together and, for several coupled
    rows, one evaluation of the coupled shear
    (``PerturbationInjection.stack``). The rows sweep on the (rows, n)
    stack of their grids, with 1/Re_tau per row. After each block one G
    evaluation of the stack gives every row its first F, then every row
    gets its own Newton attempt on its own grid, and a row that
    converges leaves the stack. A row's arithmetic is that of the row alone, so
    its state, residual history, Newton steps and error are those of a
    solve of that row by itself.

    Returns, row by row, the converged ChannelState or the SolverError
    that ended the row. A caller reports the first failing row, so the
    rows after one that fails stop there and are None.
    """
    re_taus = [cfg.re_tau] * len(injections) if re_taus is None else list(re_taus)
    starts = {re_tau: _start(re_tau, cfg) for re_tau in dict.fromkeys(re_taus)}
    rows = [_FixedPoint.under(*starts[re_tau], injection)
            for re_tau, injection in zip(re_taus, injections)]
    active = rows  # the rows on the stack, in order
    fp = _FixedPoint.stack(active)
    state = _stack([starts[re_tau][1] for re_tau in re_taus], fp.re_tau, fp.grid.y)
    minus_uv = fp.shear(state)
    sweeps = 0
    while active and sweeps < cfg.max_iters:
        for _ in range(min(PICARD_BLOCK, cfg.max_iters - sweeps)):
            if fp.injection is not None:
                # momentum under a given shear turns a shear error into a
                # dU/dy error of the same size, which an uncapped stress
                # answers with a gain of about nu_t: moving it by
                # 1 / (1 + nu_t) of its change is the implicit
                # eddy-viscosity update. A baseline row's shear is 0
                # and stays 0.
                m_new = fp.shear(state)
                gain = np.where(m_new < fp.cap, state.nu_t_plus, 0.0)
                relax = np.minimum(STRESS_RELAX, 1.0 / (1.0 + gain))
                minus_uv = minus_uv + relax * (m_new - minus_uv)
            state, change = _picard_sweep(state, minus_uv, fp, active)
            for row, value in zip(active, change):
                row.residuals.append(value)
            sweeps += 1
            if not all(map(math.isfinite, change)):
                cut = next(i for i, value in enumerate(change) if not math.isfinite(value))
                active[cut].result = SolverError(
                    f"NaN/Inf detected at iteration {sweeps - 1}", active[cut].residuals)
                # the rows after it no longer matter: a caller reports
                # this row or a failing one before it
                active, state, minus_uv, fp = _keep(range(cut), active, state, minus_uv)
                if not active:
                    break
        if not active:
            break
        # one G evaluation of the stack gives every row its first F
        at_x, shear, out = fp.sweep(state.x)
        for r, row in enumerate(active):
            row.attempt(_rows(state.x, [r], (4,)), (
                _take(at_x, [r], row), None if shear is None else _rows(shear, [r]),
                _take(out, [r], row)))
        going = [i for i, row in enumerate(active) if row.result is None]
        if len(going) < len(active):
            active, state, minus_uv, fp = _keep(going, active, state, minus_uv)
    for row in active:
        row.result = SolverError(f"no fixed point after {sweeps} Picard sweeps and "
                                 f"{row.newton_steps} Newton steps ({row.reason})", row.residuals)
    return [row.result for row in rows]


def _keep(places, active, state, minus_uv):
    """The stack cut down to the ``places`` of its rows ``active``: those
    rows, their state on their grid, their shear and their fixed point.
    Only coupled rows have a shear to cut: baseline rows, alone or left
    without their corners, sweep under none."""
    active = [active[i] for i in places]
    if not active:
        return active, state, minus_uv, None
    fp = _FixedPoint.stack(active)
    minus_uv = None if fp.injection is None else _rows(minus_uv, places)
    return active, _take(state, places, fp), minus_uv, fp


def _picard_sweep(state, minus_uv, fp, rows):
    """One relaxed sweep of every row of the stack ``state`` under the
    stacked fixed point ``fp``, on its grid, and the list of each row's
    relative change. A row that turns non-finite spreads through the
    stacked tridiagonal solves into every other row, so then each row is
    swept again alone, on its own grid, with its own relaxation factor
    and closure: those of its fixed point in ``rows``."""
    new = _sweep(fp.grid, state, minus_uv, fp.ur, fp.eddy)
    change = np.reshape(_relative_change(state, new), -1).tolist()
    if len(change) > 1 and not all(map(math.isfinite, change)):
        alone = [_sweep(row.grid, _take(state, [r], row),
                        None if row.injection is None else minus_uv[r], row.ur)
                 for r, row in enumerate(rows)]
        new = _stack(alone, state.re_tau, state.y_plus)
        change = _relative_change(state, new).tolist()
    return new, change


class _FixedPoint:
    """The map G on iterates x, the (4, ..., n) arrays of rows U, k,
    omega and nu_t that ChannelState keeps as ``x``: one fixed-stress
    sweep at ur = 1 under the shear of x; and the local residual R of the
    same discrete equations, which has the zeros of F = G(x) - x. The
    shear is None for the eddy-viscosity closure, that of a prescribed
    stress ``tau``, or that of a coupled ``injection`` evaluated at x and
    capped. ``ur`` is the relaxation factor of its Picard sweeps: 0.8
    under the eddy-viscosity closure, 0.5 under a stress.

    Each row of a solve is one fixed point, which also keeps the row's
    record and runs its damped Newton attempts on R in scaled variables
    z = x / scale. R couples nodes at most 2 apart, field by field as
    ``_REACH`` says, so with the unknowns ordered node by node (U, k,
    omega, nu_t of node 0, then of node 1, ...: the transpose of the
    (4, n) iterate) its Jacobian is banded, every entry within BAND = 9
    of the diagonal (k at node j reaches omega at j + 2: 4 * 2 + 1). The
    band is found exactly by forward differences along 16 colours, U of
    node i with omega of node i + 4 and k of node i with nu_t of node
    i + 4, each pair at the 8 node classes i mod 8 (Curtis, Powell &
    Reid, 1974): no two columns of one colour reach the same row. R and
    the 16 differences are one evaluation of R on the field-major
    (4, 17, n) stack of z and its 16 colour steps, each field
    contiguous."""

    def __init__(self, grid, re_tau, injection=None, tau=None):
        self.grid, self.re_tau, self.injection = grid, re_tau, injection
        self.tau = tau
        self.prescribed = None if tau is None else -tau[:, 0, 1]
        self.cap = 1.0 - grid.y / re_tau  # steady momentum bounds the turbulent shear
        self.ur = 0.8 if injection is None and tau is None else 0.5
        self.eddy = None  # the (rows, 1) mask of a stack's baseline row (see ``stack``)
        self.band_index, self.reached, self.colours = _band_tables(grid.y.shape[-1])
        self.residuals = []  # the relative change of each Picard sweep
        self.newton_steps = self.jacobians = 0  # of all attempts
        self.f = self.reason = self.result = None  # see ``attempt``
        self.factors = None  # the LU factors of the last direction, while an attempt keeps them

    @classmethod
    def under(cls, grid, start, injection):
        """The fixed point of a solve under ``injection`` that starts at
        the state ``start``."""
        if injection is None or injection.coupled:
            return cls(grid, start.re_tau, injection)
        # a prescribed stress is computed once, on the initial iterate
        return cls(grid, start.re_tau, tau=injection.compute(start))

    @classmethod
    def stack(cls, fps):
        """The fixed point of a stack whose row r is that of ``fps[r]``.
        One row is its own; several rows are baseline rows alone, or at
        most one baseline row followed by the corners of one perturbation
        (``PerturbationInjection.stack``), and sweep on the (rows, n)
        stack of their grids, with ``re_tau`` a (rows, 1) array.
        Each row keeps its relaxation factor, a (rows, 1) array when they
        differ, and a baseline row its closure, implicit eddy diffusion
        in momentum and nu_t dU/dy in production, where the (rows, 1)
        mask ``eddy`` holds."""
        if len(fps) == 1:
            return fps[0]
        first = fps[0]
        grid = _Grid(np.stack([fp.grid.y for fp in fps]))
        re_tau = np.array([[fp.re_tau] for fp in fps])
        baseline = first.injection is None
        coupled = [fp.injection for fp in (fps[1:] if baseline else fps)]
        stacked = cls(grid, re_tau, PerturbationInjection.stack(coupled) if any(coupled) else None)
        if baseline and stacked.injection is not None:
            stacked.ur = np.array([[fp.ur] for fp in fps])
            stacked.eddy = np.arange(len(fps))[:, None] == 0
        return stacked

    def shear(self, state):
        """The shear -u'v'* momentum uses at ``state``; 0 in the rows of
        a stack's baseline, whose momentum takes only its source from it."""
        if self.injection is None:
            return self.prescribed
        if self.eddy is None:
            return np.minimum(self.injection.shear(state), self.cap)
        # the coupled rows after the baseline's as views, one row as (n,)
        # arrays
        rows = 1 if len(state.U_plus) == 2 else slice(1, None)
        coupled = ChannelState(state.re_tau, state.y_plus, state.x[:, rows], state.dUdy_plus[rows])
        out = np.zeros(state.U_plus.shape)
        out[1:] = np.minimum(self.injection.shear(coupled), self.cap[rows])
        return out

    def state(self, x):
        """The state whose iterate is x."""
        return ChannelState(self.re_tau, self.grid.y, x, self.grid.grad(x[0]))

    def sweep(self, x):
        """G's evaluation at x: the state x, the shear momentum uses
        there, and G(x), the flow solved under that shear; each row of a
        stack under its own closure (``eddy``)."""
        state = self.state(x)
        minus_uv = self.shear(state)
        return state, minus_uv, _sweep(self.grid, state, minus_uv, 1.0, self.eddy)

    def local_residual(self, x):
        """R(x): A(x) phi - b(x) of the U, k and omega systems that a
        fixed-stress sweep solves, all assembled at x, and nu_t minus the
        eddy viscosity of x; laid out as x is, each part written into its
        row. k and omega are the rows 1:3 of x, so their system is
        assembled and applied as one stack, with no copy.
        Row i of each part depends on nodes i-2 to i+2 only."""
        grid, state = self.grid, self.state(x)
        dudy, k_omega = state.dUdy_plus, x[1:3]
        minus_uv = self.shear(state)
        gamma_u, src_u = _momentum(grid, state, minus_uv)
        systems, f2 = _turbulence(grid, k_omega, x[3], dudy, minus_uv)
        r = np.empty(x.shape)
        _transport_residual(grid, x[0], gamma_u, grid.no_sink, src_u, 0.0, out=r[0])
        _transport_residual(grid, k_omega, *systems, out=r[1:3])
        np.subtract(x[3], _eddy_viscosity(k_omega[0], k_omega[1], dudy, f2), out=r[3])
        return r

    def converged(self, g):
        """The reported state at the fixed point x of G's evaluation
        ``g`` there (``sweep``), with the row's record: the flow solved
        under the stress at x, with the shear momentum used there and the
        stress itself; a coupled stress also reports how far the one
        recomputed from that flow is from it."""
        at_x, minus_uv, out = g
        consistency = None
        if self.injection is not None:
            consistency = float(np.max(np.abs(self.shear(out) - minus_uv)))
            tau = self.injection.compute(at_x)
        elif self.tau is not None:
            tau = self.tau
        else:
            minus_uv = out.nu_t_plus * out.dUdy_plus
            tau = tensors.boussinesq(out.k_plus, out.nu_t_plus, out.dUdy_plus)
        return replace(out, minus_uv_plus=minus_uv, tau=tau, residual_history=self.residuals,
                       newton_steps=self.newton_steps, jacobians=self.jacobians,
                       fixed_point_residual=float(self.f),
                       stress_consistency=consistency)

    def direction(self, z):
        """The full Newton step -J^-1 R at z, (4, n). R at z and its 16
        colour steps is one evaluation on their (4, 17, n) stack, scaled
        in place. The band of J = dR/dz, node-major (the transpose of
        (4, n)), goes straight into the (3 BAND + 1, 4n) storage of
        LAPACK's gbtrf, which holds J[i, j] in row 2 BAND + i - j of
        column j and the fill-in of its pivoting in the BAND rows above,
        and factors it in place; the factors are kept as ``factors`` for
        ``chord``, and the step is their gbtrs solve, gbsv's step bit for
        bit. np.linalg.LinAlgError when J is singular."""
        self.factors = None  # a row holds one band at a time
        h = 1.5e-8 * np.maximum(np.abs(z), 1e-8)
        x = np.empty((4, _COLOURS + 1, z.shape[-1]))
        x[:, 0] = z
        np.add(z[:, None], self.colours * h[:, None], out=x[:, 1:])
        r = self.local_residual(np.multiply(x, self.scale[:, None], out=x))
        # the storage in Fortran order, which gbtrf factors in place:
        # column j of the band is row j of ``band``
        band = np.zeros((z.size, 3 * BAND + 1))
        band.ravel()[self.band_index] = (r[:, 1:] - r[:, :1]).ravel()[self.reached]
        # each column's differences over its step; 0 stays 0
        band[:, BAND:] /= h.T.reshape(-1, 1)
        lu, pivots, info = _GBTRF(band.T, BAND, BAND, overwrite_ab=1)
        if info > 0:
            raise np.linalg.LinAlgError(f"singular matrix (LAPACK gbtrf info={info})")
        self.factors = lu, pivots
        return self._solve(r[:, 0])

    def chord(self, z):
        """The chord step -J0^-1 R at z, (4, n): R on the one state z,
        solved with the factors of J0, the Jacobian of the last
        ``direction``."""
        return self._solve(self.local_residual(z * self.scale))

    def _solve(self, r):
        """-J^-1 r for a (4, n) residual r, by gbtrs on ``factors``: r
        in node-major order and the step back, as transposes."""
        lu, pivots = self.factors
        dz, _ = _GBTRS(lu, BAND, BAND, -r.T.ravel(), pivots, overwrite_b=1)
        return dz.reshape(-1, 4).T

    def scaled_f(self, x, g=None):
        """The scaled max-norm of F at x, and G's evaluation there
        (``sweep``), unless it is given as ``g``."""
        g = self.sweep(x) if g is None else g
        return np.max(np.abs((g[2].x - x) / self.scale)), g

    def _admissible(self, z, dz):
        """The iterate of the step dz from z, with k and nu_t 0 at the
        wall, if k >= 0 and nu_t >= 0 off the wall and omega > 0 at every
        node hold there; None otherwise."""
        x_new = (z + dz) * self.scale
        x_new[1, 0] = x_new[3, 0] = 0.0
        if np.all(x_new[1::2, 1:] >= 0.0) and np.all(x_new[2] > 0.0):
            return x_new
        return None

    def attempt(self, x, g):
        """Newton from x, a (4, n) state, and ``g``, G's evaluation there
        (``sweep``). While the factors of a fresh step are kept, a step
        first tries the chord step on them (``chord``): taken at full
        length if the iterate is admissible (``_admissible``) and the
        scaled max-norm of F falls to CHORD_CONTRACTION of its value;
        otherwise discarded, uncounted. A fresh step evaluates J afresh,
        solves J dz = -R and halves dz until the iterate is admissible
        and the scaled F falls; a halved step drops the factors, and so
        does the attempt's end.

        Adds its steps to ``newton_steps``, its Jacobian evaluations to
        ``jacobians``, and ends at scaled F ``f``: with ``result`` the
        converged state and the row's record where that reached
        NEWTON_TOL, or with ``reason`` saying why it did not (a row that
        fails holds its SolverError in ``result``).
        """
        self.scale = _scale(x)
        self.f, g = self.scaled_f(x, g)
        step = 0
        while not self.f <= NEWTON_TOL:  # a NaN F, too, goes on to a step
            if step == NEWTON_STEPS:
                self.reason = f"Newton stopped at scaled F {self.f:.3e} after {NEWTON_STEPS} steps"
                break
            step += 1
            z = x / self.scale
            if self.factors is not None:
                x_new = self._admissible(z, self.chord(z))
                if x_new is not None:
                    f_new, g_new = self.scaled_f(x_new)
                    if f_new <= CHORD_CONTRACTION * self.f:
                        x, self.f, g = x_new, f_new, g_new
                        continue
            self.jacobians += 1
            try:
                dz = self.direction(z)
            except np.linalg.LinAlgError:
                self.reason = f"singular Jacobian at Newton step {step}"
                break
            for halvings in range(40):  # down to a step of 1e-12 dz
                x_new = self._admissible(z, dz)
                if x_new is not None:
                    f_new, g = self.scaled_f(x_new)
                    if f_new < self.f:
                        break
                dz = 0.5 * dz
            else:
                self.reason = f"no Newton step lowers the scaled F {self.f:.3e} at step {step}"
                break
            if halvings:
                self.factors = None
            x, self.f = x_new, f_new
        self.factors = None
        self.newton_steps += step
        if self.f <= NEWTON_TOL:
            self.result = self.converged(g)


def _scale(x):
    """The scale of each field of an iterate (4, n), as a (4, 1)
    array: the larger of 1 and the field's largest magnitude."""
    return np.maximum(1.0, np.abs(x).max(axis=-1, keepdims=True))


@functools.lru_cache(maxsize=4)
def _band_tables(n):
    """The index tables of the Newton attempts of ``_FixedPoint`` on n
    nodes, built once per grid size: the flat place of every reached
    entry (column node i, field f; row node i + d, field g,
    |d| <= _REACH[f, g]) in gbtrf's band storage laid out column by
    column, columns node-major (column 4 i + f), in the order of the
    entries of the (4, 16, n) colour differences, row field first, that
    hold them; which of those entries are reached; and the 16 colours'
    columns, a (4, 16, n) mask. Only reached entries are kept:
    a difference entry outside one column's reach may hold the entry of
    the other field of its colour. Each table holds one entry per
    reached entry at most, so the tables of the default grid's 192 nodes
    take 99,488 bytes (``nbytes``)."""
    colour = _COLOUR_BASE[:, None] + (np.arange(n) - _COLOUR_SHIFT[:, None]) % 8  # (4, n)
    # each reached entry's band place at its difference entry, read back
    # in the order of the differences; one node range at a time, so no
    # temporary outgrows the tables
    band = np.empty(_COLOURS * 4 * n, dtype=np.intp)
    reached = np.zeros(band.shape, dtype=bool)
    for (f, g), r in np.ndenumerate(_REACH):
        for d in range(-r, r + 1):
            i = np.arange(max(0, -d), n - max(0, d))  # the nodes with i + d inside
            difference = (g * _COLOURS + colour[f, i]) * n + i + d
            reached[difference] = True
            band[difference] = (4 * i + f) * (3 * BAND + 1) + 2 * BAND + 4 * d + g - f
    colours = colour[:, None] == np.arange(_COLOURS)[:, None]
    tables = band[reached], reached, colours
    for table in tables:
        table.flags.writeable = False
    return tables


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
    state's stress; NaN at degenerate near-laminar nodes. They read the
    anisotropy eigenvalues alone (``tensors.anisotropy_eigenvalues``),
    not the eigenvector frames."""
    lam, degenerate = tensors.anisotropy_eigenvalues(state.tau)
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


def corner_injections(mode, delta_b=None, targets=None) -> dict[str, PerturbationInjection]:
    """The injection of each corner slot 1C/2C/3C for one uq mode.

    Modes that take no corner get one shared instance in all three
    slots. Every argument is checked here, before any solve.
    """
    if "corner" in PerturbationInjection.TAKES.get(mode, ()):
        return {
            c: PerturbationInjection(mode, corner=c, delta_b=delta_b, targets=targets)
            for c in CORNER_SLOTS
        }
    shared = PerturbationInjection(mode, delta_b=delta_b, targets=targets)
    return dict.fromkeys(CORNER_SLOTS, shared)


def uq_envelope(cfg: ChannelConfig, injections: dict[str, PerturbationInjection],
                baseline: ChannelState | None = None) -> Envelope:
    """Solve the distinct corners of one perturbation, after the baseline
    unless it is given, as the rows of one stack (``_solve_rows``) under
    ``cfg``, and collect the per-node min/max velocity envelope.

    ``injections`` maps each corner slot to a PerturbationInjection
    (ValueError before any solve otherwise) as ``corner_injections``
    builds them: slots sharing one instance share one row and its state,
    and distinct instances differ in their corner alone. The baseline's
    and every corner's state is that of its own ``solve``. A failing
    baseline raises the SolverError of ``solve(cfg)``; when corners
    fail, the SolverError names the first failing slot and carries its
    residual history, as solving the baseline and then the slots in
    order would.
    """
    for corner, injection in injections.items():
        if not isinstance(injection, PerturbationInjection):
            raise ValueError(f"corner {corner}: {type(injection).__name__} is no perturbation")
    rows = list({id(injection): injection for injection in injections.values()}.values())
    if baseline is None:
        baseline, *solved = _solve_rows(cfg, [None] + rows)
        if isinstance(baseline, SolverError):
            raise baseline
    else:
        solved = _solve_rows(cfg, rows)
    solved = dict(zip(map(id, rows), solved))
    states = {}
    for corner, injection in injections.items():
        state = solved[id(injection)]
        if isinstance(state, SolverError):
            raise SolverError(f"corner {corner} failed: {state}", state.residual_history) from state
        states[corner] = state
    profiles = np.vstack([baseline.U_plus] + [s.U_plus for s in states.values()])
    return Envelope(
        baseline=baseline,
        corner_states=states,
        U_min=profiles.min(axis=0),
        U_max=profiles.max(axis=0),
    )
