"""Surface-area measures, Minkowski-type problems, and their obstructions.

The (p, k) surface-area measure has density phi^{-p-k} p_{n-k}(A[phi])
against the sphere measure; the prescription problem asks for phi with
that density equal to a given positive f.  Ball solutions for constant
f reduce to a scalar equation classified below; the Kazdan-Warner type
identities give necessary conditions at the critical exponent p = -n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hconvex import SupportField, a_eigenvalues, p_tensor, plus_identity
from .quermass import bracketed_newton
from .sphere_grid import Grid, derivatives, frame_vectors, gradient, integrate

__all__ = [
    "KWReport",
    "BallSolutionReport",
    "AssumptionHReport",
    "measure_density",
    "mixed_quermass",
    "J_p",
    "pde_residual",
    "kw_residual",
    "ball_solutions",
    "check_assumption_h",
    "validate_f",
    "ROOT_RESIDUAL_TOL",
    "ASSUMPTION_TIE_TOL",
]

ROOT_RESIDUAL_TOL = 1e-12
ASSUMPTION_TIE_TOL = 1e-10
GAMMA0_MATCH_TOL = 1e-13


@dataclass
class KWReport:
    coordinate_integrals: tuple[float, ...]  # int phi^{-n} <Df, Dx_i> dsigma
    general_identity_residual: float  # | int (Dphi/phi + z) phi^{-k} p_{n-k}(A) dsigma |


@dataclass
class BallSolutionReport:
    case: str
    n: int
    k: int
    p: float
    gamma: float
    gamma0: float | None  # stationary value, defined for p > n - 2k
    t0: float | None  # stationary point of zeta, defined for p > n - 2k
    c_values: list[float]  # phi = c for each centered-ball solution
    radii: list[float]
    residuals: list[float]  # |zeta(c) - gamma|


@dataclass
class AssumptionHReport:
    passes: bool
    regime: int
    worst_node: int
    worst_eigenvalue: float


def validate_f(f: np.ndarray, grid: Grid) -> np.ndarray:
    """f as a node array of the grid; ValueError unless finite and positive."""
    f = np.asarray(f, dtype=float)
    if f.shape != (grid.size,):
        raise ValueError(f"f has shape {f.shape}, grid has {grid.size} nodes")
    # One pass each for min and max; NaN propagates into both.
    if not (0.0 < f.min() and f.max() < math.inf):
        raise ValueError("f must be finite and positive everywhere")
    return f


def measure_density(K: SupportField, p: float, k: int) -> np.ndarray:
    """Density of dS_{p,k}(K, .) against dsigma: phi^{-p-k} p_{n-k}(A)."""
    n = K.grid.n
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in 0..{n}, got {k}")
    return K.phi ** (-(p + k)) * p_tensor(K.A, n - k)


def mixed_quermass(K: SupportField, L: SupportField, p: float, k: int) -> float:
    """W_{p,k}(K, L) = (1/p) int phi_L^p dS_{p,k}(K, .)."""
    if not (0.5 <= p <= 2.0):
        raise ValueError(f"mixed quermass is defined for p in [1/2, 2], got {p}")
    if K.grid != L.grid:
        raise ValueError("mixed_quermass requires a common grid")
    return integrate(K.grid, L.phi**p * measure_density(K, p, k)) / p


def J_p(K: SupportField, f, p: float) -> float:
    """Flow functional (1/p) int f phi^p dsigma, or int f log(phi) at p = 0."""
    f = validate_f(f, K.grid)
    if p == 0.0:
        return integrate(K.grid, f * np.log(K.phi))
    return integrate(K.grid, f * K.phi**p) / p


def pde_residual(K: SupportField, f, p: float, k: int) -> tuple[np.ndarray, float]:
    """Residual field phi^{-p-k} p_{n-k}(A[phi]) - f and its sup norm."""
    f = validate_f(f, K.grid)
    field = measure_density(K, p, k) - f
    return field, float(np.max(np.abs(field)))


def kw_residual(K: SupportField, f, k: int) -> KWReport:
    """Kazdan-Warner type obstructions evaluated on (K, f).

    Coordinate integrals int phi^{-n} <Df, Dx_i> dsigma for the n+1
    ambient coordinates (all vanish for solutions at p = -n), and the
    norm of int (Dphi/phi + z) phi^{-k} p_{n-k}(A[phi]) dsigma, which
    vanishes for every h-convex field and every k.
    """
    grid = K.grid
    n = grid.n
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in 0..{n}, got {k}")
    f = validate_f(f, grid)
    g_f = gradient(grid, f)
    weight = K.phi ** (-float(n))
    coords = []
    for i in range(n + 1):
        g_x = gradient(grid, grid.nodes[:, i])
        pairing = np.sum(g_f * g_x, axis=1)
        coords.append(integrate(grid, weight * pairing))
    frames = frame_vectors(grid)
    grad_ambient = np.einsum("ia,iac->ic", K.gradient, frames)
    vec_field = grad_ambient / K.phi[:, None] + grid.nodes
    density = K.phi ** (-float(k)) * p_tensor(K.A, n - k)
    residual_vec = np.array(
        [integrate(grid, vec_field[:, i] * density) for i in range(n + 1)]
    )
    return KWReport(tuple(coords), float(np.linalg.norm(residual_vec)))


# ---------------------------------------------------------------------------
# centered-ball solutions for constant data


def _zeta(c: float, n: int, k: int, p: float) -> float:
    return c ** (-(p + k)) * (0.5 * (c - 1.0 / c)) ** (n - k)


def _zeta_log_derivative(c: float, n: int, k: int, p: float) -> float:
    return -(p + k) / c + (n - k) * (1.0 + 1.0 / (c * c)) / (c - 1.0 / c)


def _bracketed_root(lo: float, hi: float, n: int, k: int, p: float, gamma: float) -> float:
    return bracketed_newton(
        lambda c: _zeta(c, n, k, p) - gamma,
        lambda c: _zeta(c, n, k, p) * _zeta_log_derivative(c, n, k, p),
        lo,
        hi,
    )


def ball_solutions(n: int, k: int, p: float, gamma: float) -> BallSolutionReport:
    """Centered balls phi = c solving phi^{-p-k} p_{n-k}(A) = gamma.

    The scalar equation is zeta(c) = c^{-p-k} ((c - 1/c)/2)^{n-k} = gamma
    on c > 1.  For p > n - 2k, zeta increases to gamma_0 at
    t_0 = sqrt((n+p)/(2k+p-n)) and then decreases: two roots bracketing
    t_0 when gamma < gamma_0, one at gamma = gamma_0, none above.  For
    p = n - 2k there is one root iff gamma < 2^{k-n}; for -n < p < n - 2k
    always exactly one; at p = -n every center works and the radius is
    determined by gamma alone.  For k = 0 and p < -n,
    zeta = c^{-p} ((c - 1/c)/2)^n still increases onto (0, inf), so there
    is exactly one root; for k >= 1, p < -n lies outside the problem's
    range and is rejected.
    """
    if n not in (1, 2) or not 0 <= k <= n:
        raise ValueError(f"invalid (n, k) = ({n}, {k})")
    if p < -n and k > 0:
        raise ValueError(f"p must be at least -n = {-n} for k >= 1, got {p}")
    if gamma <= 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if k == n:
        raise ValueError("k = n leaves no curvature factor; no ball equation")

    def report(case, cs, gamma0=None, t0=None):
        cs = [float(c) for c in cs]
        return BallSolutionReport(
            case=case,
            n=n,
            k=k,
            p=p,
            gamma=gamma,
            gamma0=gamma0,
            t0=t0,
            c_values=cs,
            radii=[math.log(c) for c in cs],
            residuals=[abs(_zeta(c, n, k, p) - gamma) for c in cs],
        )

    if p == -n:
        c = math.sqrt(1.0 + 2.0 * gamma ** (1.0 / (n - k)))
        return report("any-center", [c])
    if p > n - 2 * k:
        t0 = math.sqrt((n + p) / (2 * k + p - n))
        gamma0 = (
            (2 * k + p - n) ** ((2 * k + p - n) / 2.0)
            * (n - k) ** (n - k)
            / (n + p) ** ((n + p) / 2.0)
        )
        if abs(gamma - gamma0) <= GAMMA0_MATCH_TOL * max(1.0, gamma0):
            return report("unique-critical", [t0], gamma0, t0)
        if gamma > gamma0:
            return report("none", [], gamma0, t0)
        lo = t0
        while _zeta(lo, n, k, p) > gamma:
            lo = 1.0 + 0.5 * (lo - 1.0)
        hi = t0
        while _zeta(hi, n, k, p) > gamma:
            hi = 1.0 + 2.0 * (hi - 1.0)
        c1 = _bracketed_root(lo, t0, n, k, p, gamma)
        c2 = _bracketed_root(t0, hi, n, k, p, gamma)
        return report("two-roots", [c1, c2], gamma0, t0)
    if p == n - 2 * k:
        # zeta increases to the limit 2^{k-n} as c -> infinity.
        limit = 2.0 ** (k - n)
        if gamma >= limit:
            return report("none-limit", [])
        hi = 2.0
        while _zeta(hi, n, k, p) < gamma:
            hi *= 2.0
        return report("unique", [_bracketed_root(1.0 + 1e-14, hi, n, k, p, gamma)])
    # -n < p < n - 2k, or k = 0 and p < -n: zeta is increasing and onto
    # (0, inf).
    hi = 2.0
    while _zeta(hi, n, k, p) < gamma:
        hi *= 2.0
    return report("unique", [_bracketed_root(1.0 + 1e-14, hi, n, k, p, gamma)])


# ---------------------------------------------------------------------------
# structural condition on the data for 1 <= k <= n-1 flows


def check_assumption_h(f, grid: Grid, n: int, k: int, p: float) -> AssumptionHReport:
    """Convexity-type condition on h = f^{-1/(n-k)} for the k-flow data.

    Five regimes in p >= -n; passes when the worst eigenvalue of the
    regime's tensor is >= -1e-10 (ties at zero pass).  At p = -n the
    condition is that h is constant.
    """
    if n < 2 or not 1 <= k <= n - 1:
        raise ValueError(f"assumption applies for n >= 2, 1 <= k <= n-1, got ({n}, {k})")
    if grid.n != n:
        raise ValueError(f"grid lives on S^{grid.n}, data needs S^{n}")
    if p < -n:
        raise ValueError(f"p must be at least -n = {-n}, got {p}")
    f = validate_f(f, grid)
    h = f ** (-1.0 / (n - k))
    if p == -n:
        mean = float(np.mean(h))
        dev = np.abs(h - mean) / max(1.0, abs(mean))
        node = int(np.argmax(dev))
        worst = -float(dev[node])
        return AssumptionHReport(worst >= -ASSUMPTION_TIE_TOL, 1, node, worst)
    if p <= -(n + k) / 2.0:
        regime = 2
        base = h
        c_grad = (n - 3 * k - 2 * p) / (n - k)
        c_zero = ((n + p) / (n - k)) ** 2
        grad_term_power = 1  # |Dh|, not squared
    elif p < -k:
        regime = 3
        base = h
        c_grad = (n - 3 * k - 2 * p) ** 2 / (2.0 * (n + p) * (n + k + 2 * p))
        c_zero = 0.5 * (n + p) / (n - k)
        grad_term_power = 2
    else:
        regime = 4 if p <= n - 2 * k else 5
        base = h ** ((n - k) / (n + p))
        c_grad = 0.5
        c_zero = 0.5 if regime == 4 else (n - k) / (n + p)
        grad_term_power = 2
    g, H = derivatives(grid, base)
    grad_sq = np.sum(g * g, axis=1)
    if grad_term_power == 1:
        grad_term = c_grad * np.sqrt(grad_sq)
    else:
        grad_term = c_grad * grad_sq / base
    eig_min = a_eigenvalues(plus_identity(H, -grad_term + c_zero * base))[:, 0]
    node = int(np.argmin(eig_min))
    worst = float(eig_min[node])
    scale = max(1.0, float(np.max(np.abs(base))))
    return AssumptionHReport(worst >= -ASSUMPTION_TIE_TOL * scale, regime, node, worst)
