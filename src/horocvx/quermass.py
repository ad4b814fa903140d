"""Modified quermassintegrals, Steiner formulas, and weighted volume.

W_k is evaluated by integrating its first variation along the support
homotopy phi_t = (1 - t) + t phi from the origin point to the body,
with Gauss-Legendre quadrature in t; the k = n case has the closed form
(1/n) int (1 - phi^{-n}) dsigma used as a cross-check.  The nodes on
[0, 1] are cached per order, the t-nodes are evaluated together in
array passes of bounded size from a single gradient and Hessian, and
each node's sphere integral is a compensated sum, as is their weighted
total.  I_k(r) is the k-th
quermass of the centered ball of radius r.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .hconvex import SupportField, boundary_data
from .sphere_grid import Grid, integrate, sphere_area

__all__ = [
    "QuermassReport",
    "SteinerReport",
    "WeightedSteinerReport",
    "MinkowskiResiduals",
    "I_k",
    "I_k_inverse",
    "curvature_integral",
    "modified_quermass",
    "k_mean_radius",
    "weighted_volume",
    "S_functional",
    "steiner_check",
    "weighted_steiner_check",
    "minkowski_formula_residuals",
    "HOMOTOPY_ORDER",
    "HOMOTOPY_CROSS_TOL",
    "p_tensor",
]

HOMOTOPY_ORDER = 32
HOMOTOPY_MAX_ORDER = 256
HOMOTOPY_CROSS_TOL = 1e-9
# Values per array pass of the homotopy (t-nodes times grid nodes): the
# flow grids at order 32 fit in one pass.  64 KiB temporaries stay well
# under glibc's 128 KiB mmap threshold, so they reuse heap memory.
HOMOTOPY_BLOCK = 8192
CONSTANT_FIELD_TOL = 1e-13
QUAD_KW = dict(epsabs=1e-14, epsrel=1e-13, limit=200)


@dataclass
class QuermassReport:
    k: int
    value: float
    method: str  # homotopy | closed-form-k=n | ball-closed-form
    est_error: float


@dataclass
class SteinerReport:
    rho: float
    residuals: list[float]  # index k = 0..n, shifted expansion
    classical_residual: float  # k = 0 expansion in the true curvatures
    scale: float


@dataclass
class WeightedSteinerReport:
    rho: float
    residual_integral_form: float
    residual_closed_form: float
    scale: float


@dataclass
class MinkowskiResiduals:
    classical: list[float]  # m = 0..n-1
    shifted: list[float]


# ---------------------------------------------------------------------------
# symmetric function helpers on pointwise eigenvalue arrays (size, n)


def p_normalized(eigs: np.ndarray, m: int) -> np.ndarray:
    """Normalized elementary symmetric p_m = sigma_m / C(n, m)."""
    n = eigs.shape[1]
    if m == 0:
        return np.ones(eigs.shape[0])
    if n == 1:
        if m == 1:
            return eigs[:, 0]
    else:
        if m == 1:
            return 0.5 * (eigs[:, 0] + eigs[:, 1])
        if m == 2:
            return eigs[:, 0] * eigs[:, 1]
    raise ValueError(f"p_{m} undefined for {n} eigenvalues")


def sigma_elementary(eigs: np.ndarray, m: int) -> np.ndarray:
    """Unnormalized elementary symmetric sigma_m."""
    return p_normalized(eigs, m) * math.comb(eigs.shape[1], m)


def p_tensor(A: np.ndarray, m: int) -> np.ndarray:
    """p_m of the eigenvalues of pointwise symmetric forms, via invariants."""
    n = A.shape[1]
    if m == 0:
        return np.ones(A.shape[0])
    if n == 1:
        if m == 1:
            return A[:, 0, 0]
    else:
        if m == 1:
            return 0.5 * (A[:, 0, 0] + A[:, 1, 1])
        if m == 2:
            return A[:, 0, 0] * A[:, 1, 1] - A[:, 0, 1] ** 2
    raise ValueError(f"p_{m} undefined for {n}x{n} forms")


# ---------------------------------------------------------------------------
# ball quermass I_k and its inverse


def I_k(n: int, k: int, r: float) -> float:
    """Modified k-quermass of the centered geodesic ball of radius r."""
    if n not in (1, 2) or not 0 <= k <= n:
        raise ValueError(f"invalid (n, k) = ({n}, {k})")
    if r < 0.0:
        raise ValueError(f"radius must be nonnegative, got {r}")
    omega = sphere_area(n)
    if k == n:
        return (omega / n) * -math.expm1(-n * r)
    if r == 0.0:
        return 0.0
    from scipy.integrate import quad

    val, _ = quad(lambda t: math.sinh(t) ** (n - k) * math.exp(-k * t), 0.0, r, **QUAD_KW)
    return omega * val


def _I_k_derivative(n: int, k: int, r: float) -> float:
    return sphere_area(n) * math.sinh(r) ** (n - k) * math.exp(-k * r)


def I_k_inverse(n: int, k: int, w: float) -> float:
    """Radius r with I_k(n, k, r) = w, to 1e-12."""
    if w < 0.0:
        raise ValueError(f"quermass value must be nonnegative, got {w}")
    if w == 0.0:
        return 0.0
    omega = sphere_area(n)
    if k == n:
        if w >= omega / n:
            raise ValueError(f"I_n is bounded by {omega / n}, got {w}")
        return -math.log1p(-n * w / omega) / n
    r_hi = 1.0
    while I_k(n, k, r_hi) < w:
        r_hi *= 2.0
        if r_hi > 512.0:
            raise ValueError(f"no radius found for quermass value {w}")
    from scipy.optimize import brentq

    r = brentq(lambda t: I_k(n, k, t) - w, 0.0, r_hi, xtol=1e-15, rtol=8.9e-16)
    for _ in range(2):
        d = _I_k_derivative(n, k, r)
        if d > 0.0:
            r -= (I_k(n, k, r) - w) / d
    return float(r)


# ---------------------------------------------------------------------------
# curvature integrals and the homotopy evaluation of W_k


def curvature_integral(K: SupportField, m: int) -> float:
    """int p_m(shifted curvature) dmu = int phi^{-m} p_{n-m}(A[phi]) dsigma."""
    n = K.grid.n
    if not 0 <= m <= n:
        raise ValueError(f"m must lie in 0..{n}, got {m}")
    return integrate(K.grid, K.phi ** (-m) * p_tensor(K.A, n - m))


@functools.lru_cache(maxsize=None)
def _unit_gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1], read-only."""
    from scipy.special import roots_legendre

    x, wts = roots_legendre(order)
    ts = 0.5 * (x + 1.0)
    wts = 0.5 * wts
    ts.flags.writeable = False
    wts.flags.writeable = False
    return ts, wts


def _homotopy_value(K: SupportField, k: int, order: int, g=None, H=None) -> float:
    """Gauss-Legendre evaluation of the homotopy integral for W_k.

    g and H default to K's cached gradient and Hessian.  The t-nodes are
    evaluated in blocks of (rows, size) arrays, with p_{n-k}(A_t) built
    from the entries of A_t = t H + shift_t I.  Each node's integral is
    one compensated sum, and the weighted node integrals are summed
    compensated again.
    """
    grid, phi = K.grid, K.phi
    n = grid.n
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in 0..{n}, got {k}")
    if g is None or H is None:
        g, H = K.gradient, K.hessian
    grad_sq = np.sum(g * g, axis=1)
    ts, wts = _unit_gauss_legendre(order)
    dphi = phi - 1.0
    m = n - k
    rows = max(1, HOMOTOPY_BLOCK // grid.size)
    sums = []
    for start in range(0, order, rows):
        t = ts[start : start + rows, None]
        phit = 1.0 + t * dphi
        qt = 0.5 * t * t * grad_sq / phit
        shift = -qt + 0.5 * (phit - 1.0 / phit)
        if m == 0:
            pm = np.ones(phit.shape)
        elif n == 1:
            pm = t * H[:, 0, 0] + shift
        else:
            a = t * H[:, 0, 0] + shift
            d = t * H[:, 1, 1] + shift
            pm = 0.5 * (a + d) if m == 1 else a * d - (t * H[:, 0, 1]) ** 2
        field = (dphi / phit) * phit ** (-float(k)) * pm
        sums.extend(math.fsum(row.tolist()) for row in grid.weights * field)
    return math.fsum((wts * np.array(sums)).tolist())


def _closed_form_k_n(K: SupportField) -> float:
    n = K.grid.n
    return (1.0 / n) * integrate(K.grid, 1.0 - K.phi ** (-float(n)))


def modified_quermass(K: SupportField, k: int) -> QuermassReport:
    """Modified quermassintegral W_k of an h-convex support field."""
    grid, phi = K.grid, K.phi
    n = grid.n
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in 0..{n}, got {k}")
    c = float(phi[0])
    if np.max(np.abs(phi - c)) <= CONSTANT_FIELD_TOL * max(1.0, c):
        if c < 1.0 - 1e-12:
            raise ValueError(f"constant field phi = {c} < 1 is not h-convex")
        r = max(math.log(c), 0.0)
        return QuermassReport(k, I_k(n, k, r), "ball-closed-form", 1e-15)
    closed_n = _closed_form_k_n(K)
    order = HOMOTOPY_ORDER
    while True:
        cross = abs(_homotopy_value(K, n, order) - closed_n)
        if cross <= HOMOTOPY_CROSS_TOL * max(1.0, abs(closed_n)):
            break
        if order >= HOMOTOPY_MAX_ORDER:
            break
        order *= 2
    if k == n:
        return QuermassReport(k, closed_n, "closed-form-k=n", cross)
    value = _homotopy_value(K, k, order)
    return QuermassReport(k, value, "homotopy", cross)


def k_mean_radius(K: SupportField, k: int) -> float:
    """Radius of the centered ball with the same W_k."""
    return I_k_inverse(K.grid.n, k, modified_quermass(K, k).value)


# ---------------------------------------------------------------------------
# weighted volume


def weighted_volume(K: SupportField) -> float:
    """Vol_w = int_Omega cosh r dv = (1/(n+1)) int u~ dmu."""
    bd = boundary_data(K)
    return integrate(K.grid, bd.u_tilde * bd.area_density) / (K.grid.n + 1)


def S_functional(K: SupportField) -> float:
    """S = ((n+1) Vol_w / omega_n)^{1/(n+1)}; equals sinh(r) for a
    centered ball and x_{n+1}^{1/(n+1)} sinh(r) for a ball at (x, x_{n+1})."""
    n = K.grid.n
    vw = weighted_volume(K)
    return ((n + 1) * vw / sphere_area(n)) ** (1.0 / (n + 1))


# ---------------------------------------------------------------------------
# Steiner formulas


def steiner_check(K: SupportField, rho: float) -> SteinerReport:
    """Residuals of the Steiner expansions of W_k under rho-enlargement.

    Shifted form for every k, plus the classical volume expansion in the
    true principal curvatures for k = 0.
    """
    if rho <= 0.0:
        raise ValueError(f"rho must be positive, got {rho}")
    from scipy.integrate import quad

    grid = K.grid
    n = grid.n
    bd = boundary_data(K)
    kappa = 1.0 + bd.kappa_tilde
    K_rho = SupportField(grid, math.exp(rho) * K.phi)
    W = [modified_quermass(K, k).value for k in range(n + 1)]
    W_rho = [modified_quermass(K_rho, k).value for k in range(n + 1)]
    CI = [curvature_integral(K, i) for i in range(n + 1)]
    residuals = []
    scale = 1.0
    for k in range(n + 1):
        rhs = 0.0
        for i in range(k, n + 1):
            t_int, _ = quad(
                lambda t, i=i: math.exp((n - k - i) * t) * math.sinh(t) ** (i - k),
                0.0,
                rho,
                **QUAD_KW,
            )
            rhs += math.comb(n - k, i - k) * CI[i] * t_int
        lhs = W_rho[k] - W[k]
        residuals.append(lhs - rhs)
        scale = max(scale, abs(lhs), abs(rhs))
    rhs_classical = 0.0
    for i in range(n + 1):
        si = integrate(grid, sigma_elementary(kappa, i) * bd.area_density)
        t_int, _ = quad(
            lambda t, i=i: math.cosh(t) ** (n - i) * math.sinh(t) ** i,
            0.0,
            rho,
            **QUAD_KW,
        )
        rhs_classical += si * t_int
    classical_residual = (W_rho[0] - W[0]) - rhs_classical
    scale = max(scale, abs(rhs_classical))
    return SteinerReport(rho, residuals, classical_residual, scale)


def weighted_steiner_check(K: SupportField, rho: float) -> WeightedSteinerReport:
    """Residuals of both weighted Steiner forms under rho-enlargement."""
    if rho <= 0.0:
        raise ValueError(f"rho must be positive, got {rho}")
    from scipy.integrate import quad

    grid = K.grid
    n = grid.n
    bd = boundary_data(K)
    kappa_tilde = bd.kappa_tilde
    vw = weighted_volume(K)
    direct = weighted_volume(SupportField(grid, math.exp(rho) * K.phi))
    form1 = vw
    form2 = vw * math.exp((n + 1) * rho)
    for k in range(n + 1):
        sk = sigma_elementary(kappa_tilde, k)
        cosh_int = integrate(grid, bd.coshr * sk * bd.area_density)
        gap_int = integrate(grid, (bd.coshr - bd.u_tilde) * sk * bd.area_density)
        q1, _ = quad(
            lambda t, k=k: math.exp((n - k + 1) * t) * math.sinh(t) ** k,
            0.0,
            rho,
            **QUAD_KW,
        )
        q2, _ = quad(
            lambda t, k=k: math.exp((n - k) * t) * math.sinh(t) ** (k + 1),
            0.0,
            rho,
            **QUAD_KW,
        )
        form1 += cosh_int * q1 - gap_int * q2
        form2 += (
            gap_int
            / (k + 1)
            * math.exp((n - k) * rho)
            * math.sinh(rho) ** (k + 1)
        )
    scale = max(1.0, abs(direct), abs(form1), abs(form2))
    return WeightedSteinerReport(rho, direct - form1, direct - form2, scale)


def minkowski_formula_residuals(K: SupportField) -> MinkowskiResiduals:
    """Classical and shifted Minkowski formula residuals, m = 0..n-1.

    Classical: int cosh r p_m(kappa) dmu = int u~ p_{m+1}(kappa) dmu.
    Shifted: int (cosh r - u~) p_m(kappa~) dmu = int u~ p_{m+1}(kappa~) dmu.
    Requires a uniformly h-convex body (points have no curvature data).
    """
    grid = K.grid
    n = grid.n
    bd = boundary_data(K)
    kappa_tilde = bd.kappa_tilde
    kappa = 1.0 + kappa_tilde
    classical, shifted = [], []
    dmu = bd.area_density
    for m in range(n):
        classical.append(
            integrate(grid, bd.coshr * p_normalized(kappa, m) * dmu)
            - integrate(grid, bd.u_tilde * p_normalized(kappa, m + 1) * dmu)
        )
        shifted.append(
            integrate(grid, (bd.coshr - bd.u_tilde) * p_normalized(kappa_tilde, m) * dmu)
            - integrate(grid, bd.u_tilde * p_normalized(kappa_tilde, m + 1) * dmu)
        )
    return MinkowskiResiduals(classical, shifted)
