"""Modified quermassintegrals, Steiner formulas, and weighted volume.

W_k is the integral of its first variation along the support homotopy
phi_t = 1 + t (phi - 1) from the origin point to the body.  On that path
phi_t A[phi_t] is quadratic in t with pointwise coefficients, so the
integrand is d P(t) / phi_t^{n+1}, d = phi - 1, with P a polynomial of
degree at most 4, and the t-integral is exact: a sum of P's coefficients
times the moments int_0^1 t^j (1 + d t)^{-(n+1)} dt, which have a closed
form in log1p(d) away from d = 0 and a binomial series near it.  One
gradient and Hessian and one compensated sum give W_k; for k = n it is
(1/n) int (1 - phi^{-n}) dsigma.  I_k(r) is the k-th quermass of the
centered ball of radius r.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .hconvex import SupportField, boundary_data, plus_identity
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
    "wk_value",
    "p_tensor",
]

# The t-moments of W_k switch from their closed form to the binomial
# series below |phi - 1| = 0.5, where 74 terms reach roundoff.
MOMENT_SERIES_SWITCH = 0.5
MOMENT_SERIES_TERMS = 74
CONSTANT_FIELD_TOL = 1e-13
QUAD_KW = dict(epsabs=1e-14, epsrel=1e-13, limit=200)


@dataclass
class QuermassReport:
    k: int
    value: float
    method: str  # closed-form | ball-closed-form


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
# curvature integrals and the closed form of W_k along the homotopy path


def curvature_integral(K: SupportField, m: int) -> float:
    """int p_m(shifted curvature) dmu = int phi^{-m} p_{n-m}(A[phi]) dsigma."""
    n = K.grid.n
    if not 0 <= m <= n:
        raise ValueError(f"m must lie in 0..{n}, got {m}")
    return integrate(K.grid, K.phi ** (-m) * p_tensor(K.A, n - m))


@functools.lru_cache(maxsize=None)
def _moment_tables(n: int, js: range) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only exponents a, matrix C(j, i) (-1)^{j-i} and series
    coefficients of `_t_moments`."""
    a = np.arange(-n, js[-1] - n + 1)
    B = np.array([[(-1) ** (j - i) * math.comb(j, i) for i in range(a.size)] for j in js], float)
    series = np.array(
        [[math.comb(n + i, i) / (i + j + 1) for j in js] for i in range(MOMENT_SERIES_TERMS)]
    )
    for table in (a, B, series):
        table.flags.writeable = False
    return a, B, series


def _t_moments(n: int, d: np.ndarray, js: range) -> np.ndarray:
    """I_j(d) = int_0^1 t^j (1 + d t)^{-(n+1)} dt for j in js, shape
    (len(d), len(js)); d > -1.

    Where |d| >= MOMENT_SERIES_SWITCH, u = 1 + d t gives
    I_j = d^{-(j+1)} sum_i C(j, i) (-1)^{j-i} F_{i-n} with
    F_a = ((1 + d)^a - 1) / a = expm1(a log1p(d)) / a and F_0 = log1p(d).
    Below the switch those terms cancel, and the binomial series
    I_j = sum_i C(n+i, i) (-d)^i / (j+i+1) is one Vandermonde matmul.
    """
    a, B, series = _moment_tables(n, js)
    out = np.empty((d.size, len(js)))
    far = np.abs(d) >= MOMENT_SERIES_SWITCH
    if np.any(far):
        df = d[far]
        log1p_d = np.log1p(df)
        F = np.expm1(np.outer(a, log1p_d)) / np.where(a == 0, 1, a)[:, None]
        F[a == 0] = log1p_d
        out[far] = ((B @ F) / df ** (np.array(js)[:, None] + 1.0)).T
    near = ~far
    if np.any(near):
        out[near] = np.vander(-d[near], MOMENT_SERIES_TERMS, increasing=True) @ series
    return out


def wk_value(K: SupportField, k: int, g=None, H=None) -> float:
    """W_k by integrating its first variation along phi_t = 1 + t (phi - 1).

    g and H default to K's cached gradient and Hessian.  With d = phi - 1,
    C0 = H + d I and C1 = d H + (d^2 - |g|^2) / 2 I, phi_t A_t = t (C0 + t C1),
    so the integrand (phi - 1) phi_t^{-1-k} p_m(A_t), m = n - k, is
    d t^m p_m(C0 + t C1) / phi_t^{n+1} and its t-integral is exact:
    W_k = int d sum_j P_j I_j(d) dsigma, j = m..2m, P_j the coefficients
    of t^m p_m(C0 + t C1).  One compensated sum over the grid.
    """
    grid, phi = K.grid, K.phi
    n = grid.n
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in 0..{n}, got {k}")
    if g is None or H is None:
        g, H = K.gradient, K.hessian
    m = n - k
    d = phi - 1.0
    C0 = plus_identity(H, d)
    C1 = plus_identity(d[:, None, None] * H, 0.5 * (d * d - np.sum(g * g, axis=1)))
    P = [p_tensor(C0, m)]
    if m == 2:
        P.append(
            C0[:, 0, 0] * C1[:, 1, 1] + C1[:, 0, 0] * C0[:, 1, 1] - 2.0 * C0[:, 0, 1] * C1[:, 0, 1]
        )
    if m >= 1:
        P.append(p_tensor(C1, m))
    moments = _t_moments(n, d, range(m, 2 * m + 1))
    return integrate(grid, d * sum(Pj * moments[:, i] for i, Pj in enumerate(P)))


def modified_quermass(K: SupportField, k: int) -> QuermassReport:
    """Modified quermassintegral W_k of an h-convex support field."""
    phi = K.phi
    c = float(phi[0])
    if np.max(np.abs(phi - c)) <= CONSTANT_FIELD_TOL * max(1.0, c):
        if c < 1.0 - 1e-12:
            raise ValueError(f"constant field phi = {c} < 1 is not h-convex")
        r = max(math.log(c), 0.0)
        return QuermassReport(k, I_k(K.grid.n, k, r), "ball-closed-form")
    return QuermassReport(k, wk_value(K, k), "closed-form")


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
