"""Modified quermassintegrals, Steiner formulas, and weighted volume.

W_k is the integral of its first variation along the support homotopy
phi_t = 1 + t (phi - 1) from the origin point to the body.  On that path
phi_t A[phi_t] is quadratic in t with pointwise coefficients, so the
integrand is d P(t) / phi_t^{n+1}, d = phi - 1, with P a polynomial of
degree at most 4, and the t-integral is exact: a sum of P's coefficients
times the moments int_0^1 t^j (1 + d t)^{-(n+1)} dt, which have a closed
form in log1p(d) away from d = 0 and a binomial series near it.  One
gradient and Hessian and one compensated sum give W_k; for k = n it is
(1/n) int (1 - phi^{-n}) dsigma.

On balls and Steiner parallels every quantity reduces to
int_0^rho e^{at} sinh(t)^b dt with small integers a, b
(`exp_sinh_integral`): I_k(r), the k-th quermass of the centered ball of
radius r, the Steiner coefficients and the weighted Steiner
coefficients.  I_k's inverse is elementary for k = n and for n = 1,
k = 0, and otherwise a bracketed Newton root (`bracketed_newton`), so
nothing here loads scipy.

`modified_quermass`, `k_mean_radius` and `weighted_volume` are computed
once per field and k and then read from the field's cache
(`hconvex.per_field`): a SupportField cannot change, so its W_k cannot
either, and the cached values go with the field.  `QuermassReport` is
frozen because every caller shares the cached one.  `wk_value` is not
cached: with explicit g and H it evaluates a trial state, not the field.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .hconvex import SupportField, boundary_data, p_tensor, per_field, plus_identity
from .sphere_grid import Grid, as_integer, integrate, sphere_area

__all__ = [
    "QuermassReport",
    "SteinerReport",
    "WeightedSteinerReport",
    "MinkowskiResiduals",
    "exp_sinh_integral",
    "bracketed_newton",
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
]

# The t-moments of W_k switch from their closed form to the binomial
# series below |phi - 1| = 0.5, where 74 terms reach roundoff.
MOMENT_SERIES_SWITCH = 0.5
MOMENT_SERIES_TERMS = 74
CONSTANT_FIELD_TOL = 1e-13
# Below rho = 1 the binomial sum of exp_sinh_integral cancels (its terms
# are O(rho), the integral O(rho^{b+1})) and a positive series takes over.
EXP_SINH_SERIES_SWITCH = 1.0
# bracketed_newton stops once a step moves the iterate by at most 4 ulp.
NEWTON_RTOL = 4.0 * np.finfo(float).eps
NEWTON_MAX_ITER = 200


@dataclass(frozen=True)
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


# ---------------------------------------------------------------------------
# scalar kernels: exp-sinh integrals and a bracketed Newton root


@functools.lru_cache(maxsize=None)
def _exp_sinh_series(a: int, b: int) -> tuple[float, ...]:
    """Coefficients q_N, N = b, b+1, ..., highest N first, of
    int_0^rho e^{at} sinh(t)^b dt = e^{min(a, 0) rho} sum_N q_N rho^{N+1}, b >= 1.

    num_m = sum_j C(b, j) (-1)^j (b - 2j)^m = 2^b m! [t^m] sinh(t)^b is a
    nonnegative integer.  For a >= 0, integrating the Taylor series of
    e^{at} sinh(t)^b term by term gives
    q_N = sum_m C(N, m) a^{N-m} num_m / (2^b (N+1)!);
    for a < 0, the integral is e^{a rho} int_0^rho e^{|a| (rho-t)} sinh(t)^b dt
    and its beta integrals give q_N = sum_m |a|^{N-m} num_m / (2^b (N+1)!).
    Every q_N >= 0, so the series does not cancel.  Each q_N is an integer
    ratio rounded once; terms are kept until one at the switch falls below
    2^-60 of the sum and below half the term before it.
    """
    alpha = abs(a)
    num: list[int] = []
    coeffs: list[float] = []
    total = 0.0
    last = math.inf
    for N in itertools.count(b):
        while len(num) <= N:
            m = len(num)
            num.append(sum(math.comb(b, j) * (-1) ** j * (b - 2 * j) ** m for j in range(b + 1)))
        q = sum(
            (math.comb(N, m) if a >= 0 else 1) * alpha ** (N - m) * num[m] for m in range(b, N + 1)
        )
        coeffs.append(q / (2**b * math.factorial(N + 1)))
        term = coeffs[-1] * EXP_SINH_SERIES_SWITCH ** (N + 1)
        total += term
        if term > 0.0:
            if term < 2.0**-60 * total and term < 0.5 * last:
                return tuple(reversed(coeffs))
            last = term


def exp_sinh_integral(a: int, b: int, rho: float) -> float:
    """int_0^rho e^{at} sinh(t)^b dt for integers a and b >= 0, rho >= 0.

    From rho = EXP_SINH_SERIES_SWITCH on, and for b = 0 at every rho, the
    binomial expansion sinh^b = 2^{-b} sum_j C(b, j) (-1)^j e^{(b-2j)t}
    gives 2^{-b} sum_j C(b, j) (-1)^j expm1(c_j rho) / c_j with
    c_j = a + b - 2j (rho where c_j = 0), summed exactly.  Below the
    switch that sum cancels, and the positive series of `_exp_sinh_series`
    is used.  inf where the value overflows.
    """
    a = as_integer(a, "exponent a")
    b = as_integer(b, "sinh power b")
    if b < 0:
        raise ValueError(f"sinh power b must be nonnegative, got {b}")
    if not 0.0 <= rho < math.inf:
        raise ValueError(f"upper limit must be finite and nonnegative, got {rho}")
    if b > 0 and rho < EXP_SINH_SERIES_SWITCH:
        acc = 0.0
        for q in _exp_sinh_series(a, b):
            acc = acc * rho + q
        value = acc * rho ** (b + 1)
        return value * math.exp(a * rho) if a < 0 else value
    terms = []
    try:
        for j in range(b + 1):
            c = a + b - 2 * j
            t = rho if c == 0 else math.expm1(c * rho) / c
            terms.append((-1) ** j * math.comb(b, j) * t)
    except OverflowError:
        return math.inf
    return math.fsum(terms) / 2**b


def bracketed_newton(f, fprime, lo: float, hi: float, x: float | None = None) -> float:
    """Root of f between lo and hi, where f changes sign, from x (default
    the midpoint).

    Newton steps on a bracket that shrinks to each iterate; a step that
    would leave the bracket, or is not below half the previous step, is
    replaced by bisection.  Returns after a Newton step of at most
    NEWTON_RTOL relative, or the midpoint once the bracket is that narrow.
    """
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo < 0.0) == (f_hi < 0.0):
        raise ValueError(f"f does not change sign on [{lo}, {hi}]")
    if x is None or not lo < x < hi:
        x = 0.5 * (lo + hi)
    dx_old = hi - lo
    for _ in range(NEWTON_MAX_ITER):
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx < 0.0) == (f_lo < 0.0):
            lo = x
        else:
            hi = x
        if hi - lo <= NEWTON_RTOL * abs(x):
            return 0.5 * (lo + hi)
        d = fprime(x)
        step = fx / d if d != 0.0 else math.inf
        if abs(step) <= NEWTON_RTOL * abs(x):
            return x - step
        x_new = x - step
        if not (lo < x_new < hi and abs(step) < 0.5 * abs(dx_old)):
            x_new = 0.5 * (lo + hi)
        dx_old = x_new - x
        x = x_new
    raise RuntimeError(f"no root to {NEWTON_RTOL:.1e} in {NEWTON_MAX_ITER} steps on [{lo}, {hi}]")


# ---------------------------------------------------------------------------
# ball quermass I_k and its inverse


def I_k(n: int, k: int, r: float) -> float:
    """Modified k-quermass of the centered geodesic ball of radius r,
    omega_n int_0^r sinh(t)^{n-k} e^{-kt} dt."""
    if n not in (1, 2) or not 0 <= k <= n:
        raise ValueError(f"invalid (n, k) = ({n}, {k})")
    if r < 0.0:
        raise ValueError(f"radius must be nonnegative, got {r}")
    return sphere_area(n) * exp_sinh_integral(-k, n - k, r)


def _I_k_derivative(n: int, k: int, r: float) -> float:
    return sphere_area(n) * math.sinh(r) ** (n - k) * math.exp(-k * r)


def I_k_inverse(n: int, k: int, w: float) -> float:
    """Radius r with I_k(n, k, r) = w, to a few ulp."""
    if w < 0.0:
        raise ValueError(f"quermass value must be nonnegative, got {w}")
    if w == 0.0:
        return 0.0
    omega = sphere_area(n)
    if k == n:
        if w >= omega / n:
            raise ValueError(f"I_n is bounded by {omega / n}, got {w}")
        return -math.log1p(-n * w / omega) / n
    if (n, k) == (1, 0):  # I_0 = 4 pi sinh(r/2)^2
        return 2.0 * math.asinh(math.sqrt(w / (2.0 * omega)))
    r_hi = 1.0
    while I_k(n, k, r_hi) < w:
        r_hi *= 2.0
        if r_hi > 512.0:
            raise ValueError(f"no radius found for quermass value {w}")
    # I_k ~ omega r^{m+1} / (m+1) near r = 0, m = n - k.
    m = n - k
    return bracketed_newton(
        lambda t: I_k(n, k, t) - w,
        lambda t: _I_k_derivative(n, k, t),
        0.0,
        r_hi,
        ((m + 1) * w / omega) ** (1.0 / (m + 1)),
    )


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


@per_field
def modified_quermass(K: SupportField, k: int) -> QuermassReport:
    """Modified quermassintegral W_k of an h-convex support field, cached
    on K."""
    phi = K.phi
    c = float(phi[0])
    if np.max(np.abs(phi - c)) <= CONSTANT_FIELD_TOL * max(1.0, c):
        if c < 1.0 - 1e-12:
            raise ValueError(f"constant field phi = {c} < 1 is not h-convex")
        r = max(math.log(c), 0.0)
        return QuermassReport(k, I_k(K.grid.n, k, r), "ball-closed-form")
    return QuermassReport(k, wk_value(K, k), "closed-form")


@per_field
def k_mean_radius(K: SupportField, k: int) -> float:
    """Radius of the centered ball with the same W_k, cached on K."""
    return I_k_inverse(K.grid.n, k, modified_quermass(K, k).value)


# ---------------------------------------------------------------------------
# weighted volume


@per_field
def weighted_volume(K: SupportField) -> float:
    """Vol_w = int_Omega cosh r dv = (1/(n+1)) int u~ dmu, cached on K."""
    bd = boundary_data(K)
    return integrate(K.grid, bd.u_tilde * bd.area_density) / (K.grid.n + 1)


def S_functional(K: SupportField) -> float:
    """S = ((n+1) Vol_w / omega_n)^{1/(n+1)}, from K's cached Vol_w;
    equals sinh(r) for a centered ball and x_{n+1}^{1/(n+1)} sinh(r) for
    a ball at (x, x_{n+1})."""
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
            t_int = exp_sinh_integral(n - k - i, i - k, rho)
            rhs += math.comb(n - k, i - k) * CI[i] * t_int
        lhs = W_rho[k] - W[k]
        residuals.append(lhs - rhs)
        scale = max(scale, abs(lhs), abs(rhs))
    rhs_classical = 0.0
    for i in range(n + 1):
        sigma_i = p_normalized(kappa, i) * math.comb(n, i)
        si = integrate(grid, sigma_i * bd.area_density)
        # int cosh^{n-i} sinh^i, with cosh = sinh + e^{-t} expanded.
        t_int = sum(
            math.comb(n - i, j) * exp_sinh_integral(i + j - n, i + j, rho)
            for j in range(n - i + 1)
        )
        rhs_classical += si * t_int
    classical_residual = (W_rho[0] - W[0]) - rhs_classical
    scale = max(scale, abs(rhs_classical))
    return SteinerReport(rho, residuals, classical_residual, scale)


def weighted_steiner_check(K: SupportField, rho: float) -> WeightedSteinerReport:
    """Residuals of both weighted Steiner forms under rho-enlargement."""
    if rho <= 0.0:
        raise ValueError(f"rho must be positive, got {rho}")
    grid = K.grid
    n = grid.n
    bd = boundary_data(K)
    kappa_tilde = bd.kappa_tilde
    vw = weighted_volume(K)
    direct = weighted_volume(SupportField(grid, math.exp(rho) * K.phi))
    form1 = vw
    form2 = vw * math.exp((n + 1) * rho)
    for k in range(n + 1):
        sk = p_normalized(kappa_tilde, k) * math.comb(n, k)
        cosh_int = integrate(grid, bd.coshr * sk * bd.area_density)
        gap_int = integrate(grid, (bd.coshr - bd.u_tilde) * sk * bd.area_density)
        q1 = exp_sinh_integral(n - k + 1, k, rho)
        q2 = exp_sinh_integral(n - k, k + 1, rho)
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
