"""Modified quermassintegrals, Steiner formulas, and weighted volume.

W_k is the integral of its first variation along the support homotopy
phi_t = 1 + t (phi - 1) from the origin point to the body.  On that path
phi_t A[phi_t] is quadratic in t with pointwise coefficients, so the
integrand is d P(t) / phi_t^{n+1}, d = phi - 1, with P a polynomial of
degree at most 4, and the t-integral is exact: a sum of P's coefficients
times the moments int_0^1 t^j (1 + d t)^{-(n+1)} dt, which have a closed
form in log1p(d) away from d = 0 and a binomial series near it.  One
gradient and Hessian and one pairwise sum give W_k; for k = n it is
(1/n) int (1 - phi^{-n}) dsigma.  Curvature integrals and the Steiner
and Minkowski formulas integrate `hconvex.measure_density`, p_j(kappa~)
dmu at p = 0, and the true curvatures through p_m(1 + kappa~) =
sum_j C(m, j) p_j(kappa~).

On balls and Steiner parallels every quantity reduces to
int_0^rho e^{at} sinh(t)^b dt with small integers a, b
(`exp_sinh_integral`): I_k(r), the k-th quermass of the centered ball of
radius r, the Steiner coefficients and the weighted Steiner
coefficients.  Its formula is one private kernel that the checked
`exp_sinh_integral` and `I_k` call.  I_k's inverse is elementary for
k = n and for n = 1, k = 0, and otherwise a bracketed Newton root
(`bracketed_newton`) that checks its arguments once and iterates on the
unchecked kernels, so nothing here loads scipy.

`wk_value` is the one route to W_k, cached per field and k as
`K.memo(wk_value, k)`: the flow fills it on its states and Newton trial
fields, and `modified_quermass` reads it once `require_h_convex` has
passed the field.  It gives an exactly constant field, a centered ball,
I_k.  `k_mean_radius`, `curvature_integral` and `weighted_volume` are
cached on the field (`hconvex.per_field`), per k where they take one: a
SupportField cannot change, so neither can they, and they go with it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import astuple, dataclass

import numpy as np

from .hconvex import (
    SupportField,
    boundary_data,
    check_k,
    dp_tensor,
    measure_density,
    outer_parallel,
    p_tensor,
    per_field,
    plus_identity,
    require_h_convex,
    squared_norm,
)
from .sphere_grid import (
    ArgumentError, as_integer, as_real, exactly_constant, integrate, sphere_area,
)

__all__ = [
    "QuermassReport",
    "SteinerReport",
    "WeightedSteinerReport",
    "MinkowskiResiduals",
    "exp_sinh_integral",
    "bracketed_newton",
    "I_k",
    "I_k_inverse",
    "ball_curvature_integral",
    "curvature_integral",
    "classical_curvature_density",
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


@dataclass
class SteinerReport:
    rho: float
    shifted_residuals: list[float]  # index k = 0..n, shifted expansion
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
    """int_0^rho e^{at} sinh(t)^b dt for integers a and b >= 0, rho >= 0 a
    finite number (`as_real`); ArgumentError otherwise.

    From rho = EXP_SINH_SERIES_SWITCH on, and for b = 0 at every rho, the
    binomial expansion sinh^b = 2^{-b} sum_j C(b, j) (-1)^j e^{(b-2j)t}
    gives 2^{-b} sum_j C(b, j) (-1)^j expm1(c_j rho) / c_j with
    c_j = a + b - 2j (rho where c_j = 0), summed exactly.  Below the
    switch that sum cancels, and the positive series of `_exp_sinh_series`
    is used.  inf where the value overflows.
    """
    a = as_integer(a, "exponent a")
    b = as_integer(b, "sinh power b")
    rho = as_real(rho, "upper limit rho")
    if b < 0:
        raise ArgumentError(f"sinh power b must be nonnegative, got {b}")
    if rho < 0.0:
        raise ArgumentError(f"upper limit rho must be nonnegative, got {rho}")
    return _exp_sinh(a, b, rho)


def _exp_sinh(a: int, b: int, rho: float) -> float:
    """`exp_sinh_integral` on arguments it has checked: ints a and b >= 0
    and a float rho >= 0."""
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


def _ball_radius(r) -> float:
    """r as a float; ArgumentError unless it is a finite number (`as_real`) >= 0."""
    r = as_real(r, "radius")
    if r < 0.0:
        raise ArgumentError(f"radius must be nonnegative, got {r}")
    return r


def I_k(n: int, k: int, r: float) -> float:
    """Modified k-quermass of the centered geodesic ball of radius r >= 0,
    a finite number (`as_real`): omega_n int_0^r sinh(t)^{n-k} e^{-kt} dt."""
    k = check_k(n, k)
    return sphere_area(n) * _exp_sinh(-k, n - k, _ball_radius(r))


def ball_curvature_integral(n: int, k: int, r: float, p: float = 0.0) -> float:
    """The mass of dS_{p,k} of the centered ball of radius r >= 0:
    omega_n sinh(r)^{n-k} e^{-(k+p) r}, with r and p finite numbers
    (`as_real`).  At p = 0 it is int p_k(kappa~) dmu over the sphere of
    radius r, the r-derivative of I_k."""
    k = check_k(n, k)
    return _ball_mass(n, k, _ball_radius(r), as_real(p, "p"))


def _ball_mass(n: int, k: int, r: float, p: float) -> float:
    """`ball_curvature_integral` on arguments it has checked."""
    return sphere_area(n) * math.sinh(r) ** (n - k) * math.exp(-(k + p) * r)


def I_k_inverse(n: int, k: int, w: float) -> float:
    """Radius r with I_k(n, k, r) = w, to a few ulp; an ArgumentError unless
    w >= 0 is a finite number (`as_real`), below omega / n at k = n.  Checked
    once, it runs Newton on the unchecked kernels of I_k and its derivative."""
    k = check_k(n, k)
    w = as_real(w, "quermass value")
    if w < 0.0:
        raise ArgumentError(f"quermass value must be nonnegative, got {w}")
    if w == 0.0:
        return 0.0
    omega = sphere_area(n)
    if k == n:
        if w >= omega / n:
            raise ArgumentError(f"I_n is bounded by {omega / n}, got {w}")
        return -math.log1p(-n * w / omega) / n
    if (n, k) == (1, 0):  # I_0 = 4 pi sinh(r/2)^2
        return 2.0 * math.asinh(math.sqrt(w / (2.0 * omega)))
    # I_k ~ omega r^{m+1} / (m+1) near r = 0, m = n - k.
    m = n - k

    def I(t: float) -> float:
        return omega * _exp_sinh(-k, m, t)

    r_hi = 1.0
    while I(r_hi) < w:
        r_hi *= 2.0
        if r_hi > 512.0:
            raise ValueError(f"no radius found for quermass value {w}")
    return bracketed_newton(
        lambda t: I(t) - w,
        lambda t: _ball_mass(n, k, t, 0.0),
        0.0,
        r_hi,
        ((m + 1) * w / omega) ** (1.0 / (m + 1)),
    )


# ---------------------------------------------------------------------------
# curvature integrals and the closed form of W_k along the homotopy path


@per_field
def curvature_integral(K: SupportField, m: int) -> float:
    """int p_m(shifted curvature) dmu = int phi^{-m} p_{n-m}(A[phi]) dsigma,
    cached on K."""
    return integrate(K.grid, measure_density(K, 0, m))


def classical_curvature_density(K: SupportField, m: int) -> np.ndarray:
    """Density of p_m(kappa) dmu against dsigma, kappa = 1 + kappa~ the
    true principal curvatures: p_m(1 + kappa~) = sum_j C(m, j) p_j(kappa~)."""
    return sum(math.comb(m, j) * measure_density(K, 0, j) for j in range(m + 1))


@functools.lru_cache(maxsize=None)
def _moment_tables(n: int, js: range) -> tuple:
    """Read-only tables of `_t_moments`: exponents a, divisors where(a == 0,
    1, a) as a column, the row of a = 0 (None if none), matrix
    C(j, i) (-1)^{j-i}, powers j + 1 as a column and series coefficients."""
    a = np.arange(-n, js[-1] - n + 1)
    div = np.where(a == 0, 1, a)[:, None]
    zero = n if a.size > n else None
    B = np.array([[(-1) ** (j - i) * math.comb(j, i) for i in range(a.size)] for j in js], float)
    powers = np.array(js)[:, None] + 1.0
    series = np.array(
        [[math.comb(n + i, i) / (i + j + 1) for j in js] for i in range(MOMENT_SERIES_TERMS)]
    )
    for table in (a, div, B, powers, series):
        table.flags.writeable = False
    return a, div, zero, B, powers, series


def _t_moments(n: int, d: np.ndarray, js: range) -> np.ndarray:
    """I_j(d) = int_0^1 t^j (1 + d t)^{-(n+1)} dt for j in js, shape
    (len(d), len(js)); d > -1.

    Where |d| >= MOMENT_SERIES_SWITCH, u = 1 + d t gives
    I_j = d^{-(j+1)} sum_i C(j, i) (-1)^{j-i} F_{i-n} with
    F_a = ((1 + d)^a - 1) / a = expm1(a log1p(d)) / a and F_0 = log1p(d).
    Below the switch those terms cancel, and the binomial series
    I_j = sum_i C(n+i, i) (-d)^i / (j+i+1) is one Vandermonde matmul.
    A d on one side of the switch, as every flow field is, is told by the
    least and greatest |d| and builds no mask.
    """
    a, div, zero, B, powers, series = _moment_tables(n, js)

    def closed_form(x):
        log1p_x = np.log1p(x)
        F = np.expm1(a[:, None] * log1p_x) / div
        if zero is not None:
            F[zero] = log1p_x
        return ((B @ F) / x ** powers).T

    def binomial_series(x):
        return np.vander(-x, MOMENT_SERIES_TERMS, increasing=True) @ series

    abs_d = np.abs(d)
    if abs_d.min() >= MOMENT_SERIES_SWITCH:
        return closed_form(d)
    if abs_d.max() < MOMENT_SERIES_SWITCH:
        return binomial_series(d)
    far = abs_d >= MOMENT_SERIES_SWITCH
    out = np.empty((d.size, len(js)))
    out[far] = closed_form(d[far])
    out[~far] = binomial_series(d[~far])
    return out


def wk_value(K: SupportField, k: int) -> float:
    """W_k by integrating its first variation along phi_t = 1 + t (phi - 1).

    With g and H the gradient and Hessian of K and d = phi - 1,
    C0 = H + d I and C1 = d H + (d^2 - |g|^2) / 2 I, phi_t A_t = t (C0 + t C1),
    so the integrand (phi - 1) phi_t^{-1-k} p_m(A_t), m = n - k, is
    d t^m p_m(C0 + t C1) / phi_t^{n+1} and its t-integral is exact:
    W_k = int d sum_j P_j I_j(d) dsigma, j = m..2m, P_j the coefficients
    of t^m p_m(C0 + t C1).  One pairwise sum over the grid (`integrate`).
    An exactly constant field (`sphere_grid.exactly_constant`) is the
    centered ball of radius max(log phi, 0): I_k, with no spectral pass.
    """
    grid, phi = K.grid, K.phi
    n = grid.n
    k = check_k(n, k)
    if exactly_constant(phi):
        return I_k(n, k, max(math.log(phi.item(0)), 0.0))
    g, H = K.gradient, K.hessian
    m = n - k
    d = phi - 1.0
    e = 0.5 * (d * d - squared_norm(g))
    if m == 2:
        C0, C1 = plus_identity(H, d), plus_identity(d[:, None, None] * H, e)
        P = [p_tensor(C0, 2), dp_tensor(C0, C1, 2), p_tensor(C1, 2)]
    elif m == 1:
        # p_1 reads only the diagonals of C0 and C1: the entries that
        # plus_identity forms, averaged as p_tensor does.
        diag = [H[:, i, i] for i in range(n)]
        P = [[h + d for h in diag], [d * h + e for h in diag]]
        P = [c[0] if n == 1 else 0.5 * (c[0] + c[1]) for c in P]
    else:
        P = [np.ones(grid.size)]
    moments = _t_moments(n, d, range(m, 2 * m + 1))
    acc = P[0] * moments[:, 0]
    for i in range(1, len(P)):
        acc += P[i] * moments[:, i]
    return integrate(grid, d * acc)


def modified_quermass(K: SupportField, k: int) -> QuermassReport:
    """Modified quermassintegral W_k of an h-convex field, `K.memo(wk_value,
    k)`; a ValueError (`require_h_convex`) on a field that is not."""
    k = check_k(K.grid.n, k)
    return QuermassReport(k, require_h_convex(K, "field").memo(wk_value, k))


@per_field
def k_mean_radius(K: SupportField, k: int) -> float:
    """Radius of the centered ball with the same W_k, cached on K; a
    ValueError, a failed check on a computed result, if W_k overflowed.
    At k = n, e^{-nr} = 1 - n W_n / omega is the mean of phi^{-n}, taken
    without W_n (whose 1 - phi^{-n} rounds to 1 on a large body) and
    scaled by m = min phi against underflow; a point's roundoff reads 0."""
    n, phi = K.grid.n, K.phi
    if check_k(n, k) == n:
        m = phi.min()
        mean = integrate(K.grid, np.expm1(-n * np.log(phi / m))) / sphere_area(n)
        return max(math.log(m) - math.log1p(mean) / n, 0.0)
    w = modified_quermass(K, k).value
    if not math.isfinite(w):
        raise ValueError(f"W_{k} = {w} overflows: no ball has it")
    return I_k_inverse(n, k, w)


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


def _rho_rules(check):
    """A Steiner check at rho > 0, a finite number (`as_real`; else
    ArgumentError), that gives a finite report (numpy's overflow raises
    here), else a ValueError naming rho."""

    @functools.wraps(check)
    def checked(K: SupportField, rho: float):
        rho = as_real(rho, "rho")
        if rho <= 0.0:
            raise ArgumentError(f"rho must be positive, got {rho}")
        try:
            with np.errstate(over="raise"):
                report = check(K, rho)
            if np.isfinite(np.hstack(astuple(report))).all():
                return report
        except (OverflowError, FloatingPointError):
            pass
        raise ValueError(f"rho = {rho} is too large: the Steiner expansion overflows a float")

    return checked


@_rho_rules
def steiner_check(K: SupportField, rho: float) -> SteinerReport:
    """Residuals of the Steiner expansions of W_k under rho-enlargement.

    Shifted form for every k, plus the classical volume expansion in the
    true principal curvatures for k = 0.
    """
    grid = K.grid
    n = grid.n
    boundary_data(K).require_curvature()
    K_rho = outer_parallel(K, rho)
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
        si = math.comb(n, i) * integrate(grid, classical_curvature_density(K, i))
        # int cosh^{n-i} sinh^i, with cosh = sinh + e^{-t} expanded.
        t_int = sum(
            math.comb(n - i, j) * exp_sinh_integral(i + j - n, i + j, rho)
            for j in range(n - i + 1)
        )
        rhs_classical += si * t_int
    classical_residual = (W_rho[0] - W[0]) - rhs_classical
    scale = max(scale, abs(rhs_classical))
    return SteinerReport(rho, residuals, classical_residual, scale)


@_rho_rules
def weighted_steiner_check(K: SupportField, rho: float) -> WeightedSteinerReport:
    """Residuals of both weighted Steiner forms under rho-enlargement."""
    grid = K.grid
    n = grid.n
    bd = boundary_data(K).require_curvature()
    vw = weighted_volume(K)
    direct = weighted_volume(outer_parallel(K, rho))
    form1 = vw
    form2 = vw * math.exp((n + 1) * rho)
    for k in range(n + 1):
        sk = math.comb(n, k) * measure_density(K, 0, k)
        cosh_int = integrate(grid, bd.coshr * sk)
        gap_int = integrate(grid, (bd.coshr - bd.u_tilde) * sk)
        q1 = exp_sinh_integral(n - k + 1, k, rho)
        q2 = exp_sinh_integral(n - k, k + 1, rho)
        form1 += cosh_int * q1 - gap_int * q2
        form2 += gap_int / (k + 1) * math.exp((n - k) * rho) * math.sinh(rho) ** (k + 1)
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
    bd = boundary_data(K).require_curvature()
    classical, shifted = [], []
    for m in range(n):
        classical.append(
            integrate(grid, bd.coshr * classical_curvature_density(K, m))
            - integrate(grid, bd.u_tilde * classical_curvature_density(K, m + 1))
        )
        shifted.append(
            integrate(grid, (bd.coshr - bd.u_tilde) * measure_density(K, 0, m))
            - integrate(grid, bd.u_tilde * measure_density(K, 0, m + 1))
        )
    return MinkowskiResiduals(classical, shifted)
