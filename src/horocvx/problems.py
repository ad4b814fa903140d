"""Surface-area measures, Minkowski-type problems, and their obstructions.

The (p, k) surface-area measure has density phi^{-p-k} p_{n-k}(A[phi])
against the sphere measure (`hconvex.measure_density`); the prescription
problem asks for phi with that density equal to a given positive f.
Ball solutions for constant f reduce to a scalar equation classified
below; the Kazdan-Warner type identities give necessary conditions at
the critical exponent p = -n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hconvex import (
    SupportField,
    a_eigenvalues,
    common_grid,
    measure_density,
    plus_identity,
    squared_norm,
)
from .psum import check_p
from .quermass import bracketed_newton
from .sphere_grid import (
    ArgumentError, Grid, ambient_gradient, as_integer, derivatives, integrate, positive_field
)

__all__ = [
    "KWReport",
    "BallSolutionReport",
    "AssumptionHReport",
    "mixed_quermass",
    "J_p",
    "pde_residual",
    "kw_residual",
    "ball_solutions",
    "check_assumption_h",
    "check_nkp",
    "ASSUMPTION_TIE_TOL",
]

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


def check_nkp(n: int, k: int, p: float, what: str = "") -> None:
    """ArgumentError unless (n, k, p) is in the paper's range: n 1 or 2 and k
    in 0..n-1 (k = n has no ball equation), both integers (`as_integer`),
    and p >= -n if k >= 1; what prefixes names."""
    n, k = as_integer(n, f"{what}n"), as_integer(k, f"{what}k")
    for key, value, ok, rule in (
        ("n", n, n in (1, 2), "1 or 2"),
        ("k", k, 0 <= k <= n - 1, f"in 0..n-1 for n = {n}"),
        ("p", p, k == 0 or p >= -n, f"at least -n = {-n} for k >= 1"),
    ):
        if not ok:
            raise ArgumentError(f"{what}{key} must be {rule}, got {value!r}")


def mixed_quermass(K: SupportField, L: SupportField, p: float, k: int) -> float:
    """W_{p,k}(K, L) = (1/p) int phi_L^p dS_{p,k}(K, .), p in [1/2, 2]."""
    check_p(p)
    return integrate(common_grid(K, L), L.phi**p * measure_density(K, p, k)) / p


def J_p(K: SupportField, f, p: float) -> float:
    """Flow functional (1/p) int f phi^p dsigma, or int f log(phi) at p = 0."""
    f = positive_field(K.grid, f, "f")
    if p == 0.0:
        return integrate(K.grid, f * np.log(K.phi))
    return integrate(K.grid, f * K.phi**p) / p


def pde_residual(K: SupportField, f, p: float, k: int) -> tuple[np.ndarray, float]:
    """Residual field phi^{-p-k} p_{n-k}(A[phi]) - f and its sup norm."""
    f = positive_field(K.grid, f, "f")
    field = measure_density(K, p, k) - f
    return field, float(np.max(np.abs(field)))


def kw_residual(K: SupportField, f, k: int) -> KWReport:
    """Kazdan-Warner type obstructions evaluated on (K, f).

    Coordinate integrals int phi^{-n} <Df, Dx_i> dsigma for the n+1
    ambient coordinates (all vanish for solutions at p = -n), and the
    norm of int (Dphi/phi + z) phi^{-k} p_{n-k}(A[phi]) dsigma, which
    vanishes for every h-convex field and every k.  <Df, Dx_i> is the
    i-th `ambient_gradient` component of Df: one spectral pass, over f
    alone, and none for a constant f, whose integrals are exactly 0.
    """
    grid = K.grid
    n = grid.n
    density = measure_density(K, 0.0, k)
    f = positive_field(grid, f, "f")
    df = ambient_gradient(grid, derivatives(grid, f)[0])
    weight = K.phi ** (-float(n))
    coords = [integrate(grid, weight * df[:, i]) for i in range(n + 1)]
    vec_field = ambient_gradient(grid, K.gradient) / K.phi[:, None] + grid.nodes
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


def _in_float_range(c: float, gamma: float) -> float:
    """c, the next end of a bracket for the root of zeta(c) = gamma; a
    ValueError naming gamma once it doubles past the float range, where
    zeta moves toward gamma too slowly for any float center to solve it."""
    if c == math.inf:
        raise ValueError(f"the ball equation at gamma = {gamma} has a root c past the float range")
    return c


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
    range (`check_nkp`).  A power that overflows a float is a ValueError,
    and so is a gamma whose root c lies beyond the float range.
    """
    check_nkp(n, k, p)
    if gamma <= 0.0:
        raise ArgumentError(f"gamma must be positive, got {gamma}")

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

    try:
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
                hi = _in_float_range(1.0 + 2.0 * (hi - 1.0), gamma)
            c1 = _bracketed_root(lo, t0, n, k, p, gamma)
            c2 = _bracketed_root(t0, hi, n, k, p, gamma)
            return report("two-roots", [c1, c2], gamma0, t0)
        # zeta is increasing: onto (0, 2^{k-n}) at p = n - 2k; onto
        # (0, inf) for -n < p < n - 2k, or k = 0 and p < -n.
        if p == n - 2 * k and gamma >= 2.0 ** (k - n):
            return report("none-limit", [])
        hi = 2.0
        while _zeta(hi, n, k, p) < gamma:
            hi = _in_float_range(2.0 * hi, gamma)
        return report("unique", [_bracketed_root(1.0 + 1e-14, hi, n, k, p, gamma)])
    except OverflowError:
        raise ValueError(f"the ball equation at p = {p} overflows a float") from None


# ---------------------------------------------------------------------------
# structural condition on the data for 1 <= k <= n-1 flows


def check_assumption_h(f, grid: Grid, k: int, p: float) -> AssumptionHReport:
    """Convexity-type condition on h = f^{-1/(n-k)} for k-flow data f on
    the grid's S^n.

    Five regimes in p >= -n; passes when the worst eigenvalue of the
    regime's tensor is >= -1e-10 (ties at zero pass).  At p = -n the
    condition is that h is constant.
    """
    n = grid.n
    check_nkp(n, k, p)
    if k == 0:
        raise ArgumentError("assumption H applies for k >= 1, got k = 0")
    f = positive_field(grid, f, "f")
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
    grad_sq = squared_norm(g)
    if grad_term_power == 1:
        grad_term = c_grad * np.sqrt(grad_sq)
    else:
        grad_term = c_grad * grad_sq / base
    eig_min = a_eigenvalues(plus_identity(H, -grad_term + c_zero * base))[:, 0]
    node = int(np.argmin(eig_min))
    worst = float(eig_min[node])
    scale = max(1.0, float(np.max(np.abs(base))))
    return AssumptionHReport(worst >= -ASSUMPTION_TIE_TOL * scale, regime, node, worst)
