"""Hyperbolic p-sums of h-convex domains, 1/2 <= p <= 2.

On support functions the sum is phi_out^p = a phi_K^p + b phi_L^p with
a + b >= 1.  The pointwise picture combines two-point balls B(p, t):
their union over t in [0, 1] for p >= 1 (at p = 1 every t gives the
same ball) and their intersection over the open interval for p < 1.
`power_sum` is the one unchecked (a phi_K^p + b phi_L^p)^{1/p}, which
`p_sum` checks and `euclid_bridge.firey_sum` reuses; `check_p` is the
one p rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lorentz
from .hconvex import SupportField, boundary_data, common_grid, require_h_convex, support_of_point
from .sphere_grid import ArgumentError, Grid, as_real

__all__ = [
    "TwoPointBall",
    "DilatesReport",
    "check_p",
    "power_sum",
    "p_sum",
    "p_dilate",
    "two_point_ball",
    "compatibility_check",
    "dilates_check",
    "COEFF_SLACK",
    "DILATE_TOL",
]

COEFF_SLACK = 1e-12
DILATE_TOL = 1e-8


@dataclass
class TwoPointBall:
    """Geodesic ball from the two-point construction.

    radius may be +inf (the whole space, imposing no constraint on an
    intersection); empty means the construction yields no ball (R < 1).
    """

    center: np.ndarray | None
    radius: float
    empty: bool


@dataclass
class DilatesReport:
    is_dilate: bool
    ratio_variation: float


def check_p(p: float) -> float:
    """p as a float; ArgumentError unless it is a number (`as_real`) in
    [1/2, 2], the p-sum's range."""
    p = as_real(p, "p")
    if not (0.5 <= p <= 2.0):
        raise ArgumentError(f"p must lie in [1/2, 2], got {p}")
    return p


def _check_coeffs(a: float, b: float) -> tuple[float, float]:
    a, b = as_real(a, "coefficient a"), as_real(b, "coefficient b")
    if a < 0.0 or b < 0.0:
        raise ArgumentError(f"coefficients must be nonnegative, got a={a}, b={b}")
    if a + b < 1.0 - COEFF_SLACK:
        raise ArgumentError(f"coefficient sum a+b must be at least 1, got {a + b}")
    return a, b


def power_sum(a: float, K: SupportField, p: float, b: float, L: SupportField) -> SupportField:
    """(a phi_K^p + b phi_L^p)^{1/p} on the common grid; nothing else is checked."""
    return SupportField(common_grid(K, L), (a * K.phi**p + b * L.phi**p) ** (1.0 / p))


def p_sum(a: float, K: SupportField, p: float, b: float, L: SupportField) -> SupportField:
    """Support field of a*K +_p b*L on the common grid."""
    p = check_p(p)
    a, b = _check_coeffs(a, b)
    return require_h_convex(power_sum(a, K, p, b, L), "p-sum output")


def p_dilate(a: float, p: float, K: SupportField) -> SupportField:
    """p-dilation a . K: phi -> a^{1/p} phi, an outer parallel set at
    distance log(a)/p, with K's derivatives scaled if K has them
    (`SupportField.scaled`).  Requires a >= 1 and a finite p > 0."""
    a, p = as_real(a, "p-dilation a"), as_real(p, "p-dilation p")
    if a < 1.0:
        raise ArgumentError(f"p-dilation needs a >= 1, got {a}")
    if p <= 0.0:
        raise ArgumentError(f"p-dilation needs p > 0, got {p}")
    try:
        return K.scaled(a ** (1.0 / p))
    except OverflowError:
        raise ValueError(f"p-dilation by a = {a}, p = {p}: a^(1/p) overflows") from None


def _pow(t: float, e: float) -> float:
    """t**e with the convention 0**negative = +inf (p < 1 endpoints)."""
    if t == 0.0 and e < 0.0:
        return math.inf
    return t**e


def two_point_ball(p: float, t: float, a: float, X, b: float, Y) -> TwoPointBall:
    """Ball B(p, t; a, X, b, Y) of the two-point construction.

    T = (1-t)^{1/q} a^{1/p} X + t^{1/q} b^{1/p} Y with 1/p + 1/q = 1;
    the ball has center T/N(T) and radius log N(T), empty when N(T) < 1.
    At p = 1, 1/q = 0, so every t gives the one ball of T = a X + b Y.
    t is a number (`as_real`) in [0, 1], else an ArgumentError.
    """
    p = check_p(p)
    a, b = _check_coeffs(a, b)
    t = as_real(t, "t")
    if not (0.0 <= t <= 1.0):
        raise ArgumentError(f"t must lie in [0, 1], got {t}")
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    lorentz.validate_hpoint(X)
    lorentz.validate_hpoint(Y)
    inv_q = (p - 1.0) / p
    ca = 0.0 if a == 0.0 else _pow(1.0 - t, inv_q) * a ** (1.0 / p)
    cb = 0.0 if b == 0.0 else _pow(t, inv_q) * b ** (1.0 / p)
    if math.isinf(ca) or math.isinf(cb):
        # Degenerate endpoint of the p < 1 family: the whole space.
        center = X if math.isinf(ca) else Y
        return TwoPointBall(center.copy(), math.inf, False)
    if ca == 0.0 and cb == 0.0:
        return TwoPointBall(None, -math.inf, True)
    coshd = -lorentz.inner(X, Y)
    R_sq = ca * ca + cb * cb + 2.0 * ca * cb * coshd
    R = math.sqrt(R_sq)
    T = ca * X + cb * Y
    return TwoPointBall(T / R, math.log(R), R < 1.0)


def _refine_extremum(vals: np.ndarray, j: int, minimize: bool) -> float:
    """Parabolic vertex through three samples around index j."""
    if j == 0 or j == vals.shape[0] - 1:
        return float(vals[j])
    f0, f1, f2 = vals[j - 1], vals[j], vals[j + 1]
    denom = f0 - 2.0 * f1 + f2
    if denom == 0.0 or (minimize and denom < 0.0) or (not minimize and denom > 0.0):
        return float(f1)
    return float(f1 - (f2 - f0) ** 2 / (8.0 * denom))


def compatibility_check(
    grid: Grid, p: float, a: float, X, b: float, Y, samples: int = 200
) -> float:
    """Worst distance defect between the support-function p-sum of two
    points and the two-point ball family.

    Boundary points recovered from the summed support field are tested
    against the union (p >= 1; at p = 1 every ball is the same) or the
    intersection (p < 1, open t-interval) of the ball family; returns
    the sup of the refined |defect| in geodesic distance.  Public: it
    checks the paper's two-point figure, the p-sum of two points against
    its ball family.  A ValueError if every sampled ball is empty.
    """
    if samples < 3:
        raise ArgumentError(f"samples must be at least 3, got {samples}")
    summed = p_sum(a, support_of_point(grid, X), p, b, support_of_point(grid, Y))
    pts = boundary_data(summed).X
    minimize = p >= 1.0  # the union's defect is a min over t, the intersection's a max
    if minimize:
        ts = np.linspace(0.0, 1.0, samples)
    else:
        ts = np.linspace(0.0, 1.0, samples + 2)[1:-1]
    centers, radii = [], []
    for t in ts:
        ball = two_point_ball(p, float(t), a, X, b, Y)
        if ball.empty or math.isinf(ball.radius):
            continue
        centers.append(ball.center)
        radii.append(ball.radius)
    if not centers:
        raise ValueError(f"every sampled ball of the two-point family is empty at p = {p}")
    defect = lorentz.geodesic_distance(pts[:, None, :], centers) - np.asarray(radii)[None, :]
    worst = 0.0
    best_j = np.argmin(defect, axis=1) if minimize else np.argmax(defect, axis=1)
    for i in range(pts.shape[0]):
        v = _refine_extremum(defect[i], int(best_j[i]), minimize)
        worst = max(worst, abs(v))
    return worst


def dilates_check(K: SupportField, L: SupportField) -> DilatesReport:
    """Whether L is a p-dilation of K: phi_L / phi_K constant."""
    common_grid(K, L)
    ratio = L.phi / K.phi
    mean = float(np.mean(ratio))
    variation = float(np.max(np.abs(ratio - mean)) / abs(mean))
    return DilatesReport(variation <= DILATE_TOL, variation)
