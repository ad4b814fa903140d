"""Minkowski space R^{n+1,1} and the hyperboloid model of hyperbolic space.

Vectors are numpy arrays whose last component is the timelike height:
<X, Y> = sum_i x_i y_i - x_{n+1} y_{n+1}.  Points of hyperbolic space
satisfy <X, X> = -1 with positive height.
"""

from __future__ import annotations

import math

import numpy as np

from .sphere_grid import ArgumentError, as_real

__all__ = [
    "inner",
    "geodesic_distance",
    "apply_isometry",
    "inverse_isometry",
    "hpoint",
    "origin",
    "boost",
    "validate_hpoint",
    "validate_isometry",
    "DISTANCE_SLACK",
    "ISOMETRY_TOL",
    "HPOINT_TOL",
]

# -inner(X, Y) may dip below 1 by round-off for nearby points; anything
# further below is a domain error rather than noise.
DISTANCE_SLACK = 1e-8
ISOMETRY_TOL = 1e-10
HPOINT_TOL = 1e-10


def inner(X, Y) -> np.ndarray | float:
    """Lorentzian inner product, signature (+...+, -)."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    spatial = np.sum(X[..., :-1] * Y[..., :-1], axis=-1)
    return spatial - X[..., -1] * Y[..., -1]


def geodesic_distance(X, Y) -> np.ndarray | float:
    """Distance d between hyperboloid points, cosh d = -<X, Y>.

    Near points use 2 asinh(|X - Y|_L / 2), since <X - Y, X - Y> =
    4 sinh^2(d / 2): arccosh(-<X, Y>) cancels to 0 below d ~ 1e-8.  Far
    points (cosh d >= 2) keep arccosh, where the chord form cancels.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    c = -inner(X, Y)
    if np.any(c < 1.0 - DISTANCE_SLACK):
        raise ValueError(f"cosh(distance) = {np.min(c)} is below 1 beyond round-off")
    D = X - Y
    near = 2.0 * np.arcsinh(0.5 * np.sqrt(np.maximum(inner(D, D), 0.0)))
    return np.where(c < 2.0, near, np.arccosh(np.maximum(c, 1.0)))[()]


def origin(n: int) -> np.ndarray:
    """The base point N = (0, ..., 0, 1)."""
    X = np.zeros(n + 2)
    X[-1] = 1.0
    return X


def hpoint(spatial) -> np.ndarray:
    """Hyperboloid point above the given spatial coordinates.  A height
    past the float range is inf, with no warning: `validate_hpoint`
    refuses the point."""
    x = np.asarray(spatial, dtype=float)
    with np.errstate(over="ignore"):
        height = math.sqrt(1.0 + float(x @ x))
    return np.concatenate([x, [height]])


def validate_hpoint(X) -> None:
    """ArgumentError (a ValueError) unless X is a finite hyperboloid point:
    the rule of every point a caller passes, so the CLI's exit 2.  NaN
    fails each bound."""
    X = np.asarray(X, dtype=float)
    if not np.all(np.isfinite(X)):
        raise ArgumentError(f"point {X} is not finite")
    q = inner(X, X)
    if not abs(q + 1.0) <= HPOINT_TOL:
        raise ArgumentError(f"<X, X> = {q}, expected -1 within {HPOINT_TOL}")
    if not X[-1] >= 1.0 - HPOINT_TOL:
        raise ArgumentError(f"height {X[-1]} below 1")


def _eta(dim: int) -> np.ndarray:
    e = np.eye(dim)
    e[-1, -1] = -1.0
    return e


def validate_isometry(F) -> None:
    """ArgumentError unless F is a finite, future-preserving Lorentz matrix.

    The defect of F^T eta F from eta is judged against ISOMETRY_TOL times
    max(1, max|F|)^2, the size of that product's roundoff: an exact boost
    of rapidity s has entries near cosh(s), so a fixed tolerance refused
    the boosts `boost` builds from s = 8 on.
    """
    F = np.asarray(F, dtype=float)
    if F.ndim != 2 or F.shape[0] != F.shape[1]:
        raise ArgumentError("isometry must be a square matrix")
    if not np.all(np.isfinite(F)):
        raise ArgumentError("isometry must be finite")
    eta = _eta(F.shape[0])
    defect = np.max(np.abs(F.T @ eta @ F - eta))
    tol = ISOMETRY_TOL * max(1.0, float(np.max(np.abs(F)))) ** 2
    if not defect <= tol:
        raise ArgumentError(f"F^T eta F - eta deviates by {defect}, tolerance {tol}")
    if not F[-1, -1] >= 1.0:
        raise ArgumentError("isometry does not preserve the future cone")


def apply_isometry(F, X) -> np.ndarray:
    """Apply a validated Lorentz isometry to one or many vectors."""
    validate_isometry(F)
    return np.asarray(X, dtype=float) @ np.asarray(F, dtype=float).T


def inverse_isometry(F) -> np.ndarray:
    """Inverse via eta F^T eta, exact for Lorentz matrices."""
    F = np.asarray(F, dtype=float)
    eta = _eta(F.shape[0])
    return eta @ F.T @ eta


def boost(n: int, direction, s: float) -> np.ndarray:
    """Lorentz boost of rapidity s along a unit spatial direction.

    Moves the base point N to (sinh(s) * direction, cosh(s)); a cosh(s)
    past the float range (|s| above about 710) is a ValueError naming s.
    """
    s = as_real(s, "boost rapidity s")
    d = np.asarray(direction, dtype=float)
    if d.shape != (n + 1,):
        raise ArgumentError(f"direction must have {n + 1} components")
    norm = math.sqrt(float(d @ d))
    if not 0.0 < norm < math.inf:  # NaN fails too
        raise ArgumentError(f"direction must be finite and nonzero, got {d}")
    try:
        cosh, sinh = math.cosh(s), math.sinh(s)
    except OverflowError:
        raise ValueError(f"boost rapidity s = {s!r} overflows cosh(s)") from None
    d = d / norm
    F = np.eye(n + 2)
    F[:-1, :-1] += (cosh - 1.0) * np.outer(d, d)
    F[:-1, -1] = F[-1, :-1] = sinh * d
    F[-1, -1] = cosh
    return F
