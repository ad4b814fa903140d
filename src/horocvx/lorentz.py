"""Minkowski space R^{n+1,1} and the hyperboloid model of hyperbolic space.

Vectors are numpy arrays whose last component is the timelike height:
<X, Y> = sum_i x_i y_i - x_{n+1} y_{n+1}.  Points of hyperbolic space
satisfy <X, X> = -1 with positive height.
"""

from __future__ import annotations

import math

import numpy as np

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
    """ValueError unless X is a finite hyperboloid point; NaN fails each bound."""
    X = np.asarray(X, dtype=float)
    if not np.all(np.isfinite(X)):
        raise ValueError(f"point {X} is not finite")
    q = inner(X, X)
    if not abs(q + 1.0) <= HPOINT_TOL:
        raise ValueError(f"<X, X> = {q}, expected -1 within {HPOINT_TOL}")
    if not X[-1] >= 1.0 - HPOINT_TOL:
        raise ValueError(f"height {X[-1]} below 1")


def _eta(dim: int) -> np.ndarray:
    e = np.eye(dim)
    e[-1, -1] = -1.0
    return e


def validate_isometry(F) -> None:
    """ValueError unless F is a finite, future-preserving Lorentz matrix."""
    F = np.asarray(F, dtype=float)
    if F.ndim != 2 or F.shape[0] != F.shape[1]:
        raise ValueError("isometry must be a square matrix")
    if not np.all(np.isfinite(F)):
        raise ValueError("isometry must be finite")
    eta = _eta(F.shape[0])
    defect = np.max(np.abs(F.T @ eta @ F - eta))
    if not defect <= ISOMETRY_TOL:
        raise ValueError(f"F^T eta F - eta deviates by {defect}, tolerance {ISOMETRY_TOL}")
    if not F[-1, -1] >= 1.0:
        raise ValueError("isometry does not preserve the future cone")


def apply_isometry(F, X) -> np.ndarray:
    """Apply a validated Lorentz isometry to one or many vectors."""
    F = np.asarray(F, dtype=float)
    validate_isometry(F)
    X = np.asarray(X, dtype=float)
    return X @ F.T


def inverse_isometry(F) -> np.ndarray:
    """Inverse via eta F^T eta, exact for Lorentz matrices."""
    F = np.asarray(F, dtype=float)
    eta = _eta(F.shape[0])
    return eta @ F.T @ eta


def boost(n: int, direction, s: float) -> np.ndarray:
    """Lorentz boost of rapidity s along a unit spatial direction.

    Moves the base point N to (sinh(s) * direction, cosh(s)).
    """
    d = np.asarray(direction, dtype=float)
    if d.shape != (n + 1,):
        raise ValueError(f"direction must have {n + 1} components")
    norm = math.sqrt(float(d @ d))
    if norm == 0.0:
        raise ValueError("direction must be nonzero")
    d = d / norm
    F = np.eye(n + 2)
    F[:-1, :-1] += (math.cosh(s) - 1.0) * np.outer(d, d)
    F[:-1, -1] = math.sinh(s) * d
    F[-1, :-1] = math.sinh(s) * d
    F[-1, -1] = math.cosh(s)
    return F
