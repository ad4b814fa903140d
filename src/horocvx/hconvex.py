"""Horospherically convex domains via their horospherical support function.

A domain is the intersection of the horo-balls {B_z(u(z))} over all unit
directions z; we store phi = e^u at grid nodes.  The shifted second
fundamental form A[phi] decides convexity: A > 0 is uniform h-convexity.
Boundary position and normal are recovered pointwise from phi and its
first two frame derivatives.  A SupportField is immutable and computes
its geometry once, on first use, from one spectral pass; a functional
decorated with `per_field` is cached on the field too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, wraps

import numpy as np

from . import lorentz
from .sphere_grid import Grid, derivatives, frame_vectors, resample

__all__ = [
    "SupportField",
    "ConvexityReport",
    "BoundaryData",
    "support_of_point",
    "support_of_ball",
    "a_eigenvalues",
    "p_tensor",
    "shifted_form",
    "plus_identity",
    "convexity",
    "boundary_data",
    "apply_isometry_field",
    "random_h_convex_fields",
    "per_field",
    "UNIFORM_TOL_SCALE",
]

UNIFORM_TOL_SCALE = 1e-8


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class BoundaryData:
    """Pointwise boundary quantities indexed by grid node, read-only.

    X, nu: boundary point and outward unit normal in R^{n+1,1};
    lambda_tilde = phi * eig(A[phi]) are the shifted principal radii;
    area_density is p_n(A[phi]) = det A[phi], the density of d(mu)
    against d(sigma).
    """

    X: np.ndarray
    nu: np.ndarray
    coshr: np.ndarray
    u_tilde: np.ndarray
    lambda_tilde: np.ndarray
    area_density: np.ndarray

    @cached_property
    def kappa_tilde(self) -> np.ndarray:
        """Shifted principal curvatures 1 / lambda~; the true ones are
        1 + kappa_tilde.  Requires lambda~ > 0."""
        if np.min(self.lambda_tilde) <= 0.0:
            raise ValueError("curvature data requires a uniformly h-convex body")
        return _read_only(1.0 / self.lambda_tilde)


@dataclass(frozen=True)
class SupportField:
    """phi = e^u sampled at grid nodes; finite and positive everywhere.

    Immutable: phi is a read-only copy of the given values.  The gradient,
    Hessian, A[phi], its eigenvalues and the boundary data are computed
    once, on first use, from one spectral pass; their arrays are
    read-only too.  `memo` caches any value computed from the field
    alone: quermass caches W_k, the k-mean radius and the weighted
    volume there.  Since nothing about a field can change, a cached value
    stays valid for the field's whole life, and it dies with the field.
    """

    grid: Grid
    phi: np.ndarray

    def __post_init__(self):
        phi = np.array(self.phi, dtype=float)
        if phi.shape != (self.grid.size,):
            raise ValueError(
                f"support field has {phi.shape} values, grid has {self.grid.size} nodes"
            )
        # One pass each for min and max; NaN propagates into both.
        if not (0.0 < phi.min() and phi.max() < math.inf):
            if not np.all(np.isfinite(phi)):
                raise ValueError("support field phi must be finite")
            raise ValueError("support field phi must be positive")
        object.__setattr__(self, "phi", _read_only(phi))

    def memo(self, fn, *args):
        """fn(self, *args), computed on the first call with these args and
        returned again on every later one.

        fn must read only the field and args, and return an immutable
        value.  A call that raises stores nothing, so it raises again.
        """
        key = (fn, *args)
        cache = self._memo
        if key not in cache:
            cache[key] = fn(self, *args)
        return cache[key]

    @cached_property
    def _memo(self) -> dict:
        return {}

    @property
    def u(self) -> np.ndarray:
        return np.log(self.phi)

    @cached_property
    def _pass(self) -> tuple:
        return tuple(_read_only(a) for a in _parts(self))

    @property
    def gradient(self) -> np.ndarray:
        """Frame gradient D phi, shape (size, n)."""
        return self._pass[0]

    @property
    def hessian(self) -> np.ndarray:
        """Covariant Hessian D^2 phi in the orthonormal frame."""
        return self._pass[3]

    @property
    def A(self) -> np.ndarray:
        """Shifted second fundamental form A[phi] in the orthonormal frame."""
        return self._pass[2]

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of A[phi] per node, ascending."""
        return _read_only(a_eigenvalues(self.A))

    @cached_property
    def _boundary(self) -> BoundaryData:
        grid, phi = self.grid, self.phi
        g, q, A, _ = self._pass
        frames = frame_vectors(grid)
        grad_ambient = np.einsum("ia,iac->ic", g, frames)
        z = grid.nodes
        half_minus = 0.5 * (phi - 1.0 / phi)
        half_plus = 0.5 * (phi + 1.0 / phi)
        X = np.empty((grid.size, grid.n + 2))
        nu = np.empty_like(X)
        X[:, :-1] = (q - half_minus)[:, None] * z - grad_ambient
        X[:, -1] = q + half_plus
        nu[:, :-1] = (q - half_plus)[:, None] * z - grad_ambient
        nu[:, -1] = q + half_minus
        lam = phi[:, None] * self.eigenvalues
        arrays = (X, nu, q + half_plus, q + half_minus, lam, p_tensor(A, grid.n))
        return BoundaryData(*(_read_only(a) for a in arrays))


def per_field(fn):
    """Decorate fn(K, *args) so that each field K computes it once per
    args (`SupportField.memo`)."""

    @wraps(fn)
    def cached(K: SupportField, *args):
        return K.memo(fn, *args)

    return cached


@dataclass
class ConvexityReport:
    classification: str  # uniformly-h-convex | h-convex | not-h-convex
    min_eigenvalue: float
    argmin_node: int
    tol: float


def support_of_point(grid: Grid, X) -> SupportField:
    """Support field of a single point: phi(z) = x_{n+1} - <x, z>."""
    X = np.asarray(X, dtype=float)
    lorentz.validate_hpoint(X)
    phi = X[-1] - grid.nodes @ X[:-1]
    return SupportField(grid, phi)


def support_of_ball(grid: Grid, X, r: float) -> SupportField:
    """Support field of the geodesic ball B(X, r), r >= 0."""
    if r < 0.0:
        raise ValueError(f"ball radius must be nonnegative, got {r}")
    point = support_of_point(grid, X)
    return SupportField(grid, math.exp(r) * point.phi)


def _parts(K: SupportField):
    """One spectral pass: gradient, q = |Dphi|^2 / (2 phi), A[phi], and
    the unshifted Hessian D^2 phi.  SupportField caches its result."""
    g, H = derivatives(K.grid, K.phi)
    q, A = shifted_form(K.phi, g, H)
    return g, q, A, H


def shifted_form(phi: np.ndarray, g: np.ndarray, H: np.ndarray):
    """q = |Dphi|^2 / (2 phi) and A[phi] = D^2 phi + ((phi - 1/phi) / 2 - q) I."""
    q = 0.5 * np.sum(g * g, axis=1) / phi
    return q, plus_identity(H, -q + 0.5 * (phi - 1.0 / phi))


def plus_identity(M: np.ndarray, s: np.ndarray) -> np.ndarray:
    """M + s I, read-only, for pointwise forms M of shape (size, n, n) and
    a node field s."""
    out = M.copy()
    idx = np.arange(M.shape[1])
    out[:, idx, idx] += s[:, None]
    return _read_only(out)


def a_eigenvalues(A: np.ndarray) -> np.ndarray:
    """Eigenvalues of the pointwise symmetric forms, ascending."""
    if A.shape[1] == 1:
        return A[:, :, 0].copy()
    a, b, d = A[:, 0, 0], A[:, 0, 1], A[:, 1, 1]
    mean = 0.5 * (a + d)
    rad = np.sqrt((0.5 * (a - d)) ** 2 + b * b)
    return np.stack([mean - rad, mean + rad], axis=1)


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


def _classify(K: SupportField, eigs: np.ndarray, tol: float | None) -> ConvexityReport:
    if tol is None:
        tol = UNIFORM_TOL_SCALE * (1.0 + float(np.max(K.phi)))
    node = int(np.argmin(eigs[:, 0]))
    min_eig = float(eigs[node, 0])
    if min_eig > tol:
        cls = "uniformly-h-convex"
    elif min_eig >= -tol:
        cls = "h-convex"
    else:
        cls = "not-h-convex"
    return ConvexityReport(cls, min_eig, node, tol)


def convexity(K: SupportField, tol: float | None = None) -> ConvexityReport:
    """Classify by the minimum eigenvalue of A[phi] over the grid."""
    return _classify(K, K.eigenvalues, tol)


def boundary_data(K: SupportField, tol: float | None = None) -> BoundaryData:
    """Boundary points, normals and curvature data of K, computed once
    per field.

    Requires at least h-convexity; raises ValueError otherwise.
    """
    report = _classify(K, K.eigenvalues, tol)
    if report.classification == "not-h-convex":
        raise ValueError(
            f"field is not h-convex: min eig A = {report.min_eigenvalue} "
            f"at node {report.argmin_node}"
        )
    return K._boundary


def apply_isometry_field(K: SupportField, F) -> SupportField:
    """Support field of the image domain under a Lorentz isometry.

    The new field at direction z~ is chi * phi(z), where (z, 1) is the
    normalized pullback of (z~, 1) under F^{-1} and chi is the pullback's
    height.  Resampling is band-limited synthesis on the source field.
    """
    lorentz.validate_isometry(np.asarray(F, dtype=float))
    Finv = lorentz.inverse_isometry(F)
    grid = K.grid
    null = np.concatenate([grid.nodes, np.ones((grid.size, 1))], axis=1)
    W = null @ Finv.T
    chi = W[:, -1]
    src = W[:, :-1] / chi[:, None]
    src = src / np.linalg.norm(src, axis=1, keepdims=True)
    phi_new = chi * resample(grid, K.phi, src)
    return SupportField(grid, phi_new)


def random_h_convex_fields(seed: int, grids: list[Grid], count: int) -> list[SupportField]:
    """Seeded corpus of uniformly h-convex fields on the given grids."""
    rng = np.random.default_rng(seed)
    fields = []
    while len(fields) < count:
        grid = grids[len(fields) % len(grids)]
        r0 = rng.uniform(0.4, 1.0)
        c = math.exp(r0)
        if grid.n == 1:
            theta = grid.theta
            pert = np.zeros(grid.size)
            for kk in range(1, 5):
                pert += rng.uniform(-0.05, 0.05) * np.cos(kk * theta)
                pert += rng.uniform(-0.05, 0.05) * np.sin(kk * theta)
        else:
            z = grid.nodes
            basis = [
                z[:, 0],
                z[:, 1],
                z[:, 2],
                0.5 * (3.0 * z[:, 2] ** 2 - 1.0),
                z[:, 0] ** 2 - z[:, 1] ** 2,
                z[:, 0] * z[:, 1],
                z[:, 0] * z[:, 2],
                z[:, 1] * z[:, 2],
            ]
            pert = np.zeros(grid.size)
            for b in basis:
                pert += rng.uniform(-0.04, 0.04) * b
        amp = 1.0
        while amp > 1e-3:
            K = SupportField(grid, c * (1.0 + amp * pert))
            rep = convexity(K)
            if rep.classification == "uniformly-h-convex" and rep.min_eigenvalue > 0.02:
                fields.append(K)
                break
            amp *= 0.6
        else:
            continue
    return fields
