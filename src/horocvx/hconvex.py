"""Horospherically convex domains via their horospherical support function.

A domain is the intersection of the horo-balls {B_z(u(z))} over all unit
directions z; we store phi = e^u at grid nodes.  The shifted second
fundamental form A[phi] decides convexity: A > 0 is uniform h-convexity.
Boundary position and normal are recovered pointwise from phi and its
first two frame derivatives, on their first read.  A SupportField is
finite and positive at every node (`sphere_grid.positive_field`, the
rule flow data f share) and immutable, and computes its geometry once,
on first use, from one spectral pass; p_m(A) (`SupportField.pA`) and a
functional decorated with `per_field`, such as `convexity`, are cached
on the field too.
Spectral differentiation is linear and sends constants to zero, so a
field built from differentiated ones by constants takes their
derivatives by the same constants and makes no pass:
`SupportField.scaled` (c K, and so `outer_parallel`) and every
`shrink_into_cone` candidate do.  A constant field, such as an origin
ball, has exactly zero derivatives and makes no pass either.
`measure_density`, phi^{-p-k} p_{n-k}(A[phi]), is the package's one
curvature-measure kernel, on the cached p_{n-k}(A); at p = 0 it is
p_k(kappa~) dmu / dsigma.  Its linearization is built from `dA`, the
derivative of A[phi], and `dp_tensor`, that of p_m: `d_measure_density`
is the derivative of the density along a field v, given v's derivatives.
`check_k` is its one rule for the index k, `squared_norm` its one
|D phi|^2, `common_grid` its one grid match, `require_h_convex` its one
not-h-convex refusal (of `boundary_data`, `quermass.modified_quermass`,
`psum.p_sum` and `euclid_bridge.project`), and `shrink_into_cone` its one
shrinking of a perturbation into the uniformly h-convex cone.
"""

from __future__ import annotations

import inspect
import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property, partial, wraps

import numpy as np

from . import lorentz
from .sphere_grid import (
    ArgumentError, Grid, ambient_gradient, as_integer, as_real, derivatives, positive_field,
    resample,
)

__all__ = [
    "SupportField",
    "ConvexityReport",
    "BoundaryData",
    "support_of_point",
    "support_of_ball",
    "outer_parallel",
    "a_eigenvalues",
    "p_tensor",
    "dp_tensor",
    "squared_norm",
    "dA",
    "measure_density",
    "d_measure_density",
    "check_k",
    "plus_identity",
    "convexity",
    "common_grid",
    "require_h_convex",
    "boundary_data",
    "apply_isometry_field",
    "shrink_into_cone",
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
    """Pointwise boundary quantities of a field, indexed by grid node,
    read-only.

    coshr and u_tilde are the height and the shifted support of the
    boundary point; lambda_tilde = phi * eig(A[phi]) are the shifted
    principal radii; area_density is p_n(A[phi]) = det A[phi], the
    density of d(mu) against d(sigma).  X and nu, the boundary point and
    outward unit normal in R^{n+1,1}, are computed on the first read of
    either, once, by make_points(): few callers read them.  make_points
    holds the field's arrays, not the field, which caches this object, so
    that a dead field is freed at once rather than left in a cycle.
    """

    coshr: np.ndarray
    u_tilde: np.ndarray
    lambda_tilde: np.ndarray
    area_density: np.ndarray
    make_points: Callable[[], tuple]

    @property
    def X(self) -> np.ndarray:
        """Boundary point per node, shape (size, n + 2)."""
        return self._points[0]

    @property
    def nu(self) -> np.ndarray:
        """Outward unit normal per node, shape (size, n + 2)."""
        return self._points[1]

    @cached_property
    def _points(self) -> tuple:
        return self.make_points()

    def require_curvature(self) -> BoundaryData:
        """self; ValueError unless every lambda~ > 0 (uniform h-convexity)."""
        if np.min(self.lambda_tilde) <= 0.0:
            raise ValueError("curvature data requires a uniformly h-convex body")
        return self

    @cached_property
    def kappa_tilde(self) -> np.ndarray:
        """Shifted principal curvatures 1 / lambda~; the true ones are
        1 + kappa_tilde.  Requires lambda~ > 0."""
        return _read_only(1.0 / self.require_curvature().lambda_tilde)


@dataclass(frozen=True)
class SupportField:
    """phi = e^u sampled at grid nodes; finite and positive everywhere.

    Immutable: phi is a read-only copy of the given values.  The gradient,
    Hessian, A[phi], its eigenvalues and the boundary data are computed
    once, on first use, from one spectral pass (or from the gradient and
    Hessian given to `with_derivatives`), the boundary points and normals
    on their own first read; their arrays are read-only too.  `memo`
    caches any value computed from the field alone: p_m(A), the
    convexity report, quermass's W_k, k-mean radius, curvature integrals
    and weighted volume, and euclid_bridge's Euclidean density, the
    p-independent factors of its boundary integrand and its volume V.
    Since nothing about a field can change, a cached value stays valid
    for the field's whole life, and it dies with the field.
    """

    grid: Grid
    phi: np.ndarray

    def __post_init__(self):
        phi = positive_field(self.grid, self.phi, "support field phi").copy()
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

    @cached_property
    def _derivatives(self) -> tuple:
        """Gradient and unshifted Hessian D^2 phi, read-only, from one
        spectral pass."""
        return tuple(_read_only(a) for a in derivatives(self.grid, self.phi))

    @cached_property
    def _shifted(self) -> tuple:
        """Read-only q = |Dphi|^2 / (2 phi) and A[phi] = D^2 phi + ((phi - 1/phi) / 2 - q) I."""
        phi, (g, H) = self.phi, self._derivatives
        q = 0.5 * squared_norm(g) / phi
        return _read_only(q), plus_identity(H, -q + 0.5 * (phi - 1.0 / phi))

    @classmethod
    def with_derivatives(cls, grid: Grid, phi, gradient, hessian) -> SupportField:
        """The field of phi with the given frame gradient (size, n) and
        covariant Hessian (size, n, n) as its cached derivatives, so that
        no spectral pass of its own is made.

        The caller vouches that they are phi's spectral derivatives up to
        roundoff.  Spectral differentiation is linear and sends constants
        to zero, so if phi = c + sum_i a_i v_i for constants c and a_i,
        the derivatives of phi are sum_i a_i (D v_i, D^2 v_i): a flow
        step's new state is built so from resolvent outputs, a dilate
        c phi (`scaled`) from its source, and a cone-shrink candidate
        c (1 + amp pert) from one pass over pert.
        """
        K = cls(grid, phi)
        g, H = (np.array(a, dtype=float) for a in (gradient, hessian))
        n = grid.n
        if g.shape != (grid.size, n) or H.shape != (grid.size, n, n):
            raise ValueError(
                f"derivatives have shapes {g.shape} and {H.shape}, "
                f"grid needs {(grid.size, n)} and {(grid.size, n, n)}"
            )
        # Filled as cached_property would fill it: the field stays frozen.
        K.__dict__["_derivatives"] = (_read_only(g), _read_only(H))
        return K

    def scaled(self, c: float) -> SupportField:
        """The field c phi, c > 0.  If this field has made its spectral
        pass, the new one takes c times its gradient and Hessian and makes
        none; otherwise it makes its own, on first use, as any field does."""
        phi = c * self.phi
        if "_derivatives" not in self.__dict__:
            return SupportField(self.grid, phi)
        g, H = self._derivatives
        return SupportField.with_derivatives(self.grid, phi, c * g, c * H)

    @property
    def gradient(self) -> np.ndarray:
        """Frame gradient D phi, shape (size, n)."""
        return self._derivatives[0]

    @property
    def hessian(self) -> np.ndarray:
        """Covariant Hessian D^2 phi in the orthonormal frame."""
        return self._derivatives[1]

    @property
    def A(self) -> np.ndarray:
        """Shifted second fundamental form A[phi] in the orthonormal frame."""
        return self._shifted[1]

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of A[phi] per node, ascending."""
        return _read_only(a_eigenvalues(self.A))

    def pA(self, m: int) -> np.ndarray:
        """p_m(A[phi]) per node, read-only, computed once per m (`memo`)."""
        return self.memo(_p_of_A, m)

    @cached_property
    def _boundary(self) -> BoundaryData:
        phi, q = self.phi, self._shifted[0]
        coshr = q + 0.5 * (phi + 1.0 / phi)
        u_tilde = q + 0.5 * (phi - 1.0 / phi)
        arrays = (coshr, u_tilde, phi[:, None] * self.eigenvalues)
        points = partial(_boundary_points, self.grid, phi, self.gradient, q, coshr, u_tilde)
        return BoundaryData(*(_read_only(a) for a in arrays), self.pA(self.grid.n), points)


def _boundary_points(grid: Grid, phi, g, q, coshr, u_tilde) -> tuple:
    """Read-only boundary points X and outward normals nu of the field phi
    with frame gradient g and q = |g|^2 / (2 phi), whose X and nu have the
    heights coshr and u_tilde."""
    grad_ambient = ambient_gradient(grid, g)
    z = grid.nodes
    X = np.empty((grid.size, grid.n + 2))
    nu = np.empty_like(X)
    X[:, :-1] = (q - 0.5 * (phi - 1.0 / phi))[:, None] * z - grad_ambient
    X[:, -1] = coshr
    nu[:, :-1] = (q - 0.5 * (phi + 1.0 / phi))[:, None] * z - grad_ambient
    nu[:, -1] = u_tilde
    return _read_only(X), _read_only(nu)


def per_field(fn):
    """Decorate fn(K, *ks), each k an index in 0..n, so that each field K
    computes it once per ks (`SupportField.memo`), keyed on the ints that
    `check_k` returns: fn(K, 1.0) raises even when fn(K, 1) is cached.
    fn(K, k=0) and fn(K, 0) share one entry."""
    signature = inspect.signature(fn)

    @wraps(fn)
    def cached(K: SupportField, *args, **kwargs):
        if kwargs:
            args = signature.bind(K, *args, **kwargs).args[1:]
        return K.memo(fn, *(check_k(K.grid.n, k) for k in args))

    return cached


@dataclass(frozen=True)
class ConvexityReport:  # frozen: `convexity` caches it on the field
    classification: str  # uniformly-h-convex | h-convex | not-h-convex
    min_eigenvalue: float
    argmin_node: int
    tol: float


def support_of_point(grid: Grid, X) -> SupportField:
    """Support field of a point X = (x, x_{n+1}): phi(z) = x_{n+1} - <x, z>.
    ArgumentError unless X has the n + 1 spatial coordinates of the grid's
    S^n and a height, and is a hyperboloid point (`lorentz.validate_hpoint`)."""
    X = np.asarray(X, dtype=float)
    if X.shape != (grid.n + 2,):
        raise ArgumentError(f"a point for a grid on S^{grid.n} needs {grid.n + 1} spatial "
                            f"coordinates and a height, got shape {X.shape}")
    lorentz.validate_hpoint(X)
    phi = X[-1] - grid.nodes @ X[:-1]
    return SupportField(grid, phi)


def support_of_ball(grid: Grid, X, r: float) -> SupportField:
    """Support field of the geodesic ball B(X, r): X a point as
    `support_of_point` takes it, r finite and >= 0."""
    K = support_of_point(grid, X)
    r = as_real(r, "ball radius")
    if r < 0.0:
        raise ArgumentError(f"ball radius must be nonnegative, got {r}")
    return outer_parallel(K, r)


def outer_parallel(K: SupportField, rho: float) -> SupportField:
    """The outer parallel body of K at distance rho: phi -> e^rho phi,
    with K's derivatives scaled if K has them (`SupportField.scaled`);
    rho must be a finite number."""
    rho = as_real(rho, "parallel distance")
    try:
        return K.scaled(math.exp(rho))
    except OverflowError:
        raise ValueError(f"distance {rho} is too large: e^{rho} overflows") from None


def plus_identity(M: np.ndarray, s: np.ndarray) -> np.ndarray:
    """M + s I, read-only, for pointwise forms M of shape (..., size, n, n)
    and a node field s of shape (..., size)."""
    out = M.copy()
    for i in range(M.shape[-1]):
        out[..., i, i] += s
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
    """p_m of the eigenvalues of pointwise symmetric forms, shape (...,
    size, n, n), via invariants."""
    n = A.shape[-1]
    if m == 0:
        return np.ones(A.shape[:-2])
    if n == 1:
        if m == 1:
            return A[..., 0, 0]
    else:
        if m == 1:
            return 0.5 * (A[..., 0, 0] + A[..., 1, 1])
        if m == 2:
            return A[..., 0, 0] * A[..., 1, 1] - A[..., 0, 1] ** 2
    raise ValueError(f"p_{m} undefined for {n}x{n} forms")


def _p_of_A(K: SupportField, m: int) -> np.ndarray:
    return _read_only(p_tensor(K.A, m))


def dp_tensor(A: np.ndarray, B: np.ndarray, m: int) -> np.ndarray:
    """d/dt p_m(A + t B) at t = 0 for pointwise symmetric forms, B a stack
    (..., size, n, n) of them if need be: p_m(B) for the linear p_1, and
    for p_2 = det on 2x2 forms the cofactor contraction A00 B11 + B00 A11
    - 2 A01 B01."""
    if m == 0:
        return np.zeros(B.shape[:-2])
    if m == 2 and A.shape[-1] == 2:
        return (A[..., 0, 0] * B[..., 1, 1] + B[..., 0, 0] * A[..., 1, 1]
                - 2.0 * A[..., 0, 1] * B[..., 0, 1])
    return p_tensor(B, m)


def squared_norm(g: np.ndarray) -> np.ndarray:
    """|g|^2 per node of frame vectors g, shape (size, n): the squared
    columns added in order, the bits of np.sum(g * g, axis=1) without a
    reduction over the short axis."""
    return _frame_dot(g, g)


def _frame_dot(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """g . h per node of frame vectors, shape (..., size, n), summed in
    order."""
    out = g[..., 0] * h[..., 0]
    for i in range(1, g.shape[-1]):
        out += g[..., i] * h[..., i]
    return out


def dA(K: SupportField, v: np.ndarray, dv: np.ndarray, d2v: np.ndarray) -> np.ndarray:
    """dA[v] = d/dt A[phi + t v] at t = 0, read-only, from v (size,), its
    frame gradient dv (size, n) and covariant Hessian d2v (size, n, n), or
    from stacks of them, (..., size), (..., size, n), (..., size, n, n):

        D^2 v + ((v + v / phi^2) / 2 - Dphi . Dv / phi + |Dphi|^2 v / (2 phi^2)) I,

    with |Dphi|^2 / (2 phi) read off K's cached q.  It is linear in v and
    makes no spectral pass."""
    phi, q = K.phi, K._shifted[0]
    # The node-wise factor first, so that a stack of v's takes few passes.
    factor = 0.5 * (1.0 + 1.0 / (phi * phi)) + q / phi
    return plus_identity(d2v, factor * v - _frame_dot(K.gradient, dv) / phi)


def check_k(n: int, k) -> int:
    """k as an int; ArgumentError unless n is 1 or 2 and k an integer in
    0..n: the one rule of the index k of p_{n-k}, W_k and I_k."""
    # Exact ints in range first: two type tests and two comparisons.
    if type(k) is int and type(n) is int and 0 <= k <= n and 1 <= n <= 2:
        return k
    k = as_integer(k, "k")
    if n not in (1, 2) or not 0 <= k <= n:
        raise ArgumentError(f"k must lie in 0..n for n = 1 or 2, got n = {n!r}, k = {k}")
    return k


def measure_density(K: SupportField, p: float, k: int) -> np.ndarray:
    """Density of dS_{p,k}(K, .) against dsigma: phi^{-p-k} p_{n-k}(A); at
    p = 0, of p_k(kappa~) dmu, as kappa~ = 1 / (phi eig A), dmu = p_n(A) dsigma;
    p is a finite number (`as_real`)."""
    n = K.grid.n
    k, p = check_k(n, k), as_real(p, "p")
    return K.phi ** (-(p + k)) * K.pA(n - k)


def d_measure_density(
    K: SupportField, p: float, k: int, v: np.ndarray, dv: np.ndarray, d2v: np.ndarray
) -> np.ndarray:
    """d/dt measure_density(phi + t v, p, k) at t = 0, from v and its
    derivatives as `dA` takes them, a stack of v's too:
    phi^{-p-k} (dp_m(A)[dA[v]] - (p + k) v p_m(A) / phi), m = n - k.  At
    p = 1 it is dw[v], the derivative of W_k's first variation
    w = phi^{-(k+1)} p_m(A)."""
    n = K.grid.n
    k, p = check_k(n, k), as_real(p, "p")
    m, phi = n - k, K.phi
    scale = (p + k) * K.pA(m) / phi
    return phi ** (-(p + k)) * (dp_tensor(K.A, dA(K, v, dv, d2v), m) - scale * v)


@per_field
def convexity(K: SupportField) -> ConvexityReport:
    """Classify by the minimum eigenvalue of A[phi] over the grid, against
    the tolerance UNIFORM_TOL_SCALE (1 + max phi); cached on K."""
    eigs = K.eigenvalues
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


def common_grid(K: SupportField, L: SupportField) -> Grid:
    """The grid of K and L; ArgumentError unless they share one."""
    if K.grid != L.grid:
        raise ArgumentError(
            f"fields must share one grid, got {K.grid.resolution} and {L.grid.resolution}"
        )
    return K.grid


def require_h_convex(K: SupportField, what: str) -> SupportField:
    """K; a ValueError naming what unless K is at least h-convex."""
    rep = convexity(K)
    if rep.classification == "not-h-convex":
        raise ValueError(
            f"{what} is not h-convex: min eig A = {rep.min_eigenvalue} at node {rep.argmin_node}"
        )
    return K


def boundary_data(K: SupportField) -> BoundaryData:
    """Boundary points, normals and curvature data of K, computed once
    per field; ValueError unless K is at least h-convex."""
    return require_h_convex(K, "field")._boundary


def apply_isometry_field(K: SupportField, F) -> SupportField:
    """Support field of the image domain under a Lorentz isometry.

    The new field at direction z~ is chi * phi(z), where (z, 1) is the
    normalized pullback of (z~, 1) under F^{-1} and chi is the pullback's
    height.  Resampling is band-limited synthesis on the source field.
    Public: it is the paper's isometry action, under which the
    quermassintegrals and h-convexity are invariant; `resample` serves it.
    ArgumentError unless F is an isometry of H^{n+1} for the grid's S^n.
    """
    grid, F = K.grid, np.asarray(F, dtype=float)
    lorentz.validate_isometry(F)
    if len(F) != grid.n + 2:
        raise ArgumentError(f"a field on S^{grid.n} needs a {grid.n + 2}x{grid.n + 2} isometry")
    Finv = lorentz.inverse_isometry(F)
    null = np.concatenate([grid.nodes, np.ones((grid.size, 1))], axis=1)
    W = null @ Finv.T
    chi = W[:, -1]
    src = W[:, :-1] / chi[:, None]
    src = src / np.linalg.norm(src, axis=1, keepdims=True)
    phi_new = chi * resample(grid, K.phi, src)
    return SupportField(grid, phi_new)


def shrink_into_cone(grid: Grid, c: float, pert: np.ndarray, margin: float = 0.0):
    """The first field c (1 + amp pert), amp = 1, 0.6, 0.36, ... above
    1e-3, that is uniformly h-convex with min eig A > margin; None if none is.

    A candidate with some 1 + amp pert <= 0 lies outside the cone.  One
    spectral pass over pert serves every candidate: each takes c amp times
    its gradient and Hessian."""
    g, H = derivatives(grid, pert)
    amp = 1.0
    while amp > 1e-3:
        factor = 1.0 + amp * pert
        # Not "> 0.0": a NaN goes on to SupportField, which refuses it.
        if not factor.min() <= 0.0:
            scale = c * amp
            K = SupportField.with_derivatives(grid, c * factor, scale * g, scale * H)
            rep = convexity(K)
            if rep.classification == "uniformly-h-convex" and rep.min_eigenvalue > margin:
                return K
        amp *= 0.6
    return None


def random_h_convex_fields(seed: int, grids: list[Grid], count: int) -> list[SupportField]:
    """Seeded corpus of count uniformly h-convex fields on the grids in turn;
    an ArgumentError unless seed and count are ints >= 0 (not bools) and
    grids is not empty."""
    seed, count = as_integer(seed, "seed"), as_integer(count, "count")
    for name, value in (("seed", seed), ("count", count)):
        if value < 0:
            raise ArgumentError(f"{name} must be nonnegative, got {value}")
    if not grids:
        raise ArgumentError("grids must name at least one grid")
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
        K = shrink_into_cone(grid, c, pert, margin=0.02)
        if K is not None:
            fields.append(K)
    return fields
