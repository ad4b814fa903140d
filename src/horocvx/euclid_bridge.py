"""Projection onto Euclidean convex bodies and the volume functionals.

The projection pi sends an h-convex domain to the Euclidean convex body
whose support function u^ equals phi; it intertwines the hyperbolic
p-sum with the Firey p-sum, and the weighted functionals V, V_p pull
back Euclidean volume and p-mixed volume.  Both functionals are
evaluated two ways: through the projection and directly as hyperbolic
boundary integrals, with the cross-residual reported as a certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .hconvex import SupportField, a_eigenvalues, boundary_data, convexity, plus_identity
from .psum import p_sum
from .quermass import p_tensor
from .sphere_grid import Grid, hessian, integrate

__all__ = [
    "EuclideanSupport",
    "BridgeReport",
    "project",
    "firey_sum",
    "commute_check",
    "euclid_volume",
    "euclid_mixed_volume_p",
    "V_functional",
    "V_p_functional",
    "ADMISSIBILITY_TOL",
]

ADMISSIBILITY_TOL = 1e-10


@dataclass(frozen=True)
class EuclideanSupport:
    """Euclidean support function u^ at grid nodes; D^2 u^ + u^ I >= 0.

    Immutable like SupportField: u_hat is a read-only copy, and the form
    D^2 u^ + u^ I is computed once, on first use, or taken from the
    field's cached Hessian by `project`.
    """

    grid: Grid
    u_hat: np.ndarray

    def __post_init__(self):
        u_hat = np.array(self.u_hat, dtype=float)
        if u_hat.shape != (self.grid.size,):
            raise ValueError(
                f"support has {u_hat.shape} values, grid has {self.grid.size} nodes"
            )
        # One pass each for min and max; NaN propagates into both.
        if not (0.0 < u_hat.min() and u_hat.max() < math.inf):
            raise ValueError("Euclidean support must be finite and positive")
        u_hat.flags.writeable = False
        object.__setattr__(self, "u_hat", u_hat)

    @cached_property
    def form(self) -> np.ndarray:
        """D^2 u^ + u^ I in the orthonormal frame, read-only."""
        return plus_identity(hessian(self.grid, self.u_hat), self.u_hat)


@dataclass
class BridgeReport:
    value: float
    cross_residual: float  # relative gap between the two evaluation routes


def _check_admissible(Khat: EuclideanSupport) -> None:
    eig_min = float(np.min(a_eigenvalues(Khat.form)[:, 0]))
    scale = 1.0 + float(np.max(Khat.u_hat))
    if eig_min < -ADMISSIBILITY_TOL * scale:
        raise ValueError(f"support function is not convex: min eig {eig_min}")


def project(K: SupportField) -> EuclideanSupport:
    """Euclidean body with support function u^ = phi.

    Admissibility is automatic for h-convex fields since
    D^2 phi + phi I = A[phi] + cosh(r) I.  The form is built from K's
    cached Hessian, so a projection costs no spectral pass.
    """
    report = convexity(K)
    if report.classification == "not-h-convex":
        raise ValueError("projection requires an h-convex field")
    hat = EuclideanSupport(K.grid, K.phi)
    # Fill the cached_property the way it fills itself on first use.
    hat.__dict__["form"] = plus_identity(K.hessian, hat.u_hat)
    return hat


def firey_sum(
    a: float, Khat: EuclideanSupport, p: float, b: float, Lhat: EuclideanSupport
) -> EuclideanSupport:
    """Firey combination (a u_K^p + b u_L^p)^{1/p}, p >= 1."""
    if p < 1.0:
        raise ValueError(f"Firey sum needs p >= 1, got {p}")
    if a < 0.0 or b < 0.0:
        raise ValueError("Firey coefficients must be nonnegative")
    if Khat.grid != Lhat.grid:
        raise ValueError("firey_sum requires a common grid")
    out = EuclideanSupport(
        Khat.grid, (a * Khat.u_hat**p + b * Lhat.u_hat**p) ** (1.0 / p)
    )
    _check_admissible(out)
    return out


def commute_check(
    a: float, K: SupportField, p: float, b: float, L: SupportField
) -> float:
    """Sup defect between pi(a K +_p b L) and the Firey sum of the
    projections; zero in exact arithmetic since both sides share the
    same pointwise algebra."""
    if p < 1.0:
        raise ValueError(f"commutation holds on the common range p in [1, 2], got {p}")
    hyperbolic = project(p_sum(a, K, p, b, L))
    euclidean = firey_sum(a, project(K), p, b, project(L))
    return float(np.max(np.abs(hyperbolic.u_hat - euclidean.u_hat)))


def euclid_volume(Khat: EuclideanSupport) -> float:
    """Euclidean volume (1/(n+1)) int u^ p_n(D^2 u^ + u^ I) dsigma."""
    _check_admissible(Khat)
    n = Khat.grid.n
    return integrate(Khat.grid, Khat.u_hat * p_tensor(Khat.form, n)) / (n + 1)


def euclid_mixed_volume_p(
    Khat: EuclideanSupport, Lhat: EuclideanSupport, p: float
) -> float:
    """p-mixed volume (1/(n+1)) int u_L^p u_K^{1-p} p_n(D^2 u_K + u_K I)."""
    if p < 1.0:
        raise ValueError(f"p-mixed volume needs p >= 1, got {p}")
    if Khat.grid != Lhat.grid:
        raise ValueError("mixed volume requires a common grid")
    _check_admissible(Khat)
    n = Khat.grid.n
    field = Lhat.u_hat**p * Khat.u_hat ** (1.0 - p) * p_tensor(Khat.form, n)
    return integrate(Khat.grid, field) / (n + 1)


def _hyperbolic_v_integrand(K: SupportField, p: float) -> np.ndarray:
    """phi_gap^{p - n - 1} p_n(cosh(r) kappa - u~) against dmu, evaluated
    from the boundary data with kappa = 1 + 1/lambda~."""
    bd = boundary_data(K)
    kappa = 1.0 + bd.kappa_tilde
    gap = bd.coshr - bd.u_tilde
    factors = bd.coshr[:, None] * kappa - bd.u_tilde[:, None]
    pn = np.prod(factors, axis=1)
    return pn / gap ** (K.grid.n + 1.0 - p) * bd.area_density


def V_functional(K: SupportField) -> BridgeReport:
    """Euclidean volume of the projection, computed both ways."""
    n = K.grid.n
    bridge = euclid_volume(project(K))
    direct = integrate(K.grid, _hyperbolic_v_integrand(K, 0.0)) / (n + 1)
    scale = max(1.0, abs(bridge))
    return BridgeReport(bridge, abs(bridge - direct) / scale)


def V_p_functional(K: SupportField, L: SupportField, p: float) -> BridgeReport:
    """p-mixed volume of the projections, computed both ways."""
    if K.grid != L.grid:
        raise ValueError("V_p requires a common grid")
    n = K.grid.n
    bridge = euclid_mixed_volume_p(project(K), project(L), p)
    field = L.phi**p * _hyperbolic_v_integrand(K, p)
    direct = integrate(K.grid, field) / (n + 1)
    scale = max(1.0, abs(bridge))
    return BridgeReport(bridge, abs(bridge - direct) / scale)
