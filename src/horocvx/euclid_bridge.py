"""Projection onto Euclidean convex bodies and the volume functionals.

The projection pi sends an h-convex domain to the Euclidean convex body
whose support function u^ equals phi, so on node arrays it is the
identity: a Euclidean body is a SupportField too, and `euclid_form`
gives its form D^2 u^ + u^ I.  `euclid_density`, the form's p_n after
its positive-semidefinite check, is computed once per field and read by
the Firey sum, the Euclidean volume and the p-mixed volume.  pi
intertwines the hyperbolic p-sum with the Firey p-sum, and the weighted
functionals V, V_p pull back Euclidean volume and p-mixed volume.  The Firey side takes a finite
p >= 1 only, one rule (`_firey_p`) for the Firey sum, the commutation
check and the p-mixed volume.  Both functionals are evaluated two
ways: through the projection and directly as hyperbolic boundary
integrals, with the cross-residual reported as a certificate; the
boundary integrand's factors that do not depend on p are cached per
field.
`V_functional` is computed once per field and then read from the
field's cache (`hconvex.per_field`), so its `BridgeReport` is frozen:
every caller shares the cached one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hconvex import (
    SupportField,
    a_eigenvalues,
    boundary_data,
    common_grid,
    p_tensor,
    per_field,
    plus_identity,
    require_h_convex,
)
from .psum import p_sum, power_sum
from .sphere_grid import ArgumentError, as_real, integrate

__all__ = [
    "BridgeReport",
    "project",
    "euclid_form",
    "euclid_density",
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
class BridgeReport:
    value: float
    cross_residual: float  # relative gap between the two evaluation routes


def euclid_form(K: SupportField) -> np.ndarray:
    """D^2 phi + phi I in the orthonormal frame, read-only: the form whose
    p_n is the Euclidean curvature-radius density of the body with
    support function phi.  Built from K's cached Hessian."""
    return plus_identity(K.hessian, K.phi)


def euclid_density(Khat: SupportField) -> np.ndarray:
    """p_n(D^2 u^ + u^ I) per node, read-only: the Euclidean
    curvature-radius density of the body with support function u^ = phi,
    computed once per field (`SupportField.memo`).  A ValueError unless
    the form is positive semidefinite, to ADMISSIBILITY_TOL (1 + max phi)."""
    return Khat.memo(_euclid_density)


def _euclid_density(Khat: SupportField) -> np.ndarray:
    form = euclid_form(Khat)
    eig_min = float(np.min(a_eigenvalues(form)[:, 0]))
    scale = 1.0 + float(np.max(Khat.phi))
    if eig_min < -ADMISSIBILITY_TOL * scale:
        raise ValueError(f"support function is not convex: min eig {eig_min}")
    density = p_tensor(form, Khat.grid.n)
    density.flags.writeable = False
    return density


def _firey_p(p, what: str) -> float:
    """p as a float; ArgumentError naming what unless p is finite and >= 1."""
    p = as_real(p, what)
    if p < 1.0:
        raise ArgumentError(f"{what} must be at least 1, got {p}")
    return p


def project(K: SupportField) -> SupportField:
    """The Euclidean body with support function phi, which is K itself.

    Admissibility is automatic for h-convex fields since
    D^2 phi + phi I = A[phi] + cosh(r) I, so only h-convexity is checked.
    """
    return require_h_convex(K, "field to project")


def firey_sum(
    a: float, Khat: SupportField, p: float, b: float, Lhat: SupportField
) -> SupportField:
    """Firey combination (a u_K^p + b u_L^p)^{1/p}, p >= 1."""
    p = _firey_p(p, "Firey sum p")
    a, b = as_real(a, "Firey coefficient a"), as_real(b, "Firey coefficient b")
    if a < 0.0 or b < 0.0:
        raise ArgumentError(f"Firey coefficients must be nonnegative, got a={a}, b={b}")
    out = power_sum(a, Khat, p, b, Lhat)
    euclid_density(out)
    return out


def commute_check(
    a: float, K: SupportField, p: float, b: float, L: SupportField
) -> float:
    """Sup defect between pi(a K +_p b L) and the Firey sum of the
    projections; zero in exact arithmetic since both sides share the
    same pointwise algebra.  Public: it is the paper's bridge statement,
    that the projection carries p-sums to Firey sums."""
    p = _firey_p(p, "commutation p")
    hyperbolic = project(p_sum(a, K, p, b, L))
    euclidean = firey_sum(a, project(K), p, b, project(L))
    return float(np.max(np.abs(hyperbolic.phi - euclidean.phi)))


def euclid_volume(Khat: SupportField) -> float:
    """Euclidean volume (1/(n+1)) int u^ p_n(D^2 u^ + u^ I) dsigma."""
    n = Khat.grid.n
    return integrate(Khat.grid, Khat.phi * euclid_density(Khat)) / (n + 1)


def euclid_mixed_volume_p(Khat: SupportField, Lhat: SupportField, p: float) -> float:
    """p-mixed volume (1/(n+1)) int u_L^p u_K^{1-p} p_n(D^2 u_K + u_K I)."""
    p = _firey_p(p, "p-mixed volume p")
    n = common_grid(Khat, Lhat).n
    field = Lhat.phi**p * Khat.phi ** (1.0 - p) * euclid_density(Khat)
    return integrate(Khat.grid, field) / (n + 1)


def _hyperbolic_v_integrand(K: SupportField, p: float) -> np.ndarray:
    """phi_gap^{p - n - 1} p_n(cosh(r) kappa - u~) against dmu, evaluated
    from the boundary data with kappa = 1 + 1/lambda~; its p-independent
    factors are computed once per field."""
    gap, pn, area_density = K.memo(_v_factors)
    return pn / gap ** (K.grid.n + 1.0 - p) * area_density


def _v_factors(K: SupportField) -> tuple:
    """phi_gap = cosh r - u~, p_n(cosh(r) kappa - u~) and dmu / dsigma, read-only."""
    bd = boundary_data(K)
    kappa = 1.0 + bd.kappa_tilde
    gap = bd.coshr - bd.u_tilde
    pn = np.prod(bd.coshr[:, None] * kappa - bd.u_tilde[:, None], axis=1)
    gap.flags.writeable = pn.flags.writeable = False
    return gap, pn, bd.area_density


@per_field
def V_functional(K: SupportField) -> BridgeReport:
    """Euclidean volume of the projection, computed both ways, cached on K."""
    n = K.grid.n
    bridge = euclid_volume(project(K))
    direct = integrate(K.grid, _hyperbolic_v_integrand(K, 0.0)) / (n + 1)
    scale = max(1.0, abs(bridge))
    return BridgeReport(bridge, abs(bridge - direct) / scale)


def V_p_functional(K: SupportField, L: SupportField, p: float) -> BridgeReport:
    """p-mixed volume of the projections, computed both ways."""
    n = common_grid(K, L).n
    bridge = euclid_mixed_volume_p(project(K), project(L), p)
    field = L.phi**p * _hyperbolic_v_integrand(K, p)
    direct = integrate(K.grid, field) / (n + 1)
    scale = max(1.0, abs(bridge))
    return BridgeReport(bridge, abs(bridge - direct) / scale)
