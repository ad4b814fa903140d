"""Support fields, the shifted form A[phi], boundary recovery."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horocvx.hconvex import (
    BoundaryData,
    SupportField,
    a_eigenvalues,
    apply_isometry_field,
    boundary_data,
    convexity,
    support_of_ball,
    support_of_point,
)
from horocvx.lorentz import boost, geodesic_distance, origin, validate_hpoint
from horocvx.sphere_grid import integrate, make_grid

S1 = make_grid(1, 64)
S2 = make_grid(2, 12)


def ball_at_origin(grid, r):
    return support_of_ball(grid, origin(grid.n), r)


# ---------------------------------------------------------------------------
# construction


def test_support_field_validation():
    with pytest.raises(ValueError):
        SupportField(S1, np.ones(S1.size - 1))
    with pytest.raises(ValueError):
        SupportField(S1, np.zeros(S1.size))
    K = SupportField(S1, np.full(S1.size, 2.0))
    assert np.allclose(K.u, math.log(2.0), atol=1e-15)


def test_support_field_is_an_immutable_copy():
    values = np.full(S2.size, 2.0)
    K = SupportField(S2, values)
    values[0] = 3.0
    assert K.phi[0] == 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        K.phi = values
    with pytest.raises(ValueError, match="read-only"):
        K.phi[0] = 3.0


def test_cached_geometry_is_read_only_and_computed_once():
    theta = S1.theta
    K = SupportField(S1, 2.0 * (1.0 + 0.05 * np.cos(2 * theta)))
    bd = boundary_data(K)
    assert boundary_data(K) is bd and K.A is K.A
    cached = (K.gradient, K.hessian, K.A, K.eigenvalues, bd.kappa_tilde)
    cached += tuple(getattr(bd, f.name) for f in dataclasses.fields(bd))
    for array in cached:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0


def test_kappa_tilde_needs_positive_radii():
    ones = np.ones((3, 1))
    bd = BoundaryData(ones, ones, ones, ones, np.array([[2.0], [0.5], [4.0]]), ones)
    assert np.array_equal(bd.kappa_tilde, [[0.5], [2.0], [0.25]])
    # A zero radius is a point of the boundary with no curvature data.
    bd = BoundaryData(ones, ones, ones, ones, np.array([[2.0], [0.0], [4.0]]), ones)
    with pytest.raises(ValueError, match="uniformly h-convex"):
        bd.kappa_tilde


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_support_field_rejects_non_finite_values(bad):
    phi = np.full(S1.size, 2.0)
    phi[7] = bad
    with pytest.raises(ValueError, match="finite"):
        SupportField(S1, phi)


def test_support_of_point_formula():
    # phi(z) = x_{n+1} - <x, z> for the point X = (x, x_{n+1}).
    X = np.array([0.3, -0.1, math.sqrt(1.1)])
    K = support_of_point(S1, X)
    want = X[-1] - S1.nodes @ X[:-1]
    assert np.allclose(K.phi, want, atol=0.0)
    with pytest.raises(ValueError):
        support_of_point(S1, np.array([0.3, -0.1, 1.0]))


def test_support_of_ball_scales_point_field():
    X = origin(2)
    K = support_of_ball(S2, X, math.log(2.0))
    assert np.allclose(K.phi, 2.0, atol=1e-15)
    with pytest.raises(ValueError):
        support_of_ball(S2, X, -0.1)


# ---------------------------------------------------------------------------
# the shifted form and convexity classes


def test_ball_a_tensor_is_constant_multiple_of_identity():
    # For phi = c the form is A = (1/2)(c - 1/c) I.
    for grid in (S1, S2):
        c = 2.0
        K = SupportField(grid, np.full(grid.size, c))
        A = K.A
        want = 0.5 * (c - 1.0 / c)
        idx = np.arange(grid.n)
        assert np.allclose(A[:, idx, idx], want, atol=1e-11)
        off = A - np.einsum("i,jk->ijk", np.full(grid.size, want), np.eye(grid.n))
        assert np.max(np.abs(off)) < 1e-11


def test_point_field_has_vanishing_a():
    # A single point is the degenerate ball r = 0: A[phi_point] = 0.
    X = np.array([0.4, 0.2, -0.1, math.sqrt(1.0 + 0.16 + 0.04 + 0.01)])
    K = support_of_point(S2, X)
    A = K.A
    assert np.max(np.abs(A)) < 1e-10
    report = convexity(K)
    assert report.classification in ("h-convex", "uniformly-h-convex")


def test_convexity_classes():
    theta = S1.theta
    good = SupportField(S1, 2.0 * (1.0 + 0.05 * np.cos(2 * theta)))
    assert convexity(good).classification == "uniformly-h-convex"
    # A large mode-3 ripple has |phi''| exceeding (phi - 1/phi)/2 somewhere.
    bad = SupportField(S1, 2.2 * (1.0 + 0.05 * np.cos(3 * theta)))
    report = convexity(bad)
    assert report.classification == "not-h-convex"
    assert report.min_eigenvalue < 0.0
    with pytest.raises(ValueError):
        boundary_data(bad)


def test_a_eigenvalues_ascending():
    theta = S2.theta
    L, M = S2.resolution
    f = 2.0 + 0.1 * np.repeat(np.cos(theta), M) ** 2
    eigs = a_eigenvalues(SupportField(S2, f).A)
    assert eigs.shape == (S2.size, 2)
    assert np.all(eigs[:, 0] <= eigs[:, 1] + 1e-15)


# ---------------------------------------------------------------------------
# boundary recovery oracles


def test_ball_boundary_values():
    # phi = 2 gives cosh r = 5/4, u_tilde = 3/4, lambda_tilde = 3/2,
    # area density (3/4)^n, and X = (-sinh r z, cosh r) with sinh r = 3/4.
    for grid in (S1, S2):
        K = SupportField(grid, np.full(grid.size, 2.0))
        bd = boundary_data(K)
        assert np.allclose(bd.coshr, 1.25, atol=1e-12)
        assert np.allclose(bd.u_tilde, 0.75, atol=1e-12)
        assert np.allclose(bd.lambda_tilde, 1.5, atol=1e-12)
        assert np.allclose(bd.area_density, 0.75**grid.n, atol=1e-12)
        assert np.allclose(bd.X[:, :-1], -0.75 * grid.nodes, atol=1e-12)
        assert np.allclose(bd.X[:, -1], 1.25, atol=1e-12)
        for row in bd.X:
            validate_hpoint(row, tol=1e-10)


def test_point_boundary_collapses_to_the_point():
    X = np.array([0.25, -0.4, math.sqrt(1.0 + 0.0625 + 0.16)])
    K = support_of_point(S1, X)
    bd = boundary_data(K)
    assert np.max(np.abs(bd.X - X[None, :])) < 1e-9
    assert np.allclose(bd.coshr - bd.u_tilde, 1.0 / K.phi, atol=1e-10)


def test_normal_gauge_relation():
    # X - nu = phi^{-1} (z, 1) holds pointwise for any h-convex field.
    theta = S1.theta
    K = SupportField(S1, 2.0 * (1.0 + 0.1 * np.cos(2 * theta)))
    bd = boundary_data(K)
    diff = bd.X - bd.nu
    want = np.concatenate([S1.nodes, np.ones((S1.size, 1))], axis=1) / K.phi[:, None]
    assert np.max(np.abs(diff - want)) < 1e-10
    # nu is unit spacelike and orthogonal to X.
    sq = np.sum(bd.nu[:, :-1] ** 2, axis=1) - bd.nu[:, -1] ** 2
    assert np.allclose(sq, 1.0, atol=1e-9)
    ip = np.sum(bd.X[:, :-1] * bd.nu[:, :-1], axis=1) - bd.X[:, -1] * bd.nu[:, -1]
    assert np.allclose(ip, 0.0, atol=1e-9)


def test_derived_scalars_consistency():
    theta = S1.theta
    K = SupportField(S1, 1.8 * (1.0 + 0.08 * np.cos(2 * theta)))
    bd = boundary_data(K)
    # cosh r - u_tilde = 1 / phi and cosh r = height of X.
    assert np.allclose(bd.coshr - bd.u_tilde, 1.0 / K.phi, atol=1e-12)
    assert np.allclose(bd.coshr, bd.X[:, -1], atol=1e-12)
    # lambda_tilde = phi * eig(A) and area density = det A.
    A = K.A
    assert np.allclose(bd.lambda_tilde[:, 0], K.phi * A[:, 0, 0], atol=1e-12)
    assert np.allclose(bd.area_density, A[:, 0, 0], atol=0.0)


def test_offcenter_ball_boundary_lies_at_constant_distance():
    s, r = 0.5, 0.6
    for grid in (S1, S2):
        d = np.zeros(grid.n + 1)
        d[0] = 1.0
        F = boost(grid.n, d, s)
        center = F[:, -1].copy()  # image of the base point
        K = SupportField(
            grid, math.exp(r) * (center[-1] - grid.nodes @ center[:-1])
        )
        bd = boundary_data(K)
        dist = geodesic_distance(bd.X, center[None, :])
        assert np.max(np.abs(dist - r)) < 1e-9


# ---------------------------------------------------------------------------
# isometry covariance


def test_isometry_covariance_of_ball():
    # Moving a concentric ball by a boost gives the support field of the
    # moved ball, exactly in the band-limited sense.
    r = 0.4
    for grid in (S1, S2):
        K = ball_at_origin(grid, r)
        d = np.zeros(grid.n + 1)
        d[0] = 1.0
        F = boost(grid.n, d, 0.35)
        moved = apply_isometry_field(K, F)
        center = F[:, -1]
        want = math.exp(r) * (center[-1] - grid.nodes @ center[:-1])
        assert np.max(np.abs(moved.phi - want)) < 1e-9


def test_isometry_preserves_curvature_range():
    theta = S1.theta
    K = SupportField(S1, 2.0 * (1.0 + 0.06 * np.cos(2 * theta)))
    F = boost(1, [0.0, 1.0], 0.3)
    moved = apply_isometry_field(K, F)
    # The multiset of shifted radii is isometry invariant; compare the
    # integral of the density, which is the boundary measure's mass.
    m0 = integrate(S1, boundary_data(K).area_density)
    m1 = integrate(S1, boundary_data(moved).area_density)
    assert math.isclose(m0, m1, rel_tol=1e-8)


# ---------------------------------------------------------------------------
# property tests


@given(
    r=st.floats(min_value=0.05, max_value=1.5),
    s=st.floats(min_value=-0.8, max_value=0.8),
)
@settings(max_examples=20, deadline=None)
def test_ball_fields_are_uniformly_h_convex(r, s):
    F = boost(1, [1.0, 0.0], s)
    center = F[:, -1]
    K = SupportField(S1, math.exp(r) * (center[-1] - S1.nodes @ center[:-1]))
    report = convexity(K)
    assert report.classification == "uniformly-h-convex"
    # |D phi| < phi holds for every h-convex support field.
    bd = boundary_data(K)
    assert np.all(bd.coshr >= 1.0 - 1e-12)


@given(c=st.floats(min_value=1.05, max_value=6.0))
@settings(max_examples=20, deadline=None)
def test_constant_fields_recover_log_radius(c):
    K = SupportField(S1, np.full(S1.size, c))
    bd = boundary_data(K)
    # cosh r = (c + 1/c) / 2 means r = log c for the origin ball.
    assert np.allclose(np.arccosh(bd.coshr), math.log(c), atol=1e-10)
