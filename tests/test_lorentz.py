"""Minkowski algebra, hyperboloid points, boosts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horocvx.lorentz import (
    apply_isometry,
    boost,
    geodesic_distance,
    hpoint,
    inner,
    inverse_isometry,
    origin,
    validate_hpoint,
    validate_isometry,
)


def test_inner_signature():
    N = origin(1)
    assert inner(N, N) == -1.0
    e1 = np.array([1.0, 0.0, 0.0])
    assert inner(e1, e1) == 1.0
    assert inner(e1, N) == 0.0


def test_origin_and_hpoint():
    for n in (1, 2):
        N = origin(n)
        assert N.shape == (n + 2,)
        validate_hpoint(N)
    X = hpoint([3.0, 4.0])
    assert X.shape == (3,)
    assert math.isclose(X[-1], math.sqrt(26.0), rel_tol=1e-15)
    validate_hpoint(X)
    with pytest.raises(ValueError):
        validate_hpoint(np.array([1.0, 0.0, 1.0]))  # null vector
    with pytest.raises(ValueError):
        validate_hpoint(np.array([0.0, 0.0, -1.0]))  # past sheet
    # Every comparison with NaN is false, so NaN and inf must fail by name.
    for bad in ([math.nan, 0.0, 1.0], [0.0, 0.0, math.nan], [math.inf, 0.0, math.inf]):
        with pytest.raises(ValueError, match="not finite"):
            validate_hpoint(np.array(bad))


def test_geodesic_distance_oracle():
    # cosh d(N, (sinh s, cosh s)) = cosh s, so the distance equals |s|.
    N = origin(1)
    s = 0.8
    X = np.array([math.sinh(s), 0.0, math.cosh(s)])
    assert math.isclose(geodesic_distance(N, X), s, rel_tol=1e-13)
    assert geodesic_distance(N, N) == 0.0
    assert math.isclose(geodesic_distance(X, N), s, rel_tol=1e-13)
    with pytest.raises(ValueError):
        geodesic_distance(N, np.array([0.0, 0.0, 0.5]))


def test_geodesic_distance_resolves_nearby_points():
    # arccosh(-<X, Y>) rounds cosh d = 1 + 3.5e-24 to 1 and returns 0.
    N = origin(1)
    A = hpoint([2.658e-12, 0.0])
    assert math.isclose(geodesic_distance(N, A), 2.658e-12, rel_tol=1e-12)
    assert math.isclose(geodesic_distance(A, N), 2.658e-12, rel_tol=1e-12)
    # The Hypothesis example that missed the triangle inequality by 2.66e-12.
    B = hpoint([-1.0, 0.0])
    dAB = geodesic_distance(A, B)
    assert dAB <= geodesic_distance(A, N) + geodesic_distance(N, B) + 1e-12
    assert math.isclose(dAB, math.asinh(1.0) + 2.658e-12, rel_tol=0.0, abs_tol=1e-15)


def test_boost_moves_origin():
    for n in (1, 2):
        d = np.zeros(n + 1)
        d[0] = 1.0
        s = 0.65
        F = boost(n, d, s)
        validate_isometry(F)
        moved = apply_isometry(F, origin(n))
        want = np.zeros(n + 2)
        want[0] = math.sinh(s)
        want[-1] = math.cosh(s)
        assert np.allclose(moved, want, atol=1e-15)
        validate_hpoint(moved)


def test_boost_normalizes_direction():
    F1 = boost(1, [2.0, 0.0], 0.5)
    F2 = boost(1, [1.0, 0.0], 0.5)
    assert np.allclose(F1, F2, atol=0.0)
    with pytest.raises(ValueError):
        boost(1, [0.0, 0.0], 0.5)
    with pytest.raises(ValueError):
        boost(2, [1.0, 0.0], 0.5)  # wrong component count


def test_inverse_isometry():
    F = boost(2, [0.6, -0.8, 0.0], 1.1)
    G = inverse_isometry(F)
    assert np.allclose(G @ F, np.eye(4), atol=1e-12)
    assert np.allclose(F @ G, np.eye(4), atol=1e-12)
    validate_isometry(G)


def test_apply_isometry_rejects_non_isometries():
    with pytest.raises(ValueError):
        apply_isometry(2.0 * np.eye(3), origin(1))
    with pytest.raises(ValueError):
        validate_isometry(np.eye(3)[:2])
    # Time reversal satisfies F^T eta F = eta but swaps the sheets.
    T = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ValueError):
        validate_isometry(T)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            apply_isometry(np.full((3, 3), bad), origin(1))
        F = np.eye(3)
        F[0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            validate_isometry(F)


def test_apply_isometry_batches():
    F = boost(1, [1.0, 0.0], 0.3)
    pts = np.stack([origin(1), hpoint([0.5, 0.0]), hpoint([-0.25, 0.1])])
    moved = apply_isometry(F, pts)
    assert moved.shape == pts.shape
    for row in moved:
        validate_hpoint(row)
    # Isometries preserve pairwise distances.
    d0 = geodesic_distance(pts[0], pts[1])
    d1 = geodesic_distance(moved[0], moved[1])
    assert math.isclose(d0, d1, rel_tol=0.0, abs_tol=1e-12)


@given(
    s=st.floats(min_value=-2.0, max_value=2.0),
    t=st.floats(min_value=-2.0, max_value=2.0),
)
@settings(max_examples=40, deadline=None)
def test_boosts_along_one_axis_compose_additively(s, t):
    d = np.array([1.0, 0.0])
    F = boost(1, d, s) @ boost(1, d, t)
    assert np.allclose(F, boost(1, d, s + t), atol=1e-12)


@given(
    ax=st.floats(min_value=-1.5, max_value=1.5),
    ay=st.floats(min_value=-1.5, max_value=1.5),
    bx=st.floats(min_value=-1.5, max_value=1.5),
    by=st.floats(min_value=-1.5, max_value=1.5),
)
@settings(max_examples=40, deadline=None)
def test_triangle_inequality(ax, ay, bx, by):
    N = origin(1)
    A = hpoint([ax, ay])
    B = hpoint([bx, by])
    dAB = geodesic_distance(A, B)
    dAN = geodesic_distance(A, N)
    dNB = geodesic_distance(N, B)
    assert dAB <= dAN + dNB + 1e-12
