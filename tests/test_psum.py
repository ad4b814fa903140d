"""p-sums, p-dilations, and the two-point ball construction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horocvx.hconvex import SupportField, support_of_ball, support_of_point
from horocvx.lorentz import boost, origin
from horocvx.psum import (
    TwoPointBall,
    compatibility_check,
    dilates_check,
    p_dilate,
    p_sum,
    two_point_ball,
)
from horocvx.sphere_grid import ArgumentError, make_grid

S1 = make_grid(1, 64)
S2 = make_grid(2, 12)


def concentric_radius(p, a, r1, b, r2):
    """Radius of a p-sum of concentric balls: (1/p) log(a e^{p r1} + b e^{p r2})."""
    return math.log(a * math.exp(p * r1) + b * math.exp(p * r2)) / p


# ---------------------------------------------------------------------------
# argument validation


def test_p_sum_domain_checks():
    K = support_of_ball(S1, origin(1), 0.5)
    L = support_of_ball(S1, origin(1), 0.7)
    with pytest.raises(ValueError):
        p_sum(0.5, K, 0.4, 0.5, L)  # p out of range
    with pytest.raises(ValueError):
        p_sum(0.5, K, 2.5, 0.5, L)
    with pytest.raises(ValueError):
        p_sum(0.4, K, 1.0, 0.4, L)  # a + b < 1
    with pytest.raises(ValueError):
        p_sum(-0.1, K, 1.0, 1.2, L)
    K2 = support_of_ball(make_grid(1, 32), origin(1), 0.5)
    with pytest.raises(ValueError):
        p_sum(0.5, K2, 1.0, 0.5, L)  # grid mismatch
    for bad in (math.nan, math.inf):
        # Refused where they enter, not by the non-finite field they make.
        with pytest.raises(ArgumentError, match="coefficient a must be a finite number"):
            p_sum(bad, K, 1.0, 1.0, L)
        with pytest.raises(ArgumentError, match="coefficient b must be a finite number"):
            p_sum(1.0, K, 1.0, bad, L)


def test_p_dilate_domain_checks():
    K = support_of_ball(S1, origin(1), 0.5)
    with pytest.raises(ValueError):
        p_dilate(0.9, 1.0, K)
    with pytest.raises(ValueError):
        p_dilate(2.0, 0.0, K)
    for bad in (math.nan, math.inf):
        with pytest.raises(ArgumentError, match="p-dilation a must be a finite number"):
            p_dilate(bad, 1.0, K)


# ---------------------------------------------------------------------------
# concentric balls: closed-form radius


def test_concentric_ball_sum_is_a_ball():
    r1, r2, p, a, b = 0.4, 0.9, 1.5, 0.7, 0.6
    K = support_of_ball(S1, origin(1), r1)
    L = support_of_ball(S1, origin(1), r2)
    out = p_sum(a, K, p, b, L)
    want = concentric_radius(p, a, r1, b, r2)
    assert np.allclose(out.phi, math.exp(want), atol=1e-13)
    rep = dilates_check(K, out)
    assert rep.is_dilate
    assert rep.ratio_variation < 1e-12


def test_p_dilate_is_outer_parallel_set():
    # a . K for a ball of radius r is the ball of radius r + log(a)/p.
    r, a, p = 0.6, 1.8, 1.25
    K = support_of_ball(S2, origin(2), r)
    out = p_dilate(a, p, K)
    assert np.allclose(out.phi, math.exp(r + math.log(a) / p), atol=1e-13)


def test_p_sum_associativity_on_support_level():
    theta = S1.theta
    K = SupportField(S1, 2.0 * (1.0 + 0.05 * np.cos(2 * theta)))
    L = support_of_ball(S1, origin(1), 0.5)
    M = support_of_ball(S1, origin(1), 0.8)
    p = 1.5
    left = p_sum(1.0, p_sum(1.0, K, p, 1.0, L), p, 1.0, M)
    right = p_sum(1.0, K, p, 1.0, p_sum(1.0, L, p, 1.0, M))
    assert np.allclose(left.phi, right.phi, atol=1e-12)


@given(
    p=st.floats(min_value=0.5, max_value=2.0),
    a=st.floats(min_value=0.1, max_value=2.0),
    b=st.floats(min_value=0.1, max_value=2.0),
    r1=st.floats(min_value=0.1, max_value=1.2),
    r2=st.floats(min_value=0.1, max_value=1.2),
)
@settings(max_examples=40, deadline=None)
def test_concentric_radius_property(p, a, b, r1, r2):
    if a + b < 1.0:
        a, b = a + 1.0, b
    K = support_of_ball(S1, origin(1), r1)
    L = support_of_ball(S1, origin(1), r2)
    out = p_sum(a, K, p, b, L)
    want = concentric_radius(p, a, r1, b, r2)
    assert np.max(np.abs(np.log(out.phi) - want)) < 1e-12


# ---------------------------------------------------------------------------
# two-point construction


def test_two_point_ball_p1_midpoint():
    # p = 1, a = b = 1: T = X + Y, R^2 = 2 + 2 cosh d.
    s = 0.9
    X = origin(1)
    Y = np.array([math.sinh(s), 0.0, math.cosh(s)])
    ball = two_point_ball(1.0, 0.3, 1.0, X, 1.0, Y)
    R = math.sqrt(2.0 + 2.0 * math.cosh(s))
    assert not ball.empty
    assert math.isclose(ball.radius, math.log(R), rel_tol=1e-14)
    assert np.allclose(ball.center, (X + Y) / R, atol=1e-14)


def test_two_point_ball_p1_t_independent():
    X = origin(2)
    Y = np.array([0.3, -0.2, 0.0, math.sqrt(1.13)])
    b0 = two_point_ball(1.0, 0.0, 0.8, X, 0.9, Y)
    b1 = two_point_ball(1.0, 0.77, 0.8, X, 0.9, Y)
    assert math.isclose(b0.radius, b1.radius, rel_tol=0.0, abs_tol=1e-15)
    assert np.allclose(b0.center, b1.center, atol=1e-15)


def test_two_point_ball_sub_one_p_endpoints_are_whole_space():
    # For p < 1 the exponent 1/q is negative, so t = 0 or 1 produces an
    # infinite-radius ball that imposes no constraint.
    X = origin(1)
    Y = np.array([0.5, 0.0, math.sqrt(1.25)])
    for t in (0.0, 1.0):
        ball = two_point_ball(0.75, t, 1.0, X, 1.0, Y)
        assert math.isinf(ball.radius)
        assert not ball.empty


def test_two_point_ball_can_be_empty():
    # Tiny coefficients at p > 1 give R < 1: an empty ball.
    X = origin(1)
    Y = np.array([0.2, 0.0, math.sqrt(1.04)])
    ball = two_point_ball(2.0, 0.5, 0.0, X, 1.0, Y)
    # ca = 0, cb = sqrt(t) = sqrt(1/2) < 1.
    assert ball.empty
    assert ball.radius < 0.0


def test_two_point_ball_of_a_zero_coefficient_at_its_own_endpoint_is_empty():
    # At p > 1, a = 0 and t = 0 give ca = 0 and cb = t^{1/q} b^{1/p} = 0:
    # T = 0, no center and no radius.  So do b = 0 and t = 1.
    X = origin(1)
    Y = np.array([0.2, 0.0, math.sqrt(1.04)])
    for p in (1.5, 2.0):
        for ball in (two_point_ball(p, 0.0, 0.0, X, 1.0, Y),
                     two_point_ball(p, 1.0, 1.0, X, 0.0, Y)):
            assert ball == TwoPointBall(None, -math.inf, True)


def test_two_point_ball_figure_configuration():
    # p = 2, t = 16/25, a = b = 1, X = N, Y = (1, 0, sqrt 2):
    # ca = 3/5, cb = 4/5, T = (4/5, 0, (3 + 4 sqrt 2)/5),
    # R^2 = 9/25 + 16/25 + 2 (12/25) sqrt 2 = (25 + 24 sqrt 2)/25.
    X = origin(1)
    Y = np.array([1.0, 0.0, math.sqrt(2.0)])
    ball = two_point_ball(2.0, 16.0 / 25.0, 1.0, X, 1.0, Y)
    R2 = (25.0 + 24.0 * math.sqrt(2.0)) / 25.0
    assert math.isclose(ball.radius, 0.5 * math.log(R2), rel_tol=0.0, abs_tol=1e-12)
    want_center = np.array([4.0 / 5.0, 0.0, (3.0 + 4.0 * math.sqrt(2.0)) / 5.0])
    want_center = want_center / math.sqrt(R2)
    assert np.allclose(ball.center, want_center, atol=1e-12)


def test_two_point_sum_matches_ball_family():
    X = origin(1)
    Y = np.array([0.6, 0.1, math.sqrt(1.37)])
    for p in (0.75, 1.0, 1.5, 2.0):
        defect = compatibility_check(S1, p, 1.0, X, 0.8, Y, samples=400)
        assert defect < 1e-6, f"p={p}: defect {defect}"


@pytest.mark.parametrize(
    "a, b, p",
    [(0.5, 0.5, 1.5), (0.5, 0.5, 2.0), (0.3, 0.7, 1.5), (0.3, 0.7, 2.0),
     (0.5, 0.5 - 1e-13, 1.0), (0.5, 0.5 - 1e-13, 1.5), (0.5, 0.5 - 1e-13, 2.0)],
)
def test_self_sum_of_a_point_with_no_sampled_ball_is_a_value_error(a, b, p):
    # X = Y.  At a + b = 1 and p > 1 the ball of t has R < 1 except at
    # t = b / (a + b), which no sample hits; at a + b within COEFF_SLACK
    # below 1, R < 1 at every t.  Either way every sampled ball is empty.
    X = origin(1)
    with pytest.raises(ValueError, match="every sampled ball of the two-point family is empty"):
        compatibility_check(S1, p, a, X, b, X)


@pytest.mark.parametrize("a, b", [(0.5, 0.5), (0.3, 0.7)])
def test_self_sum_of_a_point_at_p_at_most_1_is_the_point(a, b):
    # a + b = 1: at p = 1 every ball is the point X itself (R = 1); at
    # p < 1 the intersection of the open family shrinks onto it.
    X = origin(1)
    assert compatibility_check(S1, 1.0, a, X, b, X) == 0.0
    assert compatibility_check(S1, 0.75, a, X, b, X) < 1e-6


@pytest.mark.parametrize("p", [0.75, 1.0, 1.5, 2.0])
def test_two_point_sum_is_the_p_sum_of_the_point_fields_bitwise(p):
    # The sum of two points, the field compatibility_check recovers its
    # boundary from, is the power sum of the point fields, bit for bit.
    X = origin(1)
    Y = np.array([0.6, 0.1, math.sqrt(1.37)])
    fX, fY = support_of_point(S1, X), support_of_point(S1, Y)
    field = p_sum(1.0, fX, p, 0.8, fY)
    assert np.array_equal(field.phi, (1.0 * fX.phi**p + 0.8 * fY.phi**p) ** (1.0 / p))


def test_two_point_sum_field_positive_and_convex():
    X = origin(2)
    Y = np.array([0.4, 0.0, 0.3, math.sqrt(1.25)])
    field = p_sum(1.0, support_of_point(S2, X), 1.5, 1.0, support_of_point(S2, Y))
    assert np.all(field.phi > 0.0)


# ---------------------------------------------------------------------------
# dilates detection


def test_dilates_check_detects_rescaled_field():
    theta = S1.theta
    K = SupportField(S1, 2.0 * (1.0 + 0.05 * np.cos(2 * theta)))
    L = SupportField(S1, 1.37 * K.phi)
    rep = dilates_check(K, L)
    assert rep.is_dilate
    assert rep.ratio_variation < 1e-14


def test_dilates_check_rejects_different_shapes():
    theta = S1.theta
    K = SupportField(S1, 2.0 * (1.0 + 0.05 * np.cos(2 * theta)))
    L = SupportField(S1, np.full(S1.size, 2.0))
    rep = dilates_check(K, L)
    assert not rep.is_dilate
    assert rep.ratio_variation > 0.01
