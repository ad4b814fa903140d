"""Surface-area measures, prescription problems, ball classification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horocvx.hconvex import SupportField, random_h_convex_fields, support_of_ball
from horocvx.lorentz import origin
from horocvx.problems import (
    J_p,
    ball_solutions,
    check_assumption_h,
    kw_residual,
    measure_density,
    mixed_quermass,
    pde_residual,
)
from horocvx.quermass import curvature_integral, modified_quermass
from horocvx.sphere_grid import make_grid

S1 = make_grid(1, 64)
S2 = make_grid(2, 12)


def zeta(c, n, k, p):
    return c ** (-(p + k)) * (0.5 * (c - 1.0 / c)) ** (n - k)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_data_f_must_be_finite(bad):
    K = support_of_ball(S1, origin(1), 0.5)
    f = np.ones(S1.size)
    f[11] = bad
    with pytest.raises(ValueError, match="finite"):
        J_p(K, f, 1.0)
    f2 = np.ones(S2.size)
    f2[5] = bad
    with pytest.raises(ValueError, match="finite"):
        check_assumption_h(f2, S2, 2, 1, 1.0)


# ---------------------------------------------------------------------------
# measure density and mixed quermass


def test_ball_measure_density_closed_form():
    # For phi = c the density is the constant c^{-p-k} ((c - 1/c)/2)^{n-k}.
    c = 2.0
    for grid in (S1, S2):
        K = SupportField(grid, np.full(grid.size, c))
        n = grid.n
        for p in (-1.0, 0.0, 1.0, 2.5):
            for k in range(n + 1):
                got = measure_density(K, p, k)
                assert np.allclose(got, zeta(c, n, k, p), atol=1e-12)
    with pytest.raises(ValueError):
        measure_density(K, 1.0, 3)


def test_mixed_quermass_self_pairing():
    # W_{p,k}(K, K) = (1/p) int phi^{-k} p_{n-k}(A) dsigma.
    K = support_of_ball(S2, origin(2), 0.6)
    for p in (0.5, 1.0, 2.0):
        for k in (0, 1):
            lhs = mixed_quermass(K, K, p, k)
            rhs = curvature_integral(K, k) / p
            assert abs(lhs - rhs) < 1e-12


def test_mixed_quermass_validation():
    K = support_of_ball(S1, origin(1), 0.5)
    L = support_of_ball(S1, origin(1), 0.8)
    with pytest.raises(ValueError):
        mixed_quermass(K, L, 0.4, 0)
    with pytest.raises(ValueError):
        mixed_quermass(K, support_of_ball(make_grid(1, 32), origin(1), 0.8), 1.0, 0)


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("n, resolution", [(1, 128), (2, 24)])
def test_mixed_quermass_is_the_variation_of_modified_quermass(n, resolution, p):
    # The defining first variation: d/dt W_k((phi_K^p + t phi_L^p)^{1/p})
    # at t = 0 is W_{p,k}(K, L), here by central differences.
    grid = make_grid(n, resolution)
    K, L = random_h_convex_fields(3, [grid], 2)
    h = 1e-4

    def W(t, k):
        phi_t = (K.phi**p + t * L.phi**p) ** (1.0 / p)
        return modified_quermass(SupportField(grid, phi_t), k).value

    for k in range(n + 1):
        variation = (W(h, k) - W(-h, k)) / (2.0 * h)
        assert variation == pytest.approx(mixed_quermass(K, L, p, k), rel=1e-6), k


# ---------------------------------------------------------------------------
# flow functional and PDE residual


def test_J_p_ball_values():
    # f = 1 on a centered ball: J_p = (omega / p) e^{p r}, J_0 = omega r.
    r = 0.7
    K = support_of_ball(S1, origin(1), r)
    f = np.ones(S1.size)
    assert abs(J_p(K, f, 0.0) - 2.0 * math.pi * r) < 1e-13
    for p in (-1.0, 0.5, 2.0):
        want = 2.0 * math.pi / p * math.exp(p * r)
        assert abs(J_p(K, f, p) - want) < 1e-12


def test_J_p_requires_positive_f():
    K = support_of_ball(S1, origin(1), 0.5)
    with pytest.raises(ValueError):
        J_p(K, np.zeros(S1.size), 1.0)
    with pytest.raises(ValueError):
        J_p(K, np.ones(S1.size - 1), 1.0)


def test_pde_residual_vanishes_for_matched_ball():
    c = 2.0
    K = SupportField(S1, np.full(S1.size, c))
    for p, k in ((2.0, 0), (0.0, 0), (1.0, 1)):
        f = np.full(S1.size, zeta(c, 1, k, p))
        field, sup = pde_residual(K, f, p, k)
        assert sup < 1e-13
        assert field.shape == (S1.size,)


# ---------------------------------------------------------------------------
# Kazdan-Warner type obstructions


def test_kw_coordinate_integral_oracle():
    # n = 1, phi = 2, f = 1 + cos(theta)/2, k = 0: the first coordinate
    # integral is int (1/2)(sin theta / 2)(sin theta) dtheta = pi / 4.
    theta = S1.theta
    K = SupportField(S1, np.full(S1.size, 2.0))
    f = 1.0 + 0.5 * np.cos(theta)
    rep = kw_residual(K, f, 0)
    assert abs(rep.coordinate_integrals[0] - math.pi / 4.0) < 1e-8
    assert abs(rep.coordinate_integrals[1]) < 1e-12
    assert rep.general_identity_residual < 1e-12


def test_kw_general_identity_on_perturbed_bodies():
    # int (Dphi/phi + z) phi^{-k} p_{n-k}(A) dsigma = 0 for every
    # h-convex field and every k.
    theta = S1.theta
    K1 = SupportField(S1, 2.0 * (1.0 + 0.08 * np.cos(2 * theta)))
    z = S2.nodes
    K2 = SupportField(S2, 2.0 * (1.0 + 0.03 * (3.0 * z[:, 2] ** 2 - 1.0)))
    f1 = np.ones(S1.size)
    f2 = np.ones(S2.size)
    for K, f in ((K1, f1), (K2, f2)):
        for k in range(K.grid.n + 1):
            rep = kw_residual(K, f, k)
            assert rep.general_identity_residual < 1e-10
    with pytest.raises(ValueError):
        kw_residual(K1, f1, 2)


def test_kw_constant_f_clears_obstruction():
    K = SupportField(S2, np.full(S2.size, 1.8))
    rep = kw_residual(K, np.full(S2.size, 3.0), 1)
    for v in rep.coordinate_integrals:
        assert abs(v) < 1e-12


# ---------------------------------------------------------------------------
# centered-ball solutions for constant data


def test_ball_solutions_supercritical_branch():
    # n=2, k=0, p=4: zeta peaks at t0 = sqrt(3) with gamma0 = 1/27.
    rep = ball_solutions(2, 0, 4.0, 1.0 / 27.0)
    assert rep.case == "unique-critical"
    assert abs(rep.gamma0 - 1.0 / 27.0) < 1e-12
    assert abs(rep.t0 - math.sqrt(3.0)) < 1e-12
    assert abs(rep.c_values[0] - math.sqrt(3.0)) < 1e-12

    below = ball_solutions(2, 0, 4.0, 0.02)
    assert below.case == "two-roots"
    c1, c2 = below.c_values
    assert c1 < math.sqrt(3.0) < c2
    assert all(res <= 1e-12 for res in below.residuals)
    assert below.radii == [math.log(c1), math.log(c2)]

    above = ball_solutions(2, 0, 4.0, 0.05)
    assert above.case == "none"
    assert above.c_values == []


def test_ball_solutions_any_center_at_critical_exponent():
    # p = -n: every center works and phi = sqrt(1 + 2 gamma^{1/(n-k)}).
    rep = ball_solutions(1, 0, -1.0, 0.5)
    assert rep.case == "any-center"
    assert abs(rep.c_values[0] - math.sqrt(2.0)) < 1e-15
    rep2 = ball_solutions(2, 1, -2.0, 0.7)
    assert rep2.case == "any-center"
    assert abs(rep2.c_values[0] - math.sqrt(1.0 + 2.0 * 0.7)) < 1e-15


def test_ball_solutions_threshold_exponent():
    # p = n - 2k: zeta increases to the limit 2^{k-n}; for n=2, k=1 the
    # unique root of (1 - 1/c^2)/2 = gamma is c = 1/sqrt(1 - 2 gamma).
    rep = ball_solutions(2, 1, 0.0, 0.3)
    assert rep.case == "unique"
    assert abs(rep.c_values[0] - math.sqrt(2.5)) < 1e-12
    none = ball_solutions(2, 1, 0.0, 0.6)
    assert none.case == "none-limit"


def test_ball_solutions_monotone_range():
    rep = ball_solutions(2, 0, 1.0, 0.8)
    assert rep.case == "unique"
    assert rep.residuals[0] <= 1e-12
    assert rep.c_values[0] > 1.0


def test_ball_solutions_validation():
    with pytest.raises(ValueError):
        ball_solutions(1, 1, 1.0, 0.5)  # k = n
    with pytest.raises(ValueError):
        ball_solutions(2, 1, -3.0, 0.5)  # p < -n at k >= 1
    with pytest.raises(ValueError):
        ball_solutions(1, 0, -5.0, 0.0)  # gamma <= 0 below p = -n too
    with pytest.raises(ValueError):
        ball_solutions(2, 0, 1.0, 0.0)
    with pytest.raises(ValueError):
        ball_solutions(3, 0, 1.0, 0.5)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("p", [-1.5, -5.0, -10.0])
def test_ball_solutions_below_minus_n_at_k0_have_one_root(n, p):
    # For k = 0, zeta = c^{-p} ((c - 1/c)/2)^n increases onto (0, inf)
    # below p = -n as well (p = -1.5 is below -n only for n = 1).
    for gamma in (1e-3, 0.3, 1.0, 50.0):
        rep = ball_solutions(n, 0, p, gamma)
        assert rep.case == "unique"
        (c,) = rep.c_values
        assert c > 1.0
        assert abs(zeta(c, n, 0, p) - gamma) <= 1e-13 * max(1.0, gamma)
        assert rep.residuals == [abs(zeta(c, n, 0, p) - gamma)]


@given(
    gamma=st.floats(min_value=1e-3, max_value=10.0),
    p=st.floats(min_value=-1.9, max_value=-0.1),
)
@settings(max_examples=30, deadline=None)
def test_ball_solutions_residuals_property(gamma, p):
    # In the monotone range -n < p < n - 2k every gamma has one root.
    rep = ball_solutions(2, 0, p, gamma)
    assert rep.case == "unique"
    c = rep.c_values[0]
    assert abs(zeta(c, 2, 0, p) - gamma) <= 1e-11 * max(1.0, gamma)


# ---------------------------------------------------------------------------
# data condition for intermediate k


def test_assumption_h_regimes():
    z = S2.nodes
    p2 = 0.5 * (3.0 * z[:, 2] ** 2 - 1.0)
    # Regime markers for n=2, k=1 sweeping p through the breakpoints.
    assert check_assumption_h(np.ones(S2.size), S2, 2, 1, -2.0).regime == 1
    assert check_assumption_h(1.0 + 0.02 * p2, S2, 2, 1, -1.6).regime == 2
    assert check_assumption_h(1.0 + 0.1 * p2, S2, 2, 1, -1.2).regime == 3
    assert check_assumption_h(1.0 + 0.1 * p2, S2, 2, 1, -0.5).regime == 4
    assert check_assumption_h(1.0 + 0.1 * p2, S2, 2, 1, 1.0).regime == 5
    for p, amp in ((-2.0, 0.0), (-1.6, 0.02), (-1.2, 0.1), (-0.5, 0.1), (1.0, 0.1)):
        rep = check_assumption_h(1.0 + amp * p2, S2, 2, 1, p)
        assert rep.passes, f"p={p}: worst {rep.worst_eigenvalue}"


def test_assumption_h_failures():
    z = S2.nodes
    p2 = 0.5 * (3.0 * z[:, 2] ** 2 - 1.0)
    # Constant-only at p = -n.
    rep = check_assumption_h(1.0 + 0.1 * p2, S2, 2, 1, -2.0)
    assert not rep.passes
    # Steep data breaks the convexity-type tensor condition.
    steep = 1.0 + 0.9 * z[:, 0]
    rep5 = check_assumption_h(steep, S2, 2, 1, 1.0)
    assert not rep5.passes
    assert rep5.worst_eigenvalue < -1.0


def test_assumption_h_validation():
    with pytest.raises(ValueError):
        check_assumption_h(np.ones(S1.size), S1, 1, 0, 1.0)  # n = 1
    with pytest.raises(ValueError):
        check_assumption_h(np.ones(S2.size), S2, 2, 2, 1.0)  # k = n
    with pytest.raises(ValueError):
        check_assumption_h(np.ones(S2.size), S1, 2, 1, 1.0)  # grid mismatch
    with pytest.raises(ValueError):
        check_assumption_h(np.ones(S2.size), S2, 2, 1, -2.5)  # p < -n
    with pytest.raises(ValueError):
        check_assumption_h(-np.ones(S2.size), S2, 2, 1, 1.0)
