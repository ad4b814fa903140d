"""Surface-area measures, prescription problems, ball classification."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horocvx import hconvex, problems
from horocvx.euclid_bridge import commute_check, euclid_mixed_volume_p, firey_sum
from horocvx.flow import FlowConfig
from horocvx.hconvex import (
    SupportField, measure_density, random_h_convex_fields, support_of_ball, support_of_point
)
from horocvx.lorentz import boost, origin, validate_isometry
from horocvx.problems import (
    J_p,
    ball_solutions,
    check_assumption_h,
    check_nkp,
    kw_residual,
    mixed_quermass,
    pde_residual,
)
from horocvx.psum import compatibility_check, p_dilate, p_sum, two_point_ball
from horocvx.quermass import (
    I_k,
    I_k_inverse,
    ball_curvature_integral,
    curvature_integral,
    exp_sinh_integral,
    k_mean_radius,
    modified_quermass,
    steiner_check,
    weighted_steiner_check,
    wk_value,
)
from horocvx.sphere_grid import (
    ArgumentError,
    as_integer,
    as_real,
    derivatives,
    frame_vectors,
    gauss_legendre,
    grid_from_json_dict,
    integrate,
    make_grid,
    resolvent,
    sphere_area,
)
from horocvx.verify import run_suite

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
        check_assumption_h(f2, S2, 1, 1.0)


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
    # One kernel with one import path: problems uses hconvex's, but does
    # not export it.
    assert "measure_density" not in problems.__all__


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


@pytest.mark.bitwise
@pytest.mark.parametrize("grid", [make_grid(1, 96), make_grid(2, 16)], ids=["s1", "s2"])
def test_kw_coordinate_integrals_from_the_frame(grid, fft_counts):
    # The frame vectors are the gradients of the coordinates x_i, so
    # <Df, Dx_i> is the i-th ambient component of Df: one pass, over f.
    K, F = random_h_convex_fields(3, [grid], 2)
    f = F.phi
    K.hessian  # the field's own pass, made before counting
    fft_counts.update(rfft=0, irfft=0)
    rep = kw_residual(K, f, 0)
    assert fft_counts["rfft"] == 1
    g_f = derivatives(grid, f)[0]
    weight = K.phi ** (-float(grid.n))
    frame_form = np.sum(g_f[:, :, None] * frame_vectors(grid), axis=1)
    for i, value in enumerate(rep.coordinate_integrals):
        assert value == integrate(grid, weight * frame_form[:, i])
        # Against the spectral gradient of x_i, which carries roundoff.
        g_x = derivatives(grid, grid.nodes[:, i])[0]
        assert abs(value - integrate(grid, weight * np.sum(g_f * g_x, axis=1))) <= 1e-15
    # A constant f makes no pass, and its integrals are exactly zero.
    fft_counts.update(rfft=0, irfft=0)
    rep = kw_residual(K, np.full(grid.size, 3.0), 0)
    assert fft_counts["rfft"] == 0
    assert rep.coordinate_integrals == (0.0,) * (grid.n + 1)


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


# Every rule on a value that a caller passes to a kernel, one case each.
K1 = support_of_ball(S1, origin(1), 0.5)
# A field on s2:8 that is not a ball.
K8 = random_h_convex_fields(3, [make_grid(2, 8)], 1)[0]


def warm(fn, k):
    """fn(K8, k) once fn(K8, 1) is in K8's cache: a cached functional
    checks k before its lookup, so 1.0 and True do not find the entry of 1."""
    fn(K8, 1)
    return fn(K8, k)


ARGUMENT_RULES = {
    "as_integer": lambda: as_integer(1.5, "x"),
    "as_real": lambda: as_real(math.nan, "x"),
    "measure_density-k": lambda: measure_density(K1, 1.0, 2),
    "wk_value-k": lambda: wk_value(K1, -1),
    # k is an integer in 0..n, by one rule, everywhere it indexes p_{n-k}.
    "measure_density-k-bool": lambda: measure_density(K8, 0, True),
    "measure_density-k-float": lambda: measure_density(K8, 0, 1.5),
    "measure_density-k-str": lambda: measure_density(K8, 0, "1"),
    "wk_value-k-float": lambda: wk_value(K8, 1.5),
    "modified_quermass-k-float": lambda: modified_quermass(K8, 1.0),
    "modified_quermass-k-float-warm": lambda: warm(modified_quermass, 1.0),
    "modified_quermass-k-bool-warm": lambda: warm(modified_quermass, True),
    "k_mean_radius-k-float-warm": lambda: warm(k_mean_radius, 1.0),
    "curvature_integral-k-bool-warm": lambda: warm(curvature_integral, True),
    # An unhashable k is refused by its rule, not by the cache's dict.
    "modified_quermass-k-list": lambda: modified_quermass(K8, [0]),
    "k_mean_radius-k-array": lambda: k_mean_radius(K8, np.array([0])),
    "curvature_integral-k-list": lambda: curvature_integral(K8, [0]),
    "ball_curvature_integral-k": lambda: ball_curvature_integral(2, 5, 0.5),
    "I_k_inverse-n": lambda: I_k_inverse(3, 3, 0.1),
    "I_k-n": lambda: I_k(3, 0, 0.5),
    "I_k-k": lambda: I_k(1, 2, 0.5),
    # A radius or quermass value that is not a finite number, at every
    # (n, k) branch of the inverse.
    "I_k-r-nan": lambda: I_k(2, 1, math.nan),
    "I_k-r-inf": lambda: I_k(1, 0, math.inf),
    "I_k_inverse-w-nan-n1k0": lambda: I_k_inverse(1, 0, math.nan),
    "I_k_inverse-w-inf-n1k0": lambda: I_k_inverse(1, 0, math.inf),
    "I_k_inverse-w-nan-n1k1": lambda: I_k_inverse(1, 1, math.nan),
    "I_k_inverse-w-nan-n2k0": lambda: I_k_inverse(2, 0, math.nan),
    "I_k_inverse-w-inf-n2k0": lambda: I_k_inverse(2, 0, math.inf),
    "I_k_inverse-w-nan-n2k1": lambda: I_k_inverse(2, 1, math.nan),
    "I_k_inverse-w-nan-n2k2": lambda: I_k_inverse(2, 2, math.nan),
    # A negative quermass value, and one at or above I_n's bound omega / n.
    "I_k_inverse-w-negative-n1k0": lambda: I_k_inverse(1, 0, -0.1),
    "I_k_inverse-w-negative-n2k1": lambda: I_k_inverse(2, 1, -0.1),
    "I_k_inverse-w-bound-n1k1": lambda: I_k_inverse(1, 1, sphere_area(1)),
    "I_k_inverse-w-bound-n2k2": lambda: I_k_inverse(2, 2, 3.0 * sphere_area(2)),
    "ball_solutions-n": lambda: ball_solutions(3, 0, 1.0, 0.5),
    "ball_solutions-k=n": lambda: ball_solutions(1, 1, 1.0, 0.5),
    "ball_solutions-p": lambda: ball_solutions(2, 1, -3.0, 0.5),
    "ball_solutions-gamma": lambda: ball_solutions(2, 0, 1.0, 0.0),
    # n and k of the ball equation are integers, by the rule of check_k.
    "ball_solutions-k-float": lambda: ball_solutions(2, 0.5, 1.0, 0.5),
    "ball_solutions-k-bool": lambda: ball_solutions(2, True, 1.0, 0.5),
    "ball_solutions-n-bool": lambda: ball_solutions(True, 0, 1.0, 0.5),
    "ball_solutions-n-float": lambda: ball_solutions(2.0, 0, 1.0, 0.5),
    "assumption_h-k0": lambda: check_assumption_h(np.ones(S2.size), S2, 0, 1.0),
    "assumption_h-p": lambda: check_assumption_h(np.ones(S2.size), S2, 1, -5.0),
    "assumption_h-n1": lambda: check_assumption_h(np.ones(S1.size), S1, 1, 1.0),
    "p_sum-p": lambda: p_sum(1.0, K1, 0.4, 1.0, K1),
    "p_sum-a": lambda: p_sum(-1.0, K1, 1.0, 1.0, K1),
    "p_sum-a+b": lambda: p_sum(0.2, K1, 1.0, 0.2, K1),
    "p_dilate-a": lambda: p_dilate(0.5, 1.0, K1),
    "p_dilate-p": lambda: p_dilate(2.0, -1.0, K1),
    "steiner-rho": lambda: steiner_check(K1, 0.0),
    "weighted_steiner-rho": lambda: weighted_steiner_check(K1, -1.0),
    "support_of_ball-r": lambda: support_of_ball(S1, origin(1), -1.0),
    "support_of_ball-r-nan": lambda: support_of_ball(S1, origin(1), math.nan),
    "support_of_ball-r-str": lambda: support_of_ball(S1, origin(1), "0.5"),
    "support_of_ball-r-bool": lambda: support_of_ball(S1, origin(1), True),
    "outer_parallel-rho-nan": lambda: hconvex.outer_parallel(K1, math.nan),
    # A point of H^3 for a grid on S^1, and of H^2 for one on S^2.
    "support_of_point-dimension-high": lambda: support_of_point(S1, origin(2)),
    "support_of_point-dimension-low": lambda: support_of_point(S2, origin(1)),
    "support_of_point-not-on-hyperboloid": lambda: support_of_point(S1, [0.3, -0.1, 1.0]),
    "random_h_convex_fields-seed-negative": lambda: random_h_convex_fields(-1, [S1], 1),
    "random_h_convex_fields-seed-float": lambda: random_h_convex_fields(1.5, [S1], 1),
    "random_h_convex_fields-seed-bool": lambda: random_h_convex_fields(True, [S1], 1),
    # count 2.5 gave 3 fields, -1 gave none, and no grid a ZeroDivisionError.
    "random_h_convex_fields-count-float": lambda: random_h_convex_fields(1, [S1], 2.5),
    "random_h_convex_fields-count-negative": lambda: random_h_convex_fields(1, [S1], -1),
    "random_h_convex_fields-grids-empty": lambda: random_h_convex_fields(1, [], 1),
    "FlowConfig-n": lambda: FlowConfig(n=3, k=0, p=0.0),
    "FlowConfig-k": lambda: FlowConfig(n=1, k=1, p=0.0),
    "FlowConfig-p": lambda: FlowConfig(n=2, k=1, p=-5.0),
    "run_suite-name": lambda: run_suite("nonsense"),
    "mixed_quermass-p": lambda: mixed_quermass(K1, K1, 0.4, 0),
    "firey_sum-p": lambda: firey_sum(1.0, K1, 0.5, 1.0, K1),
    "firey_sum-a": lambda: firey_sum(-1.0, K1, 1.0, 1.0, K1),
    "commute_check-p": lambda: commute_check(1.0, K1, 0.5, 1.0, K1),
    "euclid_mixed_volume_p-p": lambda: euclid_mixed_volume_p(K1, K1, 0.5),
    "two_point_ball-t": lambda: two_point_ball(1.0, 1.5, 1.0, origin(1), 1.0, origin(1)),
    "compatibility_check-samples": lambda: compatibility_check(
        S1, 1.0, 1.0, origin(1), 1.0, origin(1), samples=2
    ),
    # samples that is not an integer escaped as a bare TypeError.
    "compatibility_check-samples-float": lambda: compatibility_check(
        S1, 1.0, 1.0, origin(1), 1.0, origin(1), samples=3.5
    ),
    "compatibility_check-samples-str": lambda: compatibility_check(
        S1, 1.0, 1.0, origin(1), 1.0, origin(1), samples="5"
    ),
    "compatibility_check-samples-none": lambda: compatibility_check(
        S1, 1.0, 1.0, origin(1), 1.0, origin(1), samples=None
    ),
    "resolvent-mu": lambda: resolvent(S1, K1.phi, -1.0),
    # One mu per stacked field, each finite and nonnegative.
    "resolvent-mu-vector-negative": lambda: resolvent(S1, np.stack([K1.phi] * 2), [0.3, -1.0]),
    "resolvent-mu-vector-nan": lambda: resolvent(S1, np.stack([K1.phi] * 2), [0.3, math.nan]),
    "resolvent-mu-vector-inf": lambda: resolvent(S1, np.stack([K1.phi] * 2), [math.inf, 0.3]),
    "resolvent-mu-vector-length": lambda: resolvent(S1, np.stack([K1.phi] * 2), [0.3] * 3),
    "resolvent-mu-vector-one-field": lambda: resolvent(S1, K1.phi, [0.3]),
    # The exponent p, and gamma, are finite numbers where they enter: a
    # bool ran as p = 1, a string raised a bare TypeError, NaN gave NaN or
    # a bracketing failure.
    "p_sum-p-bool": lambda: p_sum(1.0, K1, True, 1.0, K1),
    "p_sum-p-str": lambda: p_sum(1.0, K1, "1", 1.0, K1),
    "two_point_ball-p-bool": lambda: two_point_ball(True, 0.5, 1.0, origin(1), 1.0, origin(1)),
    "mixed_quermass-p-bool": lambda: mixed_quermass(K1, K1, True, 0),
    "ball_solutions-p-bool": lambda: ball_solutions(1, 0, True, 1.0),
    "ball_solutions-p-nan": lambda: ball_solutions(1, 0, math.nan, 1.0),
    "ball_solutions-gamma-nan": lambda: ball_solutions(1, 0, 1.0, math.nan),
    "measure_density-p-nan": lambda: measure_density(K1, math.nan, 0),
    "J_p-p-nan": lambda: J_p(K1, np.ones(S1.size), math.nan),
    "make_grid-n": lambda: make_grid(3, 8),
    # Each grid kind's rule on its resolution, and the JSON reader's on a
    # grid object's type, sphere and azimuth.
    "make_grid-s1-odd": lambda: make_grid(1, 5),
    "make_grid-s1-small": lambda: make_grid(1, 2),
    "make_grid-s2-small": lambda: make_grid(2, 1),
    "gauss_legendre-L": lambda: gauss_legendre(0),
    "grid_from_json_dict-azimuth": lambda: grid_from_json_dict(
        2, {"type": "gl_product", "polar": 4, "azimuth": 7}
    ),
    "grid_from_json_dict-type": lambda: grid_from_json_dict(1, {"type": "healpix"}),
    "grid_from_json_dict-sphere": lambda: grid_from_json_dict(
        1, {"type": "gl_product", "polar": 4}
    ),
    "sphere_area-n": lambda: sphere_area(3),
    # An isometry and its boost parameters, where they enter: a NaN
    # rapidity or direction gave a NaN matrix, and an isometry of H^2 for
    # a field on S^2 a bare matmul error.
    "boost-s-nan": lambda: boost(1, [1.0, 0.0], math.nan),
    "boost-s-bool": lambda: boost(1, [1.0, 0.0], True),
    "boost-direction-components": lambda: boost(2, [1.0, 0.0], 0.5),
    "boost-direction-zero": lambda: boost(1, [0.0, 0.0], 0.5),
    "boost-direction-nan": lambda: boost(1, [math.nan, 1.0], 0.5),
    "validate_isometry-square": lambda: validate_isometry(np.eye(3)[:2]),
    "validate_isometry-finite": lambda: validate_isometry(np.full((3, 3), math.inf)),
    "validate_isometry-lorentz": lambda: validate_isometry(2.0 * np.eye(3)),
    "validate_isometry-future": lambda: validate_isometry(np.diag([1.0, 1.0, -1.0])),
    "apply_isometry_field-size": lambda: hconvex.apply_isometry_field(
        K8, boost(1, [1.0, 0.0], 0.3)
    ),
    # The ball kernels' radii, powers and upper limits are finite numbers
    # in range where they enter: a negative radius was a plain ValueError,
    # or gave a negative mass; a NaN gave NaN, a string a bare TypeError,
    # and a bool ran as 1.
    "I_k-r-negative": lambda: I_k(1, 0, -0.1),
    "exp_sinh_integral-b": lambda: exp_sinh_integral(0, -1, 0.5),
    "exp_sinh_integral-rho-negative": lambda: exp_sinh_integral(0, 1, -0.1),
    "exp_sinh_integral-rho-nan": lambda: exp_sinh_integral(0, 1, math.nan),
    "exp_sinh_integral-rho-str": lambda: exp_sinh_integral(0, 1, "1"),
    "exp_sinh_integral-rho-bool": lambda: exp_sinh_integral(0, 1, True),
    "ball_curvature_integral-r-negative": lambda: ball_curvature_integral(1, 0, -1.0),
    "ball_curvature_integral-r-nan": lambda: ball_curvature_integral(1, 0, math.nan),
    "ball_curvature_integral-r-str": lambda: ball_curvature_integral(1, 0, "1"),
    "ball_curvature_integral-p-str": lambda: ball_curvature_integral(1, 0, 0.5, "1"),
    "ball_curvature_integral-p-nan": lambda: ball_curvature_integral(1, 0, 0.5, math.nan),
    "steiner-rho-str": lambda: steiner_check(K1, "0.3"),
    "weighted_steiner-rho-str": lambda: weighted_steiner_check(K1, "0.3"),
    "two_point_ball-t-bool": lambda: two_point_ball(1.5, True, 1.0, origin(1), 1.0, origin(1)),
    "two_point_ball-t-str": lambda: two_point_ball(1.5, "0.5", 1.0, origin(1), 1.0, origin(1)),
}


@pytest.mark.parametrize("rule", list(ARGUMENT_RULES))
def test_argument_rules_raise_argument_error(rule):
    with pytest.raises(ArgumentError) as info:
        ARGUMENT_RULES[rule]()
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("check", [steiner_check, weighted_steiner_check])
def test_steiner_checks_name_rho_when_it_is_nan(check):
    # The error named outer_parallel's "parallel distance".
    with pytest.raises(ArgumentError, match="^rho must be a finite number, got nan$"):
        check(K1, math.nan)


# Checks on a computed result: a plain ValueError, not the caller's fault.
RESULT_CHECKS = {
    "p_sum-not-h-convex": lambda: p_sum(
        0.0, K1, 1.0, 1.0, SupportField(S1, 2.2 * (1.0 + 0.05 * np.cos(3 * S1.theta)))
    ),
    "p_dilate-overflow": lambda: p_dilate(1e300, 0.001, K1),
    "modified_quermass-not-h-convex": lambda: modified_quermass(
        SupportField(S1, 2.2 * (1.0 + 0.05 * np.cos(3 * S1.theta))), 0
    ),
    "steiner-overflow": lambda: steiner_check(K1, 800.0),
    "weighted_steiner-overflow": lambda: weighted_steiner_check(K1, 400.0),
    "ball_solutions-overflow": lambda: ball_solutions(2, 1, 300.0, 0.001),
    # cosh(1000) overflowed as a bare OverflowError.
    "boost-overflow": lambda: boost(1, [1.0, 0.0], 1000.0),
}


@pytest.mark.parametrize("check", list(RESULT_CHECKS))
def test_result_checks_raise_a_plain_value_error(check):
    with pytest.raises(ValueError) as info:
        RESULT_CHECKS[check]()
    assert type(info.value) is ValueError


@pytest.mark.parametrize("n, k, p", [(1, 0, -50.0), (2, 0, -50.0), (2, 1, -2.0), (2, 1, 40.0)])
def test_flow_config_and_ball_solutions_share_one_range(n, k, p):
    check_nkp(n, k, p)
    FlowConfig(n=n, k=k, p=p)
    ball_solutions(n, k, p, 0.01)


def test_check_nkp_names_a_non_integer_with_the_callers_prefix():
    with pytest.raises(ArgumentError, match="^flow config k must be an integer, got 0.5$"):
        check_nkp(2, 0.5, 1.0, "flow config ")


@pytest.mark.parametrize(
    "n, k, p, gamma",
    [
        (2, 1, -0.001, 1000.0),  # zeta = c^0.001 / 2 rises too slowly
        (1, 0, 0.5, 1e300),  # zeta ~ c^0.5 / 2: the root is near 4e600
        (2, 1, 0.001, 1e-10),  # zeta ~ c^-0.001 / 2 falls too slowly past t0
    ],
)
def test_ball_solutions_refuse_a_root_beyond_the_float_range(n, k, p, gamma):
    # Doubling the bracket's end reached inf: it used to return c = inf.
    with pytest.raises(ValueError, match=re.escape(f"gamma = {gamma}")) as info:
        ball_solutions(n, k, p, gamma)
    assert type(info.value) is ValueError


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
    assert check_assumption_h(np.ones(S2.size), S2, 1, -2.0).regime == 1
    assert check_assumption_h(1.0 + 0.02 * p2, S2, 1, -1.6).regime == 2
    assert check_assumption_h(1.0 + 0.1 * p2, S2, 1, -1.2).regime == 3
    assert check_assumption_h(1.0 + 0.1 * p2, S2, 1, -0.5).regime == 4
    assert check_assumption_h(1.0 + 0.1 * p2, S2, 1, 1.0).regime == 5
    for p, amp in ((-2.0, 0.0), (-1.6, 0.02), (-1.2, 0.1), (-0.5, 0.1), (1.0, 0.1)):
        rep = check_assumption_h(1.0 + amp * p2, S2, 1, p)
        assert rep.passes, f"p={p}: worst {rep.worst_eigenvalue}"


def test_assumption_h_failures():
    z = S2.nodes
    p2 = 0.5 * (3.0 * z[:, 2] ** 2 - 1.0)
    # Constant-only at p = -n.
    rep = check_assumption_h(1.0 + 0.1 * p2, S2, 1, -2.0)
    assert not rep.passes
    # Steep data breaks the convexity-type tensor condition.
    steep = 1.0 + 0.9 * z[:, 0]
    rep5 = check_assumption_h(steep, S2, 1, 1.0)
    assert not rep5.passes
    assert rep5.worst_eigenvalue < -1.0


def test_assumption_h_validation():
    with pytest.raises(ValueError):
        check_assumption_h(np.ones(S1.size), S1, 0, 1.0)  # n = 1
    with pytest.raises(ValueError):
        check_assumption_h(np.ones(S2.size), S2, 2, 1.0)  # k = n
    with pytest.raises(ValueError):
        check_assumption_h(np.ones(S1.size), S2, 1, 1.0)  # f does not fit the grid
    with pytest.raises(ValueError):
        check_assumption_h(np.ones(S2.size), S2, 1, -2.5)  # p < -n
    with pytest.raises(ValueError):
        check_assumption_h(-np.ones(S2.size), S2, 1, 1.0)
