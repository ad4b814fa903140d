"""Modified quermassintegrals, Steiner expansions, weighted volume."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import roots_legendre

from horocvx.hconvex import (
    SupportField,
    apply_isometry_field,
    boundary_data,
    convexity,
    support_of_ball,
)
from horocvx.lorentz import boost, origin
from horocvx.quermass import (
    HOMOTOPY_ORDER,
    I_k,
    I_k_inverse,
    S_functional,
    curvature_integral,
    k_mean_radius,
    minkowski_formula_residuals,
    modified_quermass,
    steiner_check,
    weighted_steiner_check,
    weighted_volume,
)
from horocvx import quermass
from horocvx.quermass import _homotopy_value, p_tensor
from horocvx.sphere_grid import gradient, hessian, integrate, make_grid, sphere_area
from horocvx.verify import random_h_convex_fields

S1 = make_grid(1, 64)
S2 = make_grid(2, 12)


def smooth_body(grid):
    if grid.n == 1:
        theta = grid.theta
        phi = 2.0 * (1.0 + 0.05 * np.cos(2 * theta) + 0.015 * np.sin(3 * theta))
    else:
        z = grid.nodes
        phi = 2.0 * (1.0 + 0.025 * (3.0 * z[:, 2] ** 2 - 1.0) + 0.03 * z[:, 0])
    return SupportField(grid, phi)


def offcenter_ball(grid, s, r):
    d = np.zeros(grid.n + 1)
    d[0] = 1.0
    center = boost(grid.n, d, s)[:, -1]
    return SupportField(grid, math.exp(r) * (center[-1] - grid.nodes @ center[:-1]))


# ---------------------------------------------------------------------------
# I_k closed forms


def test_I_k_closed_forms_n1():
    # n=1: I_0(r) = 2 pi (cosh r - 1), I_1(r) = 2 pi (1 - e^{-r}).
    for r in (0.3, math.log(2.0), 1.2):
        assert abs(I_k(1, 0, r) - 2.0 * math.pi * (math.cosh(r) - 1.0)) < 1e-12
        assert abs(I_k(1, 1, r) - 2.0 * math.pi * (1.0 - math.exp(-r))) < 1e-12


def test_I_k_closed_forms_n2():
    # n=2: I_0 = pi (sinh 2r - 2r), I_1 = 2 pi r + pi (e^{-2r} - 1),
    # I_2 = 2 pi (1 - e^{-2r}).
    for r in (0.3, math.log(2.0), 1.2):
        assert abs(I_k(2, 0, r) - math.pi * (math.sinh(2 * r) - 2 * r)) < 1e-12
        assert abs(I_k(2, 1, r) - (2 * math.pi * r + math.pi * (math.exp(-2 * r) - 1))) < 1e-12
        assert abs(I_k(2, 2, r) - 2.0 * math.pi * (1.0 - math.exp(-2 * r))) < 1e-12


def test_I_k_edge_cases():
    assert I_k(1, 0, 0.0) == 0.0
    assert I_k(2, 2, 0.0) == 0.0
    with pytest.raises(ValueError):
        I_k(1, 2, 0.5)
    with pytest.raises(ValueError):
        I_k(3, 0, 0.5)
    with pytest.raises(ValueError):
        I_k(1, 0, -0.1)


def test_I_k_inverse_roundtrip():
    for n in (1, 2):
        for k in range(n + 1):
            for r in (0.2, 0.7, 1.5):
                assert abs(I_k_inverse(n, k, I_k(n, k, r)) - r) < 1e-12
    assert I_k_inverse(2, 1, 0.0) == 0.0
    with pytest.raises(ValueError):
        I_k_inverse(1, 1, 2.0 * math.pi)  # I_1 < 2 pi is strict
    with pytest.raises(ValueError):
        I_k_inverse(1, 0, -1.0)


@given(r=st.floats(min_value=0.01, max_value=3.0))
@settings(max_examples=30, deadline=None)
def test_I_k_monotone_property(r):
    # Larger balls have strictly larger quermass at every order.
    for n in (1, 2):
        for k in range(n + 1):
            assert I_k(n, k, r + 0.1) > I_k(n, k, r)


# ---------------------------------------------------------------------------
# modified quermass of balls


def test_ball_quermass_matches_I_k():
    for grid in (S1, S2):
        n = grid.n
        for r in (0.3, math.log(2.0), 1.2):
            K = support_of_ball(grid, origin(n), r)
            for k in range(n + 1):
                rep = modified_quermass(K, k)
                assert rep.method == "ball-closed-form"
                assert abs(rep.value - I_k(n, k, r)) < 1e-12


def test_offcenter_ball_quermass_is_isometry_invariant():
    # The homotopy evaluation on a boosted ball must still equal I_k.
    r = 0.6
    for grid in (S1, S2):
        K = offcenter_ball(grid, 0.5, r)
        for k in range(grid.n + 1):
            rep = modified_quermass(K, k)
            assert rep.method in ("homotopy", "closed-form-k=n")
            assert abs(rep.value - I_k(grid.n, k, r)) < 1e-8
            assert rep.est_error < 1e-9


def test_k_mean_radius_of_ball():
    K = support_of_ball(S2, origin(2), 0.85)
    for k in range(3):
        assert abs(k_mean_radius(K, k) - 0.85) < 1e-10


def test_modified_quermass_validation():
    K = support_of_ball(S1, origin(1), 0.5)
    with pytest.raises(ValueError):
        modified_quermass(K, 2)
    with pytest.raises(ValueError):
        modified_quermass(SupportField(S1, np.full(S1.size, 0.5)), 0)


def _homotopy_reference(K, k, order):
    """The homotopy integral one t-node at a time, with a full A_t tensor."""
    grid, phi = K.grid, K.phi
    n = grid.n
    g = gradient(grid, phi)
    H = hessian(grid, phi)
    grad_sq = np.sum(g * g, axis=1)
    x, wts = roots_legendre(order)
    ts = 0.5 * (x + 1.0)
    wts = 0.5 * wts
    idx = np.arange(n)
    contributions = []
    dphi = phi - 1.0
    for t, wt in zip(ts, wts):
        phit = 1.0 + t * dphi
        qt = 0.5 * t * t * grad_sq / phit
        At = t * H.copy()
        At[:, idx, idx] += (-qt + 0.5 * (phit - 1.0 / phit))[:, None]
        field = (dphi / phit) * phit ** (-float(k)) * p_tensor(At, n - k)
        contributions.append(wt * integrate(grid, field))
    return math.fsum(contributions)


@pytest.mark.parametrize("order", [HOMOTOPY_ORDER, 64])
@pytest.mark.parametrize("grid", [S1, S2], ids=["s1", "s2"])
def test_homotopy_value_matches_per_node_loop_bitwise(grid, order):
    K = smooth_body(grid)
    for k in range(grid.n + 1):
        assert _homotopy_value(K, k, order) == _homotopy_reference(K, k, order)


@pytest.mark.parametrize("order", [HOMOTOPY_ORDER, 256])
@pytest.mark.parametrize("grid", [make_grid(1, 96), make_grid(2, 20)], ids=["s1:96", "s2:20"])
def test_homotopy_value_does_not_depend_on_block_size(grid, order, monkeypatch):
    # Each node's row is its own compensated sum, so the blocking of the
    # t-nodes cannot change a bit of the result.
    K = smooth_body(grid)
    g, H = gradient(grid, K.phi), hessian(grid, K.phi)
    values = []
    for block in (16384, 8192, 512):
        monkeypatch.setattr(quermass, "HOMOTOPY_BLOCK", block)
        values.append([_homotopy_value(K, k, order, g, H) for k in range(grid.n + 1)])
    assert values[0] == values[1] == values[2]


def test_homotopy_temporaries_stay_bounded():
    grid = make_grid(2, 32)
    K = smooth_body(grid)
    g, H = gradient(grid, K.phi), hessian(grid, K.phi)
    tracemalloc.start()
    try:
        _homotopy_value(K, 1, 256, g, H)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # A single (order, size) array would take 256 * 2048 * 8 = 4.2 MB.
    assert peak < 4e6


@pytest.mark.parametrize("grid", [S1, S2], ids=["s1", "s2"])
def test_modified_quermass_does_one_analysis(grid, fft_counts):
    rep = modified_quermass(smooth_body(grid), 0)
    assert rep.method == "homotopy"
    assert fft_counts["rfft"] == 1


@pytest.mark.parametrize("grid", [S1, S2], ids=["s1", "s2"])
def test_one_analysis_serves_every_quantity_of_a_field(grid, fft_counts):
    K = smooth_body(grid)
    for k in range(grid.n + 1):
        assert modified_quermass(K, k).method != "ball-closed-form"
    boundary_data(K)
    for m in range(grid.n + 1):
        curvature_integral(K, m)
    assert fft_counts["rfft"] == 1


@pytest.mark.parametrize("grid", [S1, S2], ids=["s1", "s2"])
def test_steiner_check_analyses_each_of_its_two_fields_once(grid, fft_counts):
    # K and its outer parallel body K_rho.
    steiner_check(smooth_body(grid), 0.3)
    assert fft_counts["rfft"] == 2


# ---------------------------------------------------------------------------
# curvature integrals


def test_ball_curvature_integral_closed_form():
    # For a ball: int p_m(kappa~) dmu = omega_n sinh^{n-m}(r) e^{-m r}.
    for grid in (S1, S2):
        n = grid.n
        omega = sphere_area(n)
        r = 0.7
        K = support_of_ball(grid, origin(n), r)
        for m in range(n + 1):
            want = omega * math.sinh(r) ** (n - m) * math.exp(-m * r)
            assert abs(curvature_integral(K, m) - want) < 1e-12


def test_quermass_recursion():
    # First-variation recursion: (n-k) W_{k+1} = int p_k dmu - (n-2k) W_k.
    for grid in (S1, S2):
        n = grid.n
        K = smooth_body(grid)
        W = [modified_quermass(K, k).value for k in range(n + 1)]
        for k in range(n):
            lhs = (n - k) * W[k + 1]
            rhs = curvature_integral(K, k) - (n - 2 * k) * W[k]
            assert abs(lhs - rhs) < 1e-10


# ---------------------------------------------------------------------------
# Steiner formulas


def test_steiner_residuals_smooth_body():
    for grid in (S1, S2):
        K = smooth_body(grid)
        rep = steiner_check(K, 0.3)
        assert len(rep.residuals) == grid.n + 1
        for resid in rep.residuals:
            assert abs(resid) < 1e-10 * rep.scale
        assert abs(rep.classical_residual) < 1e-10 * rep.scale


def test_steiner_residuals_ball():
    K = support_of_ball(S2, origin(2), 0.5)
    rep = steiner_check(K, 0.45)
    for resid in rep.residuals:
        assert abs(resid) < 1e-12
    assert abs(rep.classical_residual) < 1e-12
    with pytest.raises(ValueError):
        steiner_check(K, 0.0)


def test_weighted_steiner_residuals():
    for grid in (S1, S2):
        K = smooth_body(grid)
        rep = weighted_steiner_check(K, 0.3)
        assert abs(rep.residual_integral_form) < 1e-10 * rep.scale
        assert abs(rep.residual_closed_form) < 1e-10 * rep.scale
    with pytest.raises(ValueError):
        weighted_steiner_check(K, -0.1)


def test_minkowski_formula_residuals():
    for grid in (S1, S2):
        K = smooth_body(grid)
        rep = minkowski_formula_residuals(K)
        assert len(rep.classical) == grid.n
        assert len(rep.shifted) == grid.n
        for resid in rep.classical + rep.shifted:
            assert abs(resid) < 1e-10


# ---------------------------------------------------------------------------
# weighted volume


def test_weighted_volume_ball_oracles():
    # Vol_w(B(X, r)) = (omega_n / (n+1)) x_{n+1} sinh^{n+1}(r) and the
    # size functional is S = x_{n+1}^{1/(n+1)} sinh(r).
    for grid in (S1, S2):
        n = grid.n
        omega = sphere_area(n)
        r = 0.6
        K = support_of_ball(grid, origin(n), r)
        assert abs(weighted_volume(K) - omega / (n + 1) * math.sinh(r) ** (n + 1)) < 1e-12
        assert abs(S_functional(K) - math.sinh(r)) < 1e-12
        s = 0.5
        Kb = offcenter_ball(grid, s, r)
        height = math.cosh(s)
        want_vw = omega / (n + 1) * height * math.sinh(r) ** (n + 1)
        assert abs(weighted_volume(Kb) - want_vw) < 1e-10
        want_s = height ** (1.0 / (n + 1)) * math.sinh(r)
        assert abs(S_functional(Kb) - want_s) < 1e-10


@given(
    r=st.floats(min_value=0.1, max_value=1.4),
    s=st.floats(min_value=0.0, max_value=0.9),
)
@settings(max_examples=20, deadline=None)
def test_weighted_volume_grows_under_translation(r, s):
    # Moving a ball away from the base point increases cosh(dist)-weight.
    K0 = support_of_ball(S1, origin(1), r)
    Ks = offcenter_ball(S1, s, r)
    assert weighted_volume(Ks) >= weighted_volume(K0) - 1e-12


# ---------------------------------------------------------------------------
# isometry invariance


@pytest.mark.parametrize(
    "grid", [make_grid(1, 128), make_grid(2, 20)], ids=["s1:128", "s2:20"]
)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    direction=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=3, max_size=3),
    s=st.floats(min_value=-0.8, max_value=0.8),
)
@settings(max_examples=12, deadline=None)
def test_quermass_and_convexity_are_isometry_invariant(grid, seed, direction, s):
    d = np.array(direction[: grid.n + 1])
    assume(np.linalg.norm(d) > 0.1)
    (K,) = random_h_convex_fields(seed, [grid], 1)
    moved = apply_isometry_field(K, boost(grid.n, d / np.linalg.norm(d), s))
    assert convexity(moved).classification == convexity(K).classification
    for k in range(grid.n + 1):
        before = modified_quermass(K, k).value
        after = modified_quermass(moved, k).value
        assert math.isclose(after, before, rel_tol=1e-10), (k, before, after)
