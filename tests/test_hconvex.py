"""Support fields, the shifted form A[phi], boundary recovery."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horocvx import sphere_grid
from horocvx.euclid_bridge import V_p_functional, commute_check, euclid_mixed_volume_p, firey_sum
from horocvx.hconvex import (
    BoundaryData,
    SupportField,
    a_eigenvalues,
    apply_isometry_field,
    boundary_data,
    convexity,
    d_measure_density,
    dA,
    dp_tensor,
    measure_density,
    outer_parallel,
    p_tensor,
    plus_identity,
    random_h_convex_fields,
    require_h_convex,
    shrink_into_cone,
    squared_norm,
    support_of_ball,
    support_of_point,
)
from horocvx.lorentz import boost, geodesic_distance, origin, validate_hpoint
from horocvx.problems import mixed_quermass
from horocvx.psum import dilates_check, p_dilate, p_sum
from horocvx.sphere_grid import ArgumentError, derivatives, integrate, make_grid

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


@pytest.mark.parametrize("grid", [S1, S2], ids=["s1", "s2"])
def test_field_with_given_derivatives_makes_no_pass(grid, monkeypatch):
    z = grid.nodes[:, -1]
    v, g, H = sphere_grid.resolvent(grid, 2.0 + 0.1 * z * z + 0.05 * z, 0.0)
    fresh = SupportField(grid, v)
    monkeypatch.setattr(sphere_grid, "resolvent", None)
    K = SupportField.with_derivatives(grid, v, g, H)
    assert K.gradient is not g and np.array_equal(K.gradient, g)
    assert np.array_equal(K.hessian, H)
    for array in (K.gradient, K.hessian, K.A, K.eigenvalues):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
    monkeypatch.undo()
    # The same form as the field's own pass gives, to the roundoff of
    # differentiating the projected values a second time.
    assert np.max(np.abs(K.A - fresh.A)) <= 1e-12
    with pytest.raises(ValueError, match="derivatives have shapes"):
        SupportField.with_derivatives(grid, v, g[:, :1] if grid.n == 2 else g[:-1], H)


def test_bodies_on_one_resolution_share_the_grid_tables(monkeypatch):
    # A fresh grid cache, so that the count sees the one table build.
    sphere_grid._GLProductS2._build.cache_clear()
    grid = make_grid(2, 10)
    calls = []
    columns = sphere_grid._legendre_columns

    def counted(*args):
        calls.append(args[0])
        return columns(*args)

    monkeypatch.setattr(sphere_grid, "_legendre_columns", counted)
    z = grid.nodes[:, 2]
    bodies = [ball_at_origin(make_grid(2, 10), 0.5), SupportField(grid, 2.0 + 0.1 * z * z)]
    for K in bodies:
        boundary_data(K)
    assert sorted(calls) == list(range(grid.band_limit + 1))
    assert bodies[0].grid is bodies[1].grid


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


def test_require_h_convex_names_what_it_refuses():
    good = SupportField(S1, 2.0 * (1.0 + 0.05 * np.cos(2 * S1.theta)))
    assert require_h_convex(good, "body") is good
    bad = SupportField(S1, 2.2 * (1.0 + 0.05 * np.cos(3 * S1.theta)))
    with pytest.raises(ValueError, match="^body is not h-convex: min eig A = -") as info:
        require_h_convex(bad, "body")
    assert type(info.value) is ValueError


def test_shrink_into_cone_scales_the_perturbation_down_by_0_6():
    pert = 0.05 * np.cos(3 * S1.theta)
    # 2.2 (1 + pert) is not h-convex; 2.2 (1 + 0.6 pert) is uniformly so.
    K = shrink_into_cone(S1, 2.2, pert)
    assert np.array_equal(K.phi, 2.2 * (1.0 + 0.6 * pert))
    assert convexity(K).classification == "uniformly-h-convex"
    assert shrink_into_cone(S1, 2.2, pert, margin=1e3) is None


def test_shrink_into_cone_counts_a_nonpositive_candidate_as_outside():
    # 1 - 1.5 cos(theta) <= 0 near theta = 0: that candidate is skipped,
    # not refused as a field.
    grid = make_grid(1, 32)
    K = shrink_into_cone(grid, 2.0, -1.5 * np.cos(grid.theta))
    assert K is None or convexity(K).classification == "uniformly-h-convex"


# ---------------------------------------------------------------------------
# derivatives that follow the linear maps building a field


def _wavy(grid):
    """A smooth perturbation that 2.2 (1 + pert) takes out of the uniformly
    h-convex cone and 2.2 (1 + 0.6 pert) does not."""
    if grid.n == 1:
        theta = grid.theta
        return 0.05 * np.cos(3 * theta) + 0.02 * np.sin(theta)
    z = grid.nodes
    return 0.1 * (2.5 * z[:, 2] ** 3 - 1.5 * z[:, 2] + z[:, 0] * z[:, 1])


@pytest.mark.bitwise
@pytest.mark.parametrize(
    "grid",
    [make_grid(1, 96), make_grid(1, 128), make_grid(2, 16), make_grid(2, 20)],
    ids=["s1:96", "s1:128", "s2:16", "s2:20"],
)
def test_inherited_derivatives_match_a_fresh_pass(grid, fft_counts):
    pert = _wavy(grid)
    K = SupportField(grid, 2.0 * (1.0 + 0.5 * pert))
    K.hessian
    fft_counts.update(rfft=0, irfft=0)
    dilates = [outer_parallel(K, 0.4), p_dilate(1.7, 0.5, K)]
    for L in dilates:
        L.hessian
    # c K takes c times K's derivatives: no pass of its own.
    assert fft_counts == {"rfft": 0, "irfft": 0}
    shrunk = shrink_into_cone(grid, 2.2, pert)
    assert np.array_equal(shrunk.phi, 2.2 * (1.0 + 0.6 * pert))
    # One pass over pert serves both candidates.
    assert fft_counts == {"rfft": 1, "irfft": 1}
    for L in dilates + [shrunk]:
        g, H = derivatives(grid, L.phi)
        bound = 1e-11 * np.max(np.abs(L.phi))
        assert np.max(np.abs(L.gradient - g)) <= bound
        assert np.max(np.abs(L.hessian - H)) <= bound


@pytest.mark.parametrize("grid", [S1, S2], ids=["s1", "s2"])
def test_dilate_of_a_field_without_a_pass_makes_one(grid, fft_counts):
    K = SupportField(grid, 2.0 + 0.1 * grid.nodes[:, -1] ** 2)
    for dilate in (lambda: outer_parallel(K, 0.4), lambda: p_dilate(1.7, 0.5, K)):
        fft_counts.update(rfft=0, irfft=0)
        dilate().hessian
        assert fft_counts == {"rfft": 1, "irfft": 1}
    # Neither dilate made K's pass for it.
    K.hessian
    assert fft_counts == {"rfft": 2, "irfft": 2}


# The seven kernels that take two fields, each called with a pair on
# s1:64 and s1:32.
K64 = support_of_ball(S1, origin(1), 0.5)
K32 = support_of_ball(make_grid(1, 32), origin(1), 0.5)
TWO_FIELD_KERNELS = {
    "p_sum": lambda K, L: p_sum(1.0, K, 1.0, 1.0, L),
    "dilates_check": dilates_check,
    "mixed_quermass": lambda K, L: mixed_quermass(K, L, 1.0, 0),
    "firey_sum": lambda K, L: firey_sum(1.0, K, 1.0, 1.0, L),
    "commute_check": lambda K, L: commute_check(1.0, K, 1.0, 1.0, L),
    "euclid_mixed_volume_p": lambda K, L: euclid_mixed_volume_p(K, L, 1.0),
    "V_p_functional": lambda K, L: V_p_functional(K, L, 1.0),
}


@pytest.mark.parametrize("kernel", list(TWO_FIELD_KERNELS))
def test_two_field_kernels_refuse_fields_on_two_grids(kernel):
    for K, L in ((K64, K32), (K32, K64)):
        with pytest.raises(ArgumentError, match="fields must share one grid"):
            TWO_FIELD_KERNELS[kernel](K, L)


def test_a_eigenvalues_ascending():
    theta = S2.theta
    L, M = S2.resolution
    f = 2.0 + 0.1 * np.repeat(np.cos(theta), M) ** 2
    eigs = a_eigenvalues(SupportField(S2, f).A)
    assert eigs.shape == (S2.size, 2)
    assert np.all(eigs[:, 0] <= eigs[:, 1] + 1e-15)


@pytest.mark.parametrize("n", [1, 2])
def test_plus_identity_adds_s_to_the_diagonal(n):
    rng = np.random.default_rng(n)
    M = rng.standard_normal((7, n, n))
    s = rng.standard_normal(7)
    before = M.copy()
    out = plus_identity(M, s)
    assert np.array_equal(out, M + s[:, None, None] * np.eye(n))
    assert not out.flags.writeable
    assert np.array_equal(M, before)


@pytest.mark.bitwise
@pytest.mark.parametrize("grid", [S1, S2], ids=["s1", "s2"])
def test_squared_norm_is_bitwise_the_axis_sum(grid):
    # The column form gives the bits of the reductions it replaces, on
    # read-only cached gradients as on fresh arrays.
    rng = np.random.default_rng(grid.n)
    for g in (rng.standard_normal((grid.size, grid.n)),
              SupportField(grid, 2.0 + 0.1 * rng.standard_normal(grid.size)).gradient):
        got = squared_norm(g)
        for want in (np.sum(g * g, axis=1), np.sum(g ** 2, axis=1)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the linearization of A[phi] and of the measure density


def _along(K, v, t):
    """The field phi + t v with the derivatives of K and v combined."""
    dv, d2v = derivatives(K.grid, v)
    return SupportField.with_derivatives(
        K.grid, K.phi + t * v, K.gradient + t * dv, K.hessian + t * d2v
    )


@pytest.mark.parametrize("grid", [S1, S2], ids=["s1", "s2"])
def test_linearized_kernels_match_central_differences_to_second_order(grid):
    # A seeded perturbed body and a direction v that is not a multiple of
    # it; the central-difference error falls like h^2, so halving h cuts
    # it about fourfold, at every k <= n.
    K = random_h_convex_fields(1, [grid], 1)[0]
    v = random_h_convex_fields(5, [grid], 1)[0].phi - 1.5
    dv, d2v = derivatives(grid, v)
    exact = [dA(K, v, dv, d2v)] + [d_measure_density(K, 1.0, k, v, dv, d2v)
                                   for k in range(grid.n + 1)]
    errors = []
    for h in (1e-3, 5e-4):
        plus, minus = _along(K, v, h), _along(K, v, -h)
        diffs = [(plus.A - minus.A) / (2.0 * h)] + [
            (measure_density(plus, 1.0, k) - measure_density(minus, 1.0, k)) / (2.0 * h)
            for k in range(grid.n + 1)
        ]
        errors.append([float(np.max(np.abs(d - e))) for d, e in zip(diffs, exact)])
    for coarse, fine in zip(*errors):
        assert coarse < 1e-6
        assert 3.5 < coarse / fine < 4.5


@pytest.mark.parametrize("grid", [S1, S2], ids=["s1", "s2"])
def test_d_a_at_a_ball_is_the_hessian_plus_a_multiple_of_v(grid):
    # phi = c has zero derivatives: dA[v] = D^2 v + (1 + c^-2) v / 2 I.
    c = 1.7
    K = SupportField(grid, np.full(grid.size, c))
    v = _wavy(grid)
    dv, d2v = derivatives(grid, v)
    got = dA(K, v, dv, d2v)
    assert not got.flags.writeable
    want = d2v + (0.5 * (1.0 + c ** -2) * v)[:, None, None] * np.eye(grid.n)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("grid", [S1, S2], ids=["s1", "s2"])
def test_dp_tensor_is_the_polarization_of_p_m(grid):
    # p_m(A + t B) is a polynomial of degree m in t, so its derivative at
    # 0 is read off three values exactly, up to roundoff.
    rng = np.random.default_rng(grid.n)
    A, B = (rng.standard_normal((5, grid.n, grid.n)) for _ in range(2))
    A, B = A + A.transpose(0, 2, 1), B + B.transpose(0, 2, 1)
    for m in range(grid.n + 1):
        p = [p_tensor(A + t * B, m) for t in (-1.0, 0.0, 1.0)]
        assert np.allclose(dp_tensor(A, B, m), 0.5 * (p[2] - p[0]), rtol=1e-14, atol=1e-14)


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
            validate_hpoint(row)


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
