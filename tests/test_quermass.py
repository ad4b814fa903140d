"""Modified quermassintegrals, Steiner expansions, weighted volume."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from horocvx.hconvex import (
    SupportField,
    apply_isometry_field,
    boundary_data,
    convexity,
    measure_density,
    random_h_convex_fields,
    support_of_ball,
    support_of_point,
)
from horocvx.lorentz import boost, hpoint, origin
from horocvx.quermass import (
    EXP_SINH_SERIES_SWITCH,
    MOMENT_SERIES_SWITCH,
    I_k,
    I_k_inverse,
    bracketed_newton,
    exp_sinh_integral,
    S_functional,
    ball_curvature_integral,
    classical_curvature_density,
    curvature_integral,
    k_mean_radius,
    minkowski_formula_residuals,
    modified_quermass,
    steiner_check,
    weighted_steiner_check,
    weighted_volume,
    wk_value,
)
from horocvx import quermass
from horocvx.hconvex import p_tensor, plus_identity
from horocvx.quermass import _t_moments
from horocvx.sphere_grid import (
    derivatives,
    gauss_legendre,
    integrate,
    make_grid,
    sphere_area,
)

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
            for r in (1e-6, 1e-3, 0.2, 0.7, 1.5, 10.0):
                w = I_k(n, k, r)
                # I_n saturates, so r is ill-conditioned in w there.
                cond = max(1.0, w / (r * ball_curvature_integral(n, k, r)))
                assert abs(I_k_inverse(n, k, w) - r) <= 1e-14 * r * cond, (n, k, r)
    assert I_k_inverse(2, 1, 0.0) == 0.0
    with pytest.raises(ValueError):
        I_k_inverse(1, 1, 2.0 * math.pi)  # I_1 < 2 pi is strict
    with pytest.raises(ValueError):
        I_k_inverse(1, 0, -1.0)


EXP_SINH_RHOS = (
    1e-8,
    1e-4,
    0.01,
    0.5,
    math.nextafter(EXP_SINH_SERIES_SWITCH, 0.0),
    EXP_SINH_SERIES_SWITCH,
    math.nextafter(EXP_SINH_SERIES_SWITCH, 2.0),
    2.0,
    5.0,
    20.0,
)


@pytest.mark.parametrize("b", range(4))
def test_exp_sinh_integral_matches_mpmath(b):
    with mpmath.workdps(40):
        for a in range(-3, 4):
            for rho in EXP_SINH_RHOS:
                want = mpmath.quad(lambda t: mpmath.exp(a * t) * mpmath.sinh(t) ** b, [0, rho])
                got = exp_sinh_integral(a, b, rho)
                assert abs(mpmath.mpf(got) / want - 1) <= 2e-14, (a, b, rho, got)


def test_exp_sinh_integral_edges():
    assert exp_sinh_integral(-2, 3, 0.0) == 0.0
    assert exp_sinh_integral(0, 0, 0.3) == 0.3
    assert exp_sinh_integral(3, 3, 300.0) == math.inf
    for a, b, rho in ((0, -1, 0.5), (1.5, 1, 0.5), (0, 1, -0.1), (0, 1, math.nan), (0, 1, math.inf)):
        with pytest.raises(ValueError):
            exp_sinh_integral(a, b, rho)


def test_ball_kernels_evaluate_one_exp_sinh_formula():
    # exp_sinh_integral and I_k check their arguments and then evaluate one
    # private kernel, on both sides of EXP_SINH_SERIES_SWITCH.
    for rho in EXP_SINH_RHOS:
        for a in range(-3, 4):
            for b in range(4):
                assert exp_sinh_integral(a, b, rho) == quermass._exp_sinh(a, b, rho), (a, b, rho)
        for n in (1, 2):
            for k in range(n + 1):
                want = sphere_area(n) * quermass._exp_sinh(-k, n - k, rho)
                assert I_k(n, k, rho) == want, (n, k, rho)


def test_I_k_inverse_checks_once_and_inverts_I_k_to_a_few_ulp(monkeypatch):
    radii = (1e-6, 1e-3, 0.05, 0.2, 0.7, EXP_SINH_SERIES_SWITCH, 1.3, 2.5, 5.0, 10.0)
    cases = [(n, k, I_k(n, k, r)) for n in (1, 2) for k in range(n + 1) for r in radii]
    # The Newton iteration runs on the unchecked kernels: one check_k per
    # inverse, and no call to the checked I_k or ball_curvature_integral.
    checks = []
    real = quermass.check_k
    monkeypatch.setattr(quermass, "check_k", lambda n, k: checks.append(k) or real(n, k))
    monkeypatch.setattr(quermass, "I_k", None)
    monkeypatch.setattr(quermass, "ball_curvature_integral", None)
    inverses = [I_k_inverse(n, k, w) for n, k, w in cases]
    assert checks == [k for _, k, _ in cases]
    monkeypatch.undo()
    for (n, k, w), r in zip(cases, inverses):
        assert abs(I_k(n, k, r) - w) <= 8.0 * math.ulp(w), (n, k, w)


def test_bracketed_newton_falls_back_to_bisection():
    # Newton on atan diverges from x = 20; an f' that vanishes gives no step.
    root = bracketed_newton(
        lambda x: math.atan(x - 1.0), lambda x: 1.0 / (1.0 + (x - 1.0) ** 2), -10.0, 30.0, 20.0
    )
    assert abs(root - 1.0) <= 1e-15
    root = bracketed_newton(lambda x: x**3 - 2.0, lambda x: 0.0, 0.0, 2.0)
    assert abs(root - 2.0 ** (1.0 / 3.0)) <= 1e-15
    assert bracketed_newton(lambda x: x - 0.5, lambda x: 1.0, 0.5, 1.0) == 0.5
    with pytest.raises(ValueError):
        bracketed_newton(lambda x: x * x + 1.0, lambda x: 2.0 * x, -1.0, 1.0)


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
    # The closed form on a boosted ball must still equal I_k.
    r = 0.6
    for grid in (S1, S2):
        K = offcenter_ball(grid, 0.5, r)
        for k in range(grid.n + 1):
            rep = modified_quermass(K, k)
            assert rep.method == "closed-form"
            assert abs(rep.value - I_k(grid.n, k, r)) < 1e-8


def test_k_mean_radius_of_ball():
    K = support_of_ball(S2, origin(2), 0.85)
    for k in range(3):
        assert abs(k_mean_radius(K, k) - 0.85) < 1e-10


@pytest.mark.parametrize("c", [2.0, 1e8, 1e16, 1e200])
@pytest.mark.parametrize("spec", [(1, 16), (2, 8)], ids=["s1:16", "s2:8"])
def test_k_n_mean_radius_of_a_large_ball_keeps_its_digits(spec, c):
    # W_n = (omega/n)(1 - c^{-n}) rounds to omega/n from c = 1e8 up, and
    # its inverse lost every digit there; the radius is log c.
    grid = make_grid(*spec)
    r = k_mean_radius(SupportField(grid, np.full(grid.size, c)), grid.n)
    assert abs(r - math.log(c)) <= 4 * math.ulp(math.log(c))


@pytest.mark.parametrize(
    "spec, x",
    [((1, 16), (0.3, 0.0)), ((1, 16), (0.1, -0.2)), ((2, 8), (0.3, 0.0, 0.0)),
     ((2, 8), (0.1, -0.2, 0.05))],
)
def test_k_n_mean_radius_of_a_point_is_zero(spec, x):
    # A point's W_n is 0 up to roundoff, and these points' roundoff is
    # negative, which was refused as a negative quermass value.
    grid = make_grid(*spec)
    assert k_mean_radius(support_of_point(grid, hpoint(np.array(x))), grid.n) == 0.0


@pytest.mark.parametrize("grid", [S1, S2], ids=["s1", "s2"])
def test_an_exactly_constant_field_takes_the_ball_path_with_no_fft_call(grid, fft_counts):
    K = SupportField(grid, np.full(grid.size, 2.0))
    for k in range(grid.n + 1):
        rep = modified_quermass(K, k)
        assert rep.method == "ball-closed-form"
        assert rep.value == I_k(grid.n, k, math.log(2.0))
    assert fft_counts == {"rfft": 0, "irfft": 0}


@pytest.mark.parametrize("grid", [S1, S2], ids=["s1", "s2"])
def test_a_field_one_ulp_off_a_constant_takes_the_spectral_pass(grid, fft_counts):
    # Constancy is exact: no tolerance sends a nearly constant field to I_k.
    phi = np.full(grid.size, 2.0)
    phi[5] = np.nextafter(2.0, 3.0)
    K = SupportField(grid, phi)
    for k in range(grid.n + 1):
        rep = modified_quermass(K, k)
        want = I_k(grid.n, k, math.log(2.0))
        assert rep.method == "closed-form"
        assert abs(rep.value - want) <= 1e-13 * want
    assert fft_counts["rfft"] == 1


def test_modified_quermass_validation():
    K = support_of_ball(S1, origin(1), 0.5)
    with pytest.raises(ValueError):
        modified_quermass(K, 2)
    # A = (phi - 1/phi) / 2 = -0.75 at phi = 0.5: the one not-h-convex refusal.
    below_one = r"^constant field is not h-convex: min eig A = -0\.75 "
    for grid in (S1, S2):
        with pytest.raises(ValueError, match=below_one):
            modified_quermass(SupportField(grid, np.full(grid.size, 0.5)), 0)


def _homotopy_reference(K, k, order):
    """The homotopy integral one t-node at a time, with a full A_t tensor."""
    grid, phi = K.grid, K.phi
    n = grid.n
    g, H = derivatives(grid, phi)
    grad_sq = np.sum(g * g, axis=1)
    x, wts = gauss_legendre(order)
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


# Both sides of the series switch, d = 0, the pole side d -> -1 and
# bodies far from the origin point.
MOMENT_SAMPLES = sorted(
    {-0.999, -0.9, -0.75, -0.6, -0.5000001, -0.5, -0.4999999, -0.3, -1e-3, -1e-9}
    | {0.0, 1e-9, 1e-3, 0.25, 0.4999999, 0.5, 0.5000001, 0.75, 1.0, 2.5, 7.0, 20.0}
)


@pytest.mark.parametrize("n", [1, 2])
def test_t_moments_match_mpmath(n):
    # I_j(d) = int_0^1 t^j (1 + d t)^{-(n+1)} dt = 2F1(n+1, j+1; j+2; -d) / (j+1).
    assert -MOMENT_SERIES_SWITCH in MOMENT_SAMPLES and MOMENT_SERIES_SWITCH in MOMENT_SAMPLES
    d = np.array(MOMENT_SAMPLES)
    got = _t_moments(n, d, range(5))
    with mpmath.workdps(40):
        for row, di in zip(got, MOMENT_SAMPLES):
            for j, value in enumerate(row):
                want = mpmath.hyp2f1(n + 1, j + 1, j + 2, -mpmath.mpf(di)) / (j + 1)
                assert abs(mpmath.mpf(value) / want - 1) <= 2e-13, (n, di, j, value)


@pytest.mark.bitwise
@pytest.mark.parametrize("n", [1, 2])
def test_t_moments_rows_do_not_depend_on_the_other_nodes(n):
    # A d on one side of the switch takes the unmasked path; a d that
    # straddles it is split.  Each row must be the same bits either way.
    d = np.array(MOMENT_SAMPLES)
    far = np.abs(d) >= MOMENT_SERIES_SWITCH
    assert far.any() and not far.all()
    # wk_value's ranges m..2m for every m = n - k, and the mpmath test's.
    for js in [range(m, 2 * m + 1) for m in range(n + 1)] + [range(5)]:
        mixed = _t_moments(n, d, js)
        for part in (far, ~far):
            alone = _t_moments(n, d[part], js)
            assert alone.shape == (part.sum(), len(js))
            assert np.array_equal(alone, mixed[part]), (n, js)


def _bodies_for_reference():
    bodies = random_h_convex_fields(3, [S1, S2], 4)
    # A boosted ball reaches phi = e^{-0.5} < 1 on one side and phi = e^{1.1}
    # on the other, so the closed form meets d in (-1, 0) and d > 1.
    bodies += [offcenter_ball(S1, 0.8, 0.3), offcenter_ball(S2, 0.8, 0.3)]
    assert min(float(np.min(K.phi)) for K in bodies) < 1.0
    return bodies


@pytest.mark.parametrize("index", range(6))
def test_wk_value_matches_an_order_256_homotopy(index):
    K = _bodies_for_reference()[index]
    for k in range(K.grid.n + 1):
        want = _homotopy_reference(K, k, 256)
        assert abs(wk_value(K, k) - want) <= 1e-13 * max(1.0, abs(want)), (k, want)


def _wk_value_by_matrices(K, k):
    """wk_value with C0 and C1 built whole by plus_identity and reduced by
    p_tensor at every m = n - k."""
    grid, phi = K.grid, K.phi
    n, m = grid.n, grid.n - k
    g, H = K.gradient, K.hessian
    d = phi - 1.0
    C0 = plus_identity(H, d)
    C1 = plus_identity(d[:, None, None] * H, 0.5 * (d * d - np.sum(g * g, axis=1)))
    P = [p_tensor(C0, m)]
    if m == 2:
        P.append(
            C0[:, 0, 0] * C1[:, 1, 1] + C1[:, 0, 0] * C0[:, 1, 1] - 2.0 * C0[:, 0, 1] * C1[:, 0, 1]
        )
    if m >= 1:
        P.append(p_tensor(C1, m))
    moments = _t_moments(n, d, range(m, 2 * m + 1))
    acc = P[0] * moments[:, 0]
    for i in range(1, len(P)):
        acc += P[i] * moments[:, i]
    return integrate(grid, d * acc)


@pytest.mark.bitwise
@pytest.mark.parametrize("n, k", [(1, 0), (2, 1), (2, 0), (1, 1), (2, 2)])
def test_wk_value_is_bitwise_the_matrix_form(n, k):
    grids = [make_grid(1, 96)] if n == 1 else [make_grid(2, 16), make_grid(2, 20)]
    bodies = random_h_convex_fields(5, grids, 4) + [offcenter_ball(grids[0], 0.8, 0.3)]
    for K in bodies + [K for K in _bodies_for_reference() if K.grid.n == n]:
        assert wk_value(K, k).hex() == _wk_value_by_matrices(K, k).hex()


@pytest.mark.parametrize("grid", [S1, S2], ids=["s1", "s2"])
def test_wk_value_k_n_is_the_closed_form(grid):
    n = grid.n
    for K in random_h_convex_fields(5, [grid], 2) + [offcenter_ball(grid, 0.8, 0.3)]:
        want = integrate(grid, 1.0 - K.phi ** (-float(n))) / n
        assert abs(wk_value(K, n) - want) <= 1e-14


@pytest.mark.parametrize("grid", [S1, S2], ids=["s1", "s2"])
def test_modified_quermass_does_one_analysis(grid, fft_counts):
    rep = modified_quermass(smooth_body(grid), 0)
    assert rep.method == "closed-form"
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
    # K's one pass serves its outer parallel body K_rho = e^rho K too.
    steiner_check(smooth_body(grid), 0.3)
    assert fft_counts["rfft"] == 1


# ---------------------------------------------------------------------------
# per-field cache of W_k, the k-mean radius, the curvature integrals and
# the weighted volume


@pytest.mark.parametrize("grid", [S1, S2], ids=["s1", "s2"])
def test_cached_scalars_equal_those_of_a_fresh_field(grid):
    K = smooth_body(grid)
    reports = [modified_quermass(K, k) for k in range(grid.n + 1)]
    radii = [k_mean_radius(K, k) for k in range(grid.n + 1)]
    masses = [curvature_integral(K, k) for k in range(grid.n + 1)]
    vw = weighted_volume(K)
    fresh = SupportField(grid, K.phi)
    for k in range(grid.n + 1):
        assert modified_quermass(K, k) is reports[k]
        assert reports[k].value == modified_quermass(fresh, k).value
        assert k_mean_radius(K, k) == radii[k] == k_mean_radius(fresh, k)
        assert curvature_integral(K, k) is masses[k]
        assert masses[k] == curvature_integral(fresh, k)
    assert weighted_volume(K) == vw == weighted_volume(fresh)
    assert S_functional(K) == S_functional(fresh)


def test_a_keyword_argument_shares_the_memo_entry_of_its_positional_form():
    # per_field binds keywords to the signature, so k=0 and 0 are one key.
    K = smooth_body(S1)
    w = modified_quermass(K, k=0)
    assert modified_quermass(K, 0) is w
    assert k_mean_radius(K, k=0) is k_mean_radius(K, 0)
    assert [key for key in K._memo if key[0] is modified_quermass.__wrapped__] == [
        (modified_quermass.__wrapped__, 0)
    ]


def test_wk_value_with_explicit_derivatives_bypasses_the_cache(monkeypatch):
    # The flow's Newton solve builds each trial state from the field's phi
    # and derivatives it already has (`with_derivatives`); its W_k comes
    # from those derivatives, and neither reads nor fills the cache of
    # the field that has that phi.
    K = smooth_body(S2)
    other = SupportField(S2, 1.2 * K.phi)
    g, H = other.gradient, other.hessian
    trial = wk_value(SupportField.with_derivatives(S2, K.phi, g, H), 1)
    real = quermass.wk_value
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(quermass, "wk_value", counted)
    W = modified_quermass(K, 1).value
    assert len(calls) == 1
    assert modified_quermass(K, 1).value == W
    assert len(calls) == 1
    assert W != trial
    assert real(SupportField.with_derivatives(S2, K.phi, g, H), 1) == trial


def test_a_call_that_raises_is_not_cached():
    below_one = SupportField(S1, np.full(S1.size, 0.5))
    nonconvex = SupportField(S1, 2.2 * (1.0 + 0.05 * np.cos(3 * S1.theta)))
    for _ in range(3):
        with pytest.raises(ValueError, match="not h-convex"):
            modified_quermass(below_one, 0)
        with pytest.raises(ValueError, match="not h-convex"):
            k_mean_radius(below_one, 0)
        with pytest.raises(ValueError, match="not h-convex"):
            weighted_volume(nonconvex)
        with pytest.raises(ValueError, match="k must lie"):
            curvature_integral(below_one, 2)


def test_quermass_report_is_frozen():
    rep = modified_quermass(smooth_body(S1), 0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.value = 0.0
    assert modified_quermass(SupportField(S1, smooth_body(S1).phi), 0) == rep


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
            assert ball_curvature_integral(n, m, r) == want
            # It is the r-derivative of I_m.
            h = 1e-5
            slope = (I_k(n, m, r + h) - I_k(n, m, r - h)) / (2.0 * h)
            assert abs(slope - want) < 1e-9 * want


def _p_normalized(eigs, m):
    """Reference: the normalized elementary symmetric p_m = sigma_m / C(n, m)
    of pointwise eigenvalues (size, n), the route the kernel replaced."""
    n = eigs.shape[1]
    if m == 0:
        return np.ones(eigs.shape[0])
    if n == 1:
        return eigs[:, 0]
    if m == 1:
        return 0.5 * (eigs[:, 0] + eigs[:, 1])
    return eigs[:, 0] * eigs[:, 1]


@pytest.mark.parametrize("grid", [S1, S2], ids=["s1", "s2"])
def test_curvature_densities_match_the_eigenvalue_route(grid):
    # p_m(kappa~) dmu = phi^{-m} p_{n-m}(A) dsigma, and the true
    # curvatures through p_m(1 + kappa~) = sum_j C(m, j) p_j(kappa~).
    for K in random_h_convex_fields(11, [grid], 6):
        bd = boundary_data(K)
        for m in range(grid.n + 1):
            shifted = _p_normalized(bd.kappa_tilde, m) * bd.area_density
            classical = _p_normalized(1.0 + bd.kappa_tilde, m) * bd.area_density
            assert np.all(shifted > 0.0) and np.all(classical > 0.0)
            np.testing.assert_allclose(measure_density(K, 0, m), shifted, rtol=1e-12, atol=0)
            np.testing.assert_allclose(
                classical_curvature_density(K, m), classical, rtol=1e-12, atol=0
            )


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
        assert len(rep.shifted_residuals) == grid.n + 1
        for resid in rep.shifted_residuals:
            assert abs(resid) < 1e-10 * rep.scale
        assert abs(rep.classical_residual) < 1e-10 * rep.scale


def test_steiner_residuals_ball():
    K = support_of_ball(S2, origin(2), 0.5)
    rep = steiner_check(K, 0.45)
    for resid in rep.shifted_residuals:
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


@pytest.mark.parametrize(
    "check",
    [
        lambda K: steiner_check(K, 0.3),
        lambda K: weighted_steiner_check(K, 0.3),
        minkowski_formula_residuals,
    ],
    ids=["steiner", "weighted-steiner", "minkowski"],
)
@pytest.mark.parametrize("grid", [S1, S2], ids=["s1", "s2"])
def test_curvature_checks_refuse_a_body_that_is_not_uniformly_h_convex(grid, check):
    # A point is h-convex, but A[phi] = 0 and its boundary has no
    # curvature data, so each check that expands in curvatures refuses it.
    K = support_of_point(grid, origin(grid.n))
    assert convexity(K).classification == "h-convex"
    with pytest.raises(ValueError, match="curvature data requires a uniformly h-convex body"):
        check(K)


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
