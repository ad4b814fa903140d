"""Grid construction, quadrature, spectral calculus, serialization."""

import dataclasses
import json
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horocvx import sphere_grid
from horocvx.sphere_grid import (
    ArgumentError,
    antipodal,
    derivatives,
    even_error,
    even_project,
    field_from_json_dict,
    field_to_json_dict,
    frame_vectors,
    gauss_legendre,
    grid_from_json_dict,
    grid_to_json_dict,
    integrate,
    load_field,
    make_grid,
    refine,
    resample,
    resolvent,
    sphere_area,
)

S1 = make_grid(1, 64)
S2 = make_grid(2, 16)


def s1_theta(grid):
    return grid.theta


# The operators the package builds from its one spectral pass: the
# gradient and the Hessian are parts of `derivatives`, the Laplacian is
# the trace of the Hessian, and the band projection is the resolvent at
# mu = 0.


def gradient(grid, values):
    return derivatives(grid, values)[0]


def hessian(grid, values):
    return derivatives(grid, values)[1]


def laplacian(grid, values):
    return np.trace(hessian(grid, values), axis1=-2, axis2=-1)


def band_project(grid, values):
    return resolvent(grid, values, 0.0)[0]


def s2_angles(grid):
    L, M = grid.resolution
    theta = np.repeat(grid.theta, M)
    phi = np.tile(grid.phi, L)
    return theta, phi


# ---------------------------------------------------------------------------
# construction and quadrature


def test_make_grid_validation():
    with pytest.raises(ValueError):
        make_grid(1, 63)  # odd
    with pytest.raises(ValueError):
        make_grid(1, 2)  # too small
    with pytest.raises(ValueError):
        make_grid(2, 1)
    with pytest.raises(ValueError):
        make_grid(3, 8)


def test_make_grid_rejects_non_integral_resolutions():
    for n, res in ((1, 96.7), (1, 96.0), (2, 8.5), (2, "8"), (1, True)):
        with pytest.raises(ValueError, match="integer"):
            make_grid(n, res)
    assert make_grid(1, np.int64(16)).resolution == (16,)
    assert make_grid(2, np.int32(4)).resolution == (4, 8)
    d = field_to_json_dict(S1, np.ones(S1.size))
    for bad in (
        dict(d, n=1.9),
        dict(d, grid={"type": "uniform_s1", "nodes": 64.5}),
        dict(d, n=2, grid={"type": "gl_product", "polar": 8.5, "azimuth": 16}),
        dict(d, n=2, grid={"type": "gl_product", "polar": 8, "azimuth": 16.0}),
    ):
        with pytest.raises(ValueError, match="integer"):
            field_from_json_dict(bad)


def test_grid_shapes():
    assert S1.size == 64
    assert S1.band_limit == 31
    assert S2.size == 16 * 32
    assert S2.resolution == (16, 32)
    assert S2.band_limit == 15
    assert np.allclose(np.linalg.norm(S1.nodes, axis=1), 1.0, atol=1e-15)
    assert np.allclose(np.linalg.norm(S2.nodes, axis=1), 1.0, atol=1e-15)


def test_node_tables_are_read_only_properties():
    assert np.array_equal(S1.theta, 2.0 * math.pi * np.arange(64) / 64)
    L, M = S2.resolution
    assert S2.theta.shape == S2.x.shape == S2.wx.shape == S2.s.shape == (L,)
    assert S2.phi.shape == (M,)
    assert np.allclose(S2.x, np.cos(S2.theta), rtol=0.0, atol=1e-15)
    assert np.array_equal(S2.s, np.sqrt(1.0 - S2.x * S2.x))
    assert math.isclose(S2.wx.sum(), 2.0, rel_tol=1e-14)
    for name in ("theta", "phi", "x", "wx", "s"):
        table = getattr(S2, name)
        assert table is S2._cache[name]
        with pytest.raises(ValueError):
            table[0] = 0.0
    with pytest.raises(AttributeError, match="S\\^2"):
        S1.phi


def test_make_grid_returns_one_read_only_grid_per_resolution():
    assert make_grid(2, 20) is make_grid(2, np.int64(20))
    assert make_grid(1, 64) is make_grid(1, 64) == S1
    for g in (S1, S2):
        for a in (g.nodes, g.weights, g.antipodal_index, g.theta, frame_vectors(g)):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0
        assert frame_vectors(g) is frame_vectors(g)
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.band_limit = 3


def _gauss_legendre_reference(L, x0):
    """Nodes and weights in 40 digits: Newton on mpmath's P_L from x0."""

    def dP(t):
        return L * (t * mpmath.legendre(L, t) - mpmath.legendre(L - 1, t)) / (t * t - 1)

    with mpmath.workdps(40):
        nodes, weights = [], []
        for t in map(mpmath.mpf, x0.tolist()):
            for _ in range(4):
                t -= mpmath.legendre(L, t) / dP(t)
            nodes.append(t)
            weights.append(2 / ((1 - t * t) * dP(t) ** 2))
        return nodes, weights


@pytest.mark.parametrize("L", [2, 3, 8, 16, 20, 32, 64, 65, 128])
def test_gauss_legendre_rule_matches_mpmath(L):
    x, w = gauss_legendre(L)
    grid = make_grid(2, L)
    assert np.all(np.diff(x) > 0.0)
    assert np.array_equal(grid.x, -grid.x[::-1]) and np.array_equal(grid.wx, grid.wx[::-1])
    x_ref, w_ref = _gauss_legendre_reference(L, x)
    # The grid holds the rule symmetrized, polar angle ascending.
    for nodes, weights in ((x, w), (grid.x[::-1], grid.wx[::-1])):
        for xi, wi, xr, wr in zip(nodes, weights, x_ref, w_ref):
            assert abs(xi - xr) <= 2.3e-16
            assert abs(wi / wr - 1) <= 1e-12
        assert abs(math.fsum(weights) - 2.0) <= 1e-15
        for j in range(L):  # exact through degree 2L - 1
            moment = math.fsum((weights * nodes ** (2 * j)).tolist())
            assert math.isclose(moment, 2.0 / (2 * j + 1), rel_tol=1e-13)


def test_weights_sum_to_sphere_area():
    assert math.isclose(sum(S1.weights), 2.0 * math.pi, rel_tol=1e-14)
    assert math.isclose(sum(S2.weights), 4.0 * math.pi, rel_tol=1e-14)
    assert sphere_area(1) == 2.0 * math.pi
    assert sphere_area(2) == 4.0 * math.pi


def test_quadrature_s1_trig_exactness():
    theta = s1_theta(S1)
    # int_0^{2pi} cos(k t) dt = 0 for k != 0, int cos^2(3t) = pi.
    for k in range(1, 20):
        assert abs(integrate(S1, np.cos(k * theta))) < 1e-12
    assert math.isclose(integrate(S1, np.cos(3 * theta) ** 2), math.pi, rel_tol=1e-13)


def test_quadrature_s2_polynomial_exactness():
    z = S2.nodes
    # Moments of coordinates over S^2: int z_i z_j = (4 pi / 3) delta_ij,
    # int z_3^4 = 4 pi / 5, int z_1^2 z_2^2 = 4 pi / 15.
    for i in range(3):
        for j in range(3):
            want = 4.0 * math.pi / 3.0 if i == j else 0.0
            assert abs(integrate(S2, z[:, i] * z[:, j]) - want) < 1e-12
    assert abs(integrate(S2, z[:, 2] ** 4) - 4.0 * math.pi / 5.0) < 1e-12
    assert abs(integrate(S2, z[:, 0] ** 2 * z[:, 1] ** 2) - 4.0 * math.pi / 15.0) < 1e-12
    for i in range(3):
        assert abs(integrate(S2, z[:, i])) < 1e-12


@pytest.mark.bitwise
@pytest.mark.parametrize(
    "grid", [make_grid(1, 96), S2, make_grid(2, 20)], ids=["s1:96", "s2:16", "s2:20"]
)
def test_integrate_is_the_correctly_rounded_sum_of_the_weighted_values(grid):
    rng = np.random.default_rng(grid.size)
    smooth = 2.0 + 0.1 * rng.standard_normal(grid.size)
    # Terms of size up to 1e15 whose sum is of order 10, as x is odd;
    # np.sum is off by up to 12% here.
    cancelling = 1e16 * grid.nodes[:, 0] + 1.0
    for v in (smooth, cancelling):
        want = math.fsum((grid.weights * v).tolist())
        assert integrate(grid, v).hex() == want.hex()


def test_refine_doubles_resolution():
    assert refine(S1).resolution == (128,)
    assert refine(S2).resolution == (32, 64)


# ---------------------------------------------------------------------------
# antipodal structure


def test_antipodal_is_involution_matching_nodes():
    for g in (S1, S2):
        idx = g.antipodal_index
        assert np.array_equal(idx[idx], np.arange(g.size))
        assert np.allclose(g.nodes[idx], -g.nodes, atol=1e-15)


def test_even_projection():
    theta = s1_theta(S1)
    f = 1.0 + 0.3 * np.cos(2 * theta) + 0.2 * np.sin(3 * theta)
    even = 1.0 + 0.3 * np.cos(2 * theta)
    proj = even_project(S1, f)
    assert np.allclose(proj, even, atol=1e-15)
    assert even_error(S1, proj) < 1e-15
    assert np.allclose(even_project(S1, proj), proj, atol=1e-15)
    # sin(3 theta) is odd, so its even error is twice its sup norm there.
    assert even_error(S1, np.sin(3 * theta)) > 0.3


@pytest.mark.parametrize("grid", [S1, S2], ids=["s1", "s2"])
def test_antipodal_maps_act_on_each_field_of_a_stack(grid):
    rng = np.random.default_rng(5)
    stack = rng.standard_normal((2, grid.size))
    for fn in (antipodal, even_project):
        out = fn(grid, stack)
        for i in range(2):
            assert np.array_equal(out[i], fn(grid, stack[i]))
    assert even_error(grid, stack) == max(even_error(grid, row) for row in stack)


def test_even_projection_s2():
    z = S2.nodes
    f = 2.0 + 0.5 * z[:, 0] + 0.25 * (3.0 * z[:, 2] ** 2 - 1.0)
    proj = even_project(S2, f)
    assert np.allclose(proj, 2.0 + 0.25 * (3.0 * z[:, 2] ** 2 - 1.0), atol=1e-14)
    assert np.allclose(antipodal(S2, proj), proj, atol=1e-14)


# ---------------------------------------------------------------------------
# spectral derivatives


def test_s1_derivative_oracles():
    theta = s1_theta(S1)
    for k in (1, 3, 7):
        f = np.cos(k * theta)
        g = gradient(S1, f)[:, 0]
        h = hessian(S1, f)[:, 0, 0]
        assert np.allclose(g, -k * np.sin(k * theta), atol=1e-11)
        assert np.allclose(h, -k * k * np.cos(k * theta), atol=1e-10)
        assert np.allclose(laplacian(S1, f), h, atol=1e-12)


def _synthesize_profiles(grid, profiles):
    """Node values of S^2 polar profiles (..., B+1, L), written into the
    spectrum that `_synthesize` reads."""
    G, view = grid._spectrum(profiles.shape[:-2])
    view[...] = profiles
    return grid._synthesize(G)


def _two_pass_gradient(grid, values):
    """Gradient from its own analysis, as before the fused pass."""
    if grid.n == 1:
        c, N = grid._analyze(values), grid.resolution[0]
        return np.fft.irfft((c * grid._multipliers[0]) * N, n=N)[:, None]
    (P, dP), _ = grid._tables
    a = grid._analyze(values)
    m = np.arange(grid.band_limit + 1)[:, None]
    ft_m = sphere_grid._real_matmul(dP, a)
    fp_m = (1j * m) * sphere_grid._real_matmul(P, a)
    ft, fp = _synthesize_profiles(grid, np.stack([ft_m, fp_m]))
    inv_s = np.repeat(1.0 / grid.s, grid.resolution[1])
    return np.stack([ft, fp * inv_s], axis=1)


def _two_pass_hessian(grid, values):
    """Hessian from its own analysis, as before the fused pass."""
    if grid.n == 1:
        c, N = grid._analyze(values), grid.resolution[0]
        return np.fft.irfft((c * grid._multipliers[1]) * N, n=N)[:, None, None]
    (P, dP), ll1 = grid._tables
    a = grid._analyze(values)
    m = np.arange(grid.band_limit + 1)[:, None]
    M = grid.resolution[1]
    v_m = sphere_grid._real_matmul(P, a)
    vt_m = sphere_grid._real_matmul(dP, a)
    lap_m = sphere_grid._real_matmul(P, ll1 * a)
    vt, lap, fp, ftp, fpp = _synthesize_profiles(
        grid, np.stack([vt_m, lap_m, (1j * m) * v_m, (1j * m) * vt_m, -(m * m) * v_m])
    )
    s = np.repeat(grid.s, M)
    x = np.repeat(grid.x, M)
    H = np.empty((grid.size, 2, 2))
    H[:, 0, 0] = -(x / s) * vt - lap - fpp / (s * s)
    H[:, 0, 1] = ftp / s - (x / (s * s)) * fp
    H[:, 1, 0] = H[:, 0, 1]
    H[:, 1, 1] = fpp / (s * s) + (x / s) * vt
    return H


@pytest.mark.bitwise
@pytest.mark.parametrize("n, resolution", [(1, 96), (2, 16), (2, 20)])
def test_fused_derivatives_match_two_passes_bitwise(n, resolution):
    grid = make_grid(n, resolution)
    rng = np.random.default_rng(resolution)
    f = 2.0 + 0.1 * rng.standard_normal(grid.size)
    g, H = derivatives(grid, f)
    assert np.array_equal(g, _two_pass_gradient(grid, f))
    assert np.array_equal(H, _two_pass_hessian(grid, f))
    assert np.array_equal(gradient(grid, f), g)
    assert np.array_equal(hessian(grid, f), H)


def _per_order_tables(grid):
    """Ragged per-order tables P[m], dP[m] of shape (L, B-m+1), built with
    the degree-lowering recurrence one column at a time."""
    x, s, B = grid.x, grid.s, grid.band_limit
    P, dP = [], []
    for m in range(B + 1):
        Pm = sphere_grid._legendre_columns(m, B, x, s)
        dPm = np.empty_like(Pm)
        for idx, l in enumerate(range(m, B + 1)):
            if l == m:
                dPm[:, idx] = l * x * Pm[:, idx] / s
            else:
                c = math.sqrt((2 * l + 1) * (l * l - m * m) / (2 * l - 1))
                dPm[:, idx] = (l * x * Pm[:, idx] - c * Pm[:, idx - 1]) / s
        P.append(Pm)
        dP.append(dPm)
    return P, dP


@pytest.mark.parametrize("L", [2, 3, 8, 16, 64])
def test_padded_legendre_tables_match_the_per_order_recurrence(L):
    grid = make_grid(2, L)
    PdP, ll1 = grid._tables
    P, dP = PdP
    B = grid.band_limit
    assert PdP.shape == (2, B + 1, L, B + 1)
    # One read-only buffer: P and dP are views of it, not copies.
    assert not P.flags.writeable and not dP.flags.writeable
    assert np.shares_memory(P, PdP) and np.shares_memory(dP, PdP)
    l = np.arange(B + 1)
    assert np.array_equal(ll1, l * (l + 1.0))
    P_ref, dP_ref = _per_order_tables(grid)
    for m in range(B + 1):
        assert np.array_equal(P[m, :, m:], P_ref[m])
        assert np.array_equal(dP[m, :, m:], dP_ref[m])
        assert not P[m, :, :m].any() and not dP[m, :, :m].any()
    # Discrete orthonormality: 2 pi sum_j wx_j P[m, j, l] P[m, j, l'] = delta.
    gram = 2.0 * math.pi * np.einsum("j,mjl,mjk->mlk", grid.wx, P, P)
    want = np.zeros_like(gram)
    for m in range(B + 1):
        want[m, m:, m:] = np.eye(B + 1 - m)
    assert np.max(np.abs(gram - want)) < 1e-13


@pytest.mark.bitwise
@pytest.mark.parametrize("L", [2, 3, 16, 20])
def test_node_factors_are_the_repeated_polar_tables(L):
    grid = make_grid(2, L)
    M = grid.resolution[1]
    s, x = np.repeat(grid.s, M), np.repeat(grid.x, M)
    want = (s, np.repeat(1.0 / grid.s, M), x / s, s * s, x / (s * s))
    factors = grid._node_factors
    assert factors is grid._node_factors and len(factors) == len(want)
    for got, ref in zip(factors, want):
        assert np.array_equal(got, ref)
        assert not got.flags.writeable


def test_fused_derivatives_do_one_analysis(fft_counts):
    # S^1: one analysis, and one synthesis of both derivative orders.
    derivatives(S1, np.cos(s1_theta(S1)))
    assert fft_counts == {"rfft": 1, "irfft": 1}
    # S^2: one analysis, and one synthesis of the five profiles of the
    # Hessian, which also carry the gradient.
    fft_counts.update(rfft=0, irfft=0)
    derivatives(S2, 1.0 + S2.nodes[:, 2] ** 2)
    assert fft_counts == {"rfft": 1, "irfft": 1}


@pytest.mark.parametrize("grid", [S1, S2], ids=["s1", "s2"])
def test_resolvent_inverts_one_minus_mu_laplacian(grid, fft_counts):
    # R v solves (1 - mu Laplacian) R v = v for band-limited v, and its
    # derivatives are those of R v, all from one analysis.
    rng = np.random.default_rng(7)
    v = band_project(grid, 2.0 + 0.1 * rng.standard_normal(grid.size))
    fft_counts.update(rfft=0, irfft=0)
    Rv, g, H = resolvent(grid, v, 0.3)
    assert fft_counts == {"rfft": 1, "irfft": 1}
    # A stack of two fields is resolved in the same number of calls.
    fft_counts.update(rfft=0, irfft=0)
    resolvent(grid, np.stack([v, 2.0 * v]), 0.3)
    assert fft_counts == {"rfft": 1, "irfft": 1}
    assert np.allclose(Rv - 0.3 * laplacian(grid, Rv), v, atol=1e-12)
    g_ref, H_ref = derivatives(grid, Rv)
    assert np.allclose(g, g_ref, atol=1e-12)
    assert np.allclose(H, H_ref, atol=1e-12)
    # mu = 0 is the band projection; a resolvent output is band-limited.
    assert np.allclose(resolvent(grid, v, 0.0)[0], v, atol=1e-13)
    assert np.allclose(band_project(grid, Rv), Rv, atol=1e-13)


@pytest.mark.bitwise
@pytest.mark.parametrize("F", [1, 2, 3])
@pytest.mark.parametrize(
    "grid", [make_grid(1, 96), S2, make_grid(2, 20)], ids=["s1", "s2", "s2:20"]
)
def test_stacked_pass_is_bitwise_the_per_field_passes(grid, F):
    rng = np.random.default_rng(F)
    stack = 2.0 + 0.1 * rng.standard_normal((F, grid.size))
    g, H = derivatives(grid, stack)
    assert g.shape == (F, grid.size, grid.n) and H.shape == (F, grid.size, grid.n, grid.n)
    out = resolvent(grid, stack, 0.3)
    for i, field in enumerate(stack):
        gi, Hi = derivatives(grid, field)
        assert np.array_equal(g[i], gi) and np.array_equal(H[i], Hi)
        for stacked, single in zip(out, resolvent(grid, field, 0.3)):
            assert np.array_equal(stacked[i], single)
        assert np.array_equal(gradient(grid, stack)[i], gi)
        assert np.array_equal(hessian(grid, stack)[i], Hi)
        assert np.array_equal(laplacian(grid, stack)[i], laplacian(grid, field))
        assert np.array_equal(band_project(grid, stack)[i], band_project(grid, field))
    # Any leading axes, not only one.
    deep = np.stack([stack, stack[::-1]])
    assert np.array_equal(derivatives(grid, deep)[1][1], H[::-1])
    for mu in (0.0, 0.3):
        out = resolvent(grid, deep, mu)
        for idx in np.ndindex(deep.shape[:-1]):
            for stacked, single in zip(out, resolvent(grid, deep[idx], mu)):
                assert np.array_equal(stacked[idx], single)


CONSTANT_GRIDS = [make_grid(1, 96), S2]


@pytest.mark.bitwise
@pytest.mark.parametrize("grid", CONSTANT_GRIDS, ids=["s1", "s2"])
def test_constant_stack_makes_no_pass(grid, fft_counts):
    # A constant's derivatives are exactly zero and R c = c at every mu.
    c = np.full(grid.size, math.exp(0.6931))
    for v in (c, np.stack([c, np.full(grid.size, 2.0)])):
        g, H = derivatives(grid, v)
        assert g.shape == v.shape + (grid.n,) and H.shape == v.shape + (grid.n, grid.n)
        assert g.dtype == H.dtype == float and not g.any() and not H.any()
        for mu in (0.0, 0.5):
            Rv, g, H = resolvent(grid, v, mu)
            assert Rv.dtype == float and Rv.tobytes() == v.tobytes()
            assert not np.shares_memory(Rv, v)
            assert g.shape == v.shape + (grid.n,) and not g.any()
            assert H.shape == v.shape + (grid.n, grid.n) and not H.any()
    assert fft_counts == {"rfft": 0, "irfft": 0}


def _analysis_and_synthesis(grid, values, mu):
    """The one analysis and synthesis of a pass, called directly."""
    coeffs = grid._analyze(values)
    if mu is not None:
        coeffs = grid._resolve(coeffs, mu)
    return grid._fields(coeffs, mu is not None)


@pytest.mark.bitwise
@pytest.mark.parametrize("grid", CONSTANT_GRIDS, ids=["s1", "s2"])
def test_mixed_constant_stack_takes_the_full_pass_bitwise(grid, fft_counts):
    # Constancy is exact: a field one ulp off a constant at one node, or
    # one that repeats its first value at the second node, takes the pass.
    c = np.full(grid.size, 2.0)
    ulp = c.copy()
    ulp[-1] = np.nextafter(2.0, 3.0)
    repeats = 2.0 + 0.1 * np.cos(np.arange(grid.size) * 2.0 * math.pi / grid.size)
    repeats[1] = repeats[0]
    for v in (np.stack([c, repeats]), np.stack([ulp, c]), ulp):
        for mu in (None, 0.0, 0.5):
            fft_counts.update(rfft=0, irfft=0)
            out = derivatives(grid, v) if mu is None else resolvent(grid, v, mu)
            assert fft_counts == {"rfft": 1, "irfft": 1}
            want = _analysis_and_synthesis(grid, v, mu)[mu is None :]
            for got, ref in zip(out, want):
                assert got.tobytes() == ref.tobytes()
    assert derivatives(grid, ulp)[0].any()


@pytest.mark.bitwise
@pytest.mark.parametrize("grid", CONSTANT_GRIDS, ids=["s1", "s2"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_constant_stack_keeps_its_pass(grid, bad, fft_counts):
    # An infinite constant does not turn into finite zero derivatives.
    v = np.full(grid.size, bad)
    for v in (v, np.stack([np.full(grid.size, 2.0), v])):
        for mu in (None, 0.0, 0.5):
            fft_counts.update(rfft=0, irfft=0)
            with np.errstate(invalid="ignore"):
                out = derivatives(grid, v) if mu is None else resolvent(grid, v, mu)
            assert fft_counts == {"rfft": 1, "irfft": 1}
            for o in out:
                assert not np.isfinite(o if v.ndim == 1 else o[1]).any()


@pytest.mark.bitwise
@pytest.mark.parametrize("lead", [(), (2,), (2, 3)], ids=["one", "stack2", "stack2x3"])
@pytest.mark.parametrize("N", [4, 96, 128, 1024])
def test_s1_one_synthesis_is_bitwise_one_irfft_per_order(N, lead):
    # The one irfft of the S^1 pass gives the bits of one irfft per order,
    # irfft(c N), irfft((c i k) N) and irfft((c (i k)^2) N), with the
    # values or without them.
    grid = make_grid(1, N)
    rng = np.random.default_rng(N)
    shape = lead + (N // 2 + 1,)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ik, ik2 = grid._multipliers
    want = (
        np.fft.irfft(c * N, n=N),
        np.fft.irfft((c * ik) * N, n=N)[..., None],
        np.fft.irfft((c * ik2) * N, n=N)[..., None, None],
    )
    for value in (False, True):
        for asked, got, ref in zip((value, True, True), grid._fields(c, value), want):
            if asked:
                assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
            else:
                assert got is None


@pytest.mark.parametrize("grid", [S1, S2], ids=["s1", "s2"])
@pytest.mark.parametrize("mu", [-1.0, -0.5, math.nan, math.inf, -math.inf, True, "0.3"])
def test_resolvent_refuses_a_negative_or_non_finite_mu(grid, mu):
    v = 2.0 + 0.1 * grid.nodes[:, 0]
    with pytest.raises(ValueError, match="resolvent mu"):
        resolvent(grid, v, mu)


def test_resolvent_takes_any_finite_nonnegative_mu():
    v = 2.0 + 0.1 * S1.nodes[:, 0]
    for mu, same in ((np.float64(0.3), 0.3), (0, 0.0), (-0.0, 0.0)):
        for a, b in zip(resolvent(S1, v, mu), resolvent(S1, v, same)):
            assert np.array_equal(a, b)


@pytest.mark.bitwise
def test_one_synthesis_of_many_profiles_is_bitwise_one_per_profile():
    rng = np.random.default_rng(3)
    shape = (2, 6, S2.band_limit + 1, S2.resolution[0])
    profiles = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    fields = _synthesize_profiles(S2, profiles)
    assert fields.shape == (2, 6, S2.size)
    for idx in np.ndindex(2, 6):
        assert np.array_equal(fields[idx], _synthesize_profiles(S2, profiles[idx]))


@pytest.mark.parametrize("grid", [make_grid(1, 96), S2], ids=["s1", "s2"])
def test_one_field_keeps_its_shapes(grid):
    f = 2.0 + 0.1 * grid.nodes[:, 0]
    size, n = grid.size, grid.n
    g, H = derivatives(grid, f)
    assert g.shape == (size, n) and H.shape == (size, n, n)
    assert [a.shape for a in resolvent(grid, f, 0.3)] == [(size,), (size, n), (size, n, n)]
    assert gradient(grid, f).shape == (size, n)
    assert hessian(grid, f).shape == (size, n, n)
    assert laplacian(grid, f).shape == band_project(grid, f).shape == (size,)


FIELD_OPERATORS = {
    "derivatives": derivatives,
    "resolvent": lambda grid, v: resolvent(grid, v, 0.3),
    "gradient": gradient,
    "hessian": hessian,
    "band_project": band_project,
    "laplacian": laplacian,
    "resample": lambda grid, v: resample(grid, v, grid),
    "integrate": integrate,
    "antipodal": antipodal,
    "even_error": even_error,
    "even_project": even_project,
}


@pytest.mark.parametrize("op", sorted(FIELD_OPERATORS))
@pytest.mark.parametrize(
    "grid, count",
    [(make_grid(1, 96), 97), (make_grid(1, 96), 64), (S2, 513), (S2, 256)],
    ids=["s1-97", "s1-64", "s2-513", "s2-256"],
)
def test_mis_sized_fields_are_rejected_where_they_enter(op, grid, count):
    # A 97-value field has the rfft bins of a 96-node one, so only a
    # shape check at the entry can tell them apart.
    for bad in (np.ones(count), np.ones((2, count)), np.float64(1.0)):
        with pytest.raises(ValueError, match=re.escape(f"{bad.shape}") + f".*{grid.size} nodes"):
            FIELD_OPERATORS[op](grid, bad)


@pytest.mark.parametrize("op", ["resample", "integrate"])
def test_one_field_operators_reject_a_stack(op):
    with pytest.raises(ValueError, match=r"\(2, 64\).*64 nodes"):
        FIELD_OPERATORS[op](S1, np.ones((2, S1.size)))


def test_resolvent_drops_the_s1_nyquist_bin():
    N = S1.resolution[0]
    alternating = np.cos((N // 2) * s1_theta(S1))
    assert np.max(np.abs(resolvent(S1, alternating, 0.1)[0])) < 1e-15


def test_s2_gradient_oracles():
    theta, phi = s2_angles(S2)
    # z_3 = cos theta: frame gradient (-sin theta, 0).
    g = gradient(S2, np.cos(theta))
    assert np.allclose(g[:, 0], -np.sin(theta), atol=1e-12)
    assert np.allclose(g[:, 1], 0.0, atol=1e-12)
    # z_1 = sin theta cos phi: frame gradient (cos theta cos phi, -sin phi).
    g = gradient(S2, np.sin(theta) * np.cos(phi))
    assert np.allclose(g[:, 0], np.cos(theta) * np.cos(phi), atol=1e-12)
    assert np.allclose(g[:, 1], -np.sin(phi), atol=1e-12)


def test_s2_linear_restriction_hessian():
    # The restriction of a linear function l(z) = <a, z> to the sphere
    # satisfies Hess l = -l g and Delta l = -2 l.
    a = np.array([0.3, -0.7, 0.55])
    f = S2.nodes @ a
    H = hessian(S2, f)
    assert np.allclose(H[:, 0, 0], -f, atol=1e-11)
    assert np.allclose(H[:, 1, 1], -f, atol=1e-11)
    assert np.allclose(H[:, 0, 1], 0.0, atol=1e-11)
    assert np.allclose(laplacian(S2, f), -2.0 * f, atol=1e-11)


def test_s2_spherical_harmonic_laplacian():
    z = S2.nodes[:, 2]
    p2 = 0.5 * (3.0 * z * z - 1.0)
    assert np.allclose(laplacian(S2, p2), -6.0 * p2, atol=1e-11)
    # A degree-2 sectoral harmonic: z_1^2 - z_2^2.
    f = S2.nodes[:, 0] ** 2 - S2.nodes[:, 1] ** 2
    assert np.allclose(laplacian(S2, f), -6.0 * f, atol=1e-11)


def test_hessian_trace_is_laplacian():
    # cos theta has degree 1 and sin^2 theta cos 2 phi = z_1^2 - z_2^2
    # degree 2, so the Laplacian scales them by -2 and -6.
    theta, phi = s2_angles(S2)
    f = 1.0 + 0.2 * np.cos(theta) + 0.1 * np.sin(theta) ** 2 * np.cos(2 * phi)
    lap = -0.4 * np.cos(theta) - 0.6 * np.sin(theta) ** 2 * np.cos(2 * phi)
    H = hessian(S2, f)
    assert np.allclose(H[:, 0, 0] + H[:, 1, 1], lap, atol=1e-10)
    t1 = s1_theta(S1)
    f1 = 2.0 + 0.3 * np.cos(4 * t1)
    assert np.allclose(hessian(S1, f1)[:, 0, 0], -4.8 * np.cos(4 * t1), atol=1e-12)


def test_integration_by_parts():
    # int f Delta g = -int <Df, Dg> for smooth fields on a closed manifold.
    theta, phi = s2_angles(S2)
    f = 1.0 + 0.4 * np.cos(theta) + 0.15 * np.sin(theta) * np.sin(phi)
    g = 0.5 * np.sin(theta) ** 2 * np.cos(2 * phi) + 0.2 * np.cos(theta) ** 3
    lhs = integrate(S2, f * laplacian(S2, g))
    rhs = -integrate(S2, np.sum(gradient(S2, f) * gradient(S2, g), axis=1))
    assert abs(lhs - rhs) < 1e-10
    t1 = s1_theta(S1)
    f1 = np.cos(2 * t1) + 0.3 * np.sin(5 * t1)
    g1 = np.sin(3 * t1)
    lhs1 = integrate(S1, f1 * laplacian(S1, g1))
    rhs1 = -integrate(S1, gradient(S1, f1)[:, 0] * gradient(S1, g1)[:, 0])
    assert abs(lhs1 - rhs1) < 1e-10


def test_frame_vectors_are_orthonormal_tangent():
    for g in (S1, S2):
        e = frame_vectors(g)
        for i in range(g.n):
            assert np.allclose(np.sum(e[:, i] * g.nodes, axis=1), 0.0, atol=1e-14)
            for j in range(g.n):
                want = 1.0 if i == j else 0.0
                assert np.allclose(np.sum(e[:, i] * e[:, j], axis=1), want, atol=1e-14)


# ---------------------------------------------------------------------------
# band projection


def test_band_project_kills_s1_nyquist():
    N = S1.resolution[0]
    alternating = np.cos((N // 2) * s1_theta(S1))  # (-1)^j at the nodes
    assert np.allclose(band_project(S1, alternating), 0.0, atol=1e-14)
    f = 2.0 + 0.3 * np.cos(5 * s1_theta(S1))
    assert np.allclose(band_project(S1, f + 0.01 * alternating), f, atol=1e-13)


def test_band_project_identity_in_band():
    theta, phi = s2_angles(S2)
    f = 2.0 + 0.2 * np.cos(theta) + 0.1 * np.sin(theta) ** 2 * np.cos(2 * phi)
    p = band_project(S2, f)
    assert np.allclose(p, f, atol=1e-12)
    assert np.allclose(band_project(S2, p), p, atol=1e-12)


def test_band_project_removes_unresolved_s2_content():
    # A Legendre polynomial of degree band_limit + 1 integrates to zero
    # against every resolved mode, so the projection must annihilate it.
    x = S2.nodes[:, 2]
    deg = S2.band_limit + 1
    c = np.polynomial.legendre.Legendre.basis(deg)
    f = c(x)
    assert np.max(np.abs(band_project(S2, f))) < 1e-10


# ---------------------------------------------------------------------------
# resampling


def test_resample_at_own_nodes_is_identity():
    theta = s1_theta(S1)
    f = 1.5 + 0.4 * np.cos(3 * theta) - 0.2 * np.sin(7 * theta)
    assert np.allclose(resample(S1, f, S1), f, atol=1e-12)
    th2, ph2 = s2_angles(S2)
    f2 = 2.0 + 0.3 * np.cos(th2) + 0.1 * np.sin(th2) * np.cos(ph2)
    assert np.allclose(resample(S2, f2, S2), f2, atol=1e-11)


def test_resample_matches_analytic_values():
    theta = s1_theta(S1)
    f = 1.0 + 0.5 * np.cos(2 * theta) + 0.25 * np.sin(4 * theta)
    t = np.array([0.123, 1.9, 4.56])
    pts = np.stack([np.cos(t), np.sin(t)], axis=1)
    want = 1.0 + 0.5 * np.cos(2 * t) + 0.25 * np.sin(4 * t)
    assert np.allclose(resample(S1, f, pts), want, atol=1e-12)


def test_resample_to_refined_grid():
    fine = refine(S2)
    zc = S2.nodes[:, 2]
    f = 1.0 + 0.3 * (3.0 * zc * zc - 1.0)
    on_fine = resample(S2, f, fine)
    zf = fine.nodes[:, 2]
    assert np.allclose(on_fine, 1.0 + 0.3 * (3.0 * zf * zf - 1.0), atol=1e-11)


def _s1_resample_loop(grid, values, theta):
    """S^1 band-limited synthesis one Fourier mode at a time."""
    c = np.fft.rfft(values) / grid.resolution[0]
    K = grid.resolution[0] // 2
    out = np.full(theta.shape, c[0].real)
    for k in range(1, K):
        out += 2.0 * (c[k].real * np.cos(k * theta) - c[k].imag * np.sin(k * theta))
    return out + c[K].real * np.cos(K * theta)


@pytest.mark.parametrize("N", [4, 64, 96])
def test_s1_resample_matches_the_per_mode_loop(N):
    grid = make_grid(1, N)
    rng = np.random.default_rng(N)
    f = 2.0 + 0.3 * rng.standard_normal(N)  # Nyquist content included
    t = rng.uniform(-math.pi, math.pi, 37)
    got = resample(grid, f, np.stack([np.cos(t), np.sin(t)], axis=1))
    assert np.max(np.abs(got - _s1_resample_loop(grid, f, t))) <= 1e-14


def test_resample_rejects_mismatched_targets():
    with pytest.raises(ValueError):
        resample(S1, np.ones(S1.size), S2)
    with pytest.raises(ValueError):
        resample(S2, np.ones(S2.size), np.ones((3, 2)))
    # Targets are a (T, n+1) array of unit rows, taken as given: a row
    # that is not a unit direction is refused, not normalized.
    f = 2.0 + 0.1 * S2.nodes[:, 2]
    north = [0.0, 0.0, 1.0]
    for bad in (
        [[1.0, 1.0, 1.0]],
        [north, [0.0, 0.0, 0.0]],
        [[0.0, math.nan, 1.0]],
        [[math.inf, 0.0, 0.0]],
        [[0.0, 0.0, 1.0 + 1e-11]],
        north,
        np.ones((2, 2, 3)) / math.sqrt(3.0),
    ):
        with pytest.raises(ValueError, match="targets must have shape|unit direction"):
            resample(S2, f, bad)
    with pytest.raises(ValueError, match="unit direction"):
        resample(S1, np.ones(S1.size), [[0.0, 0.0]])
    assert resample(S2, f, [[0.0, 0.0, 1.0 + 1e-13]]) == pytest.approx([2.1], abs=1e-12)


# ---------------------------------------------------------------------------
# serialization


def test_grid_json_roundtrip():
    d1 = grid_to_json_dict(S1)
    assert d1 == {"type": "uniform_s1", "nodes": 64}
    assert grid_from_json_dict(1, d1) == S1
    d2 = grid_to_json_dict(S2)
    assert d2 == {"type": "gl_product", "polar": 16, "azimuth": 32}
    assert grid_from_json_dict(2, d2) == S2
    with pytest.raises(ValueError):
        grid_from_json_dict(2, d1)
    with pytest.raises(ValueError):
        grid_from_json_dict(1, d2)
    with pytest.raises(ValueError):
        grid_from_json_dict(2, {"type": "gl_product", "polar": 16, "azimuth": 30})
    with pytest.raises(ValueError):
        grid_from_json_dict(1, {"type": "nonsense"})


def test_field_json_roundtrip(tmp_path):
    theta = s1_theta(S1)
    values = 2.0 + 0.1 * np.cos(2 * theta)
    d = field_to_json_dict(S1, values, kind="support")
    grid, back, kind = field_from_json_dict(d)
    assert grid == S1
    assert kind == "support"
    assert np.allclose(back, values, atol=0.0)
    path = tmp_path / "field.json"
    path.write_text(json.dumps(d))
    grid2, back2, kind2 = load_field(path)
    assert grid2 == S1 and kind2 == "support"
    assert np.array_equal(back2, values)
    raw = json.loads(path.read_text())
    assert set(raw) == {"n", "grid", "values", "kind"}


def test_field_json_value_count_mismatch():
    d = field_to_json_dict(S1, np.ones(S1.size))
    d["values"] = d["values"][:-1]
    with pytest.raises(ValueError):
        field_from_json_dict(d)


@pytest.mark.parametrize("bad", ["2", True, None], ids=["string", "bool", "null"])
def test_field_json_values_must_be_numbers(bad):
    # numpy alone would read "2" as 2.0, true as 1.0 and null as NaN.
    d = field_to_json_dict(S1, np.full(S1.size, 2.0))
    for values in ([bad] * S1.size, [bad] + d["values"][1:], d["values"][:-1] + [bad]):
        with pytest.raises(ArgumentError, match="^field values must hold numbers"):
            field_from_json_dict(dict(d, values=values))
    _, values, _ = field_from_json_dict(dict(d, values=[2] * S1.size))
    assert values.dtype == float and np.array_equal(values, d["values"])


# ---------------------------------------------------------------------------
# property tests


@given(
    coeffs=st.lists(
        st.floats(min_value=-1.0, max_value=1.0), min_size=3, max_size=6
    ),
    shift=st.floats(min_value=-2.0, max_value=2.0),
)
@settings(max_examples=25, deadline=None)
def test_integrate_is_linear_and_exact_for_trig(coeffs, shift):
    theta = s1_theta(S1)
    f = np.full(S1.size, shift)
    for k, c in enumerate(coeffs, start=1):
        f = f + c * np.cos(k * theta)
    # Only the constant survives integration over the circle.
    assert abs(integrate(S1, f) - 2.0 * math.pi * shift) < 1e-12
    assert abs(integrate(S1, 3.0 * f) - 3.0 * integrate(S1, f)) < 1e-12


@given(
    k=st.integers(min_value=1, max_value=10),
    c=st.floats(min_value=-0.5, max_value=0.5),
)
@settings(max_examples=25, deadline=None)
def test_derivative_kills_constants_property(k, c):
    theta = s1_theta(S1)
    f = 1.0 + c * np.sin(k * theta)
    g = gradient(S1, f)[:, 0]
    assert np.allclose(g, c * k * np.cos(k * theta), atol=1e-10)


@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_even_odd_decomposition_property(seed):
    rng = np.random.default_rng(seed)
    f = rng.normal(size=S2.size)
    even = even_project(S2, f)
    odd = f - even
    assert np.allclose(antipodal(S2, even), even, atol=1e-13)
    assert np.allclose(antipodal(S2, odd), -odd, atol=1e-13)
    assert np.allclose(even + odd, f, atol=0.0)
