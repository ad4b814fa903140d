"""Projection to Euclidean bodies and the pulled-back volume functionals."""

import dataclasses
import math

import numpy as np
import pytest

from horocvx.euclid_bridge import (
    V_functional,
    V_p_functional,
    commute_check,
    euclid_form,
    euclid_mixed_volume_p,
    euclid_volume,
    firey_sum,
    project,
)
from horocvx.hconvex import SupportField, plus_identity, support_of_ball
from horocvx.lorentz import origin
from horocvx.sphere_grid import derivatives, make_grid

S1 = make_grid(1, 64)
S2 = make_grid(2, 12)


def wavy_circle(scale=2.0, amp=0.05):
    theta = S1.theta
    return SupportField(S1, scale * (1.0 + amp * np.cos(2 * theta)))


def wavy_sphere():
    z = S2.nodes
    return SupportField(S2, 2.0 * (1.0 + 0.02 * (3.0 * z[:, 2] ** 2 - 1.0)))


# ---------------------------------------------------------------------------
# projection


def test_project_copies_phi_as_support():
    # u^ = phi on the nodes, so the projection is the field itself.
    K = wavy_circle()
    assert project(K) is K


def test_project_rejects_nonconvex():
    theta = S1.theta
    bad = SupportField(S1, 2.2 * (1.0 + 0.05 * np.cos(3 * theta)))
    with pytest.raises(ValueError):
        project(bad)


def test_euclidean_support_validation():
    # A Euclidean support is a SupportField: a Firey sum that vanishes
    # somewhere is no body.
    Khat = project(wavy_circle())
    with pytest.raises(ValueError, match="positive"):
        firey_sum(0.0, Khat, 2.0, 0.0, Khat)


def test_euclidean_support_is_immutable_and_its_form_read_only():
    u = np.full(S1.size, 2.0)
    Khat = SupportField(S1, u)
    u[0] = 3.0
    assert Khat.phi[0] == 2.0
    assert np.allclose(euclid_form(Khat)[:, 0, 0], 2.0, atol=1e-12)
    for array in (Khat.phi, euclid_form(Khat)):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0


@pytest.mark.parametrize("body", [wavy_circle, wavy_sphere], ids=["s1", "s2"])
def test_projection_form_comes_from_the_fields_hessian(body, fft_counts):
    K = body()
    K.hessian
    fft_counts.update(rfft=0, irfft=0)
    form = euclid_form(project(K))
    assert fft_counts["rfft"] + fft_counts["irfft"] == 0
    # Bit for bit the form of a fresh Hessian of u^ = phi.
    assert np.array_equal(form, plus_identity(derivatives(K.grid, K.phi)[1], K.phi))
    assert fft_counts["rfft"] == 1


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_euclidean_support_rejects_non_finite_values(bad):
    u = np.ones(S1.size)
    u[4] = bad
    with pytest.raises(ValueError, match="finite"):
        SupportField(S1, u)


# ---------------------------------------------------------------------------
# Euclidean volume oracles


def test_euclid_volume_of_ball_projection():
    # A centered ball of radius r projects to the Euclidean ball of
    # radius e^r, so its volume is omega_n e^{(n+1) r} / (n + 1):
    # n=1, r=log 2: pi * 4 = 4 pi exactly.
    K = support_of_ball(S1, origin(1), math.log(2.0))
    rep = V_functional(K)
    assert rep.value == pytest.approx(4.0 * math.pi, abs=1e-12)
    assert rep.cross_residual < 1e-12
    # n=2, r=log 2: (4 pi / 3) * 8.
    K2 = support_of_ball(S2, origin(2), math.log(2.0))
    rep2 = V_functional(K2)
    assert rep2.value == pytest.approx(32.0 * math.pi / 3.0, abs=1e-10)
    assert rep2.cross_residual < 1e-10


@pytest.mark.parametrize("body", [wavy_circle, wavy_sphere], ids=["s1", "s2"])
def test_v_functional_is_cached_on_the_field_and_frozen(body):
    K = body()
    rep = V_functional(K)
    assert V_functional(K) is rep
    assert V_functional(SupportField(K.grid, K.phi)) == rep
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.value = 0.0


def test_v_functional_that_raises_is_not_cached():
    kinked = SupportField(S1, 2.2 * (1.0 + 0.05 * np.cos(3 * S1.theta)))
    for _ in range(2):
        with pytest.raises(ValueError, match="h-convex"):
            V_functional(kinked)


def test_euclid_volume_direct_disc():
    # u^ = R constant on S^1 describes the disc of radius R: area pi R^2.
    Khat = SupportField(S1, np.full(S1.size, 3.0))
    assert euclid_volume(Khat) == pytest.approx(9.0 * math.pi, abs=1e-10)


def test_euclid_volume_refuses_a_support_function_that_is_not_convex():
    # phi = 1 + 0.9 cos 3 theta is positive, but D^2 phi + phi =
    # 1 - 7.2 cos 3 theta is negative where cos 3 theta > 1/7.2.
    Khat = SupportField(S1, 1.0 + 0.9 * np.cos(3 * S1.theta))
    with pytest.raises(ValueError, match="support function is not convex"):
        euclid_volume(Khat)


def test_v_p_self_pairing_reduces_to_volume():
    K = wavy_circle()
    for p in (1.0, 1.5, 2.0):
        rep = V_p_functional(K, K, p)
        assert rep.value == pytest.approx(V_functional(K).value, abs=1e-10)
        assert rep.cross_residual < 1e-8


def test_v_p_cross_route_agreement():
    K = wavy_circle()
    L = support_of_ball(S1, origin(1), 0.4)
    for p in (1.0, 1.5, 2.0):
        rep = V_p_functional(K, L, p)
        assert rep.cross_residual < 1e-8
    K2 = wavy_sphere()
    L2 = support_of_ball(S2, origin(2), 0.5)
    rep2 = V_p_functional(K2, L2, 2.0)
    assert rep2.cross_residual < 1e-8


# ---------------------------------------------------------------------------
# sums commute with projection


def test_projection_intertwines_sums_exactly():
    # Both routes apply the same pointwise power-mean formula, so the
    # defect is exactly zero in floating point as well.
    K = wavy_circle()
    L = support_of_ball(S1, origin(1), 0.6)
    for p in (1.0, 1.5, 2.0):
        assert commute_check(1.0, K, p, 1.0, L) == 0.0
    with pytest.raises(ValueError):
        commute_check(1.0, K, 0.75, 1.0, L)  # outside the common range


def test_firey_sum_validation():
    Khat = project(wavy_circle())
    Lhat = project(support_of_ball(S1, origin(1), 0.6))
    out = firey_sum(1.0, Khat, 2.0, 1.0, Lhat)
    want = np.sqrt(Khat.phi**2 + Lhat.phi**2)
    assert np.allclose(out.phi, want, atol=1e-13)
    with pytest.raises(ValueError):
        firey_sum(1.0, Khat, 0.5, 1.0, Lhat)
    with pytest.raises(ValueError):
        firey_sum(-1.0, Khat, 2.0, 1.0, Lhat)
    other = project(support_of_ball(make_grid(1, 32), origin(1), 0.6))
    with pytest.raises(ValueError):
        firey_sum(1.0, Khat, 2.0, 1.0, other)


def test_mixed_volume_validation():
    Khat = project(wavy_circle())
    with pytest.raises(ValueError):
        euclid_mixed_volume_p(Khat, Khat, 0.5)


# ---------------------------------------------------------------------------
# Minkowski-type inequality for the projected volumes


def test_projected_minkowski_inequality():
    # V_p(K, L)^{n+1} >= V(K)^{n+1-p} V(L)^p with equality for dilates.
    K = wavy_circle()
    L = support_of_ball(S1, origin(1), 0.5)
    n = 1
    for p in (1.0, 1.5, 2.0):
        vp = V_p_functional(K, L, p).value
        vk = V_functional(K).value
        vl = V_functional(L).value
        assert vp ** (n + 1) >= vk ** (n + 1 - p) * vl**p * (1.0 - 1e-10)
    # Equality case: L a dilate of K.
    L_dil = SupportField(S1, 1.3 * K.phi)
    p = 2.0
    vp = V_p_functional(K, L_dil, p).value
    vk = V_functional(K).value
    vl = V_functional(L_dil).value
    assert vp ** (n + 1) == pytest.approx(vk ** (n + 1 - p) * vl**p, rel=1e-10)
