"""Volume-preserving prescription flow: conservation, descent, stops."""

import csv
import math
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

from horocvx import flow
from horocvx.flow import (
    TRACE_COLUMNS,
    FlowConfig,
    FlowStepError,
    make_state,
    run,
    step,
)
from horocvx.hconvex import SupportField, measure_density
from horocvx.problems import pde_residual
from horocvx.quermass import wk_value
from horocvx.sphere_grid import (
    ArgumentError,
    derivatives,
    even_project,
    integrate,
    make_grid,
    resolvent,
)

S1 = make_grid(1, 64)
S2 = make_grid(2, 10)


def perturbed_circle(amplitude=0.05):
    theta = S1.theta
    return SupportField(S1, 2.0 * (1.0 + amplitude * np.cos(2 * theta)))


def perturbed_sphere():
    z = S2.nodes
    bump = 0.0225 * (3.0 * z[:, 2] ** 2 - 1.0) + 0.03 * (z[:, 0] ** 2 - z[:, 1] ** 2)
    return SupportField(S2, 2.0 * (1.0 + bump))


# ---------------------------------------------------------------------------
# global term and stationary points


def test_phi_global_oracle():
    # n=1, k=0, p=0, f=1, phi=2: numerator int phi^{-1} = pi, denominator
    # int phi^{-1} A = pi (2 - 1/2)/2 /  ... = 3 pi / 4, so Phi = 4/3.
    state = make_state(
        FlowConfig(n=1, k=0, p=0.0), SupportField(S1, np.full(S1.size, 2.0))
    )
    assert state.Phi == pytest.approx(4.0 / 3.0, abs=1e-14)


def test_ball_is_stationary():
    res = run(
        FlowConfig(n=1, k=0, p=0.0, max_steps=10),
        SupportField(S1, np.full(S1.size, 2.0)),
    )
    assert res.status == "converged"
    assert res.steps == 0
    assert res.gamma_variation < 1e-12
    assert np.allclose(res.terminal.phi, 2.0, atol=1e-12)


def test_zero_speed_keeps_dt():
    # With eps_stop = 0 the ball never stops, and its speed is exactly 0.
    res = run(
        FlowConfig(n=1, k=0, p=0.0, eps_stop=0.0, max_steps=3, dt_initial=0.05),
        SupportField(S1, np.full(S1.size, 2.0)),
    )
    assert res.status == "max-steps"
    assert list(res.trace.column("speedSup")) == [0.0] * 4
    assert list(res.trace.column("dt")) == [0.05] * 3 + [0.0]


# ---------------------------------------------------------------------------
# the two reference flows


def test_flow_n1_conserves_and_descends():
    cfg = FlowConfig(n=1, k=0, p=0.0, eps_stop=1e-5, max_steps=100_000)
    res = run(cfg, perturbed_circle())
    assert res.status == "converged"
    wk = res.trace.column("Wk")
    assert np.max(np.abs(wk - wk[0])) < 1e-8
    jp = res.trace.column("Jp")
    assert np.max(np.diff(jp)) < 1e-10
    # Terminal state is a centered ball for f = 1.
    phi = res.terminal.phi
    assert np.max(np.abs(phi - np.mean(phi))) / np.mean(phi) < 1e-3
    assert res.gamma_variation <= 10.0 * cfg.eps_stop
    assert res.warnings == []


def test_flow_n2_k1_conserves_and_descends():
    cfg = FlowConfig(n=2, k=1, p=1.0, eps_stop=1e-5, max_steps=20_000)
    res = run(cfg, perturbed_sphere())
    assert res.status == "converged"
    wk = res.trace.column("Wk")
    assert np.max(np.abs(wk - wk[0])) < 1e-7
    jp = res.trace.column("Jp")
    assert np.max(np.diff(jp)) < 1e-10
    # Evenness is enforced for k >= 1 and must hold along the way.
    assert np.max(res.trace.column("evenErr")) < 1e-12
    assert res.gamma_variation <= 10.0 * cfg.eps_stop


def test_flow_terminal_solves_the_equation():
    cfg = FlowConfig(n=1, k=0, p=0.0, eps_stop=1e-6, max_steps=100_000)
    res = run(cfg, perturbed_circle(0.03))
    assert res.status == "converged"
    # The reported gamma is the mean of the terminal density, and the
    # density is constant to the advertised tolerance.
    dens = measure_density(res.terminal, 0.0, 0)
    mean = np.mean(dens)
    assert res.gamma == pytest.approx(mean, rel=1e-6)
    assert (np.max(dens) - np.min(dens)) / mean <= 10.0 * cfg.eps_stop


def rk4_reference(cfg, body):
    """Terminal phi and gamma of the explicit RK4 flow the implicit step
    replaced: Phi refreshed at every stage, dt the smallest of max_dt, the
    0.05 lambda^2 h^2 limiter and twice the inverse of c times the
    spectral radius of the Laplacian on the band."""
    state = make_state(cfg, body)  # its field is the projected body
    grid, phi = state.K.grid, state.K.phi
    n = grid.n
    nk = n - state.k
    h = (2.0 if n == 1 else 1.0) * math.pi / grid.resolution[0]
    B = grid.band_limit
    omega = 2.0 * math.pi if n == 1 else 4.0 * math.pi
    while True:
        d = replace(state, K=SupportField(grid, phi))
        gamma_field = phi ** (-(state.p + state.k)) * d.pA / state.f
        gamma = integrate(grid, gamma_field) / omega
        gamma_var = (np.max(gamma_field) - np.min(gamma_field)) / gamma
        if np.max(np.abs(d.speed)) < cfg.eps_stop and gamma_var <= 10 * cfg.eps_stop:
            return phi, gamma
        lam = np.min(phi * d.pA ** (1.0 / nk))
        dt = min(0.05 * lam**2 * h * h, 2.0 / (d.c * B * (B + n - 1)), cfg.max_dt)

        def speed(x):
            return replace(state, K=SupportField(grid, x)).speed

        k1 = d.speed
        k2 = speed(phi + 0.5 * dt * k1)
        k3 = speed(phi + 0.5 * dt * k2)
        k4 = speed(phi + dt * k3)
        phi = resolvent(grid, phi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), 0.0)[0]
        if state.even:
            phi = even_project(grid, phi)


@pytest.mark.parametrize(
    "cfg, body",
    [
        (FlowConfig(n=1, k=0, p=0.0, eps_stop=1e-7), perturbed_circle),
        (FlowConfig(n=2, k=1, p=1.0, eps_stop=1e-7), perturbed_sphere),
    ],
    ids=["s1", "s2"],
)
def test_implicit_flow_agrees_with_rk4(cfg, body):
    res = run(cfg, body())
    assert res.status == "converged"
    phi_ref, gamma_ref = rk4_reference(cfg, body())
    phi = res.terminal.phi
    assert np.max(np.abs(phi - phi_ref)) <= 1e-6 * np.max(phi_ref)
    assert res.gamma == pytest.approx(gamma_ref, rel=1e-6)


def bench_like_s1(N):
    grid = make_grid(1, N)
    f = 1.0 + 0.2 * np.cos(2.0 * grid.theta)
    return FlowConfig(n=1, k=0, p=2.0, f=f), SupportField(grid, np.full(N, 2.0))


def sphere_body(L):
    grid = make_grid(2, L)
    z = grid.nodes
    bump = 0.0225 * (3.0 * z[:, 2] ** 2 - 1.0) + 0.06 * (z[:, 0] ** 2 - z[:, 1] ** 2)
    return FlowConfig(n=2, k=1, p=1.0), SupportField(grid, 2.0 * (1.0 + bump))


@pytest.mark.parametrize(
    "make, sizes", [(bench_like_s1, (48, 96, 192)), (sphere_body, (8, 16, 24))],
    ids=["s1", "s2"],
)
def test_step_count_is_flat_in_resolution(make, sizes):
    steps = []
    for size in sizes:
        res = run(*make(size))
        assert res.status == "converged"
        steps.append(res.steps)
    assert max(steps) <= 1.1 * min(steps)


@pytest.mark.parametrize(
    "make, size, bound", [(bench_like_s1, 96, 16), (sphere_body, 16, 6)], ids=["s1", "s2"]
)
def test_acceptance_flows_converge_within_their_step_bounds(make, size, bound):
    # The two benchmark solves: with the first step at the cap, SER does
    # not spend steps climbing to it.
    res = run(*make(size))
    assert res.status == "converged"
    assert res.steps <= bound
    assert res.rejections == 0


def test_first_step_is_tried_at_the_cap():
    cfg = FlowConfig(n=1, k=0, p=0.0, max_steps=3)
    res = run(cfg, perturbed_circle())
    assert res.rejections == 0
    assert res.trace.column("dt")[0] == cfg.max_dt
    capped = run(replace(cfg, max_dt=0.5, dt_initial=2.0), perturbed_circle())
    assert capped.trace.column("dt")[0] == 0.5


# The paper's p range (ROADMAP item 3): (n, k, p, budget).  The budget,
# about 1.25 times the steps measured when SER climbed from dt = 0.05, is
# the run's max_steps and names the case; STEP_BOUND holds the tighter
# bound, about 1.25 times the steps with the first step at the cap, so a
# run over it still reports its count.  p = -10 is left out until the
# flow contracts the slow mode at large |p|.
P_TABLE = (
    [(1, 0, p, b) for p, b in ((-5, 130), (-2, 45), (-1, 37), (0, 30), (1, 25), (2, 23), (5, 15))]
    + [(2, 0, p, b) for p, b in ((-5, 53), (-2, 32), (-1, 28), (0, 25), (1, 22), (2, 20), (5, 15))]
    + [(2, 1, p, b) for p, b in ((-1.5, 22), (0, 15), (1, 12), (2, 10))]
)
STEP_BOUND = (
    {(1, 0, p): b for p, b in ((-5, 119), (-2, 40), (-1, 32), (0, 25), (1, 22), (2, 18), (5, 10))}
    | {(2, 0, p): b for p, b in ((-5, 43), (-2, 24), (-1, 22), (0, 18), (1, 15), (2, 14), (5, 9))}
    | {(2, 1, p): b for p, b in ((-1.5, 14), (0, 8), (1, 5), (2, 7))}
)


@pytest.mark.parametrize("n, k, p, budget", P_TABLE)
def test_p_table_converges_within_its_step_bound(n, k, p, budget):
    # Even data from the ball phi = 2; k = 1 data weak enough to meet the
    # structural condition at p = -1.5.
    if n == 1:
        grid = make_grid(1, 64)
        f = 1.0 + 0.2 * np.cos(2.0 * grid.theta)
    else:
        grid = make_grid(2, 12)
        z = grid.nodes
        f = 1.0 + (0.1 if k == 0 else 0.02) * (3.0 * z[:, 2] ** 2 - 1.0)
        if k == 0:
            f += 0.1 * (z[:, 0] ** 2 - z[:, 1] ** 2)
    cfg = FlowConfig(n=n, k=k, p=float(p), f=f, max_steps=budget)
    res = run(cfg, SupportField(grid, np.full(grid.size, 2.0)))
    assert res.status == "converged"
    assert res.steps <= STEP_BOUND[n, k, p]
    _, residual = pde_residual(res.terminal, res.gamma * f, float(p), k)
    assert residual < 1e-4


def test_even_data_at_p_minus_5_converges_under_the_default_config():
    # Without evenness the odd modes grow under large steps and this run
    # does not converge.
    grid = make_grid(1, 96)
    f = 1.0 + 0.2 * np.cos(2.0 * grid.theta)
    res = run(FlowConfig(n=1, k=0, p=-5.0, f=f), SupportField(grid, np.full(96, 2.0)))
    assert res.status == "converged"
    assert res.steps <= 119
    assert np.max(res.trace.column("evenErr")) < 1e-13


def test_k0_evenness_default_follows_the_data():
    even_f = 1.0 + 0.2 * np.cos(2.0 * S1.theta)
    odd_f = even_f + 0.1 * np.cos(S1.theta)
    ball = SupportField(S1, np.full(S1.size, 2.0))
    shifted = SupportField(S1, 2.0 + 0.1 * np.cos(S1.theta))
    assert make_state(FlowConfig(n=1, k=0, p=0.0, f=even_f), ball).even
    assert make_state(FlowConfig(n=1, k=0, p=0.0), ball).even
    assert not make_state(FlowConfig(n=1, k=0, p=0.0, f=odd_f), ball).even
    assert not make_state(FlowConfig(n=1, k=0, p=0.0, f=even_f), shifted).even
    cfg = FlowConfig(n=1, k=0, p=0.0, f=even_f, enforce_even=False)
    assert not make_state(cfg, ball).even


# ---------------------------------------------------------------------------
# stepping mechanics


def test_step_rejects_cone_exit():
    # Data this steep pulls the first step, even at the default max_dt,
    # out of the uniformly h-convex cone: A[phi_new] gets a negative
    # eigenvalue where f^{-1} peaks.
    f = 1.0 + 0.9 * np.cos(2 * S1.theta)
    state = make_state(
        FlowConfig(n=1, k=0, p=0.0, f=f), SupportField(S1, np.full(S1.size, 2.0))
    )
    with pytest.raises(FlowStepError, match="eigenvalue"):
        step(state, FlowConfig(n=1, k=0, p=0.0).max_dt)


def test_step_holds_wk_to_roundoff():
    state = make_state(FlowConfig(n=2, k=1, p=1.0), perturbed_sphere())
    w0 = wk_value(perturbed_sphere(), 1)
    new_state = step(state, 0.05)
    w1 = wk_value(SupportField(S2, new_state.K.phi), 1)
    assert abs(w1 - w0) <= 1e-12 * w0
    assert np.max(np.abs(new_state.K.phi - state.K.phi)) > 1e-4


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
def test_evaluate_raises_flow_step_error_off_the_cone(bad):
    # Each stepped phi passes the cone check before it becomes a trial
    # field, so any phi off the cone, NaN and inf included, is a
    # FlowStepError rather than SupportField's ValueError.
    state = make_state(FlowConfig(n=1, k=0, p=0.0), perturbed_circle())
    phi = state.K.phi.copy()
    phi[5] = bad
    with pytest.raises(FlowStepError):
        flow._in_cone(phi)


def test_rejected_accepted_state_halves_dt_and_continues(monkeypatch):
    cfg = FlowConfig(n=1, k=0, p=0.0, max_steps=3)
    reference = run(cfg, perturbed_circle())
    assert reference.rejections == 0
    real = flow.FlowState
    calls = []

    def faulty(K, *data):
        # Call 1 builds the start; call 2 is the first stepped state,
        # whose field gets a kink no uniformly h-convex body has.
        calls.append(1)
        if len(calls) == 2:
            K = SupportField(K.grid, K.phi * (1.0 + 0.3 * np.cos(12 * K.grid.theta)))
        return real(K, *data)

    monkeypatch.setattr(flow, "FlowState", faulty)
    res = run(cfg, perturbed_circle())
    assert res.status == "max-steps"
    assert res.steps == 3
    assert res.rejections == 1
    dt, speed = res.trace.column("dt"), res.trace.column("speedSup")
    assert dt[0] == 0.5 * reference.trace.column("dt")[0]
    # The halved step is the base of the next update, not max_dt.
    assert dt[1] == min(cfg.max_dt, dt[0] * speed[0] / speed[1])
    assert list(res.trace.column("rejected")) == [1, 0, 0, 0]


@pytest.mark.parametrize(
    "cfg, body",
    [
        (FlowConfig(n=1, k=0, p=0.0), perturbed_circle),
        (FlowConfig(n=2, k=1, p=1.0), perturbed_sphere),
    ],
    ids=["s1", "s2"],
)
def test_trace_wk_matches_a_fresh_homotopy(cfg, body):
    # The terminal row of each run is the trace row of its terminal phi.
    wk = TRACE_COLUMNS.index("Wk")
    for max_steps in (0, 3, 8):
        res = run(replace(cfg, max_steps=max_steps), body())
        fresh = wk_value(res.terminal, cfg.k)
        assert res.trace.rows[-1][wk] == fresh


@pytest.mark.parametrize(
    "cfg, body",
    [
        (FlowConfig(n=1, k=0, p=0.0, eps_stop=1e-14, max_steps=6), perturbed_circle),
        (FlowConfig(n=2, k=1, p=1.0, eps_stop=1e-14, max_steps=6), perturbed_sphere),
    ],
    ids=["s1", "s2"],
)
def test_accepted_states_cache_their_own_derivatives(cfg, body, monkeypatch):
    # Each accepted state is Newton's last trial, whose derivatives are
    # affine combinations of the state's own and the resolvent pass's; they
    # must be those of its phi, or the Wk and Jp columns would measure
    # another field.  eps_stop is below the roundoff floor of speedSup, so
    # both runs take all their steps.
    real, accepted = flow.step, []

    def recording(*args, **kwargs):
        new_state = real(*args, **kwargs)
        accepted.append(new_state)
        return new_state

    monkeypatch.setattr(flow, "step", recording)
    res = run(cfg, body())
    assert res.steps == len(accepted) == cfg.max_steps
    for state in accepted:
        K = state.K
        g, H = derivatives(K.grid, K.phi)
        assert np.max(np.abs(K.gradient - g)) <= 1e-12
        assert np.max(np.abs(K.hessian - H)) <= 1e-12
        if K.grid.n == 1:
            N = K.grid.size
            assert abs(np.fft.rfft(K.phi)[N // 2]) / N < 1e-14


@pytest.mark.parametrize(
    "cfg, body, budget",
    [
        # eps_stop below the roundoff floor of speedSup: both runs step
        # to max_steps instead of converging.
        # Per step: the stacked resolvent of G and h, one analysis and one
        # synthesis on either grid; the new state is Newton's last trial
        # and makes no pass of its own.
        (FlowConfig(n=1, k=0, p=0.0, eps_stop=1e-14), perturbed_circle, 2),
        (FlowConfig(n=2, k=1, p=1.0, eps_stop=1e-14), perturbed_sphere, 2),
    ],
    ids=["s1", "s2"],
)
def test_fft_calls_per_accepted_step(cfg, body, budget, fft_counts):
    totals = []
    for max_steps in (4, 12):
        fft_counts.update(rfft=0, irfft=0)
        res = run(replace(cfg, max_steps=max_steps), body())
        assert res.steps == max_steps
        assert res.rejections == 0
        totals.append(fft_counts["rfft"] + fft_counts["irfft"])
    # The difference cancels the set-up and the terminal row.
    assert (totals[1] - totals[0]) / 8 <= budget


def test_acceptance_flow_makes_two_fft_calls_at_the_start_and_two_per_step(fft_counts):
    # The start's projection pass, then per accepted step the resolvent
    # pass of G and h: one rfft and one irfft each.  The accepted state and
    # the trace rows make none.
    grid = make_grid(1, 96)
    body = SupportField(grid, 2.0 + 0.2 * np.cos(2.0 * grid.theta))
    res = run(FlowConfig(n=1, k=0, p=0.0, eps_stop=1e-6), body)
    assert res.status == "converged" and res.rejections == 0 and res.steps > 0
    assert fft_counts == {"rfft": 1 + res.steps, "irfft": 1 + res.steps}


def test_constant_start_makes_no_projection_pass(fft_counts):
    # phi0 = 2 is its own projection with zero derivatives, so only the
    # steps' resolvent passes of G and h (not constant, since f is not) count.
    res = run(*bench_like_s1(96))
    assert res.status == "converged" and res.rejections == 0 and res.steps > 0
    assert fft_counts == {"rfft": res.steps, "irfft": res.steps}


def test_origin_ball_with_default_data_makes_no_fft_call(fft_counts):
    # Assumption H on f = 1, the start's projection and the ball's speed
    # all act on constants: no pass, and the run ends where it started.
    grid = make_grid(2, 16)
    phi0 = np.full(grid.size, math.exp(0.6931))
    res = run(FlowConfig(n=2, k=1, p=1.0), SupportField(grid, phi0))
    assert res.status == "converged" and res.steps == 0
    assert fft_counts == {"rfft": 0, "irfft": 0}
    assert res.terminal.phi.tobytes() == phi0.tobytes()


def test_unprojected_states_stay_even_and_band_limited_over_a_long_run(monkeypatch):
    # No accepted state is projected again: with G and h projected before
    # the resolvent, the odd and out-of-band roundoff of the states only
    # random-walks, and stays at roundoff over this run's 2,048 steps.
    grid = make_grid(1, 96)
    f = 1.0 + 0.2 * np.cos(2.0 * grid.theta)
    cfg = FlowConfig(n=1, k=0, p=-8.0, f=f, eps_stop=1e-9, max_steps=4000)
    real, nyquist = flow.step, []

    def recording(*args, **kwargs):
        new_state = real(*args, **kwargs)
        nyquist.append(abs(np.fft.rfft(new_state.K.phi)[48]) / 96)
        return new_state

    monkeypatch.setattr(flow, "step", recording)
    res = run(cfg, SupportField(grid, np.full(96, 2.0)))
    assert res.status == "converged" and res.steps == len(nyquist)
    assert np.max(res.trace.column("evenErr")) <= 1e-12
    assert max(nyquist) <= 1e-12


@pytest.mark.parametrize(
    "cfg, body",
    [
        (FlowConfig(n=1, k=0, p=0.0, eps_stop=1e-14), perturbed_circle),
        (FlowConfig(n=2, k=1, p=1.0, eps_stop=1e-14), perturbed_sphere),
    ],
    ids=["s1", "s2"],
)
def test_wk_calls_per_accepted_step(cfg, body, wk_calls):
    # Per step: at most two Newton evaluations on trial fields, plus the
    # trace row's Wk column on the accepted state.
    totals = []
    for max_steps in (4, 12):
        wk_calls.clear()
        res = run(replace(cfg, max_steps=max_steps), body())
        assert res.steps == max_steps
        assert res.rejections == 0
        totals.append(len(wk_calls))
    assert (totals[1] - totals[0]) / 8 <= 3


def test_a_run_evaluates_w_k_of_its_start_once(wk_calls):
    # make_state's target and the first trace row read one cached value.
    res = run(FlowConfig(n=2, k=1, p=1.0, max_steps=0), perturbed_sphere())
    assert res.steps == 0 and len(res.trace.rows) == 1
    assert len(wk_calls) == 1
    assert res.trace.column("Wk")[0] == wk_value(res.terminal, 1)


def test_max_steps_outcome():
    cfg = FlowConfig(n=1, k=0, p=0.0, eps_stop=1e-12, max_steps=4, dt_initial=0.05)
    res = run(cfg, perturbed_circle())
    assert res.status == "max-steps"
    assert res.steps == 4
    # Switched evolution relaxation from dt_initial, capped at max_dt.
    speed = res.trace.column("speedSup")
    expected = [cfg.dt_initial]
    for i in range(1, 4):
        expected.append(min(cfg.max_dt, expected[-1] * speed[i - 1] / speed[i]))
    assert list(res.trace.column("dt")) == expected + [0.0]
    assert expected[-1] > expected[0]
    assert res.t_final == pytest.approx(sum(expected))
    assert speed[-1] >= cfg.eps_stop


def test_stalled_outcome(monkeypatch):
    # Every attempt is rejected: dt halves until the rejection limit, and
    # the run returns its last accepted state instead of raising.
    attempts = []

    def rejecting(state, dt, *args):
        attempts.append(dt)
        raise FlowStepError("rejected")

    monkeypatch.setattr(flow, "step", rejecting)
    cfg = FlowConfig(n=1, k=0, p=0.0, max_steps=10, dt_initial=0.05)
    body = perturbed_circle()
    res = run(cfg, body)
    assert res.status == "stalled"
    assert res.steps == 0
    assert res.rejections == len(attempts) == flow.MAX_REJECTIONS + 1
    assert attempts == [cfg.dt_initial * 0.5**i for i in range(len(attempts))]
    assert np.allclose(res.terminal.phi, body.phi, atol=1e-14)
    assert len(res.trace.rows) == 1
    assert list(res.trace.column("rejected")) == [res.rejections]


def test_rejected_column_sums_to_the_rejections():
    # The first step from the ball leaves the cone at dt_initial and
    # twice more after halving (see test_step_rejects_cone_exit).
    f = 1.0 + 0.9 * np.cos(2 * S1.theta)
    cfg = FlowConfig(n=1, k=0, p=0.0, f=f, max_steps=20, dt_initial=0.05)
    res = run(cfg, SupportField(S1, np.full(S1.size, 2.0)))
    rejected = res.trace.column("rejected")
    assert res.rejections == rejected.sum() == rejected[0] == 3
    assert res.trace.column("dt")[0] == cfg.dt_initial / 8


def test_dt_initial_is_respected():
    cfg = FlowConfig(n=1, k=0, p=0.0, dt_initial=1e-6, max_steps=3)
    res = run(cfg, perturbed_circle())
    assert res.trace.rows[0][TRACE_COLUMNS.index("dt")] == pytest.approx(1e-6)


def test_trace_every_thins_rows():
    cfg = FlowConfig(n=1, k=0, p=0.0, eps_stop=1e-14, max_steps=20, trace_every=10)
    res = run(cfg, perturbed_circle())
    assert res.status == "max-steps"
    assert len(res.trace.rows) <= 4


def test_trace_csv_roundtrip(tmp_path):
    cfg = FlowConfig(n=1, k=0, p=0.0, max_steps=5)
    res = run(cfg, perturbed_circle())
    path = tmp_path / "trace.csv"
    res.trace.to_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(TRACE_COLUMNS)
    assert len(rows) == len(res.trace.rows) + 1
    back = float(rows[1][TRACE_COLUMNS.index("Wk")])
    assert back == pytest.approx(res.trace.rows[0][TRACE_COLUMNS.index("Wk")])


# ---------------------------------------------------------------------------
# configuration validation


def test_make_state_validation():
    K = perturbed_circle()
    with pytest.raises(ArgumentError, match=r"^config has n = 2, grid lives on S\^1$"):
        make_state(FlowConfig(n=2, k=0, p=0.0), K)  # n mismatch
    with pytest.raises(ValueError):
        make_state(FlowConfig(n=1, k=1, p=0.0), K)  # k = n has no flow
    with pytest.raises(ValueError):
        make_state(FlowConfig(n=1, k=0, p=0.0, f=np.ones(3)), K)
    with pytest.raises(ValueError):
        make_state(FlowConfig(n=1, k=0, p=0.0, f=-np.ones(S1.size)), K)
    with pytest.raises(ValueError):
        make_state(FlowConfig(n=2, k=1, p=-3.0), perturbed_sphere())


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_make_state_rejects_non_finite_f(bad):
    f = np.ones(S1.size)
    f[3] = bad
    with pytest.raises(ValueError, match="finite"):
        make_state(FlowConfig(n=1, k=0, p=0.0, f=f), perturbed_circle())


@pytest.mark.parametrize(
    "field, value",
    [
        ("max_dt", 0.0),
        ("max_dt", -0.05),
        ("max_dt", math.nan),
        ("max_dt", math.inf),
        ("dt_initial", 0.0),
        ("dt_initial", -1e-3),
        ("dt_initial", math.nan),
        ("dt_initial", math.inf),
        ("trace_every", 0),
        ("trace_every", -1),
        ("max_steps", -1),
        ("assumption_mode", "lenient"),
        # There is no mode that leaves assumption H unchecked.
        ("assumption_mode", "skip"),
        ("eps_stop", -1.0),
        ("eps_stop", math.nan),
    ],
)
def test_make_state_rejects_bad_config_values(field, value):
    # Unchecked, these divide by zero, take every step at dt = 0, stall,
    # act as another mode, or run to max_steps, since no speed is below
    # a negative or NaN eps_stop.  FlowConfig refuses them when the
    # config is built, so none reaches make_state.
    with pytest.raises(ValueError, match=field):
        make_state(replace(FlowConfig(n=1, k=0, p=0.0), **{field: value}), perturbed_circle())


@pytest.mark.parametrize(
    "field, value",
    [
        ("max_steps", 3.7),  # ran 4 steps
        ("n", 1.0),
        ("p", True),  # ran as p = 1
        ("p", math.nan),
        ("eps_stop", math.inf),  # "converged" at step 0
    ],
)
def test_flow_config_rejects_values_of_the_wrong_type(field, value):
    # The CLI refuses these in a config file; the Python API refuses
    # them too, where the config is built.
    settings = dict(n=1, k=0, p=0.0)
    settings[field] = value
    with pytest.raises(ValueError, match=f"flow config {field} must be"):
        FlowConfig(**settings)


def test_flow_config_stores_ints_and_floats():
    cfg = FlowConfig(n=np.int64(2), k=1, p=2, max_dt=1, eps_stop=0, dt_initial=np.float32(0.5))
    assert type(cfg.n) is int and type(cfg.p) is float
    assert (cfg.p, cfg.max_dt, cfg.eps_stop, cfg.dt_initial) == (2.0, 1.0, 0.0, 0.5)
    assert all(type(v) is float for v in (cfg.max_dt, cfg.eps_stop, cfg.dt_initial))
    assert FlowConfig(n=1, k=0, p=0.0, dt_initial=None, enforce_even=None).dt_initial is None


def test_even_enforcement_rejects_odd_data():
    # make_state refuses what run refuses: the default evenness at k = 1,
    # and evenness forced on at k = 0.
    z = S2.nodes
    f = 1.0 + 0.5 * z[:, 0]  # odd part breaks the symmetry requirement
    odd_s1 = 1.0 + 0.2 * np.cos(S1.theta)
    cases = [
        (FlowConfig(n=2, k=1, p=1.0, f=f, max_steps=5), perturbed_sphere()),
        (FlowConfig(n=1, k=0, p=0.0, f=odd_s1, enforce_even=True), perturbed_circle()),
    ]
    for cfg, body in cases:
        for call in (make_state, run):
            with pytest.raises(ValueError, match="evenness enforcement needs even data"):
                call(cfg, body)


def test_assumption_mode_strict_and_warn():
    z = S2.nodes
    # Even but steep data fails the structural condition at p = 1.
    f = 1.0 + 0.25 * (3.0 * z[:, 2] ** 2 - 1.0)
    strict = FlowConfig(n=2, k=1, p=1.0, f=f, max_steps=1)
    for call in (make_state, run):
        with pytest.raises(ValueError, match="structural condition"):
            call(strict, perturbed_sphere())
    warn = FlowConfig(
        n=2, k=1, p=1.0, f=f, max_steps=1, assumption_mode="warn"
    )
    res = run(warn, perturbed_sphere())
    assert len(res.warnings) == 1
    assert "structural condition" in res.warnings[0]
    # The warning is on the start and on every state after it.
    assert make_state(warn, perturbed_sphere()).warnings == tuple(res.warnings)


def test_enforce_even_override():
    # Forcing evenness on with an even start keeps evenErr at zero.
    cfg = FlowConfig(n=1, k=0, p=0.0, enforce_even=True, max_steps=50)
    res = run(cfg, perturbed_circle())
    assert np.max(res.trace.column("evenErr")) < 1e-13


# ---------------------------------------------------------------------------
# the evaluated start, and the state as a function of its field


def test_start_off_the_cone_is_a_value_error_naming_the_eigenvalue():
    grid = make_grid(1, 32)
    K = SupportField(grid, 2.0 * (1.0 + 0.3 * np.cos(6.0 * grid.theta)))
    cfg = FlowConfig(n=1, k=0, p=0.0)
    for call in (make_state, run):
        with pytest.raises(ValueError, match="not uniformly h-convex: minimum eigenvalue of A is -"):
            call(cfg, K)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.bitwise
@pytest.mark.parametrize(
    "cfg, body",
    [
        (FlowConfig(n=1, k=0, p=2.0), perturbed_circle),
        (FlowConfig(n=2, k=1, p=1.0), perturbed_sphere),
    ],
    ids=["s1", "s2"],
)
def test_stepped_state_is_bitwise_the_replaced_state(cfg, body):
    # step builds its state directly; replace(state, K=...) is the public
    # seam and must give the same state, and w is the first variation
    # that measure_density gives.
    state = make_state(cfg, body())
    for dt in (0.05, cfg.max_dt):
        new_state = step(state, dt)
        again = replace(state, K=new_state.K)
        assert again.K is new_state.K
        for f in fields(flow.FlowState)[1:]:
            assert _same_bits(getattr(again, f.name), getattr(new_state, f.name)), f.name
        for s in (state, new_state):
            assert _same_bits(s.w, measure_density(s.K, 1.0, cfg.k))
        state = new_state


def _first_attempt_is_rejected_and_halved(monkeypatch, name, value):
    # run with flow.<name> set to value for its first step attempt only:
    # that attempt is rejected, and the run is then the run that starts
    # at the halved dt, but for the rejection it counts.
    cfg = FlowConfig(n=1, k=0, p=0.0, max_steps=3)
    reference = run(replace(cfg, dt_initial=0.5 * cfg.max_dt), perturbed_circle())
    real_step, original = flow.step, getattr(flow, name)
    attempts = []

    def first_patched(state, dt):
        attempts.append(dt)
        monkeypatch.setattr(flow, name, value if len(attempts) == 1 else original)
        return real_step(state, dt)

    monkeypatch.setattr(flow, "step", first_patched)
    res = run(cfg, perturbed_circle())
    assert attempts[:2] == [cfg.max_dt, 0.5 * cfg.max_dt]
    assert res.rejections == 1 and reference.rejections == 0
    assert list(res.trace.column("rejected")) == [1, 0, 0, 0]
    assert [row[:-1] for row in res.trace.rows] == [row[:-1] for row in reference.trace.rows]
    assert res.terminal.phi.tobytes() == reference.terminal.phi.tobytes()


def test_newton_slope_failure_is_a_rejected_step(monkeypatch):
    # A W_k slope that is not positive stops the constraint solve.
    state = make_state(FlowConfig(n=1, k=0, p=0.0), perturbed_circle())
    real = flow.measure_density

    def negated(K, p, k):
        return -real(K, p, k)

    monkeypatch.setattr(flow, "measure_density", negated)
    with pytest.raises(FlowStepError, match="W_k constraint has slope -"):
        step(state, 5.0)
    monkeypatch.undo()
    _first_attempt_is_rejected_and_halved(monkeypatch, "measure_density", negated)


def test_newton_out_of_iterations_is_a_rejected_step(monkeypatch):
    # One iteration cannot meet the constraint when the first residual,
    # from the linearized Phi, is above tolerance, as it is at dt = 5.
    state = make_state(FlowConfig(n=1, k=0, p=0.0), perturbed_circle())
    monkeypatch.setattr(flow, "NEWTON_MAX_ITER", 1)
    with pytest.raises(FlowStepError, match="W_k constraint missed by"):
        step(state, 5.0)
    monkeypatch.undo()
    _first_attempt_is_rejected_and_halved(monkeypatch, "NEWTON_MAX_ITER", 1)


@pytest.mark.parametrize("max_dt", [1e13, 1e30, sys.float_info.max])
def test_flow_config_refuses_a_max_dt_its_rejections_cannot_bring_down(max_dt):
    # Every max_dt from 1e16 up ended the run of the next test `stalled`
    # at step 0 after 41 rejections: 40 halvings left each attempt far
    # above the dt at which a step can hold W_k.
    with pytest.raises(ValueError, match="flow config max_dt must be .* at most 5.49756e"):
        FlowConfig(n=1, k=0, p=0.0, max_dt=max_dt)


def test_largest_max_dt_converges_after_halving_down_to_the_default():
    assert flow.MAX_DT == flow.DEFAULT_MAX_DT * 2**flow.MAX_REJECTIONS
    assert FlowConfig(n=1, k=0, p=0.0).max_dt == flow.DEFAULT_MAX_DT
    for max_dt in (1e12, flow.MAX_DT):
        res = run(FlowConfig(n=1, k=0, p=0.0, max_dt=max_dt), perturbed_circle())
        assert res.status == "converged"
        assert res.rejections >= 40
        assert res.trace.column("dt")[0] < max_dt


@pytest.mark.parametrize("dt", [math.inf, math.nan, 1e308])
def test_step_refuses_a_non_finite_resolvent_mu_as_a_step_error(dt):
    # dt c is the resolvent's mu; one that is not finite is a rejected
    # step, which run halves, not the ValueError that resolvent raises.
    state = make_state(FlowConfig(n=1, k=0, p=0.0), perturbed_circle())
    with pytest.raises(FlowStepError, match="not finite"):
        step(state, dt)


def test_a_state_is_evaluated_at_its_field():
    state = make_state(FlowConfig(n=2, k=1, p=1.0), perturbed_sphere())
    assert state.target == wk_value(state.K, 1)
    new_state = step(state, 0.05)
    assert new_state.target == state.target and new_state.f is state.f
    again = replace(state, K=new_state.K)
    for name in ("pA", "G", "h", "speed"):
        assert np.array_equal(getattr(again, name), getattr(new_state, name))
    assert (again.Phi, again.c) == (new_state.Phi, new_state.c)
    kinked = SupportField(S2, 2.0 * (1.0 + 0.3 * S2.nodes[:, 2] ** 6))
    with pytest.raises(FlowStepError, match="eigenvalue"):
        replace(state, K=kinked)
    # The state's data do not change with the caller's array.
    f = np.ones(S2.size)
    state = make_state(FlowConfig(n=2, k=1, p=1.0, f=f), perturbed_sphere())
    f[0] = 5.0
    assert state.f[0] == 1.0
