"""Volume-preserving prescription flow: conservation, descent, stops."""

import csv
import functools
import math
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
from horocvx.hconvex import (
    SupportField,
    d_measure_density,
    measure_density,
    p_tensor,
    random_h_convex_fields,
    support_of_ball,
)
from horocvx.lorentz import origin
from horocvx.problems import J_p, check_assumption_h, pde_residual
from horocvx.quermass import k_mean_radius, wk_value
from horocvx.sphere_grid import (
    ArgumentError,
    derivatives,
    even_project,
    integrate,
    make_grid,
    resolvent,
    sphere_area,
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
    # With eps_stop = 0 the ball never stops.  At phi = 2, A = (3/4) I, so
    # h = p_{n-k}(A)^{-1/(n-k)} = 4/3, and at p = 0 with this f, G =
    # phi^{-n/(n-k)} f^{-1/(n-k)} = 4/3 bit for bit: Phi = int w h / int w G
    # is 1 in any summation order, and the speed is exactly 0.  (At f = 1
    # on S^1, G = 1 and h = 4/3, Phi is a quotient of two rounded sums, and
    # the speed is 1 ulp of 4/3.)
    for n, k, grid, f in ((1, 0, S1, 0.75), (2, 1, S2_16, 0.375)):
        res = run(
            FlowConfig(n=n, k=k, p=0.0, f=np.full(grid.size, f), eps_stop=0.0, max_steps=3),
            SupportField(grid, np.full(grid.size, 2.0)),
        )
        assert res.status == "max-steps"
        assert list(res.trace.column("speedSup")) == [0.0] * 4
        assert list(res.trace.column("dt")) == [flow.MAX_DT] * 3 + [0.0]


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
    # The data and the start are even, so the run keeps evenness.
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
    replaced: Phi refreshed at every stage, dt the smallest of MAX_DT, the
    0.05 lambda^2 h^2 limiter and twice the inverse of the largest
    diffusivity of h times the spectral radius of the Laplacian on the
    band."""
    state = make_state(cfg, body)  # its field is the projected body
    grid, phi = state.K.grid, state.K.phi
    n = grid.n
    nk = n - state.k
    h = (2.0 if n == 1 else 1.0) * math.pi / grid.resolution[0]
    B = grid.band_limit
    omega = 2.0 * math.pi if n == 1 else 4.0 * math.pi
    while True:
        d = replace(state, K=SupportField(grid, phi))
        pA = p_tensor(d.K.A, nk)
        gamma_field = phi ** (-(state.p + state.k)) * pA / state.f
        gamma = integrate(grid, gamma_field) / omega
        gamma_var = (np.max(gamma_field) - np.min(gamma_field)) / gamma
        if np.max(np.abs(d.speed)) < cfg.eps_stop and gamma_var <= 10 * cfg.eps_stop:
            return phi, gamma
        lam = np.min(phi * pA ** (1.0 / nk))
        if nk == 1:
            c_max = np.max(pA ** (-2.0)) / n
        else:
            c_max = np.max(pA ** (-0.5) / (2.0 * d.K.eigenvalues[:, 0]))
        dt = min(0.05 * lam**2 * h * h, 2.0 / (c_max * B * (B + n - 1)), flow.MAX_DT)

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
    "make, size, bound", [(bench_like_s1, 96, 5), (sphere_body, 16, 6)], ids=["s1", "s2"]
)
def test_acceptance_flows_converge_within_their_step_bounds(make, size, bound):
    # The two benchmark solves: with the first step at the cap, SER does
    # not spend steps climbing to it.
    res = run(*make(size))
    assert res.status == "converged"
    assert res.steps <= bound
    assert res.rejections == 0


@pytest.mark.bitwise
@pytest.mark.parametrize(
    "make, size, trials", [(bench_like_s1, 96, 7), (sphere_body, 16, 9)], ids=["s1", "s2"]
)
def test_acceptance_flows_take_their_steps_and_newton_trials(make, size, trials):
    # The two benchmark solves, step for step: the Newton solve of each
    # step starts from the root of W_k's quadratic model, and needs 7 and
    # 9 W_k trials in all (10 and 14 from the linear start).
    res = run(*make(size))
    assert res.status == "converged"
    assert (res.steps, res.rejections) == ((4, 0) if size == 96 else (5, 0))
    assert res.newton_trials <= trials


def test_newton_trials_count_the_accepted_steps_w_k_evaluations(wk_calls):
    # Without rejections, every wk_value call but the start's target is a
    # Newton trial of an accepted step; the trace rows read cached values.
    start = make_state(FlowConfig(n=2, k=1, p=1.0), perturbed_sphere())
    assert start.trials == 0
    wk_calls.clear()
    res = run(FlowConfig(n=2, k=1, p=1.0, max_steps=4), perturbed_sphere())
    assert res.steps == 4 and res.rejections == 0
    assert res.newton_trials == len(wk_calls) - 1 >= res.steps


def test_first_step_is_tried_at_the_cap():
    cfg = FlowConfig(n=1, k=0, p=0.0, max_steps=3)
    res = run(cfg, perturbed_circle())
    assert res.rejections == 0
    assert res.trace.column("dt")[0] == flow.MAX_DT


# The paper's p range (ROADMAP item 3): (n, k, p, budget).  The budget is
# the run's max_steps and names the case: about 1.25 times the steps
# measured when SER climbed from dt = 0.05, and 30 for the large-p rows,
# which ended `max-steps` in a period-2 cycle before the step was shifted.
# STEP_BOUND holds the tighter bound, about 1.25 times the steps of the
# step that resolves the speed scaled by sigma, with the first step at the
# cap, so a run over it still reports its count.  p = -10 is left out
# until the flow contracts the slow mode at large |p|.
P_TABLE = (
    [(1, 0, p, b) for p, b in ((-5, 130), (-2, 45), (-1, 37), (0, 30), (1, 25), (2, 23), (5, 15))]
    + [(1, 0, p, 30) for p in (10, 20, 40)]
    + [(2, 0, p, b) for p, b in ((-5, 53), (-2, 32), (-1, 28), (0, 25), (1, 22), (2, 20), (5, 15))]
    + [(2, 0, p, 30) for p in (10, 20)]
    + [(2, 1, p, b) for p, b in ((-1.5, 22), (0, 15), (1, 12), (2, 10))]
    + [(2, 1, p, 30) for p in (5, 10, 20)]
)
STEP_BOUND = (
    {(1, 0, p): b for p, b in (
        (-5, 35), (-2, 16), (-1, 13), (0, 10), (1, 8), (2, 5), (5, 6), (10, 6), (20, 6), (40, 5)
    )}
    | {(2, 0, p): b for p, b in (
        (-5, 28), (-2, 16), (-1, 14), (0, 13), (1, 10), (2, 9), (5, 6), (10, 5), (20, 5)
    )}
    | {(2, 1, p): b for p, b in ((-1.5, 11), (0, 8), (1, 5), (2, 5), (5, 5), (10, 4), (20, 4))}
)


@functools.cache
def p_table_run(n, k, p, budget):
    """The data f and the run of one p-table case: even data from the ball
    phi = 2; k = 1 data weak enough to meet the structural condition at
    p = -1.5."""
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
    return f, run(cfg, SupportField(grid, np.full(grid.size, 2.0)))


@pytest.mark.parametrize("n, k, p, budget", P_TABLE)
def test_p_table_converges_within_its_step_bound(n, k, p, budget):
    f, res = p_table_run(n, k, p, budget)
    assert res.status == "converged"
    assert res.steps <= STEP_BOUND[n, k, p]
    _, residual = pde_residual(res.terminal, res.gamma * f, float(p), k)
    assert residual < 1e-4


@pytest.mark.parametrize("n, k, p, budget", P_TABLE)
def test_p_table_steps_do_not_raise_j_p(n, k, p, budget):
    # The continuous flow decreases J_p and the step does not check it
    # (ROADMAP item 19); no accepted step of the table raises it by more
    # than roundoff.  Each state's J_p is the trace's Jp column.
    _, res = p_table_run(n, k, p, budget)
    jp = res.trace.column("Jp")
    assert len(jp) == res.steps + 1
    assert np.all(np.diff(jp) <= 1e-12 * np.abs(jp[:-1]))


# Manufactured k = 1 data (ROADMAP items 10 and 14): f is the measure
# density of a seeded random body K, so K solves the problem with gamma
# = 1, and the start is the centered ball with K's W_1.  Seeds 0 and 2
# fail assumption H at every p, seed 1 meets it; each converges to K.
# (seed, p): about 1.25 times the steps measured.
MMS_K1_STEP_BOUND = {
    (0, 0.0): 25, (0, 1.0): 16, (0, 2.0): 21,
    (1, 0.0): 25, (1, 1.0): 13, (1, 2.0): 14,
    (2, 0.0): 28, (2, 1.0): 11, (2, 2.0): 15,
}


@pytest.mark.parametrize("seed, p", list(MMS_K1_STEP_BOUND))
def test_k1_flow_solves_manufactured_data_with_or_without_assumption_h(seed, p):
    grid = make_grid(2, 12)
    K = random_h_convex_fields(seed, [grid], 1)[0]
    f = measure_density(K, p, 1)
    ball = support_of_ball(grid, origin(2), k_mean_radius(K, 1))
    cfg = FlowConfig(n=2, k=1, p=p, f=f, eps_stop=1e-10, max_steps=3000)
    res = run(cfg, ball)
    assert res.status == "converged"
    assert res.steps <= MMS_K1_STEP_BOUND[seed, p]
    assert np.abs(res.terminal.phi - K.phi).max() <= 1e-9 * K.phi.max()
    passes = check_assumption_h(f, grid, 1, p).passes
    assert passes == (seed == 1)
    assert len(res.warnings) == (0 if passes else 1)


# Manufactured k = 0 data on S^1 far from the start (ROADMAP items 10 and
# 11): seed-3 bodies, whose local diffusivity d has a max/min ratio of
# 13.6 on s1:128 and 1,890 on s1:64.  A step scaled by c / d at every dt
# stalled on three of these and the unscaled step ended s1:64 `max-steps`
# at 3,000; scaled by sigma, a halved step falls back towards the paper's
# flow.  (N, p): about 1.25 times the steps measured (102, 41, 514, 314).
MMS_S1_STEP_BOUND = {(128, 0.0): 128, (128, 1.0): 51, (64, 0.0): 643, (64, 2.0): 393}


@pytest.mark.parametrize("N, p", list(MMS_S1_STEP_BOUND))
def test_k0_flow_solves_manufactured_data_of_high_contrast(N, p):
    grid = make_grid(1, N)
    K = random_h_convex_fields(3, [grid], 1)[0]
    f = measure_density(K, p, 0)
    ball = support_of_ball(grid, origin(1), k_mean_radius(K, 0))
    res = run(FlowConfig(n=1, k=0, p=p, f=f, eps_stop=1e-10, max_steps=3000), ball)
    assert res.status == "converged"
    assert res.steps <= MMS_S1_STEP_BOUND[N, p]
    assert np.abs(res.terminal.phi - K.phi).max() <= 1e-9 * K.phi.max()


def test_steep_data_regrows_dt_after_its_first_step_cuts():
    # The first step is cut 10 times (test_rejected_column_sums_to_the_
    # rejections); then no step is cut and dt climbs back to the cap.
    f = 1.0 + 0.9 * np.cos(2 * S1.theta)
    res = run(FlowConfig(n=1, k=0, p=0.0, f=f), SupportField(S1, np.full(S1.size, 2.0)))
    assert res.status == "converged"
    assert res.steps <= 69  # 55 measured
    assert res.rejections == res.trace.column("rejected")[0] == 10


def test_even_data_at_p_minus_5_converges_under_the_default_config():
    # Without evenness the odd modes grow under large steps and this run
    # does not converge.
    grid = make_grid(1, 96)
    f = 1.0 + 0.2 * np.cos(2.0 * grid.theta)
    res = run(FlowConfig(n=1, k=0, p=-5.0, f=f), SupportField(grid, np.full(96, 2.0)))
    assert res.status == "converged"
    assert res.steps <= 35  # 28 measured
    assert np.max(res.trace.column("evenErr")) < 1e-13


# s1:96 at p = -8 (ROADMAP items 2 and 17), eps_stop: about 1.25 times
# the steps measured (82 and 90).  A step that resolved G and h apart took
# 1,069 steps at 1e-9 and ended `max-steps` at 1e-10, on a roundoff floor
# of the speed near 1e-9.
P_MINUS_8_STEP_BOUND = {1e-9: 103, 1e-10: 113}


@pytest.mark.parametrize("eps_stop", list(P_MINUS_8_STEP_BOUND))
def test_p_minus_8_converges_within_its_step_bound(eps_stop):
    grid = make_grid(1, 96)
    f = 1.0 + 0.2 * np.cos(2.0 * grid.theta)
    cfg = FlowConfig(n=1, k=0, p=-8.0, f=f, eps_stop=eps_stop, max_steps=1000)
    res = run(cfg, SupportField(grid, np.full(96, 2.0)))
    assert res.status == "converged"
    assert res.steps <= P_MINUS_8_STEP_BOUND[eps_stop]
    jp = res.trace.column("Jp")
    assert np.all(np.diff(jp) <= 1e-12 * np.abs(jp[:-1]))


def test_k0_evenness_default_follows_the_data():
    even_f = 1.0 + 0.2 * np.cos(2.0 * S1.theta)
    odd_f = even_f + 0.1 * np.cos(S1.theta)
    ball = SupportField(S1, np.full(S1.size, 2.0))
    shifted = SupportField(S1, 2.0 + 0.1 * np.cos(S1.theta))
    assert make_state(FlowConfig(n=1, k=0, p=0.0, f=even_f), ball).even
    assert make_state(FlowConfig(n=1, k=0, p=0.0), ball).even
    assert not make_state(FlowConfig(n=1, k=0, p=0.0, f=odd_f), ball).even
    assert not make_state(FlowConfig(n=1, k=0, p=0.0, f=even_f), shifted).even


S2_16 = make_grid(2, 16)
# A seed-3 body on s2:16: neither it nor its support function is even.
ODD_BODY = random_h_convex_fields(3, [S2_16], 1)[0]


def test_odd_data_at_k1_run_without_evenness_and_converge():
    # The body's own phi as f, started from the body: evenness follows
    # the data at k = 1 as at k = 0, so odd data are not refused.
    cfg = FlowConfig(n=2, k=1, p=1.0, f=ODD_BODY.phi)
    assert not make_state(cfg, ODD_BODY).even
    res = run(cfg, ODD_BODY)
    assert res.status == "converged"
    assert res.steps <= 9  # 8 measured
    assert np.max(res.trace.column("evenErr")) > 1e-3


def test_an_odd_start_at_k1_keeps_its_odd_part():
    # Even f, odd start: the start is projected onto the band only, not
    # onto even fields.
    state = make_state(FlowConfig(n=2, k=1, p=1.0), ODD_BODY)
    assert not state.even
    assert np.array_equal(state.K.phi, resolvent(S2_16, ODD_BODY.phi, 0.0)[0])


# ---------------------------------------------------------------------------
# stepping mechanics


def test_step_rejects_cone_exit():
    # Data this steep pulls the first step, at the cap MAX_DT,
    # out of the uniformly h-convex cone: A[phi_new] gets a negative
    # eigenvalue where f^{-1} peaks.
    f = 1.0 + 0.9 * np.cos(2 * S1.theta)
    state = make_state(
        FlowConfig(n=1, k=0, p=0.0, f=f), SupportField(S1, np.full(S1.size, 2.0))
    )
    with pytest.raises(FlowStepError, match="eigenvalue"):
        step(state, flow.MAX_DT)


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
    # The halved step is the base of the next update, not MAX_DT.
    assert dt[1] == min(flow.MAX_DT, dt[0] * speed[0] / speed[1])
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
    # The terminal row of each run is the trace row of its terminal phi;
    # its Jp, read off the state, has the bits of a checked J_p.
    wk, jp = TRACE_COLUMNS.index("Wk"), TRACE_COLUMNS.index("Jp")
    for max_steps in (0, 3, 8):
        res = run(replace(cfg, max_steps=max_steps), body())
        fresh = wk_value(res.terminal, cfg.k)
        assert res.trace.rows[-1][wk] == fresh
        f = np.ones(res.terminal.grid.size)
        assert res.trace.rows[-1][jp] == J_p(res.terminal, f, cfg.p)


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
    # No accepted state is projected again: with the resolved fields
    # projected before the resolvent, the odd and out-of-band roundoff of
    # the states only random-walks, and stays at roundoff over this run's
    # 1,000 steps, most of them at rest on the speed's roundoff floor.
    # Each step analyses phi afresh, so the terminal's cached derivatives
    # do not drift either: they lie within about 2.5 times the N^2 eps
    # |phi| roundoff of one pass of a fresh one.
    grid = make_grid(1, 96)
    f = 1.0 + 0.2 * np.cos(2.0 * grid.theta)
    cfg = FlowConfig(n=1, k=0, p=-8.0, f=f, eps_stop=0.0, max_steps=1000)
    real, nyquist = flow.step, []

    def recording(*args, **kwargs):
        new_state = real(*args, **kwargs)
        nyquist.append(abs(np.fft.rfft(new_state.K.phi)[48]) / 96)
        return new_state

    monkeypatch.setattr(flow, "step", recording)
    res = run(cfg, SupportField(grid, np.full(96, 2.0)))
    assert res.status == "max-steps" and res.steps == len(nyquist) == 1000
    assert np.max(res.trace.column("evenErr")) <= 1e-12
    assert max(nyquist) <= 1e-12
    g, H = derivatives(grid, res.terminal.phi)
    assert np.max(np.abs(res.terminal.gradient - g)) <= 1e-11
    assert np.max(np.abs(res.terminal.hessian - H)) <= 1e-11


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


def test_run_reads_gamma_and_the_speed_off_the_state(monkeypatch):
    # p_{n-k}(A) is computed once per state, by _evaluate: measure_density
    # runs only inside step, for the slope of a Newton iterate.
    real_step, real_density = flow.step, flow.measure_density
    inside = []

    def spied_step(state, dt):
        inside.append(True)
        try:
            return real_step(state, dt)
        finally:
            inside.pop()

    def spied_density(K, p, k):
        assert inside, "measure_density called outside step"
        return real_density(K, p, k)

    monkeypatch.setattr(flow, "step", spied_step)
    monkeypatch.setattr(flow, "measure_density", spied_density)
    res = run(FlowConfig(n=1, k=0, p=0.0, max_steps=3), perturbed_circle())
    assert res.steps == 3
    assert res.trace.column("speedSup")[-1] > 0.0


def test_a_run_evaluates_w_k_of_its_start_once(wk_calls):
    # make_state's target and the first trace row read one cached value.
    res = run(FlowConfig(n=2, k=1, p=1.0, max_steps=0), perturbed_sphere())
    assert res.steps == 0 and len(res.trace.rows) == 1
    assert len(wk_calls) == 1
    assert res.trace.column("Wk")[0] == wk_value(res.terminal, 1)


def test_max_steps_outcome():
    # The first step from the ball is cut 10 times (see
    # test_rejected_column_sums_to_the_rejections); SER then grows dt
    # from there, capped at MAX_DT.
    f = 1.0 + 0.9 * np.cos(2 * S1.theta)
    cfg = FlowConfig(n=1, k=0, p=0.0, f=f, eps_stop=1e-12, max_steps=4)
    res = run(cfg, SupportField(S1, np.full(S1.size, 2.0)))
    assert res.status == "max-steps"
    assert res.steps == 4
    assert list(res.trace.column("rejected")) == [10, 0, 0, 0, 0]
    speed = res.trace.column("speedSup")
    expected = [flow.MAX_DT * 0.5**10]
    for i in range(1, 4):
        expected.append(min(flow.MAX_DT, expected[-1] * speed[i - 1] / speed[i]))
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
    cfg = FlowConfig(n=1, k=0, p=0.0, max_steps=10)
    body = perturbed_circle()
    res = run(cfg, body)
    assert res.status == "stalled"
    assert res.steps == 0
    assert res.rejections == len(attempts) == flow.MAX_REJECTIONS + 1
    assert attempts == [flow.MAX_DT * 0.5**i for i in range(len(attempts))]
    assert np.allclose(res.terminal.phi, body.phi, atol=1e-14)
    assert len(res.trace.rows) == 1
    assert list(res.trace.column("rejected")) == [res.rejections]


def test_rejected_column_sums_to_the_rejections(monkeypatch):
    # Every run writes a row per accepted step and one for the state it
    # stops at, whatever its outcome.
    def check(res, status):
        assert res.status == status
        assert len(res.trace.rows) == res.steps + 1
        assert res.trace.column("t")[-1] == res.t_final
        assert res.trace.column("rejected").sum() == res.rejections

    # The first step from the ball leaves the cone at MAX_DT and nine
    # more times after halving (see test_step_rejects_cone_exit).
    f = 1.0 + 0.9 * np.cos(2 * S1.theta)
    ball = SupportField(S1, np.full(S1.size, 2.0))
    res = run(FlowConfig(n=1, k=0, p=0.0, f=f, max_steps=20), ball)
    check(res, "max-steps")
    rejected = res.trace.column("rejected")
    assert res.rejections == rejected[0] == 10
    assert res.trace.column("dt")[0] == flow.MAX_DT / 2**10
    res = run(FlowConfig(n=1, k=0, p=0.0, f=f, max_steps=1_000), ball)
    check(res, "converged")
    assert res.rejections == 10

    # test_stalled_outcome's run: every attempt is rejected.
    def rejecting(state, dt, *args):
        raise FlowStepError("rejected")

    monkeypatch.setattr(flow, "step", rejecting)
    res = run(FlowConfig(n=1, k=0, p=0.0, max_steps=10), perturbed_circle())
    check(res, "stalled")
    assert res.rejections == flow.MAX_REJECTIONS + 1


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
        ("max_steps", -1),
        ("eps_stop", -1.0),
        ("eps_stop", math.nan),
    ],
)
def test_make_state_rejects_bad_config_values(field, value):
    # Unchecked, a negative max_steps ends a run before its first step,
    # and a negative or NaN eps_stop runs to max_steps, since no speed is
    # below it.  FlowConfig refuses them when the
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
    cfg = FlowConfig(n=np.int64(2), k=1, p=2, eps_stop=np.float32(0.5))
    assert type(cfg.n) is int and type(cfg.p) is float and type(cfg.eps_stop) is float
    assert (cfg.p, cfg.eps_stop) == (2.0, 0.5)


@pytest.mark.parametrize("key, value", [("dt_initial", 0.05), ("assumption_mode", "warn")])
def test_flow_config_has_no_first_step_or_assumption_mode_setting(key, value):
    # The first step is always MAX_DT, and assumption H is always checked
    # and recorded, never a refusal.
    with pytest.raises(TypeError, match=key):
        FlowConfig(n=1, k=0, p=0.0, **{key: value})


def test_data_failing_assumption_h_runs_with_a_warning():
    z = S2.nodes
    # Even but steep data fails the structural condition at p = 1; the
    # paper's estimates need it, the flow does not.
    f = 1.0 + 0.25 * (3.0 * z[:, 2] ** 2 - 1.0)
    cfg = FlowConfig(n=2, k=1, p=1.0, f=f)
    res = run(cfg, perturbed_sphere())
    assert res.status == "converged"
    assert len(res.warnings) == 1
    assert res.warnings[0].startswith("data fails the structural condition (regime ")
    # The warning is on the start and on every state after it.
    assert make_state(cfg, perturbed_sphere()).warnings == tuple(res.warnings)


def test_enforce_even_override():
    # Even data (f = 1) and an even start keep evenErr at zero: no config
    # turns evenness off.
    cfg = FlowConfig(n=1, k=0, p=0.0, max_steps=50)
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
    # that measure_density gives.  trials records the step, not K, so
    # replace takes it as given.
    state = make_state(cfg, body())
    for dt in (0.05, flow.MAX_DT):
        new_state = step(state, dt)
        assert new_state.trials >= 1
        again = replace(state, K=new_state.K, trials=new_state.trials)
        assert again.K is new_state.K
        for f in fields(flow.FlowState)[1:]:
            assert _same_bits(getattr(again, f.name), getattr(new_state, f.name)), f.name
        for s in (state, new_state):
            assert _same_bits(s.w, measure_density(s.K, 1.0, cfg.k))
            gamma_field = measure_density(s.K, cfg.p, cfg.k) / s.f
            assert s.gamma == integrate(s.K.grid, gamma_field) / sphere_area(s.K.grid.n)
        state = new_state


def _first_attempt_is_rejected_and_halved(monkeypatch, name, value):
    # run with flow.<name> set to value for its first step attempt only:
    # that attempt is rejected, and the run is then the reference run,
    # whose first step call raises FlowStepError.
    cfg = FlowConfig(n=1, k=0, p=0.0, max_steps=3)
    real_step, original = flow.step, getattr(flow, name)
    attempts = []

    def refused_once(state, dt):
        attempts.append(dt)
        if len(attempts) == 1:
            raise FlowStepError("refused")
        return real_step(state, dt)

    def first_patched(state, dt):
        attempts.append(dt)
        monkeypatch.setattr(flow, name, value if len(attempts) == 1 else original)
        return real_step(state, dt)

    runs = []
    for patched in (refused_once, first_patched):
        attempts.clear()
        monkeypatch.setattr(flow, "step", patched)
        runs.append(run(cfg, perturbed_circle()))
        assert attempts[:2] == [flow.MAX_DT, 0.5 * flow.MAX_DT]
    reference, res = runs
    assert res.rejections == reference.rejections == 1
    assert list(res.trace.column("rejected")) == [1, 0, 0, 0]
    assert res.trace.rows == reference.trace.rows
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
    # from the root of W_k's quadratic model, is above tolerance, as it
    # is at dt = 5.
    state = make_state(FlowConfig(n=1, k=0, p=0.0), perturbed_circle())
    monkeypatch.setattr(flow, "NEWTON_MAX_ITER", 1)
    with pytest.raises(FlowStepError, match="W_k constraint missed by"):
        step(state, 5.0)
    monkeypatch.undo()
    _first_attempt_is_rejected_and_halved(monkeypatch, "NEWTON_MAX_ITER", 1)


def test_newton_start_is_the_root_of_the_quadratic_model(monkeypatch):
    # Two smooth fields in the roles of rS and rG: the start solves c + b x
    # + a x^2 = 0, and with no finite real root (here NaN coefficients)
    # it is the linear start -int w rS / int w rG.
    state = make_state(FlowConfig(n=2, k=1, p=1.0), perturbed_sphere())
    z = S2.nodes
    r = np.stack([0.01 * (3.0 * z[:, 2] ** 2 - 1.0), 0.5 + 0.1 * z[:, 0] ** 2])
    dr, d2r = derivatives(S2, r)
    tau, w = 2.0, state.w
    x = flow._newton_start(state, tau, r, dr, d2r)
    dwS, dwG = d_measure_density(state.K, 1.0, 1, r, dr, d2r)
    c = integrate(S2, r[0] * (w + 0.5 * tau * dwS))
    b = integrate(S2, r[1] * (w + tau * dwS))
    a = 0.5 * tau * integrate(S2, r[1] * dwG)
    assert abs(c + b * x + a * x * x) <= 1e-14 * abs(b * x)
    # Of the two roots, the one nearer the linear start.
    linear = -integrate(S2, w * r[0]) / integrate(S2, w * r[1])
    assert abs(x - linear) < abs((-b / a - x) - linear)
    monkeypatch.setattr(flow, "d_measure_density", lambda K, p, k, v, dv, d2v: np.full(v.shape, np.nan))
    assert flow._newton_start(state, tau, r, dr, d2r) == linear


def test_a_step_from_the_linear_start_holds_w_k_with_more_trials(monkeypatch):
    state = make_state(FlowConfig(n=2, k=1, p=1.0), perturbed_sphere())
    quadratic = step(state, flow.MAX_DT)
    monkeypatch.setattr(flow, "d_measure_density", lambda K, p, k, v, dv, d2v: np.full(v.shape, np.nan))
    linear = step(state, flow.MAX_DT)
    assert linear.trials > quadratic.trials
    for new_state in (quadratic, linear):
        w1 = wk_value(SupportField(S2, new_state.K.phi), 1)
        assert abs(w1 - state.target) <= 1e-12 * state.target


@pytest.mark.parametrize("dt", [math.inf, math.nan, 1e308])
def test_step_refuses_a_non_finite_resolvent_mu_as_a_step_error(dt):
    # tau c, tau = dt / (1 + dt s), is the resolvent's mu; one that is not
    # finite is a rejected step, which run halves, not the ValueError that
    # resolvent raises.  Without a shift tau is dt.
    state = make_state(FlowConfig(n=1, k=0, p=0.0), perturbed_circle())
    assert state.s == 0.0
    with pytest.raises(FlowStepError, match="not finite"):
        step(state, dt)


def test_a_state_is_evaluated_at_its_field():
    state = make_state(FlowConfig(n=2, k=1, p=1.0), perturbed_sphere())
    assert state.target == wk_value(state.K, 1)
    new_state = step(state, 0.05)
    assert new_state.target == state.target and new_state.f is state.f
    again = replace(state, K=new_state.K)
    for name in ("w", "G", "speed", "d"):
        assert np.array_equal(getattr(again, name), getattr(new_state, name))
    assert new_state.min_eig == float(new_state.K.eigenvalues[:, 0].min())
    assert (again.Phi, again.c, again.s, again.min_eig, again.Jp) == (
        new_state.Phi, new_state.c, new_state.s, new_state.min_eig, new_state.Jp
    )
    kinked = SupportField(S2, 2.0 * (1.0 + 0.3 * S2.nodes[:, 2] ** 6))
    with pytest.raises(FlowStepError, match="eigenvalue"):
        replace(state, K=kinked)
    # The state's data do not change with the caller's array.
    f = np.ones(S2.size)
    state = make_state(FlowConfig(n=2, k=1, p=1.0, f=f), perturbed_sphere())
    f[0] = 5.0
    assert state.f[0] == 1.0
