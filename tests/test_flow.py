"""Volume-preserving prescription flow: conservation, descent, stops."""

import csv
import math
from dataclasses import replace

import numpy as np
import pytest

from horocvx import flow
from horocvx.flow import (
    TRACE_COLUMNS,
    FlowConfig,
    FlowStepError,
    make_state,
    phi_global,
    run,
    step,
)
from horocvx.hconvex import SupportField
from horocvx.problems import measure_density
from horocvx.quermass import HOMOTOPY_ORDER, _homotopy_value
from horocvx.sphere_grid import band_project, even_project, integrate, make_grid

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
    assert phi_global(state) == pytest.approx(4.0 / 3.0, abs=1e-14)


def test_ball_is_stationary():
    res = run(
        FlowConfig(n=1, k=0, p=0.0, max_steps=10),
        SupportField(S1, np.full(S1.size, 2.0)),
    )
    assert res.status == "converged"
    assert res.steps == 0
    assert res.gamma_variation < 1e-12
    assert np.allclose(res.terminal.phi, 2.0, atol=1e-12)


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
    state = make_state(cfg, body)
    grid, n = state.grid, state.n
    nk = n - state.k
    phi = even_project(grid, state.phi) if state.even else state.phi
    phi = band_project(grid, phi)
    h = (2.0 if n == 1 else 1.0) * math.pi / grid.resolution[0]
    B = grid.band_limit
    omega = 2.0 * math.pi if n == 1 else 4.0 * math.pi
    while True:
        d = flow._evaluate(state, phi)
        gamma_field = phi ** (-(state.p + state.k)) * d["pA"] / state.f
        gamma = integrate(grid, gamma_field) / omega
        gamma_var = (np.max(gamma_field) - np.min(gamma_field)) / gamma
        if np.max(np.abs(d["speed"])) < cfg.eps_stop and gamma_var <= 10 * cfg.eps_stop:
            return phi, gamma
        lam = np.min(phi * d["pA"] ** (1.0 / nk))
        dt = min(0.05 * lam**2 * h * h, 2.0 / (d["c"] * B * (B + n - 1)), cfg.max_dt)

        def speed(x):
            return flow._evaluate(state, x)["speed"]

        k1 = d["speed"]
        k2 = speed(phi + 0.5 * dt * k1)
        k3 = speed(phi + 0.5 * dt * k2)
        k4 = speed(phi + dt * k3)
        phi = band_project(grid, phi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
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
    w0 = _homotopy_value(perturbed_sphere(), 1, HOMOTOPY_ORDER)
    new_state, _ = step(state, 0.05)
    w1 = _homotopy_value(SupportField(S2, new_state.phi), 1, HOMOTOPY_ORDER)
    assert abs(w1 - w0) <= 1e-12 * w0
    assert np.max(np.abs(new_state.phi - state.phi)) > 1e-4


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
def test_evaluate_raises_flow_step_error_off_the_cone(bad):
    state = make_state(FlowConfig(n=1, k=0, p=0.0), perturbed_circle())
    phi = state.phi.copy()
    phi[5] = bad
    with pytest.raises(FlowStepError):
        flow._evaluate(state, phi)


def test_rejected_projected_state_halves_dt_and_continues(monkeypatch):
    cfg = FlowConfig(n=1, k=0, p=0.0, max_steps=3)
    reference = run(cfg, perturbed_circle())
    assert reference.rejections == 0
    real = flow.band_project
    calls = []

    def faulty(grid, values):
        # Call 1 projects the initial field; call 2 is the first stepped
        # state, which gets a kink no uniformly h-convex body has.
        calls.append(1)
        out = real(grid, values)
        if len(calls) == 2:
            out = out * (1.0 + 0.3 * np.cos(12 * grid.theta))
        return out

    monkeypatch.setattr(flow, "band_project", faulty)
    res = run(cfg, perturbed_circle())
    assert res.status == "max-steps"
    assert res.steps == 3
    assert res.rejections == 1
    dt = TRACE_COLUMNS.index("dt")
    assert res.trace.rows[0][dt] == 0.5 * reference.trace.rows[0][dt]


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
        fresh = _homotopy_value(res.terminal, cfg.k, HOMOTOPY_ORDER)
        assert res.trace.rows[-1][wk] == fresh


@pytest.mark.parametrize(
    "cfg, body, budget",
    [
        (FlowConfig(n=1, k=0, p=0.0), perturbed_circle, 14),
        (FlowConfig(n=2, k=1, p=1.0), perturbed_sphere, 30),
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


def test_max_steps_outcome():
    cfg = FlowConfig(n=1, k=0, p=0.0, eps_stop=1e-12, max_steps=4)
    res = run(cfg, perturbed_circle())
    assert res.status == "max-steps"
    assert res.steps == 4
    assert res.t_final == pytest.approx(4 * cfg.max_dt)
    dt = res.trace.column("dt")
    assert list(dt) == [cfg.max_dt] * 4 + [0.0]
    assert res.trace.column("speedSup")[-1] >= cfg.eps_stop


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
    assert attempts == [cfg.max_dt * 0.5**i for i in range(len(attempts))]
    assert np.allclose(res.terminal.phi, body.phi, atol=1e-14)
    assert len(res.trace.rows) == 1


def test_dt_initial_is_respected():
    cfg = FlowConfig(n=1, k=0, p=0.0, dt_initial=1e-6, max_steps=3)
    res = run(cfg, perturbed_circle())
    assert res.trace.rows[0][TRACE_COLUMNS.index("dt")] == pytest.approx(1e-6)


def test_trace_every_thins_rows():
    cfg = FlowConfig(n=1, k=0, p=0.0, max_steps=20, trace_every=10)
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
    with pytest.raises(ValueError):
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
    ],
)
def test_make_state_rejects_bad_config_values(field, value):
    # Unchecked, these divide by zero, take every step at dt = 0, stall,
    # or act as another mode.
    cfg = replace(FlowConfig(n=1, k=0, p=0.0), **{field: value})
    with pytest.raises(ValueError, match=field):
        make_state(cfg, perturbed_circle())


def test_even_enforcement_rejects_odd_data():
    z = S2.nodes
    f = 1.0 + 0.5 * z[:, 0]  # odd part breaks the symmetry requirement
    cfg = FlowConfig(n=2, k=1, p=1.0, f=f, max_steps=5)
    with pytest.raises(ValueError, match="even"):
        run(cfg, perturbed_sphere())


def test_assumption_mode_strict_and_warn():
    z = S2.nodes
    # Even but steep data fails the structural condition at p = 1.
    f = 1.0 + 0.25 * (3.0 * z[:, 2] ** 2 - 1.0)
    strict = FlowConfig(n=2, k=1, p=1.0, f=f, max_steps=1)
    with pytest.raises(ValueError, match="structural condition"):
        run(strict, perturbed_sphere())
    warn = FlowConfig(
        n=2, k=1, p=1.0, f=f, max_steps=1, assumption_mode="warn"
    )
    res = run(warn, perturbed_sphere())
    assert len(res.warnings) == 1
    assert "structural condition" in res.warnings[0]
    skip = FlowConfig(
        n=2, k=1, p=1.0, f=f, max_steps=1, assumption_mode="skip"
    )
    assert run(skip, perturbed_sphere()).warnings == []


def test_enforce_even_override():
    # k = 0 flows default to no evenness enforcement; forcing it on with
    # an even start keeps evenErr at zero.
    cfg = FlowConfig(n=1, k=0, p=0.0, enforce_even=True, max_steps=50)
    res = run(cfg, perturbed_circle())
    assert np.max(res.trace.column("evenErr")) < 1e-13
