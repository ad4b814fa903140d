"""Volume-preserving flow solving the (p, k) prescription problem.

d/dt phi = Phi G - h,  G = phi^{1-(n+p)/(n-k)} f^{-1/(n-k)},  h = p_{n-k}(A[phi])^{-1/(n-k)},

with the global term Phi keeping W_k fixed; J_p decreases and the flow
converges to a solution of phi^{-p-k} p_{n-k}(A[phi]) = gamma f.  A step
is linearly implicit, phi_new = phi + dt R[Phi G - h] with G and h
frozen at phi and R = (1 - dt c Laplacian)^{-1} for c the largest
diffusivity of h at phi; R is diagonal in the Fourier and Legendre
bases, 1 / (1 + dt c lambda) with lambda = k^2 on S^1 and l (l + 1) on
S^2.  Phi is the Lagrange multiplier of the constraint W_k(phi_new) =
W_k(phi_0), solved by Newton's method to roundoff with slope
dt int w_new R G, w = phi^{-(k+1)} p_{n-k}(A) the first variation of
W_k; phi_new and its derivatives are affine in Phi, so the iterates need
no further spectral pass.  Fixed points are the flow's steady states,
and dt = max_dt makes the step count independent of resolution.  The
trajectory, and the time t in the trace, are first-order accurate in
dt; W_k is conserved at every step.  A step costs one resolvent pass
each of G and h and one derivative pass of the new state after its band
(and even) projection: the cone check, whose diagnostics start the next
step and fill its trace row.  A step that leaves the uniformly h-convex
cone, or misses its constraint, is retried at half the step size.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .hconvex import SupportField, shifted_form
from .problems import J_p, check_assumption_h, validate_f
from .quermass import p_tensor, wk_value
from .sphere_grid import (
    Grid,
    band_project,
    even_error,
    even_project,
    integrate,
    resolvent,
    sphere_area,
)

__all__ = [
    "FlowConfig",
    "FlowState",
    "FlowTrace",
    "FlowResult",
    "FlowStepError",
    "make_state",
    "phi_global",
    "step",
    "run",
    "TRACE_COLUMNS",
]

TRACE_COLUMNS = (
    "t",
    "dt",
    "Wk",
    "Jp",
    "minEigA",
    "maxGradRatio",
    "evenErr",
    "gammaVar",
    "speedSup",
)

MIN_DT = 1e-15
MAX_REJECTIONS = 40
# Newton on the W_k constraint stops at roundoff: a looser residual
# shows up as a rise of J_p along the flow.
NEWTON_RTOL = 1e-13
NEWTON_MAX_ITER = 20


class FlowStepError(RuntimeError):
    """A step left the uniformly h-convex cone or missed its constraint."""


@dataclass
class FlowConfig:
    n: int
    k: int
    p: float
    f: np.ndarray | None = None  # positive data at grid nodes, default 1
    dt_initial: float | None = None
    max_dt: float = 0.05
    eps_stop: float = 1e-6
    max_steps: int = 200_000
    enforce_even: bool | None = None  # default: on for k >= 1
    assumption_mode: str = "strict"  # strict | warn | skip
    trace_every: int = 1


@dataclass
class FlowState:
    grid: Grid
    phi: np.ndarray
    n: int
    k: int
    p: float
    f: np.ndarray
    fpow: np.ndarray  # f^{-1/(n-k)}
    even: bool = False  # project each step onto even fields


@dataclass
class FlowTrace:
    rows: list = field(default_factory=list)

    def append(self, **kw) -> None:
        self.rows.append(tuple(kw[c] for c in TRACE_COLUMNS))

    def column(self, name: str) -> np.ndarray:
        i = TRACE_COLUMNS.index(name)
        return np.array([row[i] for row in self.rows])

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(TRACE_COLUMNS)
            for row in self.rows:
                writer.writerow([f"{v:.17g}" for v in row])


@dataclass
class FlowResult:
    status: str  # converged | max-steps | stalled
    terminal: SupportField
    gamma: float
    gamma_variation: float
    trace: FlowTrace
    steps: int
    t_final: float
    warnings: list[str]
    rejections: int  # rejected step attempts over the whole run


def _evaluate(state: FlowState, phi: np.ndarray) -> dict:
    """Speed field and diagnostics at a candidate phi; raises on cone exit."""
    # SupportField's own check, made first so that any phi off the
    # positive cone, NaN and inf included, is a FlowStepError.
    if not (0.0 < np.min(phi) and np.max(phi) < math.inf):
        raise FlowStepError("phi left the positive cone")
    n, k = state.n, state.k
    K = SupportField(state.grid, phi)
    eigs = K.eigenvalues
    eig_min = float(np.min(eigs[:, 0]))
    if eig_min <= 0.0:
        raise FlowStepError(f"minimum eigenvalue of A reached {eig_min}")
    nk = n - k
    pA = p_tensor(K.A, nk)
    num = integrate(state.grid, phi ** (-(k + 1.0)) * pA ** (1.0 - 1.0 / nk))
    den = integrate(
        state.grid, state.fpow * phi ** (-(k + (n + state.p) / nk)) * pA
    )
    Phi = num / den
    G = phi ** (1.0 - (n + state.p) / nk) * state.fpow
    h = pA ** (-1.0 / nk)
    # Largest diffusivity of h in D^2 phi: the implicit part of a step.
    if nk == 1:
        c = float(np.max(pA ** (-2.0))) / n
    else:
        c = float(np.max(pA ** (-0.5) / (2.0 * eigs[:, 0])))
    return dict(K=K, eig_min=eig_min, pA=pA, Phi=Phi, G=G, h=h, c=c, speed=Phi * G - h)


def make_state(config: FlowConfig, phi0: SupportField) -> FlowState:
    grid = phi0.grid
    n = grid.n
    if config.n != n:
        raise ValueError(f"config has n = {config.n}, grid lives on S^{n}")
    if not 0 <= config.k <= n - 1:
        raise ValueError(f"flow needs 0 <= k <= n-1, got k = {config.k}")
    f = validate_f(np.ones(grid.size) if config.f is None else config.f, grid)
    if config.k >= 1 and config.p < -n:
        raise ValueError(f"k >= 1 flows need p >= -n, got p = {config.p}")
    # Comparisons with NaN are false, so NaN fails these checks too.
    if not 0.0 < config.max_dt < math.inf:
        raise ValueError(f"max_dt must be finite and positive, got {config.max_dt}")
    if config.dt_initial is not None and not 0.0 < config.dt_initial < math.inf:
        raise ValueError(f"dt_initial must be finite and positive, got {config.dt_initial}")
    if config.trace_every < 1:
        raise ValueError(f"trace_every must be at least 1, got {config.trace_every}")
    if config.max_steps < 0:
        raise ValueError(f"max_steps must be nonnegative, got {config.max_steps}")
    if config.assumption_mode not in ("strict", "warn", "skip"):
        raise ValueError(
            f"assumption_mode must be strict, warn or skip, got {config.assumption_mode!r}"
        )
    even = config.k >= 1 if config.enforce_even is None else bool(config.enforce_even)
    fpow = f ** (-1.0 / (n - config.k))
    return FlowState(grid, phi0.phi.copy(), n, config.k, config.p, f, fpow, even)


def phi_global(state: FlowState) -> float:
    """Volume-preserving global term Phi at the current phi."""
    return _evaluate(state, state.phi)["Phi"]


def step(state: FlowState, dt: float, diag: dict | None = None,
         target: float | None = None) -> tuple[FlowState, dict]:
    """One linearly implicit step holding W_k at target (default: its
    value at state); returns the projected new state and its diagnostics.

    diag is `_evaluate` at state; the Newton iterates are affine in Phi
    on the derivatives cached in its field K.  Raises FlowStepError if
    the new state leaves the uniformly h-convex cone or the constraint
    does not converge; the caller is expected to halve dt and retry.
    """
    grid, phi, k = state.grid, state.phi, state.k
    if diag is None:
        diag = _evaluate(state, phi)
    if target is None:
        target = wk_value(diag["K"], k)
    mu = dt * diag["c"]
    rG, gG, HG = resolvent(grid, diag["G"], mu)
    rh, gh, Hh = resolvent(grid, diag["h"], mu)
    w = phi ** (-(k + 1.0)) * diag["pA"]
    Phi = integrate(grid, w * rh) / integrate(grid, w * rG)
    for _ in range(NEWTON_MAX_ITER):
        phi_new = phi + dt * (Phi * rG - rh)
        if not (0.0 < np.min(phi_new) and np.max(phi_new) < math.inf):
            raise FlowStepError("phi left the positive cone")
        g = diag["K"].gradient + dt * (Phi * gG - gh)
        H = diag["K"].hessian + dt * (Phi * HG - Hh)
        K = SupportField(grid, phi_new)
        residual = wk_value(K, k, g, H) - target
        if abs(residual) <= NEWTON_RTOL * abs(target):
            break
        pA = p_tensor(shifted_form(phi_new, g, H)[1], state.n - k)
        slope = dt * integrate(grid, phi_new ** (-(k + 1.0)) * pA * rG)
        if not slope > 0.0:
            raise FlowStepError(f"W_k constraint has slope {slope}")
        Phi -= residual / slope
    else:
        raise FlowStepError(f"W_k constraint missed by {residual:.3e}")
    phi_new = band_project(grid, phi_new)
    if state.even:
        phi_new = even_project(grid, phi_new)
    new_state = replace(state, phi=phi_new)
    return new_state, _evaluate(new_state, phi_new)


def run(config: FlowConfig, phi0: SupportField) -> FlowResult:
    """Run the flow until the speed and gamma variation stop criteria.

    Success requires sup |d phi/dt| < eps_stop and relative variation of
    f^{-1} phi^{-p-n} p_{n-k}(lambda~) at most 10 eps_stop.
    """
    warnings: list[str] = []
    state = make_state(config, phi0)
    grid = state.grid
    n, k = state.n, state.k
    if k >= 1 and config.assumption_mode != "skip":
        rep = check_assumption_h(state.f, grid, n, k, config.p)
        if not rep.passes:
            msg = (
                f"data fails the structural condition (regime {rep.regime}, "
                f"worst eigenvalue {rep.worst_eigenvalue} at node {rep.worst_node})"
            )
            if config.assumption_mode == "strict":
                raise ValueError(msg)
            warnings.append(msg)
    if state.even:
        f_even = even_error(grid, state.f)
        if f_even > 1e-8 * max(1.0, float(np.max(state.f))):
            raise ValueError(f"evenness enforcement needs even data, deviation {f_even}")
        state.phi = even_project(grid, state.phi)
    state.phi = band_project(grid, state.phi)

    omega = sphere_area(n)
    trace = FlowTrace()
    t = 0.0
    steps = 0
    rejections = 0
    status = "max-steps"
    gamma = math.nan
    gamma_var = math.inf
    first = True
    diag = _evaluate(state, state.phi)
    target = wk_value(diag["K"], k)
    while True:
        speed = diag["speed"]
        gamma_field = state.phi ** (-(state.p + k)) * diag["pA"] / state.f
        gamma = integrate(grid, gamma_field) / omega
        gamma_var = float((np.max(gamma_field) - np.min(gamma_field)) / gamma)
        speed_sup = float(np.max(np.abs(speed)))
        grad_ratio = float(
            np.max(np.sqrt(np.sum(diag["K"].gradient ** 2, axis=1)) / state.phi)
        )
        record = steps % config.trace_every == 0 or first
        stop = speed_sup < config.eps_stop and gamma_var <= 10.0 * config.eps_stop
        terminal_row = stop or steps >= config.max_steps
        if terminal_row or record:
            trace.append(
                t=t,
                dt=0.0 if terminal_row else math.nan,
                Wk=target if first else wk_value(diag["K"], k),
                Jp=J_p(diag["K"], state.f, state.p),
                minEigA=diag["eig_min"],
                maxGradRatio=grad_ratio,
                evenErr=even_error(grid, state.phi),
                gammaVar=gamma_var,
                speedSup=speed_sup,
            )
        first = False
        if stop:
            status = "converged"
            break
        if steps >= config.max_steps:
            status = "max-steps"
            break
        dt = config.max_dt
        if steps == 0 and config.dt_initial is not None:
            dt = min(dt, config.dt_initial)
        rejected = 0
        while True:
            try:
                new_state, diag = step(state, dt, diag, target)
                break
            except FlowStepError:
                dt *= 0.5
                rejected += 1
                rejections += 1
                if dt < MIN_DT or rejected > MAX_REJECTIONS:
                    new_state = None
                    break
        if new_state is None:
            status = "stalled"
            break
        if trace.rows:
            # Patch the dt actually used into the row recorded for this state.
            last = trace.rows[-1]
            if math.isnan(last[1]):
                trace.rows[-1] = last[:1] + (dt,) + last[2:]
        state = new_state
        t += dt
        steps += 1
    return FlowResult(
        status=status,
        terminal=diag["K"],
        gamma=gamma,
        gamma_variation=gamma_var,
        trace=trace,
        steps=steps,
        t_final=t,
        warnings=warnings,
        rejections=rejections,
    )
