"""Volume-preserving flow solving the (p, k) prescription problem.

d/dt phi = Phi(t) phi^{1-(n+p)/(n-k)} f^{-1/(n-k)} - p_{n-k}(A[phi])^{-1/(n-k)}

with the global term Phi chosen so that W_k is conserved; the functional
J_p decreases and the flow converges to a solution of
phi^{-p-k} p_{n-k}(A[phi]) = gamma f.  Time stepping is explicit RK4
with Phi refreshed at every stage.  An accepted step costs four speed
evaluations, each one spectral derivative pass: three inner RK4 stages
and the new state after its band (and even) projection.  That last one
is the cone check, and its speed and diagnostics start the next step and
fill its trace row, whose W_k column reuses the stage's gradient and
Hessian.  A step whose stages or projected state leave the uniformly
h-convex cone is rejected and retried at half the step size.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .hconvex import SupportField, _parts, a_eigenvalues
from .problems import check_assumption_h
from .quermass import HOMOTOPY_ORDER, _homotopy_value, _p_tensor
from .sphere_grid import (
    Grid,
    band_project,
    even_error,
    even_project,
    integrate,
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

# RK4 remains stable up to ~2.785 / (diffusivity * spectral radius); the
# cap below keeps a margin under the sharp bound.
STABILITY_CAP_FACTOR = 2.0
MIN_DT = 1e-15
MAX_REJECTIONS = 40


class FlowStepError(RuntimeError):
    """A stage left the uniformly h-convex cone."""


@dataclass
class FlowConfig:
    n: int
    k: int
    p: float
    f: np.ndarray | None = None  # positive data at grid nodes, default 1
    dt_initial: float | None = None
    safety: float = 0.05
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


def _evaluate(state: FlowState, phi: np.ndarray):
    """Speed field and diagnostics at a candidate phi; raises on cone exit."""
    # SupportField's own check, made first so that any phi off the
    # positive cone, NaN and inf included, is a FlowStepError.
    if not (0.0 < np.min(phi) and np.max(phi) < math.inf):
        raise FlowStepError("phi left the positive cone")
    n, k = state.n, state.k
    K = SupportField(state.grid, phi)
    g, _, A, H = _parts(K)
    eigs = a_eigenvalues(A)
    eig_min = float(np.min(eigs[:, 0]))
    if eig_min <= 0.0:
        raise FlowStepError(f"minimum eigenvalue of A reached {eig_min}")
    nk = n - k
    pA = _p_tensor(A, nk)
    num = integrate(state.grid, phi ** (-(k + 1.0)) * pA ** (1.0 - 1.0 / nk))
    den = integrate(
        state.grid, state.fpow * phi ** (-(k + (n + state.p) / nk)) * pA
    )
    Phi = num / den
    speed = Phi * phi ** (1.0 - (n + state.p) / nk) * state.fpow - pA ** (-1.0 / nk)
    diag = {
        "eig_min": eig_min,
        "eigs": eigs,
        "grad": g,
        "hess": H,
        "pA": pA,
        "Phi": Phi,
        "speed": speed,
    }
    return speed, diag


def make_state(config: FlowConfig, phi0: SupportField) -> FlowState:
    grid = phi0.grid
    n = grid.n
    if config.n != n:
        raise ValueError(f"config has n = {config.n}, grid lives on S^{n}")
    if not 0 <= config.k <= n - 1:
        raise ValueError(f"flow needs 0 <= k <= n-1, got k = {config.k}")
    f = config.f
    if f is None:
        f = np.ones(grid.size)
    f = np.asarray(f, dtype=float)
    if f.shape != (grid.size,):
        raise ValueError(f"f has shape {f.shape}, grid has {grid.size} nodes")
    if np.any(f <= 0.0):
        raise ValueError("f must be positive everywhere")
    if config.k >= 1 and config.p < -n:
        raise ValueError(f"k >= 1 flows need p >= -n, got p = {config.p}")
    fpow = f ** (-1.0 / (n - config.k))
    return FlowState(grid, phi0.phi.copy(), n, config.k, config.p, f, fpow)


def phi_global(state: FlowState) -> float:
    """Volume-preserving global term Phi at the current phi."""
    _, diag = _evaluate(state, state.phi)
    return diag["Phi"]


def step(state: FlowState, dt: float, _k1: np.ndarray | None = None) -> FlowState:
    """One explicit RK4 step with Phi recomputed per stage.

    Raises FlowStepError if any stage loses uniform h-convexity; the
    caller is expected to halve dt and retry.  The new state itself is
    not evaluated here: `run` checks it after projecting it.
    """
    phi = state.phi
    k1 = _k1 if _k1 is not None else _evaluate(state, phi)[0]
    k2 = _evaluate(state, phi + 0.5 * dt * k1)[0]
    k3 = _evaluate(state, phi + 0.5 * dt * k2)[0]
    k4 = _evaluate(state, phi + dt * k3)[0]
    phi_new = phi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return replace(state, phi=phi_new)


def _dt_policy(state: FlowState, config: FlowConfig, diag) -> float:
    grid = state.grid
    n, k = state.n, state.k
    nk = n - k
    phi = state.phi
    pA = diag["pA"]
    lam_scale = float(np.min(phi * pA ** (1.0 / nk)))
    if grid.n == 1:
        h = 2.0 * math.pi / grid.resolution[0]
    else:
        h = math.pi / grid.resolution[0]
    base = config.safety * lam_scale**2 * h * h
    # Parabolic stability bound for the diffusive part of the speed.
    if nk == 1:
        D = np.max(pA ** (-2.0)) / n
    else:
        D = float(np.max(pA ** (-0.5) / (2.0 * diag["eigs"][:, 0])))
    B = grid.band_limit
    spectral_radius = B * (B + n - 1)
    cap = STABILITY_CAP_FACTOR / (D * spectral_radius)
    return min(base, cap, config.max_dt)


def _j_p(state: FlowState) -> float:
    if state.p == 0.0:
        return integrate(state.grid, state.f * np.log(state.phi))
    return integrate(state.grid, state.f * state.phi**state.p) / state.p


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
    enforce_even = config.enforce_even
    if enforce_even is None:
        enforce_even = k >= 1
    if enforce_even:
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
    speed, diag = _evaluate(state, state.phi)
    while True:
        gamma_field = state.phi ** (-(state.p + k)) * diag["pA"] / state.f
        gamma = integrate(grid, gamma_field) / omega
        gamma_var = float((np.max(gamma_field) - np.min(gamma_field)) / gamma)
        speed_sup = float(np.max(np.abs(speed)))
        grad_ratio = float(
            np.max(np.sqrt(np.sum(diag["grad"] ** 2, axis=1)) / state.phi)
        )
        record = steps % config.trace_every == 0 or first
        stop = speed_sup < config.eps_stop and gamma_var <= 10.0 * config.eps_stop
        terminal_row = stop or steps >= config.max_steps
        if terminal_row or record:
            wk = _homotopy_value(
                SupportField(grid, state.phi),
                k,
                HOMOTOPY_ORDER,
                diag["grad"],
                diag["hess"],
            )
            trace.append(
                t=t,
                dt=0.0 if terminal_row else math.nan,
                Wk=wk,
                Jp=_j_p(state),
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
        dt = _dt_policy(state, config, diag)
        if steps == 0 and config.dt_initial is not None:
            dt = min(dt, config.dt_initial)
        rejected = 0
        while True:
            try:
                new_state = step(state, dt, _k1=speed)
                new_state.phi = band_project(grid, new_state.phi)
                if enforce_even:
                    new_state.phi = even_project(grid, new_state.phi)
                speed, diag = _evaluate(new_state, new_state.phi)
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
        terminal=SupportField(grid, state.phi),
        gamma=gamma,
        gamma_variation=gamma_var,
        trace=trace,
        steps=steps,
        t_final=t,
        warnings=warnings,
        rejections=rejections,
    )
