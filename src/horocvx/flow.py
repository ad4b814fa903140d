"""Volume-preserving flow solving the (p, k) prescription problem.

d/dt phi = Phi G - h,  G = phi^{1-(n+p)/(n-k)} f^{-1/(n-k)},  h = p_{n-k}(A[phi])^{-1/(n-k)},

with the global term Phi keeping W_k fixed; its steady states solve
phi^{-p-k} p_{n-k}(A[phi]) = gamma f.  The continuous flow decreases
J_p, but a discrete step does not check that: it checks only that the
new state stays in the uniformly h-convex cone and meets the W_k
constraint, and at large p (p = 20 on s1:96) J_p can rise from one step
to the next.  A step is linearly implicit, phi_new = phi + dt R[Phi G - h] with G and h
frozen at phi and R = (1 - dt c Laplacian)^{-1} for c the largest
diffusivity of h at phi; R is diagonal in the Fourier and Legendre
bases, 1 / (1 + dt c lambda) with lambda = k^2 on S^1 and l (l + 1) on
S^2.  Phi is the Lagrange multiplier of the constraint W_k(phi_new) =
W_k(phi_0), solved by Newton's method to roundoff with slope
dt int w_new R G, w = phi^{-(k+1)} p_{n-k}(A) the first variation of
W_k; phi_new and its derivatives are affine in Phi, so the iterates need
no further spectral pass.  Fixed points are the flow's steady states.

The pseudo-time step follows switched evolution relaxation (Mulder and
van Leer 1985; Kelley and Keyes 1998): after each accepted step
dt <- min(max_dt, dt S_prev / S_new) with S the sup of |speed|.  Only
the steady state is the answer and R keeps large steps stable, so the
first step is tried at the cap, max_dt, unless dt_initial sets a smaller
one.  SER then matters after a rejection or a rise in speed: a step that
leaves the uniformly h-convex cone, or misses its constraint, is retried
at half the step size, that halved dt is the base of the next update,
and dt grows back to the cap as the speed falls.  The step count does
not grow with resolution, because R damps every mode the explicit step
would limit.  At large steps the trajectory, and the time t in the
trace, are a pseudo-time path: only its steady state is the solution,
while W_k is conserved at every step.  An accepted step costs one
spectral pass, the batched resolvent of G and h: one rfft and one
irfft, two FFT calls on either grid.  When evenness is enforced, G and
h are projected onto even fields first, a node-wise antipodal average.
R is diagonal in the spectral basis and commutes with the antipodal
map, so phi_new is band-limited and even whenever phi is, and Newton's
last trial, whose derivatives are affine in Phi, is the next state as
it stands: projecting it again would change it only by roundoff.  The
state it returns already holds the w that the next step's Newton solve
reads, and the W_k that the trace reads.

A point of the flow is one frozen `FlowState`: the band-limited field,
the run's data and the speed's parts there.  `make_state(config, phi0)`
checks every input of a run that needs the grid and returns the
evaluated start, `step(state, dt)` returns the next state, and `run`
adds the step-size rule, the stop test and the trace.

By default evenness is enforced for k >= 1, and for k = 0 when f and
the initial phi are both even: large steps let roundoff in the odd
modes grow at strongly negative p.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .hconvex import SupportField, measure_density, p_tensor, squared_norm
from .problems import J_p, check_assumption_h, check_nkp
from .quermass import wk_value
from .sphere_grid import (
    ArgumentError,
    Grid,
    as_integer,
    as_real,
    even_error,
    even_project,
    integrate,
    positive_field,
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
    "rejected",
)

MIN_DT = 1e-15
MAX_REJECTIONS = 40
DEFAULT_MAX_DT = 5.0
# The largest max_dt that one step's MAX_REJECTIONS halvings bring down to
# the default cap.  Far above that cap a step misses the W_k constraint by
# the roundoff of its mode-0 term dt (Phi G - h), which grows with dt
# (on s1:64 at dt = 1e4 by 1e-12), so a run from max_dt >= 1e16 ended
# `stalled` at its first step.
MAX_DT = DEFAULT_MAX_DT * 2.0**MAX_REJECTIONS
# Newton on the W_k constraint stops at roundoff: a looser residual
# shows up as a rise of J_p along the flow.
NEWTON_RTOL = 1e-13
NEWTON_MAX_ITER = 20


class FlowStepError(RuntimeError):
    """A step left the uniformly h-convex cone or missed its constraint."""


@dataclass
class FlowConfig:
    """The settings of one flow run, checked where they enter: building a
    config with a value of the wrong type or out of range raises
    ArgumentError ("flow config <key> must be ..."), and the values are
    stored as int or float.  What needs the grid waits for `make_state`.
    """

    n: int
    k: int
    p: float
    f: np.ndarray | None = None  # positive data at grid nodes, default 1
    dt_initial: float | None = None  # the first step, None: max_dt; later ones follow SER
    max_dt: float = DEFAULT_MAX_DT  # cap on the SER step, at most MAX_DT
    eps_stop: float = 1e-6
    max_steps: int = 200_000
    enforce_even: bool | None = None  # default: k >= 1, or f and phi0 even
    assumption_mode: str = "strict"  # strict | warn: assumption H on f, for k >= 1
    trace_every: int = 1

    def __post_init__(self) -> None:
        for key in ("n", "k", "max_steps", "trace_every"):
            setattr(self, key, as_integer(getattr(self, key), f"flow config {key}"))
        for key in ("p", "max_dt", "eps_stop", "dt_initial"):
            if key != "dt_initial" or self.dt_initial is not None:
                setattr(self, key, as_real(getattr(self, key), f"flow config {key}"))
        check_nkp(self.n, self.k, self.p, "flow config ")
        for key, ok, rule in (
            ("enforce_even", isinstance(self.enforce_even, (bool, type(None))), "a bool or None"),
            ("assumption_mode", self.assumption_mode in ("strict", "warn"), "strict or warn"),
            ("max_dt", 0.0 < self.max_dt <= MAX_DT,
             f"positive and at most {MAX_DT:.6g}, which {MAX_REJECTIONS} halvings of a "
             f"rejected step bring down to the default {DEFAULT_MAX_DT:g}"),
            ("dt_initial", self.dt_initial is None or self.dt_initial > 0.0, "positive"),
            # Below 0 the stop test speed_sup < eps_stop can never hold; 0
            # stays valid, to run a flow at rest for max_steps.
            ("eps_stop", self.eps_stop >= 0.0, "nonnegative"),
            ("trace_every", self.trace_every >= 1, "at least 1"),
            ("max_steps", self.max_steps >= 0, "nonnegative"),
        ):
            if not ok:
                raise ArgumentError(
                    f"flow config {key} must be {rule}, got {getattr(self, key)!r}"
                )


@dataclass(frozen=True, eq=False)
class FlowState:
    """One point of a flow run: the band-limited field K; the run's data,
    which `step` passes on unchanged (fpow = f^{-1/(n-k)}, even: keep
    each new state even, target: the W_k every step holds);
    and what `_evaluate` computes at K when the state is built: pA =
    p_{n-k}(A), w = phi^{-(k+1)} pA, the first variation of W_k that the
    next step's Newton solve starts from, and the speed Phi G - h with
    its parts.  So `replace(state, K=L)` is the state at L; it raises
    FlowStepError if L is off the uniformly h-convex cone.
    """

    K: SupportField
    k: int
    p: float
    f: np.ndarray
    fpow: np.ndarray
    even: bool
    target: float
    warnings: tuple[str, ...]
    pA: np.ndarray = field(init=False)
    w: np.ndarray = field(init=False)
    Phi: float = field(init=False)
    G: np.ndarray = field(init=False)
    h: np.ndarray = field(init=False)
    c: float = field(init=False)
    speed: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        for name, value in zip(("pA", "w", "Phi", "G", "h", "c", "speed"), _evaluate(self)):
            object.__setattr__(self, name, value)


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


def _in_cone(phi: np.ndarray) -> None:
    """FlowStepError unless phi is finite and positive; NaN fails too."""
    if not (0.0 < phi.min() and phi.max() < math.inf):
        raise FlowStepError("phi left the positive cone")


def _evaluate(state: FlowState) -> tuple:
    """pA, w, Phi, G, h, c and the speed Phi G - h at state.K; raises
    FlowStepError unless A[K] > 0."""
    K, k = state.K, state.k
    grid, phi, eigs = K.grid, K.phi, K.eigenvalues
    eig_min = float(eigs[:, 0].min())
    if not eig_min > 0.0:
        raise FlowStepError(f"minimum eigenvalue of A is {eig_min}")
    n, nk = grid.n, grid.n - k
    pA = p_tensor(K.A, nk)
    # phi^{-(k+1)}, the factor of w = measure_density(K, 1.0, k) and of
    # Phi's numerator, whose pA^{1 - 1/nk} is 1 at nk = 1.
    phi_pow = phi ** (-(k + 1.0))
    w = phi_pow * pA
    num = integrate(grid, phi_pow if nk == 1 else phi_pow * pA ** (1.0 - 1.0 / nk))
    den = integrate(grid, state.fpow * phi ** (-(k + (n + state.p) / nk)) * pA)
    Phi = num / den
    G = phi ** (1.0 - (n + state.p) / nk) * state.fpow
    h = pA ** (-1.0 / nk)
    # Largest diffusivity of h in D^2 phi: the implicit part of a step.
    if nk == 1:
        c = float((pA ** (-2.0)).max()) / n
    else:
        c = float((pA ** (-0.5) / (2.0 * eigs[:, 0])).max())
    return pA, w, Phi, G, h, c, Phi * G - h


def _is_even(grid: Grid, values: np.ndarray) -> bool:
    """Odd part at most 1e-8 relative to max(1, sup)."""
    return even_error(grid, values) <= 1e-8 * max(1.0, float(np.max(values)))


def make_state(config: FlowConfig, phi0: SupportField) -> FlowState:
    """The evaluated start of a run from phi0, with the target W_k fixed.

    Checks in order what the config could not check without the grid: n
    (an ArgumentError unless phi0 lives on S^n), f, for k >= 1
    assumption H on f ("strict" raises, "warn" puts the warning on the
    state), and even f when evenness is enforced.  Each later refusal is
    a ValueError, as is a phi0 whose projection is not uniformly h-convex.

    The start is phi0 projected onto even fields (when even) and onto the
    grid's band: resolvent with mu = 0 keeps every mode below the band
    and drops the rest (the Nyquist bin on S^1), and gives the gradient
    and Hessian from the same analysis.  It is the run's only projection,
    and is free for a constant start, such as the ball at the origin.
    """
    grid = phi0.grid
    n, k = grid.n, config.k
    if config.n != n:
        raise ArgumentError(f"config has n = {config.n}, grid lives on S^{n}")
    # A copy: the state's f must not change with the caller's array.
    f = positive_field(grid, np.ones(grid.size) if config.f is None else config.f, "f").copy()
    warnings = []
    if k >= 1:
        rep = check_assumption_h(f, grid, k, config.p)
        if not rep.passes:
            msg = (
                f"data fails the structural condition (regime {rep.regime}, "
                f"worst eigenvalue {rep.worst_eigenvalue} at node {rep.worst_node})"
            )
            if config.assumption_mode == "strict":
                raise ValueError(msg)
            warnings.append(msg)
    even = config.enforce_even
    if even is None:
        even = k >= 1 or (_is_even(grid, f) and _is_even(grid, phi0.phi))
    if even and not _is_even(grid, f):
        raise ValueError(f"evenness enforcement needs even data, deviation {even_error(grid, f)}")
    try:
        v, g, H = resolvent(grid, even_project(grid, phi0.phi) if even else phi0.phi, 0.0)
        _in_cone(v)
        K = SupportField.with_derivatives(grid, v, g, H)
        fpow = f ** (-1.0 / (n - k))
        return FlowState(K, k, config.p, f, fpow, even, K.memo(wk_value, k), tuple(warnings))
    except FlowStepError as exc:
        raise ValueError(f"initial field is not uniformly h-convex: {exc}") from None


def step(state: FlowState, dt: float) -> FlowState:
    """The next state: one linearly implicit step of size dt that holds
    W_k at state.target.

    The Newton iterates are affine in Phi on the derivatives cached in
    state.K, and the last one is the new state's field, with the W_k it
    was accepted on cached.  Raises FlowStepError if the new state leaves
    the uniformly h-convex cone or the constraint does not converge; the
    caller is expected to halve dt and retry.
    """
    K, k, target = state.K, state.k, state.target
    grid, phi, w = K.grid, K.phi, state.w
    mu = dt * state.c
    if not mu < math.inf:
        raise FlowStepError(f"resolvent step dt c = {mu} is not finite")
    Gh = np.stack([state.G, state.h])
    if state.even:
        Gh = even_project(grid, Gh)
    (rG, rh), (gG, gh), (HG, Hh) = resolvent(grid, Gh, mu)
    Phi = integrate(grid, w * rh) / integrate(grid, w * rG)
    for _ in range(NEWTON_MAX_ITER):
        phi_new = phi + dt * (Phi * rG - rh)
        _in_cone(phi_new)
        trial = SupportField.with_derivatives(
            grid, phi_new, K.gradient + dt * (Phi * gG - gh), K.hessian + dt * (Phi * HG - Hh)
        )
        residual = trial.memo(wk_value, k) - target
        if abs(residual) <= NEWTON_RTOL * abs(target):
            break
        slope = dt * integrate(grid, measure_density(trial, 1.0, k) * rG)
        if not slope > 0.0:
            raise FlowStepError(f"W_k constraint has slope {slope}")
        Phi -= residual / slope
    else:
        raise FlowStepError(f"W_k constraint missed by {residual:.3e}")
    # Built directly: replace(state, K=...) gives the same state, slower.
    return FlowState(trial, k, state.p, state.f, state.fpow, state.even, target, state.warnings)


def run(config: FlowConfig, phi0: SupportField) -> FlowResult:
    """Run the flow from `make_state(config, phi0)` until the speed and
    gamma variation stop criteria.

    Success requires sup |d phi/dt| < eps_stop and relative variation of
    f^{-1} phi^{-p-k} p_{n-k}(A) at most 10 eps_stop.
    """
    state = make_state(config, phi0)
    grid, k, f = state.K.grid, state.k, state.f
    omega = sphere_area(grid.n)
    trace = FlowTrace()
    t, steps, rejections = 0.0, 0, 0
    dt = min(config.max_dt, config.dt_initial or config.max_dt)
    speed_prev = math.nan
    while True:
        K = state.K
        gamma_field = measure_density(K, state.p, k) / f
        gamma = integrate(grid, gamma_field) / omega
        gamma_var = float((gamma_field.max() - gamma_field.min()) / gamma)
        speed_sup = float(np.abs(state.speed).max())
        stop = speed_sup < config.eps_stop and gamma_var <= 10.0 * config.eps_stop
        terminal_row = stop or steps >= config.max_steps
        row = None
        if terminal_row or steps % config.trace_every == 0:
            row = dict(
                t=t,
                Wk=K.memo(wk_value, k),
                Jp=J_p(K, f, state.p),
                minEigA=float(K.eigenvalues[:, 0].min()),
                maxGradRatio=float((np.sqrt(squared_norm(K.gradient)) / K.phi).max()),
                evenErr=even_error(grid, K.phi),
                gammaVar=gamma_var,
                speedSup=speed_sup,
            )
        if terminal_row:
            trace.append(dt=0.0, rejected=0, **row)
            status = "converged" if stop else "max-steps"
            break
        if steps > 0 and speed_sup > 0.0:
            # Switched evolution relaxation: dt grows as the speed falls.
            # A speed of exactly 0 (a ball with eps_stop = 0) keeps dt.
            dt = min(config.max_dt, dt * speed_prev / speed_sup)
        speed_prev = speed_sup
        rejected = 0
        while True:
            try:
                new_state = step(state, dt)
                break
            except FlowStepError:
                dt *= 0.5
                rejected += 1
                rejections += 1
                if dt < MIN_DT or rejected > MAX_REJECTIONS:
                    new_state = None
                    break
        if row is not None:
            trace.append(dt=math.nan if new_state is None else dt, rejected=rejected, **row)
        if new_state is None:
            status = "stalled"
            break
        state = new_state
        t += dt
        steps += 1
    return FlowResult(
        status=status,
        terminal=state.K,
        gamma=gamma,
        gamma_variation=gamma_var,
        trace=trace,
        steps=steps,
        t_final=t,
        warnings=list(state.warnings),
        rejections=rejections,
    )
