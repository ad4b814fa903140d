"""Volume-preserving flow solving the (p, k) prescription problem.

d/dt phi = Phi G - h,  G = phi^{1-(n+p)/(n-k)} f^{-1/(n-k)},  h = p_{n-k}(A[phi])^{-1/(n-k)},

with the global term Phi keeping W_k fixed; its steady states solve
phi^{-p-k} p_{n-k}(A[phi]) = gamma f.  A step is linearly implicit: with
G, h and h's local diffusivity d frozen at phi,

    phi_new = phi + dt R[sigma (Phi_new G - h)],  R = (1 + dt s - dt c Laplacian)^{-1},
    sigma = (1 + tau c lambda_1) / (1 + tau d lambda_1)  node-wise.

R is diagonal in the Fourier and Legendre bases, 1 / (1 + dt s + dt c
lambda) with lambda = k^2 on S^1 and l (l + 1) on S^2, which is the
unshifted step 1 / (1 + tau c lambda) taken at tau = dt / (1 + dt s).
c is the midpoint (c_min + c_max) / 2 of d at phi, the best
one-parameter choice for a variable coefficient (Concus and Golub 1973),
and lambda_1 the eigenvalue of the lowest mode the run moves (l = 2
when it keeps evenness, else l = 1).  sigma R is the resolvent (1 + tau
d lambda)^{-1} of the speed's principal part d Laplacian with d frozen
node-wise, exact at lambda_1 for every dt:
- as dt grows, sigma tends to c / d.  Since (d Laplacian)^{-1} =
  Laplacian^{-1} diag(1 / d), dividing the speed by d makes the
  constant-c resolvent exact in the principal part, whatever the contrast
  of d, so a mode where d differs from c still moves the whole way per
  step: the flow on s1:96 at p = 2 converges in 4 steps, and at p = -8
  in 82;
- as dt shrinks, sigma tends to 1, so the step's continuous limit is the
  flow above.  The scale c / d at every dt would have the same steady
  states, but its limit (c / d) (Phi G - h) is backward parabolic where
  h > 2 Phi G (on S^1 its principal part is c (2 A Phi G - 1) Laplacian,
  from the variation of d): far from the steady state, halving a
  rejected step then did not help, and manufactured runs on s1:128 at
  p = 0 and 1 stalled.
The shift s >= 0 is the midpoint, over the nodes, of the zeroth-order
decay rate of the speed's linearization scaled by c / d, (c / d)
((n+p)/(n-k) - 1) Phi G / phi - c n (1 + phi^-2) / 2 (its principal part
is c lambda at every node, which R holds); it damps the zeroth-order
term, which grows with p and made the unshifted step overshoot into a
period-2 cycle at p = 20.

R is linear, so the step resolves sigma speed, with speed = Phi G - h
at the state's own Phi, and sigma G, and takes phi_new = phi + tau
(R[sigma speed] + dPhi R[sigma G]).  Resolving the small speed itself,
not G and h, two O(1) fields whose difference it is, keeps the roundoff
floor of the speed low: about 1e-11 at p = -8 on s1:96, against about
1e-9 when G and h are resolved apart.  The correction dPhi is the
Lagrange multiplier of the constraint W_k(phi_new) = W_k(phi_0), solved
by Newton's method to roundoff, with slope tau int w_new R[sigma G], w =
phi^{-(k+1)} p_{n-k}(A) the first variation of W_k.  Newton starts from
the root of W_k's quadratic model in dPhi, built from w and its
derivative dw[v] (`hconvex.d_measure_density`) along the two resolved
fields; the linear start -int w R[sigma speed] / int w R[sigma G] is
the fallback when the model has no real root.  The quadratic start
saves about one W_k trial in three on the acceptance flows.  phi_new
and its derivatives are affine in dPhi, so neither the start nor the
iterates need a further spectral pass.  Fixed points are the flow's
steady states.  The continuous flow
decreases J_p, and each state holds its J_p, which the trace's Jp column
reads.  A step does not check it: it checks only that the new state
stays in the uniformly h-convex cone and meets the W_k constraint.  A
test checks instead that no accepted step of a table of runs over p
raises J_p by more than 1e-12 of its size.

The pseudo-time step follows switched evolution relaxation (Mulder and
van Leer 1985; Kelley and Keyes 1998): after each accepted step
dt <- min(MAX_DT, dt S_prev / S_new) with S the sup of |speed|, and the
cap MAX_DT = 5 is a constant, not a setting.  Only the steady state is
the answer and R keeps large steps stable, so the first step is tried at
the cap.  SER then matters after a rejection or a rise in speed: a step
that leaves the uniformly h-convex cone, or misses its constraint, is
retried at half the step size, that halved dt is the base of the next
update, and dt grows back to the cap as the speed falls.  The step
count does not grow with resolution, because R damps every mode the
explicit step would limit.  At large
steps the trajectory, and the time t in the trace, are a pseudo-time
path: only its steady state is the solution, while W_k is conserved at
every step.  The trace's dt column and its time t record the nominal
dt that SER sets, not tau.  An accepted step costs one spectral pass,
the stacked resolvent of phi at mu = 0 and of sigma speed and sigma G
at mu = tau c: one rfft and one irfft, two FFT calls on either grid.
So each new state's gradient and Hessian are a fresh analysis of phi
plus one affine update, and roundoff does not pile up in them over a
run.  When the run keeps evenness, the two scaled fields are projected
onto even fields first, a node-wise antipodal average.  R is diagonal
in the spectral basis and commutes with the antipodal map, so phi_new
is band-limited and even whenever phi is, and Newton's last trial,
whose derivatives are affine in dPhi, is the next state as it stands:
projecting it again would change it only by roundoff.  The state it returns already holds the w
that the next step's Newton solve reads, and the W_k the trace reads.

A point of the flow is one frozen `FlowState`: the band-limited field,
the run's data and what is evaluated there.  `make_state(config, phi0)`
checks every input of a run that needs the grid and returns the
evaluated start, `step(state, dt)` returns the next state, and `run`
adds the step-size rule, the stop test and the trace.

A run keeps evenness, at every k, exactly when f and the initial phi are
both even (the paper's existence theorem is for even data): large steps
let roundoff in the odd modes grow at strongly negative p.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .hconvex import SupportField, d_measure_density, measure_density, p_tensor, squared_norm
from .problems import check_assumption_h, check_nkp, jp_value
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

# The first step, and the cap on SER's.
MAX_DT = 5.0
# A rejected step is halved until it holds; the run ends `stalled` after
# MAX_REJECTIONS halvings of one step, which take MAX_DT down to 4.5e-12,
# a step that no h-convex state needs, or once dt falls below MIN_DT.
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
    """The settings of one flow run, checked where they enter: building a
    config with a value of the wrong type or out of range raises
    ArgumentError ("flow config <key> must be ..."), and the values are
    stored as int or float.  What needs the grid waits for `make_state`.
    The step size is not a setting: the first step and SER's cap are the
    constant MAX_DT.  Nor is the trace: `run` writes one row per accepted
    step and one for the state it stops at.
    """

    n: int
    k: int
    p: float
    f: np.ndarray | None = None  # positive data at grid nodes, default 1
    eps_stop: float = 1e-6
    max_steps: int = 200_000

    def __post_init__(self) -> None:
        for key in ("n", "k", "max_steps"):
            setattr(self, key, as_integer(getattr(self, key), f"flow config {key}"))
        for key in ("p", "eps_stop"):
            setattr(self, key, as_real(getattr(self, key), f"flow config {key}"))
        check_nkp(self.n, self.k, self.p, "flow config ")
        for key, ok, rule in (
            # Below 0 the stop test speed_sup < eps_stop can never hold; 0
            # stays valid, to run a flow at rest for max_steps.
            ("eps_stop", self.eps_stop >= 0.0, "nonnegative"),
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
    and what `_evaluate` computes at K when the state is built: w =
    phi^{-(k+1)} p_{n-k}(A), the first variation of W_k that the next
    step's Newton solve starts from, the speed Phi G - h and its G, what
    the next step's resolvent reads (h's local diffusivity d, its
    midpoint c, the lowest moving mode's eigenvalue lam and the shift s),
    what the trace reads (min_eig, the least eigenvalue of A that the
    cone check takes, and J_p), and what the stop test reads.  So
    `replace(state, K=L)` is the state at L; it raises FlowStepError if L
    is off the uniformly h-convex cone.  trials counts the W_k Newton
    trials of the step that built the state, 0 from `make_state`; it is
    a record of that step, not evaluated at K, so `replace` passes it on
    unless given.
    """

    K: SupportField
    k: int
    p: float
    f: np.ndarray
    fpow: np.ndarray
    even: bool
    target: float
    warnings: tuple[str, ...]
    trials: int = 0
    w: np.ndarray = field(init=False)
    Phi: float = field(init=False)
    G: np.ndarray = field(init=False)
    c: float = field(init=False)
    s: float = field(init=False)
    speed: np.ndarray = field(init=False)
    d: np.ndarray = field(init=False)
    lam: float = field(init=False)
    min_eig: float = field(init=False)
    Jp: float = field(init=False)
    gamma: float = field(init=False)
    gamma_variation: float = field(init=False)
    speed_sup: float = field(init=False)

    def __post_init__(self) -> None:
        self.__dict__.update(_evaluate(self))  # frozen: set once, here


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
    newton_trials: int  # W_k Newton trials of the accepted steps


def _in_cone(phi: np.ndarray) -> None:
    """FlowStepError unless phi is finite and positive; NaN fails too."""
    if not (0.0 < phi.min() and phi.max() < math.inf):
        raise FlowStepError("phi left the positive cone")


def _multiplier(grid: Grid, w: np.ndarray, G: np.ndarray, h: np.ndarray) -> float:
    """Phi = int w h / int w G: Phi G - h holds W_k, of first variation w."""
    return integrate(grid, w * h) / integrate(grid, w * G)


def _evaluate(state: FlowState) -> dict:
    """FlowState's evaluated fields at state.K; raises FlowStepError unless
    A[K] > 0."""
    K, k = state.K, state.k
    grid, phi, eigs = K.grid, K.phi, K.eigenvalues
    min_eig = float(eigs[:, 0].min())
    if not min_eig > 0.0:
        raise FlowStepError(f"minimum eigenvalue of A is {min_eig}")
    n, nk = grid.n, grid.n - k
    pA = p_tensor(K.A, nk)
    w = phi ** (-(k + 1.0)) * pA  # measure_density(K, 1.0, k)
    G = phi ** (1.0 - (n + state.p) / nk) * state.fpow
    h = pA ** (-1.0 / nk)
    Phi = _multiplier(grid, w, G, h)
    speed = Phi * G - h
    # The local diffusivity d of h in D^2 phi; the step's implicit part
    # takes c at the midpoint of its range, the best one-parameter choice.
    if nk == 1:
        d = pA ** (-2.0) / n
    else:
        d = pA ** (-0.5) / (2.0 * eigs[:, 0])
    c = 0.5 * float(d.max() + d.min())
    # The eigenvalue of the lowest mode the run moves: l = 2 when it keeps
    # evenness, else l = 1.
    lam = 2.0 * (n + 1) if state.even else float(n)
    # Node-wise zeroth-order decay rate of the linearized speed scaled by
    # c / d, the scale the step tends to at large dt, without dA[v]'s
    # |Dphi|^2 terms, which moved no step count; its principal part is
    # c lambda at every node, which R already holds.
    rate = (c / d) * ((n + state.p) / nk - 1.0) * Phi * G / phi - 0.5 * c * n * (
        1.0 + phi ** (-2.0)
    )
    shift = max(0.0, 0.5 * float(rate.max() + rate.min()))
    gamma_field = phi ** (-(state.p + k)) * pA / state.f  # measure_density(K, p, k) / f
    gamma = integrate(grid, gamma_field) / sphere_area(n)
    gamma_variation = float((gamma_field.max() - gamma_field.min()) / gamma)
    return dict(w=w, Phi=Phi, G=G, c=c, s=shift, speed=speed, d=d, lam=lam, min_eig=min_eig,
                Jp=jp_value(K, state.f, state.p), gamma=gamma,
                gamma_variation=gamma_variation, speed_sup=float(np.abs(speed).max()))


def _is_even(grid: Grid, values: np.ndarray) -> bool:
    """Odd part at most 1e-8 relative to max(1, sup)."""
    return even_error(grid, values) <= 1e-8 * max(1.0, float(np.max(values)))


def make_state(config: FlowConfig, phi0: SupportField) -> FlowState:
    """The evaluated start of a run from phi0, with the target W_k fixed.

    Checks in order what the config could not check without the grid: n
    (an ArgumentError unless phi0 lives on S^n), then f (a ValueError, as
    is a phi0 whose projection is not uniformly h-convex).  For k >= 1 a
    failed assumption H on f is a warning on the state, not a refusal:
    the paper's a priori estimates use H, but H does not decide whether
    the flow finds a solution.

    The start is phi0 projected onto even fields when f and phi0 are both even,
    and onto the grid's band: resolvent with mu = 0 keeps every mode below the
    band and drops the rest (the Nyquist bin on S^1), and gives the gradient and
    Hessian from the same analysis.  It is the run's only projection, and is
    free for a constant start, such as the ball at the origin.
    """
    grid = phi0.grid
    n, k = grid.n, config.k
    if config.n != n:
        raise ArgumentError(f"config has n = {config.n}, grid lives on S^{n}")
    # A copy: the state's f must not change with the caller's array.
    f = positive_field(grid, np.ones(grid.size) if config.f is None else config.f, "f").copy()
    rep = check_assumption_h(f, grid, k, config.p) if k >= 1 else None
    warnings = () if rep is None or rep.passes else (
        f"data fails the structural condition (regime {rep.regime}, "
        f"worst eigenvalue {rep.worst_eigenvalue} at node {rep.worst_node})",
    )
    even = _is_even(grid, f) and _is_even(grid, phi0.phi)
    try:
        v, g, H = resolvent(grid, even_project(grid, phi0.phi) if even else phi0.phi, 0.0)
        _in_cone(v)
        K = SupportField.with_derivatives(grid, v, g, H)
        fpow = f ** (-1.0 / (n - k))
        return FlowState(K, k, config.p, f, fpow, even, K.memo(wk_value, k), warnings)
    except FlowStepError as exc:
        raise ValueError(f"initial field is not uniformly h-convex: {exc}") from None


def step(state: FlowState, dt: float) -> FlowState:
    """The next state: one linearly implicit step of size dt that holds
    W_k at state.target.

    Newton on the correction dPhi starts from the root of W_k's quadratic
    model (`_newton_start`).  Its iterates are affine in dPhi on the
    derivatives of the step's fresh analysis of phi, and the last one is
    the new state's field, with the W_k it was accepted on cached and
    the number of W_k trials in its `trials`.  Raises FlowStepError
    if the new state leaves the uniformly h-convex cone or the constraint
    does not converge; the caller is expected to halve dt and retry.
    """
    K, k, target = state.K, state.k, state.target
    grid, phi = K.grid, K.phi
    # Dividing each mode by 1 + dt s + dt c lambda is the unshifted step
    # taken at tau.
    tau = dt / (1.0 + dt * state.s)
    mu = tau * state.c
    if not mu < math.inf:
        raise FlowStepError(f"resolvent step tau c = {mu} is not finite")
    # sigma R is the node-wise frozen resolvent (1 + tau d lambda)^{-1} of
    # the speed's principal part, exact at the lowest mode the run moves.
    sigma = (1.0 + mu * state.lam) / (1.0 + tau * state.d * state.lam)
    stack = np.stack([phi, sigma * state.speed, sigma * state.G])
    if state.even:
        stack[1:] = even_project(grid, stack[1:])
    # phi at mu = 0: the new state's derivatives are a fresh analysis of
    # phi plus one affine update, not updates piled up over the run.
    resolved = resolvent(grid, stack, np.array([0.0, mu, mu]))
    (_, rS, rG), (g, gS, gG), (H, HS, HG) = resolved
    # Newton on the correction dPhi to the state's Phi, from the root of
    # W_k's quadratic model along phi + tau (rS + dPhi rG).
    dPhi = _newton_start(state, tau, *(a[1:] for a in resolved))
    for trials in range(1, NEWTON_MAX_ITER + 1):
        phi_new = phi + tau * (rS + dPhi * rG)
        _in_cone(phi_new)
        trial = SupportField.with_derivatives(
            grid, phi_new, g + tau * (gS + dPhi * gG), H + tau * (HS + dPhi * HG)
        )
        residual = trial.memo(wk_value, k) - target
        if abs(residual) <= NEWTON_RTOL * abs(target):
            break
        slope = tau * integrate(grid, measure_density(trial, 1.0, k) * rG)
        if not slope > 0.0:
            raise FlowStepError(f"W_k constraint has slope {slope}")
        dPhi -= residual / slope
    else:
        raise FlowStepError(f"W_k constraint missed by {residual:.3e}")
    # Built directly: replace(state, K=..., trials=...) gives the same
    # state, slower.
    return FlowState(
        trial, k, state.p, state.f, state.fpow, state.even, target, state.warnings, trials
    )


def _newton_start(state: FlowState, tau: float, r, dr, d2r) -> float:
    """The correction dPhi that Newton on W_k starts from.

    r = (rS, rG) are the resolved fields, dr and d2r their derivatives,
    and phi_new = phi + tau (rS + x rG).  To second order in tau,
    (W_k(phi_new) - W_k(phi)) / tau is c + b x + a x^2 with
    c = int rS (w + tau dw[rS] / 2), b = int rG (w + tau dw[rS]) and
    a = tau int rG dw[rG] / 2, where dw[v] is the derivative of the first
    variation w along v (`d_measure_density` at p = 1), symmetric in the
    pairing int u dw[v].  The start is the model's root on the branch of
    the linear start x0 = -int w rS / int w rG: as tau -> 0 it tends to
    x0 while the other root runs off to infinity.  When the model has no
    finite real root the start is x0 itself.  It reads the state's w and
    the resolvent's outputs only: no spectral pass.
    """
    K, w = state.K, state.w
    grid, (rS, rG) = K.grid, r
    dwS, dwG = d_measure_density(K, 1.0, state.k, r, dr, d2r)
    c = integrate(grid, rS * (w + 0.5 * tau * dwS))
    b = integrate(grid, rG * (w + tau * dwS))
    a = 0.5 * tau * integrate(grid, rG * dwG)
    disc = b * b - 4.0 * a * c
    if disc >= 0.0:  # not NaN either
        # Of the roots c / s and s / a, without cancellation, the one
        # that tends to -c / b as a -> 0.
        s = -0.5 * (b + math.copysign(math.sqrt(disc), b))
        if s != 0.0 and math.isfinite(root := c / s):
            return root
    return -_multiplier(grid, w, rG, rS)


def run(config: FlowConfig, phi0: SupportField) -> FlowResult:
    """Run the flow from `make_state(config, phi0)` until the speed and
    gamma variation stop criteria.

    Success requires sup |d phi/dt| < eps_stop and relative variation of
    f^{-1} phi^{-p-k} p_{n-k}(A) at most 10 eps_stop.  Each pass writes
    one trace row, of its state and the step taken from it: steps + 1
    rows, the last with dt 0 and rejected 0, or dt NaN if the run stalled.
    """
    state = make_state(config, phi0)
    trace = FlowTrace()
    t, steps, rejections, newton_trials = 0.0, 0, 0, 0
    dt = MAX_DT
    speed_prev = math.nan
    while True:
        K, speed_sup = state.K, state.speed_sup
        row = dict(
            t=t,
            Wk=K.memo(wk_value, state.k),
            Jp=state.Jp,
            minEigA=state.min_eig,
            maxGradRatio=float((np.sqrt(squared_norm(K.gradient)) / K.phi).max()),
            evenErr=even_error(K.grid, K.phi),
            gammaVar=state.gamma_variation,
            speedSup=speed_sup,
        )
        stop = speed_sup < config.eps_stop and state.gamma_variation <= 10.0 * config.eps_stop
        if stop or steps >= config.max_steps:
            trace.append(dt=0.0, rejected=0, **row)
            status = "converged" if stop else "max-steps"
            break
        if steps > 0 and speed_sup > 0.0:
            # Switched evolution relaxation: dt grows as the speed falls.
            # A speed of exactly 0 (a ball with eps_stop = 0) keeps dt.
            dt = min(MAX_DT, dt * speed_prev / speed_sup)
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
        trace.append(dt=math.nan if new_state is None else dt, rejected=rejected, **row)
        if new_state is None:
            status = "stalled"
            break
        state = new_state
        t += dt
        steps += 1
        newton_trials += state.trials
    return FlowResult(
        status=status,
        terminal=state.K,
        gamma=state.gamma,
        gamma_variation=state.gamma_variation,
        trace=trace,
        steps=steps,
        t_final=t,
        warnings=list(state.warnings),
        rejections=rejections,
        newton_trials=newton_trials,
    )
