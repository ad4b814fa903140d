"""Inequality and identity suites over deterministic body corpora.

Each record holds lhs, rhs and gap = lhs - rhs; it passes when
gap >= -DEFAULT_TOL * scale, and an equality-expected record also needs
|gap| <= DEFAULT_EQ_TOL * scale: the suites' fixed tolerances.  Reversed
inequalities are stored with sides swapped so a nonnegative gap always
means "holds".  Conjecture suites carry the xp_ prefix, run only on
request, and are recorded without contributing to the overall verdict.

A suite is a generator registered with the `_suite` decorator under
its function name minus the ``_suite_`` prefix; registration order is
the run order and so the CSV order.  It takes the run's `Bodies` and
yields ``(case, lhs, rhs, equality_expected)``, or with a fifth item
True for a record whose gap is expected to be negative; `run_suite`
adds the suite name and the verdict.  A `Bodies` set builds each
grid body on its first request and lives for one `run_all` call (or
one lone `run_suite` call), so every suite of a run that asks for the
same body shares it and what its field has computed: its W_k, k-mean
radii, curvature integrals, weighted volume and V, each cached on the
field (`hconvex.per_field`).  A suite that reads a derived body, such as
a p-sum, at several k builds it once and reads its cached radii.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import lorentz
from .euclid_bridge import V_functional, V_p_functional, euclid_form, project
from .hconvex import (
    SupportField,
    boundary_data,
    measure_density,
    p_tensor,
    random_h_convex_fields,
    shrink_into_cone,
    support_of_ball,
)
from .psum import p_dilate, p_sum
from .quermass import (
    I_k,
    S_functional,
    ball_curvature_integral,
    classical_curvature_density,
    curvature_integral,
    k_mean_radius,
    modified_quermass,
    weighted_volume,
)
from .sphere_grid import ArgumentError, Grid, integrate, make_grid, sphere_area

__all__ = [
    "CheckRecord",
    "Corpus",
    "Bodies",
    "SUITES",
    "EXPLORATORY_SUITES",
    "run_suite",
    "run_all",
    "write_records_csv",
    "all_passed",
    "DEFAULT_TOL",
    "DEFAULT_EQ_TOL",
]

DEFAULT_TOL = 1e-8
DEFAULT_EQ_TOL = 1e-6


@dataclass
class CheckRecord:
    suite: str
    case: str
    lhs: float
    rhs: float
    gap: float
    equality_expected: bool
    passed: bool


@dataclass
class Corpus:
    """Grid sizes of the fixed verify bodies.  Nothing reads `seed`; it goes
    with the benchmark's `Corpus(seed=...)` call (ROADMAP item 5)."""
    seed: int = 0
    n1_resolution: int = 128
    n2_resolution: int = 20


def _record(
    suite: str, case: str, lhs: float, rhs: float, equality_expected: bool,
    expect_negative: bool = False,
) -> CheckRecord:
    gap = lhs - rhs
    scale = max(1.0, abs(lhs), abs(rhs))
    if expect_negative:
        passed = gap < 0.0
    else:
        passed = gap >= -DEFAULT_TOL * scale
        if equality_expected:
            passed = passed and abs(gap) <= DEFAULT_EQ_TOL * scale
    return CheckRecord(suite, case, lhs, rhs, gap, equality_expected, passed)


# ---------------------------------------------------------------------------
# deterministic corpora


def _origin_ball(grid: Grid, r: float) -> SupportField:
    return support_of_ball(grid, lorentz.origin(grid.n), r)


def _offset_ball(grid: Grid, s: float, r: float) -> SupportField:
    direction = np.zeros(grid.n + 1)
    direction[0] = 1.0
    center = lorentz.apply_isometry(lorentz.boost(grid.n, direction, s), lorentz.origin(grid.n))
    return support_of_ball(grid, center, r)


def _perturbed(grid: Grid, r0: float, even: bool, flavor: int = 0) -> SupportField:
    """Fixed smooth uniformly h-convex bodies used across the suites."""
    c = math.exp(r0)
    if grid.n == 1:
        theta = grid.theta
        if even:
            pert = 0.08 * np.cos(2 * theta) + 0.05 * np.sin(4 * theta + 0.4 * flavor)
        else:
            pert = (
                0.07 * np.cos(theta + 0.3 * flavor)
                + 0.05 * np.sin(3 * theta)
                + 0.04 * np.cos(2 * theta)
            )
    else:
        z = grid.nodes
        y20 = 0.5 * (3.0 * z[:, 2] ** 2 - 1.0)
        y22 = z[:, 0] ** 2 - z[:, 1] ** 2
        if even:
            pert = 0.09 * y20 + 0.06 * y22 * math.cos(0.5 * flavor)
        else:
            pert = 0.06 * y20 + 0.05 * y22 + 0.06 * z[:, 0] + 0.04 * z[:, 1] * z[:, 2]
    K = shrink_into_cone(grid, c, pert)
    if K is None:
        raise RuntimeError("could not build a uniformly h-convex perturbed body")
    return K


class Bodies:
    """The corpus grids and the bodies on them for one verify run.

    Each body is built on its first request and handed out again on
    every later one, so the suites of a run share its field analysis.
    Nothing outlives the set: a new set does all the work again.
    """

    def __init__(self, corpus: Corpus | None = None):
        self.corpus = Corpus() if corpus is None else corpus
        self._built: dict = {}

    def grid(self, n: int) -> Grid:
        c = self.corpus
        return make_grid(n, c.n1_resolution if n == 1 else c.n2_resolution)

    def _body(self, build, n: int, *args) -> SupportField:
        key = (build, n, *args)
        if key not in self._built:
            self._built[key] = build(self.grid(n), *args)
        return self._built[key]

    def origin_ball(self, n: int, r: float) -> SupportField:
        return self._body(_origin_ball, n, r)

    def offset_ball(self, n: int, s: float, r: float) -> SupportField:
        """The radius-r ball about the origin boosted by s along x_1."""
        return self._body(_offset_ball, n, s, r)

    def perturbed(self, n: int, r0: float, even: bool, flavor: int = 0) -> SupportField:
        # The odd S^2 body takes no flavor: every flavor is one body.
        if n == 2 and not even:
            flavor = 0
        return self._body(_perturbed, n, r0, even, flavor)


def _term_S(S: float) -> float:
    return S + math.sqrt(S * S + 1.0)


def _bm_sides(a: float, K: SupportField, p: float, b: float, L: SupportField, ks):
    """(lhs, rhs) of the k-th p-Brunn-Minkowski inequality for a K +_p b L
    for each k in ks: exp(p r_k) of the sum against the same combination
    of the summands.  The sum is built once for every k."""
    S = p_sum(a, K, p, b, L)
    return [
        (
            math.exp(p * k_mean_radius(S, k)),
            a * math.exp(p * k_mean_radius(K, k)) + b * math.exp(p * k_mean_radius(L, k)),
        )
        for k in ks
    ]


def _weighted_bodies(bodies: Bodies):
    """(n, tag, K, equality_expected) over the bodies of the weighted suites."""
    for n in (1, 2):
        yield n, "perturbed-even", bodies.perturbed(n, 0.6, even=True), False
        yield n, "perturbed", bodies.perturbed(n, 0.8, even=False), False
        yield n, "offset-ball", bodies.offset_ball(n, 0.5, 0.7), False
        yield n, "origin-ball", bodies.origin_ball(n, 0.9), True


def _even_and_ball(bodies: Bodies, n: int):
    """(tag, K, equality_expected) over a perturbed even body and a ball."""
    yield "perturbed-even", bodies.perturbed(n, 0.6, even=True), False
    yield "origin-ball", bodies.origin_ball(n, 0.8), True


# ---------------------------------------------------------------------------
# suites

_REGISTRY: dict = {}


def _suite(fn):
    _REGISTRY[fn.__name__.removeprefix("_suite_")] = fn
    return fn


@_suite
def _suite_bm_balls(bodies):
    for n in (1, 2):
        configs = [
            (0.5, 0, 1.0, 1.0, 0.5, 0.8),
            (1.0, n, 0.6, 0.7, 0.3, 0.6),
            (2.0, min(1, n), 0.5, 0.5, 0.7, 0.4),
        ]
        for p, k, a, b, r1, r2 in configs:
            for sep in (0.0, 0.7):
                if sep == 0.0:
                    K, L = bodies.origin_ball(n, r1), bodies.origin_ball(n, r2)
                else:
                    K = bodies.offset_ball(n, 0.5 * sep, r1)
                    L = bodies.offset_ball(n, -0.5 * sep, r2)
                ((lhs, rhs),) = _bm_sides(a, K, p, b, L, (k,))
                yield f"n{n}/p{p}/k{k}/sep{sep}", lhs, rhs, sep == 0.0


@_suite
def _suite_bm_k_n(bodies):
    for n in (1, 2):
        for p in (0.5, 1.5):
            K = bodies.perturbed(n, 0.5, even=True)
            L_dil = p_dilate(1.7, p, K)
            L_gen = bodies.perturbed(n, 0.7, even=False, flavor=1)
            for tag, L, eq in (("dilates", L_dil, True), ("general", L_gen, False)):
                ((lhs, rhs),) = _bm_sides(0.8, K, p, 0.6, L, (n,))
                yield f"n{n}/p{p}/{tag}", lhs, rhs, eq


@_suite
def _suite_af_chain(bodies):
    for n in (1, 2):
        for tag, K, eq in (
            ("perturbed-even", bodies.perturbed(n, 0.6, even=True), False),
            ("perturbed", bodies.perturbed(n, 0.8, even=False), False),
            ("offset-ball", bodies.offset_ball(n, 0.6, 0.7), True),
            ("origin-ball", bodies.origin_ball(n, 0.9), True),
        ):
            for k in range(1, n + 1):
                W = modified_quermass(K, k).value
                for l in range(k):
                    yield f"n{n}/{tag}/W{k}-vs-W{l}", W, I_k(n, k, k_mean_radius(K, l)), eq
            for k in range(n):
                rhs = ball_curvature_integral(n, k, k_mean_radius(K, k))
                yield f"n{n}/{tag}/curvature-k{k}", curvature_integral(K, k), rhs, eq


@_suite
def _suite_min_I_Kball(bodies):
    for n in (1, 2):
        grid = bodies.grid(n)
        omega = sphere_area(n)
        ps = (-1.0, 0.0, 1.0, 2.0) if n == 1 else (-2.0, -1.0, 0.0, 2.0)
        for tag, L in (
            ("perturbed-even", bodies.perturbed(n, 0.6, even=True)),
            ("offset-ball", bodies.offset_ball(n, 0.5, 0.6)),
            ("origin-ball", bodies.origin_ball(n, 0.8)),
        ):
            for k in range(n + 1):
                rk = k_mean_radius(L, k)
                for p in ps:
                    if p == 0.0:
                        lhs = integrate(grid, np.log(L.phi))
                        rhs = omega * rk
                    else:
                        lhs = (integrate(grid, L.phi**p) / omega) ** (1.0 / p)
                        rhs = math.exp(rk)
                    if p == -n:
                        eq = tag != "perturbed-even" or k == n
                    else:
                        eq = tag == "origin-ball"
                    yield f"n{n}/{tag}/k{k}/p{p}", lhs, rhs, eq


@_suite
def _suite_min_I_p1_Lball(bodies):
    # n = 2, k = 1, p = 1 only.
    n, k = 2, 1
    grid = bodies.grid(n)
    for tag, K, eq in _even_and_ball(bodies, n):
        term1 = integrate(grid, measure_density(K, 1.0, k))
        term2 = curvature_integral(K, k)
        rk = k_mean_radius(K, k)
        base = ball_curvature_integral(n, k, rk)
        for rL in (0.4, 1.0):
            lhs = math.exp(rL) * term1 - term2
            yield f"{tag}/rL{rL}", lhs, base * (math.exp(rL - rk) - 1.0), eq
        # L-point chain: the rL -> 0 limit splits into two comparisons.
        lhs_a = term1 - ball_curvature_integral(n, k, rk, 1.0)
        rhs_a = term2 - base
        yield f"{tag}/chain-upper", lhs_a, rhs_a, eq
        yield f"{tag}/chain-lower", rhs_a, 0.0, eq


@_suite
def _suite_min_II(bodies):
    n, k = 2, 1
    grid = bodies.grid(n)
    for tag, K, eq in _even_and_ball(bodies, n):
        rk = k_mean_radius(K, k)
        mass = curvature_integral(K, k)
        for p in (1.0, 2.0, 3.0):
            lhs = integrate(grid, measure_density(K, p, k))
            rhs = ball_curvature_integral(n, k, rk, p)
            yield f"n2/k1/{tag}/p{p}", lhs, rhs, eq
            yield f"n2/k1/{tag}/p{p}/intermediate", lhs, mass * math.exp(-p * rk), eq
    for n in (1, 2):
        for tag, K, eq in _even_and_ball(bodies, n):
            r0 = k_mean_radius(K, 0)
            lhs = integrate(K.grid, measure_density(K, 1.0, 0))
            rhs = ball_curvature_integral(n, 0, r0, 1.0)
            yield f"n{n}/k0/{tag}/p1", lhs, rhs, eq


@_suite
def _suite_weighted_af(bodies):
    for n, tag, K, eq in _weighted_bodies(bodies):
        grid = K.grid
        bd = boundary_data(K).require_curvature()
        vw = weighted_volume(K)
        cosh_total = integrate(grid, bd.coshr * bd.area_density)
        weighted_sum = vw
        for k in range(n + 1):
            sk = math.comb(n, k) * classical_curvature_density(K, k)
            weighted_sum += integrate(grid, bd.coshr * sk) / (k + 1)
        # Stored swapped: the power-mean side is the larger one.
        lhs = (vw ** (1.0 / (n + 1)) + vw ** (-n / (n + 1.0)) * cosh_total / (n + 1)) ** (n + 1)
        yield f"n{n}/{tag}", lhs, weighted_sum, eq


@_suite
def _suite_weighted_iso(bodies):
    for n, tag, K, eq in _weighted_bodies(bodies):
        grid = K.grid
        omega = sphere_area(n)
        bd = boundary_data(K)
        vw = weighted_volume(K)
        cosh_total = integrate(grid, bd.coshr * bd.area_density)
        rhs = math.sqrt(
            ((n + 1) * vw) ** 2
            + omega ** (2.0 / (n + 1)) * ((n + 1) * vw) ** (2.0 * n / (n + 1))
        )
        yield f"n{n}/{tag}/area", cosh_total, rhs, eq
        S = S_functional(K)
        for p in (1.0, 2.0):
            lhs = integrate(grid, bd.coshr * measure_density(K, p, 0))
            rhs_p = omega * S**n * math.sqrt(S * S + 1.0) * _term_S(S) ** (-p)
            yield f"n{n}/{tag}/p{p}", lhs, rhs_p, eq


@_suite
def _suite_weighted_vol_cmp(bodies):
    for n, tag, K, eq in _weighted_bodies(bodies):
        r0 = k_mean_radius(K, 0)
        rhs = sphere_area(n) / (n + 1) * math.sinh(r0) ** (n + 1)
        yield f"n{n}/{tag}", weighted_volume(K), rhs, eq


@_suite
def _suite_hk_n1(bodies):
    n = 1
    grid = bodies.grid(n)
    for tag, K, eq in (
        ("perturbed-even", bodies.perturbed(n, 0.6, even=True), False),
        ("perturbed", bodies.perturbed(n, 0.8, even=False), False),
        ("origin-ball", bodies.origin_ball(n, 0.9), True),
        ("offset-ball", bodies.offset_ball(n, 0.6, 0.7), True),
    ):
        bd = boundary_data(K)
        A = K.A[:, 0, 0]
        hk = integrate(grid, (A - bd.u_tilde) * A)
        yield tag, hk, 0.0, eq
        d1, d2 = K.gradient[:, 0], K.hessian[:, 0, 0]
        wirtinger = integrate(grid, d2 * d2 - d1 * d1)
        yield f"{tag}/wirtinger-identity", wirtinger, hk, True


@_suite
def _suite_euclid(bodies):
    for n in (1, 2):
        grid = bodies.grid(n)
        omega = sphere_area(n)
        K = bodies.perturbed(n, 0.5, even=True)
        L_gen = bodies.perturbed(n, 0.7, even=False, flavor=2)
        L_dil = p_dilate(1.6, 2.0, K)
        a, b = 0.7, 0.8
        vK = V_functional(K).value
        for p in (1.25, 2.0):
            for tag, L, eq in (("general", L_gen, False), ("dilates", L_dil, True)):
                vL = V_functional(L).value
                vS = V_functional(p_sum(a, K, p, b, L)).value
                e = p / (n + 1.0)
                yield f"n{n}/bm/p{p}/{tag}", vS**e, a * vK**e + b * vL**e, eq
                vp = V_p_functional(K, L, p).value
                rhs = vK ** (n + 1.0 - p) * vL**p
                yield f"n{n}/minkowski/p{p}/{tag}", vp ** (n + 1.0), rhs, eq
        iso_bodies = [
            ("perturbed", K, False),
            ("origin-ball", bodies.origin_ball(n, 0.7), True),
            ("offset-ball", bodies.offset_ball(n, 0.5, 0.6), None),
        ]
        for p in (1.0, 2.0):
            for tag, body, eq in iso_bodies:
                hat = project(body)
                lhs = integrate(grid, hat.phi ** (1.0 - p) * p_tensor(euclid_form(hat), n))
                v = V_functional(body).value
                rhs = (
                    (n + 1.0) ** ((n + 1.0 - p) / (n + 1.0))
                    * omega ** (p / (n + 1.0))
                    * v ** ((n + 1.0 - p) / (n + 1.0))
                )
                yield f"n{n}/iso/p{p}/{tag}", lhs, rhs, (eq is True) or (eq is None and p == 1.0)
        ball_volume = V_functional(bodies.origin_ball(n, math.log(2.0))).value
        yield f"n{n}/ball-volume-identity", ball_volume, omega * 2.0 ** (n + 1) / (n + 1), True


@_suite
def _suite_counterexample(bodies):
    """Concentric-ball counterexample to the unrestricted weighted
    Brunn-Minkowski statement: positive gap at scale 100, negative at
    scale 2 (the negative record is the expected behaviour).

    The printed value of the negative gap in the source table is
    -0.0516...; the closed-form evaluation gives -0.00516..., a factor
    of ten smaller.  The computed magnitude is what this suite records.
    """
    r1, r2, r3 = math.log(11.0 / 10.0), math.log(4.0 / 3.0), math.log(73.0 / 60.0)
    sinh1, sinh2, sinh3 = 21.0 / 220.0, 7.0 / 24.0, 1729.0 / 8760.0
    for n in (1, 2):
        for scale, expect_negative in ((100.0, False), (2.0, True)):
            lhs = _term_S(scale * sinh3)
            rhs = 0.5 * _term_S(scale * sinh1) + 0.5 * _term_S(scale * sinh2)
            # Marked: at scale 2 the record certifies a negative gap.
            yield f"n{n}/scale{scale:g}", lhs, rhs, False, expect_negative
    # Grid cross-check of the closed-form S values at the benign scale,
    # on a finer grid than the corpus.
    grid = make_grid(1, 512)
    s = math.acosh(4.0)
    terms = [_term_S(S_functional(_offset_ball(grid, s, r))) for r in (r1, r2, r3)]
    lhs_grid = terms[2] - 0.5 * terms[0] - 0.5 * terms[1]
    lhs_closed = (
        _term_S(2.0 * sinh3) - 0.5 * _term_S(2.0 * sinh1) - 0.5 * _term_S(2.0 * sinh2)
    )
    yield "n1/scale2/grid-cross-check", lhs_grid, lhs_closed, True


# ---------------------------------------------------------------------------
# exploratory (conjecture) suites: recorded, never asserted


@_suite
def _suite_xp_bm_general(bodies):
    for n in (1, 2):
        K = bodies.perturbed(n, 0.5, even=True)
        L = bodies.perturbed(n, 0.7, even=True, flavor=3)
        for p in (0.5, 1.0, 2.0):
            for k, (lhs, rhs) in enumerate(_bm_sides(0.7, K, p, 0.6, L, range(n + 1))):
                yield f"n{n}/p{p}/k{k}", lhs, rhs, False


def _xp_min(bodies, variant: str):
    """Minkowski inequalities of the first (I) and second (II) kind for
    two perturbed bodies."""
    for n in (1, 2):
        grid = bodies.grid(n)
        K = bodies.perturbed(n, 0.6, even=True)
        L = bodies.perturbed(n, 0.8, even=True, flavor=2)
        for k in range(n):
            for p in (-1.0, 0.5, 1.0, 2.0):
                if p < -n or (variant == "II" and p < 0.0):
                    continue
                mixed = integrate(grid, L.phi**p * measure_density(K, p, k))
                rK = k_mean_radius(K, k)
                rL = k_mean_radius(L, k)
                base = ball_curvature_integral(n, k, rK)
                if variant == "I":
                    lhs = mixed - curvature_integral(K, k)
                    rhs = base * (math.exp(p * (rL - rK)) - 1.0)
                    if p < 0.0:
                        lhs, rhs = rhs, lhs  # reversed inequality, stored swapped
                else:
                    lhs = mixed
                    rhs = base * math.exp(p * (rL - rK))
                yield f"n{n}/k{k}/p{p}", lhs, rhs, False


@_suite
def _suite_xp_min_I(bodies):
    return _xp_min(bodies, "I")


@_suite
def _suite_xp_min_II(bodies):
    return _xp_min(bodies, "II")


@_suite
def _suite_xp_weighted_bm(bodies):
    for n in (1, 2):
        K = bodies.perturbed(n, 0.5, even=True)
        L = bodies.perturbed(n, 0.7, even=True, flavor=4)
        for p in (0.5, 1.0, 2.0):
            for a, b in ((0.6, 0.7), (1.0, 1.0)):
                lhs = _term_S(S_functional(p_sum(a, K, p, b, L))) ** p
                rhs = a * _term_S(S_functional(K)) ** p + b * _term_S(S_functional(L)) ** p
                yield f"n{n}/p{p}/a{a}b{b}", lhs, rhs, False


@_suite
def _suite_xp_weighted_min(bodies):
    for n in (1, 2):
        grid = bodies.grid(n)
        K = bodies.perturbed(n, 0.6, even=True)
        L = bodies.perturbed(n, 0.8, even=True, flavor=5)
        bd = boundary_data(K)
        SK = S_functional(K)
        SL = S_functional(L)
        ratio = _term_S(SL) / _term_S(SK)
        base = sphere_area(n) * SK**n * math.sqrt(SK * SK + 1.0)
        cosh_total = integrate(grid, bd.coshr * bd.area_density)
        for p in (0.5, 1.0, 2.0):
            mixed = integrate(grid, L.phi**p * bd.coshr * measure_density(K, p, 0))
            yield f"n{n}/I/p{p}", mixed - cosh_total, base * (ratio**p - 1.0), False
            yield f"n{n}/II/p{p}", mixed, base * ratio**p, False


@_suite
def _suite_xp_weighted_scaling(bodies):
    for n in (1, 2):
        for tag, K, eq in _even_and_ball(bodies, n):
            for p in (0.5, 1.0, 2.0):
                for t in (1.5, 2.5):
                    lhs = _term_S(S_functional(p_dilate(t, p, K))) ** p
                    yield f"n{n}/{tag}/p{p}/t{t}", lhs, t * _term_S(S_functional(K)) ** p, eq


# Registration order is the run order, and so the CSV order.
SUITES = tuple(name for name in _REGISTRY if not name.startswith("xp_"))
EXPLORATORY_SUITES = tuple(name for name in _REGISTRY if name.startswith("xp_"))


def run_suite(name: str, bodies: Bodies | None = None) -> list[CheckRecord]:
    """Run one named suite and return its records.

    ``bodies`` is a body set shared with other calls (`run_all` passes
    one set to every suite; a caller with its own corpus passes
    ``Bodies(corpus)``); by default the call builds one on the default
    corpus.  An unknown name is an ArgumentError listing the known names,
    `all` (`run_all`) first.
    """
    if name not in _REGISTRY:
        known = ", ".join(("all",) + SUITES + EXPLORATORY_SUITES)
        raise ArgumentError(f"unknown suite {name!r}; known: {known}")
    if bodies is None:
        bodies = Bodies()
    return [
        _record(name, case, lhs, rhs, eq, *negative)
        for case, lhs, rhs, eq, *negative in _REGISTRY[name](bodies)
    ]


def run_all(corpus: Corpus | None = None, exploratory: bool = False) -> list[CheckRecord]:
    """Every asserted suite, then the exploratory ones on request, over
    one body set."""
    bodies = Bodies(corpus)
    records = []
    for name in SUITES + (EXPLORATORY_SUITES if exploratory else ()):
        records.extend(run_suite(name, bodies))
    return records


def all_passed(records: list[CheckRecord]) -> bool:
    """Verdict over the asserted (non-exploratory) records."""
    return all(r.passed for r in records if not r.suite.startswith("xp_"))


def write_records_csv(path, records: list[CheckRecord]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["suite", "case", "lhs", "rhs", "gap", "equality_expected", "pass"])
        for r in records:
            writer.writerow(
                [
                    r.suite,
                    r.case,
                    f"{r.lhs:.17g}",
                    f"{r.rhs:.17g}",
                    f"{r.gap:.17g}",
                    str(r.equality_expected).lower(),
                    str(r.passed).lower(),
                ]
            )
