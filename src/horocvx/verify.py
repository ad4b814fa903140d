"""Inequality and identity suites over deterministic body corpora.

Each suite emits CheckRecords (lhs, rhs, gap = lhs - rhs); a record
passes when gap >= -tol * scale, and an equality-expected record also
needs |gap| <= eq_tol * scale.  Reversed inequalities are stored with
sides swapped so a nonnegative gap always means "holds".  Conjecture
suites carry the xp_ prefix, run only on request, and are recorded
without contributing to the overall verdict.  The counterexample suite
must produce exactly one negative gap, marked expected.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import lorentz
from .euclid_bridge import V_functional, V_p_functional, project
from .hconvex import (
    SupportField,
    boundary_data,
    convexity,
    random_h_convex_fields,
    support_of_ball,
)
from .psum import p_dilate, p_sum
from .quermass import (
    I_k,
    I_k_inverse,
    S_functional,
    curvature_integral,
    k_mean_radius,
    modified_quermass,
    p_normalized,
    p_tensor,
    weighted_volume,
)
from .sphere_grid import Grid, integrate, make_grid, sphere_area

__all__ = [
    "CheckRecord",
    "Corpus",
    "SUITES",
    "EXPLORATORY_SUITES",
    "run_suite",
    "run_all",
    "write_records_csv",
    "all_passed",
    "random_h_convex_fields",
    "DEFAULT_TOL",
    "DEFAULT_EQ_TOL",
]

DEFAULT_TOL = 1e-8
DEFAULT_EQ_TOL = 1e-6

SUITES = (
    "bm_balls",
    "bm_k_n",
    "af_chain",
    "min_I_Kball",
    "min_I_p1_Lball",
    "min_II",
    "weighted_af",
    "weighted_iso",
    "weighted_vol_cmp",
    "hk_n1",
    "euclid",
    "counterexample",
)

EXPLORATORY_SUITES = (
    "xp_bm_general",
    "xp_min_I",
    "xp_min_II",
    "xp_weighted_bm",
    "xp_weighted_min",
    "xp_weighted_scaling",
)


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
    seed: int = 0
    n1_resolution: int = 128
    n2_resolution: int = 20


def _record(
    suite: str,
    case: str,
    lhs: float,
    rhs: float,
    equality_expected: bool,
    tol: float,
    eq_tol: float,
    expect_negative: bool = False,
) -> CheckRecord:
    gap = lhs - rhs
    scale = max(1.0, abs(lhs), abs(rhs))
    if expect_negative:
        passed = gap < 0.0
    else:
        passed = gap >= -tol * scale
        if equality_expected:
            passed = passed and abs(gap) <= eq_tol * scale
    return CheckRecord(suite, case, lhs, rhs, gap, equality_expected, passed)


# ---------------------------------------------------------------------------
# deterministic corpora


def _grid_for(corpus: Corpus, n: int) -> Grid:
    return make_grid(n, corpus.n1_resolution if n == 1 else corpus.n2_resolution)


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
    amp = 1.0
    while amp > 1e-3:
        K = SupportField(grid, c * (1.0 + amp * pert))
        if convexity(K).classification == "uniformly-h-convex":
            return K
        amp *= 0.6
    raise RuntimeError("could not build a uniformly h-convex perturbed body")


def _term_S(S: float) -> float:
    return S + math.sqrt(S * S + 1.0)


# ---------------------------------------------------------------------------
# suites


def _suite_bm_balls(corpus, tol, eq_tol):
    records = []
    for n in (1, 2):
        grid = _grid_for(corpus, n)
        configs = [
            (0.5, 0, 1.0, 1.0, 0.5, 0.8),
            (1.0, n, 0.6, 0.7, 0.3, 0.6),
            (2.0, min(1, n), 0.5, 0.5, 0.7, 0.4),
        ]
        for p, k, a, b, r1, r2 in configs:
            for sep in (0.0, 0.7):
                if sep == 0.0:
                    K = _origin_ball(grid, r1)
                    L = _origin_ball(grid, r2)
                else:
                    K = _offset_ball(grid, 0.5 * sep, r1)
                    L = _offset_ball(grid, -0.5 * sep, r2)
                omega_sum = p_sum(a, K, p, b, L)
                lhs = math.exp(p * k_mean_radius(omega_sum, k))
                rhs = a * math.exp(p * k_mean_radius(K, k)) + b * math.exp(
                    p * k_mean_radius(L, k)
                )
                records.append(
                    _record(
                        "bm_balls",
                        f"n{n}/p{p}/k{k}/sep{sep}",
                        lhs,
                        rhs,
                        sep == 0.0,
                        tol,
                        eq_tol,
                    )
                )
    return records


def _suite_bm_k_n(corpus, tol, eq_tol):
    records = []
    for n in (1, 2):
        grid = _grid_for(corpus, n)
        for p in (0.5, 1.5):
            K = _perturbed(grid, 0.5, even=True)
            L_dil = p_dilate(1.7, p, K)
            L_gen = _perturbed(grid, 0.7, even=False, flavor=1)
            for tag, L, eq in (("dilates", L_dil, True), ("general", L_gen, False)):
                a, b = 0.8, 0.6
                omega_sum = p_sum(a, K, p, b, L)
                lhs = math.exp(p * k_mean_radius(omega_sum, n))
                rhs = a * math.exp(p * k_mean_radius(K, n)) + b * math.exp(
                    p * k_mean_radius(L, n)
                )
                records.append(
                    _record("bm_k_n", f"n{n}/p{p}/{tag}", lhs, rhs, eq, tol, eq_tol)
                )
    return records


def _suite_af_chain(corpus, tol, eq_tol):
    records = []
    for n in (1, 2):
        grid = _grid_for(corpus, n)
        bodies = [
            ("perturbed-even", _perturbed(grid, 0.6, even=True), False),
            ("perturbed", _perturbed(grid, 0.8, even=False), False),
            ("offset-ball", _offset_ball(grid, 0.6, 0.7), True),
            ("origin-ball", _origin_ball(grid, 0.9), True),
        ]
        for tag, K, eq in bodies:
            W = {k: modified_quermass(K, k).value for k in range(n + 1)}
            for k in range(1, n + 1):
                for l in range(k):
                    lhs = W[k]
                    rhs = I_k(n, k, I_k_inverse(n, l, W[l]))
                    records.append(
                        _record(
                            "af_chain",
                            f"n{n}/{tag}/W{k}-vs-W{l}",
                            lhs,
                            rhs,
                            eq,
                            tol,
                            eq_tol,
                        )
                    )
            for k in range(n):
                rk = I_k_inverse(n, k, W[k])
                lhs = curvature_integral(K, k)
                rhs = sphere_area(n) * math.sinh(rk) ** (n - k) * math.exp(-k * rk)
                records.append(
                    _record(
                        "af_chain",
                        f"n{n}/{tag}/curvature-k{k}",
                        lhs,
                        rhs,
                        eq,
                        tol,
                        eq_tol,
                    )
                )
    return records


def _suite_min_I_Kball(corpus, tol, eq_tol):
    records = []
    for n in (1, 2):
        grid = _grid_for(corpus, n)
        omega = sphere_area(n)
        ps = (-1.0, 0.0, 1.0, 2.0) if n == 1 else (-2.0, -1.0, 0.0, 2.0)
        bodies = [
            ("perturbed-even", _perturbed(grid, 0.6, even=True)),
            ("offset-ball", _offset_ball(grid, 0.5, 0.6)),
            ("origin-ball", _origin_ball(grid, 0.8)),
        ]
        for tag, L in bodies:
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
                    records.append(
                        _record(
                            "min_I_Kball",
                            f"n{n}/{tag}/k{k}/p{p}",
                            lhs,
                            rhs,
                            eq,
                            tol,
                            eq_tol,
                        )
                    )
    return records


def _suite_min_I_p1_Lball(corpus, tol, eq_tol):
    # n = 2, k = 1, p = 1 only.
    n, k = 2, 1
    grid = _grid_for(corpus, n)
    omega = sphere_area(n)
    records = []
    bodies = [
        ("perturbed-even", _perturbed(grid, 0.6, even=True), False),
        ("origin-ball", _origin_ball(grid, 0.8), True),
    ]
    for tag, K, eq in bodies:
        term1 = integrate(grid, K.phi ** (-(1.0 + k)) * p_tensor(K.A, n - k))
        term2 = curvature_integral(K, k)
        rk = k_mean_radius(K, k)
        base = omega * math.sinh(rk) ** (n - k) * math.exp(-k * rk)
        for rL in (0.4, 1.0):
            lhs = math.exp(rL) * term1 - term2
            rhs = base * (math.exp(rL - rk) - 1.0)
            records.append(
                _record(
                    "min_I_p1_Lball", f"{tag}/rL{rL}", lhs, rhs, eq, tol, eq_tol
                )
            )
        # L-point chain: the rL -> 0 limit splits into two comparisons.
        lhs_a = term1 - omega * math.sinh(rk) ** (n - k) * math.exp(-(k + 1) * rk)
        rhs_a = term2 - base
        records.append(
            _record("min_I_p1_Lball", f"{tag}/chain-upper", lhs_a, rhs_a, eq, tol, eq_tol)
        )
        records.append(
            _record("min_I_p1_Lball", f"{tag}/chain-lower", rhs_a, 0.0, eq, tol, eq_tol)
        )
    return records


def _suite_min_II(corpus, tol, eq_tol):
    records = []
    omega2 = sphere_area(2)
    grid2 = _grid_for(corpus, 2)
    bodies2 = [
        ("perturbed-even", _perturbed(grid2, 0.6, even=True), False),
        ("origin-ball", _origin_ball(grid2, 0.8), True),
    ]
    n, k = 2, 1
    for tag, K, eq in bodies2:
        rk = k_mean_radius(K, k)
        mass = curvature_integral(K, k)
        for p in (1.0, 2.0, 3.0):
            lhs = integrate(grid2, K.phi ** (-(p + k)) * p_tensor(K.A, n - k))
            rhs = omega2 * math.sinh(rk) ** (n - k) * math.exp(-(k + p) * rk)
            records.append(
                _record("min_II", f"n2/k1/{tag}/p{p}", lhs, rhs, eq, tol, eq_tol)
            )
            records.append(
                _record(
                    "min_II",
                    f"n2/k1/{tag}/p{p}/intermediate",
                    lhs,
                    mass * math.exp(-p * rk),
                    eq,
                    tol,
                    eq_tol,
                )
            )
    for n in (1, 2):
        grid = _grid_for(corpus, n)
        for tag, K, eq in (
            ("perturbed-even", _perturbed(grid, 0.6, even=True), False),
            ("origin-ball", _origin_ball(grid, 0.8), True),
        ):
            r0 = k_mean_radius(K, 0)
            lhs = integrate(grid, K.phi ** (-1.0) * p_tensor(K.A, n))
            rhs = sphere_area(n) * math.sinh(r0) ** n * math.exp(-r0)
            records.append(
                _record("min_II", f"n{n}/k0/{tag}/p1", lhs, rhs, eq, tol, eq_tol)
            )
    return records


def _suite_weighted_af(corpus, tol, eq_tol):
    records = []
    for n in (1, 2):
        grid = _grid_for(corpus, n)
        bodies = [
            ("perturbed-even", _perturbed(grid, 0.6, even=True), False),
            ("perturbed", _perturbed(grid, 0.8, even=False), False),
            ("offset-ball", _offset_ball(grid, 0.5, 0.7), False),
            ("origin-ball", _origin_ball(grid, 0.9), True),
        ]
        for tag, K, eq in bodies:
            bd = boundary_data(K)
            kappa = 1.0 + bd.kappa_tilde
            vw = weighted_volume(K)
            cosh_total = integrate(grid, bd.coshr * bd.area_density)
            weighted_sum = vw
            for k in range(n + 1):
                sk = p_normalized(kappa, k) * math.comb(n, k)
                weighted_sum += integrate(grid, bd.coshr * sk * bd.area_density) / (
                    k + 1
                )
            # Stored swapped: the power-mean side is the larger one.
            lhs = (
                vw ** (1.0 / (n + 1))
                + vw ** (-n / (n + 1.0)) * cosh_total / (n + 1)
            ) ** (n + 1)
            records.append(
                _record("weighted_af", f"n{n}/{tag}", lhs, weighted_sum, eq, tol, eq_tol)
            )
    return records


def _suite_weighted_iso(corpus, tol, eq_tol):
    records = []
    for n in (1, 2):
        grid = _grid_for(corpus, n)
        omega = sphere_area(n)
        bodies = [
            ("perturbed-even", _perturbed(grid, 0.6, even=True), False),
            ("perturbed", _perturbed(grid, 0.8, even=False), False),
            ("offset-ball", _offset_ball(grid, 0.5, 0.7), False),
            ("origin-ball", _origin_ball(grid, 0.9), True),
        ]
        for tag, K, eq in bodies:
            bd = boundary_data(K)
            vw = weighted_volume(K)
            cosh_total = integrate(grid, bd.coshr * bd.area_density)
            rhs = math.sqrt(
                ((n + 1) * vw) ** 2
                + omega ** (2.0 / (n + 1)) * ((n + 1) * vw) ** (2.0 * n / (n + 1))
            )
            records.append(
                _record("weighted_iso", f"n{n}/{tag}/area", cosh_total, rhs, eq, tol, eq_tol)
            )
            S = S_functional(K)
            for p in (1.0, 2.0):
                lhs = integrate(
                    grid, bd.coshr * K.phi ** (-p) * bd.area_density
                )
                rhs_p = (
                    omega
                    * S**n
                    * math.sqrt(S * S + 1.0)
                    * _term_S(S) ** (-p)
                )
                records.append(
                    _record(
                        "weighted_iso", f"n{n}/{tag}/p{p}", lhs, rhs_p, eq, tol, eq_tol
                    )
                )
    return records


def _suite_weighted_vol_cmp(corpus, tol, eq_tol):
    records = []
    for n in (1, 2):
        grid = _grid_for(corpus, n)
        bodies = [
            ("perturbed-even", _perturbed(grid, 0.6, even=True), False),
            ("perturbed", _perturbed(grid, 0.8, even=False), False),
            ("offset-ball", _offset_ball(grid, 0.5, 0.7), False),
            ("origin-ball", _origin_ball(grid, 0.9), True),
        ]
        for tag, K, eq in bodies:
            vw = weighted_volume(K)
            r0 = k_mean_radius(K, 0)
            rhs = sphere_area(n) / (n + 1) * math.sinh(r0) ** (n + 1)
            records.append(
                _record("weighted_vol_cmp", f"n{n}/{tag}", vw, rhs, eq, tol, eq_tol)
            )
    return records


def _suite_hk_n1(corpus, tol, eq_tol):
    n = 1
    grid = _grid_for(corpus, n)
    records = []
    bodies = [
        ("perturbed-even", _perturbed(grid, 0.6, even=True), False),
        ("perturbed", _perturbed(grid, 0.8, even=False), False),
        ("origin-ball", _origin_ball(grid, 0.9), True),
        ("offset-ball", _offset_ball(grid, 0.6, 0.7), True),
    ]
    for tag, K, eq in bodies:
        bd = boundary_data(K)
        A = bd.lambda_tilde[:, 0] / K.phi
        hk = integrate(grid, (A - bd.u_tilde) * A)
        records.append(_record("hk_n1", f"{tag}", hk, 0.0, eq, tol, eq_tol))
        d1, d2 = K.gradient[:, 0], K.hessian[:, 0, 0]
        wirtinger = integrate(grid, d2 * d2 - d1 * d1)
        records.append(
            _record("hk_n1", f"{tag}/wirtinger-identity", wirtinger, hk, True, tol, eq_tol)
        )
    return records


def _suite_euclid(corpus, tol, eq_tol):
    records = []
    for n in (1, 2):
        grid = _grid_for(corpus, n)
        omega = sphere_area(n)
        K = _perturbed(grid, 0.5, even=True)
        L_gen = _perturbed(grid, 0.7, even=False, flavor=2)
        L_dil = p_dilate(1.6, 2.0, K)
        a, b = 0.7, 0.8
        for p in (1.25, 2.0):
            for tag, L, eq in (("general", L_gen, False), ("dilates", L_dil, True)):
                omega_sum = p_sum(a, K, p, b, L)
                vK = V_functional(K).value
                vL = V_functional(L).value
                vS = V_functional(omega_sum).value
                e = p / (n + 1.0)
                records.append(
                    _record(
                        "euclid",
                        f"n{n}/bm/p{p}/{tag}",
                        vS**e,
                        a * vK**e + b * vL**e,
                        eq,
                        tol,
                        eq_tol,
                    )
                )
                vp = V_p_functional(K, L, p).value
                records.append(
                    _record(
                        "euclid",
                        f"n{n}/minkowski/p{p}/{tag}",
                        vp ** (n + 1.0),
                        vK ** (n + 1.0 - p) * vL**p,
                        eq,
                        tol,
                        eq_tol,
                    )
                )
        iso_bodies = [
            ("perturbed", K, False),
            ("origin-ball", _origin_ball(grid, 0.7), True),
            ("offset-ball", _offset_ball(grid, 0.5, 0.6), None),
        ]
        for p in (1.0, 2.0):
            for tag, body, eq in iso_bodies:
                eq_flag = (eq is True) or (eq is None and p == 1.0)
                hat = project(body)
                lhs = integrate(grid, hat.u_hat ** (1.0 - p) * p_tensor(hat.form, n))
                v = V_functional(body).value
                rhs = (
                    (n + 1.0) ** ((n + 1.0 - p) / (n + 1.0))
                    * omega ** (p / (n + 1.0))
                    * v ** ((n + 1.0 - p) / (n + 1.0))
                )
                records.append(
                    _record(
                        "euclid", f"n{n}/iso/p{p}/{tag}", lhs, rhs, eq_flag, tol, eq_tol
                    )
                )
        ball = _origin_ball(grid, math.log(2.0))
        records.append(
            _record(
                "euclid",
                f"n{n}/ball-volume-identity",
                V_functional(ball).value,
                omega * 2.0 ** (n + 1) / (n + 1),
                True,
                tol,
                eq_tol,
            )
        )
    return records


def _suite_counterexample(corpus, tol, eq_tol):
    """Concentric-ball counterexample to the unrestricted weighted
    Brunn-Minkowski statement: positive gap at scale 100, negative at
    scale 2 (the negative record is the expected behaviour).

    The printed value of the negative gap in the source table is
    -0.0516...; the closed-form evaluation gives -0.00516..., a factor
    of ten smaller.  The computed magnitude is what this suite records.
    """
    r1, r2, r3 = math.log(11.0 / 10.0), math.log(4.0 / 3.0), math.log(73.0 / 60.0)
    sinh1, sinh2, sinh3 = 21.0 / 220.0, 7.0 / 24.0, 1729.0 / 8760.0
    records = []
    for n in (1, 2):
        for scale, expect_negative in ((100.0, False), (2.0, True)):
            SK = scale * sinh1
            SL = scale * sinh2
            SO = scale * sinh3
            lhs = _term_S(SO)
            rhs = 0.5 * _term_S(SK) + 0.5 * _term_S(SL)
            records.append(
                _record(
                    "counterexample",
                    f"n{n}/scale{scale:g}",
                    lhs,
                    rhs,
                    False,
                    tol,
                    eq_tol,
                    expect_negative=expect_negative,
                )
            )
    # Grid cross-check of the closed-form S values at the benign scale.
    grid = make_grid(1, 512)
    s = math.acosh(4.0)
    direction = np.array([1.0, 0.0])
    center = lorentz.apply_isometry(
        lorentz.boost(1, direction, s), lorentz.origin(1)
    )
    terms = []
    for r in (r1, r2, r3):
        K = support_of_ball(grid, center, r)
        terms.append(_term_S(S_functional(K)))
    lhs_grid = terms[2] - 0.5 * terms[0] - 0.5 * terms[1]
    lhs_closed = _term_S(2.0 * sinh3) - 0.5 * _term_S(2.0 * sinh1) - 0.5 * _term_S(
        2.0 * sinh2
    )
    records.append(
        _record(
            "counterexample",
            "n1/scale2/grid-cross-check",
            lhs_grid,
            lhs_closed,
            True,
            tol,
            eq_tol,
        )
    )
    return records


# ---------------------------------------------------------------------------
# exploratory (conjecture) suites: recorded, never asserted


def _suite_xp_bm_general(corpus, tol, eq_tol):
    records = []
    for n in (1, 2):
        grid = _grid_for(corpus, n)
        K = _perturbed(grid, 0.5, even=True)
        L = _perturbed(grid, 0.7, even=True, flavor=3)
        for p in (0.5, 1.0, 2.0):
            for k in range(n + 1):
                a, b = 0.7, 0.6
                omega_sum = p_sum(a, K, p, b, L)
                lhs = math.exp(p * k_mean_radius(omega_sum, k))
                rhs = a * math.exp(p * k_mean_radius(K, k)) + b * math.exp(
                    p * k_mean_radius(L, k)
                )
                records.append(
                    _record("xp_bm_general", f"n{n}/p{p}/k{k}", lhs, rhs, False, tol, eq_tol)
                )
    return records


def _xp_min_terms(K: SupportField, L: SupportField, p: float, k: int):
    grid = K.grid
    n = grid.n
    pk = p_tensor(K.A, n - k)
    mixed = integrate(grid, L.phi**p * K.phi ** (-(p + k)) * pk)
    mass = integrate(grid, K.phi ** (-float(k)) * pk)
    rK = k_mean_radius(K, k)
    rL = k_mean_radius(L, k)
    base = sphere_area(n) * math.sinh(rK) ** (n - k) * math.exp(-k * rK)
    return mixed, mass, rK, rL, base


def _suite_xp_min(corpus, tol, eq_tol, variant: str):
    records = []
    for n in (1, 2):
        grid = _grid_for(corpus, n)
        K = _perturbed(grid, 0.6, even=True)
        L = _perturbed(grid, 0.8, even=True, flavor=2)
        for k in range(n):
            for p in (-1.0, 0.5, 1.0, 2.0):
                if p < -n:
                    continue
                mixed, mass, rK, rL, base = _xp_min_terms(K, L, p, k)
                if variant == "I":
                    lhs = mixed - mass
                    rhs = base * (math.exp(p * (rL - rK)) - 1.0)
                    if p < 0.0:
                        lhs, rhs = rhs, lhs  # reversed inequality, stored swapped
                else:
                    if p < 0.0:
                        continue
                    lhs = mixed
                    rhs = base * math.exp(p * (rL - rK))
                records.append(
                    _record(
                        f"xp_min_{variant}",
                        f"n{n}/k{k}/p{p}",
                        lhs,
                        rhs,
                        False,
                        tol,
                        eq_tol,
                    )
                )
    return records


def _suite_xp_weighted_bm(corpus, tol, eq_tol):
    records = []
    for n in (1, 2):
        grid = _grid_for(corpus, n)
        K = _perturbed(grid, 0.5, even=True)
        L = _perturbed(grid, 0.7, even=True, flavor=4)
        for p in (0.5, 1.0, 2.0):
            for a, b in ((0.6, 0.7), (1.0, 1.0)):
                omega_sum = p_sum(a, K, p, b, L)
                lhs = _term_S(S_functional(omega_sum)) ** p
                rhs = a * _term_S(S_functional(K)) ** p + b * _term_S(
                    S_functional(L)
                ) ** p
                records.append(
                    _record(
                        "xp_weighted_bm", f"n{n}/p{p}/a{a}b{b}", lhs, rhs, False, tol, eq_tol
                    )
                )
    return records


def _suite_xp_weighted_min(corpus, tol, eq_tol):
    records = []
    for n in (1, 2):
        grid = _grid_for(corpus, n)
        K = _perturbed(grid, 0.6, even=True)
        L = _perturbed(grid, 0.8, even=True, flavor=5)
        bd = boundary_data(K)
        SK = S_functional(K)
        SL = S_functional(L)
        ratio = _term_S(SL) / _term_S(SK)
        base = sphere_area(n) * SK**n * math.sqrt(SK * SK + 1.0)
        cosh_total = integrate(grid, bd.coshr * bd.area_density)
        for p in (0.5, 1.0, 2.0):
            mixed = integrate(
                grid,
                L.phi**p * bd.coshr * K.phi ** (-p) * bd.area_density,
            )
            lhs = mixed - cosh_total
            rhs = base * (ratio**p - 1.0)
            records.append(
                _record("xp_weighted_min", f"n{n}/I/p{p}", lhs, rhs, False, tol, eq_tol)
            )
            records.append(
                _record(
                    "xp_weighted_min",
                    f"n{n}/II/p{p}",
                    mixed,
                    base * ratio**p,
                    False,
                    tol,
                    eq_tol,
                )
            )
    return records


def _suite_xp_weighted_scaling(corpus, tol, eq_tol):
    records = []
    for n in (1, 2):
        grid = _grid_for(corpus, n)
        bodies = [
            ("perturbed-even", _perturbed(grid, 0.6, even=True), False),
            ("origin-ball", _origin_ball(grid, 0.8), True),
        ]
        for tag, K, eq in bodies:
            for p in (0.5, 1.0, 2.0):
                for t in (1.5, 2.5):
                    Kt = p_dilate(t, p, K)
                    lhs = _term_S(S_functional(Kt)) ** p
                    rhs = t * _term_S(S_functional(K)) ** p
                    records.append(
                        _record(
                            "xp_weighted_scaling",
                            f"n{n}/{tag}/p{p}/t{t}",
                            lhs,
                            rhs,
                            eq,
                            tol,
                            eq_tol,
                        )
                    )
    return records


_SUITE_FUNCS = {
    "bm_balls": _suite_bm_balls,
    "bm_k_n": _suite_bm_k_n,
    "af_chain": _suite_af_chain,
    "min_I_Kball": _suite_min_I_Kball,
    "min_I_p1_Lball": _suite_min_I_p1_Lball,
    "min_II": _suite_min_II,
    "weighted_af": _suite_weighted_af,
    "weighted_iso": _suite_weighted_iso,
    "weighted_vol_cmp": _suite_weighted_vol_cmp,
    "hk_n1": _suite_hk_n1,
    "euclid": _suite_euclid,
    "counterexample": _suite_counterexample,
    "xp_bm_general": _suite_xp_bm_general,
    "xp_min_I": lambda c, t, e: _suite_xp_min(c, t, e, "I"),
    "xp_min_II": lambda c, t, e: _suite_xp_min(c, t, e, "II"),
    "xp_weighted_bm": _suite_xp_weighted_bm,
    "xp_weighted_min": _suite_xp_weighted_min,
    "xp_weighted_scaling": _suite_xp_weighted_scaling,
}


def run_suite(
    name: str,
    corpus: Corpus | None = None,
    tol: float = DEFAULT_TOL,
    eq_tol: float = DEFAULT_EQ_TOL,
) -> list[CheckRecord]:
    """Run one named suite and return its records."""
    if name not in _SUITE_FUNCS:
        raise ValueError(f"unknown suite {name!r}; known: {', '.join(_SUITE_FUNCS)}")
    if corpus is None:
        corpus = Corpus()
    return _SUITE_FUNCS[name](corpus, tol, eq_tol)


def run_all(
    corpus: Corpus | None = None,
    tol: float = DEFAULT_TOL,
    eq_tol: float = DEFAULT_EQ_TOL,
    exploratory: bool = False,
) -> list[CheckRecord]:
    names = SUITES + (EXPLORATORY_SUITES if exploratory else ())
    records = []
    for name in names:
        records.extend(run_suite(name, corpus, tol, eq_tol))
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
