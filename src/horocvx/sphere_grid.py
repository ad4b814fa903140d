"""Discrete spheres S^1 and S^2 with spectral calculus.

A Grid carries quadrature nodes and weights together with the antipodal
involution and the maximal exactly-representable degree (band_limit).
Scalar fields are plain value arrays in node order.  Differentiation is
spectral: FFT on S^1; on S^2 an azimuthal FFT (one rfft per analysis,
one irfft per synthesized field) and associated Legendre transforms held
as one padded tensor P[m, node, l], zero for l < m, so that analysis and
synthesis over all orders m are each one batched real matmul.  Gradients
and Hessians are expressed in the orthonormal frame
{d_theta, (1/sin theta) d_phi}; `derivatives` returns both from one
analysis, and `gradient` / `hessian` are views of it.  `resolvent`
applies (1 - mu Laplacian)^{-1}, diagonal in the same bases, and returns
the result with its derivatives from one analysis.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Grid",
    "ScalarField",
    "make_grid",
    "sphere_area",
    "integrate",
    "derivatives",
    "resolvent",
    "gradient",
    "hessian",
    "laplacian",
    "frame_vectors",
    "antipodal",
    "even_error",
    "even_project",
    "band_project",
    "resample",
    "refine",
    "grid_to_json_dict",
    "grid_from_json_dict",
    "field_to_json_dict",
    "field_from_json_dict",
    "save_field",
    "load_field",
]


@dataclass
class Grid:
    """Quadrature grid on S^n, n in {1, 2}.

    n=1: resolution (N,), nodes theta_j = 2 pi j / N, weights 2 pi / N.
    n=2: resolution (L, M) with M = 2 L; Gauss-Legendre in cos(polar)
    times uniform azimuth, node order row-major polar-major.
    """

    n: int
    resolution: tuple[int, ...]
    nodes: np.ndarray
    weights: np.ndarray
    antipodal_index: np.ndarray
    band_limit: int
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def size(self) -> int:
        return self.nodes.shape[0]

    def _table(self, name: str) -> np.ndarray:
        if name not in self._cache:
            raise AttributeError(f"{name} is a node table of S^2 grids only")
        view = self._cache[name].view()
        view.flags.writeable = False
        return view

    @property
    def theta(self) -> np.ndarray:
        """Node angles on S^1; the L polar angles, ascending, on S^2."""
        return self._table("theta")

    @property
    def phi(self) -> np.ndarray:
        """The M azimuth angles of an S^2 grid."""
        return self._table("phi")

    @property
    def x(self) -> np.ndarray:
        """cos of the polar angles of an S^2 grid (Gauss-Legendre nodes)."""
        return self._table("x")

    @property
    def wx(self) -> np.ndarray:
        """Gauss-Legendre weights of the polar nodes of an S^2 grid."""
        return self._table("wx")

    @property
    def s(self) -> np.ndarray:
        """sin of the polar angles of an S^2 grid."""
        return self._table("s")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Grid)
            and self.n == other.n
            and self.resolution == other.resolution
        )

    def __hash__(self) -> int:
        return hash((self.n, self.resolution))


@dataclass
class ScalarField:
    """Values of a scalar function at the nodes of a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.size,):
            raise ValueError(
                f"field has {self.values.shape} values, grid has {self.grid.size} nodes"
            )
        if not (-math.inf < self.values.min() and self.values.max() < math.inf):
            raise ValueError("field values must be finite")


def sphere_area(n: int) -> float:
    """Surface area of the unit n-sphere, n in {1, 2}."""
    if n == 1:
        return 2.0 * math.pi
    if n == 2:
        return 4.0 * math.pi
    raise ValueError(f"n must be 1 or 2, got {n}")


def _integer(value, what: str) -> int:
    """value as an int; ValueError unless it is an integer (numpy's too)."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{what} must be an integer, got {value!r}")


def make_grid(n: int, resolution) -> Grid:
    """Build the standard grid on S^n.

    For n=1, resolution is the even node count N >= 4.  For n=2 it is the
    polar count L >= 2; the azimuth count is fixed at M = 2 L and the band
    limit at L - 1.  A resolution that is not an integer is a ValueError.
    """
    if n == 1:
        N = _integer(resolution, "n=1 node count")
        if N <= 0 or N % 2 != 0 or N < 4:
            raise ValueError(f"n=1 grid needs an even node count >= 4, got {resolution}")
        theta = 2.0 * math.pi * np.arange(N) / N
        nodes = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        weights = np.full(N, 2.0 * math.pi / N)
        anti = (np.arange(N) + N // 2) % N
        g = Grid(1, (N,), nodes, weights, anti, N // 2 - 1)
        g._cache["theta"] = theta
        return g
    if n == 2:
        L = _integer(resolution, "n=2 polar count")
        if L < 2:
            raise ValueError(f"n=2 grid needs a polar count >= 2, got {resolution}")
        from scipy.special import roots_legendre

        M = 2 * L
        x, wx = roots_legendre(L)
        # Symmetrize so the antipodal map is exact in floating point.
        x = 0.5 * (x - x[::-1])
        wx = 0.5 * (wx + wx[::-1])
        order = np.argsort(-x)  # theta ascending from the north pole
        x = x[order]
        wx = wx[order]
        theta = np.arccos(np.clip(x, -1.0, 1.0))
        phi = 2.0 * math.pi * np.arange(M) / M
        s = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
        st, ct = s[:, None], x[:, None]
        cp, sp = np.cos(phi)[None, :], np.sin(phi)[None, :]
        nodes = np.stack(
            [
                (st * cp).ravel(),
                (st * sp).ravel(),
                np.broadcast_to(ct, (L, M)).ravel(),
            ],
            axis=1,
        )
        weights = (wx[:, None] * (2.0 * math.pi / M)).repeat(M).reshape(L, M).ravel()
        ii, jj = np.meshgrid(np.arange(L), np.arange(M), indexing="ij")
        anti = ((L - 1 - ii) * M + (jj + M // 2) % M).ravel()
        g = Grid(2, (L, M), nodes, weights, anti, L - 1)
        g._cache.update(theta=theta, phi=phi, x=x, wx=wx, s=s)
        return g
    raise ValueError(f"n must be 1 or 2, got {n}")


def refine(grid: Grid) -> Grid:
    """Grid of the same family at doubled resolution."""
    if grid.n == 1:
        return make_grid(1, 2 * grid.resolution[0])
    return make_grid(2, 2 * grid.resolution[0])


def integrate(grid: Grid, values: np.ndarray) -> float:
    """Quadrature of a node field, deterministic compensated summation."""
    v = np.asarray(values, dtype=float)
    return math.fsum((grid.weights * v).tolist())


def antipodal(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Pull a field back through the antipodal map z -> -z."""
    return np.asarray(values)[grid.antipodal_index]


def even_error(grid: Grid, values: np.ndarray) -> float:
    """Sup-norm deviation from antipodal evenness."""
    v = np.asarray(values, dtype=float)
    return float(np.max(np.abs(v - v[grid.antipodal_index])))


def even_project(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Even part (f + f o antipodal) / 2."""
    v = np.asarray(values, dtype=float)
    return 0.5 * (v + v[grid.antipodal_index])


def band_project(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Projection onto the grid's derivative-resolved band.

    Node values can carry components the spectral derivatives do not see
    (the Nyquist bin on S^1, everything above the Legendre band on S^2).
    Evolution driven by pointwise terms can pump those components, so
    time steppers project each accepted state back onto the band.
    """
    v = np.asarray(values, dtype=float)
    if grid.n == 1:
        c = np.fft.rfft(v)
        c[grid.resolution[0] // 2] = 0.0
        return np.fft.irfft(c, n=grid.size)
    P = _s2_tables(grid)[0]
    return _s2_synth_many(grid, [_real_matmul(P, _s2_analyze(grid, v))])[0]


# ---------------------------------------------------------------------------
# S^1 spectral calculus


def _s1_coeffs(grid: Grid, values: np.ndarray) -> np.ndarray:
    return np.fft.rfft(np.asarray(values, dtype=float)) / grid.resolution[0]


def _s1_synth(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    N = grid.resolution[0]
    return np.fft.irfft(coeffs * N, n=N)


def _s1_derivative_multipliers(grid: Grid, order: int) -> np.ndarray:
    """(i k)^order for k = 0..N/2, cached read-only per grid."""
    key = ("s1_mult", order)
    mult = grid._cache.get(key)
    if mult is None:
        N = grid.resolution[0]
        k = np.arange(N // 2 + 1, dtype=float)
        mult = (1j * k) ** order
        mult[-1] = 0.0  # Nyquist mode carries no derivative information
        mult.flags.writeable = False
        grid._cache[key] = mult
    return mult


# ---------------------------------------------------------------------------
# S^2 spectral calculus


def _legendre_columns(m: int, lmax: int, x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Orthonormal associated Legendre P_l^m(x) for l = m..lmax.

    Normalized so that 2 pi * int_{-1}^{1} P_l^m P_l'^m dx = delta_{l l'}.
    Returns shape (len(x), lmax - m + 1).
    """
    npts = x.shape[0]
    out = np.empty((npts, lmax - m + 1))
    pmm = np.full(npts, 1.0 / math.sqrt(4.0 * math.pi))
    for mm in range(1, m + 1):
        pmm = -math.sqrt((2 * mm + 1) / (2 * mm)) * s * pmm
    out[:, 0] = pmm
    if lmax > m:
        out[:, 1] = math.sqrt(2 * m + 3) * x * pmm
    for l in range(m + 2, lmax + 1):
        a = math.sqrt((4 * l * l - 1) / (l * l - m * m))
        b = math.sqrt(((l - 1) ** 2 - m * m) / (4 * (l - 1) ** 2 - 1))
        out[:, l - m] = a * (x * out[:, l - m - 1] - b * out[:, l - m - 2])
    return out


def _s2_tables(grid: Grid):
    """Legendre tables (P, dP, ll1) at the grid's polar nodes, cached.

    P[m, j, l] is P_l^m at polar node j and dP[m, j, l] its theta
    derivative, both of shape (B+1, L, B+1) and exactly zero for l < m;
    ll1[l] = l (l + 1) for l = 0..B.
    """
    tab = grid._cache.get("s2_tables")
    if tab is None:
        x, s, B = grid._cache["x"], grid._cache["s"], grid.band_limit
        P = np.zeros((B + 1, x.shape[0], B + 1))
        for m in range(B + 1):
            P[m, :, m:] = _legendre_columns(m, B, x, s)
        # d/dtheta by the degree-lowering recurrence; c(l, m) = 0 for l <= m.
        l = np.arange(B + 1, dtype=float)
        m = l[:, None]
        c = np.sqrt(np.abs((2 * l + 1) * (l * l - m * m) / (2 * l - 1))) * (l > m)
        P_lower = np.concatenate([np.zeros_like(P[:, :, :1]), P[:, :, :-1]], axis=2)
        dP = (l * x[:, None] * P - c[:, None, :] * P_lower) / s[:, None]
        P.flags.writeable = dP.flags.writeable = False
        tab = grid._cache["s2_tables"] = (P, dP, l * (l + 1.0))
    return tab


def _real_matmul(table: np.ndarray, z: np.ndarray) -> np.ndarray:
    """table @ z for real table and complex z: one real (batched) matmul
    on the (re, im) view of z, with no complex copy of the table."""
    z = np.ascontiguousarray(z)
    return (table @ z.view(float).reshape(z.shape + (2,))).view(complex)[..., 0]


def _s2_analyze(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Band-limited coefficients a[m, l], shape (B+1, B+1), zero for l < m."""
    L, M = grid.resolution
    P = _s2_tables(grid)[0]
    G = np.fft.rfft(np.asarray(values, dtype=float).reshape(L, M), axis=1) / M
    w = (grid._cache["wx"][:, None] * G[:, : grid.band_limit + 1]).T
    return 2.0 * math.pi * _real_matmul(P.transpose(0, 2, 1), w)


def _s2_synth_many(grid: Grid, profiles) -> list[np.ndarray]:
    """One field per (B+1, L) polar profile table[m] @ a[m], one irfft each."""
    L, M = grid.resolution
    G = np.zeros((L, M // 2 + 1), dtype=complex)
    out = []
    for prof in profiles:
        G[:, : grid.band_limit + 1] = prof.T
        out.append(np.fft.irfft(G * M, n=M, axis=1).ravel())
    return out


# ---------------------------------------------------------------------------
# public spectral operators


def derivatives(
    grid: Grid, values: np.ndarray, first: bool = True, second: bool = True
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Gradient (size, n) and covariant Hessian (size, n, n) in the
    orthonormal frame, both from one spectral analysis.

    first / second select the outputs; one not asked for is returned as
    None and costs no synthesis.  On S^2 the gradient comes free with the
    Hessian, whose synthesis already holds both of its profiles.
    """
    return _spectral_pass(grid, values, None, first, second)[1:]


def resolvent(
    grid: Grid, values: np.ndarray, mu: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """R v = (1 - mu Laplacian)^{-1} v on the band, with its gradient and
    Hessian, all from one spectral analysis.

    R multiplies each mode by 1 / (1 + mu lambda), lambda = k^2 on S^1
    and l (l + 1) on S^2, and drops what lies above the band (the Nyquist
    bin on S^1), so R v is band-limited.
    """
    return _spectral_pass(grid, values, mu, True, True)


def _spectral_pass(grid: Grid, values: np.ndarray, mu, first: bool, second: bool):
    """(R v or None, gradient, Hessian) of v, or of R v when mu is given."""
    v = None
    if grid.n == 1:
        c = _s1_coeffs(grid, values)
        g = H = None
        if mu is not None:
            N = grid.resolution[0]
            k = np.arange(N // 2 + 1, dtype=float)
            c = c / (1.0 + mu * k * k)
            c[-1] = 0.0
            v = _s1_synth(grid, c)
        if first:
            g = _s1_synth(grid, c * _s1_derivative_multipliers(grid, 1))[:, None]
        if second:
            H = _s1_synth(grid, c * _s1_derivative_multipliers(grid, 2))[:, None, None]
        return v, g, H
    P, dP, ll1 = _s2_tables(grid)
    a = _s2_analyze(grid, values)
    M = grid.resolution[1]
    if mu is not None:
        a = a / (1.0 + mu * ll1)
    # Polar profiles per order m; azimuthal derivatives are 1j m and -m m.
    m = np.arange(grid.band_limit + 1)[:, None]
    v_m = _real_matmul(P, a)
    vt_m = _real_matmul(dP, a)
    fp_m = (1j * m) * v_m
    if mu is not None:
        (v,) = _s2_synth_many(grid, [v_m])
    if second:
        lap_m = _real_matmul(P, ll1 * a)
        vt, lap, fp, ftp, fpp = _s2_synth_many(
            grid, [vt_m, lap_m, fp_m, (1j * m) * vt_m, -(m * m) * v_m]
        )
    else:
        vt, fp = _s2_synth_many(grid, [vt_m, fp_m])
    g = None
    if first:
        g = np.stack([vt, fp * np.repeat(1.0 / grid._cache["s"], M)], axis=1)
    if not second:
        return v, g, None
    s = np.repeat(grid._cache["s"], M)
    x = np.repeat(grid._cache["x"], M)
    # theta-theta from the associated Legendre ODE; mixed and azimuthal
    # entries carry the Christoffel corrections of the orthonormal frame.
    ftt = -(x / s) * vt - lap - fpp / (s * s)
    H = np.empty((grid.size, 2, 2))
    H[:, 0, 0] = ftt
    H[:, 0, 1] = ftp / s - (x / (s * s)) * fp
    H[:, 1, 0] = H[:, 0, 1]
    H[:, 1, 1] = fpp / (s * s) + (x / s) * vt
    return v, g, H


def gradient(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Gradient in the orthonormal frame, shape (size, n)."""
    return derivatives(grid, values, second=False)[0]


def hessian(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Covariant Hessian in the orthonormal frame, shape (size, n, n)."""
    return derivatives(grid, values, first=False)[1]


def laplacian(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Laplace-Beltrami operator applied spectrally."""
    if grid.n == 1:
        c = _s1_coeffs(grid, values)
        return _s1_synth(grid, c * _s1_derivative_multipliers(grid, 2))
    P, _, ll1 = _s2_tables(grid)
    a = _s2_analyze(grid, values)
    return _s2_synth_many(grid, [_real_matmul(P, -ll1 * a)])[0]


def frame_vectors(grid: Grid) -> np.ndarray:
    """Ambient coordinates of the orthonormal frame, shape (size, n, n+1)."""
    if grid.n == 1:
        theta = grid._cache["theta"]
        e = np.stack([-np.sin(theta), np.cos(theta)], axis=1)
        return e[:, None, :]
    L, M = grid.resolution
    theta = np.repeat(grid._cache["theta"], M)
    phi = np.tile(grid._cache["phi"], L)
    ct, st = np.cos(theta), np.sin(theta)
    cp, sp = np.cos(phi), np.sin(phi)
    e_theta = np.stack([ct * cp, ct * sp, -st], axis=1)
    e_phi = np.stack([-sp, cp, np.zeros_like(cp)], axis=1)
    return np.stack([e_theta, e_phi], axis=1)


def resample(grid: Grid, values: np.ndarray, targets) -> np.ndarray:
    """Band-limited synthesis of a grid field at arbitrary directions.

    targets may be a Grid (its nodes are used) or an array of unit
    directions with shape (T, n+1).
    """
    if isinstance(targets, Grid):
        if targets.n != grid.n:
            raise ValueError("target grid lives on a different sphere")
        pts = targets.nodes
    else:
        pts = np.asarray(targets, dtype=float)
        if pts.ndim == 1:
            pts = pts[None, :]
    if pts.shape[1] != grid.n + 1:
        raise ValueError(f"targets must have {grid.n + 1} components")
    if grid.n == 1:
        c = _s1_coeffs(grid, values)
        theta = np.arctan2(pts[:, 1], pts[:, 0])
        N = grid.resolution[0]
        out = np.full(theta.shape, c[0].real)
        for k in range(1, N // 2):
            out += 2.0 * (
                c[k].real * np.cos(k * theta) - c[k].imag * np.sin(k * theta)
            )
        out += c[N // 2].real * np.cos((N // 2) * theta)
        return out
    a = _s2_analyze(grid, values)
    x = np.clip(pts[:, 2], -1.0, 1.0)
    s = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    B = grid.band_limit
    out = np.zeros(pts.shape[0])
    for m in range(B + 1):
        contrib = _real_matmul(_legendre_columns(m, B, x, s), a[m, m:])
        if m == 0:
            out += contrib.real
        else:
            e = np.exp(1j * m * phi)
            out += 2.0 * (contrib * e).real
    return out


# ---------------------------------------------------------------------------
# serialization


def grid_to_json_dict(grid: Grid) -> dict:
    if grid.n == 1:
        return {"type": "uniform_s1", "nodes": grid.resolution[0]}
    return {"type": "gl_product", "polar": grid.resolution[0], "azimuth": grid.resolution[1]}


def grid_from_json_dict(n: int, d: dict) -> Grid:
    if d["type"] == "uniform_s1":
        if n != 1:
            raise ValueError("uniform_s1 grids live on S^1")
        return make_grid(1, d["nodes"])
    if d["type"] == "gl_product":
        if n != 2:
            raise ValueError("gl_product grids live on S^2")
        polar = _integer(d["polar"], "polar count")
        if _integer(d.get("azimuth", 2 * polar), "azimuth count") != 2 * polar:
            raise ValueError("gl_product grids require azimuth = 2 * polar")
        return make_grid(2, polar)
    raise ValueError(f"unknown grid type {d.get('type')!r}")


def field_to_json_dict(grid: Grid, values: np.ndarray, kind: str | None = None) -> dict:
    d = {
        "n": grid.n,
        "grid": grid_to_json_dict(grid),
        "values": [float(v) for v in np.asarray(values, dtype=float)],
    }
    if kind is not None:
        d["kind"] = kind
    return d


def field_from_json_dict(d: dict) -> tuple[Grid, np.ndarray, str | None]:
    grid = grid_from_json_dict(_integer(d["n"], "n"), d["grid"])
    values = np.asarray(d["values"], dtype=float)
    if values.shape != (grid.size,):
        raise ValueError(
            f"field has {values.shape[0]} values, grid has {grid.size} nodes"
        )
    return grid, values, d.get("kind")


def save_field(path, grid: Grid, values: np.ndarray, kind: str | None = None) -> None:
    with open(path, "w") as fh:
        json.dump(field_to_json_dict(grid, values, kind), fh, indent=1)
        fh.write("\n")


def load_field(path) -> tuple[Grid, np.ndarray, str | None]:
    with open(path) as fh:
        return field_from_json_dict(json.load(fh))
