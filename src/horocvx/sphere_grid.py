"""Discrete spheres S^1 and S^2 with spectral calculus.

A Grid carries quadrature nodes and weights together with the antipodal
involution and the maximal exactly-representable degree (band_limit).
Scalar fields are plain value arrays in node order; the spectral
operators also take a stack of fields, shape (..., size), and return
outputs with the same leading axes.  Node values enter through one
rule: an entry that is not a number is an ArgumentError, and a field
without one value per node a ValueError.  `positive_field` is the one
finite-and-positive test, `exactly_constant` the one constant-stack test.

Each kind of grid is one private subclass of Grid that holds all of its
spectral code; `make_grid` picks the kind from n, `grid_from_json_dict`
from the JSON type, and no other function branches on it.  Its two pass
hooks are `_analyze`, one rfft of a stack, and `_fields(c, mu)`, one
irfft of the values, gradient and Hessian of c / (1 + mu lambda) on the
band, with one mu for the stack or one per field.  `_UniformS1`, on S^1, fills one spectrum buffer with all three.
`_GLProductS2`, on S^2, holds the associated Legendre functions and
their theta derivatives as one padded tensor PdP[., m, node, l], zero
for l < m, so that its Legendre analysis and synthesis are each one
real matmul that broadcasts over the stack.

`resolvent` is the one spectral pass: (1 - mu Laplacian)^{-1} v with its
gradient and Hessian in the orthonormal frame {d_theta, (1/sin theta)
d_phi}.  At mu = 0 it is the band projection, and a derivative pass:
`derivatives` returns its gradient and Hessian.  A stack of finite,
exactly constant fields makes no FFT call: zero derivatives, R c = c.
`make_grid` returns the same read-only Grid for equal arguments, so its
tables are built once per process.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Grid",
    "make_grid",
    "gauss_legendre",
    "ArgumentError",
    "as_integer",
    "as_real",
    "positive_field",
    "exactly_constant",
    "sphere_area",
    "integrate",
    "derivatives",
    "resolvent",
    "frame_vectors",
    "ambient_gradient",
    "antipodal",
    "even_error",
    "even_project",
    "resample",
    "refine",
    "grid_to_json_dict",
    "grid_from_json_dict",
    "field_to_json_dict",
    "field_from_json_dict",
    "load_field",
]

# How far from 1 the norm of a `resample` target may be.
UNIT_TOL = 1e-12


def _node_table(name: str, doc: str) -> property:
    """The read-only node table `name` of a grid's cache, as a property."""

    def get(grid: Grid) -> np.ndarray:
        if name not in grid._cache:
            raise AttributeError(f"{name} is a node table of S^2 grids only")
        return grid._cache[name]

    return property(get, doc=doc)


@dataclass(frozen=True)
class Grid:
    """Quadrature grid on S^n, n in {1, 2}.

    n=1: resolution (N,), nodes theta_j = 2 pi j / N, weights 2 pi / N.
    n=2: resolution (L, M) with M = 2 L; Gauss-Legendre in cos(polar)
    times uniform azimuth, node order row-major polar-major.
    Build grids with `make_grid`; their arrays are read-only.  Each kind
    provides the pass hooks `_analyze` and `_fields(c, mu)`, and
    `_evaluate`, `_frames` and `_json_dict`.
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

    theta = _node_table("theta", "Node angles on S^1; the L polar angles, ascending, on S^2.")
    phi = _node_table("phi", "The M azimuth angles of an S^2 grid.")
    x = _node_table("x", "cos of the polar angles of an S^2 grid (Gauss-Legendre nodes).")
    wx = _node_table("wx", "Gauss-Legendre weights of the polar nodes of an S^2 grid.")
    s = _node_table("s", "sin of the polar angles of an S^2 grid.")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Grid)
            and self.n == other.n
            and self.resolution == other.resolution
        )

    def __hash__(self) -> int:
        return hash((self.n, self.resolution))


class ArgumentError(ValueError):
    """A value a caller passes breaks the rule of the kernel it feeds (a
    plain ValueError checks a computed result); the CLI's exit 2."""


def as_integer(value, what: str) -> int:
    """value as an int; ArgumentError unless it is an integer (numpy's too)."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise ArgumentError(f"{what} must be an integer, got {value!r}")


def as_real(value, what: str) -> float:
    """value as a float; ArgumentError unless it is a finite number (numpy's
    too; not a bool, not a string)."""
    if isinstance(value, np.generic):
        value = value.item()
    if (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    ):
        return float(value)
    raise ArgumentError(f"{what} must be a finite number, got {value!r}")


def _frozen(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


# ---------------------------------------------------------------------------
# S^1: the uniform FFT grid


class _UniformS1(Grid):
    """The uniform grid on S^1.  Its modes are the Fourier modes
    k = 0..N/2 with Laplace eigenvalues k^2; the Nyquist mode k = N/2
    carries no derivative information."""

    dim, area, json_type = 1, 2.0 * math.pi, "uniform_s1"

    @classmethod
    def make(cls, resolution) -> Grid:
        N = as_integer(resolution, "n=1 node count")
        if N % 2 != 0 or N < 4:
            raise ArgumentError(f"n=1 grid needs an even node count >= 4, got {resolution}")
        return cls._build(N)

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def _build(N: int) -> Grid:
        theta = 2.0 * math.pi * np.arange(N) / N
        nodes = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        weights = np.full(N, 2.0 * math.pi / N)
        anti = (np.arange(N) + N // 2) % N
        _frozen(theta, nodes, weights, anti)
        g = _UniformS1(1, (N,), nodes, weights, anti, N // 2 - 1)
        g._cache["theta"] = theta
        return g

    @functools.cached_property
    def _wavenumbers(self) -> np.ndarray:
        """k = 0..N/2 as floats, read-only."""
        k = np.arange(self.resolution[0] // 2 + 1, dtype=float)
        _frozen(k)
        return k

    @functools.cached_property
    def _multipliers(self) -> tuple[np.ndarray, np.ndarray]:
        """(i k) and (i k)^2 for k = 0..N/2."""
        ik = 1j * self._wavenumbers
        mults = (ik, ik ** 2)
        _frozen(*mults)
        return mults

    def _analyze(self, values: np.ndarray) -> np.ndarray:
        """Fourier coefficients of each field of a stack (..., N), one rfft."""
        return np.fft.rfft(values) / self.resolution[0]

    def _fields(self, c: np.ndarray, mu):
        """(values, gradient, Hessian) of c / (1 + mu k^2), with the Nyquist
        mode dropped, from one irfft; mu is a number or one per field.

        The spectra (c N), (c i k) N and (c (i k)^2) N fill one buffer,
        order-major, so that each block is laid out as the product of its
        own would be and rounds the same."""
        N, k = self.resolution[0], self._wavenumbers
        c = c / (1.0 + np.asarray(mu)[..., None] * k * k)
        c[..., -1] = 0.0
        spectra = np.empty((3,) + c.shape, dtype=complex)
        np.multiply(c, N, out=spectra[0])
        for block, m in zip(spectra[1:], self._multipliers):
            np.multiply(c, m, out=block)
            np.multiply(block, N, out=block)
        v, g, H = np.fft.irfft(spectra, n=N)
        return v, g[..., None], H[..., None, None]

    def _evaluate(self, values: np.ndarray, pts: np.ndarray) -> np.ndarray:
        c = self._analyze(values)
        theta = np.arctan2(pts[:, 1], pts[:, 0])
        K = self.resolution[0] // 2
        # (T, K) phases k theta; modes 1..K-1 count twice, Nyquist once.
        kt = theta[:, None] * np.arange(1, K + 1)
        ck = 2.0 * c[1:]
        ck[-1] = c[K].real
        return c[0].real + np.cos(kt) @ ck.real - np.sin(kt) @ ck.imag

    @functools.cached_property
    def _frames(self) -> np.ndarray:
        theta = self._cache["theta"]
        frames = np.stack([-np.sin(theta), np.cos(theta)], axis=1)[:, None, :]
        _frozen(frames)
        return frames

    def _json_dict(self) -> dict:
        return {"type": self.json_type, "nodes": self.resolution[0]}

    @classmethod
    def _from_json_dict(cls, d: dict) -> Grid:
        return cls.make(d["nodes"])


# ---------------------------------------------------------------------------
# S^2: the Gauss-Legendre x FFT grid

# Newton on the Legendre recurrence converges in 3-4 steps from these
# guesses; a step below GL_NEWTON_TOL leaves the nodes at rounding level.
GL_NEWTON_TOL = 1e-14
GL_NEWTON_MAX_ITER = 20


def gauss_legendre(L: int) -> tuple[np.ndarray, np.ndarray]:
    """The L-point Gauss-Legendre rule on [-1, 1]: nodes ascending, weights.

    Newton's method on P_L(x) = 0, with P_L and P_L' from the Legendre
    recurrence of `_legendre_columns` (m = 0), started from the guesses
    cos(pi (i - 1/4) / (L + 1/2)); the weights are the Christoffel sums
    1 / sum_{l<L} p_l(x)^2 of the orthonormal p_l at the converged nodes.
    """
    L = as_integer(L, "Gauss-Legendre order")
    if L < 1:
        raise ArgumentError(f"Gauss-Legendre needs at least one node, got {L}")
    # q_l = sqrt((2l + 1) / (4 pi)) P_l, so p_l^2 = 2 pi q_l^2 and
    # (x^2 - 1) q_L' = L (x q_L - c q_{L-1}).  s is unused at m = 0.
    c = math.sqrt((2 * L + 1) / (2 * L - 1))
    x = np.cos(math.pi * (np.arange(L, 0, -1) - 0.25) / (L + 0.5))
    for _ in range(GL_NEWTON_MAX_ITER):
        q = _legendre_columns(0, L, x, None)
        dx = (x * x - 1.0) * q[:, L] / (L * (x * q[:, L] - c * q[:, L - 1]))
        x = x - dx
        if np.max(np.abs(dx)) < GL_NEWTON_TOL:
            break
    else:
        raise RuntimeError(f"Gauss-Legendre Newton did not converge at L = {L}")
    q = _legendre_columns(0, L - 1, x, None)
    return x, 1.0 / (2.0 * math.pi * np.sum(q * q, axis=1))


def _legendre_columns(m: int, lmax: int, x: np.ndarray, s: np.ndarray | None) -> np.ndarray:
    """Orthonormal associated Legendre P_l^m(x) for l = m..lmax, with
    s = sqrt(1 - x^2) (read for m >= 1 only).

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


def _real_matmul(table: np.ndarray, z: np.ndarray) -> np.ndarray:
    """table @ z for a real table (..., I, J) and complex z (..., J): one
    real matmul on the (re, im) view of z that broadcasts over the leading
    axes, with no complex copy of the table.  Each (I, J) @ (J, 2) product
    is the gemm of a one-field call, so a stack rounds as its fields do."""
    z = np.ascontiguousarray(z)
    return (table @ z.view(float).reshape(z.shape + (2,))).view(complex)[..., 0]


class _GLProductS2(Grid):
    """The Gauss-Legendre x uniform product grid on S^2, band limit
    B = L - 1.  Its modes are the orthonormal spherical harmonics of
    degree l <= B, coefficients a[..., m, l] (zero for l < m), with
    Laplace eigenvalues l (l + 1)."""

    dim, area, json_type = 2, 4.0 * math.pi, "gl_product"

    @classmethod
    def make(cls, resolution) -> Grid:
        L = as_integer(resolution, "n=2 polar count")
        if L < 2:
            raise ArgumentError(f"n=2 grid needs a polar count >= 2, got {resolution}")
        return cls._build(L)

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def _build(L: int) -> Grid:
        M = 2 * L
        x, wx = gauss_legendre(L)
        # Symmetrize so the antipodal map is exact in floating point.
        x = 0.5 * (x - x[::-1])
        wx = 0.5 * (wx + wx[::-1])
        order = np.argsort(-x)  # theta ascending from the north pole
        x, wx = x[order], wx[order]
        theta = np.arccos(np.clip(x, -1.0, 1.0))
        phi = 2.0 * math.pi * np.arange(M) / M
        s = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
        st, ct = s[:, None], x[:, None]
        cp, sp = np.cos(phi)[None, :], np.sin(phi)[None, :]
        nodes = np.stack(
            [(st * cp).ravel(), (st * sp).ravel(), np.broadcast_to(ct, (L, M)).ravel()], axis=1
        )
        weights = (wx[:, None] * (2.0 * math.pi / M)).repeat(M).reshape(L, M).ravel()
        ii, jj = np.meshgrid(np.arange(L), np.arange(M), indexing="ij")
        anti = ((L - 1 - ii) * M + (jj + M // 2) % M).ravel()
        _frozen(theta, phi, x, wx, s, nodes, weights, anti)
        g = _GLProductS2(2, (L, M), nodes, weights, anti, L - 1)
        g._cache.update(theta=theta, phi=phi, x=x, wx=wx, s=s)
        return g

    @functools.cached_property
    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(PdP, ll1): PdP[0, m, j, l] = P[m, j, l] is P_l^m at polar node j
        and PdP[1] = dP its theta derivative, one (2, B+1, L, B+1) array,
        exactly zero for l < m; ll1[l] = l (l + 1) for l = 0..B."""
        x, s, B = self.x, self.s, self.band_limit
        PdP = np.zeros((2, B + 1, x.shape[0], B + 1))
        P, dP = PdP
        for m in range(B + 1):
            P[m, :, m:] = _legendre_columns(m, B, x, s)
        # d/dtheta by the degree-lowering recurrence; c(l, m) = 0 for l <= m.
        l = np.arange(B + 1, dtype=float)
        m = l[:, None]
        c = np.sqrt(np.abs((2 * l + 1) * (l * l - m * m) / (2 * l - 1))) * (l > m)
        np.multiply(l * x[:, None], P, out=dP)
        dP[..., 1:] -= c[:, None, 1:] * P[..., :-1]
        dP /= s[:, None]
        _frozen(PdP)
        return PdP, l * (l + 1.0)

    @functools.cached_property
    def _node_factors(self) -> tuple[np.ndarray, ...]:
        """s, 1/s, x/s, s s and x/(s s) at each node, read-only."""
        M = self.resolution[1]
        s, x = np.repeat(self.s, M), np.repeat(self.x, M)
        factors = (s, np.repeat(1.0 / self.s, M), x / s, s * s, x / (s * s))
        _frozen(*factors)
        return factors

    def _analyze(self, values: np.ndarray) -> np.ndarray:
        """Band-limited coefficients a[..., m, l], shape (..., B+1, B+1), of
        each field of a stack (..., size): one rfft."""
        L, M = self.resolution
        G = np.fft.rfft(values.reshape(values.shape[:-1] + (L, M)), axis=-1) / M
        w = np.swapaxes(self.wx[:, None] * G[..., : self.band_limit + 1], -1, -2)
        return 2.0 * math.pi * _real_matmul(self._tables[0][0].transpose(0, 2, 1), w)

    def _fields(self, a: np.ndarray, mu):
        """(values, gradient, Hessian) of a / (1 + mu l (l + 1)), mu a number
        or one per field, from one irfft of all their polar profiles; the
        Hessian's profiles hold the gradient's."""
        PdP, ll1 = self._tables
        a = a / (1.0 + np.asarray(mu)[..., None, None] * ll1)
        # Polar profiles per order m; azimuthal derivatives are 1j m and -m m.
        m = np.arange(self.band_limit + 1)[:, None]
        vs = _real_matmul(PdP, a[..., None, :, :])
        v_m, vt_m = vs[..., 0, :, :], vs[..., 1, :, :]
        # A zero azimuthal spectrum (..., 6, L, M/2 + 1) and its view
        # (..., 6, B+1, L) that holds the profiles.
        L, M = self.resolution
        G = np.zeros(a.shape[:-2] + (6, L, M // 2 + 1), dtype=complex)
        profiles = np.swapaxes(G[..., : self.band_limit + 1], -1, -2)
        profiles[..., 0, :, :] = vt_m
        np.multiply(1j * m, v_m, out=profiles[..., 1, :, :])
        profiles[..., 2, :, :] = _real_matmul(PdP[0], ll1 * a)
        np.multiply(1j * m, vt_m, out=profiles[..., 3, :, :])
        np.multiply(-(m * m), v_m, out=profiles[..., 4, :, :])
        profiles[..., 5, :, :] = v_m
        fields = np.fft.irfft(G * M, n=M, axis=-1).reshape(G.shape[:-2] + (self.size,))
        vt, fp, lap, ftp, fpp, v = (fields[..., i, :] for i in range(6))
        s, inv_s, x_s, ss, x_ss = self._node_factors
        g = np.empty(vt.shape + (2,))
        g[..., 0] = vt
        np.multiply(fp, inv_s, out=g[..., 1])
        # theta-theta from the associated Legendre ODE; mixed and azimuthal
        # entries carry the Christoffel corrections of the orthonormal frame.
        xvt, fss = x_s * vt, fpp / ss
        H = np.empty(vt.shape + (2, 2))
        H[..., 0, 0] = -xvt - lap - fss
        H[..., 0, 1] = ftp / s - x_ss * fp
        H[..., 1, 0] = H[..., 0, 1]
        H[..., 1, 1] = fss + xvt
        return v, g, H

    def _evaluate(self, values: np.ndarray, pts: np.ndarray) -> np.ndarray:
        """Order by order, so that memory holds one order's columns."""
        a = self._analyze(values)
        x = np.clip(pts[:, 2], -1.0, 1.0)
        s = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
        phi = np.arctan2(pts[:, 1], pts[:, 0])
        B = self.band_limit
        out = np.zeros(pts.shape[0])
        for m in range(B + 1):
            contrib = _real_matmul(_legendre_columns(m, B, x, s), a[m, m:])
            if m == 0:
                out += contrib.real
            else:
                e = np.exp(1j * m * phi)
                out += 2.0 * (contrib * e).real
        return out

    @functools.cached_property
    def _frames(self) -> np.ndarray:
        L, M = self.resolution
        theta = np.repeat(self.theta, M)
        phi = np.tile(self.phi, L)
        ct, st = np.cos(theta), np.sin(theta)
        cp, sp = np.cos(phi), np.sin(phi)
        e_theta = np.stack([ct * cp, ct * sp, -st], axis=1)
        e_phi = np.stack([-sp, cp, np.zeros_like(cp)], axis=1)
        frames = np.stack([e_theta, e_phi], axis=1)
        _frozen(frames)
        return frames

    def _json_dict(self) -> dict:
        L, M = self.resolution
        return {"type": self.json_type, "polar": L, "azimuth": M}

    @classmethod
    def _from_json_dict(cls, d: dict) -> Grid:
        polar = as_integer(d["polar"], "polar count")
        if as_integer(d.get("azimuth", 2 * polar), "azimuth count") != 2 * polar:
            raise ArgumentError("gl_product grids require azimuth = 2 * polar")
        return cls.make(polar)


_KINDS = (_UniformS1, _GLProductS2)


def _kind(n: int) -> type[Grid]:
    for kind in _KINDS:
        if n == kind.dim:
            return kind
    raise ArgumentError(f"n must be 1 or 2, got {n!r}")


def sphere_area(n: int) -> float:
    """Surface area of the unit n-sphere, n in {1, 2}."""
    return _kind(n).area


def make_grid(n: int, resolution) -> Grid:
    """The standard grid on S^n, shared by all callers.

    For n=1, resolution is the even node count N >= 4.  For n=2 it is the
    polar count L >= 2; the polar nodes are the Gauss-Legendre rule of
    `gauss_legendre` (Newton on the Legendre recurrence), the azimuth
    count is fixed at M = 2 L and the band limit at L - 1.  A resolution
    that is not an integer or breaks its kind's rule is an ArgumentError.
    Equal arguments return the same Grid object, built once.
    """
    return _kind(n).make(resolution)


def refine(grid: Grid) -> Grid:
    """Grid of the same family at doubled resolution."""
    return make_grid(grid.n, 2 * grid.resolution[0])


def _node_values(grid: Grid, values, stack: bool = True, what: str = "a field") -> np.ndarray:
    """values as floats, one per node along the last axis; a stack of
    fields only where stack is true.  Else a ValueError naming what, an
    ArgumentError for an entry that is not a number."""
    v = np.asarray(values)
    # A string or None makes a non-number dtype; a bool among numbers does not.
    if v.dtype.kind not in "iuf" or not isinstance(values, np.ndarray) and any(
        isinstance(x, (bool, np.bool_)) for x in np.asarray(values, dtype=object).flat
    ):
        raise ArgumentError(f"{what} must hold numbers, not strings, bools or nulls")
    if v.shape[-1:] != (grid.size,) or (v.ndim > 1 and not stack):
        want = f"(..., {grid.size})" if stack else f"({grid.size},)"
        raise ValueError(
            f"{what} of shape {v.shape} does not fit a grid of {grid.size} nodes; "
            f"expected shape {want}"
        )
    return v.astype(float, copy=False)


def positive_field(grid: Grid, values, what: str) -> np.ndarray:
    """values as one field of the grid (`_node_values`); a ValueError
    naming what unless it is finite and positive at every node."""
    v = _node_values(grid, values, stack=False, what=what)
    # One pass each for min and max; NaN propagates into both.
    if not (0.0 < v.min() and v.max() < math.inf):
        raise ValueError(f"{what} must be finite and positive at every node")
    return v


def exactly_constant(v: np.ndarray) -> bool:
    """Whether every field of a stack of node values (..., size), size >=
    2, is finite and exactly constant: all its nodes equal, no tolerance."""
    # Most fields differ at their first two nodes; two scalar reads reject them.
    return bool(v.size and v.item(0) == v.item(1) and (v == v[..., :1]).all()
                and np.isfinite(v[..., 0]).all())


def integrate(grid: Grid, values: np.ndarray) -> float:
    """Quadrature of a node field: the sum of weight * value over the nodes
    by numpy's pairwise reduction (blocks of up to 128 terms in eight
    interleaved partial sums, halved above that).  Its error is
    O(log2 N) eps sum|w v|, Higham's (ceil(log2 N) + 1) eps sum|w v| for
    plain pairwise order (Accuracy and Stability of Numerical Algorithms,
    2nd ed., 2002, section 4.2); the products w v are rounded already, so
    a correctly rounded sum of them is off by up to eps sum|w v| too.  The
    order is fixed and the reduction single-threaded, so the bits depend on
    neither the CPU nor the BLAS thread count; `weights @ v` is not used
    because the BLAS dot kernel, and so its bits, follows the CPU."""
    v = _node_values(grid, values, stack=False)
    return float(np.add.reduce(grid.weights * v))


def antipodal(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Pull a field back through the antipodal map z -> -z; a stack
    (..., size) field by field."""
    return _node_values(grid, values)[..., grid.antipodal_index]


def even_error(grid: Grid, values: np.ndarray) -> float:
    """Sup-norm deviation from antipodal evenness, over a whole stack
    (..., size) when given one."""
    v = _node_values(grid, values)
    return float(np.abs(v - v[..., grid.antipodal_index]).max())


def even_project(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Even part (f + f o antipodal) / 2; a stack (..., size) field by
    field.  A node-wise average: no spectral pass."""
    v = _node_values(grid, values)
    return 0.5 * (v + v[..., grid.antipodal_index])


# ---------------------------------------------------------------------------
# public spectral operators


def derivatives(grid: Grid, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradient (size, n) and covariant Hessian (size, n, n) in the
    orthonormal frame: `resolvent` at mu = 0, whose S^1 Nyquist drop leaves
    them as they are.  A stack (..., size) gives (..., size, n) and (...,
    size, n, n); finite, exactly constant fields give zeros with no pass."""
    return resolvent(grid, values, 0.0)[1:]


def _resolvent_mu(mu, stack: tuple[int, ...]):
    """mu as a float, or as a float array of the stack's shape (one mu per
    field); ArgumentError unless every mu is a finite number >= 0."""
    if np.ndim(mu) == 0:
        mu = as_real(mu, "resolvent mu")
        ok = mu >= 0.0
    else:
        mu = np.asarray(mu)
        if mu.shape != stack:
            raise ArgumentError(
                f"resolvent mu must be a number or one per field, shape {stack}, "
                f"got shape {mu.shape}"
            )
        ok = mu.dtype.kind in "iuf" and bool(np.all(np.isfinite(mu) & (mu >= 0)))
        mu = mu.astype(float)
    if not ok:
        raise ArgumentError(f"resolvent mu must be finite and nonnegative, got {mu!r}")
    return mu


def resolvent(
    grid: Grid, values: np.ndarray, mu
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """R v = (1 - mu Laplacian)^{-1} v on the band, with its gradient and
    Hessian, all from one analysis and one synthesis: the one spectral pass.

    R multiplies each mode by 1 / (1 + mu lambda), lambda = k^2 on S^1
    and l (l + 1) on S^2, and drops what lies above the band (the Nyquist
    bin on S^1), so R v is band-limited and R at mu = 0 is the band
    projection.  A stack of fields (..., size) is resolved in one pass,
    each output with the same leading axes; mu is one number for the whole
    stack, or an array of the stack's leading shape with one mu per field,
    and each field keeps the bits of its own one-field pass.  A stack of
    finite, exactly constant fields returns a copy, R c = c, with zero
    derivatives and no pass.  A mu that is negative or not a finite
    number, or a mu array of another shape, is an ArgumentError.
    """
    v = _node_values(grid, values)
    mu = _resolvent_mu(mu, v.shape[:-1])
    if exactly_constant(v):
        shape = v.shape + (grid.n,)
        return v.copy(), np.zeros(shape), np.zeros(shape + (grid.n,))
    return grid._fields(grid._analyze(v), mu)


def frame_vectors(grid: Grid) -> np.ndarray:
    """Ambient coordinates of the orthonormal frame, shape (size, n, n+1),
    cached read-only per grid."""
    return grid._frames


def ambient_gradient(grid: Grid, gradient: np.ndarray) -> np.ndarray:
    """A frame gradient (size, n) of v in ambient coordinates, (size, n+1):
    column i is <D v, D x_i>, as the frame vectors are the D x_i."""
    return np.einsum("ia,iac->ic", gradient, grid._frames)


def resample(grid: Grid, values: np.ndarray, targets) -> np.ndarray:
    """Band-limited synthesis of a grid field at arbitrary directions.

    targets may be a Grid (its nodes are used) or an array of unit
    directions with shape (T, n+1).  Targets of another shape, or a row
    that is not finite or whose norm is more than UNIT_TOL from 1, are a
    ValueError; rows are not normalized.
    """
    values = _node_values(grid, values, stack=False)
    if isinstance(targets, Grid):
        if targets.n != grid.n:
            raise ValueError("target grid lives on a different sphere")
        targets = targets.nodes
    pts = np.asarray(targets, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != grid.n + 1:
        raise ValueError(f"targets must have shape (T, {grid.n + 1}), got {pts.shape}")
    off_unit = ~(np.abs(np.linalg.norm(pts, axis=1) - 1.0) <= UNIT_TOL)
    if off_unit.any():
        row = int(np.argmax(off_unit))
        raise ValueError(f"target row {row} is not a unit direction: {pts[row]}")
    return grid._evaluate(values, pts)


# ---------------------------------------------------------------------------
# serialization


def grid_to_json_dict(grid: Grid) -> dict:
    return grid._json_dict()


def grid_from_json_dict(n: int, d: dict) -> Grid:
    for kind in _KINDS:
        if d["type"] == kind.json_type:
            if n != kind.dim:
                raise ArgumentError(f"{kind.json_type} grids live on S^{kind.dim}")
            return kind._from_json_dict(d)
    raise ArgumentError(f"unknown grid type {d.get('type')!r}")


def field_to_json_dict(grid: Grid, values: np.ndarray, kind: str | None = None) -> dict:
    d = {
        "n": grid.n,
        "grid": grid_to_json_dict(grid),
        "values": [float(v) for v in _node_values(grid, values, stack=False)],
    }
    if kind is not None:
        d["kind"] = kind
    return d


def field_from_json_dict(d: dict) -> tuple[Grid, np.ndarray, str | None]:
    grid = grid_from_json_dict(as_integer(d["n"], "n"), d["grid"])
    return grid, _node_values(grid, d["values"], stack=False, what="field values"), d.get("kind")


def load_field(path) -> tuple[Grid, np.ndarray, str | None]:
    with open(path) as fh:
        return field_from_json_dict(json.load(fh))
