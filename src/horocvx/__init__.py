"""Numerics for horospherically convex domains in hyperbolic space.

Domains are encoded by horospherical support fields phi = e^u on a
structured sphere grid (S^1 or S^2).  The package computes p-sums,
modified and weighted quermassintegrals, Steiner expansions, surface
measures, curvature-equation residuals, normalized curvature flows,
and the Euclidean projection bridge, plus inequality verification
suites over deterministic corpora.

scipy (quadrature, root finding, Gauss-Legendre nodes) is imported
inside the functions that call it, so importing the package and the
CLI loads numpy only.
"""

import os as _os

_threads = _os.environ.get("HOROCVX_THREADS")
if _threads:
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        _os.environ.setdefault(_var, _threads)

__version__ = "0.1.0"

from . import (  # noqa: E402
    euclid_bridge,
    flow,
    hconvex,
    lorentz,
    problems,
    psum,
    quermass,
    sphere_grid,
    verify,
)

__all__ = [
    "__version__",
    "sphere_grid",
    "lorentz",
    "hconvex",
    "psum",
    "quermass",
    "problems",
    "flow",
    "euclid_bridge",
    "verify",
]
