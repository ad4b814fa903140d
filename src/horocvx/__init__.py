"""Numerics for horospherically convex domains in hyperbolic space.

Domains are encoded by horospherical support fields phi = e^u on a
structured sphere grid (S^1 or S^2).  The package computes p-sums,
modified and weighted quermassintegrals, Steiner expansions, surface
measures, curvature-equation residuals, normalized curvature flows,
and the Euclidean projection bridge, plus inequality verification
suites over deterministic corpora.

The only dependency is numpy.  The S^2 grid's Gauss-Legendre rule is
Newton's method on the Legendre recurrence (`sphere_grid.gauss_legendre`),
and the ball quermassintegrals are closed forms, so no module loads scipy.

Importing the package loads none of its submodules, nor numpy: each one
is imported on first use, by ``import horocvx.quermass`` or by the
attribute ``horocvx.quermass`` (PEP 562).  A command-line run therefore
loads only the modules its command uses.
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


def __getattr__(name):
    if name in __all__:
        import importlib

        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
