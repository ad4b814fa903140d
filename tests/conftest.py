"""Shared fixtures."""

# horocvx before numpy, so that HOROCVX_THREADS sets the BLAS thread count.
from horocvx import euclid_bridge, flow, hconvex, quermass, sphere_grid  # isort: skip

import sys

import numpy as np
import pytest


@pytest.fixture
def fft_counts(monkeypatch):
    """Calls into numpy.fft.rfft and irfft made while the test runs."""
    counts = {"rfft": 0, "irfft": 0}
    for name in counts:
        real = getattr(np.fft, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return counts


@pytest.fixture
def wk_calls(monkeypatch):
    """(K, k) of every `wk_value` call made while the test runs, through
    quermass or through flow's own binding."""
    calls = []
    real = quermass.wk_value

    def recorded(K, k):
        calls.append((K, k))
        return real(K, k)

    for module in (quermass, flow):
        monkeypatch.setattr(module, "wk_value", recorded)
    return calls


def spy_on(monkeypatch, real) -> list:
    """The arguments of every call to the package function real made while
    the test runs, through any package module's binding; holding each
    argument keeps its id its own."""
    calls = []

    def recorded(*args):
        calls.append(args)
        return real(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "horocvx":
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, recorded)
    return calls


@pytest.fixture
def p_tensor_calls(monkeypatch):
    """(A, m) of every `p_tensor` call made while the test runs (`spy_on`)."""
    return spy_on(monkeypatch, hconvex.p_tensor)


@pytest.fixture
def ambient_gradient_calls(monkeypatch):
    """(grid, gradient) of every `sphere_grid.ambient_gradient` call made
    while the test runs (`spy_on`)."""
    return spy_on(monkeypatch, sphere_grid.ambient_gradient)


@pytest.fixture
def euclid_form_calls(monkeypatch):
    """(K,) of every `euclid_bridge.euclid_form` call made while the test
    runs (`spy_on`)."""
    return spy_on(monkeypatch, euclid_bridge.euclid_form)
