"""Shared fixtures."""

# horocvx before numpy, so that HOROCVX_THREADS sets the BLAS thread count.
from horocvx import flow, quermass  # isort: skip

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
