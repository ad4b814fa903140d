"""Shared fixtures."""

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
