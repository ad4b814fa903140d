"""Every field constructor rejects a NaN or an infinity wherever it sits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horocvx.euclid_bridge import EuclideanSupport
from horocvx.hconvex import SupportField
from horocvx.problems import validate_f
from horocvx.sphere_grid import ScalarField, make_grid

CONSTRUCTORS = {
    "SupportField": SupportField,
    "ScalarField": ScalarField,
    "EuclideanSupport": EuclideanSupport,
    "validate_f": lambda grid, values: validate_f(values, grid),
}


@st.composite
def positive_with_one_bad(draw):
    """A positive array of an S^1 grid's length, one entry non-finite."""
    size = 2 * draw(st.integers(2, 40))
    values = draw(
        st.lists(
            st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False),
            min_size=size,
            max_size=size,
        )
    )
    values[draw(st.integers(0, size - 1))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return np.array(values)


@pytest.mark.parametrize("name", list(CONSTRUCTORS))
@settings(max_examples=40, deadline=None)
@given(values=positive_with_one_bad())
def test_non_finite_entry_is_rejected(name, values):
    grid = make_grid(1, values.size)
    construct = CONSTRUCTORS[name]
    construct(grid, np.where(np.isfinite(values), values, 1.0))
    with pytest.raises(ValueError, match="finite"):
        construct(grid, values)
