"""Every field constructor rejects a NaN or an infinity wherever it sits,
and every p rule a non-finite p."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horocvx.euclid_bridge import commute_check, euclid_mixed_volume_p, firey_sum
from horocvx.hconvex import SupportField, support_of_ball
from horocvx.lorentz import origin
from horocvx.psum import p_dilate
from horocvx.sphere_grid import ArgumentError, make_grid, positive_field

CONSTRUCTORS = {
    "SupportField": SupportField,
    "positive_field": lambda grid, values: positive_field(grid, values, "f"),
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


K = support_of_ball(make_grid(1, 32), origin(1), 0.5)
P_RULES = {
    "p_dilate": lambda p: p_dilate(1.5, p, K),
    "firey_sum": lambda p: firey_sum(1.0, K, p, 1.0, K),
    "commute_check": lambda p: commute_check(1.0, K, p, 1.0, K),
    "euclid_mixed_volume_p": lambda p: euclid_mixed_volume_p(K, K, p),
}


@pytest.mark.parametrize("name", list(P_RULES))
@pytest.mark.parametrize("p", [math.nan, math.inf])
def test_non_finite_p_is_an_argument_error(name, p):
    P_RULES[name](1.5)
    with pytest.raises(ArgumentError, match="finite number, got"):
        P_RULES[name](p)
