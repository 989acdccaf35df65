"""The exact tensor boundary: nested values to ints over one common denominator."""

import math
from fractions import Fraction

import numpy as np
import pytest

from liemetric.scalars import _scaled, _unscaled


def _scaled_reference(values):
    """Every entry rebuilt with Fraction(x), then put over the lcm of denominators."""
    entries = np.array(values, dtype=object)
    fracs = [Fraction(x) for x in entries.flat]
    scale = math.lcm(*(f.denominator for f in fracs))
    ints = [f.numerator * (scale // f.denominator) for f in fracs]
    return np.array(ints, dtype=object).reshape(entries.shape), scale


@pytest.mark.parametrize("values", [
    [[Fraction(1, 2), Fraction(-3, 4)], [Fraction(5), Fraction(0)]],
    [[1, -2, 0], [7, 3, 11]],
    [["1/2", "-3"], ["5/6", "0"]],
    [[Fraction(2, 3), 4, "-5/9"], [0, "7", Fraction(-1, 6)]],
    [[[Fraction(1, 3), 2], ["3/5", 0]], [[-1, Fraction(4, 7)], ["-2/3", 1]]],
    [Fraction(7, 10)],
])
def test_scaled_is_unchanged_for_fraction_int_string_and_mixed_input(values):
    got, scale = _scaled(values, True)
    want, want_scale = _scaled_reference(values)
    assert scale == want_scale
    assert got.shape == want.shape and got.dtype == want.dtype == object
    assert got.tolist() == want.tolist()
    assert all(type(x) is int for x in got.flat)
    assert np.array(_unscaled(got, scale, True), dtype=object).ravel().tolist() == \
        [Fraction(x) for x in np.array(values, dtype=object).flat]
