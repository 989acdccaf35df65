"""The exact tensor boundary: nested values to ints over one common denominator."""

import math
from fractions import Fraction

import numpy as np
import pytest

from liemetric.scalars import DEFAULT_TOL, _scaled, _unscaled, within


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
    [[True, False], [False, True]],
    [[True, Fraction(-1, 2)], [3, False]],
    [[np.int64(3), np.int32(-2)], [np.uint8(7), Fraction(1, 3)]],
    np.arange(-3, 3).reshape(2, 3),
    [],
    [[]],
    [[], []],
    [[[]]],
    [[2**64 + 1, -(2**70)], [0, 3**50]],
    [[2**65, Fraction(1, 3)], [Fraction(-5, 2**66), -(2**64)]],
])
def test_scaled_is_unchanged_for_fraction_int_string_and_mixed_input(values):
    """Also bool, numpy-integer, empty, nested-empty and beyond-64-bit input:
    every entry comes out a Python int, so no integer form can wrap."""
    got, scale = _scaled(values, True)
    want, want_scale = _scaled_reference(values)
    assert scale == want_scale
    assert got.shape == want.shape and got.dtype == want.dtype == object
    assert got.tolist() == want.tolist()
    assert all(type(x) is int for x in got.flat)
    assert np.array(_unscaled(got, scale, True), dtype=object).ravel().tolist() == \
        [Fraction(x) for x in np.array(values, dtype=object).flat]


def test_all_int_input_builds_no_fraction(monkeypatch):
    """Python ints pass through with scale 1: no Fraction is built per entry."""
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    assert Fraction(1, 2) == Fraction(2, 4) and built  # the spy sees construction
    built.clear()
    values = [[[1, -2], [0, 2**80]], [[-(3**60), 5], [7, 0]]]
    got, scale = _scaled(values, True)
    assert built == []
    assert scale == 1 and got.tolist() == values
    assert all(type(x) is int for x in got.flat)


def test_numpy_integers_become_python_ints_and_cannot_wrap():
    """A numpy integer scaled by a large common denominator stays exact: as an
    int64 numerator, 2**62 * 4 would wrap to 0."""
    got, scale = _scaled([[np.int64(2**62), Fraction(1, 4)]], True)
    assert scale == 4 and got.tolist() == [[2**64, 1]]
    assert all(type(x) is int for x in got.flat)


def test_within_is_an_exact_zero_or_a_float_tolerance():
    """Exact mode asks for zero, however small the value; float mode asks for
    |value| <= tol, so NaN fails."""
    tiny = Fraction(1, 10**400)  # 0.0 as a float
    assert within(Fraction(0), True) and not within(tiny, True) and not within(-tiny, True)
    assert within(DEFAULT_TOL, False) and within(-DEFAULT_TOL, False)
    assert not within(2 * DEFAULT_TOL, False) and within(2 * DEFAULT_TOL, False, 1e-9)
    assert not within(math.nan, False) and not within(math.inf, False)
    assert type(within(np.float64(0.0), False)) is bool
