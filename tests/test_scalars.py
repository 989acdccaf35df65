"""The exact tensor boundary: nested values to ints over one common
denominator, and the contraction that runs them in int64 under a proven
bound."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liemetric.scalars import (DEFAULT_TOL, INT64_MAX, MAX_FLOAT_ENTRY, _bounded, _differ,
                               _scaled, _summed_terms, _unscaled, contract, report_float,
                               within)


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


def test_all_int_input_is_its_own_form_in_one_pass(monkeypatch):
    """Python ints alone come back as they are, over 1: no lcm, no per-entry
    conversion, the same int objects."""
    from liemetric import scalars

    def refuse(*args):
        raise AssertionError("the all-int input took the general path")

    monkeypatch.setattr(scalars, "_rational", refuse)
    monkeypatch.setattr(math, "lcm", refuse)
    values = [[2**80 + 1, -3], [0, 7]]
    got, scale = _scaled(values, True)
    assert scale == 1 and got.dtype == object and got.shape == (2, 2)
    assert all(x is y for x, y in zip(got.flat, [v for row in values for v in row]))
    assert _scaled([], True)[1] == 1 and _scaled([[]], True)[0].shape == (1, 0)


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


def _differ_reference(x, y, tol):
    """The float tolerance pass alone, with no equality shortcut."""
    return ~(np.abs(x - y) <= tol)


def test_equal_arrays_skip_the_tolerance_pass_with_the_same_mask():
    """Float mode: the mask is the tolerance pass's on arrays with entries at
    the cap (``MAX_FLOAT_ENTRY``: every float algebra and metric is finite
    and within it, so no other entry reaches the check) and near-equal
    entries, and on arrays equal entry by entry, which return before it."""
    rng = np.random.default_rng(4)
    specials = [-MAX_FLOAT_ENTRY, MAX_FLOAT_ENTRY, 0.0, -0.0, 1.0, 1.0 + 1e-11, 1.0 + 1e-9]
    for _ in range(200):
        shape = tuple(rng.integers(1, 5, size=rng.integers(1, 4)))
        x = rng.choice(specials, size=shape)
        near = x + rng.choice([0.0, 1e-11], size=shape)
        for y in (x.copy(), rng.choice(specials, size=shape), near,
                  np.where(rng.random(shape) < 0.2, -x, x)):
            got = _differ(x, y, False, DEFAULT_TOL)
            assert got.dtype == bool and np.array_equal(got, _differ_reference(x, y, DEFAULT_TOL))
    flat = np.array([1.0, -MAX_FLOAT_ENTRY, MAX_FLOAT_ENTRY, 2.5])
    assert not _differ(flat, flat.copy(), False, DEFAULT_TOL).any()


def test_report_float_reads_zero_only_for_an_exact_zero():
    tiny = Fraction(1, 10**400)  # 0.0 as a float
    assert report_float(tiny) == math.ulp(0.0) and report_float(Fraction(0)) == 0.0
    assert report_float(-tiny) == -math.ulp(0.0) and report_float(-10**-400) == 0.0
    assert report_float(Fraction(1, 3)) == float(Fraction(1, 3))
    assert report_float(0.0) == 0.0 and report_float(2.5) == 2.5
    assert math.isnan(report_float(math.nan))
    assert type(report_float(Fraction(7))) is float


def test_report_float_reads_inf_only_past_the_float_range():
    huge = Fraction(10**400)  # float() of it raises OverflowError
    assert report_float(huge) == math.inf and report_float(-huge) == -math.inf
    assert report_float(10**400) == math.inf and report_float(-(10**400)) == -math.inf
    assert report_float(Fraction(10**300)) == 1e300


def _einsum_dtypes(monkeypatch) -> list:
    """Records the operand dtypes of every np.einsum call."""
    seen, einsum = [], np.einsum

    def spy(spec, *ops, **kwargs):
        seen.append((spec, tuple(op.dtype for op in ops)))
        return einsum(spec, *ops, **kwargs)

    monkeypatch.setattr(np, "einsum", spy)
    return seen


def _constant(shape, value) -> np.ndarray:
    return np.full(shape, value, dtype=object)


# (x entry, y entry, k): every entry of x and y is that value, so each result
# entry is exactly k * x * y, the bound itself
EDGES = {
    "2**31-1, k=2, below": (2**31 - 1, 2**31 - 1, 2),
    "2**31, k=2, above": (2**31, 2**31, 2),
    "-2**31, k=2, above": (-(2**31), 2**31, 2),
    "2**31-1, k=3, above": (2**31 - 1, 2**31 - 1, 3),
    "2**62, k=1, below": (2**62, 1, 1),
    "-2**62, k=1, below": (-(2**62), -1, 1),
    "2**62, k=2, above": (2**62, 1, 2),
    "2**62 times 2, k=1, above": (2**62, 2, 1),
    "2**63-1, k=1, at the bound": (INT64_MAX, 1, 1),
    "2**63-1 times -1, k=1, at the bound": (INT64_MAX, -1, 1),
    "2**63, k=1, past int64": (2**63, 1, 1),
}


@pytest.mark.parametrize("x_entry, y_entry, k", EDGES.values(), ids=EDGES.keys())
def test_contract_is_exact_at_the_int64_edge(x_entry, y_entry, k, monkeypatch):
    """Each result entry is k * x * y, so the int64 path is taken exactly when
    k * max|x| * max|y| fits, and the entries equal the object einsum's
    either way, as Python ints. A bound without the factor k would pass the
    k = 2 and k = 3 cases to int64, where they wrap."""
    x, bx = _bounded(_constant((2, k), x_entry))
    y, by = _bounded(_constant((k, 3), y_entry))
    seen = _einsum_dtypes(monkeypatch)
    got = contract("ij,jk->ik", x, y, bx, by)
    fits = k * abs(x_entry) * abs(y_entry) <= INT64_MAX
    assert [dtypes for _, dtypes in seen] == [(np.dtype(np.int64 if fits else object),) * 2]
    assert got.dtype == object and all(type(v) is int for v in got.flat)
    assert got.tolist() == [[k * x_entry * y_entry] * 3] * 2


def test_contract_counts_every_summed_subscript():
    """k is the product of the sizes of the subscripts missing from the
    output, each counted once at its larger size (np.einsum broadcasts a
    labelled axis of size 1), with ellipsis axes broadcast."""
    a, b = np.zeros((2, 3, 4)), np.zeros((4, 5))
    assert _summed_terms("ijm,mk->ijk", a, b) == 4
    assert _summed_terms("ijm,mk->k", a, b) == 24
    assert _summed_terms("...jm,mk->...jk", a, b) == 4
    assert _summed_terms("ijm,...mk->...ijk", a, np.zeros((7, 4, 5))) == 4
    assert _summed_terms("im,km->ik", np.zeros((3, 3)), np.zeros((3, 3))) == 3
    assert _summed_terms("ii,i->", np.zeros((3, 3)), np.zeros(3)) == 3
    assert _summed_terms("ij,jk->ik", np.zeros((2, 0)), np.zeros((0, 2))) == 0
    assert _summed_terms("ij,jk->ik", np.zeros((2, 1)), np.zeros((3, 2))) == 3
    assert _summed_terms("ij,jk->ik", np.zeros((2, 3)), np.zeros((1, 2))) == 3


def test_contract_counts_a_broadcast_axis_at_its_full_size():
    """x's summed axis has size 1 and y's size 2: each entry sums two
    products of 2**62, which would wrap in int64."""
    x, bx = _bounded(np.array([[2**31]], dtype=object))
    y, by = _bounded(np.array([[2**31], [2**31]], dtype=object))
    assert contract("ij,jk->ik", x, y, bx, by).tolist() == [[2**63]]


def test_contract_without_bounds_is_np_einsum():
    rng = np.random.default_rng(20261101)
    x, y = rng.standard_normal((3, 4, 5)), rng.standard_normal((5, 2))
    got = contract("ijm,mk->ijk", x, y)
    assert got.tobytes() == np.einsum("ijm,mk->ijk", x, y).tobytes()


def test_contract_of_a_scalar_result_is_a_python_int():
    x, bx = _bounded(np.array([3, -4], dtype=object))
    assert type(contract("j,j->", x, x, bx, bx)) is int
    big, bb = _bounded(np.array([2**70, 1], dtype=object))
    assert contract("j,j->", big, big, bb, bb) == 2**140 + 1


def test_bounded_keeps_int64_only_when_every_entry_fits():
    ints = np.array([[3, -(2**63 - 1)], [0, 5]], dtype=object)
    narrow, bound = _bounded(ints)
    assert narrow.dtype == np.int64 and bound == 2**63 - 1
    assert narrow.tolist() == ints.tolist()
    for wide in ([-(2**63), 1], [2**63, 0], [2**80, 1]):
        array, bound = _bounded(np.array(wide, dtype=object))
        assert array.dtype == object and bound == max(map(abs, wide))
    assert _bounded(np.array([], dtype=object))[1] == 0


SPECS = ("ijm,mk->ijk", "jm,ikm->ijk", "...ijm,mkl->...ijkl", "ijm,...mk->...ijk",
         "jm,mkt->jkt", "jkm,mt->jkt", "km,mjt->jkt")


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_contract_equals_the_object_einsum(data):
    """Random specs of the kernels, sizes 0..4 (some axes of one operand 1,
    broadcast), entries up to 70 bits and bounds at or above the true
    maxima: equal to the object einsum, entry by entry, and every entry a
    Python int."""
    spec = data.draw(st.sampled_from(SPECS))
    sizes = {letter: data.draw(st.integers(0, 4), label=letter) for letter in "ijkmlt"}
    batch = tuple(data.draw(st.lists(st.integers(1, 2), max_size=2), label="batch"))
    inputs = spec.split("->")[0].split(",")

    def operand(term, label):
        head, _, tail = term.partition("...")
        ones = data.draw(st.sets(st.sampled_from("ijkmlt")), label=label + " broadcast")
        size = {t: 1 if t in ones else sizes[t] for t in sizes}
        shape = tuple(size[t] for t in head) + (batch if "..." in term else ()) + \
            tuple(size[t] for t in tail)
        bits = data.draw(st.integers(0, 70), label=label + " bits")
        entry = st.integers(-(2**bits), 2**bits)
        flat = data.draw(st.lists(entry, min_size=math.prod(shape),
                                  max_size=math.prod(shape)), label=label)
        ints = np.array(flat, dtype=object).reshape(shape)
        array, bound = _bounded(ints)
        slack = data.draw(st.integers(0, 3), label=label + " slack")
        return ints, array, bound * 2**slack

    (xo, x, bx), (yo, y, by) = operand(inputs[0], "x"), operand(inputs[1], "y")
    got = contract(spec, x, y, bx, by)
    want = np.einsum(spec, xo, yo)
    assert got.dtype == object and got.shape == want.shape
    assert got.tolist() == want.tolist()
    assert all(type(v) is int for v in got.flat)
