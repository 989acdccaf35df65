"""The exact tensor boundary: nested values to ints over one common
denominator, and the contraction that runs them in int64 under a proven
bound."""

import json
import math
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liemetric import (ConnectionTensor, LieAlgebra, Metric, affine_line, bivector_at,
                       dpi_residual, heisenberg, heisenberg_split_metric, leaf_frame_at,
                       levi_civita_product, load_algebra, load_metric, modular_field_value,
                       sharp_pi)
from liemetric.io import FormatError, load_points
from liemetric.scalars import (DEFAULT_TOL, MAX_EXPONENT_DIGITS, DimensionMismatchError, INT64_MAX,
                               _bounded, _floats, _scaled, _summed_terms, _unscaled, coerce,
                               contract, report_float, within)
from conftest import random_shear
from test_parser_fuzz import STRINGS


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
    np.array([[1, 0], [0, -1]], dtype=np.int8),
    [[np.int64(-5), Fraction(-1, 2)], [3, np.int16(0)]],
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
    """Also numpy-integer, empty, nested-empty and beyond-64-bit input:
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


@pytest.mark.parametrize("entry", [0.5, np.float64(2.0), 1.0, True, np.bool_(False), None])
def test_an_entry_that_is_not_exact_is_refused_in_exact_mode(entry):
    """A float is never read as exact, not even an integral one, and neither
    is a bool: the integer form and ``coerce`` refuse it, where the form once
    turned a float into the Fraction of its bits."""
    with pytest.raises(TypeError, match="not an exact entry"):
        _scaled([[1, entry], [Fraction(1, 3), "2/5"]], True)
    with pytest.raises(TypeError, match="not an exact entry"):
        coerce(entry, True)


def test_float_mode_parses_a_rational_string_where_numpy_cannot():
    """The float form reads strings as ``coerce`` does, mixed with other
    entries, and numbers to the bits numpy gives them."""
    got, scale = _scaled([["1/3", 2], [Fraction(1, 4), "-0.5"]], False)
    assert scale == 1 and got.dtype == float
    assert got.tolist() == [[1 / 3, 2.0], [0.25, -0.5]]
    values = [[0.1, 2], [np.int64(3), Fraction(1, 3)]]
    assert _scaled(values, False)[0].tobytes() == np.asarray(values, dtype=float).tobytes()


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


# -- the one string rule ------------------------------------------------------

_EXPONENT = re.compile(r"\s*[+-]?[\d_.]*[eE][+-]?(?P<digits>[\d_]*)\s*")


def _exact_read(text: str):
    """The string rule's oracle: Fraction(text), or None when Fraction
    refuses the text or its exponent has more than MAX_EXPONENT_DIGITS
    digits past leading zeros (asked first, as Fraction would build
    10**exponent)."""
    m = _EXPONENT.fullmatch(text)
    if m and len(m["digits"].replace("_", "").lstrip("0")) > MAX_EXPONENT_DIGITS:
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return None


def _float_read(text: str):
    """float(q) of the exact read q, or None when there is no q or float(q)
    overflows."""
    q = _exact_read(text)
    try:
        return None if q is None else float(q)
    except OverflowError:
        return None


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.sampled_from(STRINGS), st.text(max_size=6),
                 st.from_regex(r"\s?[+-]?[0-9_]{0,4}(\.[0-9]{0,3})?([eE][+-]?0?[0-9]{1,4})?"
                               r"(/[0-9]{1,3})?\s?", fullmatch=True)))
def test_a_string_reads_by_one_rule_in_both_modes(text):
    """The string samples of the file fuzzer and decimal-like strings, through
    every reader of an entry (``coerce``, the integer form, ``_floats``): a
    string reads exactly when its exact read q exists, as q; in float mode
    also only when float(q) does not overflow, as float(q). So "nan", "inf",
    "1/0" and a four-digit exponent are refused in both modes and "1e400" in
    float mode, where numpy read "nan", "inf" and "1e400" as NaN and inf."""
    q, f = _exact_read(text), _float_read(text)
    exact_reads = (lambda: coerce(text, True), lambda: _unscaled(*_scaled([text], True), True)[0])
    float_reads = (lambda: coerce(text, False), lambda: _scaled([text], False)[0][0],
                   lambda: _floats([[0.5, text]])[0][1])
    for read, want in [(r, q) for r in exact_reads] + [(r, f) for r in float_reads]:
        if want is None:
            with pytest.raises(ValueError):
                read()
        elif type(want) is Fraction:
            assert read() == want and type(read()) is Fraction
        else:  # the same bits, so +0.0 for "-0"
            assert float(read()).hex() == want.hex()


# -- the one operand rule of the public functions ---------------------------

ENTRIES = {"int": 2, "fraction": Fraction(1, 2), "string": "1/2", "numpy int": np.int64(2),
           "float": 0.5, "numpy float": np.float64(0.5), "nan": "nan", "inf": "inf",
           "1e400": "1e400", "1e9999": "1e9999", "bytes": b"nan"}
EXACT_KINDS = {"int", "fraction", "string", "numpy int"}
# strings no mode reads, and one that reads exactly but overflows a double
REFUSED, PAST_DOUBLE = {"nan", "inf", "1e9999"}, {"1e400"}


def _negated(x):
    return "-" + x if isinstance(x, str) else -x


def _loaded(load, doc, *args):
    """``load`` of a file holding doc; an entry JSON cannot hold is written as
    its string (a Fraction as 'p/q', a numpy integer as its digits)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc, default=str))
        return load(path, *args)


def _calls_in_mode(exact: bool) -> list:
    """The rows of ``_calls`` on exact or on float values."""
    h, split, one, line, line_one = (v if exact else v.to_float() for v in (
        heisenberg(), heisenberg_split_metric(), Metric.identity(3), affine_line(),
        Metric.identity(2)))
    conn = levi_civita_product(h, split)
    p = lambda x: [[1, x, 0], [0, 1, 0], [0, 0, 1]]
    mode = None if exact else False
    table = [
        ("bracket", lambda x: h.bracket([x, 0, 0], [0, 1, 0]),
         lambda: h.bracket([1, 0], [0, 1, 0])),
        ("adjoint_matrix", lambda x: h.adjoint_matrix([x, 1, 0]), lambda: h.adjoint_matrix([1])),
        ("Metric.apply", lambda x: split.apply([x, 0, 0], [0, 0, 1]),
         lambda: split.apply([1, 0, 0], [0, 0, 1, 0])),
        ("ConnectionTensor.apply", lambda x: conn.apply([x, 0, 0], [0, 1, 0]),
         lambda: conn.apply([1, 0], [0, 1, 0])),
        ("changed_basis", lambda x: h.changed_basis(p(x)), lambda: h.changed_basis([[1, 0], [0, 1]])),
        ("transported", lambda x: split.transported(p(x)),
         lambda: split.transported([[1, 0, 0], [0, 1], [0, 0, 1]])),
        ("bivector_at", lambda x: bivector_at(h, [x, 0, 1]), lambda: bivector_at(h, [0, 1])),
        ("sharp_pi", lambda x: sharp_pi(h, [0, 0, 1], [x, 1, 0]),
         lambda: sharp_pi(h, [0, 0, 1], [1, 0])),
        ("modular_field_value", lambda x: modular_field_value(line, line_one, [x, 1]),
         lambda: modular_field_value(line, line_one, [1, 0, 0])),
        ("leaf_frame_at", lambda x: leaf_frame_at(h, one, [x, 0, 1]),
         lambda: leaf_frame_at(h, one, [0, 0, 1, 0])),
        ("from_rows", lambda x: Metric.from_rows([[x, 0], [0, 1]], exact=mode),
         lambda: Metric.from_rows([[1, 0], [0]], exact=mode)),
        ("from_brackets", lambda x: LieAlgebra.from_brackets(2, {(0, 1): [0, x]}, exact=mode),
         lambda: LieAlgebra.from_brackets(2, {(0, 1): [0]}, exact=mode)),
        ("from_structure",
         lambda x: LieAlgebra.from_structure([[[0, 0], [0, x]], [[0, _negated(x)], [0, 0]]],
                                             exact=mode),
         lambda: LieAlgebra.from_structure([[[0, 0], [0, 1]], [[0, -1], [0]]], exact=mode)),
    ]
    suffix, read = ("", "operand") if exact else (" on float values", "float")
    scalar, file_read = ("rational", "file") if exact else ("float", "float")
    brackets = lambda v: {"dim": 2, "scalar": scalar, "brackets": [{"i": 1, "j": 2, "v": v}]}
    return [(name + suffix, call, short, read) for name, call, short in table] + [
        ("dpi_residual points" + suffix, lambda x: dpi_residual(h, one, [[0, 0, x]]),
         lambda: dpi_residual(h, one, [[0, 1]]), "point"),
        (f"load_algebra {scalar}", lambda x: _loaded(load_algebra, brackets([0, x])),
         lambda: _loaded(load_algebra, brackets([0])), file_read),
        (f"load_metric {scalar}",
         lambda x: _loaded(load_metric, {"scalar": scalar, "matrix": [[x, 0], [0, 1]]}),
         lambda: _loaded(load_metric, {"scalar": scalar, "matrix": [[1, 0], [0]]}), file_read),
    ]


def _calls():
    """Each public function with the entry x in one operand, as (name,
    call(x), call with a wrong-length operand, how it reads x). The
    functions of values run on exact values, reading x by the operand rule
    ("operand"), and on float values ("float"); dual points are read as
    floats in either mode ("point"); a file reads x in its declared mode,
    "file" (rational) or "float"."""
    return _calls_in_mode(True) + _calls_in_mode(False) + [
        ("load_points", lambda x: _loaded(load_points, [[0, 0, x]], 3),
         lambda: _loaded(load_points, [[0, 1]], 3), "point")]


def _mode(result):
    """True (exact) or False (float) when every entry agrees, else None."""
    if hasattr(result, "exact"):
        return result.exact
    flat = np.array(result, dtype=object).ravel().tolist()
    kinds = {type(x) for x in flat}
    return True if kinds == {Fraction} else False if kinds == {float} else None


@pytest.mark.parametrize("kind", ENTRIES)
@pytest.mark.parametrize("name, call, short, read", _calls(), ids=[c[0] for c in _calls()])
def test_every_public_function_reads_its_operands_by_the_one_rule(name, call, short, read, kind):
    """By the operand rule a call on exact values is exact exactly when every
    operand entry is an integer (numpy ones too), a Fraction or a 'p/q'
    string: a float is never promoted to the Fraction of its bits, nor
    refused. On float values every call is float. A dual point is read as
    floats, and a file in its declared mode: a rational file refuses a float
    entry (FormatError). A string is read by one rule everywhere: "nan",
    "inf" and a four-digit exponent are refused with ValueError, and "1e400"
    wherever it is read as a float; bytes are refused with TypeError, as
    float() would parse them. ``modular_field_value``, the dual
    residual and the points file give floats: their value is checked
    instead. A wrong-length operand raises DimensionMismatchError, and a
    wrong-length file entry FormatError."""
    x = ENTRIES[kind]
    exact_entry = kind in EXACT_KINDS or isinstance(x, str)
    exact = {"operand": exact_entry, "file": exact_entry or None}.get(read, False)
    if kind == "bytes":  # no call reads bytes, and a file holds them as the string "b'nan'"
        with pytest.raises(FormatError if name.startswith("load_") else TypeError):
            call(x)
    elif exact is None:  # a float entry in a rational file
        with pytest.raises(FormatError, match="rational entries must be integers or strings"):
            call(x)
    elif kind in REFUSED or (kind in PAST_DOUBLE and not exact):
        with pytest.raises(ValueError):
            call(x)
    elif name.startswith("modular_field_value"):  # affine_line's modular vector is (-1, 0)
        got = call(x)
        assert type(got) is float and got == report_float(-Fraction(x))
    elif read == "point":
        got = call(x)
        assert got == call(float(Fraction(x))) and type(np.ravel(got)[0].item()) is float
    else:
        assert _mode(call(x)) is exact
    with pytest.raises(FormatError if name.startswith("load_") else DimensionMismatchError):
        short()


def test_to_float_is_one_copy_for_every_value():
    """One ``to_float`` serves algebras, metrics and products: the copy rounds
    each entry once, keeps every other field (the algebra's name), and a
    float value is its own copy."""
    alg = LieAlgebra.from_brackets(2, {(0, 1): [Fraction(1, 3), Fraction(-2, 7)]}, name="r2")
    a = Metric.from_rows([[Fraction(1, 3), 1], [1, Fraction(-2, 7)]])
    conn = levi_civita_product(alg, a)
    for value, field in ((alg, "c"), (a, "matrix"), (conn, "tensor")):
        copy = value.to_float()
        want = [float(x) for x in np.ravel(np.array(getattr(value, field), dtype=object))]
        assert not copy.exact and np.ravel(getattr(copy, field)).tolist() == want
        assert copy.to_float() is copy
    assert alg.to_float().name == "r2"


def test_a_float_value_makes_every_call_float():
    """Exact operands on a float value give a float result."""
    h = heisenberg().to_float()
    a = heisenberg_split_metric().to_float()
    assert _mode(h.bracket([1, 0, 0], ["0", 1, 0])) is False
    assert not h.changed_basis([[1, 2, 0], [0, 1, 0], [0, 0, 1]]).exact
    assert not a.transported([[1, "1/3", 0], [0, 1, 0], [0, 0, 1]]).exact
    assert not bivector_at(h, [Fraction(1, 2), 0, 1]).exact
    assert not leaf_frame_at(heisenberg(), Metric.identity(3, exact=False), [1, 0, 1]).exact


def _given(values: np.ndarray, kind: str) -> list:
    """Fraction entries as an operand holds them: "exact" entries are by turns
    a Fraction, a 'p/q' string and an int (when integral); "float" ones are
    floats; "mixed" ones alternate a float with an exact entry."""
    def entry(k, x):
        if kind == "float" or (kind == "mixed" and k % 2 == 0):
            return float(x)
        return (x, str(x), int(x) if x.denominator == 1 else x)[k % 3]
    flat = [entry(k, x) for k, x in enumerate(values.ravel().tolist())]
    return np.array(flat, dtype=object).reshape(values.shape).tolist()


def _eight(alg, a, conn, u, v, p) -> dict:
    """The eight calls that compute through ``scalars.evaluate``."""
    return {"bracket": alg.bracket(u, v), "adjoint_matrix": alg.adjoint_matrix(u),
            "changed_basis": alg.changed_basis(p).c, "Metric.apply": a.apply(u, v),
            "transported": a.transported(p).matrix,
            "ConnectionTensor.apply": conn.apply(u, v), "bivector_at": bivector_at(alg, u).matrix,
            "sharp_pi": sharp_pi(alg, u, v)}


def _float_reference(c, m, t, u, v, p) -> dict:
    """The eight results from float arrays, by the einsum steps in the order
    each call ran them before ``scalars.evaluate``."""
    e = np.einsum
    moved = e("jb,ajl->abl", p, e("ia,ijl->ajl", p, e("ijk,lk->ijl", c, np.linalg.inv(p))))
    return {"bracket": e("j,jk->k", v, e("i,ijk->jk", u, c)),
            "adjoint_matrix": e("i,ijk->kj", u, c),
            "changed_basis": LieAlgebra.from_structure(moved.tolist(), exact=False,
                                                       check_jacobi=False).c,
            "Metric.apply": e("j,j->", e("i,ij->j", u, m), v),
            "transported": Metric.from_rows(e("ia,ib->ab", p, e("ij,jb->ib", m, p)).tolist(),
                                            exact=False).matrix,
            "ConnectionTensor.apply": e("j,jk->k", v, e("i,ijk->jk", u, t)),
            "bivector_at": e("ijk,k->ij", c, u), "sharp_pi": e("i,ij->j", v, e("ijk,k->ij", c, u))}


def _exact_reference(c, m, t, u, v, p) -> dict:
    """The eight results by explicit Fraction loops. The new constants c' of
    ``changed_basis`` are defined through the inverse of p, so they are
    compared as c' p^T, which equals p^T p^T c without it."""
    r = range(len(c))
    add = lambda terms: sum(terms, Fraction(0))
    return {"bracket": [add(u[i] * v[j] * c[i][j][k] for i in r for j in r) for k in r],
            "adjoint_matrix": [[add(u[i] * c[i][j][k] for i in r) for j in r] for k in r],
            "changed_basis": [[[add(p[i][a] * p[j][b] * c[i][j][k] for i in r for j in r)
                                for k in r] for b in r] for a in r],
            "Metric.apply": add(u[i] * m[i][j] * v[j] for i in r for j in r),
            "transported": [[add(p[i][a] * m[i][j] * p[j][b] for i in r for j in r) for b in r]
                            for a in r],
            "ConnectionTensor.apply": [add(u[i] * v[j] * t[i][j][k] for i in r for j in r)
                                       for k in r],
            "bivector_at": [[add(c[i][j][k] * u[k] for k in r) for j in r] for i in r],
            "sharp_pi": [add(v[i] * c[i][j][k] * u[k] for i in r for k in r) for j in r]}


def _plain(x):
    """Nested sequences and numpy scalars as nested lists of Python numbers."""
    if isinstance(x, (list, tuple, np.ndarray)):
        return [_plain(y) for y in x]
    return x.item() if isinstance(x, np.generic) else x


@pytest.mark.parametrize("n", range(1, 7))
def test_the_eight_calls_equal_a_reference(n):
    """Each call through ``scalars.evaluate`` on exact and float values, with
    exact (Fractions, 'p/q' strings, ints), float and mixed operands: an exact
    call gives the Fractions of explicit loops, a float one the bits of its
    einsum steps on the float entries (``repr``), whatever mix of entry
    types the operands hold."""
    rng = np.random.default_rng(n)
    fraction = lambda *shape: np.array(
        [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8)))
         for _ in range(math.prod(shape))], dtype=object).reshape(shape)
    for _ in range(2):
        c = fraction(n, n, n)
        c = c - c.transpose(1, 0, 2)
        m = fraction(n, n)
        m = m + m.T
        t, u, v = fraction(n, n, n), fraction(n), fraction(n)
        p = np.array(random_shear(rng, n), dtype=object)
        exact_ref = _exact_reference(c, m, t, u, v, p)
        float_ref = _float_reference(*(np.array(x.tolist(), dtype=float)
                                       for x in (c, m, t, u, v, p)))
        values = (LieAlgebra(dim=n, c=c, exact=True), Metric(matrix=m, exact=True),
                  ConnectionTensor(tensor=t, exact=True))
        for value_exact in (True, False):
            if not value_exact:
                values = tuple(x.to_float() for x in values)
            for kind in ("exact", "float", "mixed"):
                got = _eight(*values, *(_given(x, kind) for x in (u, v, p)))
                want = float_ref
                if value_exact and kind == "exact":
                    moved, want = got["changed_basis"], exact_ref
                    got["changed_basis"] = [[[sum(moved[a][b][l] * p[k][l] for l in range(n))
                                              for k in range(n)] for b in range(n)]
                                            for a in range(n)]
                for name, result in got.items():
                    assert repr(_plain(result)) == repr(_plain(want[name])), (name, kind)
