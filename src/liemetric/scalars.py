"""Scalar handling for the two arithmetic modes.

Exact mode holds ``fractions.Fraction`` entries (ints and 'p/q' strings
coerce); float mode holds machine doubles and every zero test carries an
explicit tolerance. ``within`` is that zero test, the one rule every residual
verdict reads, and ``report_float`` the one rule for showing a value as a
float, which reads 0.0 only for an exact zero. Mixed arithmetic silently
degrades to float, so containers track an ``exact`` flag and coerce their
entries up front.

Tensor operations run one contraction per tensor expression in both modes.
In exact mode a tensor enters it as integers with one common denominator
(``_scaled``), so the contraction does integer arithmetic with no gcd per
operation; the result is divided by its scale once, back into Fractions
(``_unscaled``). In float mode the contraction is ``np.einsum``, except in
the search's two hot kernels, the product's right sides and the
compatibility defect (``metric._product_rhs``, ``metric._defect_array``),
which run one ``np.matmul`` each: BLAS, whose bits are fixed for one BLAS
build but may differ between builds, within the rounding bound of exact
arithmetic. The defect kernel reads c as exactly antisymmetric, which every
``LieAlgebra`` form is. An input of Python ints alone passes through
``_scaled`` as it is, in one pass (scale 1, no Fraction per entry); other
integers (bool, numpy integers) become Python ints, so no entry of the
integer form can wrap.

The two-operand contractions of the Jacobi check, the product solve and the
skew and compatibility residuals go through ``contract``. Given bounds on |x|
and |y|, it contracts in int64 only when k * max|x| * max|y| <= 2**63 - 1,
where k is the number of products each result entry sums: every partial sum
is then at most that in magnitude, so nothing can wrap. Otherwise it
contracts object arrays of Python ints. Either way it returns an object array
of Python ints, so the sums, squares and divisions after it stay unbounded.
Float arrays contract as they are, through ``np.einsum``; the two kernels'
float operands do not reach it. Neither do the int64 residues mod a prime of
the search certificate's screen (``search._may_be_compatible``): they take
the kernels' matmul, whose sums the prime keeps within int64.

The integer form of an algebra, a metric or a product is part of the value
(``IntegerForm``): built once when the value is made, read-only, and read by
every kernel through ``scaled(exact)``, so no kernel rescales its inputs.
The exact form also keeps its largest magnitude and, when that fits, an int64
copy, built on first read (``operand``): that is what ``contract`` reads.
Fractions are built only at the public boundary: the fields of a value, and
the numbers a kernel returns.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from fractions import Fraction

import numpy as np

DEFAULT_TOL = 1e-10

INT64_MAX = 2**63 - 1

RATIONALIZE_MAX_DENOMINATOR = 10**6

# the largest magnitude of a float entry of an algebra, a metric or an input
# file: the widest products a check forms are quartic in the entries (the
# squared compatibility defect), times the metric's condition, which the
# degeneracy rule keeps below 1e9, so at the cap they stay near 1e220, inside
# the double range; entries near 1e200 overflow to inf and then to NaN
MAX_FLOAT_ENTRY = 1e50


def is_exact(x) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def infer_exact(entries) -> bool:
    """The mode of entries given without one: exact when every entry is an
    int, a Fraction or a 'p/q' string, as ``coerce`` reads strings."""
    return all(is_exact(x) or isinstance(x, str) for x in entries)


def within(value, exact: bool, tol: float = DEFAULT_TOL) -> bool:
    """Whether a residual passes: exactly zero (exact mode), or at most tol in
    absolute value (float mode), so NaN fails."""
    return bool(value == 0 if exact else abs(value) <= tol)


def report_float(x) -> float:
    """A value as the float a report shows: ``float(x)``, except that a
    nonzero value that rounds to 0.0 reads ``math.ulp(0.0)`` with the sign of
    x, so 0.0 always means an exact zero, and a finite value past the float
    range reads inf with its sign."""
    try:
        value = float(x)
    except OverflowError:  # only an exact value can be too large for a float
        return math.inf if x > 0 else -math.inf
    return math.copysign(math.ulp(0.0), value) if value == 0 and x != 0 else value


def _differ(x: np.ndarray, y: np.ndarray, exact: bool, tol: float) -> np.ndarray:
    """Where two arrays of one shape differ: exactly (exact mode), or by more
    than tol (float mode, finite entries). Arrays equal entry by entry skip
    the tolerance pass."""
    if exact:
        return x != y
    same = x == y
    if same.all():
        return ~same
    return np.abs(x - y) > tol


def coerce(x, exact: bool):
    """Return x as Fraction (exact) or float; strings parse as rationals."""
    if exact:
        if type(x) is Fraction:
            return x
        if isinstance(x, str):
            return Fraction(x)
        if is_exact(x):
            return Fraction(x)
        raise TypeError(f"float value {x!r} not allowed in exact mode")
    if isinstance(x, str):
        return float(Fraction(x))
    return float(x)


def rationalize(x: float) -> Fraction:
    """Nearest rational with a bounded denominator (continued fractions)."""
    return Fraction(x).limit_denominator(RATIONALIZE_MAX_DENOMINATOR)


def _scaled(values, exact: bool):
    """A nested sequence as ``(array, scale)`` with ``values == array / scale``.

    Exact mode: an object array of Python ints and the lcm of the entry
    denominators; an int entry is its own numerator over 1, and an input of
    Python ints alone is its own form over 1, found in one pass. Float mode:
    a float64 array and scale 1.
    """
    if not exact:
        return np.asarray(values, dtype=float), 1
    entries = np.array(values, dtype=object)
    flat = entries.ravel().tolist()
    if all(type(x) is int for x in flat):
        return entries, 1
    fracs = [x if type(x) is int or type(x) is Fraction else _rational(x) for x in flat]
    scale = math.lcm(*(f.denominator for f in fracs))
    ints = np.array([f.numerator * (scale // f.denominator) for f in fracs], dtype=object)
    return ints.reshape(entries.shape), scale


def _rational(x):
    """An entry other than a Python int or Fraction: integers (bool, numpy) as
    Python ints, anything else (a 'p/q' string) as a Fraction."""
    return int(x) if isinstance(x, numbers.Integral) else Fraction(x)


def _unscaled(x, scale: int, exact: bool):
    """``x / scale`` as a Fraction (exact) or float; arrays become nested lists.

    Float scales are always 1, so float mode only converts.
    """
    if isinstance(x, np.ndarray):
        return [_unscaled(y, scale, exact) for y in x]
    return Fraction(x, scale) if exact else float(x)


def _bounded(ints: np.ndarray) -> tuple:
    """An exact integer array as ``(array, bound)`` for ``contract``: bound is
    the largest |entry| (0 when empty), and the array is an int64 copy when
    bound fits in int64, otherwise the given object array."""
    bound = max(map(abs, ints.ravel().tolist()), default=0)
    return (ints.astype(np.int64) if bound <= INT64_MAX else ints), bound


def _summed_terms(spec: str, x: np.ndarray, y: np.ndarray) -> int:
    """How many products each entry of the explicit einsum ``spec`` over x and
    y sums: the product of the sizes of the subscripts not in its output,
    each at the larger of its sizes in x and y (np.einsum broadcasts a
    labelled axis of size 1). Subscripts after an ellipsis name trailing
    axes; the ellipsis axes are broadcast into the output (np.einsum refuses
    one missing from it)."""
    inputs, output = spec.split("->")
    sizes = {}
    for term, shape in zip(inputs.split(","), (x.shape, y.shape)):
        head, _, tail = term.partition("...")
        for letter, size in zip(head + tail, shape[:len(head)] + shape[len(shape) - len(tail):]):
            if letter not in output:
                sizes[letter] = max(sizes.get(letter, 0), size)
    return math.prod(sizes.values())


def contract(spec: str, x: np.ndarray, y: np.ndarray, bx: int | None = None,
             by: int | None = None) -> np.ndarray:
    """The einsum ``spec`` of two operands.

    Without bounds it is ``np.einsum(spec, x, y)`` (float arrays). With bx and
    by bounding every |entry| of the integer arrays x and y, it runs in int64
    when k * bx * by <= INT64_MAX, k the number of summed products per entry
    (``_summed_terms``), so no partial sum can wrap; otherwise in object ints.
    Exact results are always object arrays of Python ints. x.size * y.size is
    at least k (an empty operand makes an empty or zero result), so a bound
    that fits with it needs no count of k.
    """
    if bx is None:
        return np.einsum(spec, x, y)
    bound = bx * by
    if x.size * y.size * bound <= INT64_MAX or _summed_terms(spec, x, y) * bound <= INT64_MAX:
        return np.einsum(spec, x, y).astype(object)
    return np.einsum(spec, x.astype(object), y.astype(object))


class IntegerForm:
    """Base of the frozen values that carry their entries' integer form.

    ``_form`` is ``(array, scale)`` with the entries equal to array / scale:
    in exact mode an object array of Python ints over a positive int scale,
    in float mode the float64 array over 1. Subclasses build it once, in
    ``__post_init__``, through ``_hold``. It is read-only and not a dataclass
    field, so ``==``, ``hash``, ``repr`` and ``dataclasses.replace`` see the
    fields alone, and a pickle holds the fields alone: loading one rebuilds
    the form. An exact form's bound and int64 copy (``operand``) are built on
    first read and kept the same way.
    """

    def _hold(self, form: tuple):
        # C order, as an array built from the entries is: a float contraction
        # then sums in the same order, to the last bit
        array = np.ascontiguousarray(form[0])
        array.flags.writeable = False
        object.__setattr__(self, "_form", (array, form[1]))

    def scaled(self, exact: bool) -> tuple:
        """The entries as ``(array, scale)`` in the given mode: the integer form
        (exact), or the float array (float). The float view of an exact value
        divides int by int, which rounds as ``float(Fraction)`` does, so it is
        bit-identical to ``np.asarray(entries, float)``."""
        if exact and not self.exact:
            raise ValueError("a float value has no exact integer form")
        if self.exact and not exact:
            ints, scale = self._form
            return (ints / scale).astype(float), 1
        return self._form

    def _float_entries(self) -> list:
        """The float view as nested lists, for the float copy (``to_float``):
        an entry past the float range reads +-inf there, which the float
        constructor's cap refuses, naming the entry."""
        try:
            return self.scaled(False)[0].tolist()
        except OverflowError:
            ints, scale = self._form
            return np.array([report_float(Fraction(x, scale)) for x in ints.ravel().tolist()]
                            ).reshape(ints.shape).tolist()

    def operand(self, exact: bool) -> tuple:
        """``scaled(exact)`` for ``contract``, as ``(array, scale, bound)``: in
        exact mode the form's ints (int64 when they fit, see ``_bounded``) and
        their largest magnitude, built on first read and kept, read-only; in
        float mode the float array and no bound."""
        array, scale = self.scaled(exact)
        if not exact:
            return array, scale, None
        if "_operand" not in self.__dict__:
            narrow, bound = _bounded(array)
            narrow.flags.writeable = False
            object.__setattr__(self, "_operand", (narrow, scale, bound))
        return self._operand

    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    def __setstate__(self, state: dict):
        for name, value in state.items():
            object.__setattr__(self, name, value)
        self.__post_init__()
