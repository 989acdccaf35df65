"""Scalar handling for the two arithmetic modes.

Exact mode holds ``fractions.Fraction`` entries; float mode holds machine
doubles and every zero test carries an explicit tolerance. Each entry rule is
decided here, once: ``is_exact`` tests an entry; ``coerce`` reads one, a
string by one rule in both modes (``_rational``), and ``_floats`` an array;
``operand_mode`` checks the operands of a public call and gives its mode,
exact only when the value and every operand are exact, so a float is never
promoted; and ``IntegerForm._hold_symmetric`` is how an algebra or a metric
stores float entries. ``within`` is the zero test every residual verdict
reads, and ``report_float`` the one rule for showing a value as a float,
which reads 0.0 only for an exact zero.

*Arithmetic*: a public call's result is computed by ``evaluate``, the one
helper that knows the scaled format: the value's form and each operand as
integers over one common denominator (``_scaled``), one contraction per step,
so exact mode does integer arithmetic with no gcd per operation, and one
division by the product of the scales, back into Fractions (``_unscaled``).
Its calls are ``bracket``, ``adjoint_matrix``, ``changed_basis``,
``Metric.apply``, ``transported``, ``ConnectionTensor.apply``,
``dual.bivector_at`` and ``dual.sharp_pi``. ``ad_traces``,
``modular_field_value`` (a kept trace), ``leaf_frame_at`` (kernel rows) and
the kernels (``contract``, the dual frame, the product solve, on bounded
int64 forms) keep their own scaling. In float mode a contraction is
``np.einsum``, except in the search's two hot kernels, the product's right
sides and the compatibility defect (``metric._product_rhs``,
``metric._defect_array``), which run one ``np.matmul`` each: BLAS, whose bits
are fixed for one BLAS build but may differ between builds, within the
rounding bound of exact arithmetic. The defect kernel reads c as exactly
antisymmetric, which every ``LieAlgebra`` form is. An input of Python ints
alone passes through ``_scaled`` as it is, in one pass (scale 1, no Fraction
per entry); numpy integers become Python ints, so no entry of the integer
form can wrap.

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

# the most digits of a string entry's exponent: Fraction builds 10**exponent first
MAX_EXPONENT_DIGITS = 3


class DimensionMismatchError(ValueError):
    pass


_EXACT_TYPES = frozenset({int, Fraction, str})
_NESTED = (list, tuple, np.ndarray)


def is_exact(x) -> bool:
    """Whether an entry is exact: an integer (any ``numbers.Integral`` but
    bool), a Fraction or a 'p/q' string, which ``Fraction`` parses."""
    return type(x) in _EXACT_TYPES or (
        isinstance(x, numbers.Integral) and not isinstance(x, bool))


def operand_mode(n: int, exact: bool, *operands) -> bool:
    """The mode of a call on a value of dimension n and mode ``exact``.

    An operand is a value with ``dim`` and ``exact`` (an ``IntegerForm``),
    or a vector, matrix or tensor as nested sequences. A value must have
    dimension n and a sequence length n on every axis, or
    DimensionMismatchError is raised. The call is exact only when ``exact``
    holds and every operand is exact: a value by its mode, a sequence when
    every entry is (``is_exact``).
    """
    for x in operands:
        if isinstance(x, IntegerForm):
            if x.dim != n:
                raise DimensionMismatchError(f"a value of dimension {x.dim} in dimension {n}")
            exact = exact and x.exact
        elif len(x) != n:
            raise DimensionMismatchError(f"vector of length {len(x)} in dimension {n}")
        elif n and isinstance(x[0], _NESTED):
            exact = operand_mode(n, exact, *x)
        else:  # entries of the three exact types are told apart in one pass
            exact = exact and (_EXACT_TYPES.issuperset(map(type, x)) or all(map(is_exact, x)))
    return exact


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


def coerce(x, exact: bool):
    """One entry as a Fraction (exact) or a float, a string by the string rule
    of ``_rational`` in both modes. In exact mode an entry that is not exact
    raises TypeError; in float mode bytes raise TypeError and a value past
    the double range ValueError."""
    if exact:
        return x if type(x) is Fraction else Fraction(_rational(x))
    if isinstance(x, (bytes, bytearray, memoryview)):  # float() would parse them
        raise TypeError(f"{x!r} is not an entry (a number or a 'p/q' string)")
    try:
        return float(_rational(x) if isinstance(x, str) else x)
    except OverflowError:
        raise ValueError("an entry past the double range") from None


def frozen(x: list) -> tuple:
    """Nested lists as nested tuples, the form of a value's public field."""
    return tuple(map(frozen, x)) if x and isinstance(x[0], list) else tuple(x)


def rationalize(x: float) -> Fraction:
    """Nearest rational with a bounded denominator (continued fractions)."""
    return Fraction(x).limit_denominator(RATIONALIZE_MAX_DENOMINATOR)


def _scaled(values, exact: bool):
    """A nested sequence as ``(array, scale)`` with ``values == array / scale``.

    Exact mode: an object array of Python ints and the lcm of the entry
    denominators; an int entry is its own numerator over 1, and an input of
    Python ints alone is its own form over 1, found in one pass. An entry
    that is not exact raises TypeError. Float mode: ``_floats`` and scale 1.
    """
    if not exact:
        return _floats(values), 1
    entries = np.array(values, dtype=object)
    flat = entries.ravel().tolist()
    if all(type(x) is int for x in flat):
        return entries, 1
    fracs = [x if type(x) is int or type(x) is Fraction else _rational(x) for x in flat]
    scale = math.lcm(*(f.denominator for f in fracs))
    ints = np.array([f.numerator * (scale // f.denominator) for f in fracs], dtype=object)
    return ints.reshape(entries.shape), scale


def _floats(values) -> np.ndarray:
    """Nested entries as a new float64 array: numbers in one pass, others by ``coerce``."""
    array = np.array(values)
    if array.dtype.kind in "biuf":
        return array.astype(float, copy=False)
    if array.dtype != object:  # numpy converted every entry, to text or complex: read the originals
        array = np.array(values, dtype=object)
    return np.array([coerce(x, False) for x in array.ravel().tolist()],
                    dtype=float).reshape(array.shape)


def _rational(x):
    """An exact entry as a Python int or a Fraction, a string by the one string
    rule: ``Fraction(text)`` with at most MAX_EXPONENT_DIGITS exponent digits,
    so "nan", "inf", "1/0" and "1e9999" raise ValueError; others TypeError."""
    if isinstance(x, str):
        exponent = x.lower().partition("e")[2].strip().lstrip("+-").replace("_", "")
        if len(exponent.lstrip("0")) > MAX_EXPONENT_DIGITS:
            raise ValueError(f"exponent of more than {MAX_EXPONENT_DIGITS} digits in {x!r}")
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    if not is_exact(x):
        raise TypeError(f"{x!r} is not an exact entry (an integer, a Fraction or a 'p/q' string)")
    return int(x) if isinstance(x, numbers.Integral) else x


def _unscaled(x, scale: int, exact: bool):
    """``x / scale`` as a Fraction (exact) or float; arrays become nested lists.

    Float scales are always 1, so float mode only converts.
    """
    if isinstance(x, np.ndarray):
        return [_unscaled(y, scale, exact) for y in x]
    return Fraction(x, scale) if exact else float(x)


def evaluate(value: IntegerForm, exact: bool, *steps):
    """A public call's arithmetic in the mode ``exact`` of its ``operand_mode``:
    the value's form (``scaled``), one ``np.einsum`` per step ``(spec,
    operand)`` of the running result and the operand read by ``_scaled``, and
    one division by the product of the scales (``_unscaled``), to nested
    lists. Kernel rows, a kept trace and int64 forms are scaled by their own
    callers (the *Arithmetic* rule above)."""
    out, scale = value.scaled(exact)
    for spec, operand in steps:
        x, s = _scaled(operand, exact)
        out = np.einsum(spec, out, x)
        scale *= s
    return _unscaled(out, scale, exact)


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
    first read and kept the same way. ``_entries`` names the entries' field,
    which ``_hold`` stores as nested tuples when given an array or lists.
    """

    def _hold(self, form: tuple):
        # C order, as an array built from the entries is: a float contraction
        # then sums in the same order, to the last bit
        array = np.ascontiguousarray(form[0])
        array.flags.writeable = False
        object.__setattr__(self, "_form", (array, form[1]))
        if not isinstance(self.__dict__.get(self._entries, ()), tuple):  # an array or lists
            object.__setattr__(self, self._entries, frozen(_unscaled(*form, self.exact)))

    def _hold_symmetric(self, sign: int, error: type, entry: str, broken: str):
        """Hold the form of the entries, which must be symmetric (sign 1) or
        antisymmetric (sign -1) in its first two axes: the one storage rule of
        the algebras and metrics.

        Exact entries must be so exactly. A float entry must be finite and at
        most MAX_FLOAT_ENTRY in magnitude, and a float value (anti)symmetric
        within DEFAULT_TOL * max(1, largest |entry|) is stored, field and
        form, as its (anti)symmetric part; a pair of entries that already is
        keeps its bits. Otherwise ``error`` is raised, naming the first
        failing entry in row-major order through the format strings ``entry``
        (a bad entry) and ``broken`` (broken symmetry).
        """
        t, scale = _scaled(getattr(self, self._entries), self.exact)
        if not self.exact:
            largest = np.abs(t).max(initial=0.0)
            if not largest <= MAX_FLOAT_ENTRY:  # NaN fails too
                at = tuple(np.argwhere(~(np.abs(t) <= MAX_FLOAT_ENTRY))[0])
                raise error(f"{entry.format(*at)} is {t[at]}; a float entry must be finite "
                            f"and at most {MAX_FLOAT_ENTRY:g} in magnitude")
        mirror = t.swapaxes(0, 1) if sign > 0 else -t.swapaxes(0, 1)
        same = t == mirror
        if not same.all():
            bad = ~same if self.exact else np.abs(t - mirror) > DEFAULT_TOL * max(1.0, largest)
            if bad.any():
                raise error(broken.format(*np.argwhere(bad)[0]))
            # halves first: no overflow, and each pair's two halves are equal
            # or negatives of each other
            t = np.where(same, t, 0.5 * t + 0.5 * mirror)
            object.__setattr__(self, self._entries, frozen(t.tolist()))
        self._hold((t, scale))

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

    def to_float(self):
        """The float copy, each entry rounded once, which keeps (anti)symmetry;
        a float value is itself. An entry past the float range reads +-inf
        there, which the cap of the storage rule refuses, naming it."""
        if not self.exact:
            return self
        try:
            entries = self.scaled(False)[0].tolist()
        except OverflowError:
            ints, scale = self._form
            entries = np.array([report_float(Fraction(x, scale)) for x in ints.ravel().tolist()]
                               ).reshape(ints.shape).tolist()
        return dataclasses.replace(self, **{self._entries: frozen(entries), "exact": False})

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
