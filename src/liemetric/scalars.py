"""Scalar handling for the two arithmetic modes.

Exact mode holds ``fractions.Fraction`` entries (ints and 'p/q' strings
coerce); float mode holds machine doubles and every zero test carries an
explicit tolerance. ``within`` is that zero test, the one rule every residual
verdict reads. Mixed arithmetic silently degrades to float, so
containers track an ``exact`` flag and coerce their entries up front.

Tensor operations run one ``np.einsum`` contraction for both modes. In exact
mode a tensor enters it as an object array of Python ints with one common
denominator (``_scaled``), so the contraction does integer arithmetic with no
gcd per operation; the result is divided by its scale once, back into
Fractions (``_unscaled``). Python ints pass into ``_scaled`` as they are
(scale 1, no Fraction per entry), and other integers (bool, numpy integers)
become Python ints, so no entry of the integer form can wrap.

The integer form of an algebra, a metric or a product is part of the value
(``IntegerForm``): built once when the value is made, read-only, and read by
every kernel through ``scaled(exact)``, so no kernel rescales its inputs.
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

RATIONALIZE_MAX_DENOMINATOR = 10**6


def is_exact(x) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def within(value, exact: bool, tol: float = DEFAULT_TOL) -> bool:
    """Whether a residual passes: exactly zero (exact mode), or at most tol in
    absolute value (float mode), so NaN fails."""
    return bool(value == 0 if exact else abs(value) <= tol)


def _differ(x: np.ndarray, y: np.ndarray, exact: bool, tol: float) -> np.ndarray:
    """Where two arrays of one shape differ: exactly (exact mode), or by more
    than tol (float mode). In float mode equal entries (inf and inf) and two
    NaNs agree, a NaN and a number differ, and no floating-point warning is
    raised."""
    if exact:
        return x != y
    with np.errstate(invalid="ignore"):  # inf - inf is NaN; such entries are equal
        gap = np.abs(x - y)
    return ~((gap <= tol) | (x == y) | (np.isnan(x) & np.isnan(y)))


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


def scalar_str(x) -> str:
    """Serialize for JSON: exact values as 'p' or 'p/q', floats via repr."""
    if is_exact(x):
        f = Fraction(x)
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
    return repr(float(x))


def rationalize(x: float, max_denominator: int = RATIONALIZE_MAX_DENOMINATOR) -> Fraction:
    """Nearest rational with a bounded denominator (continued fractions)."""
    return Fraction(x).limit_denominator(max_denominator)


def _scaled(values, exact: bool):
    """A nested sequence as ``(array, scale)`` with ``values == array / scale``.

    Exact mode: an object array of Python ints and the lcm of the entry
    denominators; an int entry is its own numerator over 1. Float mode: a
    float64 array and scale 1.
    """
    if not exact:
        return np.asarray(values, dtype=float), 1
    entries = np.array(values, dtype=object)
    fracs = [x if type(x) is int or type(x) is Fraction else _rational(x)
             for x in entries.flat]
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


class IntegerForm:
    """Base of the frozen values that carry their entries' integer form.

    ``_form`` is ``(array, scale)`` with the entries equal to array / scale:
    in exact mode an object array of Python ints over a positive int scale,
    in float mode the float64 array over 1. Subclasses build it once, in
    ``__post_init__``, through ``_hold``. It is read-only and not a dataclass
    field, so ``==``, ``hash``, ``repr`` and ``dataclasses.replace`` see the
    fields alone, and a pickle holds the fields alone: loading one rebuilds
    the form.
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

    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    def __setstate__(self, state: dict):
        for name, value in state.items():
            object.__setattr__(self, name, value)
        self.__post_init__()
