"""Scalar handling for the two arithmetic modes.

Exact mode holds ``fractions.Fraction`` entries (ints and 'p/q' strings
coerce); float mode holds machine doubles and every zero test carries an
explicit tolerance. Mixed arithmetic silently degrades to float, so
containers track an ``exact`` flag and coerce their entries up front.

Tensor operations run one ``np.einsum`` contraction for both modes. In exact
mode a tensor enters it as an object array of Python ints with one common
denominator (``_scaled``), so the contraction does integer arithmetic with no
gcd per operation; the result is divided by its scale once, back into
Fractions (``_unscaled``). Fractions appear only at that boundary.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

DEFAULT_TOL = 1e-10

RATIONALIZE_MAX_DENOMINATOR = 10**6


def is_exact(x) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def coerce(x, exact: bool):
    """Return x as Fraction (exact) or float; strings parse as rationals."""
    if exact:
        if isinstance(x, str):
            return Fraction(x)
        if is_exact(x):
            return Fraction(x)
        raise TypeError(f"float value {x!r} not allowed in exact mode")
    if isinstance(x, str):
        return float(Fraction(x))
    return float(x)


def all_exact(values) -> bool:
    return all(is_exact(x) or isinstance(x, str) for x in values)


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
    denominators. Float mode: a float64 array and scale 1.
    """
    if not exact:
        return np.asarray(values, dtype=float), 1
    entries = np.array(values, dtype=object)
    fracs = [Fraction(x) for x in entries.flat]
    scale = math.lcm(*(f.denominator for f in fracs))
    ints = np.array([f.numerator * (scale // f.denominator) for f in fracs], dtype=object)
    return ints.reshape(entries.shape), scale


def _unscaled(x, scale: int, exact: bool):
    """``x / scale`` as a Fraction (exact) or float; arrays become nested lists.

    Float scales are always 1, so float mode only converts.
    """
    if isinstance(x, np.ndarray):
        return [_unscaled(y, scale, exact) for y in x]
    return Fraction(x, scale) if exact else float(x)
