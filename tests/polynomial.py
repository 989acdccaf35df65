"""Sparse multivariate polynomials with exact or float coefficients.

The arithmetic that the closed-form reference of the dual side
(``poly_oracle``) is built on; the package itself builds no polynomial.

Terms are stored in a dict mapping exponent tuples to coefficients, one
tuple slot per coordinate. Zero coefficients are dropped as they appear, so
two polynomials are equal iff their dicts are. Coefficients are Fractions in
exact mode and floats otherwise; mixing modes is an error.

The public constructor validates and coerces every term. Arithmetic results
are already in the right mode, so they go through ``_trusted``, which only
drops zero coefficients. Polynomials are never mutated, so adding or
subtracting a zero polynomial returns the other operand (or its negation)
with no copy, after the same variable-count and mode check as any sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from liemetric.scalars import coerce


@dataclass(frozen=True)
class Polynomial:
    nvars: int
    terms: dict = field(default_factory=dict)
    exact: bool = True

    def __post_init__(self):
        clean = {}
        for expo, coef in self.terms.items():
            if len(expo) != self.nvars:
                raise ValueError(f"exponent tuple {expo} has wrong length")
            if any(e < 0 for e in expo):
                raise ValueError(f"negative exponent in {expo}")
            coef = coerce(coef, self.exact)
            if coef != 0:
                clean[tuple(expo)] = coef
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, nvars: int, terms: dict, exact: bool) -> "Polynomial":
        """A polynomial from well-formed terms in the right mode; drops zeros only."""
        p = object.__new__(cls)
        slots = p.__dict__  # frozen: fill the instance dict directly
        slots["nvars"] = nvars
        slots["terms"] = {e: c for e, c in terms.items() if c}
        slots["exact"] = exact
        return p

    @classmethod
    def zero(cls, nvars: int, exact: bool = True):
        return cls._trusted(nvars, {}, exact)

    @classmethod
    def constant(cls, nvars: int, value, exact: bool = True):
        return cls(nvars, {(0,) * nvars: value}, exact)

    @classmethod
    def coordinate(cls, nvars: int, k: int, exact: bool = True):
        """The monomial mu_k (0-based k)."""
        if not 0 <= k < nvars:
            raise IndexError(f"coordinate {k} out of range for {nvars} variables")
        expo = tuple(1 if t == k else 0 for t in range(nvars))
        one = Fraction(1) if exact else 1.0
        return cls(nvars, {expo: one}, exact)

    def _check_mate(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise ValueError("polynomials over different variable counts")
        if self.exact != other.exact:
            raise ValueError("cannot mix exact and float polynomials")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.nvars, other, self.exact)
        self._check_mate(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        terms = dict(self.terms)
        for expo, coef in other.terms.items():
            terms[expo] = terms[expo] + coef if expo in terms else coef
        return Polynomial._trusted(self.nvars, terms, self.exact)

    def __neg__(self):
        return Polynomial._trusted(self.nvars, {e: -c for e, c in self.terms.items()},
                                   self.exact)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.nvars, other, self.exact)
        self._check_mate(other)
        if not other.terms:
            return self
        if not self.terms:
            return -other
        terms = dict(self.terms)
        for expo, coef in other.terms.items():
            terms[expo] = terms[expo] - coef if expo in terms else -coef
        return Polynomial._trusted(self.nvars, terms, self.exact)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = coerce(other, self.exact)
            return Polynomial._trusted(self.nvars, {e: k * c for e, k in self.terms.items()},
                                       self.exact)
        self._check_mate(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                c = c1 * c2
                terms[e] = terms[e] + c if e in terms else c
        return Polynomial._trusted(self.nvars, terms, self.exact)

    __rmul__ = __mul__

    def diff(self, k: int) -> "Polynomial":
        """Partial derivative with respect to coordinate k."""
        terms = {}
        for expo, coef in self.terms.items():
            if expo[k] == 0:
                continue
            e = list(expo)
            e[k] -= 1
            terms[tuple(e)] = coef * expo[k]  # distinct exponents stay distinct
        return Polynomial._trusted(self.nvars, terms, self.exact)

    def eval(self, point):
        if len(point) != self.nvars:
            raise ValueError("evaluation point has wrong length")
        total = Fraction(0) if self.exact else 0.0
        for expo, coef in self.terms.items():
            term = coef
            for x, e in zip(point, expo):
                if e:
                    term = term * x ** e
            total += term
        return total

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_zero(self, tol: float = 0.0) -> bool:
        if self.exact or tol == 0.0:
            return not self.terms
        return all(abs(c) <= tol for c in self.terms.values())

    def max_coeff(self) -> float:
        """Largest coefficient magnitude as a float; 0 for the zero polynomial.

        A NaN coefficient makes the result NaN.
        """
        return float(np.max([abs(float(c)) for c in self.terms.values()], initial=0.0))

    def to_float(self) -> "Polynomial":
        if not self.exact:
            return self
        return Polynomial._trusted(self.nvars, {e: float(c) for e, c in self.terms.items()},
                                   False)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for expo in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            coef = self.terms[expo]
            factors = [f"mu{k + 1}" + (f"^{e}" if e > 1 else "")
                       for k, e in enumerate(expo) if e]
            st = "*".join(factors) if factors else ""
            if st and coef == 1:
                parts.append(st)
            elif st and coef == -1:
                parts.append(f"-{st}")
            else:
                parts.append(f"{coef}*{st}" if st else f"{coef}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")
