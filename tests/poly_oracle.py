"""Closed-form reference for the dual side: one-forms with polynomial coefficients.

``liemetric.dual`` computes every dual object from basis data alone, as
coefficient tensors in scaled integers (``dual._DualFrame``). This module is
the independent path the tests check it against. It holds general one-forms
on the dual, sum_k p_k(mu) de_k with ``Polynomial`` coefficients, and builds
the form bracket, sharp fields, Lie derivatives and the six-term Koszul solve
of ``contravariant_derivative`` term by term in sparse polynomial arithmetic.
It shares only the sign switch ``BIVECTOR_SIGN`` with the frame; the inverse
metric of the Koszul solve comes from ``Metric.inverse_rows``, not from the
frame's half-inverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from liemetric.algebra import DimensionMismatchError, LieAlgebra
from liemetric.dual import BIVECTOR_SIGN
from liemetric.metric import Metric
from liemetric.poly import Polynomial
from liemetric.scalars import is_exact

DEFAULT_MAX_DEGREE = 3


class DegreeOverflowError(ValueError):
    """An operation produced a polynomial form beyond the degree cap."""


@dataclass(frozen=True)
class PolyOneForm:
    """One-form sum_k coeffs[k] de_k with polynomial coefficients."""

    coeffs: tuple
    exact: bool = True

    def __post_init__(self):
        n = len(self.coeffs)
        for p in self.coeffs:
            if not isinstance(p, Polynomial):
                raise TypeError("coefficients must be Polynomial instances")
            if p.nvars != n:
                raise ValueError("coefficient variable count must equal the dimension")
            if p.exact != self.exact:
                raise ValueError("coefficient scalar mode mismatch")
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

    @classmethod
    def coordinate(cls, n: int, k: int, exact: bool = True):
        """The constant coframe element de_k (0-based k)."""
        coeffs = [Polynomial.zero(n, exact) for _ in range(n)]
        coeffs[k] = Polynomial.constant(n, 1, exact)
        return cls(tuple(coeffs), exact)

    @classmethod
    def from_linear(cls, u, exact: bool | None = None):
        """du for the linear function u = sum_k u[k] e_k; a constant form."""
        if exact is None:
            exact = all(is_exact(x) for x in u)
        n = len(u)
        return cls(tuple(Polynomial.constant(n, x, exact) for x in u), exact)

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    def __add__(self, other: "PolyOneForm"):
        return PolyOneForm(tuple(p + q for p, q in zip(self.coeffs, other.coeffs)),
                           self.exact)

    def __sub__(self, other: "PolyOneForm"):
        return PolyOneForm(tuple(p - q for p, q in zip(self.coeffs, other.coeffs)),
                           self.exact)

    def __neg__(self):
        return PolyOneForm(tuple(-p for p in self.coeffs), self.exact)

    def degree(self) -> int:
        return max(p.degree() for p in self.coeffs)

    def to_float(self) -> "PolyOneForm":
        if not self.exact:
            return self
        return PolyOneForm(tuple(p.to_float() for p in self.coeffs), exact=False)


def _harmonize(alg: LieAlgebra, a: Metric | None, forms):
    """Put the algebra, metric, and forms in one scalar mode."""
    exact = alg.exact and (a is None or a.exact) and all(f.exact for f in forms)
    if not exact:
        alg = alg.to_float()
        a = a.to_float() if a is not None else None
        forms = [f.to_float() for f in forms]
    for f in forms:
        if f.dim != alg.dim:
            raise DimensionMismatchError("form dimension does not match the algebra")
    return exact, alg, a, list(forms)


def _pi_polys(alg: LieAlgebra) -> list:
    """Matrix of polynomials pi[i][j](mu), linear in mu."""
    n = alg.dim
    exact = alg.exact
    out = [[Polynomial.zero(n, exact) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            terms = {}
            for k in range(n):
                coef = alg.c[i][j][k]
                if coef != 0:
                    expo = tuple(1 if t == k else 0 for t in range(n))
                    terms[expo] = BIVECTOR_SIGN * coef
            if terms:
                out[i][j] = Polynomial(n, terms, exact)
    return out


def _sharp(pi: list, alpha: PolyOneForm) -> tuple:
    """Components of the sharp image of alpha, given the matrix pi."""
    n = alpha.dim
    comps = []
    for m in range(n):
        total = Polynomial.zero(n, alpha.exact)
        for i in range(n):
            if alpha.coeffs[i].is_zero() or pi[i][m].is_zero():
                continue
            total = total + alpha.coeffs[i] * pi[i][m]
        comps.append(total)
    return tuple(comps)


def _pi_pair(pi: list, alpha: PolyOneForm, beta: PolyOneForm) -> Polynomial:
    """The polynomial pi(alpha, beta), given the matrix pi."""
    n = alpha.dim
    total = Polynomial.zero(n, alpha.exact)
    for i in range(n):
        if alpha.coeffs[i].is_zero():
            continue
        for j in range(n):
            if beta.coeffs[j].is_zero() or pi[i][j].is_zero():
                continue
            total = total + alpha.coeffs[i] * beta.coeffs[j] * pi[i][j]
    return total


def _bracket(pi: list, alpha: PolyOneForm, beta: PolyOneForm, la_b: PolyOneForm,
             lb_a: PolyOneForm, max_degree: int) -> PolyOneForm:
    """[alpha, beta] from pi and the Lie derivatives la_b of beta along sharp(alpha)
    and lb_a of alpha along sharp(beta)."""
    out = la_b - lb_a - differential(_pi_pair(pi, alpha, beta))
    return _degree_guard(out, max_degree, "form bracket")


def sharp_form(alg: LieAlgebra, alpha: PolyOneForm) -> tuple:
    """Polynomial vector field components of the sharp image of a form."""
    _, alg, _, (alpha,) = _harmonize(alg, None, [alpha])
    return _sharp(_pi_polys(alg), alpha)


def pi_pairing(alg: LieAlgebra, alpha: PolyOneForm, beta: PolyOneForm) -> Polynomial:
    """The polynomial pi(alpha, beta)."""
    _, alg, _, (alpha, beta) = _harmonize(alg, None, [alpha, beta])
    return _pi_pair(_pi_polys(alg), alpha, beta)


def form_pairing(alpha: PolyOneForm, beta: PolyOneForm, a: Metric) -> Polynomial:
    """The polynomial <alpha, beta> under the constant fiber metric."""
    exact = alpha.exact and beta.exact and a.exact
    if not exact:
        alpha, beta, a = alpha.to_float(), beta.to_float(), a.to_float()
    n = alpha.dim
    total = Polynomial.zero(n, exact)
    for i in range(n):
        if alpha.coeffs[i].is_zero():
            continue
        for j in range(n):
            if a.matrix[i][j] == 0 or beta.coeffs[j].is_zero():
                continue
            total = total + alpha.coeffs[i] * beta.coeffs[j] * a.matrix[i][j]
    return total


def apply_field(field, p: Polynomial) -> Polynomial:
    """Directional derivative of a polynomial along a polynomial vector field.

    A constant has none, so its flow takes no partial derivative.
    """
    total = Polynomial.zero(p.nvars, p.exact)
    if p.degree() <= 0:
        return total
    for m, comp in enumerate(field):
        if comp.is_zero():
            continue
        dm = p.diff(m)
        if not dm.is_zero():
            total = total + comp * dm
    return total


def lie_derivative_form(field, beta: PolyOneForm) -> PolyOneForm:
    """Lie derivative of a one-form along a polynomial vector field.

    Component k is sum_i X^i d_i(b_k) + sum_j b_j d_k(X^j).
    """
    n = beta.dim
    coeffs = []
    for k in range(n):
        term = apply_field(field, beta.coeffs[k])
        for j in range(n):
            if beta.coeffs[j].is_zero():
                continue
            dk = field[j].diff(k)
            if not dk.is_zero():
                term = term + beta.coeffs[j] * dk
        coeffs.append(term)
    return PolyOneForm(tuple(coeffs), beta.exact)


def differential(p: Polynomial) -> PolyOneForm:
    return PolyOneForm(tuple(p.diff(k) for k in range(p.nvars)), p.exact)


def _degree_guard(form: PolyOneForm, max_degree: int, what: str) -> PolyOneForm:
    if form.degree() > max_degree:
        raise DegreeOverflowError(
            f"{what} has degree {form.degree()}, above the cap {max_degree}")
    return form


def form_bracket(alg: LieAlgebra, alpha: PolyOneForm, beta: PolyOneForm,
                 max_degree: int = DEFAULT_MAX_DEGREE) -> PolyOneForm:
    """Bracket of one-forms induced by the bivector.

    L along sharp(alpha) of beta, minus the mirror term, minus
    d(pi(alpha, beta)). On differentials of linear functions u, v the result
    is the differential of the linear function [u, v].
    """
    _, alg, _, (alpha, beta) = _harmonize(alg, None, [alpha, beta])
    pi = _pi_polys(alg)
    return _bracket(pi, alpha, beta, lie_derivative_form(_sharp(pi, alpha), beta),
                    lie_derivative_form(_sharp(pi, beta), alpha), max_degree)


def contravariant_derivative(alg: LieAlgebra, a: Metric, alpha: PolyOneForm,
                             beta: PolyOneForm,
                             max_degree: int = DEFAULT_MAX_DEGREE) -> PolyOneForm:
    """The derivative D_alpha beta from the six-term Koszul relation.

    Pairs the relation against each constant coframe element de_l, with
    [de_l, alpha], [de_l, beta] and [alpha, beta] from the form bracket, then
    solves the constant fiber-metric system coefficientwise through the
    metric's own inverse (``Metric.inverse_rows``: ``rational.inverse`` or
    ``np.linalg.inv``). On constant forms du, dv the output is the constant
    form of the product A_u v.
    """
    exact, alg, a, (alpha, beta) = _harmonize(alg, a, [alpha, beta])
    ainv = a.inverse_rows()
    n, pi = alg.dim, _pi_polys(alg)
    xa, xb = _sharp(pi, alpha), _sharp(pi, beta)

    def bracket(f, g, xf, xg):
        return _bracket(pi, f, g, lie_derivative_form(xf, g), lie_derivative_form(xg, f),
                        max_degree)

    ab = bracket(alpha, beta, xa, xb)
    ab_pair = form_pairing(alpha, beta, a)
    rhs = []
    for dl in (PolyOneForm.coordinate(n, k, exact) for k in range(n)):
        xl = _sharp(pi, dl)
        term = apply_field(xa, form_pairing(beta, dl, a))
        term = term + apply_field(xb, form_pairing(alpha, dl, a))
        term = term - apply_field(xl, ab_pair)
        term = term + form_pairing(bracket(dl, alpha, xl, xa), beta, a)
        term = term + form_pairing(bracket(dl, beta, xl, xb), alpha, a)
        term = term + form_pairing(ab, dl, a)
        rhs.append(term)
    half = Fraction(1, 2) if exact else 0.5
    coeffs = []
    for j in range(n):
        h = Polynomial.zero(n, exact)
        for l in range(n):
            if ainv[j][l] == 0 or rhs[l].is_zero():
                continue
            h = h + rhs[l] * ainv[j][l]
        coeffs.append(h * half)
    out = PolyOneForm(tuple(coeffs), exact)
    return _degree_guard(out, max_degree, "contravariant derivative")
