"""Dense-dict polynomial arithmetic over exact and float scalars."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liemetric import Polynomial


def coeffs(exact=True):
    if exact:
        return st.fractions(min_value=-4, max_value=4, max_denominator=6)
    return st.floats(-4, 4, allow_nan=False)


@st.composite
def polys(draw, nvars=2, exact=True):
    n = draw(st.integers(0, 3))
    terms = {}
    for _ in range(n):
        expo = tuple(draw(st.integers(0, 2)) for _ in range(nvars))
        terms[expo] = draw(coeffs(exact))
    return Polynomial(nvars, terms, exact=exact)


def test_zero_and_constant():
    z = Polynomial.zero(3)
    assert z.is_zero() and z.degree() == -1
    c = Polynomial.constant(3, Fraction(2, 3))
    assert c.degree() == 0 and c.eval([9, 9, 9]) == Fraction(2, 3)


def test_coordinate_eval():
    x1 = Polynomial.coordinate(3, 0)
    assert x1.eval([Fraction(5), 0, 0]) == 5


def test_mul_expands():
    x, y = Polynomial.coordinate(2, 0), Polynomial.coordinate(2, 1)
    p = (x + y) * (x - y)
    assert p.eval([3, 2]) == 5
    assert p.degree() == 2


def test_diff_power_rule():
    x = Polynomial.coordinate(1, 0)
    p = x * x * x
    assert p.diff(0).eval([2]) == 12


def test_diff_drops_unrelated_variable():
    x, y = Polynomial.coordinate(2, 0), Polynomial.coordinate(2, 1)
    assert (x * x).diff(1).is_zero()
    assert (x * y).diff(1).eval([7, 1]) == 7


def test_mismatched_arity_raises():
    with pytest.raises(ValueError):
        Polynomial.coordinate(2, 0) + Polynomial.coordinate(3, 0)


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        Polynomial(1, {(-1,): Fraction(1)})


def test_zero_coefficients_dropped():
    p = Polynomial(2, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
    assert len(p.terms) == 1


@given(polys(), polys())
@settings(max_examples=60, deadline=None)
def test_add_commutes(p, q):
    assert (p + q).terms == (q + p).terms


@given(polys(), polys(), polys())
@settings(max_examples=60, deadline=None)
def test_mul_distributes(p, q, r):
    left = p * (q + r)
    right = p * q + p * r
    assert left.terms == right.terms


@given(polys())
@settings(max_examples=60, deadline=None)
def test_sub_self_is_zero(p):
    assert (p - p).is_zero()


@given(polys(), st.fractions(min_value=-3, max_value=3, max_denominator=4))
@settings(max_examples=60, deadline=None)
def test_scalar_mul_matches_eval(p, s):
    pt = [Fraction(1, 2), Fraction(-2)]
    assert (p * s).eval(pt) == s * p.eval(pt)


@given(polys(exact=False), polys(exact=False))
@settings(max_examples=40, deadline=None)
def test_float_product_eval(p, q):
    pt = [0.7, -1.3]
    got = (p * q).eval(pt)
    want = p.eval(pt) * q.eval(pt)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_max_coeff():
    p = Polynomial(1, {(0,): Fraction(1, 2), (3,): Fraction(-7, 3)})
    assert p.max_coeff() == pytest.approx(7 / 3)


def test_str_readable():
    x = Polynomial.coordinate(2, 0)
    s = str(x * x * Fraction(3, 2))
    assert "mu1" in s


def _validated(p):
    """The same terms passed through the validating public constructor."""
    return Polynomial(p.nvars, dict(p.terms), exact=p.exact)


@pytest.mark.parametrize("exact", [True, False])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_arithmetic_results_are_well_formed(exact, data):
    p = data.draw(polys(exact=exact))
    q = data.draw(polys(exact=exact))
    s = data.draw(coeffs(exact))
    kind = Fraction if exact else float
    for r in (p + q, p - q, -p, p * q, p * s, s * p, p - p, p.diff(0), p.diff(1)):
        assert r.terms == _validated(r).terms
        assert list(r.terms) == list(_validated(r).terms)
        assert all(c != 0 for c in r.terms.values())
        assert all(type(c) is kind for c in r.terms.values())
        assert r.exact is exact and r.nvars == p.nvars


@pytest.mark.parametrize("exact", [True, False])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_zero_operand_gives_the_other(exact, data):
    p = data.draw(polys(exact=exact))
    z = Polynomial.zero(2, exact)
    assert p + z == p and z + p == p
    assert p - z == p and z - p == -p
    assert (z + z).is_zero() and (z - z).is_zero()


@pytest.mark.parametrize("exact", [True, False])
def test_zero_operand_still_checks_its_mate(exact):
    p = Polynomial.coordinate(2, 0, exact)
    for z in (Polynomial.zero(3, exact), Polynomial.zero(2, not exact)):
        for op in (lambda x, y: x + y, lambda x, y: x - y):
            with pytest.raises(ValueError):
                op(p, z)
            with pytest.raises(ValueError):
                op(z, p)
            with pytest.raises(ValueError):
                op(z, Polynomial.zero(2, exact))


@pytest.mark.parametrize("exact", [True, False])
def test_sub_cases(exact):
    """Difference in one pass over both operands' terms: disjoint terms carry
    over (negated from the right), shared ones subtract, exact cancellation
    drops the term, and a zero operand returns the other (negated on the left)."""
    def poly(terms):
        return Polynomial(2, terms, exact)

    p = poly({(1, 0): 3, (0, 0): Fraction(1, 2)})
    assert (p - poly({(0, 1): 2})).terms == poly({(1, 0): 3, (0, 0): Fraction(1, 2),
                                                  (0, 1): -2}).terms
    assert (p - poly({(1, 0): 1, (0, 2): 5})).terms == poly({(1, 0): 2, (0, 0): Fraction(1, 2),
                                                             (0, 2): -5}).terms
    assert (p - poly({(1, 0): 3})).terms == poly({(0, 0): Fraction(1, 2)}).terms
    assert (p - poly({(1, 0): 3, (0, 0): Fraction(1, 2)})).terms == {}
    z = Polynomial.zero(2, exact)
    assert p - z is p
    assert (z - p).terms == poly({(1, 0): -3, (0, 0): Fraction(-1, 2)}).terms
    assert (p - 2).terms == poly({(1, 0): 3, (0, 0): Fraction(-3, 2)}).terms
    for mate in (Polynomial.coordinate(3, 0, exact), Polynomial.coordinate(2, 0, not exact)):
        with pytest.raises(ValueError):
            p - mate


@pytest.mark.parametrize("exact", [True, False])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_sub_is_sum_with_negation(exact, data):
    """p - q has the same terms, in the same order, as p + (-q): negation and
    subtraction round alike in IEEE arithmetic."""
    p = data.draw(polys(exact=exact))
    q = data.draw(polys(exact=exact))
    got, want = p - q, p + (-q)
    assert list(got.terms.items()) == list(want.terms.items())
