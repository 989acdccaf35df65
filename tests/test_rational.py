"""Exact linear algebra: solve, inverse, determinant and null space against
references coded here, on seeded integer and Fraction matrices up to 8x8."""

import itertools
import random
from fractions import Fraction

import pytest

from liemetric import DegenerateMetricError, Metric, heisenberg, levi_civita_product
from liemetric import metric as metric_module
from liemetric import rational
from liemetric.rational import SingularMatrixError


def draw(rng, rows, cols, rank=None, fractions=True):
    """A random rows x cols matrix; of rank at most ``rank`` when given."""
    def entry():
        v = rng.randint(-5, 5)
        return Fraction(v, rng.randint(1, 6)) if fractions and rng.random() < 0.5 else v

    if rank is None:
        return [[entry() for _ in range(cols)] for _ in range(rows)]
    left = draw(rng, rows, rank, fractions=fractions)
    right = draw(rng, rank, cols, fractions=fractions)
    return matmul(left, right) if rank else [[0] * cols for _ in range(rows)]


def matmul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def leibniz_det(a):
    n = len(a)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1 if inversions % 2 else 1)
        for i in range(n):
            term *= a[i][perm[i]]
        total += term
    return total


def reference_rref(a):
    """Plain Gauss-Jordan over Fractions: (reduced rows, pivot columns)."""
    m = [[Fraction(x) for x in row] for row in a]
    pivots = []
    for c in range(len(m[0])):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def reference_nullspace(a):
    red, pivots = reference_rref(a)
    cols = len(a[0])
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(v)
    return basis


@pytest.mark.parametrize("fractions", [False, True])
@pytest.mark.parametrize("seed", range(3))
def test_solve_and_inverse_are_exact(seed, fractions):
    rng = random.Random(seed)
    solved = 0
    for _ in range(40):
        n = rng.randint(1, 8)
        a, b = draw(rng, n, n, fractions=fractions), draw(rng, n, rng.randint(1, 5))
        if rational.det(a) == 0:
            with pytest.raises(SingularMatrixError):
                rational.solve(a, b)
            continue
        x = rational.solve(a, b)
        assert matmul(a, x) == b
        assert all(type(v) is Fraction for row in x for v in row)
        ident = [[int(i == j) for j in range(n)] for i in range(n)]
        assert matmul(a, rational.inverse(a)) == ident
        solved += 1
    assert solved >= 30


@pytest.mark.parametrize("fractions", [False, True])
@pytest.mark.parametrize("seed", range(3))
def test_det_matches_leibniz_and_is_zero_when_singular(seed, fractions):
    rng = random.Random(10 + seed)
    for _ in range(60):
        n = rng.randint(1, 5)
        a = draw(rng, n, n, fractions=fractions)
        assert rational.det(a) == leibniz_det(a)
        assert type(rational.det(a)) is Fraction
    for n in range(1, 9):
        singular = draw(rng, n, n, rank=rng.randint(0, n - 1), fractions=fractions)
        assert rational.det(singular) == 0
        if n <= 5:
            assert leibniz_det(singular) == 0


@pytest.mark.parametrize("fractions", [False, True])
@pytest.mark.parametrize("seed", range(3))
def test_nullspace_matches_reference_rref(seed, fractions):
    rng = random.Random(20 + seed)
    for _ in range(60):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        rank = rng.choice([None, rng.randint(0, min(rows, cols))])
        a = draw(rng, rows, cols, rank=rank, fractions=fractions)
        basis = rational.nullspace(a)
        assert basis == reference_nullspace(a)
        assert all(type(v) is Fraction for vec in basis for v in vec)
        assert all(matmul(a, [[v] for v in vec]) == [[0]] * rows for vec in basis)
    assert rational.nullspace([]) == []
    assert rational.nullspace([[0, 0]]) == [[1, 0], [0, 1]]


@pytest.mark.parametrize("seed", range(3))
def test_singular_solve_and_inverse_raise(seed):
    rng = random.Random(30 + seed)
    for n in range(1, 9):
        a = draw(rng, n, n, rank=rng.randint(0, n - 1))
        with pytest.raises(SingularMatrixError):
            rational.solve(a, draw(rng, n, 2))
        with pytest.raises(SingularMatrixError):
            rational.inverse(a)


def test_exact_product_on_singular_metric_raises(monkeypatch):
    singular = Metric.from_rows([[1, 1, 0], [1, 1, 0], [0, 0, 1]], exact=True)
    with pytest.raises(DegenerateMetricError):
        levi_civita_product(heisenberg(), singular)
    # past the nondegeneracy check, the exact solve itself reports the degeneracy
    monkeypatch.setattr(metric_module.Metric, "require_nondegenerate", lambda self: None)
    with pytest.raises(DegenerateMetricError):
        levi_civita_product(heisenberg(), singular)


def test_inertia_takes_integer_entries_exactly():
    """Int entries are taken as Fractions: float division would cancel the
    determinant -1 of the first form into a zero pivot."""
    big = 10 ** 17
    assert rational.inertia([[big + 1, big], [big, big - 1]]) == (1, 1, 0)
    rng = random.Random(17)
    for n in range(1, 7):
        for rank in (None, n - 1):
            a = draw(rng, n, n, rank=rank, fractions=False)
            sym = [[a[i][j] + a[j][i] for j in range(n)] for i in range(n)]
            as_fractions = [[Fraction(x) for x in row] for row in sym]
            assert rational.inertia(sym) == rational.inertia(as_fractions)
