"""Exact linear algebra: solve, inverse, determinant, null space and inertia
against references coded here, on seeded integer and Fraction matrices up to
8x8, and the integer solve on hypothesis-drawn rational systems."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
    # the exact solve itself reports the degeneracy, without the separate check
    monkeypatch.setattr(metric_module.Metric, "require_nondegenerate", lambda self: None)
    with pytest.raises(DegenerateMetricError):
        levi_civita_product(heisenberg(), singular)


def test_inertia_takes_integer_entries_exactly():
    """Int entries are taken exactly, as ints: float division would cancel
    the determinant -1 of the first form into a zero pivot."""
    big = 10 ** 17
    assert rational.inertia([[big + 1, big], [big, big - 1]]) == (1, 1, 0)
    rng = random.Random(17)
    for n in range(1, 7):
        for rank in (None, n - 1):
            a = draw(rng, n, n, rank=rank, fractions=False)
            sym = [[a[i][j] + a[j][i] for j in range(n)] for i in range(n)]
            as_fractions = [[Fraction(x) for x in row] for row in sym]
            assert rational.inertia(sym) == rational.inertia(as_fractions)


def reference_inertia(a):
    """The Fraction congruence loop that ``rational.inertia`` replaced, verbatim:
    every pivot division in Fractions."""
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    p = q = z = 0
    for k in range(n):
        if m[k][k] == 0:
            j = next((j for j in range(k + 1, n) if m[j][j] != 0), None)
            if j is not None:
                # symmetric swap of rows/cols k and j
                m[k], m[j] = m[j], m[k]
                for row in m:
                    row[k], row[j] = row[j], row[k]
            else:
                j = next((j for j in range(k + 1, n) if m[k][j] != 0), None)
                if j is None:
                    z += 1
                    continue
                # e_k <- e_k + e_j turns the zero diagonal into 2*m[k][j]
                for c in range(n):
                    m[k][c] += m[j][c]
                for r in range(n):
                    m[r][k] += m[r][j]
        d = m[k][k]
        if d > 0:
            p += 1
        else:
            q += 1
        for r in range(k + 1, n):
            f = m[r][k] / d
            if f == 0:
                continue
            for c in range(k, n):
                m[r][c] -= f * m[k][c]
            # keep symmetry for the remaining block
        for c in range(k + 1, n):
            m[k][c] = Fraction(0)
        for r in range(k + 1, n):
            m[r][k] = Fraction(0)
    return p, q, z


def _symmetric_cases(rng, n, fractions):
    """Seeded symmetric n x n matrices: a random one, zero diagonals (a hollow
    form and a hyperbolic block sum), congruences P^T D P of an indefinite
    diagonal D and of D with one and with two zeros (singular), and zero."""
    def congruent(d):
        p = draw(rng, n, n, fractions=fractions)
        pt = [list(col) for col in zip(*p)]
        return matmul(matmul(pt, [[d[i] if i == j else 0 for j in range(n)]
                                  for i in range(n)]), p)

    a = draw(rng, n, n, fractions=fractions)
    hollow = [[0 if i == j else a[i][j] + a[j][i] for j in range(n)] for i in range(n)]
    hyperbolic = [[int(i // 2 == j // 2 and i != j) for j in range(n)] for i in range(n)]
    signs = [rng.choice([-3, -1, 1, 2]) for _ in range(n)]
    return [[[a[i][j] + a[j][i] for j in range(n)] for i in range(n)], hollow, hyperbolic,
            congruent(signs), congruent([0] + signs[1:]), congruent([0, 0] + signs[2:]),
            [[0] * n for _ in range(n)]]


@pytest.mark.parametrize("fractions", [False, True])
@pytest.mark.parametrize("seed", range(3))
def test_inertia_matches_fraction_reference(seed, fractions):
    """The fraction-free congruence gives the Fraction loop's (p, q, z) on
    int and rational forms, n = 1..7, with zero diagonals, singular and
    indefinite ones among them; p + q + z = n and z is the nullity."""
    rng = random.Random(40 + seed)
    seen = set()
    for n in range(1, 8):
        for _ in range(3):
            for a in _symmetric_cases(rng, n, fractions):
                assert all(a[i][j] == a[j][i] for i in range(n) for j in range(n))
                got = rational.inertia(a)
                assert got == reference_inertia(a)
                assert sum(got) == n and got[2] == len(rational.nullspace(a))
                seen.add((got[0] > 0 and got[1] > 0, got[2] > 0))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


_entries = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))


@st.composite
def _systems(draw_):
    """A rational n x n system a x = b, n = 1..6, with 1..3 right sides; about
    one in four has a row of a made a combination of at most two others (singular)."""
    n = draw_(st.integers(1, 6))
    a = draw_(st.lists(st.lists(_entries, min_size=n, max_size=n), min_size=n, max_size=n))
    if n >= 2 and draw_(st.integers(0, 3)) == 0:
        i, *others = draw_(st.permutations(range(n)))
        fs = [draw_(_entries) for _ in others[:2]]
        a[i] = [sum((f * a[t][c] for f, t in zip(fs, others)), Fraction(0)) for c in range(n)]
    cols = draw_(st.integers(1, 3))
    b = draw_(st.lists(st.lists(_entries, min_size=cols, max_size=cols),
                       min_size=n, max_size=n))
    return a, b


@given(_systems())
@settings(max_examples=150, deadline=None)
def test_solve_int_answers_in_integers(system):
    """a @ rows == d * b exactly with int rows and d > 0; a singular a raises;
    solve and inverse equal plain Gauss-Jordan over Fractions."""
    a, b = system
    n = len(a)
    red, pivots = reference_rref([row + brow for row, brow in zip(a, b)])
    if len([p for p in pivots if p < n]) < n:
        for call in (lambda: rational._solve_int(a, b), lambda: rational.solve(a, b),
                     lambda: rational.inverse(a)):
            with pytest.raises(SingularMatrixError):
                call()
        return
    rows, d = rational._solve_int(a, b)
    assert type(d) is int and d > 0
    assert all(type(x) is int for row in rows for x in row)
    assert matmul(a, rows) == [[d * x for x in row] for row in b]
    assert rational.solve(a, b) == [row[n:] for row in red]
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    inv, _ = reference_rref([row + irow for row, irow in zip(a, ident)])
    assert rational.inverse(a) == [row[n:] for row in inv]
