"""Shared generators for randomized tests.

Random algebras are built from known-valid bases (so the Jacobi identity
holds by construction) embedded with abelian padding and conjugated by an
exact invertible change of basis. Random metrics are rational, symmetric,
and rejected until exactly nondegenerate.
"""

from fractions import Fraction

import numpy as np
import pytest

from liemetric import Metric, abelian, affine_line, heisenberg, solvable_family
from liemetric.algebra import LieAlgebra


def _seed_algebras():
    return [
        abelian(2),
        abelian(3),
        affine_line(),
        heisenberg(),
        solvable_family(1, 0, 0),
        solvable_family(0, -1, 1),
        solvable_family(Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4)),
    ]


def _padded(alg: LieAlgebra, dim: int) -> LieAlgebra:
    if alg.dim == dim:
        return alg
    c = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(alg.dim):
        for j in range(alg.dim):
            for k in range(alg.dim):
                c[i][j][k] = Fraction(alg.c[i][j][k])
    return LieAlgebra.from_structure(c)


def random_shear(rng: np.random.Generator, dim: int):
    """Unit upper-triangular times unit lower-triangular: det 1, exact."""
    up = [[Fraction(1) if i == j else Fraction(0) for j in range(dim)]
          for i in range(dim)]
    low = [[Fraction(1) if i == j else Fraction(0) for j in range(dim)]
           for i in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            up[i][j] = Fraction(int(rng.integers(-2, 3)), int(rng.integers(1, 4)))
            low[j][i] = Fraction(int(rng.integers(-2, 3)), int(rng.integers(1, 4)))
    prod = [[sum(up[i][k] * low[k][j] for k in range(dim)) for j in range(dim)]
            for i in range(dim)]
    return prod


def random_algebra(rng: np.random.Generator, dim: int) -> LieAlgebra:
    pool = [a for a in _seed_algebras() if a.dim <= dim]
    base = _padded(pool[int(rng.integers(0, len(pool)))], dim)
    return base.changed_basis(random_shear(rng, dim))


def random_metric(rng: np.random.Generator, dim: int,
                  indefinite: bool = True) -> Metric:
    while True:
        m = [[Fraction(0)] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                num = int(rng.integers(-3, 4))
                if i == j:
                    sign = -1 if (indefinite and rng.random() < 0.3) else 1
                    num = sign * (abs(num) + 1)
                m[i][j] = m[j][i] = Fraction(num, int(rng.integers(1, 4)))
        cand = Metric.from_rows(m)
        if cand.is_nondegenerate():
            return cand


def random_antisymmetric(rng: np.random.Generator, n: int, exact: bool) -> list:
    """A seeded tensor, exactly antisymmetric in its first two axes, that
    need not satisfy the Jacobi identity: Fractions p/q, or normal floats
    spread over six decades."""
    if exact:
        x = [[[Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5))) for _ in range(n)]
              for _ in range(n)] for _ in range(n)]
        return [[[x[i][j][k] - x[j][i][k] for k in range(n)] for j in range(n)]
                for i in range(n)]
    x = rng.standard_normal((n, n, n)) * 10.0 ** rng.integers(-3, 4, size=(n, n, n))
    return (x - x.transpose(1, 0, 2)).tolist()


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)
