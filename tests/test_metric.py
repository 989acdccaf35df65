"""Metric forms, the contraction product, and the compatibility residual."""

from fractions import Fraction

import numpy as np
import pytest

from liemetric import (
    DegenerateMetricError,
    LieAlgebra,
    Metric,
    abelian,
    affine_line,
    compatibility_residual,
    euclidean_motions,
    heisenberg,
    heisenberg_split_metric,
    is_pseudo_riemannian,
    levi_civita_product,
    signature,
    sol,
    sol_split_metric,
    solvable_family,
)
from conftest import random_algebra, random_metric


def test_from_rows_validates_symmetry():
    with pytest.raises(ValueError):
        Metric.from_rows([[1, 2], [3, 4]])


def test_signature_cases():
    assert Metric.identity(3).signature() == (3, 0)
    assert Metric.diagonal([1, 1, -1]).signature() == (2, 1)
    assert Metric.from_rows([[0, 1], [1, 0]]).signature() == (1, 1)
    assert heisenberg_split_metric().signature() == (2, 1)


def test_signature_function_float():
    sig = signature(Metric.from_rows([[0.0, 1.0], [1.0, 0.0]], exact=False))
    assert (sig.p, sig.q) == (1, 1)


def test_degenerate_metric_rejected():
    bad = Metric.from_rows([[1, 1], [1, 1]])
    assert not bad.is_nondegenerate()
    with pytest.raises(DegenerateMetricError):
        levi_civita_product(abelian(2), bad)


def test_signature_of_degenerate_raises():
    with pytest.raises(DegenerateMetricError):
        Metric.from_rows([[1, 1], [1, 1]]).signature()


def test_product_abelian_vanishes(rng):
    a = random_metric(rng, 3)
    conn = levi_civita_product(abelian(3), a)
    assert np.all(conn.as_array() == 0)


def test_product_heisenberg_identity_values():
    conn = levi_civita_product(heisenberg(), Metric.identity(3))
    half = Fraction(1, 2)
    assert conn.product(0, 1) == [0, 0, half]
    assert conn.product(0, 2) == [0, -half, 0]
    assert conn.product(1, 2) == [half, 0, 0]
    for i in range(3):
        assert conn.product(i, i) == [0, 0, 0]


def test_product_torsion_identity():
    # A_vu = A_uv - [u,v] pins the asymmetric part
    conn = levi_civita_product(heisenberg(), Metric.identity(3))
    assert conn.product(1, 0) == [0, 0, Fraction(-1, 2)]


def test_connection_invariants_random(rng):
    for _ in range(10):
        dim = int(rng.integers(2, 5))
        alg = random_algebra(rng, dim)
        a = random_metric(rng, dim)
        conn = levi_civita_product(alg, a)
        assert conn.torsion_residual(alg) == 0
        assert conn.skew_residual(a) == 0


def test_connection_uniqueness_under_permutation(rng):
    # solving the defining system in a permuted basis transports the tensor
    alg = solvable_family(1, 2, 3)
    a = random_metric(rng, 3)
    perm = [[Fraction(0), Fraction(1), Fraction(0)],
            [Fraction(0), Fraction(0), Fraction(1)],
            [Fraction(1), Fraction(0), Fraction(0)]]
    conn = levi_civita_product(alg, a)
    conn_p = levi_civita_product(alg.changed_basis(perm), a.transported(perm))
    # transport conn through perm and compare one slot
    import liemetric.rational as rational
    pinv = rational.inverse(perm)
    n = 3
    for i in range(n):
        for j in range(n):
            u = [perm[r][i] for r in range(n)]
            v = [perm[r][j] for r in range(n)]
            image = conn.apply(u, v)
            pulled = [sum(pinv[r][s] * image[s] for s in range(n)) for r in range(n)]
            assert pulled == list(conn_p.product(i, j))


def test_residual_heisenberg_identity_exact_half():
    res = compatibility_residual(heisenberg(), Metric.identity(3))
    assert res.value == Fraction(1, 2)
    assert res.exact_zero is False
    assert res.worst_triple in [(0, 0, 2), (1, 1, 2), (2, 0, 0), (2, 1, 1)]


def _defect_squares(alg, conn):
    """Squared defect norm per triple, by loops over the raw tensors."""
    n, c, x = alg.dim, alg.c, conn.tensor
    out = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                d = [sum(x[i][j][m] * c[m][k][t] + c[i][m][t] * x[k][j][m] for m in range(n))
                     for t in range(n)]
                out[(i, j, k)] = sum(v * v for v in d)
    return out


def test_residual_ties_go_to_first_triple():
    for alg, a in [(heisenberg(), Metric.identity(3)),
                   (heisenberg().to_float(), Metric.identity(3, exact=False))]:
        squares = _defect_squares(alg, levi_civita_product(alg, a))
        top = max(squares.values())
        maximal = sorted(t for t, v in squares.items() if v == top)
        assert len(maximal) > 1
        assert compatibility_residual(alg, a).worst_triple == maximal[0]


def test_exact_and_float_result_types(rng):
    alg = solvable_family(1, 2, 3)
    a = random_metric(rng, 3)
    for mode, kind in [(True, Fraction), (False, float)]:
        pair_alg, pair_a = (alg, a) if mode else (alg.to_float(), a.to_float())
        conn = levi_civita_product(pair_alg, pair_a)
        assert all(type(v) is kind for plane in conn.tensor for row in plane for v in row)
        assert type(conn.torsion_residual(pair_alg)) is kind
        assert type(conn.skew_residual(pair_a)) is kind
        assert type(pair_a.apply([1, 0, 0], [0, 1, 1])) is kind
        assert type(compatibility_residual(pair_alg, pair_a, conn).value) is float


def test_nan_propagates_through_residuals():
    nan = float("nan")
    alg = LieAlgebra.from_brackets(3, {(0, 1): [0.0, 0.0, nan]},
                                   exact=False, check_jacobi=False)
    a = Metric.identity(3, exact=False)
    conn = levi_civita_product(alg, a)
    assert np.isnan(conn.torsion_residual(alg))
    assert np.isnan(conn.skew_residual(a))
    assert np.isnan(compatibility_residual(alg, a, conn).value)
    nan_metric = Metric.from_rows([[1.0, 0.0, 0.0], [0.0, nan, 0.0], [0.0, 0.0, 1.0]],
                                  exact=False)
    good = levi_civita_product(heisenberg().to_float(), a)
    assert np.isnan(good.skew_residual(nan_metric))


def test_residual_scale_invariance(rng):
    alg = solvable_family(1, 2, 3)
    a = random_metric(rng, 3)
    scaled = Metric.from_rows([[5 * x for x in row] for row in a.rows()])
    r1 = compatibility_residual(alg, a)
    r5 = compatibility_residual(alg, scaled)
    assert r1.value == r5.value


def test_certificates_are_exact_zero():
    for alg, a in [
        (heisenberg(), heisenberg_split_metric()),
        (sol(), sol_split_metric()),
        (euclidean_motions(), Metric.identity(3)),
        (solvable_family(0, 1, -1), Metric.identity(3)),
    ]:
        res = compatibility_residual(alg, a)
        assert res.exact_zero is True
        assert is_pseudo_riemannian(alg, a)


def test_affine_line_never_compatible(rng):
    """The nonabelian 2D algebra has defect 1 in every metric."""
    for _ in range(50):
        a = random_metric(rng, 2)
        res = compatibility_residual(affine_line(), a)
        assert res.value >= 1
        assert not is_pseudo_riemannian(affine_line(), a)


def test_residual_equivariance_under_basis_change(rng):
    from conftest import random_shear
    alg = euclidean_motions()
    a = Metric.identity(3)
    p = random_shear(rng, 3)
    res = compatibility_residual(alg.changed_basis(p), a.transported(p))
    assert res.exact_zero is True


def test_float_mode_close_to_exact(rng):
    alg = solvable_family(1, 2, 3)
    a = random_metric(rng, 3)
    exact = compatibility_residual(alg, a)
    approx = compatibility_residual(alg.to_float(), a.to_float())
    assert approx.exact_zero is None
    assert abs(float(exact.value) - approx.value) < 1e-10


def test_transported_metric_congruence():
    a = Metric.diagonal([1, -1])
    p = [[Fraction(2), Fraction(1)], [Fraction(0), Fraction(1)]]
    t = a.transported(p)
    assert t.signature() == a.signature()
    assert t.apply([1, 0], [1, 0]) == 4
