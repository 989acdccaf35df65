"""Structure-constant bookkeeping: construction, Jacobi, adjoints, center."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liemetric import (
    InvalidStructureError,
    LieAlgebra,
    abelian,
    affine_line,
    heisenberg,
    sol,
    solvable_family,
)
from conftest import random_algebra, random_metric, random_shear


def test_bracket_antisymmetry_enforced():
    c = [[[0, 0, 0], [0, 0, 1], [0, 0, 0]],
         [[0, 0, 0], [0, 0, 0], [0, 0, 0]],  # missing the mirror entry
         [[0, 0, 0], [0, 0, 0], [0, 0, 0]]]
    with pytest.raises(InvalidStructureError):
        LieAlgebra.from_structure(c)


def test_from_brackets_heisenberg():
    alg = LieAlgebra.from_brackets(3, {(0, 1): [0, 0, 1]})
    assert alg.bracket(alg.basis(0), alg.basis(1)) == [0, 0, 1]
    assert alg.bracket(alg.basis(1), alg.basis(0)) == [0, 0, -1]
    assert alg.jacobi_residual() == 0


def test_jacobi_rejects_bad_structure():
    # [e1,e2]=e3, [e1,e3]=e1, [e2,e3]=e2 fails Jacobi
    with pytest.raises(InvalidStructureError):
        LieAlgebra.from_brackets(
            3, {(0, 1): [0, 0, 1], (0, 2): [1, 0, 0], (1, 2): [0, 1, 0]})


def test_worst_jacobi_triple_flags_offender():
    bad = LieAlgebra.from_brackets(
        3, {(0, 1): [0, 0, 1], (0, 2): [1, 0, 0], (1, 2): [0, 1, 0]},
        check_jacobi=False)
    residual, triple = bad.worst_jacobi_triple()
    assert residual > 0
    assert triple == (0, 1, 2)


def test_worst_jacobi_triple_ties_go_to_first_triple():
    # (0,1,3) and (1,2,3) both have defect 2, (0,1,2) has 1
    bad = LieAlgebra.from_brackets(
        4, {(0, 1): [0, 0, 0, 1], (0, 3): [1, 0, 0, 0], (1, 2): [0, 0, 0, 1],
            (1, 3): [0, 1, 0, 0], (2, 3): [0, 0, 1, 0]},
        check_jacobi=False)
    for alg in (bad, bad.to_float()):
        residual, triple = alg.worst_jacobi_triple()
        assert residual == 2
        assert triple == (0, 1, 3)


def test_exact_and_float_result_types(rng):
    alg = solvable_family(1, 2, 3)
    moved = alg.changed_basis(random_shear(rng, 3))
    assert all(type(x) is Fraction for plane in moved.c for row in plane for x in row)
    assert type(moved.jacobi_residual()) is Fraction
    assert type(moved.worst_jacobi_triple()[0]) is Fraction
    assert all(type(x) is Fraction for x in moved.bracket(moved.basis(0), moved.basis(1)))
    flt = moved.to_float().changed_basis([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
    assert all(type(x) is float for plane in flt.c for row in plane for x in row)
    assert type(flt.jacobi_residual()) is float
    assert all(type(x) is float for x in flt.ad_traces())


def test_nan_structure_constant_fails_jacobi():
    alg = LieAlgebra.from_brackets(3, {(0, 1): [0.0, 0.0, float("nan")]},
                                   exact=False, check_jacobi=False)
    assert np.isnan(alg.worst_jacobi_triple()[0])
    with pytest.raises(InvalidStructureError):
        alg.require_jacobi()


def test_adjoint_matrix_columns_are_brackets():
    alg = sol()
    ad1 = alg.adjoint_matrix(alg.basis(0))
    for j in range(3):
        col = [ad1[i][j] for i in range(3)]
        assert col == alg.bracket(alg.basis(0), alg.basis(j))


@pytest.mark.parametrize("alg,expect", [
    (heisenberg(), True),
    (abelian(3), True),
    (sol(), True),
    (affine_line(), False),
    # the two-parameter action of e1 is traceless for every (alpha, beta, gamma)
    (solvable_family(1, 2, 3), True),
])
def test_unimodularity(alg, expect):
    report = alg.is_unimodular()
    assert bool(report) is expect
    if not expect:
        assert any(t != 0 for t in report.traces)


def test_unimodularity_trace_values():
    # ad_{e1} on [e1,e2]=e2 has trace 1; the family with alpha=1 is traceless
    assert affine_line().ad_traces() == (1, 0)
    assert solvable_family(1, 0, 0).ad_traces() == (0, 0, 0)


def test_center_heisenberg():
    center = heisenberg().center()
    assert len(center) == 1
    v = center[0]
    assert v[0] == v[1] == 0 and v[2] != 0


def test_center_abelian_full():
    assert len(abelian(3).center()) == 3


def test_center_empty_for_sol():
    assert sol().center() == []


def test_changed_basis_preserves_jacobi(rng):
    alg = heisenberg()
    p = random_shear(rng, 3)
    moved = alg.changed_basis(p)
    assert moved.jacobi_residual() == 0
    assert moved.exact


def test_changed_basis_roundtrip(rng):
    from liemetric import rational
    alg = solvable_family(1, 2, 3)
    p = random_shear(rng, 3)
    pinv = rational.inverse(p)
    back = alg.changed_basis(p).changed_basis(pinv)
    assert back.c == alg.c


def test_random_algebras_satisfy_jacobi(rng):
    for _ in range(25):
        dim = int(rng.integers(2, 6))
        alg = random_algebra(rng, dim)
        assert alg.jacobi_residual() == 0


def test_float_mode_jacobi_tolerance():
    alg = heisenberg().to_float()
    assert not alg.exact
    assert alg.jacobi_residual() <= 1e-15


@given(st.integers(1, 5))
@settings(max_examples=10, deadline=None)
def test_abelian_brackets_vanish(n):
    alg = abelian(n)
    u = [Fraction(1)] * n
    assert alg.bracket(u, u) == [0] * n
    assert alg.jacobi_residual() == 0


def test_structure_array_matches_constants():
    arr = heisenberg().structure_array()
    assert arr.shape == (3, 3, 3)
    assert arr[0, 1, 2] == 1.0 and arr[1, 0, 2] == -1.0
    assert np.count_nonzero(arr) == 2
