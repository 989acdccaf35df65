"""Structure-constant bookkeeping: construction, Jacobi, adjoints, center."""

import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liemetric import (
    DimensionMismatchError,
    InvalidStructureError,
    LieAlgebra,
    Metric,
    abelian,
    affine_line,
    heisenberg,
    heisenberg_split_metric,
    sol,
    solvable_family,
)
from liemetric import rational
from liemetric.scalars import MAX_FLOAT_ENTRY
from conftest import random_algebra, random_antisymmetric, random_metric, random_shear


def test_bracket_antisymmetry_enforced():
    c = [[[0, 0, 0], [0, 0, 1], [0, 0, 0]],
         [[0, 0, 0], [0, 0, 0], [0, 0, 0]],  # missing the mirror entry
         [[0, 0, 0], [0, 0, 0], [0, 0, 0]]]
    with pytest.raises(InvalidStructureError, match=r"c\[0\]\[1\]\[2\]"):
        LieAlgebra.from_structure(c)
    c[1][2][0] = 5  # fails too, and comes first in column-major order
    for exact in (True, False):
        with pytest.raises(InvalidStructureError, match=r"c\[0\]\[1\]\[2\]"):
            LieAlgebra.from_structure(c, exact=exact)


def test_float_constants_are_finite_and_capped_before_antisymmetry():
    """A float constant that is not finite or is above MAX_FLOAT_ENTRY in
    magnitude is refused, and named, before antisymmetry is checked: a NaN
    mirrored by a NaN and an inf mirrored by -inf fail, and a pair whose
    mirror is the bad entry names the mirror. The cap itself passes, and no
    check warns."""
    nan, inf, above = math.nan, math.inf, np.nextafter(MAX_FLOAT_ENTRY, math.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x, y, where in ((nan, 1.0, r"c\[0\]\[1\]\[0\] is nan"),
                            (1.0, nan, r"c\[1\]\[0\]\[0\] is nan"),
                            (nan, nan, r"c\[0\]\[1\]\[0\] is nan"),
                            (inf, -inf, r"c\[0\]\[1\]\[0\] is inf"),
                            (-1.0, -inf, r"c\[1\]\[0\]\[0\] is -inf"),
                            (above, -above, r"c\[0\]\[1\]\[0\] is 1\.0+3e\+50")):
            c = [[[0.0, 0.0], [x, 0.0]], [[y, 0.0], [0.0, 0.0]]]
            with pytest.raises(InvalidStructureError, match=where + r"; .* at most 1e\+50"):
                LieAlgebra.from_structure(c, exact=False, check_jacobi=False)
        for x, y in ((MAX_FLOAT_ENTRY, -MAX_FLOAT_ENTRY), (1.0, -1.0 + 1e-12)):
            c = [[[0.0, 0.0], [x, 0.0]], [[y, 0.0], [0.0, 0.0]]]
            assert LieAlgebra.from_structure(c, exact=False, check_jacobi=False).dim == 2


def test_changed_basis_float_algebras_are_stored_antisymmetric():
    """A float algebra moved by a large change of basis misses antisymmetry by
    rounding relative to its constants: stored as its antisymmetric part, it
    is accepted in every draw, where an absolute tolerance refused 21 of
    these 300. A tensor off by more than the relative tolerance is still
    refused, with the same message."""
    alg = solvable_family(0.5, -0.7, 1.3)
    rng = np.random.default_rng(0)
    for _ in range(300):
        moved = alg.changed_basis((1e4 * rng.standard_normal((3, 3))).tolist())
        c = np.array(moved.c)
        assert (c == -c.transpose(1, 0, 2)).all()
    big = [[[0.0, 0.0], [1e6, 0.0]], [[-1e6 + 1e-5, 0.0], [0.0, 0.0]]]
    kept = LieAlgebra.from_structure(big, check_jacobi=False)
    assert kept.c[0][1][0] == -kept.c[1][0][0] == 0.5 * 1e6 + 0.5 * (1e6 - 1e-5)
    big[1][0][0] = -1e6 + 1e-3
    with pytest.raises(InvalidStructureError, match=r"^antisymmetry fails at c\[0\]\[1\]\[0\]$"):
        LieAlgebra.from_structure(big, check_jacobi=False)


def test_a_singular_change_of_basis_is_refused_by_one_rule_in_both_modes():
    """The rank of p is judged by ``_rank_null``, exactly in exact mode and at
    RANK_RTOL in float mode, and a rank below dim raises one error with one
    message in both modes, for an algebra and for a metric: a float p that
    rule calls rank-deficient is refused rather than giving constants near
    1e-14 or a degenerate metric. An exact p that is nearly singular is not."""
    h, ha = heisenberg(), heisenberg_split_metric()
    near = [[1, 1, 0], [1, 1 + 1e-14, 0], [0, 0, 1]]
    singular = [[1, 1, 0], [1, 1, 0], [0, 0, 1]]
    for moves, p in (((h.changed_basis, ha.transported), singular),
                     ((h.to_float().changed_basis, ha.to_float().transported), singular),
                     ((h.changed_basis, ha.transported), near),
                     ((h.to_float().changed_basis, ha.to_float().transported), near),
                     ((h.changed_basis, ha.transported), [[1, "1/2", 0], [2, 1, 0], [0, 0, 1]])):
        for move in moves:
            with pytest.raises(rational.SingularMatrixError,
                               match=r"^the change of basis has rank 2 < 3$"):
                move(p)
    for move in (affine_line().to_float().changed_basis,
                 Metric.identity(2).to_float().transported):
        with pytest.raises(rational.SingularMatrixError,
                           match=r"^the change of basis has rank 1 < 2$"):
            move([[1e30, 0.0], [0.0, 1.0]])
    nearly = [[1, 1, 0], [1, 1 + Fraction(1, 10**14), 0], [0, 0, 1]]
    moved = h.changed_basis(nearly)
    assert moved.exact and moved.jacobi_residual() == 0
    assert ha.transported(nearly).is_nondegenerate()


def test_from_brackets_refuses_a_pair_out_of_order_and_a_short_vector():
    with pytest.raises(InvalidStructureError, match=r"bracket pair \(1, 0\) needs 0 <= i < j < dim"):
        LieAlgebra.from_brackets(2, {(1, 0): [0, 1]})
    with pytest.raises(InvalidStructureError, match=r"bracket pair \(0, 2\)"):
        LieAlgebra.from_brackets(2, {(0, 2): [0, 1]})
    with pytest.raises(DimensionMismatchError, match="vector of length 2 in dimension 3"):
        LieAlgebra.from_brackets(3, {(0, 1): [0, 1]})


def test_library_built_float_algebras_are_capped_and_exact_ones_are_not():
    """The cap covers every way to build a float algebra, so a constant near
    1e200 raises instead of reaching a float kernel as inf or NaN; an exact
    algebra keeps any constant, until it is converted to floats."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidStructureError, match=r"c\[0\]\[1\]\[1\] is 1e\+200"):
            LieAlgebra.from_brackets(2, {(0, 1): [0.0, 1e200]}, exact=False)
        small = LieAlgebra.from_brackets(2, {(0, 1): [0.0, 1e30]}, exact=False)
        with pytest.raises(InvalidStructureError, match=r"at most 1e\+50"):
            small.changed_basis([[1e21, 0.0], [0.0, 1e21]])
        with pytest.raises(InvalidStructureError, match=r"at most 1e\+50"):
            dataclasses.replace(small, c=((((0.0, 0.0), (0.0, 1e60)), ((0.0, -1e60), (0.0, 0.0)))))
        huge = LieAlgebra.from_brackets(2, {(0, 1): [0, 10**60]})
        assert huge.c[0][1][1] == 10**60
        with pytest.raises(InvalidStructureError, match=r"c\[0\]\[1\]\[1\] is 1e\+60"):
            huge.to_float()


def test_an_exact_constant_past_the_float_range_is_refused_by_the_float_copy():
    """A constant whose float view overflows, such as 10**400 or the
    string '1e400', is refused as the cap refuses 10**60: the float copy
    raises InvalidStructureError naming the entry, not OverflowError."""
    for v in (10**400, "-1e400", Fraction(10**401, 3)):
        alg = LieAlgebra.from_brackets(3, {(0, 1): [0, 0, v]})
        with pytest.raises(InvalidStructureError, match=r"c\[0\]\[1\]\[2\] is -?inf; .* 1e\+50"):
            alg.to_float()


def test_from_structure_reads_rational_strings_as_exact():
    """Without a mode, 'p/q' strings are exact, as in Metric.from_rows and
    the scalar rules: a tensor holding '1/2' is exact, and its constant is
    Fraction(1, 2), not the float 0.5."""
    alg = LieAlgebra.from_structure([[[0, 0], [0, "1/2"]], [[0, "-1/2"], [0, 0]]])
    assert alg.exact and alg.c[0][1] == (0, Fraction(1, 2))
    assert all(type(x) is Fraction for x in alg.c[0][1])
    assert not LieAlgebra.from_structure([[[0, 0], [0, 0.5]], [[0, "-1/2"], [0, 0]]]).exact


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


def _reference_worst_jacobi_triple(alg):
    """Every i < j < k triple in lexicographic order, the largest entry of
    its Jacobi defect in plain scalar loops; the first strict maximum wins."""
    n, c = alg.dim, alg.c

    def br(u, w):
        return [sum(u[p] * w[q] * c[p][q][t] for p in range(n) for q in range(n))
                for t in range(n)]

    best, where = None, (0,) * n
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                e = [[int(t == s) for t in range(n)] for s in (i, j, k)]
                d = [x + y + z for x, y, z in zip(br(br(e[0], e[1]), e[2]),
                                                  br(br(e[1], e[2]), e[0]),
                                                  br(br(e[2], e[0]), e[1]))]
                worst = max(abs(x) for x in d)
                if best is None or worst > best:
                    best, where = worst, (i, j, k)
    return (0 if best is None else best), where


def test_worst_jacobi_triple_matches_the_lexicographic_reference():
    """Seeded antisymmetric tensors n = 3..6, Lie or not, exact and float:
    small 0/1 entries make many ties, which go to the first triple."""
    rng = np.random.default_rng(515)
    for n in range(3, 7):
        for trial in range(12):
            c = [[[0] * n for _ in range(n)] for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    for k in range(n):
                        v = int(rng.integers(0, 2)) if trial % 3 == 0 else \
                            Fraction(int(rng.integers(-2, 3)), int(rng.integers(1, 4)))
                        c[i][j][k], c[j][i][k] = v, -v
            alg = LieAlgebra.from_structure(c, exact=True, check_jacobi=False)
            if trial % 4 == 3:
                alg = random_algebra(rng, n)  # a Lie algebra: all zero, (0, 1, 2)
            for x in (alg, alg.to_float()):
                want = _reference_worst_jacobi_triple(x)
                got = x.worst_jacobi_triple()
                assert got[1] == want[1], (n, trial)
                assert got[0] == want[0] if x.exact else abs(got[0] - want[0]) <= 1e-12


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


def test_nan_structure_constant_is_refused_before_jacobi():
    """A NaN constant is refused when the algebra is built, whether or not
    the Jacobi check is asked for, so no Jacobi residual reads NaN."""
    for check in (False, True):
        with pytest.raises(InvalidStructureError, match=r"c\[0\]\[1\]\[2\] is nan"):
            LieAlgebra.from_brackets(3, {(0, 1): [0.0, 0.0, float("nan")]},
                                     exact=False, check_jacobi=check)


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


def test_float_center_does_not_change_with_the_scale_of_the_algebra():
    """The float rank rule is relative to the largest singular value: at
    brackets of 1, 1e-11 and 1e-30 the affine line has no center and the
    Heisenberg algebra a 1-dimensional one, as in exact mode."""
    assert affine_line().center() == [] and len(heisenberg().center()) == 1
    for scale in (1.0, 1e-11, 1e-30):
        line = LieAlgebra.from_brackets(2, {(0, 1): [0, scale]}, exact=False)
        assert line.center() == [], scale
        heis = LieAlgebra.from_brackets(3, {(0, 1): [0, 0, scale]}, exact=False)
        center = heis.center()
        assert len(center) == 1, scale
        assert abs(center[0][2]) == pytest.approx(1.0) and center[0][:2] == pytest.approx([0, 0])


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


def _exactly_antisymmetric(alg):
    n = alg.dim
    return all(alg.c[i][j][k] == -alg.c[j][i][k]
               for i in range(n) for j in range(n) for k in range(n))


def test_every_float_tensor_is_stored_exactly_antisymmetric(rng):
    """Float input that misses antisymmetry within DEFAULT_TOL, and every
    float changed_basis result, reads c[i][j][k] == -c[j][i][k] exactly; an
    exactly antisymmetric tensor keeps its bits. The constructor itself
    holds the rule, so a tensor built without from_structure cannot skip
    it: the compatibility defect reads only antisymmetric tensors."""
    c = [[[0.0, 0.0], [0.25, 1.0]], [[-0.25 + 1e-12, -1.0 - 3e-13], [0.0, 1e-12]]]
    alg = LieAlgebra.from_structure(c, exact=False, check_jacobi=False)
    assert _exactly_antisymmetric(alg)
    assert alg.c[0][1] == (0.5 * 0.25 - 0.5 * (-0.25 + 1e-12), 0.5 * 1.0 - 0.5 * (-1.0 - 3e-13))
    assert alg.c[0][0] == (0.0, 0.0) and alg.c[1][1] == (0.0, 0.0)
    for n in (2, 3, 4, 5, 6):
        base = random_algebra(rng, n).to_float()
        p = rng.standard_normal((n, n)) + 3 * np.identity(n)
        moved = base.changed_basis(p.tolist())
        assert _exactly_antisymmetric(moved)
        again = LieAlgebra.from_structure(moved.c, exact=False)
        assert again.c == moved.c
        assert np.array(again.c).tobytes() == np.array(moved.c).tobytes()
    z = Fraction(0)
    half = (((z, z), (z, Fraction(1))), ((z, z), (z, z)))  # no mirror of [e0, e1]
    with pytest.raises(InvalidStructureError, match=r"c\[0\]\[1\]\[1\]"):
        LieAlgebra(dim=2, c=half, exact=True)
    one_sided = np.zeros((3, 3, 3))
    one_sided[0, 1, 0] = 1.0
    with pytest.raises(InvalidStructureError, match=r"c\[0\]\[1\]\[0\]"):
        dataclasses.replace(heisenberg().to_float(), c=one_sided.tolist())
    assert LieAlgebra(dim=2, c=c, exact=False).c == alg.c



@pytest.mark.parametrize("exact", [True, False])
def test_jacobi_slabs_equal_the_three_term_sum_bit_for_bit(exact):
    """Each slab's two contractions equal the three-term defect
    [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j], written out here
    with one contraction per term: equal ints in exact mode, equal bits in
    float mode."""
    from liemetric.algebra import _jacobi_slab
    from liemetric.scalars import contract

    rng = np.random.default_rng(26)
    for n in range(2, 9):
        for _ in range(3 if exact else 12):
            alg = LieAlgebra.from_structure(random_antisymmetric(rng, n, exact), exact=exact,
                                            check_jacobi=False)
            c, _, b = alg.operand(exact)
            for i in range(n):
                rest = slice(i + 1, n)
                want = (contract("jm,mkt->jkt", c[i, rest], c[:, rest], b, b)
                        + contract("jkm,mt->jkt", c[rest, rest], c[:, i], b, b)
                        + contract("km,mjt->jkt", c[rest, i], c[:, rest], b, b))
                got = _jacobi_slab(c, i, b)
                assert got.shape == want.shape == (n - i - 1, n - i - 1, n)
                if exact:
                    assert got.tolist() == want.tolist()
                else:
                    assert got.tobytes() == want.tobytes()


def test_a_structure_tensor_of_another_dimension_is_refused():
    """The constructor checks the shape against dim: a 3-d tensor declared
    2-d would skip the Jacobi check (n < 3) and read residual 0."""
    with pytest.raises(DimensionMismatchError, match="not dim x dim x dim"):
        LieAlgebra(dim=2, c=heisenberg().c, exact=True)


def test_a_replaced_dimension_is_refused():
    with pytest.raises(DimensionMismatchError, match="not dim x dim x dim"):
        dataclasses.replace(heisenberg(), dim=4)
    with pytest.raises(InvalidStructureError, match="dimension must be positive"):
        LieAlgebra(dim=0, c=(), exact=True)


def test_basis_refuses_an_index_outside_the_dimension():
    """basis(7), basis(-1) and basis(1.5) once read as the zero vector, so
    that a bracket with them read 0."""
    alg = heisenberg()
    assert [alg.basis(i) for i in range(3)] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert alg.basis(np.int64(2)) == [0, 0, 1]
    for i in (-1, 3, 7, 1.5):
        with pytest.raises(IndexError, match=f"basis index {i} is not an integer in 0..2"):
            alg.basis(i)
