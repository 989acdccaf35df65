"""Metric forms, the contraction product, and the compatibility residual."""

import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from liemetric import (
    DegenerateMetricError,
    DimensionMismatchError,
    InvalidStructureError,
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
from liemetric import search
from liemetric.metric import ConnectionTensor, _defect_array, _product_rhs
from liemetric.scalars import MAX_FLOAT_ENTRY
from conftest import _padded, random_algebra, random_metric


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


NON_FINITE = {
    "nan_off_diagonal_pair": ([[1.0, math.nan, 0.0], [math.nan, 1.0, 0.0], [0.0, 0.0, 1.0]],
                              r"\(0, 1\) is nan"),
    "nan_diagonal": ([[1.0, 0.0, 0.0], [0.0, math.nan, 0.0], [0.0, 0.0, 1.0]],
                     r"\(1, 1\) is nan"),
    "inf_diagonal": ([[1.0, 0.0, 0.0], [0.0, math.inf, 0.0], [0.0, 0.0, 1.0]],
                     r"\(1, 1\) is inf"),
}


@pytest.mark.parametrize("rows, where", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_non_finite_float_metrics_get_one_answer(rows, where):
    """A float metric with a NaN or infinite entry gets one answer, however it
    is built: a ValueError naming the first such entry, not a LinAlgError
    (a ValueError too), and no floating-point warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for build in (lambda: Metric.from_rows(rows, exact=False),
                      lambda: Metric(matrix=tuple(map(tuple, rows)), exact=False),
                      lambda: dataclasses.replace(Metric.identity(3, exact=False),
                                                  matrix=tuple(map(tuple, rows)))):
            with pytest.raises(ValueError, match=r"metric entry " + where) as info:
                build()
            assert not isinstance(info.value, np.linalg.LinAlgError)


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


@pytest.mark.parametrize("exponent, want", [(100, 1e200), (-100, 1e-200), (150, 1e300),
                                             (-150, 1e-300), (200, math.inf),
                                             (-200, math.ulp(0.0))])
def test_residual_is_the_nearest_float_when_its_square_is_past_the_float_range(exponent, want):
    """[e1, e2] = 10**e e2 with the identity metric has the exact residual
    10**(2e), whose square 10**(4e) is no float: the value is the float
    nearest 10**(2e), not an OverflowError or the root of a rounded square;
    inf past the float range and the smallest double below it."""
    alg = LieAlgebra.from_brackets(2, {(0, 1): [0, Fraction(10) ** exponent]})
    res = compatibility_residual(alg, Metric.identity(2))
    assert res.value == want and res.exact_zero is False


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
    """A NaN constant or metric entry is refused when built. A product is not
    capped, so one with a NaN entry can be built: its residuals read NaN, and
    the compatibility residual refuses it as not the pair's product."""
    nan = float("nan")
    with pytest.raises(InvalidStructureError, match=r"c\[0\]\[1\]\[2\] is nan"):
        LieAlgebra.from_brackets(3, {(0, 1): [0.0, 0.0, nan]}, exact=False, check_jacobi=False)
    with pytest.raises(ValueError, match=r"metric entry \(1, 1\) is nan"):
        Metric.from_rows([[1.0, 0.0, 0.0], [0.0, nan, 0.0], [0.0, 0.0, 1.0]], exact=False)
    alg, a = heisenberg().to_float(), Metric.identity(3, exact=False)
    x = levi_civita_product(alg, a).as_array()
    x[0, 1, 2] = nan
    conn = ConnectionTensor(tensor=tuple(map(lambda p: tuple(map(tuple, p)), x.tolist())),
                            exact=False)
    assert np.isnan(conn.torsion_residual(alg))
    assert np.isnan(conn.skew_residual(a))
    with pytest.raises(ValueError, match="not the Levi-Civita product"):
        compatibility_residual(alg, a, conn)


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


# ------------------------------------------- one-contraction product kernels ---

def _product_rhs_reference(c, a):
    """Three matmuls, one per term, each against its own C-ordered copy of c
    whose rows are the term's two free output axes; the reference
    ``_product_rhs`` matches bit for bit."""
    n, lead = c.shape[0], a.shape[:-2]
    k = len(lead)

    def term(rows, axes):
        out = (np.ascontiguousarray(rows).reshape(n * n, n) @ a).reshape(lead + (n, n, n))
        return out.transpose(tuple(range(k)) + tuple(k + t for t in axes))

    swapped = c.transpose(1, 0, 2)
    # sum_m c[i,j,m] a[m,k]; sum_m c[k,i,m] a[m,j] on rows (i, k); sum_m c[k,j,m] a[m,i] on rows (j, k)
    return term(c, (0, 1, 2)) + term(swapped, (0, 2, 1)) + term(swapped, (2, 0, 1))


def _defect_array_reference(c, x):
    """Two matmuls, one per term, each against its own (n, n^2) copy of c;
    the reference ``_defect_array`` matches bit for bit."""
    n = c.shape[0]
    rows, shape = x.reshape(-1, n), x.shape[:-1] + (n, n)
    first = (rows @ c.reshape(n, n * n)).reshape(shape)
    # sum_m x[k,j,m] c[i,m,l], laid out as (k, j, i, l)
    second = (rows @ np.ascontiguousarray(c.transpose(1, 0, 2)).reshape(n, n * n)).reshape(shape)
    return first + np.swapaxes(second, -4, -2)


def _antisymmetric(rng, n, kind):
    """A C-ordered (n, n, n) float array antisymmetric in its first two axes:
    dense normal entries, mostly zero ones, or quarter integers."""
    if kind == "dense":
        t = rng.standard_normal((n, n, n))
    elif kind == "sparse":
        t = rng.standard_normal((n, n, n)) * (rng.random((n, n, n)) < 0.3)
    else:
        t = rng.integers(-8, 9, (n, n, n)) / 4.0
    return t - t.transpose(1, 0, 2)


def _laid_out(rng, batch, tail, layout):
    """Random entries of shape batch + tail in a given memory layout: C order,
    the last two axes swapped, every other entry of a wider array, reversed
    last axis, or the batch axes stored in reverse."""
    shape = batch + tail
    if layout == "swapped":
        return np.swapaxes(rng.standard_normal(shape[:-2] + shape[-2:][::-1]), -1, -2)
    if layout == "strided":
        return rng.standard_normal(shape[:-1] + (2 * shape[-1],))[..., ::2]
    if layout == "reversed":
        return rng.standard_normal(shape)[..., ::-1]
    if layout == "batch_reversed":
        k = len(batch)
        return rng.standard_normal(batch[::-1] + tail).transpose(
            tuple(range(k))[::-1] + tuple(range(k, len(shape))))
    return rng.standard_normal(shape)


_LAYOUTS = ("c_order", "swapped", "strided", "reversed", "batch_reversed")


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_one_contraction_kernels_are_bit_identical_to_the_separate_ones(n):
    """Seeded float corpus: batch shapes (), (R,) and (R, m) with R up to 139;
    dense, sparse and quarter-integer c; a and x in five memory layouts. The
    kernels' bytes equal the separate contractions' bytes."""
    rng = np.random.default_rng([20261019, n])
    for case in range(150):
        c = _antisymmetric(rng, n, ("dense", "sparse", "quarter")[case % 3])
        batch = ((), (int(rng.integers(1, 140)),),
                 (int(rng.integers(1, 9)), int(rng.integers(1, 7))))[case // 3 % 3]
        layout = _LAYOUTS[case % 5]
        a = _laid_out(rng, batch, (n, n), layout)
        x = _laid_out(rng, batch, (n, n, n), layout)
        for got, want in ((_product_rhs(c, a), _product_rhs_reference(c, a)),
                          (_defect_array(c, x), _defect_array_reference(c, x))):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), (n, batch, layout)


def test_one_contraction_kernels_equal_the_separate_ones_in_big_integers():
    """Without bounds the kernels contract object arrays of Python ints as
    they are; entries above 2**63 would wrap in any fixed-width integer
    path."""
    rng = np.random.default_rng(20261020)

    def big(shape):
        ints = [int(u) * 2 ** 70 + int(v) for u, v in
                zip(rng.integers(-9, 10, int(np.prod(shape))),
                    rng.integers(-5, 6, int(np.prod(shape))))]
        return np.array(ints, dtype=object).reshape(shape)

    for case in range(180):
        n = 1 + case % 4
        batch = ((), (2,), (2, 3))[case % 3]
        c = big((n, n, n))
        c = c - c.transpose(1, 0, 2)
        a, x = big(batch + (n, n)), big(batch + (n, n, n))
        for got, want in ((_product_rhs(c, a), _product_rhs_reference(c, a)),
                          (_defect_array(c, x), _defect_array_reference(c, x))):
            assert got.dtype == object and got.shape == want.shape
            assert (got == want).all()
            assert all(type(v) is int for v in got.flat)


def test_one_contraction_kernels_keep_nan_and_inf_where_the_separate_ones_do():
    """NaN and inf in c, a or x: NaN at the same positions, equal bits
    elsewhere (inf - inf makes NaN in both forms alike). c takes them as
    off-diagonal antisymmetric pairs, c[i,j,k] = v and c[j,i,k] = -v, the
    only form in which a structure tensor holds them."""
    rng = np.random.default_rng(20261021)
    for case in range(120):
        n = 2 + case % 4
        c = _antisymmetric(rng, n, "dense")
        a = rng.standard_normal((3, n, n))
        x = rng.standard_normal((3, n, n, n))
        value = (np.nan, np.inf, -np.inf)[case % 3]
        for t in ((c,), (a,), (x,), (c, a, x))[case % 4]:
            if t is c:
                for _ in range(2):
                    i, j = rng.choice(n, 2, replace=False)
                    k = rng.integers(n)
                    c[i, j, k], c[j, i, k] = value, -value
            else:
                flat = t.reshape(-1)
                flat[rng.integers(0, flat.size, 2)] = value
        with np.errstate(invalid="ignore"):
            pairs = ((_product_rhs(c, a), _product_rhs_reference(c, a)),
                     (_defect_array(c, x), _defect_array_reference(c, x)))
        for got, want in pairs:
            nan = np.isnan(want)
            assert (np.isnan(got) == nan).all()
            assert got[~nan].tobytes() == want[~nan].tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_float_kernel_rows_do_not_depend_on_their_batch(n):
    """Each batch entry of a float kernel, computed alone, has the bytes it
    has inside the batch: batch shapes (R,) and (R, m) at the lockstep cap
    R = ``_batch_size(n)``, m = ``param_count(n)``, every entry. The lockstep
    search relies on this: a restart takes the steps it would take alone.
    It holds on OpenBLAS 0.3.31 (DYNAMIC_ARCH, Haswell kernels) with numpy
    2.4.6 on x86-64, where a gemm row's bits are the same at every row count
    of at least two and at every offset; at n = 1 every entry is a single
    product. A BLAS build without that property fails here first."""
    rng = np.random.default_rng([20261023, n])
    c = _antisymmetric(rng, n, "dense")
    r, m = search._batch_size(n), search.param_count(n)
    for batch in ((r,), (r, m)):
        a = rng.standard_normal(batch + (n, n))
        x = rng.standard_normal(batch + (n, n, n))
        rhs, defect = _product_rhs(c, a), _defect_array(c, x)
        for k in np.ndindex(batch):
            assert _product_rhs(c, a[k]).tobytes() == rhs[k].tobytes(), (batch, k)
            assert _defect_array(c, x[k]).tobytes() == defect[k].tobytes(), (batch, k)


def _gamma(k):
    """Higham's gamma_k = k u / (1 - k u), u = 2**-53, as a Fraction."""
    ku = Fraction(k, 2 ** 53)
    return ku / (1 - ku)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_float_kernels_are_within_the_rounding_bound_of_exact_arithmetic(n):
    """Every entry of a float kernel is within gamma_k * sum |x||y| of the
    exact value of its sum of products, both computed in Fractions from the
    same float operands. k counts the roundings a product can meet: n in
    its dot product (whatever the summation order, with or without fused
    multiply-add), then two more additions of terms for the right sides
    and one for the defect."""
    rng = np.random.default_rng([20261024, n])

    def exact(t):
        return np.vectorize(Fraction, otypes=[object])(t)

    def rhs(c, a):
        return (np.einsum("ijm,...mk->...ijk", c, a) + np.einsum("kim,...mj->...ijk", c, a)
                + np.einsum("kjm,...mi->...ijk", c, a))

    def defect(c, x):
        return (np.einsum("...ijm,mkl->...ijkl", x, c)
                + np.einsum("iml,...kjm->...ijkl", c, x))

    for case in range(3):
        c = _antisymmetric(rng, n, ("dense", "sparse", "quarter")[case])
        batch = ((), (3,), (2, 2))[case]
        a, x = rng.standard_normal(batch + (n, n)), rng.standard_normal(batch + (n, n, n))
        cf, af, xf = exact(c), exact(a), exact(x)
        for got, want, mass, k in (
                (_product_rhs(c, a), rhs(cf, af), rhs(abs(cf), abs(af)), n + 2),
                (_defect_array(c, x), defect(cf, xf), defect(abs(cf), abs(xf)), n + 1)):
            error = abs(exact(got) - want)
            assert (error <= _gamma(k) * mass).all(), (case, k)


def test_float_metric_entries_are_finite_and_capped_before_symmetry():
    """A float entry that is not finite or is above MAX_FLOAT_ENTRY in
    magnitude is refused, and named, before symmetry is checked: a NaN
    mirrored by a NaN and an inf by an inf fail, and a NaN below the
    diagonal is named where it is. The cap itself passes, and no check
    warns. An exact entry has no cap until the metric is converted to
    floats."""
    nan, inf, above = math.nan, math.inf, np.nextafter(MAX_FLOAT_ENTRY, math.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rows, where in (([[1.0, nan], [0.0, 1.0]], r"\(0, 1\) is nan"),
                            ([[1.0, 0.0], [nan, 1.0]], r"\(1, 0\) is nan"),
                            ([[1.0, nan], [nan, 1.0]], r"\(0, 1\) is nan"),
                            ([[inf, 0.0], [0.0, 1.0]], r"\(0, 0\) is inf"),
                            ([[1.0, inf], [inf, 1.0]], r"\(0, 1\) is inf"),
                            ([[1.0, 0.0], [0.0, -above]], r"\(1, 1\) is -1\.0+3e\+50")):
            with pytest.raises(ValueError, match=rf"metric entry {where}; .* at most 1e\+50"):
                Metric.from_rows(rows, exact=False)
        cap = MAX_FLOAT_ENTRY
        assert Metric.from_rows([[cap, -cap], [-cap, 1.0]], exact=False).dim == 2
        assert Metric.from_rows([[1.0, 0.5], [0.5 + 1e-12, 1.0]], exact=False).dim == 2
        huge = Metric.diagonal([10**60, 1])
        assert huge.matrix[0][0] == 10**60
        with pytest.raises(ValueError, match=r"metric entry \(0, 0\) is 1e\+60"):
            huge.to_float()


def _reduced_pairs():
    """Catalog pairs, and seeded pairs n = 2..6 with dense shears."""
    rng = np.random.default_rng(20261102)
    out = [(heisenberg(), heisenberg_split_metric()), (sol(), sol_split_metric()),
           (euclidean_motions(), Metric.identity(3)), (affine_line(), Metric.diagonal([1, -1])),
           (abelian(2), Metric.diagonal([Fraction(1, 3), 2]))]
    return out + [(random_algebra(rng, n), random_metric(rng, n)) for n in range(2, 7)]


def test_a_solved_product_is_kept_in_lowest_terms(monkeypatch):
    """After the solve the form's scale and entries share no factor, so it is
    the form of a product built from the same Fractions; every value read
    from it matches that product's, and the product of the pair is still not
    checked again."""
    for alg, a in _reduced_pairs():
        conn = levi_civita_product(alg, a)
        ints, scale = conn.scaled(True)
        assert math.gcd(scale, *ints.ravel().tolist()) == 1
        built = ConnectionTensor(tensor=conn.tensor, exact=True)
        got, want = built.scaled(True)
        assert (scale, ints.tolist()) == (want, got.tolist())
        assert conn.tensor == built.tensor
        assert conn.scaled(False)[0].tobytes() == built.scaled(False)[0].tobytes()
        assert conn.torsion_residual(alg) == built.torsion_residual(alg) == 0
        assert conn.skew_residual(a) == built.skew_residual(a) == 0
        assert compatibility_residual(alg, a, conn) == compatibility_residual(alg, a, built)
    with monkeypatch.context() as m:
        for name in ("torsion_residual", "skew_residual"):
            m.setattr(ConnectionTensor, name, lambda *args: pytest.fail("checked again"))
        for alg, a in _reduced_pairs():
            conn = levi_civita_product(alg, a)
            assert compatibility_residual(alg, a, conn) == compatibility_residual(alg, a)


def _transvections(n: int) -> list:
    """The shear of the benchmark's exact pairs: n transvections, step k adding
    t_k times basis vector k mod n to vector k + 1 mod n."""
    factors = [1, -2, Fraction(1, 2), Fraction(-3, 2), Fraction(1, 3), Fraction(-2, 3), 3]
    p = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(n):
        i, j = k % n, (k + 1) % n
        for r in range(n):
            p[r][j] += factors[k % len(factors)] * p[r][i]
    return p


def test_residual_contractions_of_a_transported_pair_run_in_int64(monkeypatch):
    """The split Heisenberg pair, padded to n = 6 by an orthogonal abelian
    summand and moved by a shear, as the benchmark's exact pairs are: every
    exact contraction of its Jacobi check, product solve, skew and
    compatibility residual takes the int64 path. The solved product's form
    reaches 75 bits before it is reduced, so a form that is not kept in
    lowest terms falls back to object ints and fails here."""
    n, p = 6, _transvections(6)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i, row in enumerate(heisenberg_split_metric().rows()):
        rows[i][:3] = row
    for i, d in zip(range(3, n), (Fraction(3, 2), Fraction(-1, 3), Fraction(2, 3))):
        rows[i][i] = d
    alg = _padded(heisenberg(), n).changed_basis(p)
    a = Metric.from_rows(rows).transported(p)
    einsum, seen = np.einsum, []

    def spy(spec, *ops, **kwargs):
        seen.append((spec, {op.dtype for op in ops}))
        return einsum(spec, *ops, **kwargs)

    monkeypatch.setattr(np, "einsum", spy)
    alg.require_jacobi()
    conn = levi_civita_product(alg, a)
    assert conn.skew_residual(a) == 0
    assert compatibility_residual(alg, a, conn).exact_zero
    specs = {spec for spec, _ in seen}
    assert {"ijm,...mk->...ijk", "ijm,mk->ijk", "jm,ikm->ijk",
            "...ijm,mkl->...ijkl", "jm,mkt->jkt"} <= specs
    assert all(dtypes == {np.dtype(np.int64)} for _, dtypes in seen), seen


def test_a_constructed_asymmetric_metric_is_refused():
    """The constructor checks symmetry as ``from_rows`` does: read from one
    triangle, this matrix would have signature (3, 0) and give heisenberg a
    residual of 1.0."""
    with pytest.raises(ValueError, match=r"not symmetric at \(0, 1\)"):
        Metric(matrix=((1, 2, 0), (0, 1, 0), (0, 0, 1)), exact=True)
    with pytest.raises(ValueError, match=r"not symmetric at \(0, 1\)"):
        dataclasses.replace(Metric.identity(2, exact=False), matrix=((1.0, 1e-9), (0.0, 1.0)))


def test_a_constructed_non_square_metric_is_refused():
    from liemetric import DimensionMismatchError

    with pytest.raises(DimensionMismatchError, match="must be square"):
        Metric(matrix=((1, 0), (0, 1, 0)), exact=True)


def test_metric_apply_refuses_a_vector_of_another_length():
    a = Metric.identity(3)
    assert a.apply([1, 2, 3], [1, 0, 0]) == 1
    for u, v in (([1, 0], [1, 0, 0]), ([1, 0, 0], [1, 0, 0, 0])):
        with pytest.raises(DimensionMismatchError, match="vector of length"):
            a.apply(u, v)


def test_product_apply_refuses_a_vector_of_another_length():
    """ConnectionTensor.apply and the bracket share one length check."""
    alg = heisenberg()
    x = levi_civita_product(alg, Metric.identity(3))
    for call in (x.apply, alg.bracket):
        for u, v in (([1, 0], [1, 0, 0]), ([1, 0, 0], [1, 0, 0, 0])):
            with pytest.raises(DimensionMismatchError, match="vector of length"):
                call(u, v)
