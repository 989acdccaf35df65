"""Dual-space Poisson calculus: bivector, brackets, derivative, modular flow.

The orientation of the whole module hangs on one sign: the pairing of the
bivector against two coordinate forms at mu equals mu applied to the bracket
of the matching basis vectors. Several tests below pin that choice and the
identities that forced it. Forms with polynomial coefficients, their bracket
and their Koszul solve come from ``poly_oracle``, the closed-form reference
the library's basis frame is checked against.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from liemetric import (
    NAMED_ALGEBRAS,
    DegenerateMetricError,
    InvalidStructureError,
    LieAlgebra,
    Metric,
    abelian,
    affine_line,
    bivector_at,
    compatibility_residual,
    cyclic_schouten_residual,
    dpi_residual,
    euclidean_motions,
    heisenberg,
    heisenberg_split_metric,
    is_pseudo_riemannian,
    kahler_check_at,
    leaf_frame_at,
    levi_civita_product,
    metric_derivation_residual,
    modular_field_value,
    sharp_pi,
    sol,
    sol_split_metric,
    solvable_family,
)
from liemetric.dual import (
    DegenerateRestrictionError,
    DimensionMismatchError,
    IrregularPointError,
    LeafRankError,
    _DualFrame,
    _frame,
)
from liemetric import rational
from liemetric.scalars import _unscaled
from conftest import random_algebra, random_antisymmetric, random_metric, random_shear
from polynomial import Polynomial
import poly_oracle
from poly_oracle import (
    PolyOneForm,
    apply_field,
    contravariant_derivative,
    form_bracket,
    form_pairing,
    lie_derivative_form,
    pi_pairing,
    sharp_form,
)


def coframe(n, exact=True):
    return [PolyOneForm.coordinate(n, k, exact) for k in range(n)]


# --- bivector and sharp -------------------------------------------------

def test_bivector_sign_convention():
    """pi(de1, de2) at mu = e3* equals mu([e1,e2]) = +1 on the nilpotent
    3D algebra. This single entry orients every other sign in the module."""
    b = bivector_at(heisenberg(), (0, 0, 1))
    assert b.matrix[0][1] == 1
    assert b.matrix[1][0] == -1


def test_bivector_linear_in_point():
    b2 = bivector_at(heisenberg(), (0, 0, 2))
    assert b2.matrix[0][1] == 2


def test_bivector_rank_even():
    assert bivector_at(heisenberg(), (0, 0, 1)).rank() == 2
    assert bivector_at(heisenberg(), (1, 1, 0)).rank() == 0
    assert bivector_at(sol(), (0, 1, 1)).rank() == 2


def test_sharp_of_kernel_dies():
    # at mu = e3*, the center direction de3 is in the kernel
    v = sharp_pi(heisenberg(), (0, 0, 1), [0, 0, 1])
    assert list(v) == [0, 0, 0]


def test_sharp_matches_pairing(rng):
    alg = random_algebra(rng, 3)
    mu = [Fraction(int(x)) for x in rng.integers(-3, 4, size=3)]
    alpha = [Fraction(int(x)) for x in rng.integers(-3, 4, size=3)]
    beta = [Fraction(int(x)) for x in rng.integers(-3, 4, size=3)]
    b = bivector_at(alg, mu)
    v = sharp_pi(alg, mu, alpha)
    pairing = sum(a * b_ij * c for (a, row) in zip(alpha, b.matrix)
                  for (b_ij, c) in zip(row, beta))
    assert sum(x * y for x, y in zip(v, beta)) == pairing


def test_bivector_and_sharp_in_both_modes(rng):
    """Exact entries are Fractions equal to the hand sums; float entries are
    floats equal to them up to rounding (the contraction order differs)."""
    alg = random_algebra(rng, 4)
    mu = [Fraction(int(x), 3) for x in rng.integers(-5, 6, size=4)]
    alpha = [Fraction(int(x), 2) for x in rng.integers(-5, 6, size=4)]
    want = [[sum(alg.c[i][j][k] * mu[k] for k in range(4)) for j in range(4)]
            for i in range(4)]
    sharp = [sum(alpha[i] * want[i][j] for i in range(4)) for j in range(4)]
    exact = bivector_at(alg, mu)
    assert exact.exact and [list(row) for row in exact.matrix] == want
    assert sharp_pi(alg, mu, alpha) == sharp
    flt = bivector_at(alg, [float(x) for x in mu])
    assert not flt.exact and all(type(x) is float for row in flt.matrix for x in row)
    assert np.allclose(flt.as_array(), np.array(want, dtype=float), rtol=1e-12, atol=1e-12)
    got = sharp_pi(alg, mu, [float(x) for x in alpha])
    assert all(type(x) is float for x in got)
    assert np.allclose(got, np.array(sharp, dtype=float), rtol=1e-12, atol=1e-12)


# --- hamiltonian fields and the form bracket ----------------------------

def test_hamiltonian_field_is_coadjoint_direction():
    # field of the linear function e1 on the algebra with [e1,e2]=e2,
    # [e1,e3]=-e3: components mu2, -mu3
    field = sharp_form(sol(), PolyOneForm.coordinate(3, 0))
    assert str(field[1]) == "mu2"
    assert str(field[2]) == "-mu3"


def test_linear_function_bracket_matches_algebra():
    """[du, dv] on coordinate forms returns d[u,v]: the chosen sign makes
    the differential a Lie algebra homomorphism, not an antihomomorphism."""
    for alg in [heisenberg(), sol(), euclidean_motions(),
                solvable_family(Fraction(1, 2), 1, Fraction(-1, 3))]:
        n = alg.dim
        de = coframe(n)
        for i, j in itertools.combinations(range(n), 2):
            got = form_bracket(alg, de[i], de[j])
            want = alg.bracket(alg.basis(i), alg.basis(j))
            for k in range(n):
                assert got.coeffs[k] == Polynomial.constant(n, want[k])


def test_form_bracket_heisenberg_example():
    de = coframe(3)
    out = form_bracket(heisenberg(), de[0], de[1])
    assert [str(p) for p in out.coeffs] == ["0", "0", "1"]


def test_form_bracket_antisymmetry(rng):
    alg = random_algebra(rng, 3)
    de = coframe(3)
    a = form_bracket(alg, de[0], de[1])
    b = form_bracket(alg, de[1], de[0])
    assert all((x + y).is_zero() for x, y in zip(a.coeffs, b.coeffs))


def test_anchor_is_homomorphism(rng):
    """sharp of the form bracket equals the commutator of the sharps,
    checked coefficientwise on polynomial vector fields."""
    alg = random_algebra(rng, 3)
    de = coframe(3)
    for i, j in [(0, 1), (0, 2), (1, 2)]:
        lhs = sharp_form(alg, form_bracket(alg, de[i], de[j]))
        xi = sharp_form(alg, de[i])
        xj = sharp_form(alg, de[j])
        for k in range(3):
            commut = apply_field(xi, xj[k]) - apply_field(xj, xi[k])
            assert (lhs[k] - commut).is_zero()


def test_jacobi_for_linear_functions(rng):
    # {mu_i, {mu_j, mu_k}} summed cyclically dies; polynomial identity
    alg = random_algebra(rng, 3)

    def pb(p, q):
        grad_p = [p.diff(t) for t in range(3)]
        grad_q = [q.diff(t) for t in range(3)]
        b = [[Polynomial.constant(3, 0)] * 3 for _ in range(3)]
        total = Polynomial.zero(3)
        for i, j in itertools.product(range(3), repeat=2):
            coef = alg.bracket(alg.basis(i), alg.basis(j))
            lin = Polynomial.zero(3)
            for k in range(3):
                lin = lin + Polynomial.coordinate(3, k) * coef[k]
            total = total + grad_p[i] * grad_q[j] * lin
        return total

    mu = [Polynomial.coordinate(3, k) for k in range(3)]
    s = (pb(mu[0], pb(mu[1], mu[2])) + pb(mu[1], pb(mu[2], mu[0]))
         + pb(mu[2], pb(mu[0], mu[1])))
    assert s.is_zero()


def test_lie_derivative_leibniz_on_pairing(rng):
    alg = random_algebra(rng, 3)
    a = random_metric(rng, 3)
    de = coframe(3)
    x = sharp_form(alg, de[0])
    # L_X <b, g> = <L_X b, g> + <b, L_X g> for the constant fiber metric
    for i, j in itertools.product(range(3), repeat=2):
        lhs = apply_field(x, form_pairing(de[i], de[j], a))
        rhs = (form_pairing(lie_derivative_form(x, de[i]), de[j], a)
               + form_pairing(de[i], lie_derivative_form(x, de[j]), a))
        assert (lhs - rhs).is_zero()


# --- contravariant derivative -------------------------------------------

def test_derivative_on_constants_is_connection(rng):
    for _ in range(6):
        alg = random_algebra(rng, 3)
        a = random_metric(rng, 3)
        conn = levi_civita_product(alg, a)
        de = coframe(3)
        for i, j in itertools.product(range(3), repeat=2):
            d = contravariant_derivative(alg, a, de[i], de[j])
            want = conn.product(i, j)
            for k in range(3):
                assert d.coeffs[k] == Polynomial.constant(3, want[k])


def _frame_derivs(fr):
    """D_{de_i} de_k as the coefficient lists D[i, k] / s of the frame's tensors."""
    _, d, s = fr.tensors
    unscale = (lambda x: Fraction(x, s)) if fr.exact else float
    return [[[unscale(x) for x in d[i, k]] for k in range(fr.n)] for i in range(fr.n)]


def _constants(form):
    """Coefficients of a constant form, as scalars."""
    assert form.degree() <= 0
    return [p.terms.get((0,) * form.dim, 0) for p in form.coeffs]


@pytest.mark.parametrize("exact", [True, False])
def test_frame_derivatives_match_public_derivative(rng, exact):
    """Every basis derivative of the frame's contraction equals the oracle's
    Koszul solve in polynomial arithmetic: exactly in exact mode, to 1e-12 of
    the largest entry in float mode, where the two sum in different orders.
    The frame's bivector tensor is the oracle's form brackets [de_x, de_y],
    bit for bit in both modes: [de_x, de_y] = d[e_x, e_y]."""
    for n in (2, 3, 4, 4):
        alg, a = random_algebra(rng, n), random_metric(rng, n)
        if not exact:
            alg, a = alg.to_float(), a.to_float()
        frame = _DualFrame(alg, a)
        got = _frame_derivs(frame)
        de = coframe(n, exact)
        want = [[_constants(contravariant_derivative(alg, a, de[i], de[k])) for k in range(n)]
                for i in range(n)]
        if exact:
            assert got == want
        else:
            assert all(type(x) is float for row in got for col in row for x in col)
            bound = 1e-12 * max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(np.array(got) - np.array(want, dtype=float))) <= bound
        p, _, s = frame.tensors
        unscale = (lambda x: Fraction(x, s)) if exact else float
        for x, y in itertools.product(range(n), repeat=2):
            assert [unscale(v) for v in p[x, y]] == \
                _constants(form_bracket(alg, de[x], de[y]))


@pytest.mark.parametrize("exact", [True, False])
def test_oracle_solves_without_the_frame_or_its_inverse(rng, exact, monkeypatch):
    """The oracle's Koszul solve reads the inverse metric from the metric
    itself, not from the frame it is checked against: with
    ``Metric._half_inverse`` and ``dual._frame`` refused, its derivatives
    still equal those of a frame built outside the refusal, exactly in exact
    mode and to 1e-12 of the largest entry in float mode."""
    from liemetric import dual

    pairs = [(random_algebra(rng, n), random_metric(rng, n)) for n in (2, 3, 4)]
    if not exact:
        pairs = [(alg.to_float(), a.to_float()) for alg, a in pairs]
    frames = [_frame_derivs(_DualFrame(alg, a)) for alg, a in pairs]

    def refuse(*args):
        raise AssertionError("the oracle reached the frame or its half-inverse")

    monkeypatch.setattr(Metric, "_half_inverse", refuse)
    monkeypatch.setattr(dual, "_frame", refuse)
    for (alg, a), got in zip(pairs, frames, strict=True):
        n, de = alg.dim, coframe(alg.dim, exact)
        want = [[_constants(contravariant_derivative(alg, a, de[i], de[k])) for k in range(n)]
                for i in range(n)]
        if exact:
            assert got == want
        else:
            bound = 1e-12 * max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(np.array(got) - np.array(want, dtype=float))) <= bound
    with pytest.raises(AssertionError, match="half-inverse"):
        _DualFrame(*pairs[0])


@pytest.mark.parametrize("exact", [True, False])
def test_frame_derivative_heisenberg_identity_example(exact):
    """The frame's contraction gives the closed form the oracle pins."""
    alg, a = heisenberg(), Metric.identity(3)
    if not exact:
        alg, a = alg.to_float(), a.to_float()
    assert _frame_derivs(_DualFrame(alg, a))[0][1] == [0, 0, Fraction(1, 2)]


def test_derivative_heisenberg_identity_example():
    d = contravariant_derivative(heisenberg(), Metric.identity(3),
                                 PolyOneForm.coordinate(3, 0),
                                 PolyOneForm.coordinate(3, 1))
    assert [str(p) for p in d.coeffs] == ["0", "0", "1/2"]


def test_derivative_torsion_free(rng):
    alg = random_algebra(rng, 3)
    a = random_metric(rng, 3)
    de = coframe(3)
    for i, j in itertools.combinations(range(3), 2):
        dij = contravariant_derivative(alg, a, de[i], de[j])
        dji = contravariant_derivative(alg, a, de[j], de[i])
        fb = form_bracket(alg, de[i], de[j])
        diff = (dij - dji) - fb
        assert all(p.is_zero() for p in diff.coeffs)


def test_derivative_leibniz_in_second_slot():
    alg = sol()
    a = sol_split_metric()
    de = coframe(3)
    f = Polynomial.coordinate(3, 1)  # the function mu2
    scaled = PolyOneForm(tuple(f * p for p in de[2].coeffs), True)
    lhs = contravariant_derivative(alg, a, de[0], scaled)
    base = contravariant_derivative(alg, a, de[0], de[2])
    x0 = sharp_form(alg, de[0])
    want = [f * base.coeffs[k] + apply_field(x0, f) * de[2].coeffs[k]
            for k in range(3)]
    for k in range(3):
        assert (lhs.coeffs[k] - want[k]).is_zero()


# --- the three residual channels ----------------------------------------

CATALOG = [abelian(2), abelian(3), affine_line(), heisenberg(),
           euclidean_motions(), sol()]


def test_dual_compatibility_matches_primal(rng):
    pairs = [(heisenberg(), heisenberg_split_metric()),
             (heisenberg(), Metric.identity(3)),
             (sol(), sol_split_metric()),
             (sol(), Metric.identity(3)),
             (euclidean_motions(), Metric.identity(3)),
             (affine_line(), random_metric(rng, 2))]
    from liemetric import compatibility_residual
    for alg, a in pairs:
        primal_zero = compatibility_residual(alg, a).exact_zero
        dual_zero = dpi_residual(alg, a) == 0
        assert primal_zero == dual_zero


def test_universal_identities_zero_everywhere(rng):
    """Jacobi-cyclic and metric-transport channels vanish for every metric,
    compatible or not: they certify the calculus, not the pair."""
    for alg in CATALOG:
        for _ in range(3):
            a = random_metric(rng, alg.dim)
            assert cyclic_schouten_residual(alg, a) == 0
            assert metric_derivation_residual(alg, a) == 0


def test_residuals_at_points(rng):
    alg = sol()
    a = Metric.identity(3)
    pts = rng.standard_normal((5, 3)).tolist()
    assert dpi_residual(alg, a, pts) > 0
    assert cyclic_schouten_residual(alg, a, pts) == 0
    assert metric_derivation_residual(alg, a, pts) == 0


def test_nan_structure_constant_is_refused_and_a_nan_point_reads_nan():
    """A NaN constant is refused when the algebra is built, so it cannot reach
    the dual residuals; a NaN point, which nothing refuses, reaches them as
    NaN, not as a smaller number."""
    c = [[list(row) for row in plane] for plane in sol().to_float().c]
    c[0][1][1], c[1][0][1] = math.nan, math.nan
    with pytest.raises(InvalidStructureError, match=r"c\[0\]\[1\]\[1\] is nan"):
        LieAlgebra.from_structure(c, exact=False, check_jacobi=False)
    a = Metric.identity(3).to_float()
    assert math.isnan(dpi_residual(sol().to_float(), a, [[math.nan, -1.0, 2.0]]))
    assert math.isnan(Polynomial(1, {(1,): 2.0, (0,): math.nan}, exact=False).max_coeff())


def _oracle_sides(alg, a, deriv):
    """Both sides of every basis identity from the oracle's calculus alone.

    Returns {identity: [(left, right), ...]} in the order of the frame's rows;
    each defect is left - right, and deriv[i][k] stands in for D_{de_i} de_k.
    """
    n = alg.dim
    de = coframe(n)
    x = [sharp_form(alg, d) for d in de]
    zero = Polynomial.zero(n)

    def pi(u, v):
        return pi_pairing(alg, u, v)

    def pair(u, v):
        return form_pairing(u, v, a)

    def cyclic(i, j, k):
        turns = [(i, j, k), (j, k, i), (k, i, j)]
        return (sum((apply_field(x[p], pi(de[q], de[r])) for p, q, r in turns), zero),
                sum((pi(deriv[p][q], de[r]) + pi(de[q], deriv[p][r]) for p, q, r in turns),
                    zero))

    triples = list(itertools.product(range(n), repeat=3))
    return {
        "dpi": [(pi(deriv[i][k], de[j]) + pi(de[i], deriv[j][k]), zero)
                for i, j, k in triples],
        "cyclic": [cyclic(*t) for t in triples],
        "transport": [(apply_field(x[k], pair(de[i], de[j]))
                       - pair(lie_derivative_form(x[k], de[i]), de[j])
                       - pair(de[i], lie_derivative_form(x[k], de[j])),
                       pair(deriv[i][k], de[j]) + pair(de[i], deriv[j][k]))
                      for k, i, j in triples],
    }


def _as_rows(polys, n):
    """Polynomials of degree <= 1 as coefficient rows (c_1 .. c_n | c_0)."""
    units = [tuple(int(t == s) for t in range(n)) for s in range(n)] + [(0,) * n]
    assert all(p.degree() <= 1 for p in polys)
    return [[p.terms.get(e, 0) for e in units] for p in polys]


def _unscaled_rows(fr, identity):
    """A frame's identity rows over their scale: Fractions (exact) or floats."""
    rows, scale = getattr(fr, identity)
    return np.array(_unscaled(rows, scale, fr.exact), dtype=object if fr.exact else float)


def _oracle_derivs(alg, a):
    de = coframe(alg.dim)
    return [[contravariant_derivative(alg, a, de[i], de[k]) for k in range(alg.dim)]
            for i in range(alg.dim)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_identity_rows_match_public_defects(rng, n):
    """Frame rows equal the defects built from oracle calls, on compatible and
    incompatible exact pairs; the float frame agrees to rounding."""
    pairs = [(random_algebra(rng, n), random_metric(rng, n)) for _ in range(3)]
    if n == 3:
        pairs.append((heisenberg(), heisenberg_split_metric()))
    pts = rng.standard_normal((4, n)).tolist()
    incompatible = 0
    for alg, a in pairs:
        fr, fl = _DualFrame(alg, a), _DualFrame(alg.to_float(), a.to_float())
        deriv = _oracle_derivs(alg, a)
        for identity, sides in _oracle_sides(alg, a, deriv).items():
            defects = [left - right for left, right in sides]
            rows = _unscaled_rows(fr, identity)
            assert rows.tolist() == _as_rows(defects, n)
            assert np.allclose(_unscaled_rows(fl, identity), rows.astype(float), rtol=1e-12,
                               atol=1e-12)
            at_points = [max(abs(float(p.eval(pt))) for p in defects) for pt in pts]
            assert np.allclose(fr.sweep(identity, pts), at_points, rtol=1e-12, atol=1e-12)
        incompatible += fr.sweep("dpi") > 0
        # the inverse-metric coframe sum reduces to the frame's Koszul trace
        ainv, de = a.inverse_rows(), coframe(n)
        want = [sum(ainv[p][q] * form_pairing(deriv[p][k], de[q], a).eval([0] * n)
                    for p in range(n) for q in range(n)) for k in range(n)]
        assert fr.modular == tuple(want)
    assert incompatible >= 1


def test_identity_sides_are_nonzero_on_their_own():
    """Neither identity holds because a side is zero. On an incompatible pair
    both transport sides are nonzero. On a Lie algebra each cyclic side is a
    Jacobiator and vanishes, so the cyclic sides are checked on a bracket that
    fails the Jacobi identity: both are nonzero and so is the frame's row."""
    alg, a = sol(), Metric.identity(3)
    assert dpi_residual(alg, a) > 0
    sides = _oracle_sides(alg, a, _oracle_derivs(alg, a))["transport"]
    assert any(not left.is_zero() for left, _ in sides)
    assert any(not right.is_zero() for _, right in sides)
    assert all((left - right).is_zero() for left, right in sides)

    bad = LieAlgebra.from_brackets(3, {(0, 1): [1, 0, 1], (0, 2): [0, 1, 0],
                                       (1, 2): [1, 0, 0]}, check_jacobi=False)
    assert bad.jacobi_residual() != 0
    sides = _oracle_sides(bad, a, _oracle_derivs(bad, a))["cyclic"]
    assert any(not left.is_zero() for left, _ in sides)
    assert any(not right.is_zero() for _, right in sides)
    assert _unscaled_rows(_DualFrame(bad, a), "cyclic").tolist() == \
        _as_rows([l - r for l, r in sides], 3)
    assert cyclic_schouten_residual(bad, a) > 0


def test_identity_rows_read_the_derivative_tensor(rng):
    """With D replaced by a random tensor no identity holds, and every frame row
    still equals the oracle's defect built from that tensor."""
    alg, a = sol(), random_metric(rng, 3)
    fr = _DualFrame(alg, a)
    p, _, s = fr.tensors
    d = np.array([int(x) for x in rng.integers(-4, 5, size=27)], dtype=object).reshape(3, 3, 3)
    fr.tensors = (p, d, s)
    deriv = [[PolyOneForm.from_linear([Fraction(x, s) for x in d[i, k]]) for k in range(3)]
             for i in range(3)]
    for identity, sides in _oracle_sides(alg, a, deriv).items():
        assert fr.sweep(identity) > 0
        assert _unscaled_rows(fr, identity).tolist() == _as_rows([l - r for l, r in sides], 3)


def test_frame_identities_need_no_polynomial_arithmetic(rng, monkeypatch):
    """The frame builds no polynomial. With Polynomial construction and
    arithmetic refused, frames are built in both modes and their Koszul
    stage, identity rows, sweeps and modular value are read, as are the
    public residuals and modular value that build their own frames. So no
    basis bracket, pairing, flow, Lie derivative or partial derivative runs
    in the polynomial engine."""
    alg = random_algebra(rng, 4)
    while not any(x for plane in alg.c for row in plane for x in row):
        alg = random_algebra(rng, 4)  # an abelian algebra has no brackets at all
    a, pts = random_metric(rng, 4), rng.standard_normal((3, 4)).tolist()

    def refuse(*args, **kwargs):
        raise AssertionError("the dual frame reached the polynomial engine")

    for op in ("__init__", "_trusted", "__add__", "__sub__", "__mul__", "__rmul__",
               "__neg__", "diff"):
        monkeypatch.setattr(Polynomial, op, refuse)
    want = [-t for t in alg.ad_traces()]
    for exact, pair in ((True, (alg, a)), (False, (alg.to_float(), a.to_float()))):
        fr = _DualFrame(*pair)
        assert fr.exact is exact
        fr.tensors
        for identity in ("dpi", "cyclic", "transport"):
            getattr(fr, identity)
            assert fr.sweep(identity) >= 0
            assert len(fr.sweep(identity, pts)) == 3
        assert np.allclose(np.array(fr.modular, dtype=float), np.array(want, dtype=float),
                           rtol=1e-12, atol=1e-12)
    assert cyclic_schouten_residual(alg, a) == metric_derivation_residual(alg, a, pts) == 0
    assert dpi_residual(alg, a) >= 0
    assert modular_field_value(alg, a, [1, 0, 0, 0]) == float(want[0])


@pytest.mark.parametrize("n", [3, 4])
def test_frame_computes_each_pairing_flow_and_lie_derivative_once(rng, n, monkeypatch):
    """One exact frame computes no pairing, flow, Lie derivative or partial
    derivative at all, so none runs more than once: its n^2 basis brackets
    are slices of the bivector tensor, and its Koszul stage contracts them
    with constant basis pairings. The brackets still equal the oracle's form
    brackets, which make those calls themselves."""
    calls = {"form_pairing": 0, "apply_field": 0, "lie_derivative_form": 0}

    def counting(name):
        fun = getattr(poly_oracle, name)

        def wrapper(*args):
            calls[name] += 1
            return fun(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(poly_oracle, name, counting(name))
    diffs = []
    diff = Polynomial.diff

    def counting_diff(self, k):
        diffs.append(self.degree())
        return diff(self, k)

    monkeypatch.setattr(Polynomial, "diff", counting_diff)
    alg = random_algebra(rng, n)
    while not any(x for plane in alg.c for row in plane for x in row):
        alg = random_algebra(rng, n)  # an abelian algebra has no flows at all
    fr = _DualFrame(alg, random_metric(rng, n))
    p, _, s = fr.tensors
    for identity in ("dpi", "cyclic", "transport"):
        getattr(fr, identity)
    assert calls == {"form_pairing": 0, "apply_field": 0, "lie_derivative_form": 0}
    assert diffs == []
    assert fr.modular == tuple(-t for t in fr.alg.ad_traces())
    de = coframe(n)
    for x, y in itertools.product(range(n), repeat=2):
        assert [Fraction(v, s) for v in p[x, y]] == \
            _constants(form_bracket(alg, de[x], de[y]))
    assert calls["lie_derivative_form"] == 2 * n * n


def _large_denominator_pair(rng, n):
    """A random exact pair with brackets and metric scaled by fractions whose
    denominators are far beyond float precision; Jacobi survives the scaling."""
    alg, a = random_algebra(rng, n), random_metric(rng, n)
    lam, nu = Fraction(10**20 + 39, 3**41), Fraction(7**23, 10**22 + 9)
    alg = LieAlgebra.from_structure([[[lam * x for x in row] for row in plane]
                                     for plane in alg.c], exact=True)
    return alg, Metric.from_rows([[nu * x for x in row] for row in a.matrix])


def test_sweep_matches_the_fraction_rows_bit_for_bit(rng):
    """The identity rows stay integers until ``sweep`` divides them by their
    scale. Its values at points equal those of the Fraction rows through
    ``astype(float)`` and the same product with [mu, 1], bit for bit, and its
    coefficient maximum is float() of the exact maximum, on pairs whose
    denominators are far beyond float precision."""
    incompatible = 0
    for n in (2, 3, 4):
        alg, a = _large_denominator_pair(rng, n)
        fr = _DualFrame(alg, a)
        pts = rng.standard_normal((5, n)).tolist()
        mu = np.array([[*pt, 1] for pt in pts], dtype=float)
        for identity in ("dpi", "cyclic", "transport"):
            rows, scale = getattr(fr, identity)
            assert scale > 2**64
            fracs = np.array([[Fraction(x, scale) for x in row] for row in rows.tolist()],
                             dtype=object)
            want = np.max(np.abs(fracs.astype(float) @ mu.T), axis=0)
            assert fr.sweep(identity, pts).tobytes() == want.tobytes()
            assert fr.sweep(identity) == float(max(abs(x) for x in fracs.flat))
        incompatible += fr.sweep("dpi") > 0
    assert incompatible >= 1


def test_empty_point_list_is_refused():
    """A sweep over no point has no value; 0.0 would read as "compatible" even
    for an incompatible pair, whose coefficient check is nonzero."""
    alg, a = sol(), Metric.identity(3)
    assert dpi_residual(alg, a) > 0
    for residual in (dpi_residual, cyclic_schouten_residual, metric_derivation_residual):
        for empty in ([], np.empty((0, 3))):
            with pytest.raises(ValueError):
                residual(alg, a, empty)


@pytest.mark.parametrize("exact", [True, False])
def test_frame_never_reaches_the_algebra_side_product(rng, exact, monkeypatch):
    """AC2 compares the dual verdict against the algebra-side product, so the
    frame builds its derivatives, identity rows and modular value without it."""
    from liemetric import metric

    def refuse(*args):
        raise AssertionError("the dual frame reached the algebra-side product")

    for name in ("levi_civita_product", "_product_rhs", "_defect_array"):
        monkeypatch.setattr(metric, name, refuse)
    alg, a = random_algebra(rng, 4), random_metric(rng, 4)
    if not exact:
        alg, a = alg.to_float(), a.to_float()
    fr = _DualFrame(alg, a)
    for part in ("tensors", "dpi", "cyclic", "transport", "modular"):
        getattr(fr, part)


def test_exact_frame_inverse_and_tensors_equal_their_fraction_forms(rng):
    """The kept frame's integer half-inverse, read as Fractions, is the
    metric's inverse exactly, and its Koszul stage read as Fractions equals
    the same contraction done in Fractions on a, its inverse and the
    structure constants, term for term."""
    for n in (2, 3, 4, 5):
        alg, a = random_algebra(rng, n), random_metric(rng, n)
        fr = _frame(alg, a)
        assert _frame(alg, a) is fr
        h, s = fr.half
        ainv = _unscaled(2 * h, s, True)
        assert ainv == a.inverse_rows()
        assert all(type(x) is Fraction for row in ainv for x in row)
        c = np.array(alg.c, dtype=object)
        half = np.array(a.inverse_rows(), dtype=object) / 2
        b = np.einsum("xyt,tz->xyz", c, np.array(a.matrix, dtype=object))
        rhs = np.einsum("lik->ikl", b) + np.einsum("lki->ikl", b) + b
        p, d, s = fr.tensors
        assert _unscaled(p, s, True) == c.tolist()
        assert _unscaled(d, s, True) == np.einsum("jl,ikl->ikj", half, rhs).tolist()


@pytest.mark.parametrize("exact", [True, False])
def test_dpi_and_cyclic_rows_equal_one_contraction_per_term(exact):
    """The dpi and cyclic rows, which read both D.P terms of each off one
    contraction, equal the sums written out here with one contraction per
    term: equal ints in exact mode, equal bits in float mode, on seeded
    antisymmetric tensors (Jacobi not needed) and random metrics."""
    rng = np.random.default_rng(26)
    for n in range(2, 9):
        for _ in range(2 if exact else 10):
            alg = LieAlgebra.from_structure(random_antisymmetric(rng, n, exact), exact=exact,
                                            check_jacobi=False)
            a = random_metric(rng, n)
            fr = _DualFrame(alg, a if exact else a.to_float())
            p, d, s = fr.tensors
            dpi = np.einsum("ika,ajt->ijkt", d, p) + np.einsum("jka,iat->ijkt", d, p)
            term = (np.einsum("imt,jkm->ijkt", p, p) - np.einsum("ija,akt->ijkt", d, p)
                    - np.einsum("ika,jat->ijkt", d, p))
            cyclic = term + np.einsum("jkit->ijkt", term) + np.einsum("kijt->ijkt", term)
            for identity, want in (("dpi", dpi), ("cyclic", cyclic)):
                rows, scale = getattr(fr, identity)
                got = rows.reshape(n, n, n, n + 1)
                assert scale == s * s and not got[..., n].any()
                if exact:
                    assert got[..., :n].tolist() == want.tolist()
                else:
                    assert got[..., :n].tobytes() == want.tobytes()


def test_one_elimination_per_exact_metric_and_product(rng, monkeypatch):
    """An exact metric eliminates [2M | I] once, when its kept frame is
    built; every later dual call on the pair reads that frame's
    half-inverse. Each exact product solve still runs its own elimination,
    which is also its nondegeneracy check."""
    calls = []
    reduce = rational._reduce

    def counting_reduce(*args):
        calls.append(len(args[0]))
        return reduce(*args)

    monkeypatch.setattr(rational, "_reduce", counting_reduce)
    for n in (2, 3, 4):
        alg, a = random_algebra(rng, n), random_metric(rng, n)
        mu = [Fraction(k + 1, 3) for k in range(n)]
        calls.clear()  # drawing the metric tested its determinant
        for _ in range(3):
            fr = _frame(alg, a)
            for part in ("tensors", "dpi", "cyclic", "transport", "modular"):
                getattr(fr, part)
            fr.sweep("dpi", [[1] * n])
            for residual in (dpi_residual, cyclic_schouten_residual,
                             metric_derivation_residual):
                residual(alg, a)
                residual(alg, a, [mu])
            modular_field_value(alg, a, [1] + [0] * (n - 1))
        assert calls == [n]
        for k in range(3):
            levi_civita_product(alg, a)
            assert calls == [n] * (k + 2)


def test_algebra_side_verdicts_never_read_the_carried_inverse(rng, monkeypatch):
    """AC2 compares the dual verdict, which reads the metric's half-inverse,
    against the algebra-side product: the product, the compatibility residual,
    the pair verdict and the search certificate each solve on their own, so
    they give the same answers with the half-inverse out of reach."""
    from liemetric import metric, search

    pairs = [(heisenberg(), heisenberg_split_metric()), (sol(), sol_split_metric()),
             (heisenberg(), Metric.identity(3)), (sol(), Metric.identity(3))]
    pairs += [(random_algebra(rng, n), random_metric(rng, n)) for n in (2, 3, 4, 5)]
    pairs += [(alg.to_float(), a.to_float()) for alg, a in pairs[:6]]
    certificates = [(heisenberg(), heisenberg_split_metric().to_float(), constraint)
                    for constraint in ("none", "positive_definite")]
    certificates.append((sol(), sol_split_metric().to_float(), "none"))
    certificates.append((heisenberg(), Metric.identity(3, exact=False), "none"))

    def verdicts():
        out = []
        for alg, a in pairs:
            out.append((levi_civita_product(alg, a).scaled(False)[0].tobytes(),
                        compatibility_residual(alg, a), is_pseudo_riemannian(alg, a)))
        out += [search._try_exact_certificate(alg, a, constraint)
                for alg, a, constraint in certificates]
        return out

    want = verdicts()
    assert want[-4] == heisenberg_split_metric() and want[-3] is None

    def refuse(self):
        raise AssertionError("an algebra-side verdict read the carried inverse")

    monkeypatch.setattr(metric.Metric, "_half_inverse", refuse)
    assert verdicts() == want
    with pytest.raises(AssertionError):
        dpi_residual(*pairs[0])


def test_degenerate_exact_metric_raises_one_error_everywhere(rng):
    """A singular exact metric raises DegenerateMetricError with the one
    message of Metric.require_nondegenerate from the product solve, the three
    dual residuals (in coefficients and at a point) and the modular field,
    though no separate nondegeneracy check runs."""
    alg4 = random_algebra(rng, 4)
    rank3 = [[1, 2, 0, 1], [2, 4, 0, 2], [0, 0, 1, 0], [1, 2, 0, 3]]
    cases = [(heisenberg(), Metric.from_rows([[1, 1, 0], [1, 1, 0], [0, 0, 1]], exact=True)),
             (sol(), Metric.from_rows([[0] * 3] * 3, exact=True)),
             (alg4, Metric.from_rows(rank3, exact=True))]
    for alg, a in cases:
        n = alg.dim
        mu = [Fraction(k + 1, 3) for k in range(n)]
        calls = [lambda: levi_civita_product(alg, a),
                 lambda: dpi_residual(alg, a), lambda: dpi_residual(alg, a, [mu]),
                 lambda: cyclic_schouten_residual(alg, a),
                 lambda: cyclic_schouten_residual(alg, a, [mu]),
                 lambda: metric_derivation_residual(alg, a),
                 lambda: metric_derivation_residual(alg, a, [mu]),
                 lambda: modular_field_value(alg, a, [1] + [0] * (n - 1), mu)]
        for call in calls:
            with pytest.raises(DegenerateMetricError) as info:
                call()
            assert str(info.value) == "metric is degenerate or numerically near-degenerate"


def test_no_frame_state_leaks_between_calls():
    """Each public call builds its own frame: a compatible metric and then an
    incompatible one on the same algebra object give 0 and then nonzero."""
    alg = heisenberg()
    compatible, incompatible = heisenberg_split_metric(), Metric.identity(3)
    assert dpi_residual(alg, compatible) == 0
    assert dpi_residual(alg, incompatible) > 0
    assert dpi_residual(alg, compatible) == 0


# --- casimirs -----------------------------------------------------------

def test_center_gives_casimir(rng):
    """Linear functions from center elements have vanishing hamiltonian
    field, identically in mu."""
    alg = heisenberg()
    for v in alg.center():
        form = PolyOneForm.from_linear(v, True)
        field = sharp_form(alg, form)
        assert all(p.is_zero() for p in field)


def test_casimir_derivative_vanishes_against_it(rng):
    # D_alpha applied to a casimir direction keeps <casimir, casimir>
    # constant: directly check D_de_i (dz) pairs to zero against dz
    alg = heisenberg()
    a = heisenberg_split_metric()
    z = PolyOneForm.from_linear(alg.center()[0], True)
    de = coframe(3)
    for i in range(3):
        d = contravariant_derivative(alg, a, de[i], z)
        val = form_pairing(d, z, a)
        lhs = apply_field(sharp_form(alg, de[i]), form_pairing(z, z, a))
        # metric transport: X.<z,z> = 2<D_X z, z>
        assert (lhs - (val + val)).is_zero()


# --- modular field ------------------------------------------------------

def test_modular_equals_negative_adjoint_trace(rng):
    for alg in CATALOG:
        n = alg.dim
        a = random_metric(rng, n)
        for k in range(n):
            f = [1 if t == k else 0 for t in range(n)]
            got = modular_field_value(alg, a, f)
            tr = sum(alg.adjoint_matrix(f)[i][i] for i in range(n))
            assert math.isclose(got, -float(tr), abs_tol=1e-9)


def test_a_float_f_on_an_exact_pair_reads_the_exact_trace_rounded_once(rng):
    """On an exact pair a float f pairs with the exact Koszul trace rounded
    once to floats: at a basis f the value is the exact one to the last bit."""
    for n in (2, 3, 4, 5):
        for _ in range(4):
            alg, a = random_algebra(rng, n), random_metric(rng, n)
            for k in range(n):
                f = [int(q == k) for q in range(n)]
                want = modular_field_value(alg, a, f)
                assert modular_field_value(alg, a, [float(x) for x in f]) == want


def test_modular_unimodular_vanishes(rng):
    a = random_metric(rng, 3)
    for _ in range(5):
        f = rng.standard_normal(3).tolist()
        mu = rng.standard_normal(3).tolist()
        assert abs(modular_field_value(heisenberg(), a, f, mu)) < 1e-12


def test_modular_counter_control():
    got = modular_field_value(affine_line(), Metric.identity(2), [1, 0])
    assert got == pytest.approx(-1.0, abs=1e-12)


def test_wrong_length_point_is_rejected():
    alg, a = heisenberg(), Metric.identity(3)
    with pytest.raises(DimensionMismatchError):
        modular_field_value(alg, a, [1, 0, 0], [0, 1])
    for residual in (dpi_residual, cyclic_schouten_residual, metric_derivation_residual):
        with pytest.raises(DimensionMismatchError):
            residual(alg, a, [[0, 0, 1], [0, 1]])


def test_modular_metric_independent(rng):
    # same value for wildly different metrics
    f = [Fraction(2), Fraction(-1)]
    vals = {round(modular_field_value(affine_line(), random_metric(rng, 2), f), 9)
            for _ in range(6)}
    assert vals == {-2.0}


# --- leaves and the pointwise complex structure -------------------------

def test_leaf_frame_splits_dimensions():
    frame = leaf_frame_at(heisenberg(), Metric.identity(3), (0, 0, 1))
    assert frame.rank == 2
    assert len(frame.kernel_basis) == 1
    assert len(frame.tangent_basis) == 2


def test_leaf_frame_kernel_is_center_direction():
    frame = leaf_frame_at(heisenberg(), Metric.identity(3), (0, 0, 1))
    k = frame.kernel_basis[0]
    assert k[0] == 0 and k[1] == 0 and k[2] != 0


def test_leaf_frame_degenerate_restriction_raises():
    # kernel at mu=e3* is the e3 direction, and the antidiagonal form
    # pairs e3 to zero against itself
    alg = euclidean_motions()
    bad = Metric.from_rows([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    with pytest.raises(DegenerateRestrictionError):
        leaf_frame_at(alg, bad, (0, 0, 1))


def test_kahler_check_identity_metric():
    out = kahler_check_at(heisenberg(), Metric.identity(3), (0.2, -0.4, 1.0))
    assert out.rank == 2
    assert out.j_squared_residual < 1e-12
    assert out.metric_residual < 1e-12
    j = np.asarray(out.j)
    assert np.linalg.norm(j @ j + np.eye(2)) < 1e-10


def test_kahler_rejects_indefinite_metric():
    with pytest.raises(ValueError):
        kahler_check_at(heisenberg(), heisenberg_split_metric(), (0, 0, 1.0))


def test_kahler_rejects_rank_zero_point():
    with pytest.raises(LeafRankError):
        kahler_check_at(heisenberg(), Metric.identity(3), (1.0, 1.0, 0.0))


def test_kahler_irregular_point_detected():
    # two independent blocks: generic rank 4, but rank 2 where the second
    # block's coordinate nearly vanishes; the integer witness has rank 4
    two_lines = LieAlgebra.from_brackets(
        4, {(0, 1): [0, 1, 0, 0], (2, 3): [0, 0, 0, 1]})
    with pytest.raises(IrregularPointError):
        kahler_check_at(two_lines, Metric.identity(4), (0.0, 1.0, 0.0, 1e-12))


def test_kahler_on_found_riemannian_pair():
    from liemetric import SearchConfig, find_compatible_metric
    cfg = SearchConfig(signature_constraint="positive_definite", restarts=8,
                       max_iters=200, rng_seed=1)
    res = find_compatible_metric(euclidean_motions(), cfg)
    assert res.found
    rng = np.random.default_rng(11)
    for _ in range(5):
        mu = rng.standard_normal(3)
        mu[0] += 2.0  # keep away from the degenerate axis
        try:
            out = kahler_check_at(euclidean_motions(), res.best_metric, tuple(mu))
        except (LeafRankError, IrregularPointError):
            continue
        assert out.j_squared_residual < 1e-10
        assert out.metric_residual < 1e-10


# --- regularity from the generic rank, and one frame body for both modes --

def two_lines():
    return LieAlgebra.from_brackets(4, {(0, 1): [0, 1, 0, 0], (2, 3): [0, 0, 0, 1]})


def heisenberg_plus_line():
    return LieAlgebra.from_brackets(4, {(0, 1): [0, 0, 1, 0]})


def refuse_witness(monkeypatch):
    def refuse(n):
        raise AssertionError("witness point drawn at the parity bound")

    monkeypatch.setattr("liemetric.dual._witness_point", refuse)


def test_kahler_dim4_rank2_below_generic_rank4_is_irregular():
    assert leaf_frame_at(two_lines(), Metric.identity(4), (0, 1, 0, 0)).rank == 2
    with pytest.raises(IrregularPointError, match="rank 2 at the point, 4 at"):
        kahler_check_at(two_lines(), Metric.identity(4), (0, 1, 0, 0))


def test_kahler_dim4_rank4_is_regular_by_parity(monkeypatch):
    refuse_witness(monkeypatch)
    for mu in [(0, 1, 0, 2), (0.3, -1.2, 0.5, 0.8)]:
        out = kahler_check_at(two_lines(), Metric.identity(4), mu)
        assert out.rank == 4
        assert out.j_squared_residual < 1e-10 and out.metric_residual < 1e-10


def test_kahler_dim4_rank2_at_generic_rank2_is_regular(rng):
    alg = heisenberg_plus_line()
    a = Metric.from_rows([[2, 1, 0, 0], [1, 3, 1, 0], [0, 1, 2, 0], [0, 0, 0, 1]])
    for mu in [(1, 2, 3, 4), (0, 0, -1, 0), tuple(rng.standard_normal(4))]:
        out = kahler_check_at(alg, a, mu)
        assert out.rank == 2
        assert out.j_squared_residual < 1e-10 and out.metric_residual < 1e-10


def test_kahler_dim3_rank2_draws_no_witness(monkeypatch, rng):
    refuse_witness(monkeypatch)
    for alg in (heisenberg(), euclidean_motions(), sol()):
        for mu in [(1, 2, 3), tuple(rng.standard_normal(3))]:
            assert kahler_check_at(alg, Metric.identity(3), mu).rank == 2


def eigen_route_j(out):
    """J as A(-A^2)^(-1/2) by eigendecomposition, independent of the library's
    polar factor: with G = L L^T, B = L^T A L^(-T) made exactly skew, and
    J = L^(-T) B (B^T B)^(-1/2) L^T with the inverse square root from eigh."""
    ell = np.linalg.cholesky(out.g)
    b = ell.T @ out.a_op @ np.linalg.inv(ell.T)
    b = (b - b.T) / 2.0
    w, v = np.linalg.eigh(b.T @ b)
    return np.linalg.solve(ell.T, b @ ((v * w ** -0.5) @ v.T) @ ell.T)


def test_kahler_polar_factor_matches_the_eigen_route(rng):
    """On the catalog algebras with the identity metric and on sheared
    positive definite pairs at n = 3..5, J agrees with the eigen route to
    1e-12 relative, and both of its residuals stay below 1e-12."""
    catalog = [make() for make in NAMED_ALGEBRAS.values()]
    pairs = [(alg, Metric.identity(alg.dim)) for alg in catalog]
    for n in (3, 4, 5):
        pairs += [(random_algebra(rng, n), Metric.identity(n).transported(random_shear(rng, n)))
                  for _ in range(4)]
    checked = 0
    for alg, a in pairs:
        for _ in range(4):
            try:
                out = kahler_check_at(alg, a, tuple(rng.standard_normal(alg.dim)))
            except (LeafRankError, IrregularPointError):
                continue
            want = eigen_route_j(out)
            assert np.max(np.abs(out.j - want)) <= 1e-12 * np.max(np.abs(want))
            assert out.j_squared_residual < 1e-12 and out.metric_residual < 1e-12
            checked += 1
    assert checked >= 40


@pytest.mark.parametrize("n", [2, 3, 4])
def test_leaf_frame_exact_and_float_agree(rng, n):
    checked = 0
    for _ in range(12):
        alg, a = random_algebra(rng, n), random_metric(rng, n)
        mu = [int(x) for x in rng.integers(-3, 4, size=n)]
        frames = []
        for al, aa, m in ((alg, a, mu), (alg.to_float(), a.to_float(), [float(x) for x in mu])):
            try:
                frames.append(leaf_frame_at(al, aa, m))
            except DegenerateRestrictionError:
                frames.append(None)
        ex, fl = frames
        assert (ex is None) == (fl is None)
        if ex is None:
            continue
        assert ex.exact and not fl.exact
        assert ex.rank == fl.rank == n - len(ex.kernel_basis) == n - len(fl.kernel_basis)
        pm = bivector_at(alg, mu).matrix
        for cv, tv in zip(ex.complement_basis, ex.tangent_basis, strict=True):
            assert list(tv) == [sum(cv[i] * pm[i][j] for i in range(n)) for j in range(n)]
            assert all(a.apply(cv, kv) == 0 for kv in ex.kernel_basis)
        assert all(sum(kv[i] * pm[i][j] for i in range(n)) == 0
                   for kv in ex.kernel_basis for j in range(n))
        p, am = np.array(pm, dtype=float), a.as_array()
        k = np.array(fl.kernel_basis).reshape(-1, n)
        c = np.array(fl.complement_basis).reshape(-1, n)
        assert np.allclose(k @ p, 0, atol=1e-9)
        assert np.allclose(c @ am @ k.T, 0, atol=1e-9)
        assert np.allclose(np.array(fl.tangent_basis).reshape(-1, n), c @ p, atol=1e-9)
        if len(k):
            both = np.vstack([np.array(ex.kernel_basis, dtype=float), k])
            assert np.linalg.matrix_rank(both, tol=1e-9) == len(k)
        checked += 1
    assert checked >= 6


def test_leaf_frame_float_degenerate_restriction_reports_gram_determinant():
    bad = Metric.from_rows([[0, 0, 1], [0, 1, 0], [1, 0, 0]]).to_float()
    with pytest.raises(DegenerateRestrictionError, match=r"Gram determinant -?\d\.\d{3}e[+-]\d+"):
        leaf_frame_at(euclidean_motions().to_float(), bad, (0.0, 0.0, 1.0))


def test_exact_maxima_below_the_smallest_double_never_read_zero():
    """A Heisenberg bracket of 1e-200 with the identity metric has exact dpi
    coefficients of size 1 / (2 * 10**400), nonzero but 0.0 as a float: the
    coefficient residual reads the smallest double, while the cyclic and
    transport identities, exactly zero, still read 0.0."""
    tiny = Fraction(1, 10**200)
    alg, a = LieAlgebra.from_brackets(3, {(0, 1): [0, 0, tiny]}), Metric.identity(3)
    assert _DualFrame(alg, a).worst("dpi") == Fraction(1, 2 * 10**400)
    assert dpi_residual(alg, a) == math.ulp(0.0)
    assert cyclic_schouten_residual(alg, a) == 0.0
    assert metric_derivation_residual(alg, a) == 0.0
    assert dpi_residual(heisenberg(), Metric.identity(3)) == 0.5


def test_point_sweeps_past_the_float_range_are_exact_at_the_points():
    """[e1, e2] = c e2 with the identity metric, c = 10**400 or 10**-400: the
    dpi rows are nonzero multiples of c**2 (a quotient too large for a float,
    or a scale of more than 2**1074), so they are evaluated exactly at the
    points. A nonzero defect reads inf or the smallest double, the exactly
    zero identities read 0.0, and a NaN point reads NaN. The modular value
    -c reads the same way for an exact and a float f."""
    pts = [[1.0, 2.0], [0.5, -3.0], [0.0, 0.0]]
    for c, want in ((Fraction(10**400), math.inf), (Fraction(1, 10**400), math.ulp(0.0))):
        alg, a = LieAlgebra.from_brackets(2, {(0, 1): [0, c]}), Metric.identity(2)
        fr = _DualFrame(alg, a)
        assert list(fr.sweep("dpi", pts)) == [want, want, 0.0]
        assert list(fr.sweep("cyclic", pts)) == list(fr.sweep("transport", pts)) == [0.0] * 3
        assert math.isnan(fr.sweep("dpi", [[math.nan, 1.0]])[0])
        assert dpi_residual(alg, a, pts) == want
        assert modular_field_value(alg, a, [1, 0]) == modular_field_value(alg, a, [1.0, 0.0]) \
            == -want


def test_non_finite_float_input_gets_a_named_error():
    """A NaN point, and a float algebra with a NaN constant, raise ValueError
    naming the non-finite entry, not an SVD failure."""
    alg, a, mu = heisenberg().to_float(), Metric.identity(3, exact=False), [math.nan, 0.0, 1.0]
    calls = [(lambda: kahler_check_at(alg, a, mu), "bivector at the point"),
             (lambda: bivector_at(alg, mu).rank(), "bivector has the non-finite entry nan"),
             (lambda: LieAlgebra.from_brackets(3, {(0, 1): [0, 0, math.nan]}, exact=False,
                                               check_jacobi=False).center(),
              r"c\[0\]\[1\]\[2\] is nan")]
    for call, match in calls:
        with pytest.raises(ValueError, match=match) as info:
            call()
        assert not isinstance(info.value, np.linalg.LinAlgError)
