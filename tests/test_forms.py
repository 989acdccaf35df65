"""The integer form that algebras, metrics and products carry.

Each value holds ``(ints, scale)`` built once from its public entries; every
kernel reads it through ``scaled(exact)``, or ``operand(exact)`` for the
bounded contractions, instead of rescaling Fractions.
"""

import copy
import dataclasses
import functools
import gc
import pickle
import weakref
from fractions import Fraction

import numpy as np
import pytest

import liemetric
from liemetric import (
    ConnectionTensor,
    DegenerateMetricError,
    DimensionMismatchError,
    LieAlgebra,
    Metric,
    abelian,
    affine_line,
    compatibility_residual,
    euclidean_motions,
    heisenberg,
    heisenberg_split_metric,
    levi_civita_product,
    sol,
    sol_split_metric,
    solvable_family,
)
from liemetric import algebra, dual, metric, rational, scalars, search
from liemetric.dual import _DualFrame
from liemetric.scalars import _scaled, _unscaled
from conftest import random_algebra, random_metric

BIG = 2**64 + 13  # a denominator past 64 bits


def _big(x: LieAlgebra) -> LieAlgebra:
    """The algebra with every constant divided by BIG: still a Lie algebra."""
    c = [[[v / BIG for v in row] for row in plane] for plane in x.c]
    return LieAlgebra.from_structure(c, exact=True)


def _pairs():
    """Catalog and seeded (algebra, metric) pairs, n = 2..6, some with
    denominators above 2**64."""
    rng = np.random.default_rng(20260822)
    out = [(abelian(2), Metric.identity(2)), (affine_line(), Metric.diagonal([1, -1])),
           (heisenberg(), heisenberg_split_metric()), (sol(), sol_split_metric()),
           (euclidean_motions(), Metric.identity(3)),
           (solvable_family(Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4)),
            Metric.diagonal([Fraction(1, 3), 2, Fraction(-5, 7)]))]
    for n in range(2, 7):
        alg, a = random_algebra(rng, n), random_metric(rng, n)
        out.append((alg, a))
        big = Metric.from_rows([[x * Fraction(3, BIG) + Fraction(1, 3 * BIG + 1) for x in row]
                                for row in a.rows()])
        out.append((_big(alg), big))
    return out


PAIRS = _pairs()


def _values():
    """Every algebra, metric and solved product of PAIRS, in both modes."""
    out = []
    for alg, a in PAIRS:
        for x, y in ((alg, a), (alg.to_float(), a.to_float())):
            out += [(x, x.c), (y, y.matrix)]
            conn = levi_civita_product(x, y)
            out.append((conn, conn.tensor))
    return out


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape and \
        got.tobytes() == want.tobytes()


def test_forms_equal_the_scaled_public_entries():
    """Algebras and metrics hold exactly ``_scaled`` of their public tuples;
    a solved product holds its rows over d * sc, which read back as its
    tensor."""
    for x, public in _values():
        ints, scale = x.scaled(x.exact)
        want, want_scale = _scaled(public, x.exact)
        assert ints.shape == want.shape
        if isinstance(x, ConnectionTensor):
            assert _unscaled(ints, scale, x.exact) == \
                [[list(row) for row in plane] for plane in public]
            assert scale > 0
        else:
            assert (scale, ints.tolist()) == (want_scale, want.tolist())
        if x.exact:
            assert all(type(v) is int for v in ints.flat) and type(scale) is int


def test_float_views_are_bit_identical_to_float_conversion():
    """int / int rounds once, as float(Fraction) does: no double rounding even
    where the ints pass 2**53, and the float accessors read this view."""
    assert any(max(abs(v) for v in x.scaled(True)[0].flat) > 2**64
               for x, _ in _values() if x.exact)
    for x, public in _values():
        want = np.asarray(public, dtype=float)
        view, one = x.scaled(False)
        assert one == 1 and _same_bits(view, want)
        if isinstance(x, LieAlgebra):
            assert _same_bits(x.structure_array(), want)
            assert _same_bits(x.to_float().structure_array(), want)
            assert x.to_float().c == tuple(tuple(tuple(float(v) for v in row) for row in p)
                                           for p in public)
        else:
            assert _same_bits(x.as_array(), want)


def test_a_float_value_has_no_exact_form():
    with pytest.raises(ValueError):
        heisenberg().to_float().scaled(True)


def test_forms_are_read_only():
    for x, _ in _values():
        ints, _ = x.scaled(x.exact)
        with pytest.raises(ValueError):
            ints[(0,) * ints.ndim] = 7
    # the float accessors still hand out arrays of their own
    arr = Metric.identity(2).as_array()
    arr[0, 0] = 5.0
    assert Metric.identity(2).as_array()[0, 0] == 1.0


def _fields(x) -> dict:
    return {f.name: getattr(x, f.name) for f in dataclasses.fields(x)}


def test_equality_hash_repr_pickle_and_replace_see_the_fields_alone():
    for x, _ in _values():
        kind = type(x)
        fresh = kind(**_fields(x))
        assert fresh == x and hash(fresh) == hash(x) and repr(fresh) == repr(x)
        assert "_form" not in repr(x) and "_pair" not in repr(x)
        # a pickle holds the fields alone, so it is the one of a value built
        # from its public entries; loading rebuilds the form
        assert x.__reduce_ex__(2)[2] == _fields(x)
        data = pickle.dumps(x)
        assert data == pickle.dumps(fresh)
        assert b"_form" not in data and b"_pair" not in data
        for back in (pickle.loads(data), copy.copy(x), copy.deepcopy(x),
                     dataclasses.replace(x)):
            assert back == x and hash(back) == hash(x)
            ints, scale = back.scaled(x.exact)
            assert not ints.flags.writeable
            assert _unscaled(ints, scale, x.exact) == _unscaled(*x.scaled(x.exact), x.exact)


def test_replace_rebuilds_the_form():
    alg = heisenberg()
    other = dataclasses.replace(alg, c=abelian(3).c)
    assert not other.scaled(True)[0].any()
    a = dataclasses.replace(Metric.identity(2), matrix=((Fraction(1, 3), 0), (0, 2)))
    assert a.scaled(True)[1] == 3 and a.det() == Fraction(2, 3)
    conn = levi_civita_product(heisenberg(), Metric.identity(3))
    zero = dataclasses.replace(conn, tensor=levi_civita_product(abelian(3),
                                                                Metric.identity(3)).tensor)
    assert not zero.scaled(True)[0].any() and zero != conn


def test_the_contraction_operand_is_the_form_built_once_and_read_only():
    """The exact operand holds the form's ints (int64 when every one fits),
    its scale and the largest magnitude; it is built on first read, kept,
    read-only, and no field: a pickle or replace builds its own. The float
    operand is the float view with no bound."""
    for x, _ in _values():
        ints, scale = x.scaled(x.exact)
        if not x.exact:
            assert x.operand(False)[1:] == (1, None)
            continue
        fresh = dataclasses.replace(x)
        array, got_scale, bound = x.operand(True)
        assert x.operand(True)[0] is array and not array.flags.writeable
        assert got_scale == scale and bound == max(map(abs, ints.ravel().tolist()))
        assert array.dtype == (np.int64 if bound < 2**63 else object)
        assert array.tolist() == ints.tolist()
        assert pickle.dumps(x) == pickle.dumps(fresh) and repr(x) == repr(fresh)
        assert "_operand" not in vars(fresh) and "_operand" not in vars(copy.copy(x))
    assert any(x.operand(True)[0].dtype == object for x, _ in _values() if x.exact)


def test_a_solved_product_reads_as_its_tensor():
    """The lazily built tensor is the one the product stands for, with the
    same dim, product, apply, as_array and residuals as a product built from
    it, to the last bit in float mode: the form is in C order, so float
    contractions sum in the same order."""
    for pair in PAIRS:
        for alg, a in (pair, (pair[0].to_float(), pair[1].to_float())):
            conn = levi_civita_product(alg, a)
            assert "tensor" not in conn.__dict__
            n = conn.dim
            assert n == alg.dim and "tensor" not in conn.__dict__
            built = ConnectionTensor(tensor=conn.tensor, exact=alg.exact)
            assert built == conn and built.dim == n
            assert conn.product(1, 0) == built.product(1, 0)
            u, v = [Fraction(k + 1, 3) for k in range(n)], [0.5 - k for k in range(n)]
            assert repr(conn.apply(u, v)) == repr(built.apply(u, v))  # repr: every bit
            assert _same_bits(conn.as_array(), built.as_array())
            for x, y in ((alg, a), (alg.to_float(), a.to_float())):
                assert repr(conn.skew_residual(y)) == repr(built.skew_residual(y))
                assert repr(conn.torsion_residual(x)) == repr(built.torsion_residual(x))


@pytest.fixture
def scaled_calls(monkeypatch):
    """Records the argument of every ``_scaled`` call in the package."""
    calls = []

    def spy(values, exact):
        calls.append(values)
        return _scaled(values, exact)

    for mod in (scalars, algebra, metric, dual, rational, search):
        if hasattr(mod, "_scaled"):
            monkeypatch.setattr(mod, "_scaled", spy)
    return calls


def _holds_fraction(values) -> bool:
    return any(type(v) is Fraction for v in np.array(values, dtype=object).flat)


def test_exact_kernels_never_rescale_prebuilt_values(scaled_calls):
    """Product, torsion, skew and exact residual on pre-built exact objects:
    the one ``_scaled`` call left is the elimination's, on integer rows, so
    neither ``alg.c``, ``a.matrix`` nor the product is rescaled, and the
    product's Fractions are never built."""
    for alg, a in PAIRS:
        scaled_calls.clear()
        conn = levi_civita_product(alg, a)
        conn.torsion_residual(alg)
        conn.skew_residual(a)
        compatibility_residual(alg, a, conn)
        assert len(scaled_calls) == 1
        assert not any(v is alg.c or v is a.matrix or _holds_fraction(v)
                       for v in scaled_calls)
        assert "tensor" not in conn.__dict__


def test_dual_frames_never_rescale_the_algebra_or_metric(scaled_calls):
    for alg, a in PAIRS:
        scaled_calls.clear()
        fr = _DualFrame(alg, a)
        for identity in ("dpi", "cyclic", "transport"):
            fr.sweep(identity)
            fr.sweep(identity, [[Fraction(1, 3)] * alg.dim])
        fr.modular
        assert not any(v is alg.c or v is a.matrix or _holds_fraction(v)
                       for v in scaled_calls)
        dual.bivector_at(alg, [1] * alg.dim)
        assert not any(v is alg.c for v in scaled_calls)


def test_certificate_scales_the_rationalized_metric_once(scaled_calls):
    """The certificate builds its Metric first and reads that metric's form
    and signature: one scaling of Fractions, the metric's own."""
    alg, want = heisenberg(), heisenberg_split_metric()
    split = want.to_float()
    for constraint, certified in (("none", True), ("positive_definite", False)):
        scaled_calls.clear()
        got = search._try_exact_certificate(alg, split, constraint)
        assert sum(map(_holds_fraction, scaled_calls)) == 1
        assert (got == want) if certified else got is None


def test_construction_checks_read_the_form():
    with pytest.raises(ValueError, match=r"not symmetric at \(0, 2\)"):
        Metric.from_rows([[1, 0, 1], [0, 1, 2], [2, 3, 1]])
    with pytest.raises(ValueError, match=r"not symmetric at \(1, 2\)"):
        Metric.from_rows([[1.0, 0.0, 0.0], [0.0, 1.0, 1e-9], [0.0, 0.0, 1.0]],
                         exact=False)
    Metric.from_rows([[1.0, 1e-13], [0.0, 1.0]], exact=False)
    with pytest.raises(liemetric.InvalidStructureError, match=r"c\[0\]\[1\]\[2\]"):
        LieAlgebra.from_structure([[[0, 0, 0], [0, 0, 1], [0, 0, 0]],
                                   [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
                                   [[0, 0, 0], [0, 0, 0], [0, 0, 0]]])


# -- a product must belong to the pair it is judged with --------------------

def test_a_product_of_another_algebra_is_refused():
    """Heisenberg with the abelian product read exactly 0 before; without a
    product its residual is 1/2."""
    foreign = levi_civita_product(abelian(3), Metric.identity(3))
    assert compatibility_residual(heisenberg(), Metric.identity(3)).value == 0.5
    with pytest.raises(ValueError, match="not the Levi-Civita product"):
        compatibility_residual(heisenberg(), Metric.identity(3), foreign)
    other_metric = levi_civita_product(heisenberg(), Metric.diagonal([1, 2, 3]))
    with pytest.raises(ValueError, match="not the Levi-Civita product"):
        compatibility_residual(heisenberg(), Metric.identity(3), other_metric)
    with pytest.raises(ValueError, match="not the Levi-Civita product"):
        compatibility_residual(heisenberg().to_float(), Metric.identity(3, exact=False),
                               foreign)


def test_a_product_of_another_dimension_is_refused():
    small = levi_civita_product(abelian(2), Metric.identity(2))
    with pytest.raises(DimensionMismatchError):
        compatibility_residual(heisenberg(), Metric.identity(3), small)
    with pytest.raises(DimensionMismatchError):
        small.torsion_residual(heisenberg())
    with pytest.raises(DimensionMismatchError):
        small.skew_residual(Metric.identity(3))
    conn = levi_civita_product(heisenberg(), Metric.identity(3))
    with pytest.raises(DimensionMismatchError):
        compatibility_residual(heisenberg(), Metric.identity(2), conn)


def test_the_same_product_is_not_rechecked(monkeypatch):
    """A product solved for the pair, or for an equal one, adds no contraction."""
    alg, a = sol(), sol_split_metric()
    conn = levi_civita_product(alg, a)
    want = compatibility_residual(alg, a)

    def forbidden(*args, **kwargs):
        raise AssertionError("a product of this pair was checked again")

    for name in ("torsion_residual", "skew_residual"):
        monkeypatch.setattr(ConnectionTensor, name, forbidden)
    monkeypatch.setattr(Metric, "require_nondegenerate", forbidden)
    assert compatibility_residual(alg, a, conn) == want
    assert compatibility_residual(sol(), sol_split_metric(), conn) == want


def test_an_unrecorded_product_is_checked_and_accepted():
    """A product with no recorded pair (built from a tensor, unpickled, or
    solved in float mode) passes when it is torsion-free and a-skew."""
    for alg, a in PAIRS[:8]:
        conn = levi_civita_product(alg, a)
        want = compatibility_residual(alg, a)
        for other in (ConnectionTensor(tensor=conn.tensor, exact=True),
                      pickle.loads(pickle.dumps(conn))):
            assert compatibility_residual(alg, a, other) == want
        flt = levi_civita_product(alg.to_float(), a.to_float())
        got = compatibility_residual(alg, a, flt)
        assert got.exact_zero is None
        assert got == compatibility_residual(alg.to_float(), a.to_float())


def test_a_near_product_is_refused_in_float_mode():
    alg, a = sol().to_float(), sol_split_metric().to_float()
    x = levi_civita_product(alg, a).as_array()
    x[0, 1, 2] += 1e-6
    near = ConnectionTensor(tensor=tuple(map(lambda p: tuple(map(tuple, p)), x.tolist())),
                            exact=False)
    with pytest.raises(ValueError, match="not the Levi-Civita product"):
        compatibility_residual(alg, a, near)


def test_a_degenerate_metric_is_refused_with_a_passed_product():
    conn = ConnectionTensor(tensor=abelian(2).c, exact=True)
    with pytest.raises(metric.DegenerateMetricError):
        compatibility_residual(abelian(2), Metric.from_rows([[1, 1], [1, 1]]), conn)


def test_every_degeneracy_verdict_reads_the_one_rule(monkeypatch):
    """Signature, nondegeneracy, positive definiteness, the float product, the
    search's admissibility and the leaf frame's Gram check each reach
    ``metric._inertia`` once, in the pair's mode: there is no second rule."""
    calls = []
    inertia = metric._inertia

    def spy(m, exact):
        calls.append(exact)
        return inertia(m, exact)

    monkeypatch.setattr(metric, "_inertia", spy)
    for exact in (True, False):
        a = Metric.identity(3, exact=exact)
        alg = euclidean_motions() if exact else euclidean_motions().to_float()
        verdicts = {"signature": a.signature, "is_nondegenerate": a.is_nondegenerate,
                    "require_nondegenerate": a.require_nondegenerate,
                    "is_positive_definite": a.is_positive_definite,
                    "_admissible": lambda: search._admissible(a, "positive_definite"),
                    "leaf_frame_at": lambda: dual.leaf_frame_at(alg, a, [0, 0, 1])}
        if not exact:
            verdicts["levi_civita_product"] = lambda: levi_civita_product(alg, a)
        for name, verdict in verdicts.items():
            calls.clear()
            verdict()
            assert calls == [exact], name


# -- the half-inverse a metric carries once read ----------------------------

def _fresh_metrics():
    """Fresh copies of every metric of PAIRS, exact and float: none has been
    read by a frame yet."""
    return [dataclasses.replace(m) for _, a in PAIRS for m in (a, a.to_float())]


def _same_half(got: tuple, want: tuple, exact: bool) -> bool:
    if exact:
        return got[1] == want[1] and got[0].tolist() == want[0].tolist()
    return got[1] == want[1] == 1 and _same_bits(got[0], want[0])


def test_the_half_inverse_is_half_the_inverse():
    """Exact: 2H / s is the Fraction inverse of the rows, in ints over a
    positive int scale. Float: H is inv(a) / 2 to the last bit, over 1."""
    for a in _fresh_metrics():
        h, s = a._half_inverse()
        if a.exact:
            assert type(s) is int and s > 0 and all(type(v) is int for v in h.flat)
            assert _unscaled(2 * h, s, True) == rational.inverse(a.rows())
        else:
            assert s == 1 and _same_bits(h, np.linalg.inv(a.as_array()) / 2)


def test_the_half_inverse_is_built_once_and_read_only():
    for a in _fresh_metrics():
        half = a._half_inverse()
        assert a._half_inverse() is half
        assert not half[0].flags.writeable
        with pytest.raises(ValueError):
            half[0][0, 0] = 7


def test_the_half_inverse_is_not_a_field():
    """Reading the half-inverse changes no ``==``, ``hash``, ``repr`` or pickle
    of the metric; a pickled, copied or replaced metric holds only what a
    fresh one does and builds its own half-inverse, equal to the original."""
    for a in _fresh_metrics():
        fresh = dataclasses.replace(a)
        half = a._half_inverse()
        assert a == fresh and hash(a) == hash(fresh) and repr(a) == repr(fresh)
        assert pickle.dumps(a) == pickle.dumps(fresh)
        for back in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a),
                     dataclasses.replace(a)):
            assert back == a and set(vars(back)) == set(vars(fresh))
            rebuilt = back._half_inverse()
            assert rebuilt[0] is not half[0] and _same_half(rebuilt, half, a.exact)


def test_a_degenerate_metric_raises_on_every_read():
    """A failed read keeps nothing: the metric raises again, as the frame did
    before it read the metric's half-inverse."""
    rows = [[1, 2, 0], [2, 4, 0], [0, 0, 1]]
    cases = [Metric.from_rows(rows, exact=True), Metric.from_rows(rows, exact=False),
             Metric.from_rows([[1.0, 1.0], [1.0, 1.0 + 1e-13]], exact=False),
             Metric.from_rows([[0, 0], [0, 0]], exact=True)]
    for a in cases:
        before = set(vars(a))
        for _ in range(3):
            with pytest.raises(metric.DegenerateMetricError, match="degenerate"):
                a._half_inverse()
        assert set(vars(a)) == before
        with pytest.raises(metric.DegenerateMetricError):
            _DualFrame(heisenberg() if a.dim == 3 else abelian(2), a)


def test_each_metric_carries_its_own_half_inverse():
    """Two metrics, equal or not, never share one: each read answers for its
    own entries, and an equal metric builds its own."""
    a, b = Metric.identity(3), Metric.diagonal([1, Fraction(1, 2), -3])
    assert _unscaled(2 * a._half_inverse()[0], a._half_inverse()[1], True) == \
        rational.inverse(a.rows())
    assert _unscaled(2 * b._half_inverse()[0], b._half_inverse()[1], True) == \
        [[1, 0, 0], [0, 2, 0], [0, 0, Fraction(-1, 3)]]
    twin = Metric.identity(3)
    assert twin._half_inverse() is not a._half_inverse()


# --- the dual frame kept with its metric ----------------------------------

@pytest.fixture
def frame_builds(monkeypatch):
    """A record of every frame construction ("init") and Koszul contraction
    ("tensors") of ``_DualFrame``."""
    builds = []
    init, tensors = _DualFrame.__init__, _DualFrame.tensors.func

    def spy_init(self, *args):
        builds.append("init")
        init(self, *args)

    def spy_tensors(self):
        builds.append("tensors")
        return tensors(self)

    prop = functools.cached_property(spy_tensors)
    prop.__set_name__(_DualFrame, "tensors")
    monkeypatch.setattr(_DualFrame, "__init__", spy_init)
    monkeypatch.setattr(_DualFrame, "tensors", prop)
    return builds


def _dual_answers(alg, a) -> list:
    """Every public dual answer that reads a frame, on (alg, a): the three
    residuals in coefficients and at a point and the modular field on each
    e_k."""
    n = alg.dim
    mu = [Fraction(k + 1, 3) for k in range(n)]
    out = [residual(alg, a, pts) for residual in (dual.dpi_residual,
                                                   dual.cyclic_schouten_residual,
                                                   dual.metric_derivation_residual)
           for pts in (None, [mu])]
    return out + [dual.modular_field_value(alg, a, [int(k == q) for q in range(n)], mu)
                  for k in range(n)]


def _small_pairs() -> list:
    """The pairs of PAIRS up to n = 4, each with a metric no frame has read."""
    return [(alg, dataclasses.replace(a)) for alg, a in PAIRS if alg.dim <= 4]


def test_a_pair_builds_its_frame_once(frame_builds):
    """The first public dual call on a pair builds its frame and its Koszul
    contraction; every later call on the pair, of any kind and with float or
    exact arguments, builds neither, and answers as before. The metric holds
    that one frame."""
    for alg, a in _small_pairs():
        frame_builds.clear()
        want = _dual_answers(alg, a)
        assert frame_builds == ["init", "tensors"]
        assert _dual_answers(alg, a) == want
        assert frame_builds == ["init", "tensors"]
        f = [1.0] + [0.0] * (alg.dim - 1)
        value = dual.modular_field_value(alg, a, f)
        for _ in range(3):
            assert dual.modular_field_value(alg, a, f) == value
        assert frame_builds == ["init", "tensors"]
        assert _dual_answers(alg, a) == want
        assert frame_builds == ["init", "tensors"]
        assert [k for k in vars(a) if k.endswith("frame")] == ["_dual_frame"]


def test_a_kept_frame_answers_only_for_its_own_algebra(frame_builds):
    """An equal but distinct algebra object misses and takes the slot; a
    different algebra on the same metric gets its own answers, those of a
    metric no frame has read."""
    a = Metric.identity(3)
    heis = heisenberg()
    twin = dataclasses.replace(heis)
    assert twin == heis and twin is not heis
    want = _dual_answers(heis, a)
    for alg in (twin, heis, twin):
        frame_builds.clear()
        assert _dual_answers(alg, a) == want
        assert frame_builds == ["init", "tensors"]
    for alg in (sol(), solvable_family(Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4)),
                heis):
        assert _dual_answers(alg, a) == _dual_answers(alg, Metric.identity(3))


def test_a_failed_frame_is_never_kept():
    """A degenerate metric, or one of another dimension, keeps nothing and
    raises the same error on every call."""
    rows = [[1, 2, 0], [2, 4, 0], [0, 0, 1]]
    cases = [(heisenberg(), Metric.from_rows(rows, exact=True), DegenerateMetricError),
             (heisenberg(), Metric.from_rows(rows, exact=False), DegenerateMetricError),
             (sol(), Metric.from_rows([[0] * 3] * 3, exact=True), DegenerateMetricError),
             (heisenberg(), Metric.identity(2), DimensionMismatchError)]
    for alg, a, error in cases:
        before = set(vars(a))
        for _ in range(3):
            for call in (lambda: dual.dpi_residual(alg, a),
                         lambda: dual.cyclic_schouten_residual(alg, a, [[1, 2, 3]]),
                         lambda: dual.modular_field_value(alg, a, [1, 0, 0]),
                         lambda: dual.modular_field_value(alg, a, [1.0, 0.0, 0.0]),
                         lambda: dual._frame(alg, a)):
                with pytest.raises(error):
                    call()
        assert set(vars(a)) == before


def test_the_kept_frame_is_not_a_field():
    """Keeping frames changes no ``==``, ``hash``, ``repr`` or pickle of the
    metric; a pickled, copied or replaced metric keeps no frame."""
    for alg, a in _small_pairs():
        fresh = dataclasses.replace(a)
        _dual_answers(alg, a)
        dual.modular_field_value(alg, a, [0.5] * alg.dim)
        assert "_dual_frame" in vars(a)
        assert a == fresh and hash(a) == hash(fresh) and repr(a) == repr(fresh)
        assert pickle.dumps(a) == pickle.dumps(fresh)
        for back in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a),
                     dataclasses.replace(a)):
            assert back == a and set(vars(back)) == set(vars(fresh))


def test_float_calls_on_an_exact_metric_invert_it_once(monkeypatch):
    """Ten modular values of a float f on an exact metric invert the metric
    once, exactly: the one kept frame, exact, holds the half-inverse."""
    builds = []
    half = metric.Metric._half_inverse

    def spy(self):
        if "_half" not in vars(self):
            builds.append(self.exact)
        return half(self)

    monkeypatch.setattr(metric.Metric, "_half_inverse", spy)
    alg, a = sol(), sol_split_metric()
    values = {dual.modular_field_value(alg, a, [1.0, 0.0, 0.0]) for _ in range(10)}
    assert builds == [True] and len(values) == 1


def test_a_metric_with_kept_frames_is_freed_by_refcount():
    """The frame holds no metric, so a metric with its frame kept dies at
    its last reference, with the garbage collector off."""
    gc.disable()
    try:
        alg, a = heisenberg(), heisenberg_split_metric()
        _dual_answers(alg, a)
        dual.modular_field_value(alg, a, [1.0, 0.0, 0.0])
        assert "_dual_frame" in vars(a)
        ref, alg_ref = weakref.ref(a), weakref.ref(alg)
        del a
        assert ref() is None
        del alg
        assert alg_ref() is None
    finally:
        gc.enable()
