"""Metrics on a Lie algebra and the compatibility test that pairs them.

A metric is a nondegenerate symmetric bilinear form ``a``. Together with the
bracket it determines a bilinear product ``A`` through

    2 a(A_u v, w) = a([u,v], w) + a([w,u], v) + a([w,v], u)

which is the unique product that is torsion-free (A_u v - A_v u = [u,v]) and
acts by a-skew maps (a(A_u v, w) + a(v, A_u w) = 0). The pair (algebra,
metric) is called compatible when [A_u v, w] + [u, A_w v] = 0 for all basis
triples; ``compatibility_residual`` measures the worst violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from . import rational
from .algebra import (RANK_RTOL, DimensionMismatchError, LieAlgebra, _bilinear,
                      _check_lengths, _freeze_tensor)
from .scalars import (DEFAULT_TOL, MAX_FLOAT_ENTRY, IntegerForm, _differ, _scaled, _unscaled,
                      coerce, contract, is_exact, report_float, within)

DEGENERATE_METRIC = "metric is degenerate or numerically near-degenerate"


def _inertia(m: np.ndarray, exact: bool) -> tuple:
    """Sylvester inertia (p, q, z) of a symmetric array: the one degeneracy
    rule, z > 0 exactly when the form is degenerate.

    Exact: ``rational.inertia`` (a positive scale keeps the inertia). Float:
    an eigenvalue counts as zero unless its magnitude exceeds RANK_RTOL times
    the largest, the cut of the float rank (``algebra._rank_null``): the
    singular values of a symmetric matrix are the magnitudes of its
    eigenvalues.
    """
    if exact:
        return rational.inertia(m.tolist())
    ev = np.linalg.eigvalsh(m).tolist()  # ascending: the largest |ev| is at an end
    cut = RANK_RTOL * max(abs(ev[0]), abs(ev[-1]))
    p, q = sum(x > cut for x in ev), sum(x < -cut for x in ev)
    return p, q, len(ev) - p - q


class DegenerateMetricError(ValueError):
    pass


class Signature(NamedTuple):
    """Counts of positive and negative eigenvalues; p + q = n when valid."""

    p: int
    q: int


@dataclass(frozen=True)
class Metric(IntegerForm):
    """Symmetric nondegenerate bilinear form, exact or float entries.

    Carries the integer form of ``matrix`` (``scaled``), built once here.
    However it is built, the matrix is square and symmetric (in float mode
    within DEFAULT_TOL, with finite entries at most MAX_FLOAT_ENTRY in
    magnitude), or construction raises.
    """

    matrix: tuple
    exact: bool

    def __post_init__(self):
        n = len(self.matrix)
        if any(len(row) != n for row in self.matrix):
            raise DimensionMismatchError("metric matrix must be square")
        self._hold(_scaled(self.matrix, self.exact))
        m = self._form[0]
        if not (self.exact or np.abs(m).max(initial=0.0) <= MAX_FLOAT_ENTRY):  # NaN fails too
            i, j = np.argwhere(~(np.abs(m) <= MAX_FLOAT_ENTRY))[0]
            raise ValueError(f"metric entry ({i}, {j}) is {m[i, j]}; a float entry must be "
                             f"finite and at most {MAX_FLOAT_ENTRY:g} in magnitude")
        # the mask is symmetric, so its row-major first entry has i < j
        bad = np.argwhere(_differ(m, m.T, self.exact, DEFAULT_TOL))
        if len(bad):
            i, j = bad[0]
            raise ValueError(f"metric is not symmetric at ({i}, {j})")

    @classmethod
    def from_rows(cls, rows, *, exact: bool | None = None):
        if exact is None:
            exact = all(is_exact(x) or isinstance(x, str)
                        for row in rows for x in row)
        return cls(matrix=tuple(tuple(coerce(x, exact) for x in row) for row in rows),
                   exact=exact)

    @classmethod
    def identity(cls, n: int, *, exact: bool = True):
        return cls.diagonal([1] * n, exact=exact)

    @classmethod
    def diagonal(cls, entries, *, exact: bool | None = None):
        n = len(entries)
        rows = [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]
        return cls.from_rows(rows, exact=exact)

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def rows(self) -> list:
        return [list(row) for row in self.matrix]

    def as_array(self) -> np.ndarray:
        return self.scaled(False)[0].copy()

    def det(self):
        m, sm = self.scaled(self.exact)
        if self.exact:
            return rational.det(m.tolist()) / sm ** self.dim
        return float(np.linalg.det(m))

    def apply(self, u: Sequence, v: Sequence):
        """The value a(u, v)."""
        _check_lengths(self.dim, u, v)
        m, sm = self.scaled(self.exact)
        u, su = _scaled(u, self.exact)
        v, sv = _scaled(v, self.exact)
        return _unscaled(np.einsum("j,j->", np.einsum("i,ij->j", u, m), v),
                         sm * su * sv, self.exact)

    def is_nondegenerate(self) -> bool:
        return not _inertia(self._form[0], self.exact)[2]

    def require_nondegenerate(self):
        self.signature()

    def signature(self) -> Signature:
        """Sylvester inertia (``_inertia``); raises on a degenerate form."""
        p, q, z = _inertia(self._form[0], self.exact)
        if z:
            raise DegenerateMetricError(DEGENERATE_METRIC)
        return Signature(p, q)

    def is_positive_definite(self) -> bool:
        return _inertia(self._form[0], self.exact)[0] == self.dim

    def transported(self, p) -> "Metric":
        """Pullback under the basis change f_q = sum_i p[i][q] e_i (congruence)."""
        if self.exact:
            p = [[coerce(x, True) for x in row] for row in p]
        m, sm = self.scaled(self.exact)
        p, sp = _scaled(p, self.exact)
        moved = np.einsum("ia,ib->ab", p, np.einsum("ij,jb->ib", m, p))
        return Metric.from_rows(_unscaled(moved, sm * sp * sp, self.exact), exact=self.exact)

    def to_float(self) -> "Metric":
        """The float copy, built directly as ``LieAlgebra.to_float`` builds its
        copy: equal Fractions round to equal floats, so it is symmetric."""
        if not self.exact:
            return self
        return Metric(matrix=tuple(map(tuple, self.as_array().tolist())), exact=False)

    def inverse_rows(self) -> list:
        if self.exact:
            return rational.inverse(self.rows())
        return np.linalg.inv(self.scaled(False)[0]).tolist()

    def _half_inverse(self) -> tuple:
        """Half the inverse metric as (H, s), H / s = a^-1 / 2. Exact: with
        M = sm a, one elimination of [2M | I] gives 2M R = d I, so H = sm R
        over d; it is also the nondegeneracy check. Float: inv(a) / 2 over 1.
        A degenerate metric raises. Each call computes it: the dual frame
        kept with the metric (``dual._frame``) is where it is kept."""
        m, sm = self._form
        if self.exact:
            r, d = _solve_doubled(m, np.identity(self.dim, dtype=int).tolist())
            return sm * np.array(r, dtype=object), d
        self.require_nondegenerate()
        return np.linalg.inv(m) / 2, 1


def signature(a: Metric) -> Signature:
    return a.signature()


class _TensorFromForm:
    """The ``tensor`` field of a product: kept when passed in, otherwise built
    from the product's integer form on first read. A solved product reaches
    every residual through its form, so its Fractions are made only when
    asked for."""

    def __get__(self, conn, owner=None):
        if conn is None:
            raise AttributeError("tensor")  # a required field: no class default
        if "tensor" not in conn.__dict__:
            x, scale = conn._form
            conn.__dict__["tensor"] = _freeze_tensor(_unscaled(x, scale, conn.exact))
        return conn.__dict__["tensor"]

    def __set__(self, conn, value):
        conn.__dict__["tensor"] = value


@dataclass(frozen=True)
class ConnectionTensor(IntegerForm):
    """The product A as a rank-3 tensor: A_{e_i} e_j = sum_k A[i][j][k] e_k.

    Carries its integer form (``scaled``). ``levi_civita_product`` builds it
    from the form alone and records the pair it was solved for; the public
    ``tensor`` is built from the form on first read.
    """

    tensor: tuple = _TensorFromForm()
    exact: bool
    _pair = None  # the (algebra, metric) a solve built this product for

    def __post_init__(self):
        self._hold(_scaled(self.tensor, self.exact))

    @classmethod
    def _solved(cls, form: tuple, exact: bool, alg: LieAlgebra, a: Metric):
        conn = object.__new__(cls)
        object.__setattr__(conn, "exact", exact)
        object.__setattr__(conn, "_pair", (alg, a))
        conn._hold(form)
        return conn

    @property
    def dim(self) -> int:
        return len(self._form[0])

    def product(self, i: int, j: int) -> list:
        return list(self.tensor[i][j])

    def apply(self, u: Sequence, v: Sequence) -> list:
        """A_u v by bilinearity."""
        return _bilinear(self.scaled(self.exact), u, v, self.exact)

    def as_array(self) -> np.ndarray:
        return self.scaled(False)[0].copy()

    def _check_dim(self, other):
        if other.dim != self.dim:
            raise DimensionMismatchError(
                f"a product of dimension {self.dim} against dimension {other.dim}")

    def torsion_residual(self, alg: LieAlgebra):
        """Max-norm of A_{e_i}e_j - A_{e_j}e_i - [e_i, e_j] over basis pairs."""
        self._check_dim(alg)
        exact = self.exact and alg.exact
        x, sx = self.scaled(exact)
        c, sc = alg.scaled(exact)
        d = (x - x.transpose(1, 0, 2)) * sc - c * sx
        return _unscaled(np.max(np.abs(d)), sx * sc, exact)

    def skew_residual(self, a: Metric):
        """Max-norm of a(A_{e_i}e_j, e_k) + a(e_j, A_{e_i}e_k) over triples."""
        self._check_dim(a)
        exact = self.exact and a.exact
        x, sx, bx = self.operand(exact)
        m, sm, bm = a.operand(exact)
        d = contract("ijm,mk->ijk", x, m, bx, bm) + contract("jm,ikm->ijk", m, x, bm, bx)
        return _unscaled(np.max(np.abs(d)), sx * sm, exact)


def levi_civita_product(alg: LieAlgebra, a: Metric) -> ConnectionTensor:
    """Solve the defining linear systems for A, all basis pairs at once.

    For each (i, j) the coordinate vector x of A_{e_i} e_j satisfies
    x . (2a) = b with b_k = a([e_i,e_j], e_k) + a([e_k,e_i], e_j)
    + a([e_k,e_j], e_i); nondegeneracy of a makes x unique. In exact mode
    the one integer elimination is also the nondegeneracy check, and the
    product keeps its rows y over d * sc, divided by the gcd of all of them,
    as its integer form: the same Fractions, on ints small enough that the
    residual contractions mostly run in int64 (``contract``).
    """
    if alg.dim != a.dim:
        raise DimensionMismatchError("algebra and metric dimensions differ")
    n = alg.dim
    exact = alg.exact and a.exact
    if exact:
        c, sc, bc = alg.operand(True)
        m, sm, bm = a.operand(True)
        # with c = C/sc and a = M/sm, 2M y = d B(C, M) gives y = d sc x
        y, d = _solve_doubled(a.scaled(True)[0],
                              _product_rhs(c, m, bc, bm).reshape(-1, n).T.tolist())
        y = np.array(y, dtype=object).T.reshape(n, n, n)
        g = math.gcd(d * sc, *y.ravel().tolist())
        form = y // g, d * sc // g
    else:
        a.require_nondegenerate()
        m = a.scaled(False)[0]
        cols = _product_rhs(alg.scaled(False)[0], m).reshape(-1, n).T
        form = np.linalg.solve(2.0 * m, cols).T.reshape(n, n, n), 1
    return ConnectionTensor._solved(form, exact, alg, a)


def _solve_doubled(m: np.ndarray, rhs) -> tuple:
    """Solve 2M y = rhs in integers for the integer form M of an exact metric:
    (rows, d) with d > 0 and 2M rows = d rhs, from one elimination. A singular
    M raises DegenerateMetricError, as ``Metric.require_nondegenerate`` does."""
    try:
        return rational._solve_int((2 * m).tolist(), rhs)
    except rational.SingularMatrixError as exc:
        raise DegenerateMetricError(DEGENERATE_METRIC) from exc


def _product_rhs(c: np.ndarray, a: np.ndarray, bc: int | None = None,
                 ba: int | None = None) -> np.ndarray:
    """Right sides b[i][j][k] of the product's defining systems; linear in a.

    Leading axes of ``a`` are batch axes: a stack of metrics (or of metric
    directions) gives the stack of right sides in one contraction. Exact
    operands come with their bounds and go through ``contract``; float ones
    (and the int64 residues of the search certificate's screen) come without
    and go through one ``np.matmul``, c as an (n^2, n) matrix against each
    (n, n) slice of ``a``.

    The second and third terms are the first, p[i][j][k] = a([e_i,e_j], e_k),
    read at (k, i, j) and (k, j, i), so one contraction serves all three.
    Each entry of p is one sum over m, and the terms are its permutations, so
    the sum is bit-identical to one matmul per term added in the same order.
    A slice's matmul does not see the other slices, so a slice's right sides
    do not depend on its batch. Explicit transpose axes cost less per call
    than ``np.moveaxis``.
    """
    n = c.shape[0]
    if bc is None:
        p = (c.reshape(n * n, n) @ a).reshape(a.shape[:-2] + (n, n, n))
    else:
        p = contract("ijm,...mk->...ijk", c, a, bc, ba)
    i = p.ndim - 3
    lead = tuple(range(i))
    return p + p.transpose(lead + (i + 1, i + 2, i)) + p.transpose(lead + (i + 2, i + 1, i))


def _defect_array(c: np.ndarray, x: np.ndarray, bc: int | None = None,
                  bx: int | None = None) -> np.ndarray:
    """Defect vectors [A_{e_i}e_j, e_k] + [e_i, A_{e_k}e_j], shape (..., n,n,n,n).

    Leading axes of the product tensor ``x`` are batch axes, as in
    ``_product_rhs``; the defect is linear in ``x``. Exact operands come with
    their bounds, as in ``_product_rhs``.

    The defect is antisymmetric in (i, k) because the bracket is. Its first
    term is q[i,j,k,l] = sum_m x[i,j,m] c[m,k,l], and when c[i,m,l] =
    -c[m,i,l] its second term, sum_m x[k,j,m] c[i,m,l], is -q[k,j,i,l]. So
    one contraction against c alone, an (n, n^2) matrix, gives both: the
    defect is q minus q with i and k swapped. The precondition is that c is
    exactly antisymmetric in its first two axes, which every ``LieAlgebra``
    form is. Negation is exact in both modes, and a float sum of negated
    products is the negated sum, so the result has the bits of one matmul
    per term added, on the BLAS builds the tests ran on. In float mode the
    contraction is one 2-D ``np.matmul`` of every (i, j) row of every batch
    entry, x as a (rows, n) matrix. A row's result is the same at any row
    count of at least two (BLAS gemm; checked in the tests), and at n = 1
    every entry is a single product, so a batch entry's defect does not
    depend on its batch. Int64 arrays without bounds (the residues of the
    search certificate's screen, whose sums it keeps within int64) take the
    same matmul.
    """
    n = c.shape[0]
    if bx is None:
        q = (x.reshape(-1, n) @ c.reshape(n, n * n)).reshape(x.shape[:-1] + (n, n))
    else:
        q = contract("...ijm,mkl->...ijkl", x, c, bx, bc)
    return q - np.swapaxes(q, -4, -2)


class CompatibilityResidual(NamedTuple):
    """Worst defect size, an argmax triple (i,j,k), and whether it is exactly 0."""

    value: float
    worst_triple: tuple
    exact_zero: bool | None

    def passes(self, tol: float = DEFAULT_TOL) -> bool:
        """The verdict: ``exact_zero`` in exact mode, ``within`` tol otherwise."""
        if self.exact_zero is not None:
            return self.exact_zero
        return within(self.value, False, tol)


def compatibility_residual(alg: LieAlgebra, a: Metric,
                           conn: ConnectionTensor | None = None) -> CompatibilityResidual:
    """Largest basis-triple defect of [A_u v, w] + [u, A_w v].

    Value is the max over triples of the Euclidean norm of the defect
    vector, which hands back an argmax certificate for diagnostics. In exact
    mode ``exact_zero`` is authoritative; the float value is for reporting,
    and is the float nearest the exact value (``_root``): 0.0 only for an
    exact zero, inf only past the float range.
    A passed ``conn`` must be the product of (alg, a): one of another
    dimension raises DimensionMismatchError, and one not solved for an equal
    pair must be torsion-free and a-skew, or it raises ValueError.
    """
    if conn is None:
        conn = levi_civita_product(alg, a)
    else:
        _require_product_of(conn, alg, a)
    exact = conn.exact and alg.exact
    c, sc, bc = alg.operand(exact)
    x, sx, bx = conn.operand(exact)
    sq = (_defect_array(c, x, bc, bx) ** 2).sum(axis=3)
    idx = np.unravel_index(int(np.argmax(sq)), sq.shape)
    best = sq[idx]
    return CompatibilityResidual(value=_root(best, sc * sx) if exact else math.sqrt(best),
                                 worst_triple=tuple(int(t) for t in idx),
                                 exact_zero=(best == 0) if exact else None)


def _root(square: int, scale: int) -> float:
    """sqrt(square) / scale for ints square >= 0 and scale > 0, rounded once
    to the nearest float and shown as ``report_float`` shows it, so a square
    past the float range (a defect near 1e200 squares to 1e400) still gives
    its root. r = isqrt(4**m square / scale**2) has at least 55 bits, and an
    inexact r gets a sticky low bit, so r / 2**m rounds as the root does."""
    den = scale * scale
    m = 56 - (square.bit_length() - den.bit_length()) // 2
    num, den = square << max(2 * m, 0), den << max(-2 * m, 0)
    r = math.isqrt(num // den)
    r |= r * r * den != num
    return report_float(Fraction(r, 1 << m) if m >= 0 else r << -m)


def _require_product_of(conn: ConnectionTensor, alg: LieAlgebra, a: Metric):
    """Refuse a product that is not the Levi-Civita product of (alg, a).

    One solved for an equal pair passes as it is. Any other must be
    torsion-free and a-skew for a nondegenerate a, which by uniqueness makes
    it that product: exactly when all three are exact, otherwise within
    DEFAULT_TOL relative to the size of the terms of each residual.
    """
    if not conn.dim == alg.dim == a.dim:
        raise DimensionMismatchError(
            f"product, algebra and metric of dimensions {conn.dim}, {alg.dim}, {a.dim}")
    if conn._pair is not None and conn._pair == (alg, a):
        return
    a.require_nondegenerate()
    torsion, skew = conn.torsion_residual(alg), conn.skew_residual(a)
    exact = conn.exact and alg.exact and a.exact
    x, c, m = (np.max(np.abs(o.scaled(False)[0])) for o in (conn, alg, a))
    if not (within(torsion, exact, DEFAULT_TOL * max(1.0, x, c))
            and within(skew, exact, DEFAULT_TOL * max(1.0, x * m))):
        raise ValueError("the product is not the Levi-Civita product of this "
                         f"algebra and metric (torsion {torsion}, skew {skew})")


def is_pseudo_riemannian(alg: LieAlgebra, a: Metric) -> bool:
    """Whether the pair is compatible: exact zero residual, or within DEFAULT_TOL in float."""
    return compatibility_residual(alg, a).passes()
