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
from .algebra import DimensionMismatchError, LieAlgebra, _bilinear, _freeze_tensor
from .scalars import DEFAULT_TOL, _scaled, _unscaled, coerce, is_exact

DEGENERACY_RTOL = 1e-9


class DegenerateMetricError(ValueError):
    pass


class Signature(NamedTuple):
    """Counts of positive and negative eigenvalues; p + q = n when valid."""

    p: int
    q: int


@dataclass(frozen=True)
class Metric:
    """Symmetric nondegenerate bilinear form, exact or float entries."""

    matrix: tuple
    exact: bool

    @classmethod
    def from_rows(cls, rows, *, exact: bool | None = None, tol: float = DEFAULT_TOL):
        if exact is None:
            exact = all(is_exact(x) or isinstance(x, str)
                        for row in rows for x in row)
        data = [[coerce(x, exact) for x in row] for row in rows]
        n = len(data)
        if any(len(row) != n for row in data):
            raise DimensionMismatchError("metric matrix must be square")
        for i in range(n):
            for j in range(i + 1, n):
                d = data[i][j] - data[j][i]
                if (d != 0) if exact else (abs(d) > tol):
                    raise ValueError(f"metric is not symmetric at ({i}, {j})")
        return cls(matrix=tuple(tuple(row) for row in data), exact=exact)

    @classmethod
    def identity(cls, n: int, *, exact: bool = True):
        rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        return cls.from_rows(rows, exact=exact)

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
        return _scaled(self.matrix, False)[0]

    def det(self):
        if self.exact:
            return rational.det(self.rows())
        return float(np.linalg.det(self.as_array()))

    def apply(self, u: Sequence, v: Sequence):
        """The value a(u, v)."""
        m, sm = _scaled(self.matrix, self.exact)
        u, su = _scaled(u, self.exact)
        v, sv = _scaled(v, self.exact)
        return _unscaled(np.einsum("j,j->", np.einsum("i,ij->j", u, m), v),
                         sm * su * sv, self.exact)

    def is_nondegenerate(self, rtol: float = DEGENERACY_RTOL) -> bool:
        if self.exact:
            return self.det() != 0
        s = np.linalg.svd(self.as_array(), compute_uv=False)
        return bool(s[-1] > rtol * max(s[0], 1e-300))

    def require_nondegenerate(self, rtol: float = DEGENERACY_RTOL):
        if not self.is_nondegenerate(rtol):
            raise DegenerateMetricError("metric is degenerate or numerically near-degenerate")

    def signature(self, rtol: float = DEGENERACY_RTOL) -> Signature:
        """Sylvester inertia; raises on a zero eigenvalue (degenerate form)."""
        if self.exact:
            p, q, z = rational.inertia(self.rows())
            if z:
                raise DegenerateMetricError("metric is degenerate")
            return Signature(p, q)
        eig = np.linalg.eigvalsh(self.as_array())
        scale = max(abs(eig[0]), abs(eig[-1]), 1e-300)
        if np.any(np.abs(eig) <= rtol * scale):
            raise DegenerateMetricError("metric has an eigenvalue at zero within threshold")
        return Signature(int(np.sum(eig > 0)), int(np.sum(eig < 0)))

    def is_positive_definite(self) -> bool:
        try:
            sig = self.signature()
        except DegenerateMetricError:
            return False
        return sig.q == 0

    def transported(self, p) -> "Metric":
        """Pullback under the basis change f_q = sum_i p[i][q] e_i (congruence)."""
        if self.exact:
            p = [[coerce(x, True) for x in row] for row in p]
        m, sm = _scaled(self.matrix, self.exact)
        p, sp = _scaled(p, self.exact)
        moved = np.einsum("ia,ib->ab", p, np.einsum("ij,jb->ib", m, p))
        return Metric.from_rows(_unscaled(moved, sm * sp * sp, self.exact), exact=self.exact)

    def to_float(self) -> "Metric":
        if not self.exact:
            return self
        return Metric.from_rows(self.as_array().tolist(), exact=False)

    def inverse_rows(self) -> list:
        if self.exact:
            return rational.inverse(self.rows())
        return np.linalg.inv(self.as_array()).tolist()


def signature(a: Metric, rtol: float = DEGENERACY_RTOL) -> Signature:
    return a.signature(rtol)


@dataclass(frozen=True)
class ConnectionTensor:
    """The product A as a rank-3 tensor: A_{e_i} e_j = sum_k A[i][j][k] e_k."""

    tensor: tuple
    exact: bool

    @property
    def dim(self) -> int:
        return len(self.tensor)

    def product(self, i: int, j: int) -> list:
        return list(self.tensor[i][j])

    def apply(self, u: Sequence, v: Sequence) -> list:
        """A_u v by bilinearity."""
        return _bilinear(self.tensor, u, v, self.exact)

    def as_array(self) -> np.ndarray:
        return _scaled(self.tensor, False)[0]

    def torsion_residual(self, alg: LieAlgebra):
        """Max-norm of A_{e_i}e_j - A_{e_j}e_i - [e_i, e_j] over basis pairs."""
        exact = self.exact and alg.exact
        x, sx = _scaled(self.tensor, exact)
        c, sc = _scaled(alg.c, exact)
        d = (x - x.transpose(1, 0, 2)) * sc - c * sx
        return _unscaled(np.max(np.abs(d)), sx * sc, exact)

    def skew_residual(self, a: Metric):
        """Max-norm of a(A_{e_i}e_j, e_k) + a(e_j, A_{e_i}e_k) over triples."""
        exact = self.exact and a.exact
        x, sx = _scaled(self.tensor, exact)
        m, sm = _scaled(a.matrix, exact)
        d = np.einsum("ijm,mk->ijk", x, m) + np.einsum("jm,ikm->ijk", m, x)
        return _unscaled(np.max(np.abs(d)), sx * sm, exact)


def levi_civita_product(alg: LieAlgebra, a: Metric) -> ConnectionTensor:
    """Solve the defining linear systems for A, all basis pairs at once.

    For each (i, j) the coordinate vector x of A_{e_i} e_j satisfies
    x . (2a) = b with b_k = a([e_i,e_j], e_k) + a([e_k,e_i], e_j)
    + a([e_k,e_j], e_i); nondegeneracy of a makes x unique.
    """
    if alg.dim != a.dim:
        raise DimensionMismatchError("algebra and metric dimensions differ")
    a.require_nondegenerate()
    n = alg.dim
    exact = alg.exact and a.exact
    c, sc = _scaled(alg.c, exact)
    m, sm = _scaled(a.matrix, exact)
    if exact:
        # with c = C/sc and a = M/sm, the solution of 2M y = B(C, M) is sc * x
        two_m = [[Fraction(2 * v) for v in row] for row in m.tolist()]
        try:
            y = rational.solve(two_m, _product_rhs(c, m).reshape(-1, n).T.tolist())
        except rational.SingularMatrixError as exc:
            raise DegenerateMetricError(str(exc)) from exc
        x = np.array(y, dtype=object).T.reshape(n, n, n)
    else:
        x = _lc_product_array(c, m)
    return ConnectionTensor(tensor=_freeze_tensor(_unscaled(x, sc, exact)), exact=exact)


def _product_rhs(c: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Right sides b[i][j][k] of the product's defining systems; linear in a.

    Leading axes of ``a`` are batch axes: a stack of metrics (or of metric
    directions) gives the stack of right sides in one contraction.
    """
    return (np.einsum("ijm,...mk->...ijk", c, a)
            + np.einsum("kim,...mj->...ijk", c, a)
            + np.einsum("kjm,...mi->...ijk", c, a))


def _lc_product_array(c: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Vectorized float solve of the product's defining systems."""
    n = c.shape[0]
    return np.linalg.solve(2.0 * a, _product_rhs(c, a).reshape(-1, n).T).T.reshape(n, n, n)


def _defect_array(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Defect vectors [A_{e_i}e_j, e_k] + [e_i, A_{e_k}e_j], shape (..., n,n,n,n).

    Leading axes of the product tensor ``x`` are batch axes, as in
    ``_product_rhs``; the defect is linear in ``x``.
    """
    return (np.einsum("...ijm,mkl->...ijkl", x, c)
            + np.einsum("iml,...kjm->...ijkl", c, x))


class CompatibilityResidual(NamedTuple):
    """Worst defect size, an argmax triple (i,j,k), and whether it is exactly 0."""

    value: float
    worst_triple: tuple
    exact_zero: bool | None


def compatibility_residual(alg: LieAlgebra, a: Metric,
                           conn: ConnectionTensor | None = None) -> CompatibilityResidual:
    """Largest basis-triple defect of [A_u v, w] + [u, A_w v].

    Value is the max over triples of the Euclidean norm of the defect
    vector, which hands back an argmax certificate for diagnostics. In exact
    mode ``exact_zero`` is authoritative; the float value is for reporting.
    """
    if conn is None:
        conn = levi_civita_product(alg, a)
    exact = conn.exact and alg.exact
    c, sc = _scaled(alg.c, exact)
    x, sx = _scaled(conn.tensor, exact)
    sq = (_defect_array(c, x) ** 2).sum(axis=3)
    idx = np.unravel_index(int(np.argmax(sq)), sq.shape)
    best = _unscaled(sq[idx], (sc * sx) ** 2, exact)
    return CompatibilityResidual(value=math.sqrt(best),
                                 worst_triple=tuple(int(t) for t in idx),
                                 exact_zero=(best == 0) if exact else None)


def is_pseudo_riemannian(alg: LieAlgebra, a: Metric, tol: float = DEFAULT_TOL) -> bool:
    """Whether the pair is compatible: exact zero residual, or below tol in float."""
    res = compatibility_residual(alg, a)
    if res.exact_zero is not None:
        return res.exact_zero
    return res.value <= tol
