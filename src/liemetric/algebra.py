"""Finite-dimensional Lie algebras given by structure constants.

The structure tensor ``c`` encodes the bracket through
``[e_i, e_j] = sum_k c[i][j][k] e_k`` over the basis ``e_0 .. e_{n-1}``.
Antisymmetry in the first two indices is enforced at construction; whether
the Jacobi identity holds is a separate, checkable property so that test
corpora may contain deliberately corrupted tensors.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Mapping, Sequence

import numpy as np

from . import rational
from .scalars import (DEFAULT_TOL, DimensionMismatchError, IntegerForm, _scaled, _unscaled,
                      coerce, contract, frozen, operand_mode, within)


# the one float zero cutoff: a singular value (``_rank_null``) or the magnitude
# of a symmetric form's eigenvalue (``metric._inertia``) is zero unless above
# this share of the largest
RANK_RTOL = 1e-9


class InvalidStructureError(ValueError):
    pass


@dataclass(frozen=True)
class UnimodularityReport:
    """Verdict plus the trace of each basis adjoint map."""

    unimodular: bool
    traces: tuple

    def __bool__(self) -> bool:
        return self.unimodular


@dataclass(frozen=True)
class LieAlgebra(IntegerForm):
    """Immutable structure-constant presentation of a Lie algebra.

    Carries the integer form of ``c`` (``scaled``), built once here; every
    kernel below reads it. However it is built, ``c`` is dim x dim x dim,
    dim >= 1, float entries are finite and at most MAX_FLOAT_ENTRY in
    magnitude, and c is exactly antisymmetric in its first two axes (the
    kernels rely on it): one that is not raises InvalidStructureError, except
    that a float tensor is stored as its antisymmetric part by the storage
    rule of ``IntegerForm._hold_symmetric``.
    """

    dim: int
    c: tuple
    exact: bool
    name: str = ""
    _entries = "c"

    def __post_init__(self):
        n = self.dim
        if n < 1:
            raise InvalidStructureError("dimension must be positive")
        if len(self.c) != n or any(len(plane) != n or any(len(row) != n for row in plane)
                                   for plane in self.c):
            raise DimensionMismatchError("structure tensor is not dim x dim x dim")
        self._hold_symmetric(-1, InvalidStructureError, "structure constant c[{}][{}][{}]",
                             "antisymmetry fails at c[{}][{}][{}]")

    @classmethod
    def from_brackets(cls, dim: int, brackets: Mapping, *, exact: bool | None = None,
                      check_jacobi: bool = True, name: str = ""):
        """Build from ``{(i, j): coefficient vector of [e_i, e_j]}`` with i < j,
        exact when every coefficient is unless ``exact`` is given
        (``operand_mode``).

        Unlisted pairs are zero. The remaining entries are materialized by
        antisymmetry, which removes one class of inconsistent input.
        """
        inferred = operand_mode(dim, True, *brackets.values())
        exact = inferred if exact is None else exact
        zero = coerce(0, exact)
        c = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
        for (i, j), coeffs in brackets.items():
            if not (0 <= i < j < dim):
                raise InvalidStructureError(f"bracket pair {(i, j)} needs 0 <= i < j < dim")
            row = [coerce(x, exact) for x in coeffs]
            c[i][j] = row
            c[j][i] = [-x for x in row]
        alg = cls(dim=dim, c=frozen(c), exact=exact, name=name)
        if check_jacobi:
            alg.require_jacobi()
        return alg

    @classmethod
    def from_structure(cls, c, *, exact: bool | None = None,
                       check_jacobi: bool = True, name: str = ""):
        """Build from a full rank-3 tensor, exact when every entry is unless
        ``exact`` is given (``operand_mode``); the constructor validates
        antisymmetry."""
        if exact is None:
            exact = operand_mode(len(c), True, c)
        data = [[[coerce(x, exact) for x in row] for row in plane] for plane in c]
        alg = cls(dim=len(c), c=frozen(data), exact=exact, name=name)
        if check_jacobi:
            alg.require_jacobi()
        return alg

    # -- basic evaluation ---------------------------------------------------

    def basis(self, i: int):
        if not (isinstance(i, Integral) and 0 <= i < self.dim):
            raise IndexError(f"basis index {i!r} is not an integer in 0..{self.dim - 1}")
        return [coerce(int(k == i), self.exact) for k in range(self.dim)]

    def bracket(self, u: Sequence, v: Sequence) -> list:
        """[u, v] by contraction of the structure tensor; bilinear, antisymmetric."""
        exact = operand_mode(self.dim, self.exact, u, v)
        return _bilinear(self.scaled(exact), u, v, exact)

    def jacobi_residual(self):
        """Max-norm of the Jacobi defect over basis triples; 0 iff a Lie algebra."""
        return self.worst_jacobi_triple()[0]

    def worst_jacobi_triple(self):
        """The (residual, (i, j, k)) pair naming a worst Jacobi violation.

        The defect [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j] is
        alternating once antisymmetry holds, so i < j < k triples suffice;
        ties go to the lexicographically first triple. One slab per i keeps
        memory at n^3 entries.
        """
        n = self.dim
        if n < 3:
            return coerce(0, self.exact), (0,) * n
        c, s, b = self.operand(self.exact)
        # pairs j < k in row-major order; slab i takes the tail where j > i,
        # after the (i + 1)(2n - 2 - i) / 2 pairs with j <= i
        pj, pk = np.nonzero(~np.tri(n, dtype=bool))
        tails = [(i + 1) * (2 * n - 2 - i) // 2 for i in range(n - 2)]
        worst = []
        for i, tail in enumerate(tails):
            d = _jacobi_slab(c, i, b)
            worst.append(np.abs(d[pj[tail:] - i - 1, pk[tail:] - i - 1]).max(axis=1))
        t = int(np.argmax(np.concatenate(worst)))
        i = 0
        while t >= len(worst[i]):  # the slab offsets decode t
            t -= len(worst[i])
            i += 1
        p = tails[i] + t
        return _unscaled(worst[i][t], s * s, self.exact), (i, int(pj[p]), int(pk[p]))

    def require_jacobi(self):
        r = self.jacobi_residual()
        if not within(r, self.exact):
            raise InvalidStructureError(f"Jacobi identity fails, residual {r}")

    def adjoint_matrix(self, u: Sequence):
        """Matrix of ad_u = [u, .]; column j is [u, e_j]."""
        exact = operand_mode(self.dim, self.exact, u)
        c, sc = self.scaled(exact)
        w, sw = _scaled(u, exact)
        return _unscaled(np.einsum("i,ijk->kj", w, c), sc * sw, exact)

    # -- derived structure --------------------------------------------------

    def ad_traces(self) -> tuple:
        c, s = self.scaled(self.exact)
        return tuple(_unscaled(np.einsum("ijj->i", c), s, self.exact))

    def is_unimodular(self, tol: float = DEFAULT_TOL) -> UnimodularityReport:
        """True iff every adjoint map is trace-free."""
        traces = self.ad_traces()
        return UnimodularityReport(unimodular=all(within(t, self.exact, tol) for t in traces),
                                   traces=traces)

    def center(self) -> list:
        """Basis of {v : [u, v] = 0 for all u}: the null space of the stacked
        adjoints, by the one rank rule (``_rank_null``)."""
        n = self.dim
        # the form is the tensor times a positive scale: the same null space
        c = self.scaled(self.exact)[0]
        stacked = c.transpose(0, 2, 1).reshape(n * n, n)
        return _rank_null(stacked, self.exact, "the stacked adjoints")[1].tolist()

    # -- transforms ---------------------------------------------------------

    def changed_basis(self, p) -> "LieAlgebra":
        """Structure tensor in the basis f_q = sum_i p[i][q] e_i.

        A congruence action: c'[p][q][l] picks up two copies of p and one of
        its inverse. The result is exact when the algebra and p are
        (``operand_mode``).
        """
        exact = operand_mode(self.dim, self.exact, p)
        c, sc = self.scaled(exact)
        parr, sp = _scaled(p, exact)
        if exact:
            pinv, si = _scaled(rational.inverse(_unscaled(parr, sp, True)), True)
        else:
            pinv, si = np.linalg.inv(parr), 1
        new = np.einsum("ijk,lk->ijl", c, pinv)
        new = np.einsum("ia,ijl->ajl", parr, new)
        new = np.einsum("jb,ajl->abl", parr, new)
        new = frozen(_unscaled(new, sc * sp * sp * si, exact))
        return LieAlgebra(dim=self.dim, c=new, exact=exact, name=self.name)

    def structure_array(self) -> np.ndarray:
        return self.scaled(False)[0].copy()


def _jacobi_slab(c: np.ndarray, i: int, b: int | None) -> np.ndarray:
    """Jacobi defects d[j - i - 1, k - i - 1] of (e_i, e_j, e_k), j, k > i. As
    c[k, i, m] = -c[i, k, m], the third term is the first with j and k
    swapped and negated, which is exact in both modes."""
    rest = slice(i + 1, len(c))
    first = contract("jm,mkt->jkt", c[i, rest], c[:, rest], b, b)
    return (first + contract("jkm,mt->jkt", c[rest, rest], c[:, i], b, b)
            - first.transpose(1, 0, 2))


def _rank_null(m, exact: bool, what: str):
    """Rank of the matrix m and an array whose rows span its right null space.

    Exact: ``rational.nullspace``. Float: the SVD rows past the numeric rank,
    the number of singular values above RANK_RTOL * s[0], which scaling m
    does not change; a non-finite entry of m, which ``what`` names, raises
    ValueError.
    """
    n = len(m[0])
    if exact:
        rows = rational.nullspace([list(row) for row in m])
        return n - len(rows), np.array(rows, dtype=object).reshape(-1, n)
    m = np.asarray(m, dtype=float)
    bad = np.argwhere(~np.isfinite(m))
    if len(bad):
        i, j = bad[0]
        raise ValueError(f"{what} has the non-finite entry {m[i, j]} at ({i}, {j}); "
                         "its rank needs finite entries")
    _, s, vt = np.linalg.svd(m)
    rank = int(np.sum(s > RANK_RTOL * s[0])) if s.size and s[0] > 0 else 0
    return rank, vt[rank:]


def _bilinear(form: tuple, u: Sequence, v: Sequence, exact: bool) -> list:
    """Contract a rank-3 tensor, given as its form ``(t, st)``, with two vectors:
    sum_ij u_i v_j t[i][j] / st; the caller checks the lengths
    (``operand_mode``)."""
    t, st = form
    u, su = _scaled(u, exact)
    v, sv = _scaled(v, exact)
    out = np.einsum("j,jk->k", v, np.einsum("i,ijk->jk", u, t))
    return _unscaled(out, st * su * sv, exact)
