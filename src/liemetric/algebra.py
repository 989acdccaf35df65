"""Finite-dimensional Lie algebras given by structure constants.

The structure tensor ``c`` encodes the bracket through
``[e_i, e_j] = sum_k c[i][j][k] e_k`` over the basis ``e_0 .. e_{n-1}``.
Antisymmetry in the first two indices is enforced at construction; whether
the Jacobi identity holds is a separate, checkable property so that test
corpora may contain deliberately corrupted tensors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import rational
from .scalars import (DEFAULT_TOL, IntegerForm, _differ, _scaled, _unscaled, coerce, contract,
                      is_exact, within)


RANK_RTOL = 1e-9  # the float rank: singular values above this share of the largest


class DimensionMismatchError(ValueError):
    pass


class InvalidStructureError(ValueError):
    pass


@dataclass(frozen=True)
class UnimodularityReport:
    """Verdict plus the trace of each basis adjoint map."""

    unimodular: bool
    traces: tuple

    def __bool__(self) -> bool:
        return self.unimodular


def _freeze_tensor(c):
    return tuple(tuple(tuple(row) for row in plane) for plane in c)


@dataclass(frozen=True)
class LieAlgebra(IntegerForm):
    """Immutable structure-constant presentation of a Lie algebra.

    Carries the integer form of ``c`` (``scaled``), built once here; every
    kernel below reads it.
    """

    dim: int
    c: tuple
    exact: bool
    name: str = ""

    def __post_init__(self):
        self._hold(_scaled(self.c, self.exact))

    @classmethod
    def from_brackets(cls, dim: int, brackets: Mapping, *, exact: bool = True,
                      check_jacobi: bool = True, name: str = ""):
        """Build from ``{(i, j): coefficient vector of [e_i, e_j]}`` with i < j.

        Unlisted pairs are zero. The remaining entries are materialized by
        antisymmetry, which removes one class of inconsistent input.
        """
        if dim < 1:
            raise InvalidStructureError("dimension must be positive")
        zero = coerce(0, exact)
        c = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
        for (i, j), coeffs in brackets.items():
            if not (0 <= i < j < dim):
                raise InvalidStructureError(f"bracket pair {(i, j)} needs 0 <= i < j < dim")
            if len(coeffs) != dim:
                raise DimensionMismatchError(f"coefficient vector for {(i, j)} has wrong length")
            row = [coerce(x, exact) for x in coeffs]
            c[i][j] = row
            c[j][i] = [-x for x in row]
        alg = cls(dim=dim, c=_freeze_tensor(c), exact=exact, name=name)
        if check_jacobi:
            alg.require_jacobi()
        return alg

    @classmethod
    def from_structure(cls, c, *, exact: bool | None = None,
                       check_jacobi: bool = True, name: str = ""):
        """Build from a full rank-3 tensor, validating antisymmetry."""
        dim = len(c)
        if dim < 1:
            raise InvalidStructureError("dimension must be positive")
        if exact is None:
            exact = all(is_exact(x) for plane in c for row in plane for x in row)
        data = [[[coerce(x, exact) for x in row] for row in plane] for plane in c]
        if any(len(plane) != dim or any(len(row) != dim for row in plane) for plane in data):
            raise DimensionMismatchError("structure tensor is not dim x dim x dim")
        alg = cls(dim=dim, c=_freeze_tensor(data), exact=exact, name=name)
        t, _ = alg.scaled(exact)
        bad = np.argwhere(_differ(t, -t.transpose(1, 0, 2), exact, DEFAULT_TOL))
        if len(bad):
            i, j, k = bad[0]  # row-major order: the lexicographically first entry
            raise InvalidStructureError(f"antisymmetry fails at c[{i}][{j}][{k}]")
        if check_jacobi:
            alg.require_jacobi()
        return alg

    # -- basic evaluation ---------------------------------------------------

    def basis(self, i: int):
        return [coerce(int(k == i), self.exact) for k in range(self.dim)]

    def _check_vector(self, u: Sequence):
        if len(u) != self.dim:
            raise DimensionMismatchError(
                f"vector of length {len(u)} in a {self.dim}-dimensional algebra")

    def bracket(self, u: Sequence, v: Sequence) -> list:
        """[u, v] by contraction of the structure tensor; bilinear, antisymmetric."""
        self._check_vector(u)
        self._check_vector(v)
        return _bilinear(self.scaled(self.exact), u, v, self.exact)

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
        pj, pk = np.triu_indices(n, 1)
        tails = [(i + 1) * (2 * n - 2 - i) // 2 for i in range(n - 2)]
        worst = []
        for i, tail in enumerate(tails):
            rest = slice(i + 1, n)
            d = (contract("jm,mkt->jkt", c[i, rest], c[:, rest], b, b)
                 + contract("jkm,mt->jkt", c[rest, rest], c[:, i], b, b)
                 + contract("km,mjt->jkt", c[rest, i], c[:, rest], b, b))
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
        self._check_vector(u)
        c, sc = self.scaled(self.exact)
        w, sw = _scaled(u, self.exact)
        return _unscaled(np.einsum("i,ijk->kj", w, c), sc * sw, self.exact)

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
        if not (self.exact or np.isfinite(c).all()):
            i, j, k = np.argwhere(~np.isfinite(c))[0]
            raise ValueError(f"structure constant c[{i}][{j}][{k}] is {c[i, j, k]}; "
                             "the center needs finite constants")
        stacked = c.transpose(0, 2, 1).reshape(n * n, n)
        return _rank_null(stacked, self.exact, "the stacked adjoints")[1].tolist()

    # -- transforms ---------------------------------------------------------

    def changed_basis(self, p, *, check_jacobi: bool = False) -> "LieAlgebra":
        """Structure tensor in the basis f_q = sum_i p[i][q] e_i.

        A congruence action: c'[p][q][l] picks up two copies of p and one of
        its inverse. Exact algebras require exact p.
        """
        c, sc = self.scaled(self.exact)
        if self.exact:
            p = [[coerce(x, True) for x in row] for row in p]
            pinv = rational.inverse(p)
        else:
            pinv = np.linalg.inv(np.array(p, dtype=float))
        parr, sp = _scaled(p, self.exact)
        pinv, si = _scaled(pinv, self.exact)
        new = np.einsum("ijk,lk->ijl", c, pinv)
        new = np.einsum("ia,ijl->ajl", parr, new)
        new = np.einsum("jb,ajl->abl", parr, new)
        return LieAlgebra.from_structure(_unscaled(new, sc * sp * sp * si, self.exact),
                                         exact=self.exact, check_jacobi=check_jacobi,
                                         name=self.name)

    def to_float(self) -> "LieAlgebra":
        if not self.exact:
            return self
        c = self.scaled(False)[0].tolist()
        return LieAlgebra(dim=self.dim, c=_freeze_tensor(c), exact=False, name=self.name)

    def structure_array(self) -> np.ndarray:
        return self.scaled(False)[0].copy()


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
    sum_ij u_i v_j t[i][j] / st."""
    t, st = form
    u, su = _scaled(u, exact)
    v, sv = _scaled(v, exact)
    out = np.einsum("j,jk->k", v, np.einsum("i,ijk->jk", u, t))
    return _unscaled(out, st * su * sv, exact)
