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
from .scalars import DEFAULT_TOL, _scaled, _unscaled, coerce, is_exact


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
class LieAlgebra:
    """Immutable structure-constant presentation of a Lie algebra."""

    dim: int
    c: tuple
    exact: bool
    name: str = ""

    @classmethod
    def from_brackets(cls, dim: int, brackets: Mapping, *, exact: bool = True,
                      check_jacobi: bool = True, tol: float = DEFAULT_TOL,
                      name: str = ""):
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
            alg.require_jacobi(tol=tol)
        return alg

    @classmethod
    def from_structure(cls, c, *, exact: bool | None = None,
                       check_jacobi: bool = True, tol: float = DEFAULT_TOL,
                       name: str = ""):
        """Build from a full rank-3 tensor, validating antisymmetry."""
        dim = len(c)
        if exact is None:
            exact = all(is_exact(x) for plane in c for row in plane for x in row)
        data = [[[coerce(x, exact) for x in row] for row in plane] for plane in c]
        if any(len(plane) != dim or any(len(row) != dim for row in plane) for plane in data):
            raise DimensionMismatchError("structure tensor is not dim x dim x dim")
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    defect = data[i][j][k] + data[j][i][k]
                    if (defect != 0) if exact else (abs(defect) > tol):
                        raise InvalidStructureError(
                            f"antisymmetry fails at c[{i}][{j}][{k}]")
        alg = cls(dim=dim, c=_freeze_tensor(data), exact=exact, name=name)
        if check_jacobi:
            alg.require_jacobi(tol=tol)
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
        return _bilinear(self.c, u, v, self.exact)

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
        c, s = _scaled(self.c, self.exact)
        worst = []
        for i in range(n - 2):
            rest = slice(i + 1, n)
            d = (np.einsum("jm,mkt->jkt", c[i, rest], c[:, rest])
                 + np.einsum("jkm,mt->jkt", c[rest, rest], c[:, i])
                 + np.einsum("km,mjt->jkt", c[rest, i], c[:, rest]))
            j, k = np.triu_indices(n - i - 1, 1)
            worst.append(np.abs(d[j, k]).max(axis=1))
        worst = np.concatenate(worst)
        r = np.arange(n)
        i, j, k = np.nonzero((r[:, None, None] < r[None, :, None])
                             & (r[None, :, None] < r[None, None, :]))
        t = int(np.argmax(worst))
        return _unscaled(worst[t], s * s, self.exact), (int(i[t]), int(j[t]), int(k[t]))

    def require_jacobi(self, tol: float = DEFAULT_TOL):
        r = self.jacobi_residual()
        bad = (r != 0) if self.exact else not (abs(r) <= tol)
        if bad:
            raise InvalidStructureError(f"Jacobi identity fails, residual {r}")

    def adjoint_matrix(self, u: Sequence):
        """Matrix of ad_u = [u, .]; column j is [u, e_j]."""
        self._check_vector(u)
        c, sc = _scaled(self.c, self.exact)
        w, sw = _scaled(u, self.exact)
        return _unscaled(np.einsum("i,ijk->kj", w, c), sc * sw, self.exact)

    # -- derived structure --------------------------------------------------

    def ad_traces(self) -> tuple:
        c, s = _scaled(self.c, self.exact)
        return tuple(_unscaled(np.einsum("ijj->i", c), s, self.exact))

    def is_unimodular(self, tol: float = DEFAULT_TOL) -> UnimodularityReport:
        """True iff every adjoint map is trace-free."""
        traces = self.ad_traces()
        if self.exact:
            ok = all(t == 0 for t in traces)
        else:
            ok = all(abs(t) <= tol for t in traces)
        return UnimodularityReport(unimodular=ok, traces=traces)

    def center(self, tol: float = DEFAULT_TOL) -> list:
        """Basis of {v : [u, v] = 0 for all u}, via the stacked adjoints."""
        n = self.dim
        stacked = [[self.c[i][j][k] for j in range(n)] for i in range(n) for k in range(n)]
        if self.exact:
            return rational.nullspace(stacked)
        m = np.array(stacked, dtype=float)
        if not stacked:
            return []
        _, s, vt = np.linalg.svd(m)
        cutoff = tol * max(1.0, s[0] if len(s) else 1.0)
        null_rows = [vt[r] for r in range(vt.shape[0]) if r >= len(s) or s[r] <= cutoff]
        return [list(map(float, v)) for v in null_rows]

    # -- transforms ---------------------------------------------------------

    def changed_basis(self, p, *, check_jacobi: bool = False) -> "LieAlgebra":
        """Structure tensor in the basis f_q = sum_i p[i][q] e_i.

        A congruence action: c'[p][q][l] picks up two copies of p and one of
        its inverse. Exact algebras require exact p.
        """
        c, sc = _scaled(self.c, self.exact)
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
        c = [[[float(x) for x in row] for row in plane] for plane in self.c]
        return LieAlgebra(dim=self.dim, c=_freeze_tensor(c), exact=False, name=self.name)

    def structure_array(self) -> np.ndarray:
        return _scaled(self.c, False)[0]


def _bilinear(t, u: Sequence, v: Sequence, exact: bool) -> list:
    """Contract a rank-3 tensor with two vectors: sum_ij u_i v_j t[i][j]."""
    t, st = _scaled(t, exact)
    u, su = _scaled(u, exact)
    v, sv = _scaled(v, exact)
    out = np.einsum("j,jk->k", v, np.einsum("i,ijk->jk", u, t))
    return _unscaled(out, st * su * sv, exact)
