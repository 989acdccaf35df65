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
from .scalars import (DEFAULT_TOL, MAX_FLOAT_ENTRY, IntegerForm, _differ, _scaled, _unscaled,
                      coerce, contract, infer_exact, within)


# the one float zero cutoff: a singular value (``_rank_null``) or the magnitude
# of a symmetric form's eigenvalue (``metric._inertia``) is zero unless above
# this share of the largest
RANK_RTOL = 1e-9


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
    kernel below reads it. However it is built, ``c`` is dim x dim x dim,
    dim >= 1, float entries are finite and at most MAX_FLOAT_ENTRY in
    magnitude, and c is exactly antisymmetric in its first two axes (the
    kernels rely on it): one that is not raises InvalidStructureError, except
    that float entries may miss antisymmetry by DEFAULT_TOL, and such a
    tensor is stored as (c - c^T) / 2. An exactly antisymmetric one keeps its
    bits.
    """

    dim: int
    c: tuple
    exact: bool
    name: str = ""

    def __post_init__(self):
        n = self.dim
        if n < 1:
            raise InvalidStructureError("dimension must be positive")
        if len(self.c) != n or any(len(plane) != n or any(len(row) != n for row in plane)
                                   for plane in self.c):
            raise DimensionMismatchError("structure tensor is not dim x dim x dim")
        self._hold(_scaled(self.c, self.exact))
        t = self._form[0]
        if not (self.exact or np.abs(t).max() <= MAX_FLOAT_ENTRY):  # NaN fails too
            i, j, k = np.argwhere(~(np.abs(t) <= MAX_FLOAT_ENTRY))[0]
            raise InvalidStructureError(
                f"structure constant c[{i}][{j}][{k}] is {t[i, j, k]}; a float constant "
                f"must be finite and at most {MAX_FLOAT_ENTRY:g} in magnitude")
        mirror = t.transpose(1, 0, 2)
        bad = np.argwhere(_differ(t, -mirror, self.exact, DEFAULT_TOL))
        if len(bad):
            i, j, k = bad[0]  # row-major order: the lexicographically first entry
            raise InvalidStructureError(f"antisymmetry fails at c[{i}][{j}][{k}]")
        if not self.exact and not (t == -mirror).all():
            # halves first: no overflow, and each pair's two halves are negatives
            t = np.where(t == -mirror, t, 0.5 * t - 0.5 * mirror)
            object.__setattr__(self, "c", _freeze_tensor(t.tolist()))
            self._hold((t, 1))

    @classmethod
    def from_brackets(cls, dim: int, brackets: Mapping, *, exact: bool = True,
                      check_jacobi: bool = True, name: str = ""):
        """Build from ``{(i, j): coefficient vector of [e_i, e_j]}`` with i < j.

        Unlisted pairs are zero. The remaining entries are materialized by
        antisymmetry, which removes one class of inconsistent input.
        """
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
        """Build from a full rank-3 tensor; the constructor validates
        shape and antisymmetry."""
        if exact is None:
            exact = infer_exact(x for plane in c for row in plane for x in row)
        data = [[[coerce(x, exact) for x in row] for row in plane] for plane in c]
        alg = cls(dim=len(c), c=_freeze_tensor(data), exact=exact, name=name)
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
        _check_lengths(self.dim, u)
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
        stacked = c.transpose(0, 2, 1).reshape(n * n, n)
        return _rank_null(stacked, self.exact, "the stacked adjoints")[1].tolist()

    # -- transforms ---------------------------------------------------------

    def changed_basis(self, p) -> "LieAlgebra":
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
        new = _freeze_tensor(_unscaled(new, sc * sp * sp * si, self.exact))
        return LieAlgebra(dim=self.dim, c=new, exact=self.exact, name=self.name)

    def to_float(self) -> "LieAlgebra":
        if not self.exact:
            return self
        return LieAlgebra(dim=self.dim, c=_freeze_tensor(self._float_entries()), exact=False,
                          name=self.name)

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


def _check_lengths(n: int, *vectors: Sequence):
    for u in vectors:
        if len(u) != n:
            raise DimensionMismatchError(f"vector of length {len(u)} in dimension {n}")


def _bilinear(form: tuple, u: Sequence, v: Sequence, exact: bool) -> list:
    """Contract a rank-3 tensor, given as its form ``(t, st)``, with two vectors:
    sum_ij u_i v_j t[i][j] / st."""
    t, st = form
    _check_lengths(len(t), u, v)
    u, su = _scaled(u, exact)
    v, sv = _scaled(v, exact)
    out = np.einsum("j,jk->k", v, np.einsum("i,ijk->jk", u, t))
    return _unscaled(out, st * su * sv, exact)
