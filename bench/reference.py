"""Reference verdicts coded apart from the program.

Everything here works on plain structure tensors ``c[i][j][k]`` and metric
matrices. Residuals are computed in exact rational arithmetic (numpy object
arrays of ``Fraction``; float entries convert without rounding). It imports
nothing from ``liemetric``, so a verdict the program returns is checked
against arithmetic that does not share its code.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def exact_inverse(a) -> np.ndarray:
    """Gauss-Jordan inverse over the rationals; raises ZeroDivisionError if singular."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return np.array([row[n:] for row in m], dtype=object)


def exact_det(a) -> Fraction:
    m = [[Fraction(x) for x in row] for row in a]
    n, det = len(m), Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return det


def product_tensor(c: np.ndarray, a: np.ndarray) -> np.ndarray:
    """X[i,j,:] with X[i,j,:] (2a) = a([e_i,e_j],.) + a([.,e_i],e_j) + a([.,e_j],e_i)."""
    b = (np.einsum("ijm,mk->ijk", c, a) + np.einsum("kim,mj->ijk", c, a)
         + np.einsum("kjm,mi->ijk", c, a))
    return np.einsum("ijk,kl->ijl", b, exact_inverse(2 * a))


def compat_defect(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """[A_{e_i}e_j, e_k] + [e_i, A_{e_k}e_j] as d[i,j,k,:]."""
    return np.einsum("ijm,mkl->ijkl", x, c) + np.einsum("iml,kjm->ijkl", c, x)


def worst_defect_sq(c_rows, a_rows) -> Fraction:
    """Largest squared norm of a basis-triple defect vector, computed exactly.

    Float entries become Fractions without rounding, so this is the true
    value for the numbers given, with none of the rounding that a float
    solve adds when the metric is ill-conditioned.
    """
    c = np.array([[[Fraction(x) for x in row] for row in plane] for plane in c_rows],
                 dtype=object)
    a = np.array([[Fraction(x) for x in row] for row in a_rows], dtype=object)
    d = compat_defect(c, product_tensor(c, a))
    return max(sum(v * v for v in vec) for vec in d.reshape(-1, d.shape[-1]))


def exactly_compatible(c_rows, a_rows) -> bool:
    return worst_defect_sq(c_rows, a_rows) == 0


def compat_residual(c_rows, a_rows) -> float:
    """The compatibility residual (largest defect norm) of the given numbers."""
    return math.sqrt(worst_defect_sq(c_rows, a_rows))


def ad_traces(c_rows) -> list:
    """tr(ad e_k) = sum_j c[k][j][j], exactly."""
    n = len(c_rows)
    return [sum((Fraction(c_rows[k][j][j]) for j in range(n)), Fraction(0))
            for k in range(n)]


def float_signature(a_rows, rtol: float = 1e-9):
    """(p, q) from eigenvalues, or None when an eigenvalue is near zero."""
    ev = np.linalg.eigvalsh(np.array([[float(x) for x in row] for row in a_rows]))
    scale = max(abs(ev[0]), abs(ev[-1]))
    if scale == 0.0 or np.any(np.abs(ev) <= rtol * scale):
        return None
    return int(np.sum(ev > 0)), int(np.sum(ev < 0))


def bivector(c_rows, mu) -> np.ndarray:
    c = np.array([[[float(x) for x in row] for row in plane] for plane in c_rows])
    return np.einsum("ijk,k->ij", c, np.asarray(mu, dtype=float))


def well_regular(c_rows, mu, generic_rank: int, margin: float = 1e-2) -> bool:
    """Rank of the bivector at mu is the generic rank, with a clear gap to zero."""
    s = np.linalg.svd(bivector(c_rows, mu), compute_uv=False)
    if generic_rank == 0 or s[0] == 0.0:
        return False
    rank = int(np.sum(s > 1e-9 * s[0]))
    return rank == generic_rank and s[rank - 1] >= margin * s[0]
