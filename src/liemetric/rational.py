"""Dense exact linear algebra over ``fractions.Fraction``.

This is the exact side of the steps whose math differs between the two
scalar modes: linear solves, inverse, determinant, inertia and null space.
Tensor contractions do not come here; they run as ``np.einsum`` over integer
tensors with one common denominator (see ``scalars``), and Fractions appear
only where a result leaves that representation.

Matrices are lists of lists of Fractions, vectors are lists of Fractions.
Sizes here are tiny (n <= 10), so plain Gaussian elimination with the first
nonzero pivot is both exact and fast enough. ``solve`` takes a matrix right
side, so one elimination serves many systems.
"""

from __future__ import annotations

from fractions import Fraction


class SingularMatrixError(ValueError):
    pass


def mat_copy(a):
    return [list(row) for row in a]


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def solve(a, b):
    """Solve a x = b exactly; b may be a vector or a matrix of columns.

    Raises SingularMatrixError when a is singular.
    """
    n = len(a)
    vector_rhs = not isinstance(b[0], list)
    rhs = [[x] for x in b] if vector_rhs else mat_copy(b)
    m = mat_copy(a)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrixError("matrix is singular")
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        inv_p = 1 / m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] * inv_p
            if f == 0:
                continue
            for c in range(col, n):
                m[r][c] -= f * m[col][c]
            for c in range(len(rhs[0])):
                rhs[r][c] -= f * rhs[col][c]
    sol = [[Fraction(0)] * len(rhs[0]) for _ in range(n)]
    for r in range(n - 1, -1, -1):
        for c in range(len(rhs[0])):
            s = rhs[r][c] - sum((m[r][k] * sol[k][c] for k in range(r + 1, n)), Fraction(0))
            sol[r][c] = s / m[r][r]
    if vector_rhs:
        return [row[0] for row in sol]
    return sol


def inverse(a):
    return solve(a, identity(len(a)))


def det(a):
    n = len(a)
    m = mat_copy(a)
    d = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            d = -d
        d *= m[col][col]
        inv_p = 1 / m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] * inv_p
            if f == 0:
                continue
            for c in range(col, n):
                m[r][c] -= f * m[col][c]
    return d


def rref(a):
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    m = mat_copy(a)
    if not m:
        return m, []
    rows, cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv_p = 1 / m[r][c]
        m[r] = [x * inv_p for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def nullspace(a):
    """Basis of the right null space as a list of vectors (may be empty)."""
    if not a:
        return []
    cols = len(a[0])
    red, pivots = rref(a)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(v)
    return basis


def inertia(a):
    """Sylvester inertia (p, q, z) of a symmetric matrix, by congruence.

    p/q/z count positive/negative/zero pivots of an exact diagonalizing
    congruence; z > 0 exactly when the form is degenerate.
    """
    n = len(a)
    m = mat_copy(a)
    p = q = z = 0
    for k in range(n):
        if m[k][k] == 0:
            j = next((j for j in range(k + 1, n) if m[j][j] != 0), None)
            if j is not None:
                # symmetric swap of rows/cols k and j
                m[k], m[j] = m[j], m[k]
                for row in m:
                    row[k], row[j] = row[j], row[k]
            else:
                j = next((j for j in range(k + 1, n) if m[k][j] != 0), None)
                if j is None:
                    z += 1
                    continue
                # e_k <- e_k + e_j turns the zero diagonal into 2*m[k][j]
                for c in range(n):
                    m[k][c] += m[j][c]
                for r in range(n):
                    m[r][k] += m[r][j]
        d = m[k][k]
        if d > 0:
            p += 1
        else:
            q += 1
        for r in range(k + 1, n):
            f = m[r][k] / d
            if f == 0:
                continue
            for c in range(k, n):
                m[r][c] -= f * m[k][c]
            # keep symmetry for the remaining block
        for c in range(k + 1, n):
            m[k][c] = Fraction(0)
        for r in range(k + 1, n):
            m[r][k] = Fraction(0)
    return p, q, z
