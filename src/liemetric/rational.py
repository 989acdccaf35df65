"""Dense exact linear algebra over the rationals, for the exact scalar mode.

Matrices are lists of rows of ints or Fractions. ``solve``, ``inverse``,
``det``, ``nullspace`` and the integer entry point ``_solve_int`` share one
kernel, ``_reduce``: fraction-free Gauss-Jordan with the first nonzero pivot
(Bareiss 1968) on the ints-over-one-denominator form ``scalars._scaled`` gives
every einsum. A step sets each other row to ``(pivot * row - f * pivot_row) //
previous_pivot``; by Sylvester's identity every entry is then a minor of the
integer input, so the division is exact and no gcd is taken. In the end every
pivot equals the last, d: RREF is the pivot rows over d, and at full rank d is
the determinant up to the swaps' sign.

``_solve_int`` answers in integers, ``(rows, d)`` with ``a @ rows == d * b``,
so a caller that stays in scaled integers (the Levi-Civita product solve, the
dual frame's inverse metric) divides once, at its own end. The search
certificate's screen reduces rows and d mod a prime: for a of Python ints, d
is |det a|, a unit mod the prime exactly when a is invertible mod it.
``solve`` and ``inverse`` are its Fraction wrappers. ``inertia`` is a
symmetric congruence with its own fraction-free loop.
"""

from fractions import Fraction

from .scalars import _scaled


class SingularMatrixError(ValueError):
    pass


def _reduce(a, b=None):
    """Fraction-free Gauss-Jordan on [a | b] = [A | B] / scale, pivoting in a. Returns
    the reduced int rows, the pivot columns, the last pivot d (1 if none), the sign
    of the row swaps and the scale; row r of RREF([a | b]) is rows[r] / d."""
    width = len(a[0]) if a else 0
    aug = a if b is None else [list(ra) + list(rb) for ra, rb in zip(a, b)]
    m, scale = _scaled(aug, True)
    m = m.tolist()
    pivots, d, sign = [], 1, 1
    for c in range(width):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
            sign = -sign
        row, pivot = m[r], m[r][c]
        for i, other in enumerate(m):
            if i != r:
                f = other[c]
                m[i] = [(pivot * x - f * y) // d for x, y in zip(other, row)]
        pivots.append(c)
        d = pivot
    return m, pivots, d, sign, scale


def _solve_int(a, b):
    """Solve a x = b in integers: (rows, d) with d > 0 and a @ rows == d * b, so
    x = rows / d; SingularMatrixError on a missing pivot. One elimination."""
    n = len(a)
    rows, pivots, d, _, _ = _reduce(a, b)
    if len(pivots) < n:
        raise SingularMatrixError("matrix is singular")
    if d < 0:
        return [[-x for x in row[n:]] for row in rows], -d
    return [row[n:] for row in rows], d


def solve(a, b):
    """Solve a x = b exactly for a matrix b of right sides; SingularMatrixError if a is."""
    rows, d = _solve_int(a, b)
    return [[Fraction(x, d) for x in row] for row in rows]


def inverse(a):
    n = len(a)
    return solve(a, [[int(i == j) for j in range(n)] for i in range(n)])


def det(a):
    n = len(a)
    _, pivots, d, sign, scale = _reduce(a)
    return Fraction(sign * d, scale ** n) if len(pivots) == n else Fraction(0)


def nullspace(a):
    """Basis of the right null space, one vector per free column f of RREF(a):
    1 at f, minus RREF column f at the pivot columns, 0 elsewhere."""
    if not a:
        return []
    rows, pivots, d, _, _ = _reduce(a)
    row_of = {p: r for r, p in enumerate(pivots)}
    cols = range(len(a[0]))
    return [[Fraction(-rows[row_of[c]][f], d) if c in row_of else Fraction(int(c == f))
             for c in cols] for f in cols if f not in row_of]


def inertia(a):
    """Sylvester inertia (p, q, z) of a symmetric matrix, by congruence.

    p/q/z count positive/negative/zero pivots of an exact diagonalizing
    congruence; z > 0 exactly when the form is degenerate. Fraction-free on
    the integer form of a: the remaining block is kept as prev times its
    Schur complement, prev the last pivot taken, so each pivot is a leading
    minor and its Schur value has the sign of m[k][k] * prev. The update
    divides by prev exactly, as in ``_reduce``.
    """
    n = len(a)
    m = _scaled(a, True)[0].tolist()
    p = q = z = 0
    prev = 1
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
        d, top = m[k][k], m[k]
        if (d > 0) == (prev > 0):
            p += 1
        else:
            q += 1
        for r in range(k + 1, n):
            row, f = m[r], m[r][k]
            row[k] = 0
            for c in range(k + 1, n):
                row[c] = (d * row[c] - f * top[c]) // prev
        for c in range(k + 1, n):
            top[c] = 0
        prev = d
    return p, q, z
