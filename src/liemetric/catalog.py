"""Named small Lie algebras and a few exactly-compatible metric pairings.

All constructors return exact-mode algebras. Brackets are given on an ordered
basis e_1 .. e_n; only pairs i < j with a nonzero bracket are listed.
"""

from __future__ import annotations

from dataclasses import replace

from .algebra import LieAlgebra
from .metric import Metric
from .scalars import coerce, is_exact


def abelian(n: int) -> LieAlgebra:
    """All brackets zero."""
    return LieAlgebra.from_brackets(n, {}, name=f"abelian{n}")


def affine_line() -> LieAlgebra:
    """Two dimensions, [e1, e2] = e2; the unique nonabelian case in dim 2."""
    return LieAlgebra.from_brackets(2, {(0, 1): [0, 1]}, name="affine_line")


def heisenberg() -> LieAlgebra:
    """[e1, e2] = e3, center spanned by e3."""
    return LieAlgebra.from_brackets(3, {(0, 1): [0, 0, 1]}, name="heisenberg")


def solvable_family(alpha, beta, gamma) -> LieAlgebra:
    """Three-dimensional solvable family with derived algebra in span(e2, e3).

    [e1, e2] = alpha e2 + beta e3, [e1, e3] = gamma e2 - alpha e3,
    [e2, e3] = 0. The algebra is exact when every parameter is
    (``scalars.is_exact``), and float otherwise.
    """
    exact = all(map(is_exact, (alpha, beta, gamma)))
    if exact:
        alpha, beta, gamma = (coerce(x, True) for x in (alpha, beta, gamma))
    brackets = {
        (0, 1): [0, alpha, beta],
        (0, 2): [0, gamma, -alpha],
    }
    return LieAlgebra.from_brackets(3, brackets, exact=exact,
                                    name=f"family({alpha},{beta},{gamma})")


def euclidean_motions() -> LieAlgebra:
    """Rotation plus translations of the plane: family(0, -1, 1)."""
    return replace(solvable_family(0, -1, 1), name="euclidean_motions")


def sol() -> LieAlgebra:
    """Diagonal hyperbolic action: [e1,e2] = e2, [e1,e3] = -e3."""
    return replace(solvable_family(1, 0, 0), name="sol")


def heisenberg_split_metric() -> Metric:
    """Anti-diagonal form making the Heisenberg algebra compatible.

    a(e1,e3) = a(e2,e2) = 1 and 0 elsewhere; signature (2, 1).
    """
    return Metric.from_rows([[0, 0, 1], [0, 1, 0], [1, 0, 0]], exact=True)


def sol_split_metric() -> Metric:
    """Pairing the two eigendirections of sol: a(e1,e1) = a(e2,e3) = 1."""
    return Metric.from_rows([[1, 0, 0], [0, 0, 1], [0, 1, 0]], exact=True)


NAMED_ALGEBRAS = {
    "abelian2": lambda: abelian(2),
    "abelian3": lambda: abelian(3),
    "affine_line": affine_line,
    "heisenberg": heisenberg,
    "euclidean_motions": euclidean_motions,
    "sol": sol,
}


def by_name(name: str) -> LieAlgebra:
    try:
        return NAMED_ALGEBRAS[name]()
    except KeyError:
        raise KeyError(f"unknown algebra name {name!r}; "
                       f"known: {', '.join(sorted(NAMED_ALGEBRAS))}") from None
