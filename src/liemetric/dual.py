"""Linear Poisson geometry on the dual space of a Lie algebra.

Coordinates mu_1 .. mu_n on the dual pair with the basis e_1 .. e_n. The
Poisson bivector is linear in mu:

    pi(de_i, de_j)(mu) = mu([e_i, e_j])

and every other object here (sharp map, form bracket, contravariant
derivative, modular value, leaf data) is derived from that single convention,
with which [du, dv] = d[u, v] and D_du dv = d(A_u v) hold with no extra signs.
Each of them is taken on basis data, where it is constant or linear in mu, so
none needs a form with polynomial coefficients.

Constant one-forms pair through the metric a: <de_i, de_j> = a[i][j]. The
contravariant derivative D solves the six-term Koszul relation

    2<D_ab, g> = #pi(a).<b,g> + #pi(b).<a,g> - #pi(g).<a,b>
                 + <[a,b], g> + <[g,a], b> + <[g,b], a>

against the constant coordinate coframe, which reduces to one constant linear
system per coefficient. On basis data each form bracket [de_x, de_y] is
d[e_x, e_y], the coefficient tensor of pi, and every pairing <de_y, de_z> is
a constant, so the three flow terms vanish and each D_{de_i} de_k is constant,
one exact contraction of the brackets with a and its inverse in scaled
integers. The three basis identities and the modular field are coefficient
tensors too, a few ``np.einsum`` contractions each, whose defects are rows
(c_1 .. c_n | c_0) in mu, checked coefficient by coefficient or evaluated at
points. All of this basis data depends on the (algebra, metric) pair alone,
so it is built once per pair and kept with the metric (``_frame``): every
public call on the pair after the first reads it.
The dual-side verdict is thus built from dual brackets and a Koszul relation
coded here; it never reads the algebra-side product of ``liemetric.metric``
that it is compared against. Points of the dual are plain length-n sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import metric
from .algebra import LieAlgebra, _rank_null
from .metric import Metric
from .scalars import _floats, _scaled, _unscaled, evaluate, frozen, operand_mode, report_float

EIG_POSITIVITY_TOL = 1e-12


class DegenerateRestrictionError(ValueError):
    """The metric restricted to the kernel of the sharp map is degenerate."""


class LeafRankError(ValueError):
    """The bivector rank at the point is too small for the requested data."""


class IrregularPointError(ValueError):
    """The bivector rank at the point is below the algebra's generic rank."""


@dataclass(frozen=True, eq=False)
class BivectorAt:
    """Value of the Poisson bivector at one point; antisymmetric by build."""

    matrix: tuple
    exact: bool

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def as_array(self) -> np.ndarray:
        return np.array([[float(x) for x in row] for row in self.matrix])

    def rank(self) -> int:
        return _rank_null(self.matrix, self.exact, "the bivector")[0]


@dataclass(frozen=True, eq=False)
class LeafFrame:
    """Pointwise splitting of covectors into sharp-kernel and its complement.

    All three bases are rows of coordinate tuples; tangent_basis[s] is the
    image of complement_basis[s] under the sharp map.
    """

    kernel_basis: tuple
    complement_basis: tuple
    tangent_basis: tuple
    rank: int
    exact: bool


@dataclass(frozen=True, eq=False)
class LeafGeometryAt:
    """Leaf symplectic form, induced metric, and almost complex structure.

    Matrices are in the tangent frame of the accompanying LeafFrame. The two
    residuals measure ||J^2 + I|| and ||J^T G J - G|| (largest entry).
    """

    omega: np.ndarray
    g: np.ndarray
    a_op: np.ndarray
    j: np.ndarray
    rank: int
    j_squared_residual: float
    metric_residual: float
    frame: LeafFrame


def bivector_at(alg: LieAlgebra, mu) -> BivectorAt:
    """Antisymmetric matrix pi[i][j] = mu([e_i, e_j])."""
    exact = operand_mode(alg.dim, alg.exact, mu)
    return BivectorAt(matrix=frozen(evaluate(alg, exact, ("ijk,k->ij", mu))), exact=exact)


def sharp_pi(alg: LieAlgebra, mu, alpha) -> list:
    """Vector v with beta(v) = pi(alpha, beta) for every covector beta."""
    exact = operand_mode(alg.dim, alg.exact, mu, alpha)
    return evaluate(alg, exact, ("ijk,k->ij", mu), ("ij,i->j", alpha))


class _DualFrame:
    """Basis data of one (algebra, metric) pair, kept with its metric.

    Holds the pair's scalar mode, the algebra in that mode, and the metric's
    scaled form and half-inverse as (rows, scale), both read from the metric
    in that mode, the frame being where the half-inverse is kept
    (``Metric._half_inverse``: one elimination per frame, which is also the
    nondegeneracy check). It holds no metric, so a metric that keeps its
    frame (``_frame``) is still freed by refcount. It builds no polynomial:
    every basis datum is a coefficient tensor in scaled integers. The Koszul
    stage (``tensors``) is one exact contraction of the brackets, the tensor
    of pi, with a and its inverse; the identity rows contract ``tensors``
    and stay (integer rows, scale) until ``sweep`` reads them; ``trace`` is
    the Koszul trace, which ``modular`` reads as Fractions. Each is built on
    first use and never written after, so every public call on the pair
    pays only for what no earlier call read.
    """

    def __init__(self, alg: LieAlgebra, a: Metric):
        self.exact = operand_mode(alg.dim, alg.exact, a)
        if not self.exact:
            alg, a = alg.to_float(), a.to_float()
        self.alg, self.n = alg, alg.dim
        self.scaled_a = a.scaled(self.exact)
        self.half = a._half_inverse()

    @cached_property
    def tensors(self) -> tuple:
        """(P, D, s) with pi_ij(mu) = sum_t P[i, j, t] mu_t / s and D[i, k] / s
        the coefficients of the constant form D_{de_i} de_k, on one scale s.

        Every basis pairing <de_y, de_z> = a[y][z] is constant, so the three
        flow terms of the Koszul relation vanish. As pi is antisymmetric,
        [de_x, de_y] = d pi_xy - d pi_yx - d pi_xy = d pi_xy has coefficients
        c[x, y]; with B = c a, B[x, y, z] = <[de_x, de_y], de_z>, the relation
        against de_l reads 2 sum_j a[j][l] D[i, k, j] =
        B[l, i, k] + B[l, k, i] + B[i, k, l].
        """
        c, sc = self.alg.scaled(self.exact)
        am, sa = self.scaled_a
        half, sh = self.half
        b = np.einsum("xyt,tz->xyz", c, am)
        rhs = np.einsum("lik->ikl", b) + np.einsum("lki->ikl", b) + b
        return c * (sh * sa), np.einsum("jl,ikl->ikj", half, rhs), sc * sh * sa

    def _rows(self, linear, constant, scale) -> tuple:
        """Defects (sum_t linear[..., t] mu_t + constant[...]) / scale as (rows, scale)."""
        return np.concatenate([linear, constant[..., None]], -1).reshape(-1, self.n + 1), scale

    @cached_property
    def dpi(self) -> tuple:
        """pi(D_{de_i} de_k, de_j) + pi(de_i, D_{de_j} de_k) per (i, j, k); linear in mu.
        With T[i, k, j] = sum_a D[i, k, a] P[a, j] the first, the second is
        -T[j, k, i] as P is antisymmetric, a negation exact in both modes."""
        p, d, s = self.tensors
        t = np.einsum("ika,ajt->ikjt", d, p)
        lin = np.einsum("ikjt->ijkt", t) - np.einsum("jkit->ijkt", t)
        return self._rows(lin, np.zeros_like(lin[..., 0]), s * s)

    @cached_property
    def cyclic(self) -> tuple:
        """Cyclic sums over every triple (i, j, k) of Dpi(i, j, k) = sharp(de_i).pi_jk
        - pi(D_{de_i} de_j, de_k) - pi(de_j, D_{de_i} de_k); sharp(de_i)_m = pi_im.
        With T as in ``dpi``, the two D.P terms are T[i, j, k] and -T[i, k, j]."""
        p, d, s = self.tensors
        t = np.einsum("ika,ajt->ikjt", d, p)
        dpi = np.einsum("imt,jkm->ijkt", p, p) - t + np.einsum("ikjt->ijkt", t)
        lin = dpi + np.einsum("jkit->ijkt", dpi) + np.einsum("kijt->ijkt", dpi)
        return self._rows(lin, np.zeros_like(lin[..., 0]), s * s)

    @cached_property
    def transport(self) -> tuple:
        """Left minus right side of the fiber-metric transport law per (k, i, j).

        Along X_k = sharp(de_k), L de_i = sum_l P[k, i, l] de_l and a is constant,
        so left = -<L de_i, de_j> - <de_i, L de_j> and right =
        <D_{de_i} de_k, de_j> + <de_i, D_{de_j} de_k> are both constant in mu.
        """
        p, d, s = self.tensors
        am, sa = self.scaled_a
        left = -(np.einsum("kil,lj->kij", p, am) + np.einsum("il,kjl->kij", am, p))
        right = np.einsum("ikl,lj->kij", d, am) + np.einsum("il,jkl->kij", am, d)
        const = left - right
        return self._rows(np.zeros(const.shape + (self.n,), dtype=const.dtype), const,
                          s * sa)

    def worst(self, identity: str):
        """Largest coefficient magnitude of an identity's rows, exact in exact
        mode, where a nonzero maximum may be 0.0 as a float."""
        rows, scale = getattr(self, identity)
        return _unscaled(np.max(np.abs(rows)), scale, self.exact)

    def sweep(self, identity: str, points=None):
        """``worst`` as a float (points=None), or the largest |defect| at each
        of a nonempty list of points, read by ``scalars._floats``, from rows @ [mu, 1].
        Rows meet their scale only here and in ``worst``: for points int /
        int, rounded as float() of a Fraction, when scale < 2**1074 (no
        nonzero coefficient reads 0.0) and no quotient overflows; otherwise
        exactly at the points (``_exact_at``). A nonzero exact maximum below
        the smallest double reads ``math.ulp(0.0)``, never 0.0
        (``report_float``). A NaN coefficient or value gives NaN, never a
        smaller number."""
        if points is None:
            return report_float(self.worst(identity))
        rows, scale = getattr(self, identity)
        points = [list(pt) for pt in points]
        if not points:
            raise ValueError("no points to evaluate the identity at")
        operand_mode(self.n, False, *points)
        mu = _floats([[*pt, 1] for pt in points])
        if scale.bit_length() <= 1074:
            try:
                return np.max(np.abs((rows / scale).astype(float) @ mu.T), axis=0)
            except OverflowError:  # an int / int quotient past the float range
                pass
        return np.array([_exact_at(rows, scale, pt) for pt in mu.tolist()])

    @cached_property
    def trace(self) -> tuple:
        """The Koszul trace sum_p D[p, k, p] per k as (vector, scale)."""
        _, d, s = self.tensors
        return np.einsum("pkp->k", d), s

    @property
    def modular(self) -> tuple:
        """Modular value on each e_k: the Koszul trace sum_p (D_{de_p} de_k)_p, to
        which sum_pq ainv[p][q] <D_{de_p} de_k, de_q> reduces as ainv inverts a."""
        return tuple(_unscaled(*self.trace, self.exact))


def _exact_at(rows, scale: int, pt: list) -> float:
    """The largest |defect| of exact rows at one point, as ``report_float``
    shows it, each float coordinate read as the Fraction of its bits; NaN at
    a point with a non-finite coordinate."""
    if not all(map(math.isfinite, pt)):
        return math.nan
    mu = np.array([Fraction(x) for x in pt], dtype=object)
    return report_float(np.max(np.abs(rows.dot(mu))) / scale)


def _frame(alg: LieAlgebra, a: Metric) -> _DualFrame:
    """The frame of (alg, a), kept with the metric.

    The metric keeps at most one frame, in its ``__dict__`` like its integer
    form, out of its fields (``IntegerForm``). A kept frame answers
    only for the very algebra object it was built on; any other, equal or
    not, builds a new frame that takes the slot. A frame whose construction
    raises (degenerate metric, dimension mismatch) is never kept, so the
    metric raises again on every call.
    """
    kept = a.__dict__.get("_dual_frame")
    if kept is None or kept[0] is not alg:
        kept = alg, _DualFrame(alg, a)
        object.__setattr__(a, "_dual_frame", kept)
    return kept[1]


def _residual(alg: LieAlgebra, a: Metric, identity: str, points) -> float:
    return float(np.max(_frame(alg, a).sweep(identity, points)))


def dpi_residual(alg: LieAlgebra, a: Metric, points=None) -> float:
    """Worst violation of pi(D_a df, b) + pi(a, D_b df) = 0 on basis data.

    With alpha = de_i, beta = de_j, f the linear function of e_k, the defect
    is linear in mu. With points=None the max coefficient magnitude is
    returned, which vanishes iff the defect vanishes at every point;
    otherwise the defect is evaluated at the given points. With points=None
    an exact maximum that is nonzero but below the smallest double reads
    ``math.ulp(0.0)``, so 0.0 there always means an exact zero.
    """
    return _residual(alg, a, "dpi", points)


def cyclic_schouten_residual(alg: LieAlgebra, a: Metric, points=None) -> float:
    """Cyclic sum of the derivative of pi; zero for every metric.

    Dpi(a, b, g) = sharp(a).pi(b, g) - pi(D_a b, g) - pi(b, D_a g), summed
    cyclically over basis coframe triples. The bivector satisfies the Jacobi
    identity, so the sum must vanish no matter the metric. With
    points=None a nonzero exact maximum below the smallest double reads
    ``math.ulp(0.0)``, never 0.0, as in ``dpi_residual``.
    """
    return _residual(alg, a, "cyclic", points)


def metric_derivation_residual(alg: LieAlgebra, a: Metric, points=None) -> float:
    """Discrepancy between the two sides of the fiber-metric transport law.

    Left side: Lie derivative of the fiber metric along the hamiltonian field
    of a linear function, expanded directly. Right side: <D_a df, b> +
    <a, D_b df> through the Koszul solve. Equal for every metric. With
    points=None a nonzero exact maximum below the smallest double reads
    ``math.ulp(0.0)``, never 0.0, as in ``dpi_residual``.
    """
    return _residual(alg, a, "transport", points)


def modular_field_value(alg: LieAlgebra, a: Metric, f, mu=None) -> float:
    """Value of the modular field on the linear function f = sum f[k] e_k.

    Equals the orthonormal-coframe sum of <D_coframe df, coframe> rewritten
    through the inverse metric, which also covers indefinite metrics, and that
    reduces to the Koszul trace. It does not depend on the point (Weinstein
    1997), so mu is only checked for its length. Unless f and the pair are
    all exact, f pairs in floats with the exact trace rounded once.
    """
    fr = _frame(alg, a)
    exact = operand_mode(fr.n, fr.exact, f)
    if mu is not None:
        operand_mode(fr.n, False, mu)
    m, sm = fr.trace
    if not exact:
        m, sm = np.array([report_float(t) for t in fr.modular]), 1
    w, sw = _scaled(f, exact)
    return report_float(_unscaled(np.einsum("k,k->", w, m), sw * sm, exact))


def leaf_frame_at(alg: LieAlgebra, a: Metric, mu) -> LeafFrame:
    """Split covectors at mu into the sharp kernel and its metric complement.

    Exact when the algebra, the metric and mu are all exact; the rank is then
    exact, otherwise it is the float rank of ``algebra._rank_null``. Requires
    the metric restricted to the kernel to be nondegenerate, by the metric's
    own rule (``metric._inertia``); the error reports the kernel Gram
    determinant when it is not. The tangent basis collects the
    sharp images of the complement basis. Whether mu is regular is decided by
    ``kahler_check_at`` from the algebra's generic rank (n - ind(g)), with the
    Schwartz-Zippel error bound stated there.
    """
    exact = operand_mode(alg.dim, alg.exact, a, mu)
    p = bivector_at(alg, mu)
    rank, kernel = _rank_null(p.matrix, exact, "the bivector at the point")
    pm, sp = _scaled(p.matrix, exact)
    am = a.scaled(exact)[0]
    k, sk = _scaled(kernel, exact)
    complement = np.eye(alg.dim, dtype=int).tolist()
    if len(kernel):
        ka = np.einsum("ui,ij->uj", k, am)  # the pairing, scaled: the same null space
        gram = np.einsum("uj,vj->uv", ka, k)  # times a positive scale
        if metric._inertia(gram, exact)[2]:  # an exact degenerate form has det 0
            gdet = 0 if exact else f"{float(np.linalg.det(gram)):.3e}"
            raise DegenerateRestrictionError(
                f"metric degenerates on the sharp kernel (Gram determinant {gdet})")
        complement = _rank_null(ka, exact, "the kernel pairing")[1]
    c, sc = _scaled(complement, exact)
    tangents = np.einsum("si,ij->sj", c, pm)
    return LeafFrame(kernel_basis=frozen(_unscaled(k, sk, exact)),
                     complement_basis=frozen(_unscaled(c, sc, exact)),
                     tangent_basis=frozen(_unscaled(tangents, sc * sp, exact)),
                     rank=rank, exact=exact)


def _witness_point(n: int) -> list:
    """An integer point, coordinates uniform in [-2**31, 2**31), from a fixed seed."""
    return np.random.default_rng(0).integers(-2**31, 2**31, size=n).tolist()


def kahler_check_at(alg: LieAlgebra, a: Metric, mu) -> LeafGeometryAt:
    """Leaf symplectic form, induced metric, and complex structure at a point.

    Needs a positive definite metric and a regular point of rank r >= 2, r
    being the rank of ``leaf_frame_at`` in the point's own mode. The rank of
    a linear Poisson structure is even and takes its generic value n - ind(g)
    (Dixmier's index) on a Zariski-open dense set, so mu is regular iff r is
    that generic rank. The parity bound r = n - n % 2 is regular at once
    (every rank-2 point in dimension 3). Below it, the rank at one integer
    witness point, taken in the algebra's mode, proves mu irregular if it is
    higher. A higher generic rank makes some principal Pfaffian of order
    r + 2, of degree at most n / 2, a nonzero polynomial, so by Schwartz-Zippel
    (Schwartz 1980) a witness uniform in [-2**31, 2**31)^n misses it with
    probability at most n / 2**33, below 4e-9 for n <= 32. The seed is fixed,
    so the verdict is deterministic, and a miss can only call an irregular
    point regular (for float data, up to the float rank rule).

    J is the orthogonal polar factor of A = -G^(-1) Omega in the leaf
    metric's inner product: with G = L L^T (Cholesky), A is the skew map
    B = -L^(-1) Omega L^(-T) in a G-orthonormal frame, and J = L^(-T) U V^T L^T
    for the SVD B = U S V^T, which is A(-A^2)^(-1/2). The point is refused as
    degenerate when the smallest squared singular value of B, an eigenvalue of
    -A^2, is at most EIG_POSITIVITY_TOL times the largest.
    """
    if not a.is_positive_definite():
        raise ValueError("leaf geometry needs a positive definite metric")
    frame = leaf_frame_at(alg, a, mu)
    rank, n = frame.rank, alg.dim
    if rank < 2:
        raise LeafRankError(f"bivector rank {rank} at the point; need at least 2")
    if rank < n - n % 2:
        witness = bivector_at(alg, _witness_point(n)).rank()
        if witness > rank:
            raise IrregularPointError(
                f"bivector rank {rank} at the point, {witness} at an integer witness point")
    c = np.array(frame.complement_basis, dtype=float)
    omega = np.array(frame.tangent_basis, dtype=float) @ c.T
    omega = (omega - omega.T) / 2.0
    g = c @ a.as_array() @ c.T
    g = (g + g.T) / 2.0
    a_op = -np.linalg.solve(g, omega)
    ell = np.linalg.cholesky(g)
    u, s, vt = np.linalg.svd(-np.linalg.solve(ell, np.linalg.solve(ell, omega).T).T)
    if s[0] <= 0.0 or s[-1] ** 2 <= EIG_POSITIVITY_TOL * s[0] ** 2:
        raise LeafRankError("leaf pairing is numerically degenerate")
    j = np.linalg.solve(ell.T, u @ vt @ ell.T)
    j_sq = float(np.max(np.abs(j @ j + np.eye(rank))))
    met = float(np.max(np.abs(j.T @ g @ j - g)))
    return LeafGeometryAt(omega=omega, g=g, a_op=a_op, j=j, rank=rank,
                          j_squared_residual=j_sq, metric_residual=met,
                          frame=frame)
