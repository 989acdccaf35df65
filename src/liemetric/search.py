"""Feasibility search for a metric that makes a Lie algebra compatible.

The objective stacks the n^4 components of the basis-triple defect
[A_{e_i}e_j, e_k] + [e_i, A_{e_k}e_j] into one residual vector, in every
mode. A damped Gauss-Newton loop drives it down from many random starts,
with analytic directional derivatives through the product's defining
linear system: 2a is inverted once per point, and the product and all its
perturbations are right sides times that inverse. The loop takes a
Jacobian only where a step was accepted. The starts advance in lockstep
batches, each taking the steps it would take alone. A restart whose
accepted step leaves the search domain (``_off_domain``) ends there, and
no end point off the domain is a candidate: that is the one guard against
degenerate metrics, and it depends on neither the scale of the metric nor
the dimension. As a -> -a keeps the product and the defect, an end point
counts when its signature or its negation's is the target: a signature
with a zero count is searched through a Cholesky factor, any other over
all symmetric metrics. A found metric is reported only after an
independent recheck: an exact certificate through the public exact product
when the entries rationalize, screened first mod a prime on ``rational``'s
elimination kernel, and a ten times tighter float tolerance otherwise. Not
finding one is a value, whose restart log carries the evidence; the
classification sweep built on this search lives in ``classify``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from numbers import Integral, Real
from typing import NamedTuple

import numpy as np

from .algebra import LieAlgebra
from .metric import (DegenerateMetricError, Metric, _defect_array, _product_rhs,
                     compatibility_residual)
from .rational import SingularMatrixError, _solve_int
from .scalars import INT64_MAX, rationalize

_PENALTY = 1e8

# the exact certificate's screen works mod this prime, the largest below
# 2**25: a residue right side sums at most 3 n (P - 1)**2, within int64 up
# to n = 2730
_SCREEN_PRIME = 33554393

# the search domain: m(a) = |det a|^(1/n) / (|a|_F / sqrt(n)), 1 at the identity
# at every n, is at least sqrt(3) DEGENERACY_FLOOR^(1/3); at n = 3 that is
# |det(a / |a|_F)| >= DEGENERACY_FLOOR
DEGENERACY_FLOOR = 1e-8

# the largest dimension searched: a restart's Jacobian holds n^4 n(n+1)/2
# doubles, so memory grows about as n^6; a one-restart search of abelian(16)
# that takes no step peaks at 146 MiB (tracemalloc), at n = 20 about 0.5 GiB
MAX_SEARCH_DIM = 16


def _is_count(value, low: int) -> bool:
    """Whether value is an integer (an Integral other than bool) of at least low."""
    return isinstance(value, Integral) and not isinstance(value, bool) and value >= low


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for find_compatible_metric, which searches algebras of dimension
    at most MAX_SEARCH_DIM."""

    signature_constraint: object = "none"
    restarts: int = 64
    max_iters: int = 500
    residual_tol: float = 1e-10
    rng_seed: int = 0

    def __post_init__(self):
        sc = self.signature_constraint
        if isinstance(sc, (tuple, list)):
            if len(sc) != 2 or not all(_is_count(x, 0) for x in sc):
                raise ValueError("fixed signature must be a pair of counts")
            object.__setattr__(self, "signature_constraint", tuple(int(x) for x in sc))
        elif sc not in ("none", "positive_definite"):
            raise ValueError(f"unknown signature constraint {sc!r}")
        for name, low in (("restarts", 1), ("max_iters", 0), ("rng_seed", 0)):
            value = getattr(self, name)
            if not _is_count(value, low):
                raise ValueError(f"{name} must be an integer of at least {low}")
            object.__setattr__(self, name, int(value))
        tol = self.residual_tol
        if (not isinstance(tol, Real) or isinstance(tol, bool)
                or not (math.isfinite(tol) and tol > 0)):
            raise ValueError("residual_tol must be positive and finite")


# why a restart ended; any end point off the search domain reads left_domain
STOP_REASONS = ("converged", "stationary", "stalled", "left_domain", "damping_blowup",
                "max_iters")


class RestartRecord(NamedTuple):
    index: int
    residual: float
    iterations: int
    admissible: bool
    stop_reason: str
    final_lambda: float


@dataclass(frozen=True, eq=False)
class SearchResult:
    status: str
    best_metric: Metric | None
    best_residual: float
    exact_certificate: bool
    log: tuple
    config: SearchConfig

    @property
    def found(self) -> bool:
        return self.status == "found"

    def stop_reasons(self) -> dict:
        """How many restarts ended at each exit of the optimizer."""
        return dict(sorted(Counter(rec.stop_reason for rec in self.log).items()))


def param_count(n: int) -> int:
    return n * (n + 1) // 2


# cap on the bytes of one lockstep batch's (restarts, m, n^4) float Jacobian
# stack; the residual and Jacobian stage of a full batch peaks at 2.0 to 2.8
# times this (0.99 to 1.41 MiB measured with tracemalloc at n = 6..3), the
# defect matmul's (rows, n^2) product being the size of the stack
_BATCH_BYTES = 512 * 1024


def _batch_size(n: int) -> int:
    """Restarts per lockstep batch: as many as keep the float Jacobian stack
    of the batch within _BATCH_BYTES, and at least one."""
    return max(1, _BATCH_BYTES // (8 * param_count(n) * n ** 4))


class _Problem(NamedTuple):
    """The fixed data of one search, with everything that does not depend
    on the parameters computed once: the index arrays of the
    parameterisation and, in the unconstrained modes, the constant direction
    stack and its right sides."""

    c: np.ndarray
    n: int
    mode: str
    floor: float            # the domain's floor on |det(a / |a|_F)|
    diag: np.ndarray        # the diagonal, 0..n-1
    lower: tuple            # strictly lower (rows, cols) in row order
    vech: tuple             # lower with the diagonal (rows, cols) in row order
    units: np.ndarray       # unconstrained da/dtheta, (m, n, n); None with pd
    units_rhs: np.ndarray   # _product_rhs(c, units); None with pd


def _problem(c: np.ndarray, mode: str) -> _Problem:
    """The problem of the structure constants c. Its floor is the domain
    rule at this n: |det(a / |a|_F)| >= (3/n)^(n/2) DEGENERACY_FLOOR^(n/3)."""
    n = c.shape[0]
    if n > MAX_SEARCH_DIM:
        raise ValueError(f"dimension {n} is above the search's cap of {MAX_SEARCH_DIM}")
    floor = (3 / n) ** (n / 2) * DEGENERACY_FLOOR ** (n / 3)
    m = param_count(n)
    # boolean masks index in row order, as np.tril_indices, at a third of its cost
    lower, vech = np.nonzero(np.tri(n, k=-1, dtype=bool)), np.nonzero(np.tri(n, dtype=bool))
    units = units_rhs = None
    if mode != "positive_definite":
        units = np.zeros((m, n, n))
        t = np.arange(m)
        units[t, vech[0], vech[1]] = units[t, vech[1], vech[0]] = 1.0
        units_rhs = _product_rhs(c, units)
    return _Problem(c, n, mode, floor, np.arange(n), lower, vech, units, units_rhs)


def _factor(theta: np.ndarray, prob: _Problem) -> np.ndarray:
    """Lower-triangular c with a = c c^T for each row of theta: exp(theta) on
    the diagonal, then the strictly lower entries in row order."""
    n = prob.n
    c = np.zeros((len(theta), n, n))
    c[:, prob.diag, prob.diag] = np.exp(theta[:, :n])
    c[:, prob.lower[0], prob.lower[1]] = theta[:, n:]
    return c


def _decode(theta: np.ndarray, prob: _Problem):
    """The (R, n, n) stack of metric matrices of an (R, m) parameter stack,
    and the stack of their factors (None unless positive_definite)."""
    if prob.mode == "positive_definite":
        f = _factor(theta, prob)
        return f @ f.transpose(0, 2, 1), f
    a = np.zeros((len(theta), prob.n, prob.n))
    i, j = prob.vech
    a[:, i, j] = a[:, j, i] = theta
    return a, None


def _factor_directions(c: np.ndarray, prob: _Problem) -> np.ndarray:
    """da/dtheta_t of a = c c^T for every factor of a stack and every
    parameter t, as one (R, m, n, n) array; unconstrained, the directions are
    the constant ``_Problem.units``.

    da_t = dc_t c^T + (dc_t c^T)^T, where dc_t is the unit matrix of
    parameter t scaled by the chain rule (c_kk on the exp diagonal); one
    batched matmul multiplies the whole stack by c^T. Each entry of dc_t c^T
    is a single product, so nothing is rounded in a sum and the batched
    product equals n^2 scalar products bit for bit.
    """
    n, d, (i, j) = prob.n, prob.diag, prob.lower
    m = param_count(n)
    units = np.zeros((len(c), m, n, n))
    units[:, d, d, d] = c[:, d, d]
    units[:, np.arange(n, m), i, j] = 1.0
    half = units @ c.transpose(0, 2, 1)[:, None]
    return half + half.transpose(0, 1, 3, 2)


def _solve_slices(solve, shape: tuple, *stacks):
    """solve(*stacks), whose answer has the given shape, and the mask of
    singular slices, None when no slice is singular. A singular slice makes
    the stacked solve raise for the whole stack; only then is each slice
    solved alone, a singular one left zero."""
    try:
        return solve(*stacks), None
    except np.linalg.LinAlgError:
        out, singular = np.zeros(shape), np.zeros(shape[0], dtype=bool)
        for k in range(shape[0]):
            try:
                out[k] = solve(*(s[k:k + 1] for s in stacks))[0]
            except np.linalg.LinAlgError:
                singular[k] = True
        return out, singular


def _residuals(prob: _Problem, theta: np.ndarray):
    """The residual stage: residual vectors of an (R, m) stack of parameter
    points, keeping what the Jacobian stage needs.

    Returns r (R, n^4), the defect components of each point, jac and the
    mask of points off the search domain (``_off_domain``). jac is a
    ``_Jacobians``: indexing it with slices runs the Jacobian stage
    (``_jacobian``) on those slices only. Each point's 2a is inverted once,
    and its product tensor is its right sides times that inverse. A point
    whose 2a is singular has the penalty as its first component and zeros
    after it.
    """
    nr = len(theta)
    n, c = prob.n, prob.c
    a, f = _decode(theta, prob)
    off = _off_domain(prob, a)
    inv, singular = _solve_slices(np.linalg.inv, (nr, n, n), 2.0 * a)
    solved = np.ones(nr, dtype=bool) if singular is None else ~singular
    x = (_product_rhs(c, a).reshape(nr, -1, n) @ inv).reshape(nr, n, n, n)
    r = _defect_array(c, x).reshape(nr, -1)
    r[~solved, 0] = _PENALTY  # an unsolved point's inverse, product and defect are zero
    return r, _Jacobians(prob, inv, f, x, solved), off


class _Jacobians:
    """The Jacobians of the points of one residual stage, computed only for
    the slices read: ``jac[ks]`` runs ``_jacobian`` on the slices ks, from
    the inverses of 2a, factors and product tensors the residual stage
    kept."""

    def __init__(self, prob: _Problem, *state):
        self.prob, self.state = prob, state

    def __getitem__(self, ks):
        return _jacobian(self.prob, *(None if s is None else s[ks] for s in self.state))


def _jacobian(prob: _Problem, inv, f, x, solved) -> np.ndarray:
    """The Jacobian stage: the (R, n^4, m) Jacobians of points that the
    residual stage has solved for, given by the inverses inv of their 2a,
    their factors f (None unless positive_definite), product tensors x and
    the mask of solved points; a penalty point's Jacobian is zero.

    The defect is differentiated through the defining system: perturbing a
    by da perturbs the product tensor X by the solution of the same system
    with right side dB - 2 X da, which is that right side times the kept
    inverse. All points and all m parameter directions go at once: one
    broadcast matmul forms X da for every direction of every point, one
    stacked matmul by the inverses takes every perturbed right side, and one
    defect contraction maps the stack to the Jacobian columns. Each Jacobian
    is C-ordered, since the Gauss-Newton matrix jac^T jac rounds differently
    on a transposed layout.
    """
    n, c = prob.n, prob.c
    shape = (len(inv), n ** 4, param_count(n))
    ks = slice(None) if solved.all() else np.flatnonzero(solved)
    solved_inv, solved_x = inv[ks], x[ks]
    nr = len(solved_inv)
    if not nr:
        return np.zeros(shape)
    if f is not None:
        dirs = _factor_directions(f[ks], prob)
        dirs_rhs = _product_rhs(c, dirs)
    else:
        dirs, dirs_rhs = prob.units, prob.units_rhs
    rhs = dirs_rhs - 2.0 * (solved_x.reshape(nr, 1, n * n, n) @ dirs).reshape(nr, -1, n, n, n)
    dx = rhs.reshape(nr, -1, n) @ solved_inv
    del rhs, dirs_rhs  # only dx lives through the contraction below
    columns = _defect_array(c, dx.reshape(nr, -1, n, n, n))
    jac = np.zeros(shape)  # after the contraction, whose temporaries are the peak
    jac[ks] = columns.reshape(nr, shape[2], -1).transpose(0, 2, 1)
    return jac


def _residual_jacobian(prob: _Problem, theta: np.ndarray):
    """Residual vectors and Jacobians of an (R, m) stack of parameter points:
    the residual stage, then the Jacobian stage on every slice. Returns r
    (R, n^4), jac (R, n^4, m) and the domain mask, as ``_residuals``."""
    r, jac, off = _residuals(prob, theta)
    return r, jac[:], off


def _squares(r: np.ndarray) -> np.ndarray:
    """r . r for each slice of an (R, L) stack."""
    return (r[:, None, :] @ r[:, :, None])[:, 0, 0]


def _normal_equations(r: np.ndarray, jac: np.ndarray):
    """jac^T r and jac^T jac for each slice of a stack."""
    jt = jac.transpose(0, 2, 1)
    return (jt @ r[:, :, None])[:, :, 0], jt @ jac


def compat_objective(alg: LieAlgebra, theta, mode: str = "unconstrained"):
    """Sum of squared defect components and its analytic gradient at the
    parameter vector theta of the search in the given mode, "unconstrained"
    (theta the lower triangle of the metric) or "positive_definite" (theta
    the log diagonal, then the strictly lower entries, of a Cholesky
    factor); ValueError on any other mode."""
    if mode not in ("unconstrained", "positive_definite"):
        raise ValueError(f"unknown search mode {mode!r}")
    prob = _problem(alg.to_float().structure_array(), mode)
    theta = np.asarray(theta, dtype=float)
    r, jac, _ = _residual_jacobian(prob, theta[None])
    r, jac = r[0], jac[0]
    return float(r @ r), 2.0 * (jac.T @ r)


class _Stack:
    """The restarts of one lockstep batch still in the stack, one slice
    each in restart order: restart index, cost, damping and iteration count
    as Python lists, so the per-restart decisions run in plain float
    arithmetic, and parameters, n^4-component residuals and Jacobians as
    stacked arrays."""

    LISTS = ("index", "cost", "lam", "iters")
    ARRAYS = ("theta", "r", "jac")

    def __init__(self, index, theta, r, jac):
        self.index = list(index)
        self.cost = _squares(r).tolist()
        self.lam = [1e-3] * len(theta)
        self.iters = [0] * len(theta)
        self.theta, self.r, self.jac = theta, r, jac[:]

    def keep(self, ks: list):
        for name in self.LISTS:
            setattr(self, name, [getattr(self, name)[k] for k in ks])
        for name in self.ARRAYS:
            setattr(self, name, getattr(self, name)[ks])

    def extend(self, other: "_Stack"):
        """Append the restarts of another stack, numbered after these."""
        for name in self.LISTS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for name in self.ARRAYS:
            setattr(self, name, np.concatenate([getattr(self, name), getattr(other, name)]))

    def put(self, ks: list, *arrays):
        """Move the slices ks to the point of the same slices of the given
        (theta, r, jac) stack; jac is read at ks only."""
        if not ks:
            return
        if len(ks) == len(self.index):
            self.theta, self.r, self.jac = (value[:] for value in arrays)
            return
        for name, value in zip(self.ARRAYS, arrays):
            getattr(self, name)[ks] = value[ks]


def _minimize(fun, theta0: np.ndarray, max_iters: int, cost_tol: float, on_exit=None,
              join=None):
    """Damped Gauss-Newton, run in lockstep on a stack of restarts.

    theta0 is (R, m), one starting point per restart. fun maps a (k, m)
    stack to residuals, all of one length, Jacobians and the mask of points
    off the search domain, as ``_residuals`` does; the Jacobians are read
    only by indexing them with the slices whose step was accepted, so a
    ``_Jacobians`` computes none at a rejected trial point. A step is
    rejected when it does not lower the cost or when its damped system is
    singular; either way the restart stays put and its damping grows, and
    past 1e12 the restart ends. An accepted step onto a point off the
    domain ends the restart there, for the caller to judge. Every
    restart keeps its own damping, iteration count and exit (one of
    STOP_REASONS) and takes the same steps as it would alone. A restart
    leaves the stack as soon as it exits, and the optional ``on_exit(k,
    theta, cost, iters, reason, lam)`` is called for it; a true return drops
    every restart of higher index still in the stack or still to join.

    The optional ``join()`` returns the starting points of further
    restarts, numbered on from theta0's. It is called once: after the first
    iteration in which some restart's trial step is rejected, or when every
    restart has exited, whichever comes first. Returns, for each restart,
    its final (theta, cost, iters, reason, lam), or None when it was
    dropped.
    """
    def start(theta, first):
        theta = np.array(theta, dtype=float)
        return _Stack(range(first, first + len(theta)), theta, *fun(theta)[:2])

    st = start(theta0, 0)
    out = [None] * len(st.index)

    def retire(exits: dict, *extra):
        """Take the slices of ``exits`` (slice -> reason) out of the stack,
        and the same slices out of each extra array."""
        nonlocal join
        keep = [k for k in range(len(st.index)) if k not in exits]
        for k in sorted(exits):
            rix = st.index[k]
            out[rix] = (st.theta[k].copy(), st.cost[k], st.iters[k], exits[k], st.lam[k])
            if on_exit is not None and on_exit(rix, *out[rix]):
                keep = [j for j in keep if st.index[j] < rix]
                join = None
                break
        st.keep(keep)
        return [x[keep] for x in extra]

    rejected = False
    while True:
        if join is not None and (rejected or not st.index):
            more = start(join(), len(out))
            out += [None] * len(more.index)
            st.extend(more)
            join = None
        if not st.index:
            break
        exits = {k: "max_iters" if used >= max_iters else "converged"
                 for k, (used, cost) in enumerate(zip(st.iters, st.cost))
                 if used >= max_iters or cost <= cost_tol}
        if exits:
            retire(exits)
            if not st.index:
                continue
        st.iters = [used + 1 for used in st.iters]
        g, h = _normal_equations(st.r, st.jac)
        # stationarity is judged relative to the cost: descent directions
        # that shrink multiplicatively (log-scale parameters) keep the
        # gradient proportional to the cost and must not stop early
        gmax = np.abs(g).max(axis=1).tolist()
        exits = {k: "stationary" for k, (top, cost) in enumerate(zip(gmax, st.cost))
                 if top <= 1e-12 * cost}
        if exits:
            g, h = retire(exits, g, h)
            if not st.index:
                continue
        # the damped steps: (h + lam I) delta = -g for each slice
        damped = h + np.array(st.lam)[:, None, None] * np.eye(h.shape[-1])
        delta, singular = _solve_slices(lambda a, b: np.linalg.solve(a, b)[:, :, 0], g.shape,
                                        damped, -g[:, :, None])
        trial = st.theta + delta
        rt, jt, offt = fun(trial)
        off = offt.tolist()
        solvable = [True] * len(off) if singular is None else (~singular).tolist()
        moved, exits = [], {}
        for k, ct in enumerate(_squares(rt).tolist()):
            cost = st.cost[k]
            if solvable[k] and ct < cost:
                moved.append(k)
                st.cost[k] = ct
                st.lam[k] = max(st.lam[k] / 3.0, 1e-12)
                if cost - ct < 1e-15 * max(ct, 1e-30):
                    exits[k] = "stalled"
                elif off[k]:
                    exits[k] = "left_domain"
            else:
                st.lam[k] *= 4.0
                rejected = True
                if st.lam[k] > 1e12:
                    exits[k] = "damping_blowup"
        st.put(moved, trial, rt, jt)
        if exits:
            retire(exits)
    return out


def _off_domain(prob: _Problem, a: np.ndarray) -> np.ndarray:
    """Which metrics of a stack lie off the search domain: not finite, zero,
    or, scaled to unit norm, with a determinant below the problem's floor
    (or NaN)."""
    flat = a.reshape(len(a), 1, -1)
    norm = np.sqrt(flat @ flat.transpose(0, 2, 1))
    bad = None
    if not all(0.0 < x < math.inf for x in norm.ravel().tolist()):
        # off already: a stand-in keeps the determinant below quiet
        bad = ~((norm > 0.0) & (norm < math.inf))[:, 0, 0]
        norm[bad], a = 1.0, np.where(bad[:, None, None], np.eye(prob.n), a)
    # |det| <= 1 at unit norm, so only NaN is not finite here
    off = ~(np.abs(np.linalg.det(a / norm)) >= prob.floor)
    return off if bad is None else off | bad


def _initial_theta(n: int, mode: str, rng: np.random.Generator) -> np.ndarray:
    if mode == "positive_definite":
        # unit-mean log-normal diagonal for the factor, plain normal below it
        diag = rng.normal(-0.125, 0.5, size=n)
        low = rng.standard_normal(param_count(n) - n)
        return np.concatenate([diag, low])
    m = rng.standard_normal((n, n))
    sym = (m + m.T) / 2.0
    # a boolean mask reads in row order, as np.tril_indices(n), at a fifth
    # of its cost (np.tril_indices(3) takes about 14 us)
    return sym[np.tri(n, dtype=bool)]


def _oriented(metric: Metric, target):
    """The metric or its negation, whichever has the target signature (any
    nondegenerate one for "none"), or None: a -> -a keeps the product and
    the defect, since the product's defining system is linear in a."""
    try:
        p, q = metric.signature()
    except DegenerateMetricError:
        return None
    if target == "none" or (p, q) == target:
        return metric
    if (q, p) == target:
        return Metric.from_rows([[-x for x in row] for row in metric.matrix], exact=metric.exact)
    return None


def _try_exact_certificate(alg: LieAlgebra, metric: Metric, target):
    """Rationalize a float metric and re-verify the residual exactly.

    The symmetrized rationalized metric, oriented to the target signature
    (``_oriented``, on its exact signature), is the certificate when its exact
    compatibility residual, through ``levi_civita_product``, is zero. The
    screen mod a prime (``_may_be_compatible``) refuses first a metric
    whose defect it proves nonzero, without the exact elimination; the
    exact residual stays the check of every certificate.
    """
    if not alg.exact:
        return None
    try:
        raw = [[rationalize(float(x)) for x in row] for row in metric.matrix]
        n = len(raw)
        sym = [[(raw[i][j] + raw[j][i]) / 2 for j in range(n)] for i in range(n)]
        exact = _oriented(Metric.from_rows(sym, exact=True), target)
        if exact is None or not _may_be_compatible(alg, exact):
            return None
        return exact if compatibility_residual(alg, exact).exact_zero else None
    except (ZeroDivisionError, ValueError):
        return None


def _may_be_compatible(alg: LieAlgebra, a: Metric) -> bool:
    """The certificate's screen: False only when the compatibility defect of
    the exact pair (alg, a) is nonzero, shown mod P = _SCREEN_PRIME.

    With c = C / sc and a = M / sm on their integer forms, the product is
    X / sc for X = (2M)^-1 B(C, M), B the right sides (``_product_rhs``), and
    the defect is D(C, X) / sc^2. The denominators of X divide det 2M, so
    when P does not divide it, reduction mod P is a ring map on every entry
    involved: D(C, X) mod P is D(C mod P, X mod P), and a nonzero residue
    proves D nonzero. ``rational``'s kernel eliminates 2M' for M' = M mod P,
    giving 2M' R = d I with d = |det 2M'| and R = +-adj 2M'. When P does not
    divide d, d is a unit mod P and R is d (2M')^-1 there, so x' = B' R is
    d X mod P: the defect, linear in X, has D(C, x') = d D(C, X), zero mod P
    exactly when D(C, X) is. The two kernels run on int64 residues below P,
    whose sums stay within int64 (see _SCREEN_PRIME). A zero residue, a 2M
    that is singular mod P, or a dimension past that bound answers True:
    the exact residual decides.
    """
    n, p = alg.dim, _SCREEN_PRIME
    if 3 * n * (p - 1) ** 2 > INT64_MAX:
        return True
    c = (alg.scaled(True)[0] % p).astype(np.int64)
    m = (a.scaled(True)[0] % p).astype(np.int64)
    try:
        adj, d = _solve_int((2 * m).tolist(), np.eye(n, dtype=int).tolist())
    except SingularMatrixError:
        return True
    if d % p == 0:
        return True
    # 2M' x' = d b for each (i, j); R is symmetric, so each row is b @ R
    r = np.array([[x % p for x in row] for row in adj], dtype=np.int64)
    x = (_product_rhs(c, m).reshape(-1, n) % p) @ r % p
    return not (_defect_array(c, x.reshape(n, n, n)) % p).any()


def find_compatible_metric(alg: LieAlgebra, cfg: SearchConfig) -> SearchResult:
    """Multi-restart search for a metric making the algebra compatible.

    Restart streams derive from (rng_seed, restart index), so the log is
    reproducible and independent of scheduling. Restarts advance in lockstep
    batches of ``_batch_size(n)`` (see ``_minimize``). In the first batch,
    restart 0 starts alone and the rest join it after its first rejected
    trial step, or when it ends without a find, so a quick find there with
    every step accepted draws no other restart. Each restart counts its own
    iterations against ``max_iters``. The result is the lowest-index
    admissible metric under the residual tolerance: restarts below it run
    to their end, restarts above it are dropped, and the log is folded in
    index order, so it equals a one-restart-at-a-time loop that stops at
    that find. Not finding one is a value, not an error: the log then
    carries the evidence. An algebra of dimension above MAX_SEARCH_DIM
    raises ValueError before the search allocates anything.
    """
    n = alg.dim
    target = cfg.signature_constraint
    if target == "positive_definite":
        target = (n, 0)
    elif target != "none" and sum(target) != n:
        raise ValueError("fixed signature counts must add up to the dimension")
    # a signature with a zero count is definite up to negation
    mode = "positive_definite" if target != "none" and 0 in target else "unconstrained"
    algf = alg.to_float()
    cost_tol = (0.02 * cfg.residual_tol) ** 2
    prob = _problem(algf.structure_array(), mode)
    fun = lambda th: _residuals(prob, th)
    records = {}  # restart index -> (RestartRecord, Metric or None)
    finds = []    # restarts that ended on an admissible metric within tolerance

    def judge(rix, theta, cost, iters, reason, lam) -> bool:
        # an end point off the domain is no candidate, whatever exit ended it
        a = _decode(theta[None], prob)[0]
        off = bool(_off_domain(prob, a)[0])
        metric = None if off or not math.isfinite(cost) else _oriented(
            Metric.from_rows((a[0] / float(np.linalg.norm(a[0]))).tolist(), exact=False), target)
        # _oriented refuses a degenerate metric by the float product's own rule
        residual = math.inf if metric is None else compatibility_residual(algf, metric).value
        admissible = metric is not None
        records[rix] = (RestartRecord(rix, residual, iters, admissible,
                                      "left_domain" if off else reason, lam), metric)
        if admissible and residual <= cfg.residual_tol:
            finds.append(rix)
            return True
        return False

    def starts(lo, hi):
        return np.array([_initial_theta(n, mode, np.random.default_rng([cfg.rng_seed, rix]))
                         for rix in range(lo, hi)])

    size = _batch_size(n)
    for lo in range(0, cfg.restarts, size):
        if finds:
            break
        hi = min(cfg.restarts, lo + size)
        if lo == 0 and hi > 1:
            theta0, join = starts(0, 1), lambda: starts(1, hi)
        else:
            theta0, join = starts(lo, hi), None
        _minimize(fun, theta0, cfg.max_iters, cost_tol,
                  on_exit=lambda k, *end: judge(lo + k, *end), join=join)
    log, best_res, best_metric = [], float("inf"), None
    for rix in range(min(finds) + 1 if finds else cfg.restarts):
        rec, metric = records[rix]
        log.append(rec)
        if rec.admissible and rec.residual < best_res:
            best_res, best_metric = rec.residual, metric
    status, metric, residual, exact = "not_found", best_metric, best_res, False
    if best_metric is not None and best_res <= cfg.residual_tol:
        certificate = _try_exact_certificate(alg, best_metric, target)
        if certificate is not None:
            status, metric, residual, exact = "found", certificate, 0.0, True
        elif best_res <= cfg.residual_tol / 10.0:
            status = "found"
    return SearchResult(status=status, best_metric=metric, best_residual=residual,
                        exact_certificate=exact, log=tuple(log), config=cfg)
