"""Feasibility search for a metric that makes a Lie algebra compatible.

The objective stacks every component of the basis-triple defect
[A_{e_i}e_j, e_k] + [e_i, A_{e_k}e_j] into one residual vector. A damped
Gauss-Newton loop, with analytic directional derivatives through the
product's defining linear solve, drives it down from many random starts and
takes a Jacobian only where a step was accepted. The starts advance in
lockstep batches, each taking the steps it would take alone. A found metric
is reported only after an independent recheck: an exact certificate through
the public exact product when the entries rationalize, a ten times tighter
float tolerance otherwise. Not finding one is a value, whose restart log
carries the evidence; the classification sweep built on this search lives in
``classify``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from numbers import Integral, Real
from typing import NamedTuple

import numpy as np

from .algebra import LieAlgebra
from .metric import (DegenerateMetricError, Metric, _defect_array,
                     _lc_product_array, _product_rhs, compatibility_residual)
from .scalars import rationalize

_PENALTY = 1e8
_BARRIER_WEIGHT = 10.0


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for find_compatible_metric; defaults suit dimensions up to 6."""

    signature_constraint: object = "none"
    restarts: int = 64
    max_iters: int = 500
    residual_tol: float = 1e-10
    degeneracy_floor: float = 1e-8
    rng_seed: int = 0

    def __post_init__(self):
        sc = self.signature_constraint
        if isinstance(sc, (tuple, list)):
            if (len(sc) != 2 or any(not isinstance(x, int) or isinstance(x, bool)
                                    or x < 0 for x in sc)):
                raise ValueError("fixed signature must be a pair of counts")
            object.__setattr__(self, "signature_constraint", tuple(sc))
        elif sc not in ("none", "positive_definite"):
            raise ValueError(f"unknown signature constraint {sc!r}")
        for name, low in (("restarts", 1), ("max_iters", 0), ("rng_seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, Integral) or isinstance(value, bool) or value < low:
                raise ValueError(f"{name} must be an integer of at least {low}")
            object.__setattr__(self, name, int(value))
        for name in ("residual_tol", "degeneracy_floor"):
            value = getattr(self, name)
            if (not isinstance(value, Real) or isinstance(value, bool)
                    or not (math.isfinite(value) and value > 0)):
                raise ValueError(f"{name} must be positive and finite")


# why _minimize ended a restart, one name per exit
STOP_REASONS = ("converged", "stationary", "stalled", "armijo_failed",
                "left_domain", "damping_blowup", "max_iters")


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


def _sym_positions(n: int) -> list:
    return [(i, j) for i in range(n) for j in range(i + 1)]


def _lower_positions(n: int) -> list:
    return [(i, j) for i in range(n) for j in range(i)]


def param_count(n: int) -> int:
    return n * (n + 1) // 2


# cap on the bytes of one lockstep batch's (restarts, m, n^4) float Jacobian
# stack; a lockstep step's arrays peak at 4 to 8 times this (2.0 to 4.1 MiB
# measured with tracemalloc at n = 6..3), the defect contraction's
# (..., 2n, n) intermediate being twice the stack
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
    floor: float
    diag: np.ndarray        # the diagonal, 0..n-1
    lower: tuple            # strictly lower (rows, cols) in row order
    vech: tuple             # lower with the diagonal (rows, cols) in row order
    units: np.ndarray       # unconstrained da/dtheta, (m, n, n); None with pd
    units_rhs: np.ndarray   # _product_rhs(c, units); None with pd


def _positions(pairs: list) -> tuple:
    return tuple(np.array(pairs, dtype=int).reshape(-1, 2).T)


def _problem(c: np.ndarray, mode: str, floor: float) -> _Problem:
    n = c.shape[0]
    m = param_count(n)
    lower, vech = _positions(_lower_positions(n)), _positions(_sym_positions(n))
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


def _decode(theta: np.ndarray, prob: _Problem) -> np.ndarray:
    """The (R, n, n) stack of metric matrices of an (R, m) parameter stack."""
    if prob.mode == "positive_definite":
        c = _factor(theta, prob)
        return c @ c.transpose(0, 2, 1)
    a = np.zeros((len(theta), prob.n, prob.n))
    i, j = prob.vech
    a[:, i, j] = a[:, j, i] = theta
    return a


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


def _adjugate(a: np.ndarray) -> np.ndarray:
    """Cofactor transpose; all n^2 minors go to one stacked ``np.linalg.det``."""
    n = a.shape[0]
    if n == 1:
        return np.ones((1, 1))
    keep = np.array([np.delete(np.arange(n), i) for i in range(n)])
    minors = a[keep[:, None, :, None], keep[None, :, None, :]]
    signs = (-1.0) ** np.add.outer(np.arange(n), np.arange(n))
    return (signs * np.linalg.det(minors)).T


def _residuals(prob: _Problem, theta: np.ndarray):
    """The residual stage: residual vectors of an (R, m) stack of parameter
    points, keeping what the Jacobian stage needs.

    Returns r (R, L), jac, rows (R,), the length of each point's residual,
    and the mask of points off the search domain (``_off_domain``). jac is
    a ``_Jacobians``: indexing it with slices runs the Jacobian stage
    (``_jacobian``) on those slices only. Rows past a point's length are
    zero. A point has the n^4 defect components, plus one barrier component
    when its metric is near degenerate in the unconstrained modes (L = n^4
    + 1 there, n^4 with positive_definite), or only a penalty component when
    2a is singular.
    """
    nr = len(theta)
    n, c, floor = prob.n, prob.c, prob.floor
    pd = prob.mode == "positive_definite"
    f = det = None
    if pd:
        f = _factor(theta, prob)
        a = f @ f.transpose(0, 2, 1)
    else:
        a = _decode(theta, prob)
    off = _off_domain(prob, a)
    solved = np.ones(nr, dtype=bool)
    try:
        x = _lc_product_array(c, a)
    except np.linalg.LinAlgError:
        # a singular slice sinks the whole stacked solve: solve each alone
        x = np.zeros((nr, n, n, n))
        for k in range(nr):
            try:
                x[k] = _lc_product_array(c, a[k:k + 1])[0]
            except np.linalg.LinAlgError:
                solved[k] = False
    if pd:
        r = _defect_array(c, x).reshape(nr, -1)
    else:
        r = np.zeros((nr, n ** 4 + 1))
        r[:, :-1] = _defect_array(c, x).reshape(nr, -1)
    rows = np.full(nr, n ** 4)
    if not solved.all():
        r[~solved, 0], rows[~solved] = _PENALTY, 1
    if not pd:
        det = np.linalg.det(a)
        for k, d in enumerate(det.tolist()):
            if abs(d) < floor and solved[k]:
                r[k, -1] = _BARRIER_WEIGHT * (floor - abs(d)) / floor
                rows[k] += 1
    return r, _Jacobians(prob, a, f, x, det, solved), rows, off


class _Jacobians:
    """The Jacobians of the points of one residual stage, computed only for
    the slices read: ``jac[ks]`` runs ``_jacobian`` on the slices ks, from
    the metrics, factors, product tensors and determinants the residual
    stage kept."""

    def __init__(self, prob: _Problem, *state):
        self.prob, self.state = prob, state

    def __getitem__(self, ks):
        return _jacobian(self.prob, *(None if s is None else s[ks] for s in self.state))


def _jacobian(prob: _Problem, a, f, x, det, solved) -> np.ndarray:
    """The Jacobian stage: the (R, L, m) Jacobians of points that the
    residual stage has solved for, given by their metrics a, factors f
    (None unless positive_definite), product tensors x, determinants det
    (None with positive_definite) and the mask of solved points; a penalty
    point's Jacobian is zero.

    The defect is differentiated through the defining solve: perturbing a by
    da perturbs the product tensor X by the solution of the same system with
    right side dB - 2 X da. All points and all m parameter directions go at
    once: one stacked solve against 2a takes every column of every point,
    and one defect contraction maps the stack to the Jacobian columns. Each
    Jacobian is C-ordered, since the Gauss-Newton matrix jac^T jac rounds
    differently on a transposed layout.
    """
    n, c, floor = prob.n, prob.c, prob.floor
    shape = (len(a), n ** 4 + (0 if f is not None else 1), param_count(n))
    ks = slice(None) if solved.all() else np.flatnonzero(solved)
    solved_a, solved_x = a[ks], x[ks]
    if not len(solved_a):
        return np.zeros(shape)
    if f is not None:
        dirs = _factor_directions(f[ks], prob)
        rhs = _product_rhs(c, dirs) - 2.0 * np.einsum("rijm,rtmk->rtijk", solved_x, dirs)
    else:
        dirs = prob.units
        rhs = prob.units_rhs - 2.0 * np.einsum("rijm,tmk->rtijk", solved_x, dirs)
    dx = np.linalg.solve(2.0 * solved_a, rhs.reshape(len(solved_a), -1, n).transpose(0, 2, 1))
    columns = _defect_array(c, dx.transpose(0, 2, 1).reshape(rhs.shape))
    jac = np.zeros(shape)  # after the contraction, whose temporaries are the peak
    jac[ks, :n ** 4] = columns.reshape(len(solved_a), shape[2], -1).transpose(0, 2, 1)
    if f is None:
        for k, d in enumerate(det.tolist()):
            if abs(d) < floor and solved[k]:
                sign = 1.0 if d >= 0 else -1.0
                adj = _adjugate(a[k])
                jac[k, -1] = -_BARRIER_WEIGHT / floor * sign * np.sum(adj.T * dirs, axis=(1, 2))
    return jac


def _residual_jacobian(prob: _Problem, theta: np.ndarray):
    """Residual vectors and Jacobians of an (R, m) stack of parameter points:
    the residual stage, then the Jacobian stage on every slice. Returns r
    (R, L), jac (R, L, m), rows and the domain mask, as ``_residuals``."""
    r, jac, rows, off = _residuals(prob, theta)
    return r, jac[:], rows, off


def _by_length(rows: np.ndarray) -> list:
    """The slices of a stack grouped by residual length, each group with its
    length. A reduction also over a zero row could sum in another order."""
    sizes = set(rows.tolist())
    if len(sizes) == 1:
        return [(slice(None), sizes.pop())]
    return [(np.flatnonzero(rows == size), size) for size in sorted(sizes)]


def _squares(r: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """r . r for each slice, over the slice's own rows."""
    out = np.empty(len(rows))
    for k, size in _by_length(rows):
        v = r[k, :size]
        out[k] = (v[:, None, :] @ v[:, :, None])[:, 0, 0]
    return out


def _normal_equations(r: np.ndarray, jac: np.ndarray, rows: np.ndarray):
    """jac^T r and jac^T jac for each slice, over the slice's own rows."""
    nr, _, m = jac.shape
    g, h = np.empty((nr, m)), np.empty((nr, m, m))
    for k, size in _by_length(rows):
        v, j = r[k, :size], jac[k, :size]
        jt = j.transpose(0, 2, 1)
        g[k] = (jt @ v[:, :, None])[:, :, 0]
        h[k] = jt @ j
    return g, h


def compat_objective(alg: LieAlgebra, theta, mode: str = "unconstrained"):
    """Sum of squared defect components and its analytic gradient, at the
    default degeneracy floor of ``SearchConfig``."""
    theta = np.asarray(theta, dtype=float)
    prob = _problem(alg.structure_array(), mode, SearchConfig.degeneracy_floor)
    r, jac, rows, _ = _residual_jacobian(prob, theta[None])
    r, jac = r[0, :rows[0]], jac[0, :rows[0]]
    return float(r @ r), 2.0 * (jac.T @ r)


def _armijo_descent(fun, theta, r, jac, cost):
    """One backtracking gradient step; used when normal equations fail."""
    g = 2.0 * (jac.T @ r)
    gnorm = float(np.linalg.norm(g))
    if gnorm == 0.0:
        return theta, r, jac, cost, False
    step = 1.0 / max(gnorm, 1.0)
    for _ in range(30):
        trial = theta - step * g
        rt, jt = fun(trial)
        ct = float(rt @ rt)
        if ct < cost - 1e-4 * step * gnorm ** 2:
            return trial, rt, jt, ct, True
        step /= 2.0
    return theta, r, jac, cost, False


def _damped_steps(h: np.ndarray, lam: np.ndarray, g: np.ndarray):
    """Solve (h + lam I) delta = -g for each slice. A singular slice makes
    the stacked solve raise for the whole stack; only then is each slice
    solved alone, and the mask of singular slices returned (else None)."""
    a = h + lam[:, None, None] * np.eye(h.shape[-1])
    try:
        return np.linalg.solve(a, -g[:, :, None])[:, :, 0], None
    except np.linalg.LinAlgError:
        delta, singular = np.zeros_like(g), np.zeros(len(a), dtype=bool)
        for k in range(len(a)):
            try:
                delta[k] = np.linalg.solve(a[k], -g[k])
            except np.linalg.LinAlgError:
                singular[k] = True
        return delta, singular


class _Stack:
    """The restarts of one lockstep batch still in the stack, one slice
    each in restart order: restart index, cost, damping and iteration count
    as Python lists, so the per-restart decisions run in plain float
    arithmetic, and parameters, residuals, Jacobians and residual lengths as
    stacked arrays."""

    LISTS = ("index", "cost", "lam", "iters")
    ARRAYS = ("theta", "r", "jac", "rows")

    def __init__(self, index, theta, r, jac, rows):
        self.index = list(index)
        self.cost = _squares(r, rows).tolist()
        self.lam = [1e-3] * len(theta)
        self.iters = [0] * len(theta)
        self.theta, self.r, self.jac, self.rows = theta, r, jac[:], rows

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
        (theta, r, jac, rows) stack; jac is read at ks only."""
        if not ks:
            return
        if len(ks) == len(self.index):
            self.theta, self.r, self.jac, self.rows = (value[:] for value in arrays)
            return
        for name, value in zip(self.ARRAYS, arrays):
            getattr(self, name)[ks] = value[ks]


def _minimize(fun, theta0: np.ndarray, max_iters: int, cost_tol: float, on_exit=None,
              join=None):
    """Damped Gauss-Newton with a gradient-descent fallback, run in lockstep
    on a stack of restarts.

    theta0 is (R, m), one starting point per restart. fun maps a (k, m)
    stack to residuals, Jacobians, residual lengths and the mask of points
    off the search domain (or None for no boundary), as ``_residuals``
    does; the Jacobians are read only by indexing them with the slices
    whose step was accepted, so a ``_Jacobians`` computes none at a
    rejected trial point or Armijo probe. An accepted step onto a point off
    the domain ends the restart there, for the caller to judge. Every
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
        return _Stack(range(first, first + len(theta)), theta, *fun(theta)[:3])

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

    last = [None]

    def probe(th):
        """fun on one point, residual only, in the form _armijo_descent
        takes; the whole result for the last point it saw stays in last."""
        last[0] = fun(th[None])
        rt, _, size, _ = last[0]
        return rt[0, :size[0]], None

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
        g, h = _normal_equations(st.r, st.jac, st.rows)
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
        delta, singular = _damped_steps(h, np.array(st.lam), g)
        trial = st.theta + delta
        rt, jt, rowt, offt = fun(trial)
        off = [False] * len(st.index) if offt is None else offt.tolist()
        moved, exits = [], {}
        for k, ct in enumerate(_squares(rt, rowt).tolist()):
            if singular is not None and singular[k]:
                continue
            cost = st.cost[k]
            if ct < cost:
                moved.append(k)
                st.cost[k] = ct
                st.lam[k] = max(st.lam[k] / 3.0, 1e-12)
                if cost - ct < 1e-15 * max(ct, 1e-30):
                    exits[k] = "stalled"
            else:
                st.lam[k] *= 4.0
                rejected = True
        st.put(moved, trial, rt, jt, rowt)
        for k in ([] if singular is None else np.flatnonzero(singular).tolist()):
            size = st.rows[k]
            th, _, _, ck, ok = _armijo_descent(probe, st.theta[k], st.r[k, :size],
                                               st.jac[k, :size], st.cost[k])
            if not ok:
                exits[k] = "armijo_failed"
                continue
            rk, jk, sizek, offk = last[0]  # the accepted probe
            moved.append(k)
            off[k] = offk is not None and bool(offk[0])
            st.theta[k], st.cost[k] = th, ck
            st.r[k], st.jac[k], st.rows[k] = rk[0], jk[[0]][0], sizek[0]
        for k in moved:
            if off[k] and k not in exits:
                exits[k] = "left_domain"
        moved = set(moved)
        for k, lam in enumerate(st.lam):
            if k not in moved and k not in exits and lam > 1e12:
                exits[k] = "damping_blowup"
        if exits:
            retire(exits)
    return out


def _off_domain(prob: _Problem, a: np.ndarray) -> np.ndarray:
    """Which metrics of a stack lie off the search domain: not finite, zero,
    or, scaled to unit norm, with a determinant below the degeneracy floor
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
        low = rng.standard_normal(len(_lower_positions(n)))
        return np.concatenate([diag, low])
    m = rng.standard_normal((n, n))
    sym = (m + m.T) / 2.0
    return np.array([sym[i, j] for i, j in _sym_positions(n)])


def _fits(p: int, q: int, constraint) -> bool:
    """Whether a signature (p, q) meets the signature constraint."""
    if constraint == "positive_definite":
        return q == 0
    if isinstance(constraint, tuple):
        return (p, q) == constraint
    return True


def _admissible(metric: Metric, constraint) -> bool:
    try:
        sig = metric.signature()
    except DegenerateMetricError:
        return False
    return _fits(sig.p, sig.q, constraint)


def _try_exact_certificate(alg: LieAlgebra, metric: Metric, constraint):
    """Rationalize a float metric and re-verify the residual exactly.

    The symmetrized rationalized metric is the certificate when its exact
    signature meets the constraint (a degenerate one raises) and its exact
    compatibility residual, through ``levi_civita_product``, is zero.
    """
    if not alg.exact:
        return None
    try:
        raw = [[rationalize(float(x)) for x in row] for row in metric.matrix]
        n = len(raw)
        sym = [[(raw[i][j] + raw[j][i]) / 2 for j in range(n)] for i in range(n)]
        exact = Metric.from_rows(sym, exact=True)
        if not _fits(*exact.signature(), constraint):  # degenerate: raises
            return None
        return exact if compatibility_residual(alg, exact).exact_zero else None
    except (ZeroDivisionError, ValueError):
        return None


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
    carries the evidence.
    """
    n = alg.dim
    constraint = cfg.signature_constraint
    if isinstance(constraint, tuple) and sum(constraint) != n:
        raise ValueError("fixed signature counts must add up to the dimension")
    mode = "positive_definite" if constraint == "positive_definite" else "unconstrained"
    algf = alg.to_float()
    cost_tol = (0.02 * cfg.residual_tol) ** 2
    prob = _problem(algf.structure_array(), mode, cfg.degeneracy_floor)
    fun = lambda th: _residuals(prob, th)
    records = {}  # restart index -> (RestartRecord, Metric or None)
    finds = []    # restarts that ended on an admissible metric within tolerance

    def judge(rix, theta, cost, iters, reason, lam) -> bool:
        # a probe that slid toward the degenerate boundary is not a
        # candidate metric; its vanishing residual is an artifact
        a = _decode(theta[None], prob)
        admissible = bool(np.isfinite(cost)) and not _off_domain(prob, a)[0]
        residual, metric = float("inf"), None
        if admissible:
            a = a[0]
            metric = Metric.from_rows((a / float(np.linalg.norm(a))).tolist(), exact=False)
            admissible = _admissible(metric, constraint)
            if admissible:
                try:
                    residual = compatibility_residual(algf, metric).value
                except (DegenerateMetricError, np.linalg.LinAlgError):
                    admissible = False
                    residual = float("inf")
        records[rix] = (RestartRecord(rix, residual, iters, admissible, reason, lam), metric)
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
    if best_metric is not None and best_res <= cfg.residual_tol:
        exact_metric = _try_exact_certificate(alg, best_metric, constraint)
        if exact_metric is not None:
            return SearchResult(status="found", best_metric=exact_metric,
                                best_residual=0.0, exact_certificate=True,
                                log=tuple(log), config=cfg)
        if best_res <= cfg.residual_tol / 10.0:
            return SearchResult(status="found", best_metric=best_metric,
                                best_residual=best_res, exact_certificate=False,
                                log=tuple(log), config=cfg)
    return SearchResult(status="not_found", best_metric=best_metric,
                        best_residual=best_res, exact_certificate=False,
                        log=tuple(log), config=cfg)
