"""Feasibility search for compatible metrics, and the classification harness.

The objective stacks every component of the basis-triple defect
[A_{e_i}e_j, e_k] + [e_i, A_{e_k}e_j] into one residual vector; a damped
Gauss-Newton loop with analytic directional derivatives through the defining
linear solve drives it down from many random starts. A found metric is only
reported after an independent recheck: exact arithmetic when the entries
rationalize, a ten times tighter float tolerance otherwise.

The harness part sweeps the two- and three-dimensional catalog plus a
stratified sample of the three-parameter solvable family, comparing search
outcomes against the classification predicate. A metric found where the
classification (read invariantly) forbids one is a hard failure; a failed
search where one should exist is only evidence and is reported as soft.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import catalog
from .algebra import LieAlgebra
from .metric import (DegenerateMetricError, Metric, _defect_array,
                     _lc_product_array, _product_rhs, compatibility_residual)
from .scalars import RATIONALIZE_MAX_DENOMINATOR, rationalize

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
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.residual_tol <= 0:
            raise ValueError("residual_tol must be positive")


class RestartRecord(NamedTuple):
    index: int
    residual: float
    iterations: int
    admissible: bool


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


def _sym_positions(n: int) -> list:
    return [(i, j) for i in range(n) for j in range(i + 1)]


def _lower_positions(n: int) -> list:
    return [(i, j) for i in range(n) for j in range(i)]


def param_count(n: int) -> int:
    return n * (n + 1) // 2


def _decode(theta: np.ndarray, n: int, mode: str) -> np.ndarray:
    if mode == "positive_definite":
        c = np.zeros((n, n))
        for k in range(n):
            c[k, k] = np.exp(theta[k])
        for t, (i, j) in enumerate(_lower_positions(n)):
            c[i, j] = theta[n + t]
        return c @ c.T
    a = np.zeros((n, n))
    for t, (i, j) in enumerate(_sym_positions(n)):
        a[i, j] = a[j, i] = theta[t]
    return a


def _decode_directions(theta: np.ndarray, n: int, mode: str) -> list:
    """da/dtheta_t for every parameter, as dense matrices."""
    out = []
    if mode == "positive_definite":
        c = np.zeros((n, n))
        for k in range(n):
            c[k, k] = np.exp(theta[k])
        for t, (i, j) in enumerate(_lower_positions(n)):
            c[i, j] = theta[n + t]
        for k in range(n):
            dc = np.zeros((n, n))
            dc[k, k] = c[k, k]
            out.append(dc @ c.T + c @ dc.T)
        for i, j in _lower_positions(n):
            dc = np.zeros((n, n))
            dc[i, j] = 1.0
            out.append(dc @ c.T + c @ dc.T)
        return out
    for i, j in _sym_positions(n):
        e = np.zeros((n, n))
        e[i, j] = e[j, i] = 1.0
        out.append(e)
    return out


def _adjugate(a: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    if n == 1:
        return np.ones((1, 1))
    adj = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            minor = np.delete(np.delete(a, i, axis=0), j, axis=1)
            adj[j, i] = (-1.0) ** (i + j) * np.linalg.det(minor)
    return adj


def _residual_jacobian(c: np.ndarray, theta: np.ndarray, mode: str,
                       floor: float):
    """Residual vector and its Jacobian at one parameter point.

    The defect is differentiated through the defining solve: perturbing a by
    da perturbs the product tensor X by the solution of the same system with
    right side dB - 2 da X. A near-degenerate probe in the unconstrained
    modes contributes one extra barrier component instead of raising.
    """
    n = c.shape[0]
    a = _decode(theta, n, mode)
    nparams = len(theta)
    try:
        x = _lc_product_array(c, a)
    except np.linalg.LinAlgError:
        return np.array([_PENALTY]), np.zeros((1, nparams))
    defect = _defect_array(c, x)
    r = defect.ravel()
    dirs = _decode_directions(theta, n, mode)
    cols = []
    for da in dirs:
        db = _product_rhs(c, da)
        rhs = db - 2.0 * np.einsum("ijm,mk->ijk", x, da)
        dx = np.linalg.solve(2.0 * a, rhs.reshape(-1, n).T).T.reshape(n, n, n)
        ddefect = _defect_array(c, dx)
        cols.append(ddefect.ravel())
    jac = np.stack(cols, axis=1)
    if mode != "positive_definite":
        d = float(np.linalg.det(a))
        if abs(d) < floor:
            rb = _BARRIER_WEIGHT * (floor - abs(d)) / floor
            adj = _adjugate(a)
            sign = 1.0 if d >= 0 else -1.0
            grad = np.array([-_BARRIER_WEIGHT / floor * sign
                             * float(np.sum(adj.T * da)) for da in dirs])
            r = np.concatenate([r, [rb]])
            jac = np.vstack([jac, grad[None, :]])
    return r, jac


def compat_objective(alg: LieAlgebra, theta, mode: str = "unconstrained",
                     degeneracy_floor: float = 1e-8):
    """Sum of squared defect components and its analytic gradient."""
    theta = np.asarray(theta, dtype=float)
    c = alg.structure_array()
    r, jac = _residual_jacobian(c, theta, mode, degeneracy_floor)
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


def _minimize(fun, theta0: np.ndarray, max_iters: int, cost_tol: float,
              stop=None):
    """Damped Gauss-Newton with a gradient-descent fallback.

    The optional stop predicate marks the boundary of the search domain:
    the loop ends as soon as an accepted iterate satisfies it, and that
    iterate is returned as-is for the caller to judge.
    """
    theta = np.asarray(theta0, dtype=float)
    r, jac = fun(theta)
    cost = float(r @ r)
    lam = 1e-3
    iters = 0
    while iters < max_iters:
        if cost <= cost_tol:
            break
        iters += 1
        g = jac.T @ r
        # stationarity is judged relative to the cost: descent directions
        # that shrink multiplicatively (log-scale parameters) keep the
        # gradient proportional to the cost and must not stop early
        if float(np.max(np.abs(g))) <= 1e-12 * cost:
            break
        h = jac.T @ jac
        moved = False
        try:
            delta = np.linalg.solve(h + lam * np.eye(len(theta)), -g)
            trial = theta + delta
            rt, jt = fun(trial)
            ct = float(rt @ rt)
            if ct < cost:
                gain = cost - ct
                theta, r, jac, cost = trial, rt, jt, ct
                lam = max(lam / 3.0, 1e-12)
                moved = True
                if gain < 1e-15 * max(cost, 1e-30):
                    break
            else:
                lam *= 4.0
        except np.linalg.LinAlgError:
            theta, r, jac, cost, moved = _armijo_descent(fun, theta, r, jac, cost)
            if not moved:
                break
        if moved and stop is not None and stop(theta):
            break
        if not moved and lam > 1e12:
            break
    return theta, cost, iters


def _initial_theta(n: int, mode: str, rng: np.random.Generator) -> np.ndarray:
    if mode == "positive_definite":
        # unit-mean log-normal diagonal for the factor, plain normal below it
        diag = rng.normal(-0.125, 0.5, size=n)
        low = rng.standard_normal(len(_lower_positions(n)))
        return np.concatenate([diag, low])
    m = rng.standard_normal((n, n))
    sym = (m + m.T) / 2.0
    return np.array([sym[i, j] for i, j in _sym_positions(n)])


def _admissible(metric: Metric, constraint) -> bool:
    if not metric.is_nondegenerate():
        return False
    try:
        sig = metric.signature()
    except DegenerateMetricError:
        return False
    if constraint == "positive_definite":
        return sig.q == 0
    if isinstance(constraint, tuple):
        return (sig.p, sig.q) == constraint
    return True


def _try_exact_certificate(alg: LieAlgebra, metric: Metric, constraint):
    """Rationalize a float metric and re-verify the residual exactly."""
    if not alg.exact:
        return None
    try:
        raw = [[rationalize(float(x), RATIONALIZE_MAX_DENOMINATOR) for x in row]
               for row in metric.matrix]
        n = len(raw)
        sym = [[(raw[i][j] + raw[j][i]) / 2 for j in range(n)] for i in range(n)]
        exact_metric = Metric.from_rows(sym, exact=True)
        if not exact_metric.is_nondegenerate():
            return None
        if not _admissible(exact_metric, constraint):
            return None
        res = compatibility_residual(alg, exact_metric)
    except (DegenerateMetricError, ZeroDivisionError, ValueError):
        return None
    if res.exact_zero:
        return exact_metric
    return None


def find_compatible_metric(alg: LieAlgebra, cfg: SearchConfig) -> SearchResult:
    """Multi-restart search for a metric making the algebra compatible.

    Restart streams derive from (rng_seed, restart index), so the log is
    reproducible and independent of scheduling. The loop stops at the first
    admissible metric under the residual tolerance. Not finding one is a
    value, not an error: the log then carries the evidence.
    """
    n = alg.dim
    constraint = cfg.signature_constraint
    if isinstance(constraint, tuple) and sum(constraint) != n:
        raise ValueError("fixed signature counts must add up to the dimension")
    mode = "positive_definite" if constraint == "positive_definite" else "unconstrained"
    algf = alg.to_float()
    c = algf.structure_array()
    cost_tol = (0.02 * cfg.residual_tol) ** 2
    fun = lambda th: _residual_jacobian(c, th, mode, cfg.degeneracy_floor)

    def outside_domain(th):
        a = _decode(th, n, mode)
        norm = float(np.linalg.norm(a))
        if not np.isfinite(norm) or norm == 0.0:
            return True
        d = float(np.linalg.det(a / norm))
        return not np.isfinite(d) or abs(d) < cfg.degeneracy_floor

    log = []
    best_res = float("inf")
    best_metric = None
    for rix in range(cfg.restarts):
        rng = np.random.default_rng([cfg.rng_seed, rix])
        theta0 = _initial_theta(n, mode, rng)
        theta, cost, iters = _minimize(fun, theta0, cfg.max_iters, cost_tol,
                                       stop=outside_domain)
        a = _decode(theta, n, mode)
        norm = float(np.linalg.norm(a))
        admissible = norm > 0.0 and np.isfinite(cost)
        residual = float("inf")
        if admissible:
            ahat = a / norm
            # a probe that slid toward the degenerate boundary is not a
            # candidate metric; its vanishing residual is an artifact
            admissible = abs(float(np.linalg.det(ahat))) >= cfg.degeneracy_floor
        if admissible:
            metric = Metric.from_rows(ahat.tolist(), exact=False)
            admissible = _admissible(metric, constraint)
            if admissible:
                try:
                    residual = compatibility_residual(algf, metric).value
                except (DegenerateMetricError, np.linalg.LinAlgError):
                    admissible = False
                    residual = float("inf")
        log.append(RestartRecord(rix, residual, iters, admissible))
        if admissible and residual < best_res:
            best_res = residual
            best_metric = metric
        if admissible and residual <= cfg.residual_tol:
            break
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


class FamilyParams(NamedTuple):
    """Parameters of the three-dimensional solvable family."""

    alpha: object
    beta: object
    gamma: object

    def discriminant(self):
        return self.alpha * self.alpha + self.beta * self.gamma

    def mirrored(self) -> "FamilyParams":
        """Parameters after swapping the second and third basis vectors."""
        return FamilyParams(-self.alpha, self.gamma, self.beta)


def predicted_existence(params: FamilyParams, positive_definite: bool) -> bool:
    """Stated existence condition for the family, read in the given basis.

    Positive definite: discriminant < 0 and gamma > beta. Indefinite
    allowed: discriminant nonzero. The positive-definite inequality on
    gamma - beta is basis-dependent; verify_classification accounts for
    that separately.
    """
    s = params.discriminant()
    if positive_definite:
        return s < 0 and params.gamma > params.beta
    return s != 0


@dataclass(frozen=True, eq=False)
class ClassificationCase:
    name: str
    mode: str
    params: FamilyParams | None
    predicted: bool
    found: bool
    outcome: str
    residual: float
    note: str = ""


@dataclass(frozen=True, eq=False)
class ClassificationReport:
    cases: tuple
    sample_count: int
    rng_seed: int

    def tally(self, outcome: str) -> int:
        return sum(1 for c in self.cases if c.outcome == outcome)

    @property
    def hard_disagreements(self) -> int:
        return self.tally("hard_disagree")

    @property
    def ok(self) -> bool:
        return self.hard_disagreements == 0


def _family_outcome(params: FamilyParams, positive_definite: bool,
                    predicted: bool, found: bool):
    """Judge a search outcome against the classification, read invariantly.

    The discriminant sign survives every change of basis preserving the
    family's shape, while the gamma > beta clause flips under swapping the
    last two basis vectors; members with zero discriminant and nonzero
    parameters are nilpotent and isomorphic to the Heisenberg algebra. A
    found metric only counts as a hard disagreement when no reading allows
    one.
    """
    s = params.discriminant()
    if positive_definite:
        exists = s < 0
    else:
        exists = True
    note = ""
    if found and exists and not predicted:
        if positive_definite:
            note = ("stated inequality fails here but holds for the mirrored "
                    f"presentation {tuple(params.mirrored())}")
        else:
            note = ("zero discriminant with nonzero parameters: isomorphic to "
                    "the Heisenberg algebra, which admits an indefinite metric")
        return "basis_variance", note
    if found and not exists:
        return "hard_disagree", "metric found where the classification forbids one"
    if not found and exists:
        return "soft_disagree", "no metric found; search failure is evidence only"
    return "agree", note


def _fixed_outcome(predicted: bool, found: bool):
    if found and not predicted:
        return "hard_disagree", "metric found where the classification forbids one"
    if not found and predicted:
        return "soft_disagree", "no metric found; search failure is evidence only"
    return "agree", ""


def _sample_family_params(sample_count: int, rng: np.random.Generator) -> list:
    """Stratified rational triples covering both discriminant signs,
    both orders of gamma versus beta, and the degenerate boundary."""

    def draw() -> Fraction:
        num = int(rng.integers(-3, 4))
        den = int(rng.integers(1, 5))
        return Fraction(num, den)

    strata = [(-1, 1), (-1, -1), (1, 1), (1, -1), (0, 1), (0, -1)]
    base = sample_count // len(strata)
    counts = {key: base for key in strata}
    for k in range(sample_count - base * len(strata)):
        counts[strata[k]] += 1
    out = []
    for (s_sign, gb_sign), want in counts.items():
        got = 0
        while got < want:
            if s_sign == 0:
                alpha = draw()
                beta = draw()
                if beta == 0:
                    continue
                # gamma - beta = -(alpha^2 + beta^2)/beta, so its sign is -sign(beta)
                if (beta < 0) != (gb_sign > 0):
                    continue
                gamma = -alpha * alpha / beta
                p = FamilyParams(alpha, beta, gamma)
            else:
                p = FamilyParams(draw(), draw(), draw())
                s = p.discriminant()
                gb = p.gamma - p.beta
                if s == 0 or gb == 0:
                    continue
                if (s > 0) != (s_sign > 0) or (gb > 0) != (gb_sign > 0):
                    continue
            if p.alpha == 0 and p.beta == 0 and p.gamma == 0:
                continue
            out.append(p)
            got += 1
    return out


DEFAULT_SWEEP_CONFIG = SearchConfig(restarts=16, max_iters=200, rng_seed=20260822)


def verify_classification(sample_count: int = 42,
                          cfg: SearchConfig | None = None,
                          dims=(2, 3)) -> ClassificationReport:
    """Sweep low-dimensional algebras and compare search with prediction.

    Covers the two-dimensional abelian and nonabelian algebras, the
    Heisenberg algebra, and a stratified sample of the solvable family, in
    both the positive-definite and unconstrained modes. A hard disagreement
    means a certified metric exists where the classification says none can.
    """
    if cfg is None:
        cfg = DEFAULT_SWEEP_CONFIG
    rng = np.random.default_rng([cfg.rng_seed, 104729])
    cases = []

    fixed = []
    if 2 in dims:
        fixed += [("abelian2", catalog.abelian(2), True, True),
                  ("affine_line", catalog.affine_line(), False, False)]
    if 3 in dims:
        fixed += [("heisenberg", catalog.heisenberg(), False, True)]
    for name, alg, pd_pred, any_pred in fixed:
        for mode, predicted in (("positive_definite", pd_pred), ("none", any_pred)):
            sub = replace(cfg, signature_constraint=mode)
            res = find_compatible_metric(alg, sub)
            outcome, note = _fixed_outcome(predicted, res.found)
            cases.append(ClassificationCase(
                name=name, mode=mode, params=None, predicted=predicted,
                found=res.found, outcome=outcome, residual=res.best_residual,
                note=note))

    family = _sample_family_params(sample_count, rng) if 3 in dims else []
    for params in family:
        alg = catalog.solvable_family(*params)
        for mode in ("positive_definite", "none"):
            pd = mode == "positive_definite"
            predicted = predicted_existence(params, pd)
            sub = replace(cfg, signature_constraint=mode)
            res = find_compatible_metric(alg, sub)
            outcome, note = _family_outcome(params, pd, predicted, res.found)
            cases.append(ClassificationCase(
                name=f"family{tuple(params)}", mode=mode, params=params,
                predicted=predicted, found=res.found, outcome=outcome,
                residual=res.best_residual, note=note))
    return ClassificationReport(cases=tuple(cases), sample_count=sample_count,
                                rng_seed=cfg.rng_seed)
