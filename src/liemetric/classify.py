"""The classification sweep: search outcomes against the paper's classification.

The sweep runs the feasibility search on the two- and three-dimensional
catalog plus a stratified sample of the three-parameter solvable family, in
the positive-definite and the unconstrained modes, and judges each outcome
against the classification read invariantly. A metric found where no reading
of the classification allows one is a hard failure; a failed search where one
should exist is only evidence and is reported as soft.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import catalog
from .search import SearchConfig, find_compatible_metric


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
    """One search of the sweep and its judgement. restarts_run and iterations
    (summed over the restarts) are deterministic; seconds is the search's
    wall time, left out of repr and comparisons."""

    name: str
    mode: str
    params: FamilyParams | None
    predicted: bool
    found: bool
    outcome: str
    residual: float
    note: str = ""
    restarts_run: int = 0
    iterations: int = 0
    seconds: float = field(default=0.0, repr=False, compare=False)


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


def _outcome(found: bool, predicted: bool, exists: bool, variance_note: str):
    """Judge a search outcome against the classification: (outcome, note).

    ``predicted`` is the stated condition read in the given basis; ``exists``
    is whether some reading of the classification allows a metric (for a
    fixed case, its prediction). A find is a hard disagreement when no
    reading allows one, and basis variance, noted by ``variance_note``, when
    only the stated reading forbids it.
    """
    if found and not exists:
        return "hard_disagree", "metric found where the classification forbids one"
    if found and not predicted:
        return "basis_variance", variance_note
    if not found and exists:
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


def _cases(sample_count: int, rng: np.random.Generator, dims):
    """The sweep's searches in order, each as (name, algebra, params, mode,
    predicted, exists, variance_note); see ``_outcome``."""
    fixed = []
    if 2 in dims:
        fixed += [("abelian2", catalog.abelian(2), True, True),
                  ("affine_line", catalog.affine_line(), False, False)]
    if 3 in dims:
        fixed += [("heisenberg", catalog.heisenberg(), False, True)]
    for name, alg, pd_pred, any_pred in fixed:
        for mode, predicted in (("positive_definite", pd_pred), ("none", any_pred)):
            yield name, alg, None, mode, predicted, predicted, ""
    for params in _sample_family_params(sample_count, rng) if 3 in dims else []:
        name, alg = f"family{tuple(params)}", catalog.solvable_family(*params)
        # the discriminant sign survives every change of basis keeping the
        # family's shape; the gamma > beta clause flips under swapping the
        # last two basis vectors
        yield (name, alg, params, "positive_definite", predicted_existence(params, True),
               params.discriminant() < 0,
               "stated inequality fails here but holds for the mirrored "
               f"presentation {tuple(params.mirrored())}")
        # with any signature allowed every member admits a metric: one with
        # zero discriminant and nonzero parameters is nilpotent
        yield (name, alg, params, "none", predicted_existence(params, False), True,
               "zero discriminant with nonzero parameters: isomorphic to "
               "the Heisenberg algebra, which admits an indefinite metric")


DEFAULT_SWEEP_CONFIG = SearchConfig(restarts=16, max_iters=200, rng_seed=20260822)


def verify_classification(sample_count: int = 42,
                          cfg: SearchConfig | None = None,
                          dims=(2, 3)) -> ClassificationReport:
    """Sweep low-dimensional algebras and compare search with prediction.

    Covers the two-dimensional abelian and nonabelian algebras, the
    Heisenberg algebra, and a stratified sample of the solvable family, in
    both the positive-definite and unconstrained modes. A hard disagreement
    means the search found a metric, exactly certified or float-only, where
    no reading of the classification allows one.
    """
    if cfg is None:
        cfg = DEFAULT_SWEEP_CONFIG
    rng = np.random.default_rng([cfg.rng_seed, 104729])
    cases = []
    for name, alg, params, mode, predicted, exists, variance_note in _cases(
            sample_count, rng, dims):
        started = time.perf_counter()
        res = find_compatible_metric(alg, replace(cfg, signature_constraint=mode))
        seconds = time.perf_counter() - started
        outcome, note = _outcome(res.found, predicted, exists, variance_note)
        cases.append(ClassificationCase(
            name=name, mode=mode, params=params, predicted=predicted,
            found=res.found, outcome=outcome, residual=res.best_residual, note=note,
            restarts_run=len(res.log), iterations=sum(rec.iterations for rec in res.log),
            seconds=seconds))
    return ClassificationReport(cases=tuple(cases), sample_count=sample_count,
                                rng_seed=cfg.rng_seed)
