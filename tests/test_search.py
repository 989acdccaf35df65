"""Feasibility search, its gradient, and the classification harness."""

import ast
import inspect
import warnings
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from liemetric import (
    DegenerateMetricError,
    InvalidStructureError,
    LieAlgebra,
    Metric,
    SearchConfig,
    abelian,
    affine_line,
    by_name,
    compat_objective,
    compatibility_residual,
    euclidean_motions,
    find_compatible_metric,
    heisenberg,
    heisenberg_split_metric,
    levi_civita_product,
    predicted_existence,
    sol,
    solvable_family,
    verify_classification,
)
from liemetric import classify, rational, search
from liemetric.classify import FamilyParams
from liemetric.metric import _defect_array, _product_rhs
from liemetric.scalars import rationalize
from liemetric.search import (_BATCH_BYTES, _PENALTY, STOP_REASONS, RestartRecord,
                              SearchResult, _batch_size, _decode,
                              _initial_theta, _minimize, _normal_equations, _off_domain,
                              _problem, _residual_jacobian, _squares,
                              _try_exact_certificate, param_count)
from conftest import random_algebra

_FLOOR = search.DEGENERACY_FLOOR


def _config(monkeypatch, kw, **base):
    """SearchConfig(**base, **kw), with kw's "floor", else the default, set
    as the search's degeneracy floor."""
    kw = dict(kw)
    monkeypatch.setattr(search, "DEGENERACY_FLOOR", kw.pop("floor", _FLOOR))
    return SearchConfig(**{**base, **kw})


def quick(mode="none", restarts=12, seed=0, iters=200):
    return SearchConfig(signature_constraint=mode, restarts=restarts,
                        max_iters=iters, rng_seed=seed)


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(restarts=0)
    with pytest.raises(ValueError):
        SearchConfig(residual_tol=0.0)
    for tol in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            SearchConfig(residual_tol=tol)
    with pytest.raises(ValueError):
        SearchConfig(max_iters=-1)
    SearchConfig(max_iters=0)
    with pytest.raises(ValueError):
        SearchConfig(signature_constraint="diagonal")
    SearchConfig(signature_constraint=(2, 1))


@pytest.mark.parametrize("field,value", [
    ("restarts", 2.5),
    ("restarts", True),
    ("restarts", "8"),
    ("max_iters", 3.5),
    ("max_iters", False),
    ("rng_seed", -1),
    ("rng_seed", 1.5),
    ("rng_seed", True),
    ("residual_tol", "1e-10"),
])
def test_config_rejects_counts_seeds_and_floors_at_construction(field, value):
    with pytest.raises(ValueError, match=field):
        SearchConfig(**{field: value})


def test_config_takes_integral_counts_as_int():
    cfg = SearchConfig(restarts=np.int64(3), max_iters=np.int32(0), rng_seed=np.uint8(7))
    assert (cfg.restarts, cfg.max_iters, cfg.rng_seed) == (3, 0, 7)
    assert all(type(v) is int for v in (cfg.restarts, cfg.max_iters, cfg.rng_seed))


def test_fixed_signature_must_fit_dimension():
    with pytest.raises(ValueError):
        find_compatible_metric(abelian(2), SearchConfig(signature_constraint=(2, 1)))


def test_config_takes_a_signature_pair_of_integral_counts_as_int():
    cfg = SearchConfig(signature_constraint=(np.int64(2), np.int64(1)))
    assert cfg.signature_constraint == (2, 1)
    assert all(type(v) is int for v in cfg.signature_constraint)
    for pair in ((True, 2), (2.0, 1), (np.int64(-1), 4), (1, 2, 0)):
        with pytest.raises(ValueError, match="pair of counts"):
            SearchConfig(signature_constraint=pair)


def test_objective_refuses_an_unknown_mode():
    theta = np.zeros(param_count(3))
    assert compat_objective(heisenberg(), theta, "positive_definite")[0] == 1.0
    for mode in ("positive-definite", "none", "pd"):
        with pytest.raises(ValueError, match="mode"):
            compat_objective(heisenberg(), theta, mode)


@pytest.mark.parametrize("make,definite", [
    (euclidean_motions, True), (heisenberg, False),
    (lambda: solvable_family(Fraction(1, 2), -2, 3), True),
    (lambda: solvable_family(Fraction(1, 3), -1, 1), True),
    (lambda: abelian(2), True), (lambda: abelian(3), True), (affine_line, False), (sol, False),
], ids=["euclidean_motions", "heisenberg", "family(1/2,-2,3)", "family(1/3,-1,1)",
        "abelian2", "abelian3", "affine_line", "sol"])
def test_definite_signatures_search_positive_definite_metrics(make, definite):
    """A signature with a zero count searches the Cholesky factor: (n, 0) is
    the positive definite search, bit for bit, and (0, n) is the same search
    with each end point negated, so its log is that search's, residual bits
    included, and its metric is that metric negated."""
    alg = make()
    n = alg.dim
    for seed in range(4):
        pd, plus, minus = (find_compatible_metric(alg, quick(mode, 8, seed, iters=100))
                           for mode in ("positive_definite", (n, 0), (0, n)))
        for res in (plus, minus):
            assert res.log == pd.log
            assert [_bits([rec.residual, rec.final_lambda]) for rec in res.log] == \
                [_bits([rec.residual, rec.final_lambda]) for rec in pd.log]
            assert (res.status, res.exact_certificate) == (pd.status, pd.exact_certificate)
            assert _bits(res.best_residual) == _bits(pd.best_residual)
        if pd.best_metric is None:
            assert plus.best_metric is minus.best_metric is None
        else:
            assert plus.best_metric.matrix == pd.best_metric.matrix
            assert minus.best_metric.matrix == tuple(map(tuple, _negated(pd.best_metric)))
        if minus.found:
            assert minus.best_metric.signature() == (0, n)
        assert pd.found == definite


def test_abelian_found_immediately():
    for mode in ("none", "positive_definite"):
        res = find_compatible_metric(abelian(3), quick(mode, restarts=2))
        assert res.found and res.status == "found"
        assert res.best_residual == 0.0
        assert res.exact_certificate


def test_heisenberg_any_signature_finds_exact():
    res = find_compatible_metric(heisenberg(), quick())
    assert res.found and res.exact_certificate
    check = compatibility_residual(heisenberg(), res.best_metric)
    assert check.exact_zero is True


def test_heisenberg_positive_definite_fails():
    res = find_compatible_metric(heisenberg(), quick("positive_definite", restarts=30))
    assert res.status == "not_found"
    assert res.best_residual > 1e-3


def test_found_metric_respects_fixed_signature():
    res = find_compatible_metric(heisenberg(), quick((1, 2), restarts=30))
    if res.found:
        assert res.best_metric.signature() == (1, 2)


def test_affine_line_not_found_with_evidence():
    res = find_compatible_metric(affine_line(), quick(restarts=20))
    assert res.status == "not_found"
    assert res.best_residual > 0.9
    assert len(res.log) == 20
    assert res.config.rng_seed == 0


def test_determinism_bitwise():
    a = find_compatible_metric(sol(), quick(restarts=10, seed=7))
    b = find_compatible_metric(sol(), quick(restarts=10, seed=7))
    assert a.log == b.log
    assert a.best_residual == b.best_residual


def test_seed_changes_log():
    a = find_compatible_metric(affine_line(), quick(restarts=5, seed=1))
    b = find_compatible_metric(affine_line(), quick(restarts=5, seed=2))
    assert a.log != b.log


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    for alg in [heisenberg(), affine_line(), sol()]:
        n = alg.dim
        for mode in ("unconstrained", "positive_definite"):
            for _ in range(4):
                theta = rng.standard_normal(param_count(n)) * 0.6
                _, grad = compat_objective(alg, theta, mode=mode)
                eps = 1e-6
                for t in range(len(theta)):
                    up, down = theta.copy(), theta.copy()
                    up[t] += eps
                    down[t] -= eps
                    fu, _ = compat_objective(alg, up, mode=mode)
                    fd, _ = compat_objective(alg, down, mode=mode)
                    num = (fu - fd) / (2 * eps)
                    scale = max(1.0, abs(num), abs(grad[t]))
                    assert abs(num - grad[t]) / scale < 1e-5


def test_objective_zero_on_certificate():
    # encode the known flat certificate for the rotation-translation algebra
    n = 3
    theta = np.zeros(param_count(n))
    # identity in vech order
    for t, (i, j) in enumerate(_seq_vech(n)):
        theta[t] = 1.0 if i == j else 0.0
    val, _ = compat_objective(euclidean_motions(), theta)
    assert val < 1e-28


def test_predicted_existence_table():
    assert predicted_existence(FamilyParams(0, -1, 1), positive_definite=True)
    assert not predicted_existence(FamilyParams(0, 1, -1), positive_definite=True)
    assert not predicted_existence(FamilyParams(1, 0, 0), positive_definite=True)
    assert predicted_existence(FamilyParams(1, 0, 0), positive_definite=False)
    assert not predicted_existence(FamilyParams(0, 1, 0), positive_definite=False)


def test_family_params_helpers():
    p = FamilyParams(Fraction(1), Fraction(2), Fraction(-3))
    assert p.discriminant() == 1 - 6
    m = p.mirrored()
    assert m == FamilyParams(Fraction(-1), Fraction(-3), Fraction(2))
    assert m.discriminant() == p.discriminant()


def test_mirror_is_isomorphism():
    # swapping the last two basis vectors carries one presentation to the
    # mirrored one
    p = FamilyParams(Fraction(1, 2), Fraction(3), Fraction(-2))
    alg = solvable_family(*p)
    swap = [[Fraction(1), 0, 0], [0, 0, Fraction(1)], [0, Fraction(1), 0]]
    moved = alg.changed_basis(swap)
    mirrored = solvable_family(*p.mirrored())
    assert moved.c == mirrored.c


def test_gamma_beta_condition_is_presentation_bound():
    """The positive-definite criterion can fail verbatim yet hold after the
    swap isomorphism; search confirms the metric exists either way."""
    p = FamilyParams(0, 1, -1)
    assert not predicted_existence(p, positive_definite=True)
    assert predicted_existence(p.mirrored(), positive_definite=True)
    res = find_compatible_metric(solvable_family(*p),
                                 quick("positive_definite", restarts=12))
    assert res.found
    exact = compatibility_residual(solvable_family(*p), res.best_metric)
    assert exact.exact_zero is True or res.best_residual < 1e-11


def test_classification_smoke():
    rep = verify_classification(sample_count=6)
    assert rep.ok
    assert rep.hard_disagreements == 0
    names = {c.name for c in rep.cases}
    assert "heisenberg" in names and "abelian2" in names
    assert rep.tally("agree") >= 6


def test_every_positive_definite_find_of_the_sweep_is_unimodular():
    """The paper's theorem: every Riemann-Lie algebra is unimodular. So each
    positive-definite case of the default sweep that finds a metric, with an
    exact certificate or float-only, is on an algebra with every ad
    trace-free, and the metric is positive definite. The cases are drawn
    as ``verify_classification(42)`` draws them; both kinds of find occur."""
    cfg = replace(classify.DEFAULT_SWEEP_CONFIG, signature_constraint="positive_definite")
    rng = np.random.default_rng([cfg.rng_seed, 104729])
    certified = []
    for name, alg, _, mode, *_ in classify._cases(42, rng, (2, 3)):
        if mode == "positive_definite":
            res = find_compatible_metric(alg, cfg)
            if res.found:
                assert alg.is_unimodular().unimodular, name
                assert res.best_metric.is_positive_definite(), name
                certified.append(res.exact_certificate)
    assert True in certified and False in certified


def test_classification_dim_filter():
    rep = verify_classification(sample_count=4, dims=(2,))
    assert {c.name for c in rep.cases} == {"abelian2", "affine_line"}
    assert rep.ok


_HARD = ("hard_disagree", "metric found where the classification forbids one")
_SOFT = ("soft_disagree", "no metric found; search failure is evidence only")
# (found, predicted, exists) -> (outcome, note) of a sweep case; None stands
# for the case's own basis-variance note
OUTCOME_TABLE = {
    (True, True, True): ("agree", ""),
    (True, True, False): _HARD,
    (True, False, True): ("basis_variance", None),
    (True, False, False): _HARD,
    (False, True, True): _SOFT,
    (False, True, False): ("agree", ""),
    (False, False, True): _SOFT,
    (False, False, False): ("agree", ""),
}


@pytest.mark.parametrize("variance_note", ["", "holds for the mirrored presentation"],
                         ids=["fixed", "family"])
@pytest.mark.parametrize("found, predicted, exists", list(OUTCOME_TABLE))
def test_outcome_table(found, predicted, exists, variance_note):
    outcome, note = OUTCOME_TABLE[(found, predicted, exists)]
    want = (outcome, variance_note if note is None else note)
    assert classify._outcome(found, predicted, exists, variance_note) == want


@pytest.mark.parametrize("found", [True, False])
def test_sweep_judges_each_case_by_its_invariant_existence(monkeypatch, found):
    """Every search of a sweep forced to one result: fixed cases exist as
    predicted; family cases exist by the discriminant in positive-definite
    mode and always otherwise, with the note of their mode."""
    stub = SearchResult(status="found" if found else "not_found", best_metric=None,
                        best_residual=0.0, exact_certificate=False, log=(),
                        config=SearchConfig())
    monkeypatch.setattr(classify, "find_compatible_metric", lambda alg, cfg: stub)
    rep = verify_classification(sample_count=12)
    for case in rep.cases:
        if case.params is None:
            exists, variance_note = case.predicted, ""
        elif case.mode == "positive_definite":
            exists = case.params.discriminant() < 0
            variance_note = ("stated inequality fails here but holds for the mirrored "
                             f"presentation {tuple(case.params.mirrored())}")
        else:
            exists = True
            variance_note = ("zero discriminant with nonzero parameters: isomorphic to "
                             "the Heisenberg algebra, which admits an indefinite metric")
        outcome, note = OUTCOME_TABLE[(found, case.predicted, exists)]
        assert (case.outcome, case.note) == (outcome, variance_note if note is None else note)
    assert len(rep.cases) == 6 + 24
    assert {case.outcome for case in rep.cases} == (
        {"agree", "basis_variance", "hard_disagree"} if found else {"agree", "soft_disagree"})


def test_sweep_lives_in_classify_and_search_does_not_import_it():
    import liemetric
    for name in ("ClassificationReport", "predicted_existence", "verify_classification"):
        assert getattr(liemetric, name) is getattr(classify, name)
        assert not hasattr(search, name)
    tree = ast.parse(inspect.getsource(search))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported |= {node.module or ""} | {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    assert not any("classify" in name for name in imported)


def test_inadmissible_probes_logged_not_best():
    cfg = quick("positive_definite", restarts=20, iters=500)
    res = find_compatible_metric(heisenberg(), cfg)
    assert any(not rec.admissible for rec in res.log)
    for rec in res.log:
        if not rec.admissible:
            assert rec.residual == float("inf")


def reference_residual_jacobian(c, theta, mode):
    """Residual, Jacobian and the Jacobian's operand scale, with one solve and
    explicit contractions per parameter direction, coded apart from the
    search's batched kernels. The scale is max|c| * max|da| over the metric
    directions da: the size of the products in the right sides of the
    perturbed solves, where the Jacobian's rounding starts."""
    n = c.shape[0]
    if mode == "positive_definite":
        low = np.zeros((n, n))
        low[np.diag_indices(n)] = np.exp(theta[:n])
        low[np.tril_indices(n, -1)] = theta[n:]
        a = low @ low.T
        units = []
        for k in range(n):
            dc = np.zeros((n, n))
            dc[k, k] = low[k, k]
            units.append(dc)
        for i, j in zip(*np.tril_indices(n, -1)):
            dc = np.zeros((n, n))
            dc[i, j] = 1.0
            units.append(dc)
        dirs = [dc @ low.T + low @ dc.T for dc in units]
    else:
        a = np.zeros((n, n))
        dirs = []
        for t, (i, j) in enumerate(zip(*np.tril_indices(n))):
            a[i, j] = a[j, i] = theta[t]
            e = np.zeros((n, n))
            e[i, j] = e[j, i] = 1.0
            dirs.append(e)

    def rhs(m):
        return (np.einsum("ijm,mk->ijk", c, m) + np.einsum("kim,mj->ijk", c, m)
                + np.einsum("kjm,mi->ijk", c, m))

    def solve(b):
        return np.linalg.solve(2.0 * a, b.reshape(-1, n).T).T.reshape(n, n, n)

    def defect(x):
        return np.einsum("ijm,mkl->ijkl", x, c) + np.einsum("iml,kjm->ijkl", c, x)

    x = solve(rhs(a))
    r = defect(x).ravel()
    jac = np.stack([defect(solve(rhs(da) - 2.0 * np.einsum("ijm,mk->ijk", x, da))).ravel()
                    for da in dirs], axis=1)
    return r, jac, np.max(np.abs(c)) * max(np.max(np.abs(da)) for da in dirs)


def _random_structure(rng, n):
    c = rng.standard_normal((n, n, n))
    return c - c.transpose(1, 0, 2)


def _solo(c, theta, mode, floor):
    """The search's residual and Jacobian at one point, with the given floor."""
    r, jac, _ = _residual_jacobian(_problem(c, mode)._replace(floor=floor), theta[None])
    return r[0], jac[0]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("mode,floor", [("unconstrained", 1e-8),
                                        ("positive_definite", 1e-8)])
def test_batched_jacobian_matches_per_direction_reference(n, mode, floor):
    """The Jacobian agrees with the reference to 1e-12 of the larger of its
    size and its operands' scale S. At n = 2 the random algebras' defect
    does not depend on the metric, so the reference Jacobian is rounding
    noise (1e-16 to 1e-14) and only S gives the bound a size; at n >= 3 S is
    below max|jac_ref| in every case here, so the bound is relative to the
    Jacobian."""
    rng = np.random.default_rng(100 + n)
    for _ in range(3):
        c = _random_structure(rng, n)
        theta = rng.standard_normal(param_count(n)) * 0.6
        if mode == "unconstrained":
            theta[[t * (t + 3) // 2 for t in range(n)]] += 2.0  # diagonal: keep 2a well conditioned
        r, jac = _solo(c, theta, mode, floor)
        r_ref, jac_ref, scale = reference_residual_jacobian(c, theta, mode)
        assert jac.shape == jac_ref.shape == (n ** 4, param_count(n))
        assert jac.flags.c_contiguous
        assert np.max(np.abs(r - r_ref)) <= 1e-12 * np.max(np.abs(r_ref))
        assert n == 2 or scale <= np.max(np.abs(jac_ref))
        assert np.max(np.abs(jac - jac_ref)) <= 1e-12 * max(np.max(np.abs(jac_ref)), scale)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_residual_stage_product_is_within_the_rounding_bound_of_exact_arithmetic(n):
    """The product tensor x of the residual stage, at the first four seeded
    starting points in the domain of each mode, is within k n u kappa(2a)
    max|X| of X, the product of the same float metric read exactly as
    Fractions, solved by ``levi_civita_product``; u is the unit roundoff and
    k = 4. The structure constants are integers, so c is exact in float
    too. x passes three rounding stages, each adding at most about
    n u kappa(2a) max|X| when the right sides cancel no more than their
    terms do: the right sides (sums of n products), the inverse of 2a by an
    LU factorisation with partial pivoting, whose pivot growth is small at
    these sizes, and the sums of n products by that inverse. The fourth unit
    is headroom for that growth; the worst ratio of the error to the bound
    at k = 1 is 0.33, at n = 3."""
    u = np.finfo(float).eps / 2
    algebras = [affine_line()] if n == 2 else [_sheared("heisenberg", n), _sheared("sol", n)]
    for alg in algebras:
        c = alg.to_float().structure_array()
        for mode in ("unconstrained", "positive_definite"):
            prob = _problem(c, mode)
            rng = np.random.default_rng([20261020, n, mode == "unconstrained"])
            points = 0
            while points < 4:
                theta = _initial_theta(n, mode, rng)
                a = _decode(theta[None], prob)[0]
                if _off_domain(prob, a)[0]:
                    continue
                points += 1
                _, _, x, _ = search._residuals(prob, theta[None])[1].state
                x = x[0]
                exact = Metric.from_rows([[Fraction(v) for v in row] for row in a[0].tolist()],
                                         exact=True)
                want = levi_civita_product(alg, exact).as_array()
                error = max(abs(Fraction(got) - w)
                            for got, w in zip(x.ravel().tolist(), want.ravel().tolist()))
                scale = max(abs(w) for w in want.ravel().tolist())
                bound = 4 * n * u * np.linalg.cond(2.0 * a[0]) * float(scale)
                assert error <= Fraction(bound), (alg.name, mode)


def _counting_linalg(monkeypatch):
    """Count the calls of np.linalg.solve and np.linalg.inv by name."""
    calls = Counter()

    def counted(name):
        call = getattr(np.linalg, name)

        def counting(*args, **kw):
            calls[name] += 1
            return call(*args, **kw)
        return counting

    for name in ("solve", "inv"):
        monkeypatch.setattr(np.linalg, name, counted(name))
    return calls


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_residual_and_jacobian_stage_inverts_once_and_solves_nothing(n, monkeypatch):
    """One stacked inversion of 2a serves the products and every direction
    of every point, in both modes and at any stack size."""
    calls = _counting_linalg(monkeypatch)
    rng = np.random.default_rng(n)
    c = _random_structure(rng, n)
    for mode in ("unconstrained", "positive_definite"):
        for stack in (1, 5):
            theta = rng.standard_normal((stack, param_count(n))) * 0.6
            calls.clear()
            _residual_jacobian(_problem(c, mode), theta)
            assert (calls["inv"], calls["solve"]) == (1, 0)


# --- one restart at a time: the search before lockstep, kept as reference ---
# The kernels and the optimizer below are the search as it ran one restart
# after another, verbatim apart from their names; the domain rule, the
# signature rule and the certificate of the restart loop are coded from
# their definitions. The lockstep search must reproduce their logs, results
# and final iterates bit for bit.

def _seq_vech(n):
    return [(i, j) for i in range(n) for j in range(i + 1)]


def _seq_lower(n):
    return [(i, j) for i in range(n) for j in range(i)]


def _seq_factor(theta, n):
    c = np.zeros((n, n))
    for k in range(n):
        c[k, k] = np.exp(theta[k])
    for t, (i, j) in enumerate(_seq_lower(n)):
        c[i, j] = theta[n + t]
    return c


def _seq_decode(theta, n, mode):
    if mode == "positive_definite":
        c = _seq_factor(theta, n)
        return c @ c.T
    a = np.zeros((n, n))
    for t, (i, j) in enumerate(_seq_vech(n)):
        a[i, j] = a[j, i] = theta[t]
    return a


def _seq_decode_directions(theta, n, mode):
    units = np.zeros((param_count(n), n, n))
    if mode == "positive_definite":
        c = _seq_factor(theta, n)
        diag = np.arange(n)
        units[diag, diag, diag] = c[diag, diag]
        for t, (i, j) in enumerate(_seq_lower(n), start=n):
            units[t, i, j] = 1.0
        half = units @ c.T
        return half + half.transpose(0, 2, 1)
    for t, (i, j) in enumerate(_seq_vech(n)):
        units[t, i, j] = units[t, j, i] = 1.0
    return units


def _seq_residual_jacobian(c, theta, mode):
    n = c.shape[0]
    a = _seq_decode(theta, n, mode)
    nparams = len(theta)
    try:
        inv = np.linalg.inv(2.0 * a)
    except np.linalg.LinAlgError:
        return np.array([_PENALTY]), np.zeros((1, nparams))
    x = (_product_rhs(c, a).reshape(-1, n) @ inv).reshape(n, n, n)
    defect = _defect_array(c, x)
    r = defect.ravel()
    dirs = _seq_decode_directions(theta, n, mode)
    x_da = (x.reshape(1, n * n, n) @ dirs).reshape(nparams, n, n, n)
    rhs = _product_rhs(c, dirs) - 2.0 * x_da
    dx = (rhs.reshape(-1, n) @ inv).reshape(rhs.shape)
    jac = np.ascontiguousarray(_defect_array(c, dx).reshape(nparams, -1).T)
    return r, jac


def _seq_minimize(fun, theta0, max_iters, cost_tol, stop=None):
    theta = np.asarray(theta0, dtype=float)
    r, jac = fun(theta)
    cost = float(r @ r)
    lam = 1e-3
    iters = 0
    reason = "max_iters"
    while iters < max_iters:
        if cost <= cost_tol:
            reason = "converged"
            break
        iters += 1
        g = jac.T @ r
        if float(np.max(np.abs(g))) <= 1e-12 * cost:
            reason = "stationary"
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
                    reason = "stalled"
                    break
            else:
                lam *= 4.0
        except np.linalg.LinAlgError:
            lam *= 4.0
        if moved and stop is not None and stop(theta):
            reason = "left_domain"
            break
        if not moved and lam > 1e12:
            reason = "damping_blowup"
            break
    return theta, cost, iters, reason, lam


def _seq_problem(alg, cfg):
    """n, mode, the one-point residual and Jacobian and the domain test of the
    search of alg under cfg. A signature with a zero count is definite up to
    negation, so it searches positive definite metrics."""
    n = alg.dim
    target = _seq_target(cfg.signature_constraint, n)
    mode = "positive_definite" if target != "none" and 0 in target else "unconstrained"
    c = alg.to_float().structure_array()
    fun = lambda th: _seq_residual_jacobian(c, th, mode)
    outside_domain = lambda th: _seq_outside(_seq_decode(th, n, mode))
    return n, mode, fun, outside_domain


def _seq_target(constraint, n):
    return (n, 0) if constraint == "positive_definite" else constraint


def _seq_outside(a):
    """The domain rule from its definition: m(a) = |det a|^(1/n) / (|a|_F /
    sqrt(n)), the ratio of the geometric to the quadratic mean of the
    eigenvalue magnitudes, must be at least sqrt(3) DEGENERACY_FLOOR^(1/3).
    The metric is first scaled to unit norm, which m does not see, so the
    determinant stays in range."""
    n = len(a)
    norm = float(np.linalg.norm(a))
    if not np.isfinite(norm) or norm == 0.0:
        return True
    m = abs(float(np.linalg.det(a / norm))) ** (1 / n) * np.sqrt(n)
    return not m >= np.sqrt(3) * search.DEGENERACY_FLOOR ** (1 / 3)


def _seq_signed(metric, target):
    """metric if its signature is the target (any for "none"), its negation
    if the negation's is, else None; a degenerate metric is None."""
    try:
        p, q = metric.signature()
    except DegenerateMetricError:
        return None
    if target == "none" or (p, q) == tuple(target):
        return metric
    if (q, p) == tuple(target):
        return Metric.from_rows([[-x for x in row] for row in metric.matrix],
                                exact=metric.exact)
    return None


def sequential_find(alg, cfg):
    n, mode, fun, outside_domain = _seq_problem(alg, cfg)
    target = _seq_target(cfg.signature_constraint, n)
    algf = alg.to_float()
    cost_tol = (0.02 * cfg.residual_tol) ** 2
    log = []
    best_res = float("inf")
    best_metric = None
    for rix in range(cfg.restarts):
        rng = np.random.default_rng([cfg.rng_seed, rix])
        theta0 = _initial_theta(n, mode, rng)
        theta, cost, iters, reason, lam = _seq_minimize(fun, theta0, cfg.max_iters,
                                                        cost_tol, stop=outside_domain)
        off = outside_domain(theta)
        if off:
            reason = "left_domain"
        metric = None
        residual = float("inf")
        if np.isfinite(cost) and not off:
            a = _seq_decode(theta, n, mode)
            metric = _seq_signed(Metric.from_rows((a / float(np.linalg.norm(a))).tolist(),
                                                  exact=False), target)
            if metric is not None:
                residual = compatibility_residual(algf, metric).value
        admissible = metric is not None
        log.append(RestartRecord(rix, residual, iters, admissible, reason, lam))
        if admissible and residual < best_res:
            best_res = residual
            best_metric = metric
        if admissible and residual <= cfg.residual_tol:
            break
    if best_metric is not None and best_res <= cfg.residual_tol:
        exact_metric = reference_certificate(alg, best_metric, target)
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


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _sheared(name, n):
    """heisenberg or sol plus an abelian summand up to dimension n, in the
    basis of a fixed unipotent integer shear."""
    base = by_name(name)
    c = [[[base.c[i][j][k] if max(i, j, k) < base.dim else Fraction(0) for k in range(n)]
          for j in range(n)] for i in range(n)]
    shear = [[Fraction(int(i == j) + (i == j + 1) - 2 * (i == j + 2)) for j in range(n)]
             for i in range(n)]
    return LieAlgebra.from_structure(c, exact=True).changed_basis(shear)


FAMILY_TRIPLES = [(0, -1, 1), (1, 2, -3), (1, 0, 0), (Fraction(1, 2), 3, -2), (0, 1, -1),
                  (2, 1, 1), (-1, Fraction(1, 3), 2), (1, 1, -1), (0, 2, -2), (3, -1, 2),
                  (Fraction(-1, 2), -1, Fraction(1, 4)), (1, -2, Fraction(1, 2))]
CATALOG = ["abelian2", "abelian3", "affine_line", "heisenberg", "euclidean_motions", "sol"]


def _lockstep_cases():
    """(label, algebra factory, SearchConfig keywords): the catalog in the
    three kinds of constraint, twelve family triples in both modes, sheared
    heisenberg and sol at n = 4..6, 16 restarts, a degeneracy floor of
    1e-2, at which the domain rule ends more restarts, and the definite
    signatures (3, 0) and (0, 3)."""
    cases = []
    for name in CATALOG:
        dim = by_name(name).dim
        for mode in ("none", "positive_definite", (1, dim - 1)):
            cases.append((f"{name}/{mode}", lambda name=name: by_name(name),
                          dict(signature_constraint=mode)))
        cases.append((f"{name}/floor", lambda name=name: by_name(name), dict(floor=1e-2)))
    for name in ("heisenberg", "affine_line", "sol"):
        for mode in ("none", "positive_definite"):
            cases.append((f"{name}/{mode}/16", lambda name=name: by_name(name),
                          dict(signature_constraint=mode, restarts=16)))
    for t, triple in enumerate(FAMILY_TRIPLES):
        for mode in ("none", "positive_definite"):
            cases.append((f"family{t}/{mode}", lambda triple=triple: solvable_family(*triple),
                          dict(signature_constraint=mode)))
        if t % 3 == 0:
            cases.append((f"family{t}/floor", lambda triple=triple: solvable_family(*triple),
                          dict(floor=1e-2, restarts=16)))
    for n in (4, 5, 6):
        for name in ("heisenberg", "sol"):
            cases.append((f"sheared{n}/{name}", lambda name=name, n=n: _sheared(name, n),
                          dict(max_iters=50 if n < 6 else 20)))
    # definite signatures: algebras whose ad_e1 has a negative discriminant,
    # which find at once, and heisenberg, which finds nothing in 8 restarts
    for label, make in (("euclidean_motions", euclidean_motions), ("heisenberg", heisenberg),
                        ("family1", lambda: solvable_family(*FAMILY_TRIPLES[1])),
                        ("family3", lambda: solvable_family(*FAMILY_TRIPLES[3]))):
        for mode in ((3, 0), (0, 3)):
            cases.append((f"{label}/{mode}", make, dict(signature_constraint=mode)))
    return cases


@pytest.mark.parametrize("label,make,kw", _lockstep_cases(),
                         ids=[case[0] for case in _lockstep_cases()])
def test_lockstep_search_matches_sequential_reference(label, make, kw, monkeypatch):
    cfg = _config(monkeypatch, kw, restarts=8, max_iters=50, rng_seed=11)
    alg = make()
    res, ref = find_compatible_metric(alg, cfg), sequential_find(alg, cfg)
    assert res.log == ref.log
    assert [_bits([rec.residual, rec.final_lambda]) for rec in res.log] == \
        [_bits([rec.residual, rec.final_lambda]) for rec in ref.log]
    assert (res.status, res.exact_certificate) == (ref.status, ref.exact_certificate)
    assert _bits(res.best_residual) == _bits(ref.best_residual)
    if ref.best_metric is None:
        assert res.best_metric is None
    else:
        assert res.best_metric.exact == ref.best_metric.exact
        assert res.best_metric.matrix == ref.best_metric.matrix
        if not ref.best_metric.exact:
            assert _bits(res.best_metric.matrix) == _bits(ref.best_metric.matrix)


def test_triangle_masks_index_as_numpys_triangle_indices():
    """The search's index arrays, and the Jacobi check's pairs j < k, come
    from boolean masks; they equal numpy's triangle indices, values and
    dtype, so the parameter order and the slab offsets are those."""
    for n in range(1, 33):
        pairs = [(np.nonzero(~np.tri(n, dtype=bool)), np.triu_indices(n, 1))]
        if n <= search.MAX_SEARCH_DIM:
            prob = _problem(np.zeros((n, n, n)), "positive_definite")
            pairs += [(prob.lower, np.tril_indices(n, -1)), (prob.vech, np.tril_indices(n))]
        for got, want in pairs:
            assert all(g.dtype == w.dtype and np.array_equal(g, w)
                       for g, w in zip(got, want, strict=True))


@pytest.mark.parametrize("label,make,kw", [
    ("heisenberg/positive_definite", heisenberg, dict(signature_constraint="positive_definite")),
    ("heisenberg/(1, 2)", heisenberg, dict(signature_constraint=(1, 2))),
    ("sol/none/floor", sol, dict(floor=1e-2)),
    ("family/none", lambda: solvable_family(1, 2, -3), dict()),
    ("family/positive_definite", lambda: solvable_family(Fraction(1, 2), 3, -2),
     dict(signature_constraint="positive_definite")),
    ("sheared4/heisenberg", lambda: _sheared("heisenberg", 4), dict()),
], ids=lambda x: x if isinstance(x, str) else "")
def test_lockstep_restarts_end_where_sequential_restarts_end(label, make, kw, monkeypatch):
    """All restarts in one stack, run to their end: each one's final
    parameters, cost, iterations, exit and damping are those of the same
    restart run alone by the sequential optimizer."""
    cfg = _config(monkeypatch, kw, restarts=16, max_iters=60, rng_seed=5)
    alg = make()
    n, mode, fun, outside_domain = _seq_problem(alg, cfg)
    theta0 = np.array([_initial_theta(n, mode, np.random.default_rng([cfg.rng_seed, rix]))
                       for rix in range(cfg.restarts)])
    prob = _problem(alg.to_float().structure_array(), mode)
    cost_tol = (0.02 * cfg.residual_tol) ** 2
    ends = _minimize(lambda th: _residual_jacobian(prob, th), theta0, cfg.max_iters, cost_tol)
    exits = set()
    for start, (theta, cost, iters, reason, lam) in zip(theta0, ends):
        ref = _seq_minimize(fun, start, cfg.max_iters, cost_tol, stop=outside_domain)
        assert _bits(theta) == _bits(ref[0])
        assert _bits([cost, lam]) == _bits([ref[1], ref[4]])
        assert (iters, reason) == (ref[2], ref[3])
        exits.add((iters, reason))
    assert len(exits) > 1  # the restarts left the stack at different iterations


def test_stacked_reductions_match_each_slice_bitwise():
    """The cost, gradient and Gram matrix of a stack of n^4-component
    residuals, as in the search, equal r @ r, jac.T @ r and jac.T @ jac
    taken on each slice alone, whatever else is in the stack: batch
    invariance, on which the lockstep schedule relies."""
    rng = np.random.default_rng(8)
    for n in (2, 3, 4, 5, 6):
        m, width = param_count(n), n ** 4
        for _ in range(20):
            r = rng.standard_normal((9, width)) * 10.0 ** rng.integers(-8, 8, size=(9, width))
            jac = rng.standard_normal((9, width, m))
            r[3, 1:], jac[3] = 0.0, 0.0  # a penalty point
            cost = _squares(r)
            g, h = _normal_equations(r, jac)
            for k in range(9):
                rk, jk = r[k], jac[k]
                assert _bits(cost[k]) == _bits(rk @ rk)
                assert _bits(g[k]) == _bits(jk.T @ rk)
                assert _bits(h[k]) == _bits(jk.T @ jk)


def _unit_det(a):
    """|det(a / |a|_F)| of one metric, 0.0 for the zero metric."""
    norm = float(np.linalg.norm(a))
    return abs(float(np.linalg.det(a / norm))) if norm else 0.0


def test_domain_mask_matches_the_sequential_test_at_its_edge():
    """Off-domain flags of a stack equal the one-point test |det(a / |a|)| >=
    floor, with the problem's floor set to a point's own |det(a / |a|)|: any
    other rounding of the norm, such as ``np.linalg.norm(a, axis=(1, 2))``,
    could flip that point."""
    rng = np.random.default_rng(9)
    for n in (2, 3, 4, 5, 6):
        for mode in ("unconstrained", "positive_definite"):
            thetas = rng.standard_normal((12, param_count(n)))
            thetas[0] = 0.0  # the zero metric when unconstrained
            for k in range(1, 12):
                floor = _unit_det(_seq_decode(thetas[k], n, mode))
                prob = _problem(np.zeros((n, n, n)), mode)._replace(floor=floor)
                got = _off_domain(prob, _decode(thetas, prob)[0]).tolist()
                assert got == [not _unit_det(_seq_decode(th, n, mode)) >= floor for th in thetas]
                assert got[k] is False


def test_the_identity_is_on_the_domain_at_every_dimension_up_to_the_cap():
    """The floor on |det(a / |a|_F)| is DEGENERACY_FLOOR at n = 3 and the
    rule on m elsewhere; the identity, where m is 1, is on the domain from
    n = 1 to the cap, in both modes."""
    assert _problem(np.zeros((3, 3, 3)), "unconstrained").floor == _FLOOR
    for n in range(1, search.MAX_SEARCH_DIM + 1):
        for mode in ("unconstrained", "positive_definite"):
            prob = _problem(np.zeros((n, n, n)), mode)
            assert prob.floor == pytest.approx(
                (np.sqrt(3) * _FLOOR ** (1 / 3) / np.sqrt(n)) ** n, rel=1e-12)
            assert _off_domain(prob, np.eye(n)[None]).tolist() == [False]
            assert not _seq_outside(np.eye(n))


def test_singular_slice_takes_the_penalty_alone():
    """A singular metric in the stack makes the stacked product solve raise;
    that slice alone gets the penalty row, and every other slice keeps what
    it gets on its own."""
    rng = np.random.default_rng(12)
    c = _random_structure(rng, 3)
    prob = _problem(c, "unconstrained")
    thetas = rng.standard_normal((5, 6)) + np.array([2.0, 0, 2.0, 0, 0, 2.0])
    thetas[2] = 0.0  # a = 0
    r, jac, off = _residual_jacobian(prob, thetas)
    assert r.shape == (5, 81) and off.tolist()[2] is True
    assert r[2, 0] == _PENALTY and not r[2, 1:].any() and not jac[2].any()
    for k in (0, 1, 3, 4):
        alone = _residual_jacobian(prob, thetas[k:k + 1])
        assert _bits(r[k]) == _bits(alone[0][0]) and _bits(jac[k]) == _bits(alone[1][0])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_every_point_of_both_modes_has_n4_components(n):
    """In both modes every residual of a stack has the n^4 defect
    components. A penalty point, whose 2a is singular (a = 0 unconstrained;
    a factor whose first diagonal entry underflows to 0 with
    positive_definite), is [_PENALTY, 0, ...] with a zero Jacobian, and
    each slice's residual, Jacobian, cost, gradient and Gram matrix equal
    those of the slice run alone."""
    rng = np.random.default_rng(30 + n)
    c = _random_structure(rng, n)
    for mode in ("unconstrained", "positive_definite"):
        thetas = rng.standard_normal((7, param_count(n))) * 0.3
        if mode == "unconstrained":
            thetas[:, [t * (t + 3) // 2 for t in range(n)]] += 2.0
            thetas[3] = 0.0
        else:
            thetas[3, 0] = -800.0
        prob = _problem(c, mode)
        r, jac, off = _residual_jacobian(prob, thetas)
        assert r.shape == (7, n ** 4) and jac.shape == (7, n ** 4, param_count(n))
        assert r[3, 0] == _PENALTY and not r[3, 1:].any() and not jac[3].any()
        assert off.tolist()[3] is True
        cost = _squares(r)
        g, h = _normal_equations(r, jac)
        assert cost[3] == _PENALTY ** 2
        for k in range(7):
            rk, jk, _ = _residual_jacobian(prob, thetas[k:k + 1])
            assert _bits(r[k]) == _bits(rk[0]) and _bits(jac[k]) == _bits(jk[0])
            gk, hk = _normal_equations(rk, jk)
            assert _bits(cost[k]) == _bits(_squares(rk)) == _bits(rk[0] @ rk[0])
            assert _bits(g[k]) == _bits(gk) == _bits(jk[0].T @ rk[0])
            assert _bits(h[k]) == _bits(hk) == _bits(jk[0].T @ jk[0])


def test_unconstrained_objective_does_not_depend_on_the_scale_of_the_metric():
    """The product and the defect do not change when the metric is scaled,
    so neither does the unconstrained cost: at theta and 2^-10 theta it is
    bit-equal, and the gradient, through solves against 2a, is exactly 2^10
    times larger. A power-of-two scale is exact through the LU solve and
    every product. Heisenberg, sol, a family member and random algebras of
    dimension 2..6, five seeded points each."""
    rng = np.random.default_rng(29)
    algs = [heisenberg(), sol(), solvable_family(1, 2, -3)]
    algs += [random_algebra(rng, n) for n in range(2, 7)]
    for alg in algs:
        for _ in range(5):
            theta = rng.standard_normal(param_count(alg.dim))
            cost, grad = compat_objective(alg, theta)
            small_cost, small_grad = compat_objective(alg, theta * 2.0 ** -10)
            assert _bits(small_cost) == _bits(cost)
            assert _bits(small_grad) == _bits(grad * 2.0 ** 10)


# --- the exits of the optimizer ---------------------------------------------
# Test problems over points (t, s, tag): the tag picks the problem and never
# moves, since its Jacobian column is zero.

def _keeper(t, s):
    """Steps shrink t by a thousandth: runs to any budget of 100 iterations."""
    return t, (1e3, 0.0), False


def _uphill(t, s):
    return 1.0 + (t - 1.0) ** 2 + (s - 1.0) ** 2


EXIT_PROBLEMS = {
    "converged": (lambda t, s: (0.0, (1.0, 0.0), False)),
    "stationary": (lambda t, s: (1.0, (0.0, 0.0), False)),
    # the accepted step lowers the cost by one unit in the last place
    "stalled": (lambda t, s: (1.0 if t == 1.0 else 1.0 - 1e-16, (-1.0, 0.0), False)),
    "left_domain": (lambda t, s: (t, (1.0, 0.0), True)),
    "damping_blowup": (lambda t, s: (_uphill(t, s), (-1.0, 0.0), False)),
    "max_iters": _keeper,
    # h + lam I is singular, 1e20 absorbing the damping, until lam passes 1e12
    "singular_blowup": (lambda t, s: (_uphill(t, s), (1e10, 1e10), False)),
    # h + lam I is singular until 1e14 no longer absorbs lam; that damped
    # step descends, past a boundary
    "singular_then_off": (lambda t, s: (1e7 * (t + s), (1e7, 1e7), t + s < 1.5)),
}
TAGS = list(EXIT_PROBLEMS)


def _tagged_fun(th):
    rs, jacs, offs = [], [], []
    for t, s, tag in th:
        r, (dt, ds), off = EXIT_PROBLEMS[TAGS[int(tag)]](t, s)
        rs.append([r])
        jacs.append([[dt, ds, 0.0]])
        offs.append(off)
    return np.array(rs), np.array(jacs), np.array(offs)


class _TaggedJacobians:
    """Jacobians of a tagged stack that log the tag of each row read."""

    def __init__(self, th, jac, reads):
        self.th, self.jac, self.reads = th, jac, reads

    def __getitem__(self, ks):
        self.reads += self.th[ks, 2].tolist()
        return self.jac[ks]


def _reading_fun(reads: list):
    """_tagged_fun, logging into reads the tag of each Jacobian row read."""
    def fun(th):
        r, jac, off = _tagged_fun(th)
        return r, _TaggedJacobians(th, jac, reads), off

    return fun


def _start(reason, t=1.0):
    return [t, 1.0, float(TAGS.index(reason))]


def _sequential_end(start, budget):
    """The one-restart optimizer, kept above as reference, on one tagged point."""
    def fun(th):
        r, jac, _ = _tagged_fun(th[None])
        return r[0], jac[0]

    return _seq_minimize(fun, start, budget, 0.0, stop=lambda th: bool(_tagged_fun(th[None])[2][0]))


def _check_exit(reason, start, end, budget):
    theta, cost, used, got, lam = end
    assert got == reason
    assert used <= budget
    assert lam > 1e12 if reason == "damping_blowup" else 0.0 < lam <= 1e12
    ref = _sequential_end(start, budget)
    assert _bits(theta) == _bits(ref[0]) and _bits([cost, lam]) == _bits([ref[1], ref[4]])
    assert (used, got) == (ref[2], ref[3])


@pytest.mark.parametrize("reason", STOP_REASONS)
def test_minimize_names_each_exit(reason):
    budget = 1 if reason == "max_iters" else 100
    [end] = _minimize(_tagged_fun, np.array([_start(reason)]), budget, 0.0)
    _check_exit(reason, _start(reason), end, budget)


@pytest.mark.parametrize("reason", STOP_REASONS)
def test_one_restart_exits_while_the_others_keep_iterating(reason):
    """The exit under test is taken by the middle slice of a stack whose other
    slices run on to the budget; every slice ends as it would alone."""
    starts = np.array([_start("max_iters", 0.7), _start(reason), _start("max_iters", -0.4)])
    ends = _minimize(_tagged_fun, starts, 100, 0.0)
    assert reason == "max_iters" or ends[1][2] < 100
    for k, start in enumerate(starts):
        _check_exit(reason if k == 1 else "max_iters", start, ends[k], 100)
        assert k == 1 or ends[k][2] == 100


@pytest.mark.parametrize("problem,reason,used", [("singular_blowup", "damping_blowup", 25),
                                                  ("singular_then_off", "left_domain", 3)])
def test_a_singular_damped_system_is_a_rejected_step(problem, reason, used, monkeypatch):
    """The middle slice's damped system is singular for its first iterations,
    the only singular slice of the stacked solve: each is a rejected step,
    lam growing by 4 with no Jacobian read. singular_blowup stays singular
    or uphill until lam passes 1e12; singular_then_off takes the damped step
    once its system is solvable, onto a point off the domain. Every slice
    ends as the one-restart optimizer ends it alone."""
    damped, masks, reads = [], [], []
    solve_slices = search._solve_slices

    def spy(solve, shape, *stacks):
        out = solve_slices(solve, shape, *stacks)
        damped.append(stacks[0][1].copy())
        masks.append(out[1])
        return out

    monkeypatch.setattr(search, "_solve_slices", spy)
    starts = np.array([_start("max_iters", 0.7), _start(problem), _start("max_iters", -0.4)])
    ends = _minimize(_reading_fun(reads), starts, 100, 0.0)
    assert ends[1][2:4] == (used, reason)
    singular = [mask is not None and bool(mask[1]) for mask in masks[:used]]
    assert all(mask is None or mask.tolist() == [False, True, False] for mask in masks)
    first = (singular + [False]).index(False)
    assert first > 1 and singular == [True] * first + [False] * (used - first)
    lams = [m[2, 2] for m in damped[:used]]  # the tag column of h is zero
    assert lams[0] == 1e-3 and all(b == 4.0 * a for a, b in zip(lams, lams[1:]))
    assert reads.count(TAGS.index(problem)) == 1 + (reason == "left_domain")
    for k, start in enumerate(starts):
        _check_exit(reason if k == 1 else "max_iters", start, ends[k], 100)


def test_a_find_drops_the_restarts_above_it():
    """on_exit returning true for a restart leaves the restarts below it
    running to their end and drops those above it still in the stack."""
    starts = np.array([_start("max_iters"), _start("left_domain"), _start("max_iters"),
                       _start("stationary")])
    seen = []

    def on_exit(k, theta, cost, iters, reason, lam):
        seen.append((k, reason))
        return reason == "left_domain"

    ends = _minimize(_tagged_fun, starts, 100, 0.0, on_exit=on_exit)
    assert seen == [(3, "stationary"), (1, "left_domain"), (0, "max_iters")]
    assert ends[2] is None
    assert [end[3] for end in ends if end is not None] == ["max_iters", "left_domain",
                                                            "stationary"]


@pytest.mark.parametrize("mode", ["positive_definite", "unconstrained"])
def test_one_lockstep_iteration_makes_the_same_solves_at_any_stack_size(mode, monkeypatch):
    prob = _problem(heisenberg().structure_array(), mode)
    fun = lambda th: _residual_jacobian(prob, th)
    per_iteration = []
    for stack in (1, 7, 16):
        theta0 = np.array([_initial_theta(3, mode, np.random.default_rng([3, k]))
                           for k in range(stack)])
        calls = _counting_linalg(monkeypatch)
        _minimize(fun, theta0, 0, 0.0)
        start = calls.copy()
        ends = _minimize(fun, theta0, 1, 0.0)
        assert [end[2:4] for end in ends] == [(1, "max_iters")] * stack
        per_iteration.append({name: calls[name] - 2 * start[name] for name in ("solve", "inv")})
        monkeypatch.undo()
    # the damped step is a solve; the trial products and the directions of
    # the accepted trials share one inversion
    assert per_iteration == [{"solve": 1, "inv": 1}] * 3


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_batch_size_follows_the_byte_cap(n):
    per_restart = 8 * param_count(n) * n ** 4  # one restart's float Jacobian
    size = _batch_size(n)
    assert size * per_restart <= _BATCH_BYTES < (size + 1) * per_restart
    assert size == {2: 1365, 3: 134, 4: 25, 5: 6, 6: 2}[n]


def test_search_runs_restart_zero_alone_then_full_batches(monkeypatch):
    """Restart 0 starts alone and the rest of the first batch joins it (here
    when it ends, at once with max_iters 0 and after one iteration on
    affine_line); every later batch starts full. Each entry is the size of a
    _minimize stack and of the restarts that joined it."""
    from liemetric import search

    sizes = []
    minimize = search._minimize

    def recording(fun, theta0, *args, join=None, **kw):
        sizes.append([len(theta0), None])
        entry = sizes[-1]

        def joining():
            more = join()
            entry[1] = len(more)
            return more

        return minimize(fun, theta0, *args, join=join and joining, **kw)

    monkeypatch.setattr(search, "_minimize", recording)
    res = find_compatible_metric(_sheared("heisenberg", 5), quick(restarts=15, iters=0))
    assert res.status == "not_found" and len(res.log) == 15
    assert sizes == [[1, 5], [6, None], [3, None]]
    del sizes[:]
    find_compatible_metric(affine_line(), quick(restarts=20, iters=5))
    assert sizes == [[1, 19]]


def _count_accepted(fun, start, budget, cost_tol, stop):
    """The one-restart optimizer on one start: (points evaluated, steps
    accepted). stop is called after each accepted step, except a stalling
    one, which ends the restart before the domain test."""
    evaluated, accepted = [], []

    def counting(theta):
        evaluated.append(1)
        return fun(theta)

    def stopping(theta):
        accepted.append(1)
        return stop(theta)

    end = _seq_minimize(counting, start, budget, cost_tol, stop=stopping)
    return len(evaluated), len(accepted) + (end[3] == "stalled")


@pytest.mark.parametrize("stack", [1, 16])
@pytest.mark.parametrize("make,mode", [(sol, "none"), (sol, "positive_definite"),
                                       (lambda: solvable_family(1, 1, -1), "positive_definite")])
def test_jacobians_only_at_starts_and_accepted_steps(make, mode, stack, monkeypatch):
    """The Jacobian stage runs on the starts and on each accepted trial
    point, never on a rejected one: its rows add up to the starts plus the
    steps the one-restart optimizer accepts from the same starts."""
    from liemetric import search

    cfg = SearchConfig(signature_constraint=mode, restarts=stack, max_iters=60, rng_seed=3)
    alg = make()
    n, pmode, fun, outside_domain = _seq_problem(alg, cfg)
    theta0 = np.array([_initial_theta(n, pmode, np.random.default_rng([cfg.rng_seed, rix]))
                       for rix in range(stack)])
    cost_tol = (0.02 * cfg.residual_tol) ** 2
    evaluated = accepted = 0
    for start in theta0:
        seen, steps = _count_accepted(fun, start, cfg.max_iters, cost_tol, outside_domain)
        evaluated, accepted = evaluated + seen, accepted + steps
    assert evaluated > stack + accepted  # some trial points are rejected
    rows = []
    jacobian = search._jacobian

    def counting(prob, a, *state):
        rows.append(len(a))
        return jacobian(prob, a, *state)

    monkeypatch.setattr(search, "_jacobian", counting)
    prob = _problem(alg.to_float().structure_array(), pmode)
    _minimize(lambda th: search._residuals(prob, th), theta0, cfg.max_iters, cost_tol)
    assert sum(rows) == stack + accepted


def test_rejected_armijo_probes_read_no_jacobian():
    """Rows read from the tagged problems: the start of each restart, every
    step of the keeper, the one accepted step of singular_then_off and
    nothing for the rejected trials of damping_blowup or for the rejected
    steps of singular_blowup, singular or uphill."""
    reads = []
    starts = np.array([_start("max_iters"), _start("damping_blowup"),
                       _start("singular_blowup"), _start("singular_then_off")])
    ends = _minimize(_reading_fun(reads), starts, 40, 0.0)
    assert [end[3] for end in ends] == ["max_iters", "damping_blowup", "damping_blowup",
                                        "left_domain"]
    assert len(reads) == 4 + 40 + 1


def _schedule(monkeypatch):
    """Spies on a search: for each restart drawn, the number of residual
    stage calls made before it was drawn."""
    from liemetric import search

    calls, drawn = [], []
    residuals, initial = search._residuals, search._initial_theta

    def counting(prob, theta):
        calls.append(len(theta))
        return residuals(prob, theta)

    def drawing(*args):
        drawn.append(len(calls))
        return initial(*args)

    monkeypatch.setattr(search, "_residuals", counting)
    monkeypatch.setattr(search, "_initial_theta", drawing)
    return calls, drawn


def _first_rejection(alg, cfg):
    """The iteration at which restart 0, run alone by the one-restart
    optimizer, first has a trial step rejected, or None."""
    n, mode, fun, outside_domain = _seq_problem(alg, cfg)
    costs = []

    def recording(theta):
        r, jac = fun(theta)
        costs.append(float(r @ r))
        return r, jac

    start = _initial_theta(n, mode, np.random.default_rng([cfg.rng_seed, 0]))
    _seq_minimize(recording, start, cfg.max_iters, (0.02 * cfg.residual_tol) ** 2,
                  stop=outside_domain)
    cost = costs[0]
    for k, trial in enumerate(costs[1:], start=1):
        if not trial < cost:
            return k
        cost = trial
    return None


def test_restart_zero_finding_before_a_rejection_draws_no_other_restart(monkeypatch):
    cfg = SearchConfig(signature_constraint="positive_definite", restarts=8, max_iters=50,
                       rng_seed=0)
    alg = euclidean_motions()
    assert _first_rejection(alg, cfg) is None
    calls, drawn = _schedule(monkeypatch)
    res = find_compatible_metric(alg, cfg)
    assert res.found and len(res.log) == 1 and res.log[0].iterations > 1
    assert drawn == [0]
    assert set(calls) == {1}


@pytest.mark.parametrize("make,mode,seed", [(sol, "none", 3),
                                            (sol, "positive_definite", 1),
                                            (lambda: solvable_family(3, -1, 2), "none", 2)])
def test_restart_zero_rejecting_at_iteration_k_admits_its_batch_at_k(make, mode, seed,
                                                                      monkeypatch):
    """Restart 0 alone makes one residual call for its start and one per
    iteration; the other seven restarts are drawn together right after its
    k-th, the first one rejected."""
    cfg = SearchConfig(signature_constraint=mode, restarts=8, max_iters=50, rng_seed=seed)
    alg = make()
    k = _first_rejection(alg, cfg)
    assert k is not None and k > 1
    calls, drawn = _schedule(monkeypatch)
    res = find_compatible_metric(alg, cfg)
    assert drawn == [0] + [1 + k] * 7
    assert calls[:1 + k] == [1] * (1 + k) and calls[1 + k] == 7
    assert res.log == sequential_find(alg, cfg).log


def test_find_above_restart_zero_while_it_runs_keeps_the_sequential_log(monkeypatch):
    """family(3, -1, 2), any signature: restart 1 converges on a find while
    restart 0 is still iterating; it runs to its own end, the restarts
    above 1 are dropped, and the log is the sequential one."""
    from liemetric import search

    alg = solvable_family(3, -1, 2)
    cfg = SearchConfig(restarts=8, max_iters=50, rng_seed=4)
    exits = []
    minimize = search._minimize

    def recording(fun, theta0, *args, on_exit=None, **kw):
        def noting(k, *end):
            exits.append((k, end[2], end[3]))
            return on_exit(k, *end)

        return minimize(fun, theta0, *args, on_exit=noting, **kw)

    monkeypatch.setattr(search, "_minimize", recording)
    res = find_compatible_metric(alg, cfg)
    ref = sequential_find(alg, cfg)
    assert [k for k, _, _ in exits] == [1, 0]
    assert exits[0][2] == "converged" and exits[0][1] < min(it for _, it, _ in exits[1:])
    assert res.log == ref.log and len(res.log) == 2
    assert [_bits([rec.residual, rec.final_lambda]) for rec in res.log] == \
        [_bits([rec.residual, rec.final_lambda]) for rec in ref.log]
    assert res.best_metric.matrix == ref.best_metric.matrix


def reference_certificate(alg, metric, target):
    """The exact certificate through the public exact path: rationalize and
    symmetrize, then the metric's determinant, and the metric or its
    negation, whichever has the target signature (any for "none"), then the
    product and the residual, each in Fractions."""
    raw = [[rationalize(float(x)) for x in row]
           for row in metric.matrix]
    n = len(raw)
    exact = Metric.from_rows([[(raw[i][j] + raw[j][i]) / 2 for j in range(n)]
                              for i in range(n)], exact=True)
    if exact.det() == 0:
        return None
    exact = _seq_signed(exact, target)
    if exact is None:
        return None
    return exact if compatibility_residual(alg, exact).exact_zero else None


def test_exact_certificate_matches_the_public_exact_path():
    """Found metrics of several algebras, and the same metrics negated,
    perturbed, made degenerate or replaced by a diagonal, under four
    targets: the certificate is the reference's, None or an equal
    Metric."""
    rng = np.random.default_rng(21)
    certified = 0
    for alg, mode in ((heisenberg(), "none"), (sol(), "none"), (euclidean_motions(), "none"),
                      (solvable_family(1, 2, -3), "positive_definite"),
                      (_sheared("heisenberg", 4), "none")):
        found = find_compatible_metric(alg, quick(mode, restarts=8, iters=100))
        assert found.found
        base = np.array(found.best_metric.to_float().matrix, dtype=float)
        n = len(base)
        v = rng.integers(-2, 3, size=n).astype(float)
        noise = rng.standard_normal((n, n)) * 1e-3
        for mat in (base, -base, base + noise + noise.T, np.outer(v, v),
                    np.diag(rng.choice([-1.0, 1.0, 2.0], size=n))):
            metric = Metric.from_rows(mat.tolist(), exact=False)
            for target in ("none", (n, 0), (0, n), (1, n - 1)):
                got = _try_exact_certificate(alg, metric, target)
                want = reference_certificate(alg, metric, target)
                assert (got is None) == (want is None)
                if want is not None:
                    certified += 1
                    assert got.exact and got.matrix == want.matrix
    assert certified >= 5


# ------------------------------------------- the certificate's screen mod P ---

def _attempts(monkeypatch, run):
    """The (algebra, metric, target) of every certificate attempt that
    ``run`` makes through find_compatible_metric."""
    seen, attempt = [], search._try_exact_certificate

    def record(alg, metric, target):
        seen.append((alg, metric, target))
        return attempt(alg, metric, target)

    monkeypatch.setattr(search, "_try_exact_certificate", record)
    run()
    monkeypatch.setattr(search, "_try_exact_certificate", attempt)
    return seen


def _bench_search_jobs(monkeypatch, tmp_path, seeds):
    from pathlib import Path

    import liemetric
    bench = Path(__file__).resolve().parent.parent / "bench"
    monkeypatch.syspath_prepend(str(bench))
    import workloads

    workload = workloads.make("search", str(bench.parent / "src"))
    for seed in seeds:
        rng = np.random.default_rng([seed, workloads.WORKLOADS.index("search")])
        for job in workload.generate(liemetric, rng, str(tmp_path), False):
            workload.run(liemetric, job)


def test_screened_certificates_equal_the_unscreened_ones(monkeypatch, tmp_path):
    """Every attempt of the lockstep corpus and of the benchmark's search
    jobs at seeds 1, 7 and 31337: the certificate is the one of the public
    exact path without a screen, and the screen refuses a share of them."""
    def corpus():
        for _, make, kw in _lockstep_cases():
            find_compatible_metric(make(), _config(monkeypatch, kw, restarts=8, max_iters=50,
                                                   rng_seed=11))
        monkeypatch.setattr(search, "DEGENERACY_FLOOR", _FLOOR)
        _bench_search_jobs(monkeypatch, tmp_path, (1, 7, 31337))

    attempts = _attempts(monkeypatch, corpus)
    verdicts, screen = [], search._may_be_compatible

    def recorded(alg, a):
        verdicts.append(screen(alg, a))
        return verdicts[-1]

    monkeypatch.setattr(search, "_may_be_compatible", recorded)
    certified = 0
    for alg, metric, target in attempts:
        want = reference_certificate(alg, metric, target)
        assert _try_exact_certificate(alg, metric, target) == want
        certified += want is not None
    assert len(attempts) >= 200 and certified >= 90 and verdicts.count(False) >= 110


def test_screen_passes_compatible_pairs_and_refuses_without_the_elimination(monkeypatch):
    """Compatible rational pairs, also in a sheared basis, pass the screen
    and are certified; heisenberg with the identity metric is refused before
    the exact product's elimination (``metric._solve_doubled``)."""
    from liemetric import heisenberg_split_metric, metric, sol_split_metric

    shear = [[Fraction(1), Fraction(1, 2), 0], [0, Fraction(1), Fraction(-2, 3)],
             [0, 0, Fraction(3)]]
    pairs = [(heisenberg(), heisenberg_split_metric()), (sol(), sol_split_metric()),
             (abelian(3), Metric.diagonal([1, -2, Fraction(1, 3)]))]
    pairs += [(alg.changed_basis(shear), a.transported(shear)) for alg, a in pairs[:2]]
    for alg, a in pairs:
        assert search._may_be_compatible(alg, a)
        assert _try_exact_certificate(alg, a.to_float(), "none") == a

    def refuse(*args):
        raise AssertionError("the exact elimination ran")

    monkeypatch.setattr(metric, "_solve_doubled", refuse)
    assert not search._may_be_compatible(heisenberg(), Metric.identity(3))
    assert _try_exact_certificate(heisenberg(), Metric.identity(3, exact=False), "none") is None


def test_a_metric_singular_mod_p_reaches_the_exact_check(monkeypatch):
    """2M singular mod P says nothing about the defect: the exact residual
    decides, certifying a compatible metric and refusing another."""
    from liemetric import heisenberg_split_metric, metric

    p = search._SCREEN_PRIME
    calls, solve = [], metric._solve_doubled
    monkeypatch.setattr(metric, "_solve_doubled", lambda *a: calls.append(1) or solve(*a))
    split = heisenberg_split_metric().matrix
    for rows, want in (([[p * x for x in row] for row in split], True),
                       ([[p, 0, 0], [0, 1, 0], [0, 0, 1]], False)):
        a = Metric.from_rows(rows)
        assert rational.det((2 * a.scaled(True)[0] % p).tolist()) % p == 0
        assert search._may_be_compatible(heisenberg(), a)
        calls.clear()
        got = _try_exact_certificate(heisenberg(), a.to_float(), "none")
        assert calls and (got == a if want else got is None)


def test_screen_prime_and_int64_bound(monkeypatch):
    """P is prime and every residue sum stays within int64 up to io.MAX_DIM;
    with a prime past that bound the screen is skipped."""
    from liemetric import io
    from liemetric.scalars import INT64_MAX

    p = search._SCREEN_PRIME
    assert p < 2 ** 25 and all(p % d for d in range(2, int(p ** 0.5) + 1))
    assert 3 * io.MAX_DIM * (p - 1) ** 2 <= INT64_MAX
    assert not search._may_be_compatible(heisenberg(), Metric.identity(3))
    monkeypatch.setattr(search, "_SCREEN_PRIME", 2 ** 31 - 1)
    assert search._may_be_compatible(heisenberg(), Metric.identity(3))


def test_screen_falls_through_on_a_singular_elimination_and_on_p_dividing_d(monkeypatch):
    """Both ways the screen learns that 2M is singular mod P lead on to the
    exact residual: the elimination of 2M' raises (P times the split metric,
    diag(P, 1, 1)), or it returns a d that P divides (M of det P, whose
    reduction M' is nonsingular: 2M' has det 4P in dimension 2, and 4 (78 -
    8192^2) in dimension 3). The exact check certifies a compatible metric
    and refuses another in each. Where P divides d, the adjugate that stands
    in for the inverse proves nothing: read as one, it would refuse
    heisenberg with the 3-d metric before the exact check."""
    from liemetric import heisenberg_split_metric, metric

    p = search._SCREEN_PRIME
    branches, solve_int = [], search._solve_int

    def spy_int(*args):
        try:
            rows, d = solve_int(*args)
        except rational.SingularMatrixError:
            branches.append("singular")
            raise
        branches.append("divides" if d % p == 0 else "unit")
        return rows, d

    calls, solve = [], metric._solve_doubled
    monkeypatch.setattr(search, "_solve_int", spy_int)
    monkeypatch.setattr(metric, "_solve_doubled", lambda *a: calls.append(1) or solve(*a))
    split = heisenberg_split_metric().matrix
    det_p = [[2, 1], [1, (p + 1) // 2]]
    # flat for euclidean_motions, as its rotation e1 mixes with e3
    det_p3 = [[p + 8192 ** 2, 0, 8192], [0, 1, 0], [8192, 0, 1]]
    for alg, rows, want, branch in (
            (heisenberg(), [[p * x for x in row] for row in split], True, "singular"),
            (heisenberg(), [[p, 0, 0], [0, 1, 0], [0, 0, 1]], False, "singular"),
            (abelian(2), det_p, True, "divides"),
            (affine_line(), det_p, False, "divides"),
            (euclidean_motions(), det_p3, True, "divides"),
            (heisenberg(), det_p3, False, "divides")):
        a = Metric.from_rows(rows)
        branches.clear(), calls.clear()
        assert search._may_be_compatible(alg, a) and branches == [branch]
        got = _try_exact_certificate(alg, a.to_float(), "none")
        assert calls and (got == a if want else got is None)


def test_classification_cases_carry_search_telemetry():
    rep = verify_classification(sample_count=2, cfg=quick(restarts=4, iters=30), dims=(2, 3))
    for case in rep.cases:
        alg = heisenberg() if case.name == "heisenberg" else (
            solvable_family(*case.params) if case.params else by_name(case.name))
        res = find_compatible_metric(alg, quick(case.mode, restarts=4, iters=30))
        assert case.restarts_run == len(res.log)
        assert case.iterations == sum(rec.iterations for rec in res.log)
        assert case.seconds > 0.0
        assert "seconds" not in repr(case)


def test_restart_records_carry_stop_reason_and_damping():
    res = find_compatible_metric(heisenberg(), quick("positive_definite", restarts=6))
    assert all(rec.stop_reason in STOP_REASONS for rec in res.log)
    assert all(isinstance(rec.final_lambda, float) and rec.final_lambda > 0
               for rec in res.log)
    tally = res.stop_reasons()
    assert sum(tally.values()) == len(res.log) == 6
    assert list(tally) == sorted(tally)
    cut = find_compatible_metric(affine_line(), quick(restarts=3, iters=0))
    assert cut.stop_reasons() == {"max_iters": 3}


# --- the domain rule at every dimension up to the cap ----------------------
# The domain rule reads m(a), which is 1 at the identity in every dimension,
# so the abelian algebra, where every metric is compatible, is found at once
# in every mode, and a start that is off the domain is logged left_domain.

def _abelian_search(n, mode):
    return find_compatible_metric(abelian(n), quick(mode, restarts=2, iters=20))


def test_abelian8_has_a_positive_definite_find():
    assert _abelian_search(8, "positive_definite").found


def test_abelian12_has_an_unconstrained_find():
    assert _abelian_search(12, "none").found


def test_no_restart_is_logged_converged_off_the_domain():
    for n, mode in ((8, "positive_definite"), (12, "none")):
        log = _abelian_search(n, mode).log
        assert not [rec for rec in log if not rec.admissible and rec.stop_reason == "converged"]


@pytest.mark.parametrize("n", range(2, 9))
def test_abelian_is_found_and_certified_at_restart_zero_in_every_mode(n):
    for mode in ("positive_definite", "none", (n, 0), (0, n)):
        res = find_compatible_metric(abelian(n), SearchConfig(signature_constraint=mode))
        assert res.found and res.exact_certificate and len(res.log) == 1, mode
        if mode != "none":
            assert res.best_metric.signature() == ((0, n) if mode == (0, n) else (n, 0))


def test_an_end_point_off_the_domain_is_logged_left_domain_whatever_ended_it(monkeypatch):
    """abelian(3) with the floor raised to 5e-2: its cost is 0 everywhere,
    so every restart exits converged at iteration 0. At seed 2 restarts 0
    to 4 start off the domain; they are logged left_domain instead, and
    inadmissible, and restart 5 is the find."""
    ends = []
    minimize = search._minimize

    def recording(fun, theta0, *args, on_exit=None, **kw):
        def noting(k, theta, *end):
            ends.append((theta, end[2]))
            return on_exit(k, theta, *end)

        return minimize(fun, theta0, *args, on_exit=noting, **kw)

    monkeypatch.setattr(search, "_minimize", recording)
    cfg = _config(monkeypatch, dict(floor=5e-2), restarts=64, max_iters=20, rng_seed=2)
    res = find_compatible_metric(abelian(3), cfg)
    assert res.found and len(res.log) == len(ends)
    prob = _problem(np.zeros((3, 3, 3)), "unconstrained")
    for rec, (theta, reason) in zip(res.log, ends):
        assert reason == "converged"
        off = _off_domain(prob, _decode(theta[None], prob)[0])[0]
        assert rec.stop_reason == ("left_domain" if off else "converged")
        assert rec.admissible is not off
    assert res.stop_reasons() == {"converged": 1, "left_domain": 5}


def test_the_search_refuses_a_dimension_above_its_cap():
    n = search.MAX_SEARCH_DIM + 1
    with pytest.raises(ValueError, match=f"dimension {n} is above the search's cap of {n - 1}"):
        find_compatible_metric(abelian(n), SearchConfig(restarts=1, max_iters=0))
    with pytest.raises(ValueError, match=f"cap of {n - 1}"):
        compat_objective(abelian(n), np.zeros(param_count(n)))


def test_an_exact_constant_past_the_float_cap_is_refused_not_searched():
    """An exact algebra has no cap, but the search and its objective run on
    its float copy, which is capped: a constant of 10**60 raises
    InvalidStructureError with the reason, instead of a not_found whose
    residual reads 1e117, and so does one past the float range, 10**400,
    instead of an OverflowError."""
    for v, shown in ((10**60, r"1e\+60"), (10**400, "inf")):
        alg = LieAlgebra.from_brackets(3, {(0, 1): [0, 0, v]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidStructureError, match=rf"c\[0\]\[1\]\[2\] is {shown}"):
                find_compatible_metric(alg, SearchConfig())
            with pytest.raises(InvalidStructureError, match=rf"c\[0\]\[1\]\[2\] is {shown}"):
                compat_objective(alg, np.zeros(param_count(3)))


# --- two symmetries of compatibility --------------------------------------
# Scaling the constants by t scales the product by t and the defect by t^2,
# and a -> -a keeps both: neither changes which metrics are compatible. The
# search uses the negation: an end point counts when its signature or its
# negation's is the target. It does not use the scale, and at a fixed seed it
# still answers differently across it: the premise is exact and passes, the
# pinned search passes once the search uses that symmetry.

_EIGHT_RESTARTS = SearchConfig(signature_constraint="none", restarts=8, max_iters=200)


def _heisenberg_times_10_4():
    return LieAlgebra.from_brackets(3, {(0, 1): [0, 0, 10**4]})


def test_heisenberg_times_10_4_keeps_the_split_metric():
    """[e1, e2] = 10^4 e3 is exactly compatible with the split metric, and
    with the constant 1 the same search finds an exactly certified metric
    at restart 2."""
    assert compatibility_residual(_heisenberg_times_10_4(), heisenberg_split_metric()).exact_zero
    res = find_compatible_metric(heisenberg(), _EIGHT_RESTARTS)
    assert res.found and res.exact_certificate and len(res.log) == 3


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the search is not scale invariant: 7 restarts leave the domain "
                          "and 1 ends in damping_blowup")
def test_heisenberg_times_10_4_has_a_find():
    assert find_compatible_metric(_heisenberg_times_10_4(), _EIGHT_RESTARTS).found


def _split(signature):
    return SearchConfig(signature_constraint=signature, restarts=8, max_iters=200, rng_seed=0)


def _negated(metric):
    return [[-x for x in row] for row in metric.matrix]


def test_the_negated_find_of_signature_1_2_has_signature_2_1():
    """With signature (1, 2) the search finds a metric on Heisenberg (restart
    2 at seed 0); its negation has signature (2, 1) and is exactly
    compatible."""
    res = find_compatible_metric(heisenberg(), _split((1, 2)))
    assert res.found and res.exact_certificate and len(res.log) == 3
    negated = Metric.from_rows(_negated(res.best_metric))
    assert negated.signature() == (2, 1)
    assert compatibility_residual(heisenberg(), negated).exact_zero


def test_heisenberg_has_a_find_of_signature_2_1():
    """(2, 1) and (1, 2) search the same symmetric metrics from the same
    starts: restart 2 ends on a metric of signature (1, 2), and (2, 1)
    admits its negation, exactly certified."""
    res, mirror = (find_compatible_metric(heisenberg(), _split(sig)) for sig in ((2, 1), (1, 2)))
    assert res.found and res.exact_certificate and len(res.log) == 3
    assert res.best_metric.signature() == (2, 1)
    assert compatibility_residual(heisenberg(), res.best_metric).exact_zero
    assert res.log == mirror.log
    assert res.best_metric.matrix == tuple(map(tuple, _negated(mirror.best_metric)))
