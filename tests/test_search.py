"""Feasibility search, its gradient, and the classification harness."""

from fractions import Fraction

import numpy as np
import pytest

from liemetric import (
    SearchConfig,
    abelian,
    affine_line,
    compat_objective,
    compatibility_residual,
    euclidean_motions,
    find_compatible_metric,
    heisenberg,
    predicted_existence,
    sol,
    solvable_family,
    verify_classification,
)
from liemetric.search import (_BARRIER_WEIGHT, STOP_REASONS, FamilyParams, _adjugate,
                              _decode, _decode_directions, _minimize, _residual_jacobian,
                              param_count)


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


def test_fixed_signature_must_fit_dimension():
    with pytest.raises(ValueError):
        find_compatible_metric(abelian(2), SearchConfig(signature_constraint=(2, 1)))


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
    from liemetric.search import _sym_positions
    for t, (i, j) in enumerate(_sym_positions(n)):
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


def test_classification_dim_filter():
    rep = verify_classification(sample_count=4, dims=(2,))
    assert {c.name for c in rep.cases} == {"abelian2", "affine_line"}
    assert rep.ok


def test_inadmissible_probes_logged_not_best():
    cfg = quick("positive_definite", restarts=20, iters=500)
    res = find_compatible_metric(heisenberg(), cfg)
    assert any(not rec.admissible for rec in res.log)
    for rec in res.log:
        if not rec.admissible:
            assert rec.residual == float("inf")


def reference_residual_jacobian(c, theta, mode, floor, barrier_weight=10.0):
    """Residual and Jacobian with one solve and explicit contractions per
    parameter direction, coded apart from the search's batched kernels."""
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
    d = float(np.linalg.det(a))
    if mode != "positive_definite" and abs(d) < floor:
        # Jacobi's formula: d det(a) = det(a) tr(a^{-1} da)
        sign = 1.0 if d >= 0 else -1.0
        grad = [-barrier_weight / floor * sign * d * float(np.trace(np.linalg.solve(a, da)))
                for da in dirs]
        r = np.concatenate([r, [barrier_weight * (floor - abs(d)) / floor]])
        jac = np.vstack([jac, [grad]])
    return r, jac


def _random_structure(rng, n):
    c = rng.standard_normal((n, n, n))
    return c - c.transpose(1, 0, 2)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("mode,floor", [("unconstrained", 1e-8),
                                        ("positive_definite", 1e-8),
                                        ("unconstrained", 1e3)])
def test_batched_jacobian_matches_per_direction_reference(n, mode, floor):
    rng = np.random.default_rng(100 + n)
    for _ in range(3):
        c = _random_structure(rng, n)
        theta = rng.standard_normal(param_count(n)) * 0.6
        if mode == "unconstrained":
            theta[[t * (t + 3) // 2 for t in range(n)]] += 2.0  # diagonal: keep 2a well conditioned
        r, jac = _residual_jacobian(c, theta, mode, floor)
        r_ref, jac_ref = reference_residual_jacobian(c, theta, mode, floor)
        rows = n ** 4 + (1 if floor > 1.0 else 0)  # floor 1e3 forces the barrier row
        assert jac.shape == jac_ref.shape == (rows, param_count(n))
        assert jac.flags.c_contiguous
        assert np.max(np.abs(r - r_ref)) <= 1e-12 * np.max(np.abs(r_ref))
        assert np.max(np.abs(jac - jac_ref)) <= 1e-12 * np.max(np.abs(jac_ref))


def reference_adjugate(a):
    """Cofactor transpose, one minor and one determinant at a time."""
    n = a.shape[0]
    if n == 1:
        return np.ones((1, 1))
    adj = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            minor = np.delete(np.delete(a, i, axis=0), j, axis=1)
            adj[j, i] = (-1.0) ** (i + j) * np.linalg.det(minor)
    return adj


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_stacked_adjugate_and_barrier_gradient_match_loops_bitwise(n):
    rng = np.random.default_rng(200 + n)
    c = _random_structure(rng, n)
    floor = 1e3  # forces the barrier row
    for mode in ("unconstrained", "positive_definite"):
        for _ in range(40):
            theta = rng.standard_normal(param_count(n))
            a = _decode(theta, n, mode)
            adj = _adjugate(a)
            assert np.array_equal(adj, reference_adjugate(a))
            dirs = _decode_directions(theta, n, mode)
            loop = np.array([float(np.sum(adj.T * da)) for da in dirs])
            assert np.array_equal(np.sum(adj.T * dirs, axis=(1, 2)), loop)
            if mode == "unconstrained":
                d = float(np.linalg.det(a))
                sign = 1.0 if d >= 0 else -1.0
                _, jac = _residual_jacobian(c, theta, mode, floor)
                assert np.array_equal(jac[-1], -_BARRIER_WEIGHT / floor * sign * loop)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_jacobian_makes_two_solves_at_every_dimension(n, monkeypatch):
    calls = []
    solve = np.linalg.solve

    def counting(*args, **kw):
        calls.append(1)
        return solve(*args, **kw)

    monkeypatch.setattr(np.linalg, "solve", counting)
    rng = np.random.default_rng(n)
    c = _random_structure(rng, n)
    for mode, floor in (("unconstrained", 1e-8), ("positive_definite", 1e-8),
                        ("unconstrained", 1e3)):
        theta = rng.standard_normal(param_count(n)) * 0.6
        del calls[:]
        _residual_jacobian(c, theta, mode, floor)
        assert len(calls) == 2  # the product, then every direction at once


def _scalar_fun(residual, slope):
    """A one-parameter problem whose reported Jacobian is ``slope``."""
    return lambda th: (np.array([residual(th[0])]), np.array([[slope]]))


@pytest.mark.parametrize("reason", STOP_REASONS)
def test_minimize_names_each_exit(reason, monkeypatch):
    theta0, iters, stop = np.array([1.0]), 100, None
    if reason == "converged":
        fun = _scalar_fun(lambda t: 0.0, 1.0)
    elif reason == "stationary":
        fun = _scalar_fun(lambda t: 1.0, 0.0)
    elif reason == "stalled":
        # the accepted step lowers the cost by one unit in the last place
        fun = _scalar_fun(lambda t: 1.0 if t == 1.0 else 1.0 - 1e-16, -1.0)
    elif reason == "armijo_failed":
        def singular(*args, **kw):
            raise np.linalg.LinAlgError("singular")
        monkeypatch.setattr(np.linalg, "solve", singular)
        fun = _scalar_fun(lambda t: 1.0 + (t - 1.0) ** 2, 1.0)  # uphill everywhere
    elif reason == "left_domain":
        fun, stop = _scalar_fun(lambda t: t, 1.0), (lambda th: True)
    elif reason == "damping_blowup":
        fun = _scalar_fun(lambda t: 1.0 + (t - 1.0) ** 2, -1.0)
    else:
        fun, iters = _scalar_fun(lambda t: t, 1.0), 1
    theta, cost, used, got, lam = _minimize(fun, theta0, iters, 0.0, stop=stop)
    assert got == reason
    assert used <= iters
    assert lam > 1e12 if reason == "damping_blowup" else 0.0 < lam <= 1e12


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
