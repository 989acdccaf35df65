"""The four workloads: seeded inputs, the timed call, and the verdict check.

A workload turns a seed into a fixed list of jobs (one pass). ``generate``
builds the inputs through the program's own constructors and round-trips
each through ``io.save_*``/``io.load_*``; that is set-up. ``run`` is the only
code the benchmark times: calls into ``liemetric`` and nothing else.
``verdict`` reduces an output to a JSON-able record for the digest, and
``check`` compares it with what the benchmark's reference says, returning a
list of mismatches (empty when the job passed).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

import reference as ref

TOL = 1e-10

# Jobs whose mismatch is a defect already recorded in ROADMAP.md. They run on
# every pass and count in ``failed``; they do not make the run incorrect.
KNOWN_DEFECTS = {
    "cli/malformed/nan_bracket":
        "ROADMAP open item 5: a NaN bracket entry passes validation with exit 0",
}


@dataclass
class Job:
    label: str
    kind: str
    data: dict
    expect: dict = field(default_factory=dict)


def _fr(rng, lo=-3, hi=3, den=4) -> Fraction:
    return Fraction(int(rng.integers(lo, hi + 1)), int(rng.integers(1, den + 1)))


# Magnitudes of the shear factors and metric entries, by position. The seed
# picks only their signs, so inputs of every seed have the same sparsity and
# the same sizes of fractions, and so a similar cost.
MAGNITUDES = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 2), Fraction(1, 3),
              Fraction(2, 3), Fraction(3))


def _signed(rng, k: int) -> Fraction:
    return MAGNITUDES[k % len(MAGNITUDES)] * (1 if rng.random() < 0.5 else -1)


def shear(rng, n: int, steps: int) -> list:
    """Product of ``steps`` transvections with seeded factors; exact, det 1.

    Step k adds a multiple of basis vector k mod n to vector k + 1 mod n.
    """
    p = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(steps):
        i, j = k % n, (k + 1) % n
        t = _signed(rng, k)
        for r in range(n):
            p[r][j] += t * p[r][i]
    return p


def padded_structure(alg, n: int) -> list:
    m = alg.dim
    return [[[Fraction(alg.c[i][j][k]) if max(i, j, k) < m else Fraction(0)
              for k in range(n)] for j in range(n)] for i in range(n)]


def padded_metric(rows, n: int, rng, positive: bool) -> list:
    m = len(rows)
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(m):
        for j in range(m):
            out[i][j] = Fraction(rows[i][j])
    for i in range(m, n):
        d = _signed(rng, i)
        out[i][i] = abs(d) if positive or rng.random() < 0.7 else -abs(d)
    return out


def random_metric(rng, n: int, positive: bool) -> list:
    """Random nondegenerate rational form; L D L^T when positive definite."""
    if positive:
        low = [[Fraction(int(i == j)) if i <= j else _signed(rng, i * n + j)
                for j in range(n)] for i in range(n)]
        d = [abs(_signed(rng, k)) for k in range(n)]
        return [[sum((low[i][k] * d[k] * low[j][k] for k in range(n)), Fraction(0))
                 for j in range(n)] for i in range(n)]
    while True:
        m = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = _signed(rng, i * n + j)
        if ref.exact_det(m) != 0:
            return m


def roundtrip(lm, workdir: str, stem: str, alg=None, metric=None):
    """Save through the program's writers, load back, and confirm nothing changed."""
    out = []
    if alg is not None:
        path = os.path.join(workdir, stem + ".alg.json")
        lm.io.save_algebra(alg, path)
        back = lm.io.load_algebra(path)
        if back.c != alg.c or back.exact != alg.exact:
            raise RuntimeError(f"{stem}: algebra changed in an io round trip")
        out.append(back)
    if metric is not None:
        path = os.path.join(workdir, stem + ".metric.json")
        lm.io.save_metric(metric, path)
        back = lm.io.load_metric(path)
        if back.matrix != metric.matrix or back.exact != metric.exact:
            raise RuntimeError(f"{stem}: metric changed in an io round trip")
        out.append(back)
    return out[0] if len(out) == 1 else tuple(out)


def compatible_bases(lm, n: int) -> list:
    """(name, algebra, metric) triples compatible by the classification."""
    out = [(f"abelian{min(n, 3)}", lm.abelian(min(n, 3)), None)]
    if n >= 3:
        out += [("heisenberg", lm.heisenberg(), lm.heisenberg_split_metric()),
                ("sol", lm.sol(), lm.sol_split_metric()),
                ("euclidean_motions", lm.euclidean_motions(), lm.Metric.identity(3))]
    return out


def random_bases(lm, n: int) -> list:
    out = [("affine_line", lm.affine_line())]
    if n >= 3:
        out += [("heisenberg", lm.heisenberg()), ("sol", lm.sol()),
                ("euclidean_motions", lm.euclidean_motions()),
                ("family", lm.solvable_family(Fraction(1, 2), Fraction(-2, 3),
                                              Fraction(3, 4)))]
    return out


def exact_pair(lm, rng, n: int, kind: str, positive: bool, steps: int, index: int):
    """A sheared exact (algebra, metric) pair and whether it is compatible by build.

    The base algebra cycles with ``index``, so every seed draws the same mix
    of bases and only the shears, metrics and points change.

    ``transported``: a catalog compatible pair, padded by an orthogonal
    abelian summand, moved by an exact shear; compatible by construction.
    ``random``: a padded catalog algebra under a shear with a random metric;
    its verdict comes from the reference.
    """
    p = shear(rng, n, steps)
    if kind == "transported":
        bases = compatible_bases(lm, n)
        if positive:
            bases = [b for b in bases if b[2] is None or b[0] == "euclidean_motions"]
        name, base, a0 = bases[index % len(bases)]
        rows = random_metric(rng, base.dim, True) if a0 is None else a0.rows()
        alg = lm.LieAlgebra.from_structure(padded_structure(base, n), exact=True)
        a = lm.Metric.from_rows(padded_metric(rows, n, rng, positive), exact=True)
        return name, alg.changed_basis(p), a.transported(p), True
    bases = random_bases(lm, n)
    name, base = bases[index % len(bases)]
    alg = lm.LieAlgebra.from_structure(padded_structure(base, n), exact=True)
    a = lm.Metric.from_rows(random_metric(rng, n, positive), exact=True)
    return name, alg.changed_basis(p), a, None


def digestable(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, float):
        return repr(float(x))
    if isinstance(x, (list, tuple)):
        return [digestable(v) for v in x]
    if isinstance(x, dict):
        return {k: digestable(v) for k, v in x.items()}
    return x


# ---------------------------------------------------------------- search ---

class Search:
    """find_compatible_metric on the 3-d family, the catalog and sheared n = 4..6."""

    name = "search"
    restarts, max_iters, rng_seed = 8, 50, 20260822
    # triples per (discriminant sign, gamma - beta sign) stratum; negative
    # discriminants are weighted up so most jobs are quick finds and the
    # median sits inside that group rather than on its edge
    per_stratum = {-1: 8, 1: 3, 0: 3}

    def config(self, lm, mode):
        return lm.SearchConfig(signature_constraint=mode, restarts=self.restarts,
                               max_iters=self.max_iters, rng_seed=self.rng_seed)

    @staticmethod
    def family_sample(rng, per_stratum: dict) -> list:
        """Triples in each (sign of the discriminant, sign of gamma - beta) stratum."""
        out = []
        for s_sign in (-1, 1, 0):
            for gb_sign in (1, -1):
                got = 0
                while got < per_stratum[s_sign]:
                    if s_sign == 0:
                        alpha, beta = _fr(rng), _fr(rng)
                        # gamma - beta = -(alpha^2 + beta^2)/beta
                        if beta == 0 or (beta < 0) != (gb_sign > 0):
                            continue
                        triple = (alpha, beta, -alpha * alpha / beta)
                    else:
                        triple = (_fr(rng), _fr(rng), _fr(rng))
                        s = triple[0] ** 2 + triple[1] * triple[2]
                        gb = triple[2] - triple[1]
                        if s == 0 or gb == 0 or (s > 0) != (s_sign > 0) \
                                or (gb > 0) != (gb_sign > 0):
                            continue
                    out.append(triple)
                    got += 1
        return out

    # (a positive definite metric exists, a metric of any signature exists):
    # positive definite needs a negative discriminant, and the 2-d nonabelian
    # algebra admits no compatible metric at all
    CATALOG = {
        "abelian2": (True, True), "abelian3": (True, True),
        "affine_line": (False, False), "heisenberg": (False, True),
        "euclidean_motions": (True, True), "sol": (False, True),
    }

    def generate(self, lm, rng, workdir, smoke):
        jobs = []
        triples = self.family_sample(rng, {-1: 1, 1: 1, 0: 1} if smoke else self.per_stratum)
        if smoke:
            triples = triples[::2]
        for t, (alpha, beta, gamma) in enumerate(triples):
            alg = roundtrip(lm, workdir, f"family{t}", lm.solvable_family(alpha, beta, gamma))
            disc = alpha * alpha + beta * gamma
            for mode in ("positive_definite", "none"):
                exists = disc < 0 if mode == "positive_definite" else True
                jobs.append(Job(f"search/family{t}/{mode}", "family",
                                {"alg": alg, "mode": mode}, {"exists": exists}))
        names = ["heisenberg", "affine_line"] if smoke else list(self.CATALOG)
        for name in names:
            alg = roundtrip(lm, workdir, name, lm.by_name(name))
            for mode, exists in zip(("positive_definite", "none"), self.CATALOG[name]):
                jobs.append(Job(f"search/{name}/{mode}", "catalog",
                                {"alg": alg, "mode": mode}, {"exists": exists}))
        for n in ((4,) if smoke else (4, 5, 6)):
            for name in ("heisenberg", "sol"):
                base = lm.by_name(name)
                alg = lm.LieAlgebra.from_structure(padded_structure(base, n), exact=True)
                alg = roundtrip(lm, workdir, f"sheared{n}{name}",
                                alg.changed_basis(shear(rng, n, n)))
                # an orthogonal sum with an abelian summand stays compatible
                jobs.append(Job(f"search/sheared{n}/{name}/none", "sheared",
                                {"alg": alg, "mode": "none"}, {"exists": True}))
        for job in jobs:
            job.data["cfg"] = self.config(lm, job.data["mode"])
        return jobs

    def reference(self, job):
        pass  # existence is fixed at generation; finds are rechecked in check

    def run(self, lm, job):
        return lm.find_compatible_metric(job.data["alg"], job.data["cfg"])

    def verdict(self, job, out):
        metric = None if out.best_metric is None or not out.found else \
            [list(row) for row in out.best_metric.matrix]
        return digestable({"status": out.status, "exact": out.exact_certificate,
                           "restarts": len(out.log),
                           "iterations": sum(r.iterations for r in out.log),
                           "residual": out.best_residual, "metric": metric})

    def check(self, job, v, out):
        if not out.found:
            return []
        bad = []
        if not job.expect["exists"]:
            bad.append("metric found where the classification forbids one")
        alg, m = job.data["alg"], out.best_metric
        if out.exact_certificate:
            if not (m.exact and ref.exactly_compatible(alg.c, m.matrix)):
                bad.append("certified metric is not exactly compatible on recheck")
        else:
            r = ref.compat_residual(alg.c, m.matrix)
            if not r <= job.data["cfg"].residual_tol:
                bad.append(f"found metric rechecks to residual {r:.3e}")
        sig = ref.float_signature(m.matrix)
        if sig is None or (job.data["mode"] == "positive_definite" and sig[1] != 0):
            bad.append(f"found metric has inadmissible signature {sig}")
        return bad


# --------------------------------------------------------------- certify ---

class Certify:
    """Exact algebra-side verdicts on exact pairs at n = 2..6."""

    name = "certify"
    # pairs of each kind per dimension; n = 4 holds the median job, n = 6 the p90
    per_kind = {2: 3, 3: 3, 4: 4, 5: 3, 6: 3}

    def generate(self, lm, rng, workdir, smoke):
        jobs = []
        plan = {2: 1, 3: 1} if smoke else self.per_kind
        for n, per in plan.items():
            for kind in ("transported", "random"):
                for r in range(per):
                    positive = r % 2 == 0
                    base, alg, a, compatible = exact_pair(lm, rng, n, kind, positive, n, r)
                    alg, a = roundtrip(lm, workdir, f"cert{n}{kind}{r}", alg, a)
                    brackets = {(i, j): list(alg.c[i][j])
                                for i in range(n) for j in range(i + 1, n)
                                if any(x != 0 for x in alg.c[i][j])}
                    jobs.append(Job(f"certify/n{n}/{kind}{r}/{base}", kind,
                                    {"n": n, "brackets": brackets, "metric": a,
                                     "c": alg.c},
                                    {"compatible": compatible}))
        return jobs

    def reference(self, job):
        c, a = job.data["c"], job.data["metric"].matrix
        job.expect["ref_compatible"] = ref.exactly_compatible(c, a)
        job.expect["signature"] = ref.float_signature(a)

    def run(self, lm, job):
        alg = lm.LieAlgebra.from_brackets(job.data["n"], job.data["brackets"])
        a = job.data["metric"]
        sig = lm.signature(a)
        conn = lm.levi_civita_product(alg, a)
        torsion, skew = conn.torsion_residual(alg), conn.skew_residual(a)
        exact = lm.compatibility_residual(alg, a, conn)
        flt = lm.compatibility_residual(alg.to_float(), a.to_float())
        return sig, torsion, skew, exact, flt

    def verdict(self, job, out):
        sig, torsion, skew, exact, flt = out
        return digestable({"signature": list(sig), "torsion": torsion, "skew": skew,
                           "exact_zero": exact.exact_zero,
                           "worst": list(exact.worst_triple), "float": flt.value})

    def check(self, job, v, out):
        sig, torsion, skew, exact, flt = out
        bad = []
        if torsion != 0 or skew != 0:
            bad.append(f"torsion {torsion} / skew {skew} not exactly zero")
        if job.expect["compatible"] and not exact.exact_zero:
            bad.append("transported compatible pair lost exact compatibility")
        if exact.exact_zero != job.expect["ref_compatible"]:
            bad.append(f"exact verdict {exact.exact_zero} disagrees with the reference")
        if (flt.value <= TOL) != bool(exact.exact_zero):
            bad.append(f"float residual {flt.value:.3e} disagrees with the exact verdict")
        if tuple(sig) != job.expect["signature"]:
            bad.append(f"signature {tuple(sig)} != reference {job.expect['signature']}")
        return bad


# ------------------------------------------------------------------ dual ---

class Dual:
    """Dual-side identities on exact pairs at n = 2..4, in coefficients and at points."""

    name = "dual"
    # pairs per dimension; the median job falls among the n = 3 pairs and
    # the p90 in the middle of the n = 4 ones, whose costs differ by base
    pairs = {2: 10, 3: 14, 4: 12}
    points_per_pair = 1

    def generate(self, lm, rng, workdir, smoke):
        jobs = []
        plan = {2: 2, 3: 2} if smoke else self.pairs
        for n, count in plan.items():
            for r in range(count):
                kind = "transported" if r % 2 == 0 else "random"
                positive = r % 4 < 2
                base, alg, a, compatible = exact_pair(lm, rng, n, kind, positive, n - 1,
                                                      r // 2)
                alg, a = roundtrip(lm, workdir, f"dual{n}{kind}{r}", alg, a)
                points = [list(rng.standard_normal(n)) for _ in range(self.points_per_pair)]
                kahler = []
                if positive:
                    generic = self._generic_rank(alg.c, rng)
                    if generic >= 2:
                        while len(kahler) < self.points_per_pair:
                            mu = list(rng.standard_normal(n))
                            if ref.well_regular(alg.c, mu, generic):
                                kahler.append(mu)
                jobs.append(Job(f"dual/n{n}/{kind}{r}/{base}", kind,
                                {"alg": alg, "metric": a, "points": points,
                                 "kahler": kahler}, {"compatible": compatible}))
        return jobs

    @staticmethod
    def _generic_rank(c, rng) -> int:
        n = len(c)
        return max(int(np.linalg.matrix_rank(ref.bivector(c, rng.standard_normal(n))))
                   for _ in range(3))

    def reference(self, job):
        alg, a = job.data["alg"], job.data["metric"]
        job.expect["ref_compatible"] = ref.exactly_compatible(alg.c, a.matrix)
        job.expect["modular"] = [float(-t) for t in ref.ad_traces(alg.c)]

    def run(self, lm, job):
        alg, a = job.data["alg"], job.data["metric"]
        n = alg.dim
        coef = (lm.dpi_residual(alg, a), lm.cyclic_schouten_residual(alg, a),
                lm.metric_derivation_residual(alg, a))
        points = []
        for mu in job.data["points"]:
            points.append((lm.dpi_residual(alg, a, [mu]),
                           lm.cyclic_schouten_residual(alg, a, [mu]),
                           lm.metric_derivation_residual(alg, a, [mu]),
                           [lm.modular_field_value(alg, a, [int(k == q) for q in range(n)], mu)
                            for k in range(n)]))
        leaves = []
        for mu in job.data["kahler"]:
            g = lm.kahler_check_at(alg, a, mu)
            leaves.append((g.j_squared_residual, g.metric_residual))
        return coef, points, leaves

    def verdict(self, job, out):
        coef, points, leaves = out
        return digestable({"coef": list(coef), "points": points, "leaves": leaves})

    def check(self, job, v, out):
        (dpi, cyc, met), points, leaves = out
        bad = []
        compatible = job.expect["ref_compatible"]
        if cyc != 0 or met != 0:
            bad.append(f"cyclic {cyc} / transport {met} identity not exactly zero")
        if (dpi == 0) != compatible:
            bad.append(f"dpi {dpi} disagrees with the algebra-side verdict {compatible}")
        if job.expect["compatible"] and not compatible:
            bad.append("transported compatible pair is not compatible on the reference")
        for dpi_p, cyc_p, met_p, modular in points:
            if not (abs(cyc_p) <= TOL and abs(met_p) <= TOL):
                bad.append(f"pointwise cyclic {cyc_p} / transport {met_p} above tol")
            if compatible and not abs(dpi_p) <= TOL:
                bad.append(f"pointwise dpi {dpi_p} above tol on a compatible pair")
            for got, want in zip(modular, job.expect["modular"]):
                if not abs(got - want) <= TOL * max(1.0, abs(want)):
                    bad.append(f"modular value {got} != -tr(ad) {want}")
        for jsq, gres in leaves:
            if not (jsq < TOL and gres < TOL):
                bad.append(f"leaf residuals {jsq:.3e} / {gres:.3e} not below 1e-10")
        return bad


# ------------------------------------------------------------------- cli ---

def _write_json(path, doc):
    with open(path, "w") as fh:
        if isinstance(doc, str):
            fh.write(doc)
        else:
            json.dump(doc, fh)
    return path


class Cli:
    """Scripted ``python -m liemetric.cli`` subprocesses, one at a time."""

    name = "cli"
    spawns = True  # jobs are subprocesses: time them against a bare interpreter start
    timeout_s = 120
    search_args = ["--restarts", "8", "--max-iters", "50"]
    classify_args = ["--dim", "2", "--restarts", "4", "--max-iters", "50"]
    sweep_count = 2

    def __init__(self, src_dir: str):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = src_dir + (os.pathsep + self.env["PYTHONPATH"]
                                            if self.env.get("PYTHONPATH") else "")

    def generate(self, lm, rng, workdir, smoke):
        w = lambda name: os.path.join(workdir, name)
        jobs = []

        def add(label, kind, args, **expect):
            jobs.append(Job(f"cli/{label}", kind, {"args": args, "cwd": workdir}, expect))

        seed = int(rng.integers(1 << 30))
        for n in ((3,) if smoke else (3, 4)):
            alg = lm.LieAlgebra.from_structure(padded_structure(lm.heisenberg(), n), exact=True)
            alg = roundtrip(lm, workdir, f"validate{n}", alg.changed_basis(shear(rng, n, n)))
            add(f"validate/n{n}", "validate", ["validate", w(f"validate{n}.alg.json")],
                dim=n, c=alg.c)
        for kind in ("transported",) if smoke else ("transported", "random"):
            _, alg, a, _ = exact_pair(lm, rng, 3, kind, False, 2, 1)
            alg, a = roundtrip(lm, workdir, f"pair_{kind}", alg, a)
            pair = [w(f"pair_{kind}.alg.json"), w(f"pair_{kind}.metric.json")]
            add(f"check/{kind}", "check", ["check"] + pair, c=alg.c, metric=a.matrix)
            add(f"dual-sweep/{kind}", "dual-sweep",
                ["dual-sweep"] + pair + ["--count", str(self.sweep_count), "--seed", str(seed)],
                c=alg.c, metric=a.matrix)
        alg = lm.LieAlgebra.from_structure(padded_structure(lm.heisenberg(), 3), exact=True)
        alg = roundtrip(lm, workdir, "search_heis", alg.changed_basis(shear(rng, 3, 3)))
        for sig, forbidden in (("any", False), ("riemann", True)):
            out = w(f"found_{sig}.json")
            add(f"search/{sig}", "search",
                ["search", w("search_heis.alg.json"), "--signature", sig,
                 "--seed", str(seed), "--out", out] + self.search_args,
                c=alg.c, forbidden=forbidden, out=out)
        add("classify/dim2", "classify", ["classify", "--seed", str(seed)] + self.classify_args)
        for name in ("sol", "heisenberg", "euclidean_motions"):
            add(f"validate/bundled/{name}", "validate",
                ["validate", os.path.join(os.path.dirname(lm.__file__), "data", name + ".json")],
                dim=3, c=lm.by_name(name).c)
        malformed = {
            "bad_json": "{\"dim\": 3, \"brackets\": [",
            "missing_dim": {"brackets": []},
            "misordered_pair": {"dim": 3, "brackets": [{"i": 2, "j": 1, "v": ["0", "0", "1"]}]},
            "short_vector": {"dim": 3, "brackets": [{"i": 1, "j": 2, "v": ["0", "1"]}]},
            "duplicate_pair": {"dim": 3, "brackets": [{"i": 1, "j": 2, "v": ["0", "0", "1"]},
                                                      {"i": 1, "j": 2, "v": ["0", "0", "1"]}]},
            "zero_denominator": {"dim": 2, "brackets": [{"i": 1, "j": 2, "v": ["0", "1/0"]}]},
            "float_in_rational": {"dim": 2, "brackets": [{"i": 1, "j": 2, "v": [0, 1.5]}]},
            "zero_dim": {"dim": 0, "brackets": []},
            "nan_bracket": '{"dim": 3, "scalar": "float", "brackets": '
                           '[{"i": 1, "j": 2, "v": [NaN, 0.0, 1.0]}]}\n',
        }
        for name, doc in (list(malformed.items())[-2:] if smoke else malformed.items()):
            add(f"malformed/{name}", "malformed",
                ["validate", _write_json(w(f"bad_{name}.json"), doc)])
        asym = _write_json(w("bad_asymmetric.metric.json"),
                           {"scalar": "rational", "matrix": [["1", "2", "0"], ["0", "1", "0"],
                                                             ["0", "0", "1"]]})
        if not smoke:
            add("malformed/asymmetric_metric", "malformed",
                ["check", w("pair_transported.alg.json"), asym])
        return jobs

    def reference(self, job):
        e = job.expect
        if "metric" in e:
            e["compatible"] = ref.exactly_compatible(e["c"], e["metric"])
            e["signature"] = ref.float_signature(e["metric"])
        if "c" in e:
            e["max_trace"] = max(abs(float(t)) for t in ref.ad_traces(e["c"]))

    def run(self, lm, job):
        report = os.path.join(job.data["cwd"], "report.json")
        if os.path.exists(report):
            os.remove(report)
        proc = subprocess.run([sys.executable, "-m", "liemetric.cli"] + job.data["args"]
                              + ["--json", report], cwd=job.data["cwd"], env=self.env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=self.timeout_s)
        doc = None
        if os.path.exists(report):
            with open(report) as fh:
                doc = json.load(fh)
        return proc.returncode, doc, proc.stderr.decode(errors="replace")

    def verdict(self, job, out):
        code, doc, _ = out
        # error messages quote file paths, which hold the per-process work dir
        scrub = lambda v: v.replace(job.data["cwd"], "<work>") if isinstance(v, str) else v
        rows = [] if doc is None else [[r["name"], r["status"], scrub(r.get("value"))]
                                      for r in doc["checks"]]
        return digestable({"code": code, "rows": rows})

    def check(self, job, v, out):
        code, doc, stderr = out
        if "Traceback" in stderr:
            return [f"traceback on stderr: {stderr.strip().splitlines()[-1]}"]
        rows = {} if doc is None else {r["name"]: r for r in doc["checks"]}
        e, kind, bad = job.expect, job.kind, []

        def want(name, status):
            got = rows.get(name, {}).get("status")
            if got != status:
                bad.append(f"row {name}: {got!r}, expected {status!r}")

        if kind == "malformed":
            if code != 2:
                bad.append(f"exit {code}, expected 2 on malformed input")
            return bad
        if kind == "validate":
            if code != 0:
                bad.append(f"exit {code}, expected 0")
            want("jacobi_identity", "ok")
            if rows.get("dimension", {}).get("value") != e["dim"]:
                bad.append("dimension row does not match the file")
        elif kind == "check":
            expected = 0 if e["compatible"] else 1
            if code != expected:
                bad.append(f"exit {code}, expected {expected}")
            want("compatibility_residual", "ok" if e["compatible"] else "failed")
            want("dual_compatibility", "ok" if e["compatible"] else "failed")
            if tuple(rows.get("signature", {}).get("value") or ()) != e["signature"]:
                bad.append("signature row does not match the reference")
        elif kind == "dual-sweep":
            if code != 0:
                bad.append(f"exit {code}, expected 0")
            want("jacobi_cyclic_identity_max", "ok")
            want("metric_transport_identity_max", "ok")
            if e["compatible"]:
                want("dual_compatibility_max", "ok")
            got = rows.get("modular_sweep_max", {}).get("value")
            if got is None or not abs(got - e["max_trace"]) <= TOL * max(1.0, e["max_trace"]):
                bad.append(f"modular_sweep_max {got} != max |tr ad| {e['max_trace']}")
        elif kind == "search":
            found_row = rows.get("search", {}).get("status") == "found"
            if code not in (0, 3) or (code == 0) != found_row:
                bad.append(f"exit {code} does not match the search row")
            if code == 0:
                if e["forbidden"]:
                    bad.append("metric found where the classification forbids one")
                with open(e["out"]) as fh:
                    found = json.load(fh)
                exact = found.get("scalar") == "rational"
                matrix = [[Fraction(x) if exact else float(x) for x in row]
                          for row in found["matrix"]]
                if exact and not ref.exactly_compatible(e["c"], matrix):
                    bad.append("written metric is not exactly compatible")
                if not exact and not ref.compat_residual(e["c"], matrix) <= TOL:
                    bad.append("written metric rechecks above tolerance")
                if ref.float_signature(matrix) is None:
                    bad.append("written metric is degenerate")
        elif kind == "classify":
            if code != 0:
                bad.append(f"exit {code}, expected 0")
            want("classification", "ok")
            if rows.get("classification", {}).get("hard_disagreements") != 0:
                bad.append("classification reports hard disagreements")
        return bad


def make(name: str, src_dir: str):
    if name == "cli":
        return Cli(src_dir)
    return {"search": Search, "certify": Certify, "dual": Dual}[name]()


WORKLOADS = ("search", "certify", "dual", "cli")
