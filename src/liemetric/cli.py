"""Command-line front end.

Subcommands: validate, check, search, classify, dual-sweep. Every run prints
a small table and can also write a JSON report carrying the tool version,
input digests, the exact command, per-check results, seeds, and wall time,
so a report is enough to reproduce the run.

Exit codes: 0 success, 1 a check failed, 2 bad input, 3 search exhausted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__, dual, io, metric, search
from .algebra import InvalidStructureError
from .metric import DegenerateMetricError
from .scalars import DEFAULT_TOL, scalar_str

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_NOT_FOUND = 3


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _jsonable(x):
    if isinstance(x, Fraction):
        return scalar_str(x)
    if isinstance(x, (np.floating, np.integer)):
        x = x.item()
    if isinstance(x, float) and not math.isfinite(x):
        return str(x)
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


class Report:
    """Accumulates per-check rows and renders them as a table or JSON."""

    def __init__(self, command: list, seed=None):
        self.started = time.monotonic()
        self.doc = {
            "tool": "liemetric",
            "version": __version__,
            "command": list(command),
            "inputs": {},
            "checks": [],
            "seed": seed,
        }

    def add_input(self, path: str):
        self.doc["inputs"][str(path)] = _digest(path)

    def add(self, name: str, status: str, value=None, **extra):
        row = {"name": name, "status": status}
        if value is not None:
            row["value"] = _jsonable(value)
        row.update({k: _jsonable(v) for k, v in extra.items()})
        self.doc["checks"].append(row)

    def finish(self, json_path=None) -> None:
        self.doc["wall_time_s"] = round(time.monotonic() - self.started, 3)
        for row in self.doc["checks"]:
            value = row.get("value")
            tail = "" if value is None else f"  {value}"
            print(f"{row['name']:<28} {row['status']:<12}{tail}")
        if json_path:
            with open(json_path, "w") as fh:
                json.dump(_jsonable(self.doc), fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"report written to {json_path}")


def _load_algebra(path, rep: Report, tol: float):
    rep.add_input(path)
    alg = io.load_algebra(path, check_jacobi=False)
    residual, triple = alg.worst_jacobi_triple()
    ok = (residual == 0) if alg.exact else (abs(residual) <= tol)
    rep.add("jacobi_identity", "ok" if ok else "failed",
            float(residual), worst_triple=[t + 1 for t in triple])
    if not ok:
        raise InvalidStructureError(
            f"Jacobi identity fails at basis triple {tuple(t + 1 for t in triple)}")
    return alg


def cmd_validate(args, rep: Report) -> int:
    alg = _load_algebra(args.algebra, rep, args.tol)
    rep.add("antisymmetry", "ok", None,
            note="enforced by the bracket file format")
    rep.add("dimension", "ok", alg.dim)
    return EXIT_OK


def cmd_check(args, rep: Report) -> int:
    alg = _load_algebra(args.algebra, rep, args.tol)
    rep.add_input(args.metric)
    a = io.load_metric(args.metric)
    if alg.dim != a.dim:
        raise io.FormatError("algebra and metric dimensions differ")
    sig = a.signature()
    rep.add("signature", "ok", [sig.p, sig.q])
    conn = metric.levi_civita_product(alg, a)
    rep.add("product_torsion", "ok", float(conn.torsion_residual(alg)))
    rep.add("product_metric_skew", "ok", float(conn.skew_residual(a)))
    res = metric.compatibility_residual(alg, a, conn)
    compatible = res.exact_zero if res.exact_zero is not None else res.value <= args.tol
    rep.add("compatibility_residual", "ok" if compatible else "failed",
            res.value, worst_triple=[t + 1 for t in res.worst_triple])
    uni = alg.is_unimodular(args.tol)
    rep.add("unimodular", "yes" if uni.unimodular else "no",
            [float(t) for t in uni.traces])
    rep.add("dual_compatibility", "ok" if compatible else "failed",
            dual.dpi_residual(alg, a))
    rep.add("jacobi_cyclic_identity", "ok", dual.cyclic_schouten_residual(alg, a))
    rep.add("metric_transport_identity", "ok",
            dual.metric_derivation_residual(alg, a))
    worst_mod = 0.0
    for k in range(alg.dim):
        f = [1 if t == k else 0 for t in range(alg.dim)]
        worst_mod = max(worst_mod, abs(dual.modular_field_value(alg, a, f)))
    rep.add("modular_sweep_max", "ok", worst_mod)
    return EXIT_OK if compatible else EXIT_CHECK_FAILED


def _parse_signature(text: str, n: int):
    if text == "any":
        return "none"
    if text == "riemann":
        return "positive_definite"
    try:
        p, q = (int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"signature must be 'any', 'riemann', or 'p,q', got {text!r}") from None
    if p < 0 or q < 0 or p + q != n:
        raise io.FormatError(f"signature ({p},{q}) does not fit dimension {n}")
    return (p, q)


def cmd_search(args, rep: Report) -> int:
    alg = _load_algebra(args.algebra, rep, args.tol)
    cfg = search.SearchConfig(
        signature_constraint=_parse_signature(args.signature, alg.dim),
        restarts=args.restarts, max_iters=args.max_iters,
        residual_tol=args.tol,
        rng_seed=args.seed)
    result = search.find_compatible_metric(alg, cfg)
    if result.found:
        io.save_metric(result.best_metric, args.out)
        rep.add("search", "found", result.best_residual,
                exact_certificate=result.exact_certificate,
                metric=[[x for x in row] for row in result.best_metric.matrix],
                metric_file=str(args.out), restarts_run=len(result.log))
        return EXIT_OK
    rep.add("search", "not_found", result.best_residual,
            restarts_run=len(result.log), seed=cfg.rng_seed,
            note="failure is evidence, not a certificate of nonexistence")
    return EXIT_NOT_FOUND


def cmd_classify(args, rep: Report) -> int:
    dims = (2, 3) if args.dim == "all" else (int(args.dim),)
    cfg = search.SearchConfig(restarts=args.restarts, max_iters=args.max_iters,
                              rng_seed=args.seed)
    report = search.verify_classification(sample_count=args.samples, cfg=cfg,
                                          dims=dims)
    for case in report.cases:
        rep.add(f"{case.name}/{case.mode}", case.outcome, case.residual,
                predicted=case.predicted, found=case.found, note=case.note)
    rep.add("classification", "ok" if report.ok else "failed",
            None, agreements=report.tally("agree"),
            soft_disagreements=report.tally("soft_disagree"),
            basis_variances=report.tally("basis_variance"),
            hard_disagreements=report.hard_disagreements)
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def cmd_dual_sweep(args, rep: Report) -> int:
    alg = _load_algebra(args.algebra, rep, args.tol)
    rep.add_input(args.metric)
    a = io.load_metric(args.metric)
    if args.points_file:
        rep.add_input(args.points_file)
        with open(args.points_file) as fh:
            points = json.load(fh)
        if (not isinstance(points, list)
                or any(len(p) != alg.dim for p in points)):
            raise io.FormatError("points file must hold a list of length-n points")
        points = [[float(x) for x in p] for p in points]
    else:
        rng = np.random.default_rng(args.seed)
        points = rng.standard_normal((args.count, alg.dim)).tolist()
    sweeps = [
        ("dual_compatibility", lambda pts: dual.dpi_residual(alg, a, pts)),
        ("jacobi_cyclic_identity", lambda pts: dual.cyclic_schouten_residual(alg, a, pts)),
        ("metric_transport_identity", lambda pts: dual.metric_derivation_residual(alg, a, pts)),
    ]
    entries = []
    consistent = True
    for name, fn in sweeps:
        worst = 0.0
        for pt in points:
            v = fn([pt])
            entries.append({"point": pt, "check": name, "value": v})
            worst = max(worst, v)
        if name != "dual_compatibility":
            consistent = consistent and worst <= args.tol
        rep.add(name + "_max", "ok" if worst <= args.tol else "above_tol", worst)
    worst_mod = 0.0
    for k in range(alg.dim):
        f = [1 if t == k else 0 for t in range(alg.dim)]
        for pt in points:
            v = dual.modular_field_value(alg, a, f, pt)
            entries.append({"point": pt, "check": f"modular_e{k + 1}", "value": v})
            worst_mod = max(worst_mod, abs(v))
    rep.add("modular_sweep_max", "ok", worst_mod)
    rep.doc["sweep"] = _jsonable(entries)
    return EXIT_OK if consistent else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liemetric",
        description="Compatibility checks and metric search for small Lie "
                    "algebras, plus the induced dual-space Poisson geometry.")
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=DEFAULT_TOL,
                        help="residual tolerance (default %(default)g)")
    common.add_argument("--seed", type=int, default=0,
                        help="random seed for anything sampled")
    common.add_argument("--json", dest="json_path", metavar="PATH",
                        help="also write the full report as JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common],
                       help="check a bracket file for consistency")
    p.add_argument("algebra")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("check", parents=[common],
                       help="run every compatibility check on a pair of files")
    p.add_argument("algebra")
    p.add_argument("metric")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("search", parents=[common],
                       help="look for a compatible metric")
    p.add_argument("algebra")
    p.add_argument("--signature", default="any",
                   help="'any', 'riemann', or 'p,q' (default any)")
    p.add_argument("--restarts", type=int, default=64)
    p.add_argument("--max-iters", type=int, default=500)
    p.add_argument("--out", default="found_metric.json",
                   help="where to write a found metric (default %(default)s)")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("classify", parents=[common],
                       help="compare search outcomes against the known "
                            "low-dimensional classification")
    p.add_argument("--dim", choices=["2", "3", "all"], default="all")
    p.add_argument("--samples", type=int, default=42,
                   help="family parameter triples to sample (default %(default)s)")
    p.add_argument("--restarts", type=int, default=16)
    p.add_argument("--max-iters", type=int, default=200)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("dual-sweep", parents=[common],
                       help="evaluate the dual-space identities at sample points")
    p.add_argument("algebra")
    p.add_argument("metric")
    p.add_argument("--count", type=int, default=100,
                   help="random points to draw (default %(default)s)")
    p.add_argument("--points-file",
                   help="JSON list of points to use instead of random ones")
    p.set_defaults(func=cmd_dual_sweep)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage already; pass that through
        return int(exc.code or 0)
    rep = Report(command=["liemetric"] + argv, seed=getattr(args, "seed", None))
    try:
        code = args.func(args, rep)
    except (io.FormatError, FileNotFoundError, json.JSONDecodeError) as exc:
        rep.add("input", "error", str(exc))
        rep.finish(args.json_path)
        return EXIT_INPUT_ERROR
    except (InvalidStructureError, DegenerateMetricError,
            dual.DegenerateRestrictionError) as exc:
        rep.add("check", "failed", str(exc))
        rep.finish(args.json_path)
        return EXIT_CHECK_FAILED
    rep.finish(args.json_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
