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
import math
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__, classify, dual, io, metric, search
from .algebra import InvalidStructureError
from .metric import DegenerateMetricError
from .scalars import DEFAULT_TOL, report_float, within

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
        return str(x)
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

    def __init__(self, command: list, seed=None, tol=None):
        self.started = time.monotonic()
        self.doc = {
            "tool": "liemetric",
            "version": __version__,
            "command": list(command),
            "inputs": {},
            "checks": [],
            "seed": seed,
            "tol": tol,
        }

    def add_input(self, path: str):
        self.doc["inputs"][str(path)] = _digest(path)

    def add(self, name: str, status: str, value=None, **extra):
        row = {"name": name, "status": status}
        if value is not None:
            row["value"] = _jsonable(value)
        row.update({k: _jsonable(v) for k, v in extra.items()})
        self.doc["checks"].append(row)

    def verdict(self, name: str, ok: bool, value=None, failure: str = "failed", **extra) -> bool:
        """Add a row that says "ok" or the command's failure word; return ok."""
        self.add(name, "ok" if ok else failure, value, **extra)
        return ok

    def finish(self, json_path=None) -> None:
        self.doc["wall_time_s"] = round(time.monotonic() - self.started, 3)
        for row in self.doc["checks"]:
            value = row.get("value")
            tail = "" if value is None else f"  {value}"
            print(f"{row['name']:<28} {row['status']:<12}{tail}")
        if json_path:
            io._dump(_jsonable(self.doc), json_path)
            print(f"report written to {json_path}")


def _load_algebra(path, rep: Report, tol: float):
    rep.add_input(path)
    alg = io.load_algebra(path, check_jacobi=False)
    residual, triple = alg.worst_jacobi_triple()
    if not rep.verdict("jacobi_identity", within(residual, alg.exact, tol),
                       report_float(residual), worst_triple=[t + 1 for t in triple]):
        raise InvalidStructureError(
            f"Jacobi identity fails at basis triple {tuple(t + 1 for t in triple)}")
    return alg


def cmd_validate(args, rep: Report) -> int:
    alg = _load_algebra(args.algebra, rep, args.tol)
    rep.add("antisymmetry", "ok", None,
            note="enforced by the bracket file format")
    rep.add("dimension", "ok", alg.dim)
    return EXIT_OK


# report row names of the dual-side identities and their frame rows, in report order
DUAL_IDENTITIES = (("dual_compatibility", "dpi"),
                   ("jacobi_cyclic_identity", "cyclic"),
                   ("metric_transport_identity", "transport"))


def _modular_verdict(fr, traces, tol: float):
    """Largest |modular value| and whether each equals -tr(ad e_k), the modular character."""
    worst = max(abs(report_float(value)) for value in fr.modular)
    return worst, all(within(value + t, fr.exact, tol) for value, t in zip(fr.modular, traces))


def _load_pair(args, rep: Report):
    """The algebra and metric files of a command; a pair whose dimensions
    differ is bad input."""
    alg = _load_algebra(args.algebra, rep, args.tol)
    rep.add_input(args.metric)
    a = io.load_metric(args.metric)
    if alg.dim != a.dim:
        raise io.FormatError("algebra and metric dimensions differ")
    return alg, a


def cmd_check(args, rep: Report) -> int:
    alg, a = _load_pair(args, rep)
    sig = a.signature()
    rep.add("signature", "ok", [sig.p, sig.q])

    def residual(name, value, exact):
        return rep.verdict(name, within(value, exact, args.tol), report_float(value))

    conn = metric.levi_civita_product(alg, a)
    ok = [residual("product_torsion", conn.torsion_residual(alg), conn.exact),
          residual("product_metric_skew", conn.skew_residual(a), conn.exact)]
    res = metric.compatibility_residual(alg, a, conn)
    ok.append(rep.verdict("compatibility_residual", res.passes(args.tol), res.value,
                          worst_triple=[t + 1 for t in res.worst_triple]))
    uni = alg.is_unimodular(args.tol)
    rep.add("unimodular", "yes" if uni.unimodular else "no",
            [report_float(t) for t in uni.traces])
    fr = dual._frame(alg, a)
    ok += [residual(name, fr.worst(identity), fr.exact) for name, identity in DUAL_IDENTITIES]
    worst_mod, modular_ok = _modular_verdict(fr, uni.traces, args.tol)
    ok.append(rep.verdict("modular_sweep_max", modular_ok, worst_mod))
    return EXIT_OK if all(ok) else EXIT_CHECK_FAILED


def _parse_signature(text: str, n: int):
    if text == "any":
        return "none"
    if text == "riemann":
        return "positive_definite"
    try:
        p, q = (int(x) for x in text.split(","))
    except ValueError:
        raise io.FormatError(
            f"signature must be 'any', 'riemann', or 'p,q', got {text!r}") from None
    if p < 0 or q < 0 or p + q != n:
        raise io.FormatError(f"signature ({p},{q}) does not fit dimension {n}")
    return (p, q)


def cmd_search(args, rep: Report) -> int:
    alg = _load_algebra(args.algebra, rep, args.tol)
    if alg.dim > search.MAX_SEARCH_DIM:
        raise io.FormatError(f"dimension {alg.dim} is above the search's cap of "
                             f"{search.MAX_SEARCH_DIM}")
    cfg = search.SearchConfig(
        signature_constraint=_parse_signature(args.signature, alg.dim),
        restarts=args.restarts, max_iters=args.max_iters,
        residual_tol=args.tol,
        rng_seed=args.seed)
    result = search.find_compatible_metric(alg, cfg)
    telemetry = {"restarts_run": len(result.log), "stop_reasons": result.stop_reasons()}
    if not result.found:
        rep.add("search", "not_found", result.best_residual, seed=cfg.rng_seed,
                note="failure is evidence, not a certificate of nonexistence", **telemetry)
        return EXIT_NOT_FOUND
    if args.out is not None:
        io.save_metric(result.best_metric, args.out)
    rep.add("search", "found", result.best_residual, exact_certificate=result.exact_certificate,
            metric=[[x for x in row] for row in result.best_metric.matrix],
            **({} if args.out is None else {"metric_file": str(args.out)}), **telemetry)
    return EXIT_OK


def cmd_classify(args, rep: Report) -> int:
    dims = (2, 3) if args.dim == "all" else (int(args.dim),)
    cfg = search.SearchConfig(restarts=args.restarts, max_iters=args.max_iters,
                              residual_tol=args.tol, rng_seed=args.seed)
    report = classify.verify_classification(sample_count=args.samples, cfg=cfg,
                                            dims=dims)
    for case in report.cases:
        rep.add(f"{case.name}/{case.mode}", case.outcome, case.residual,
                predicted=case.predicted, found=case.found, note=case.note,
                restarts_run=case.restarts_run, iterations=case.iterations,
                seconds=round(case.seconds, 4))
    ok = rep.verdict("classification", report.ok, None, agreements=report.tally("agree"),
                     soft_disagreements=report.tally("soft_disagree"),
                     basis_variances=report.tally("basis_variance"),
                     hard_disagreements=report.hard_disagreements)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_dual_sweep(args, rep: Report) -> int:
    alg, a = _load_pair(args, rep)
    if args.points_file:
        rep.add_input(args.points_file)
        points = io.load_points(args.points_file, alg.dim)
    else:
        rng = np.random.default_rng(args.seed)
        points = rng.standard_normal((args.count, alg.dim)).tolist()
    # one frame; each identity's coefficient rows evaluated at every point
    fr = dual._frame(alg, a)
    entries = []
    consistent = True
    for name, identity in DUAL_IDENTITIES:
        values = fr.sweep(identity, points)
        entries += [{"point": pt, "check": name, "value": float(v)}
                    for pt, v in zip(points, values)]
        worst = float(np.max(values))
        ok = rep.verdict(name + "_max", within(worst, False, args.tol), worst, "above_tol")
        if name != "dual_compatibility":
            consistent = consistent and ok
    # the modular value does not depend on the point; it is listed at each one
    for k, value in enumerate(fr.modular):
        entries += [{"point": pt, "check": f"modular_e{k + 1}", "value": report_float(value)}
                    for pt in points]
    worst_mod, modular_ok = _modular_verdict(fr, alg.ad_traces(), args.tol)
    rep.verdict("modular_sweep_max", modular_ok, worst_mod, "above_tol")
    rep.doc["sweep"] = entries
    return EXIT_OK if consistent and modular_ok else EXIT_CHECK_FAILED


def _tolerance(text: str) -> float:
    """argparse type for --tol: a finite positive float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite positive number, got {text!r}")
    return value


def _integer(low: int, high: int | None = None):
    """argparse type: an integer no smaller than ``low`` and, when given, no
    larger than ``high``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value
    return parse


def _seed(p, default: int):
    """--seed, on the subcommands that sample."""
    p.add_argument("--seed", type=_integer(0), default=default,
                   help="random seed for anything sampled (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liemetric",
        description="Compatibility checks and metric search for small Lie "
                    "algebras, plus the induced dual-space Poisson geometry.")
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL,
                        help="residual tolerance (default %(default)g)")
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
    p.add_argument("--restarts", type=_integer(1), default=64)
    p.add_argument("--max-iters", type=_integer(0), default=500)
    p.add_argument("--out", help="write a found metric to this file, replacing "
                                 "it if it exists (default: write no file)")
    _seed(p, 0)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("classify", parents=[common],
                       help="compare search outcomes against the known "
                            "low-dimensional classification")
    p.add_argument("--dim", choices=["2", "3", "all"], default="all")
    p.add_argument("--samples", type=_integer(0), default=42,
                   help="family parameter triples to sample (default %(default)s)")
    p.add_argument("--restarts", type=_integer(1), default=16)
    p.add_argument("--max-iters", type=_integer(0), default=200)
    _seed(p, classify.DEFAULT_SWEEP_CONFIG.rng_seed)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("dual-sweep", parents=[common],
                       help="evaluate the dual-space identities at sample points")
    p.add_argument("algebra")
    p.add_argument("metric")
    p.add_argument("--count", type=_integer(1, io.MAX_POINTS), default=100,
                   help=f"random points to draw, at most {io.MAX_POINTS} (default %(default)s)")
    p.add_argument("--points-file",
                   help="JSON list of points to use instead of random ones")
    _seed(p, 0)
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
    rep = Report(command=["liemetric"] + argv, seed=getattr(args, "seed", None),
                 tol=getattr(args, "tol", None))
    try:
        code = args.func(args, rep)
    except (io.FormatError, OSError) as exc:
        rep.add("input", "error", str(exc))
        code = EXIT_INPUT_ERROR
    except (InvalidStructureError, DegenerateMetricError,
            dual.DegenerateRestrictionError) as exc:
        rep.add("check", "failed", str(exc))
        code = EXIT_CHECK_FAILED
    try:
        rep.finish(args.json_path)
    except OSError as exc:
        print(f"cannot write the report: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
