"""JSON serialization for algebras and metrics.

Algebra files carry 1-based bracket entries for pairs i < j only:

    {"dim": 3, "name": "heisenberg",
     "brackets": [{"i": 1, "j": 2, "v": ["0", "0", "1"]}]}

Metric files carry the full symmetric matrix and a scalar mode:

    {"matrix": [["1", "0"], ["0", "1"]], "scalar": "rational"}

Rational entries are strings like "-3/2"; float mode uses JSON numbers.
Save then load then save reproduces the file byte for byte.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .algebra import LieAlgebra
from .metric import Metric
from .scalars import scalar_str


class FormatError(ValueError):
    """Malformed or inconsistent input file."""


def _require(cond: bool, msg: str):
    if not cond:
        raise FormatError(msg)


def _parse_rational(x, where: str) -> Fraction:
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise FormatError(f"{where}: rational entries must be integers or strings, got {x!r}")
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"{where}: bad rational {x!r}") from exc


def _parse_float(x, where: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float, str)):
        raise FormatError(f"{where}: numeric entry expected, got {x!r}")
    try:
        value = float(Fraction(x)) if isinstance(x, str) else float(x)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise FormatError(f"{where}: bad number {x!r}") from exc
    _require(math.isfinite(value), f"{where}: non-finite number {x!r}")
    return value


def algebra_to_dict(alg: LieAlgebra) -> dict:
    entries = []
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            coeffs = alg.c[i][j]
            if any(x != 0 for x in coeffs):
                v = [scalar_str(x) if alg.exact else float(x) for x in coeffs]
                entries.append({"i": i + 1, "j": j + 1, "v": v})
    out = {"dim": alg.dim, "scalar": "rational" if alg.exact else "float",
           "brackets": entries}
    if alg.name:
        out["name"] = alg.name
    return out


def algebra_from_dict(doc: dict, *, check_jacobi: bool = True) -> LieAlgebra:
    _require(isinstance(doc, dict), "algebra document must be an object")
    _require("dim" in doc, "algebra document needs a 'dim' field")
    n = doc["dim"]
    _require(isinstance(n, int) and not isinstance(n, bool) and n >= 1,
             "'dim' must be a positive integer")
    mode = doc.get("scalar", "rational")
    _require(mode in ("rational", "float"), f"unknown scalar mode {mode!r}")
    exact = mode == "rational"
    parse = _parse_rational if exact else _parse_float
    brackets = {}
    for pos, entry in enumerate(doc.get("brackets", [])):
        where = f"brackets[{pos}]"
        _require(isinstance(entry, dict), f"{where}: entry must be an object")
        _require({"i", "j", "v"} <= set(entry), f"{where}: needs fields i, j, v")
        i, j = entry["i"], entry["j"]
        _require(all(isinstance(t, int) and not isinstance(t, bool) for t in (i, j)),
                 f"{where}: i and j must be integers")
        _require(1 <= i < j <= n, f"{where}: need 1 <= i < j <= dim, got ({i}, {j})")
        _require((i - 1, j - 1) not in brackets, f"{where}: duplicate pair ({i}, {j})")
        v = entry["v"]
        _require(isinstance(v, list) and len(v) == n,
                 f"{where}: 'v' must list {n} coefficients")
        brackets[(i - 1, j - 1)] = [parse(x, where) for x in v]
    name = doc.get("name", "")
    _require(isinstance(name, str), "'name' must be a string")
    # the file was well formed; anything from_brackets rejects now is a
    # defect in the table itself, and keeps its own error type
    return LieAlgebra.from_brackets(n, brackets, exact=exact,
                                    check_jacobi=check_jacobi, name=name)


def metric_to_dict(a: Metric) -> dict:
    if a.exact:
        rows = [[scalar_str(x) for x in row] for row in a.matrix]
    else:
        rows = [[float(x) for x in row] for row in a.matrix]
    return {"matrix": rows, "scalar": "rational" if a.exact else "float"}


def metric_from_dict(doc: dict) -> Metric:
    _require(isinstance(doc, dict), "metric document must be an object")
    _require("matrix" in doc, "metric document needs a 'matrix' field")
    mode = doc.get("scalar", "rational")
    _require(mode in ("rational", "float"), f"unknown scalar mode {mode!r}")
    exact = mode == "rational"
    parse = _parse_rational if exact else _parse_float
    rows = doc["matrix"]
    _require(isinstance(rows, list) and rows and all(isinstance(r, list) for r in rows),
             "'matrix' must be a nonempty list of rows")
    n = len(rows)
    _require(all(len(r) == n for r in rows), "'matrix' must be square")
    data = [[parse(x, f"matrix[{i}][{j}]") for j, x in enumerate(row)]
            for i, row in enumerate(rows)]
    try:
        return Metric.from_rows(data, exact=exact)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def _dump(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _reject_constant(name: str):
    raise FormatError(f"non-finite literal {name} is not allowed")


def _load_json(path):
    with open(path) as fh:
        try:
            return json.load(fh, parse_constant=_reject_constant)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: {exc}") from exc


def save_algebra(alg: LieAlgebra, path):
    with open(path, "w") as fh:
        fh.write(_dump(algebra_to_dict(alg)))


def load_algebra(path, *, check_jacobi: bool = True) -> LieAlgebra:
    return algebra_from_dict(_load_json(path), check_jacobi=check_jacobi)


def save_metric(a: Metric, path):
    with open(path, "w") as fh:
        fh.write(_dump(metric_to_dict(a)))


def load_metric(path) -> Metric:
    return metric_from_dict(_load_json(path))
