"""JSON serialization for algebras and metrics.

Algebra files carry 1-based bracket entries for pairs i < j only:

    {"dim": 3, "name": "heisenberg",
     "brackets": [{"i": 1, "j": 2, "v": ["0", "0", "1"]}]}

Metric files carry the full symmetric matrix and a scalar mode:

    {"matrix": [["1", "0"], ["0", "1"]], "scalar": "rational"}

Rational entries are strings like "-3/2"; float mode uses JSON numbers.
Every entry is read by ``scalars.coerce`` (a refusal is a FormatError naming
its position), a string as ``Fraction(text)`` in both modes with at most
``MAX_EXPONENT_DIGITS`` (3) exponent digits. Save then load then save
reproduces the file byte for byte.

An algebra file may declare at most ``MAX_DIM`` basis vectors: building the
structure tensor allocates dim^3 entries and the Jacobi check costs dim^5
operations, so a one-line file with a huge ``dim`` is refused before any of
that is allocated. A metric file may hold at most ``MAX_DIM`` rows, refused
before any entry is parsed.

A float-mode entry must be finite and at most ``MAX_FLOAT_ENTRY`` (1e50) in
magnitude: the cap under which every float algebra and metric is built,
defined (with its reason) in ``scalars`` and importable from here, as
``MAX_EXPONENT_DIGITS`` is. Exact files have no cap: their kernels do not
overflow.

Points files (``dual-sweep --points-file``) hold a JSON list of length-n
lists of numbers, read like float-mode entries. A points file may hold at
most ``MAX_POINTS`` points, refused before any entry is parsed, since a
sweep's time and its report grow with the points.

Any input file may be at most ``MAX_FILE_BYTES`` (16 MiB), refused before it
is parsed; the largest points file the other caps admit is 7.7 MB.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .algebra import LieAlgebra
from .metric import Metric
from .scalars import MAX_EXPONENT_DIGITS, MAX_FLOAT_ENTRY, coerce

MAX_DIM = 32

MAX_POINTS = 10_000

MAX_FILE_BYTES = 16 * 2 ** 20


class FormatError(ValueError):
    """Malformed or inconsistent input file."""


def _require(cond: bool, msg: str):
    if not cond:
        raise FormatError(msg)


def _entry(x, exact: bool, where: str):
    try:
        return coerce(x, exact)
    except ValueError as exc:
        raise FormatError(f"{where}: bad {'rational' if exact else 'number'} {x!r}") from exc


def _parse_rational(x, where: str) -> Fraction:
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise FormatError(f"{where}: rational entries must be integers or strings, got {x!r}")
    return _entry(x, True, where)


def _parse_float(x, where: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float, str)):
        raise FormatError(f"{where}: numeric entry expected, got {x!r}")
    value = _entry(x, False, where)  # a JSON number past the double range is inf
    _require(abs(value) <= MAX_FLOAT_ENTRY,
             f"{where}: {x!r} is not finite or above the float-mode cap of {MAX_FLOAT_ENTRY:g}")
    return value


def algebra_to_dict(alg: LieAlgebra) -> dict:
    entries = []
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            coeffs = alg.c[i][j]
            if any(x != 0 for x in coeffs):
                v = [str(x) if alg.exact else float(x) for x in coeffs]
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
    _require(n <= MAX_DIM, f"'dim' {n} is above the cap of {MAX_DIM}")
    mode = doc.get("scalar", "rational")
    _require(mode in ("rational", "float"), f"unknown scalar mode {mode!r}")
    exact = mode == "rational"
    parse = _parse_rational if exact else _parse_float
    entries = doc.get("brackets", [])
    _require(isinstance(entries, list), "'brackets' must be a list")
    brackets = {}
    for pos, entry in enumerate(entries):
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
        rows = [[str(x) for x in row] for row in a.matrix]
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
    _require(n <= MAX_DIM, f"'matrix' has {n} rows, above the cap of {MAX_DIM}")
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
    with open(path, "rb") as fh:
        data = fh.read(MAX_FILE_BYTES + 1)
    _require(len(data) <= MAX_FILE_BYTES,
             f"{path}: file is longer than the cap of {MAX_FILE_BYTES} bytes")
    try:
        return json.loads(data.decode("utf-8"), parse_constant=_reject_constant)
    except FormatError:
        raise
    except ValueError as exc:
        # bad JSON, bytes that are not UTF-8, or an integer literal past the
        # interpreter's digit limit
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


def load_points(path, dim: int) -> list:
    """A points file as a list of float lists, each of length dim; at least one."""
    doc = _load_json(path)
    _require(not isinstance(doc, list) or len(doc) <= MAX_POINTS,
             f"points file holds more points than the cap of {MAX_POINTS}")
    _require(isinstance(doc, list) and doc
             and all(isinstance(p, list) and len(p) == dim for p in doc),
             "points file must hold a non-empty list of length-n points")
    return [[_parse_float(x, f"points[{i}][{j}]") for j, x in enumerate(p)]
            for i, p in enumerate(doc)]
