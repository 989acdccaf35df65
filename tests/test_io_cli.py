"""File formats round-trip byte-for-byte; the command line keeps its exit
code contract: 0 ok, 1 check failed, 2 bad input, 3 nothing found."""

import json
import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from liemetric import (
    FormatError,
    InvalidStructureError,
    Metric,
    abelian,
    compatibility_residual,
    heisenberg,
    heisenberg_split_metric,
    is_pseudo_riemannian,
    load_algebra,
    load_metric,
    save_algebra,
    save_metric,
    sol,
    sol_split_metric,
    solvable_family,
)
from liemetric import dual
from liemetric.algebra import LieAlgebra
from liemetric.cli import build_parser, main
from liemetric.io import MAX_DIM, MAX_FILE_BYTES, MAX_FLOAT_ENTRY, MAX_POINTS, load_points
from liemetric.metric import CompatibilityResidual, ConnectionTensor
from conftest import random_algebra, random_metric

DATA = Path(__file__).resolve().parent.parent / "src" / "liemetric" / "data"


def test_algebra_roundtrip_bytes(tmp_path, rng):
    alg = random_algebra(rng, 3)
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_algebra(alg, p1)
    save_algebra(load_algebra(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_metric_roundtrip_bytes(tmp_path, rng):
    """Exact and float metrics; a float one is written with every bit."""
    g = rng.standard_normal((4, 4))
    for a in (random_metric(rng, 4), Metric.from_rows((g + g.T).tolist(), exact=False)):
        p1 = tmp_path / "m.json"
        p2 = tmp_path / "m2.json"
        save_metric(a, p1)
        back = load_metric(p1)
        save_metric(back, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert back == a


def test_rational_strings_survive(tmp_path):
    alg = solvable_family(Fraction(1, 3), Fraction(-2, 7), Fraction(5))
    path = tmp_path / "fam.json"
    save_algebra(alg, path)
    doc = json.loads(path.read_text())
    vals = {b["v"][1] for b in doc["brackets"] if b["i"] == 1 and b["j"] == 2}
    assert vals == {"1/3"}
    back = load_algebra(path)
    assert back.c == alg.c


def test_one_based_upper_triangle_enforced(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "dim": 2, "scalar": "rational",
        "brackets": [{"i": 2, "j": 1, "v": ["0", "1"]}],
    }))
    with pytest.raises(FormatError):
        load_algebra(path)


def test_duplicate_bracket_rejected(tmp_path):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({
        "dim": 2, "scalar": "rational",
        "brackets": [{"i": 1, "j": 2, "v": ["0", "1"]},
                     {"i": 1, "j": 2, "v": ["0", "2"]}],
    }))
    with pytest.raises(FormatError):
        load_algebra(path)


def test_jacobi_checked_on_load(tmp_path):
    path = tmp_path / "nonjacobi.json"
    path.write_text(json.dumps({
        "dim": 3, "scalar": "rational",
        "brackets": [{"i": 1, "j": 2, "v": ["0", "0", "1"]},
                     {"i": 1, "j": 3, "v": ["1", "0", "0"]},
                     {"i": 2, "j": 3, "v": ["0", "1", "0"]}],
    }))
    from liemetric import InvalidStructureError
    with pytest.raises(InvalidStructureError):
        load_algebra(path)
    load_algebra(path, check_jacobi=False)


def test_metric_requires_symmetry(tmp_path):
    path = tmp_path / "asym.json"
    path.write_text(json.dumps({
        "matrix": [["1", "2"], ["3", "1"]], "scalar": "rational"}))
    with pytest.raises(FormatError):
        load_metric(path)


def test_float_scalar_mode(tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({
        "matrix": [[1.5, 0.25], [0.25, 2.0]], "scalar": "float"}))
    m = load_metric(path)
    assert not m.exact
    assert m.apply([1, 0], [0, 1]) == 0.25


@pytest.mark.parametrize("entry", ["NaN", "Infinity", "-Infinity", "1e400", '"1e400"'])
def test_non_finite_float_entries_rejected(tmp_path, entry):
    path = tmp_path / "nonfinite.json"
    path.write_text('{"matrix": [[%s, 0.0], [0.0, 1.0]], "scalar": "float"}' % entry)
    with pytest.raises(FormatError):
        load_metric(path)


def test_bundled_catalog_loads():
    names = ["abelian2", "abelian3", "affine_line", "heisenberg",
             "euclidean_motions", "sol"]
    for name in names:
        alg = load_algebra(DATA / f"{name}.json")
        assert alg.jacobi_residual() == 0
    m = load_metric(DATA / "heisenberg_split_metric.json")
    assert m.signature() == (2, 1)


# --- CLI ----------------------------------------------------------------

def algebra_file(tmp_path, alg, name="alg.json"):
    path = tmp_path / name
    save_algebra(alg, path)
    return str(path)


def metric_file(tmp_path, m, name="metric.json"):
    path = tmp_path / name
    save_metric(m, path)
    return str(path)


def test_cli_validate_ok(tmp_path, capsys):
    code = main(["validate", algebra_file(tmp_path, heisenberg())])
    assert code == 0
    out = capsys.readouterr().out
    assert "jacobi_identity" in out and "ok" in out


def test_cli_validate_bad_jacobi(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "dim": 3, "scalar": "rational",
        "brackets": [{"i": 1, "j": 2, "v": ["0", "0", "1"]},
                     {"i": 1, "j": 3, "v": ["1", "0", "0"]},
                     {"i": 2, "j": 3, "v": ["0", "1", "0"]}],
    }))
    code = main(["validate", str(path)])
    assert code == 1
    out = capsys.readouterr().out
    assert "failed" in out


def test_cli_missing_file_is_input_error(capsys):
    assert main(["validate", "/no/such/file.json"]) == 2


def test_cli_malformed_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["validate", str(path)]) == 2


def test_cli_validate_nan_bracket_is_input_error(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({
        "dim": 3, "scalar": "float",
        "brackets": [{"i": 1, "j": 2, "v": [0.0, 0.0, float("nan")]}],
    }))
    assert main(["validate", str(path)]) == 2


@pytest.mark.parametrize("data", [
    b"\x80\x81 not utf-8",
    b'{"dim": 2, "brackets": 5}',
    b'{"dim": 2, "brackets": null}',
    b'{"dim": 2, "brackets": [{"i": 1, "j": 2, "v": ["0", "1e99999999"]}]}',
    b'{"dim": 2, "scalar": "float", "brackets": [{"i": 1, "j": 2, "v": [0, "-1E+0099999"]}]}',
    b'{"dim": 2, "brackets": [{"i": 1, "j": 2, "v": ["0", "' + b"7" * 5000 + b'"]}]}',
    b'{"dim": ' + b"9" * 5000 + b"}",
])
def test_cli_unreadable_bracket_file_is_input_error(tmp_path, capsys, data):
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    assert main(["validate", str(path)]) == 2
    assert "input" in capsys.readouterr().out


def test_rational_exponents_up_to_three_digits_still_parse(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"dim": 2, "brackets": [{"i": 1, "j": 2,
                                                        "v": ["0", "1e-999"]}]}))
    assert load_algebra(path).c[0][1][1] == Fraction(1, 10 ** 999)


def test_cli_directory_as_input_is_input_error(tmp_path, capsys):
    assert main(["validate", str(tmp_path)]) == 2


@pytest.mark.parametrize("target", ["missing/r.json", "."])
def test_cli_unwritable_report_path_is_input_error(tmp_path, capsys, target):
    """A --json path in a missing directory, or a directory, exits 2 after the table."""
    code = main(["validate", str(DATA / "heisenberg.json"), "--json", str(tmp_path / target)])
    out, err = capsys.readouterr()
    assert code == 2
    assert "jacobi_identity" in out
    assert "cannot write the report" in err


def test_cli_check_nan_metric_is_input_error(tmp_path, capsys):
    path = tmp_path / "nan_metric.json"
    path.write_text(json.dumps({
        "matrix": [[1.0, 0.0, 0.0], [0.0, float("nan"), 0.0], [0.0, 0.0, 1.0]],
        "scalar": "float"}))
    assert main(["check", algebra_file(tmp_path, heisenberg()), str(path)]) == 2


def _values(row):
    """The numbers of a report row's value, however nested."""
    v = row.get("value")
    return [x for x in np.ravel(v if isinstance(v, list) else [v]).tolist()
            if isinstance(x, float)]


def _float_files(tmp_path, brackets, matrix):
    n = len(matrix)
    alg, met = tmp_path / "cap.alg.json", tmp_path / "cap.metric.json"
    entries = [{"i": 1, "j": j + 1, "v": [0.0] + [float(b) for b in brackets[:, j - 1]]}
               for j in range(1, n)]
    alg.write_text(json.dumps({"dim": n, "scalar": "float", "brackets": entries}))
    met.write_text(json.dumps({"scalar": "float", "matrix": np.asarray(matrix).tolist()}))
    return str(alg), str(met)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_float_entries_at_the_cap_run_without_nan_and_above_it_exit_2(tmp_path, capsys, n):
    """Float files at MAX_FLOAT_ENTRY: [e1, e_j] = ad e_j with a dense ad of
    entries up to the cap (a Lie algebra for any ad), against metrics at the
    cap with condition up to 1e8. ``check`` and ``dual-sweep`` run with
    warnings as errors and report no NaN or inf. One float above the cap,
    in either file, exits 2 before any kernel runs."""
    rng = np.random.default_rng([20261025, n])
    ad = rng.uniform(-1.0, 1.0, (n - 1, n - 1)) * MAX_FLOAT_ENTRY
    ad[0, 0] = -MAX_FLOAT_ENTRY
    metrics = [np.identity(n), np.diag([MAX_FLOAT_ENTRY / 1e8] + [MAX_FLOAT_ENTRY] * (n - 1)),
               np.diag([MAX_FLOAT_ENTRY] + [-MAX_FLOAT_ENTRY] * (n - 1))]
    report = tmp_path / "report.json"
    for matrix in metrics:
        alg, met = _float_files(tmp_path, ad, matrix)
        for command in (["check"], ["dual-sweep", "--count", "3"]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(command + [alg, met, "--json", str(report)]) in (0, 1)
            rows = json.loads(report.read_text())["checks"]
            assert all(math.isfinite(x) for row in rows for x in _values(row)), rows
    above = np.nextafter(MAX_FLOAT_ENTRY, math.inf)
    for brackets, matrix in ((np.where(ad == -MAX_FLOAT_ENTRY, -above, ad), np.identity(n)),
                             (ad, np.diag([above] + [1.0] * (n - 1)))):
        alg, met = _float_files(tmp_path, brackets, matrix)
        assert main(["check", alg, met]) == 2
    assert "above the float-mode cap" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["check", "dual-sweep"])
def test_cli_mismatched_dimensions_are_input_errors(tmp_path, capsys, command):
    code = main([command, algebra_file(tmp_path, heisenberg()),
                 metric_file(tmp_path, Metric.identity(2))])
    out, err = capsys.readouterr()
    assert code == 2
    assert "algebra and metric dimensions differ" in out and "Traceback" not in err


@pytest.mark.parametrize("command", ["check", "dual-sweep"])
def test_cli_dual_rows_read_one_kept_frame(tmp_path, capsys, monkeypatch, command):
    """Every dual row of a command comes from one frame, taken through the
    accessor that keeps it with the metric."""
    taken, built = [], []
    frame, init = dual._frame, dual._DualFrame.__init__
    monkeypatch.setattr(dual, "_frame", lambda *args: taken.append(args) or frame(*args))
    monkeypatch.setattr(dual._DualFrame, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    pair = [algebra_file(tmp_path, heisenberg()),
            metric_file(tmp_path, Metric.from_rows([[0, 0, 1], [0, 1, 0], [1, 0, 0]]))]
    count = ["--count", "3"] if command == "dual-sweep" else []
    assert main([command, *pair, *count]) == 0
    assert len(taken) == len(built) == 1


def test_cli_check_compatible_pair(tmp_path, capsys):
    code = main(["check", algebra_file(tmp_path, heisenberg()),
                 metric_file(tmp_path, Metric.from_rows(
                     [[0, 0, 1], [0, 1, 0], [1, 0, 0]]))])
    assert code == 0
    out = capsys.readouterr().out
    assert "compatibility_residual" in out


def _check_rows(tmp_path):
    report = tmp_path / "check.json"
    code = main(["check", algebra_file(tmp_path, heisenberg()),
                 metric_file(tmp_path, Metric.from_rows(
                     [[0, 0, 1], [0, 1, 0], [1, 0, 0]])),
                 "--json", str(report)])
    doc = json.loads(report.read_text())
    return code, {row["name"]: row["status"] for row in doc["checks"]}


def test_cli_check_rows_all_ok_on_compatible_pair(tmp_path, capsys):
    code, rows = _check_rows(tmp_path)
    assert code == 0
    judged = ["product_torsion", "product_metric_skew", "compatibility_residual",
              "dual_compatibility", "jacobi_cyclic_identity",
              "metric_transport_identity", "modular_sweep_max"]
    assert all(rows[name] == "ok" for name in judged)


# one defect row (c_1 .. c_n | c_0) with every coefficient 1/7, as (integer rows, scale)
_nonzero_rows = property(lambda fr: (np.full((1, fr.n + 1), 1, dtype=object), 7))


@pytest.mark.parametrize("row, owner, attr, fake", [
    ("product_torsion", ConnectionTensor, "torsion_residual", lambda self, alg: Fraction(1)),
    ("product_metric_skew", ConnectionTensor, "skew_residual", lambda self, a: Fraction(1)),
    ("compatibility_residual", CompatibilityResidual, "passes", lambda self, tol: False),
    ("dual_compatibility", dual._DualFrame, "dpi", _nonzero_rows),
    ("jacobi_cyclic_identity", dual._DualFrame, "cyclic", _nonzero_rows),
    ("metric_transport_identity", dual._DualFrame, "transport", _nonzero_rows),
    ("modular_sweep_max", dual._DualFrame, "modular",
     property(lambda fr: (Fraction(1),) * fr.n)),
])
def test_cli_check_row_judged_by_its_value(tmp_path, capsys, monkeypatch,
                                           row, owner, attr, fake):
    monkeypatch.setattr(owner, attr, fake)
    code, rows = _check_rows(tmp_path)
    assert [name for name, status in rows.items() if status == "failed"] == [row]
    assert code == 1


def test_cli_check_incompatible_pair_exits_one(tmp_path, capsys):
    code = main(["check", algebra_file(tmp_path, heisenberg()),
                 metric_file(tmp_path, Metric.identity(3))])
    assert code == 1


def test_cli_check_degenerate_metric_exits_one(tmp_path, capsys):
    code = main(["check", algebra_file(tmp_path, heisenberg()),
                 metric_file(tmp_path, Metric.from_rows(
                     [[1, 1, 0], [1, 1, 0], [0, 0, 1]]))])
    assert code == 1


def test_cli_search_found_writes_metric(tmp_path, capsys):
    out_metric = tmp_path / "found.json"
    code = main(["search", algebra_file(tmp_path, heisenberg()),
                 "--restarts", "8", "--out", str(out_metric)])
    assert code == 0
    found = load_metric(out_metric)
    from liemetric import compatibility_residual
    assert compatibility_residual(heisenberg(), found).exact_zero is True


def test_cli_search_without_out_writes_no_file(tmp_path, capsys, monkeypatch):
    """A found metric goes to a file only when --out names one: the working
    directory stays empty, and the report row names no file. A named file
    is replaced."""
    run = tmp_path / "run"
    run.mkdir()
    monkeypatch.chdir(run)
    report = tmp_path / "r.json"
    search = ["search", str(DATA / "heisenberg.json"), "--restarts", "8"]
    assert main([*search, "--json", str(report)]) == 0
    assert list(run.iterdir()) == []
    row = next(r for r in json.loads(report.read_text())["checks"] if r["name"] == "search")
    assert row["status"] == "found" and "metric_file" not in row
    (run / "m.json").write_text("stale")
    assert main([*search, "--out", "m.json"]) == 0
    assert load_metric(run / "m.json").dim == 3


def test_cli_search_not_found_exits_three(tmp_path, capsys):
    from liemetric import affine_line
    code = main(["search", algebra_file(tmp_path, affine_line()),
                 "--restarts", "6"])
    assert code == 3


def test_cli_search_of_an_exact_algebra_past_the_float_cap_exits_one(tmp_path, capsys):
    """An exact file has no cap, but the search runs in floats: a constant
    above MAX_FLOAT_ENTRY is refused when the search converts the algebra,
    and the command exits 1 with the reason instead of reporting not_found."""
    alg = LieAlgebra.from_brackets(3, {(0, 1): [0, 0, 10**60]})
    assert main(["search", algebra_file(tmp_path, alg), "--restarts", "2"]) == 1
    assert "c[0][1][2] is 1e+60" in capsys.readouterr().out


def test_cli_search_of_a_constant_past_the_float_range_exits_one(tmp_path, capsys):
    """A constant whose float view overflows ("1e400") is refused as the
    cap refuses 1e60: exit 1 with the entry named, not a traceback."""
    path = tmp_path / "huge.json"
    brackets = [{"i": 1, "j": 2, "v": ["0", "0", "1e400"]}]
    path.write_text(json.dumps({"dim": 3, "brackets": brackets}))
    assert main(["search", str(path), "--restarts", "2"]) == 1
    assert "c[0][1][2] is inf" in capsys.readouterr().out


def test_cli_search_above_the_search_cap_exits_two(tmp_path, capsys):
    """An algebra file of one dimension above the search's cap loads, and
    search refuses it with exit 2 and the reason, before searching."""
    from liemetric import abelian, search

    n = search.MAX_SEARCH_DIM + 1
    assert main(["search", algebra_file(tmp_path, abelian(n)), "--restarts", "1"]) == 2
    assert f"dimension {n} is above the search's cap of {n - 1}" in capsys.readouterr().out


def test_cli_search_definite_signature_finds_a_riemannian_metric(tmp_path, capsys):
    """--signature 3,0 searches as riemann does: euclidean_motions carries
    a positive definite compatible metric, and 3,0 finds one."""
    out_metric = tmp_path / "found.json"
    assert main(["search", str(DATA / "euclidean_motions.json"), "--signature", "3,0",
                 "--out", str(out_metric)]) == 0
    assert load_metric(out_metric).signature() == (3, 0)


def test_cli_search_report_is_reproducible(tmp_path, capsys):
    alg = algebra_file(tmp_path, heisenberg())
    j1, j2 = tmp_path / "r1.json", tmp_path / "r2.json"
    main(["search", alg, "--restarts", "4", "--seed", "5",
          "--out", str(tmp_path / "m1.json"), "--json", str(j1)])
    main(["search", alg, "--restarts", "4", "--seed", "5",
          "--out", str(tmp_path / "m2.json"), "--json", str(j2)])
    capsys.readouterr()
    a = json.loads(j1.read_text())
    b = json.loads(j2.read_text())

    def scrub(doc):
        return [{k: v for k, v in chk.items() if k != "metric_file"}
                for chk in doc["checks"]]

    assert scrub(a) == scrub(b)
    assert a["inputs"] == b["inputs"]
    assert "version" in a and "wall_time_s" in a


def test_cli_report_carries_input_digest(tmp_path, capsys):
    alg = algebra_file(tmp_path, heisenberg())
    j = tmp_path / "rep.json"
    main(["validate", alg, "--json", str(j)])
    capsys.readouterr()
    doc = json.loads(j.read_text())
    digest = doc["inputs"][alg]
    assert len(digest) == 64 and int(digest, 16) >= 0


def _every_subcommand(tmp_path):
    alg = algebra_file(tmp_path, heisenberg())
    met = metric_file(tmp_path, heisenberg_split_metric())
    quick = ["--restarts", "1", "--max-iters", "0"]
    return [["validate", alg], ["check", alg, met],
            ["search", alg, *quick, "--out", str(tmp_path / "found.json")],
            ["classify", "--samples", "0", *quick],
            ["dual-sweep", alg, met, "--count", "2"]]


@pytest.mark.parametrize("tol, want", [([], 1e-10), (["--tol", "1e-6"], 1e-6)])
def test_cli_report_states_its_tolerance(tmp_path, capsys, tol, want):
    """Every report names the tolerance its float verdicts were judged by."""
    for k, command in enumerate(_every_subcommand(tmp_path)):
        report = tmp_path / f"report{k}.json"
        main(command + tol + ["--json", str(report)])
        assert json.loads(report.read_text())["tol"] == want, command[0]


TINY = Fraction(1, 10**200)  # the product of two such numbers is 0.0 as a float


def test_exact_verdicts_never_round(tmp_path, capsys):
    """Exact residuals that are nonzero but round to 0.0 as floats fail: the
    Jacobi residual 2e-400 of a table with entries 1e-200, and the
    compatibility residual and the dual compatibility coefficients of a
    Heisenberg bracket of 1e-200 with the identity metric. No failed value
    reads 0.0, in the residual or in any report row."""
    table = {(0, 1): [0, TINY, 0], (0, 2): [0, 0, TINY], (1, 2): [TINY, 0, 0]}
    loose = LieAlgebra.from_brackets(3, table, check_jacobi=False)
    assert float(loose.jacobi_residual()) == 0.0
    with pytest.raises(InvalidStructureError):
        loose.require_jacobi()
    path = tmp_path / "tiny.alg.json"
    path.write_text(json.dumps({"dim": 3, "scalar": "rational", "brackets": [
        {"i": i + 1, "j": j + 1, "v": ["1e-200" if x else "0" for x in v]}
        for (i, j), v in table.items()]}))
    assert main(["validate", str(path)]) == 1

    heis, a = LieAlgebra.from_brackets(3, {(0, 1): [0, 0, TINY]}), Metric.identity(3)
    res = compatibility_residual(heis, a)
    assert res.value > 0.0 and res.exact_zero is False
    assert not is_pseudo_riemannian(heis, a)
    report = tmp_path / "check.json"
    assert main(["check", algebra_file(tmp_path, heis), metric_file(tmp_path, a),
                 "--json", str(report)]) == 1
    rows = {row["name"]: row for row in json.loads(report.read_text())["checks"]}
    assert rows["compatibility_residual"]["status"] == "failed"
    assert rows["dual_compatibility"]["status"] == "failed"
    failed = [row for row in rows.values() if row["status"] == "failed"]
    assert all(row["value"] > 0.0 for row in failed), failed


def test_tiny_report_values_keep_their_sign(tmp_path, capsys):
    """[e1, e2] = 1e-400 e2 with the identity metric: the traces of ad are
    (1e-400, 0) and the modular values (-1e-400, 0), nonzero but 0.0 or -0.0
    as floats. ``check`` and ``dual-sweep`` report them as the smallest
    double with their signs, and the exact zeros as 0.0."""
    tiny = math.ulp(0.0)
    alg = LieAlgebra.from_brackets(2, {(0, 1): [0, Fraction(1, 10**400)]})
    files = [algebra_file(tmp_path, alg), metric_file(tmp_path, Metric.identity(2))]
    report = tmp_path / "check.json"
    assert main(["check", *files, "--json", str(report)]) == 1
    rows = {row["name"]: row for row in json.loads(report.read_text())["checks"]}
    assert rows["unimodular"]["status"] == "no"
    assert rows["unimodular"]["value"] == [tiny, 0.0]
    assert rows["modular_sweep_max"]["status"] == "ok"
    assert rows["modular_sweep_max"]["value"] == tiny
    report = tmp_path / "sweep.json"
    assert main(["dual-sweep", *files, "--count", "3", "--json", str(report)]) == 0
    doc = json.loads(report.read_text())
    modular = [(e["check"], e["value"]) for e in doc["sweep"] if e["check"].startswith("modular")]
    assert modular == [("modular_e1", -tiny)] * 3 + [("modular_e2", 0.0)] * 3
    rows = {row["name"]: row for row in doc["checks"]}
    assert rows["modular_sweep_max"]["value"] == tiny


CHECK_ROWS = ["jacobi_identity", "signature", "product_torsion", "product_metric_skew",
              "compatibility_residual", "unimodular", "dual_compatibility",
              "jacobi_cyclic_identity", "metric_transport_identity", "modular_sweep_max"]
SWEEP_ROWS = ["jacobi_identity", "dual_compatibility_max", "jacobi_cyclic_identity_max",
              "metric_transport_identity_max", "modular_sweep_max"]


@pytest.mark.parametrize("constant", [Fraction(10**200), Fraction(10**400),
                                      Fraction(1, 10**400)], ids=["1e200", "1e400", "1e-400"])
def test_extreme_exact_constants_give_a_full_report(tmp_path, capsys, constant):
    """[e1, e2] = c e2 with the identity metric, c at or past the ends of the
    float range: ``check`` and ``dual-sweep`` finish without a traceback and
    write every row, and the nonzero dual defect at each point reads nonzero
    (inf past the float range, the smallest double below it)."""
    alg = LieAlgebra.from_brackets(2, {(0, 1): [0, constant]})
    files = [algebra_file(tmp_path, alg), metric_file(tmp_path, Metric.identity(2))]
    report = tmp_path / "check.json"
    assert main(["check", *files, "--json", str(report)]) == 1
    rows = json.loads(report.read_text())["checks"]
    assert [row["name"] for row in rows] == CHECK_ROWS
    assert float(rows[CHECK_ROWS.index("compatibility_residual")]["value"]) > 0.0
    report = tmp_path / "sweep.json"
    assert main(["dual-sweep", *files, "--count", "3", "--json", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert [row["name"] for row in doc["checks"]] == SWEEP_ROWS
    assert len(doc["sweep"]) == 3 * 3 + 2 * 3
    dpi = [float(e["value"]) for e in doc["sweep"] if e["check"] == "dual_compatibility"]
    assert len(dpi) == 3 and all(v > 0.0 for v in dpi)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("signature", ["foo", "1,x"])
def test_cli_malformed_signature_is_an_input_error(tmp_path, capsys, monkeypatch, signature):
    def refuse(*a, **kw):
        raise AssertionError("search ran on a rejected signature")

    monkeypatch.setattr("liemetric.search.find_compatible_metric", refuse)
    report = tmp_path / "search.json"
    assert main(["search", algebra_file(tmp_path, heisenberg()), "--signature", signature,
                 "--json", str(report)]) == 2
    row = json.loads(report.read_text())["checks"][-1]
    assert (row["name"], row["status"]) == ("input", "error")
    assert repr(signature) in row["value"]
    assert "Traceback" not in capsys.readouterr().err


def test_cli_classify_dim2(capsys):
    code = main(["classify", "--dim", "2", "--restarts", "6", "--samples", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "abelian2" in out and "affine_line" in out


def test_cli_classify_rows_carry_search_telemetry(tmp_path, capsys):
    j = tmp_path / "rep.json"
    assert main(["classify", "--dim", "2", "--restarts", "6", "--json", str(j)]) == 0
    capsys.readouterr()
    rows = {row["name"]: row for row in json.loads(j.read_text())["checks"]}
    for name in ("abelian2/positive_definite", "affine_line/none"):
        row = rows[name]
        assert row["restarts_run"] >= 1 and row["iterations"] >= 0 and row["seconds"] >= 0.0
    assert rows["affine_line/none"]["restarts_run"] == 6
    assert isinstance(rows["affine_line/none"]["value"], float)


def test_cli_classify_runs_the_sweep_of_verify_classification_by_default(tmp_path, capsys):
    """Without --seed, classify runs the library's default sweep, whose seed
    is DEFAULT_SWEEP_CONFIG's: its rows are those of verify_classification."""
    from liemetric import classify

    j = tmp_path / "rep.json"
    assert main(["classify", "--dim", "2", "--json", str(j)]) == 0
    capsys.readouterr()
    doc = json.loads(j.read_text())
    assert doc["seed"] == classify.DEFAULT_SWEEP_CONFIG.rng_seed
    got = [(row["name"], row["status"], row["found"], row["restarts_run"], row["iterations"])
           for row in doc["checks"][:-1]]
    want = [(f"{case.name}/{case.mode}", case.outcome, case.found, case.restarts_run,
             case.iterations) for case in classify.verify_classification(dims=(2,)).cases]
    assert got == want


@pytest.mark.parametrize("args", [
    ["search", "ALG", "--restarts", "0"],
    ["search", "ALG", "--restarts", "-3"],
    ["search", "ALG", "--max-iters", "-1"],
    ["search", "ALG", "--tol", "nan"],
    ["search", "ALG", "--tol", "inf"],
    ["search", "ALG", "--tol", "0"],
    ["search", "ALG", "--tol", "-1e-9"],
    ["classify", "--restarts", "0"],
    ["classify", "--max-iters", "-1"],
    ["classify", "--tol", "nan"],
    ["validate", "ALG", "--tol", "-inf"],
    ["classify", "--samples", "-1"],
    ["dual-sweep", "ALG", "ALG", "--count", "-1"],
    ["search", "ALG", "--seed", "-1"],
    ["dual-sweep", "ALG", "ALG", "--seed", "-2"],
    ["dual-sweep", "ALG", "ALG", "--count", "0"],
    ["validate", "ALG", "--seed", "1"],
    ["check", "ALG", "ALG", "--seed", "1"],
])
def test_cli_bad_numeric_arguments_are_input_errors(tmp_path, capsys, monkeypatch, args):
    def refuse(*a, **kw):
        raise AssertionError("search ran on a rejected argument")

    monkeypatch.setattr("liemetric.search.find_compatible_metric", refuse)
    alg = algebra_file(tmp_path, heisenberg())
    assert main([alg if a == "ALG" else a for a in args]) == 2
    err = capsys.readouterr().err
    # validate and check sample nothing, so --seed is not one of their options
    unsampled = args[0] in ("validate", "check") and "--seed" in args
    assert ("error: unrecognized arguments: --seed 1" if unsampled else "error: argument") in err
    assert "Traceback" not in err


@pytest.mark.parametrize("args, seed", [
    (["validate", "ALG"], None),
    (["check", "ALG", "MET"], None),
    (["search", "ALG", "--restarts", "2"], 0),
    (["dual-sweep", "ALG", "MET", "--count", "2"], 0),
])
def test_the_report_records_the_seed_default_where_something_is_sampled(tmp_path, capsys,
                                                                         args, seed):
    """classify's default is checked with its sweep above. A search that
    finds nothing (exit 3) still records its seed."""
    files = {"ALG": algebra_file(tmp_path, heisenberg()),
             "MET": metric_file(tmp_path, heisenberg_split_metric())}
    j = tmp_path / "rep.json"
    assert main([files.get(a, a) for a in args] + ["--json", str(j)]) in (0, 3)
    capsys.readouterr()
    assert json.loads(j.read_text())["seed"] == seed


def test_cli_classify_passes_tol_to_the_search(capsys, monkeypatch):
    from liemetric import classify, search
    seen = []

    def record(sample_count, cfg, dims):
        seen.append(cfg)
        return classify.ClassificationReport(cases=(), sample_count=sample_count,
                                             rng_seed=cfg.rng_seed)

    monkeypatch.setattr(classify, "verify_classification", record)
    assert main(["classify", "--dim", "2", "--tol", "1e-4"]) == 0
    assert main(["classify", "--dim", "2"]) == 0
    assert [cfg.residual_tol for cfg in seen] == [1e-4, search.SearchConfig().residual_tol]


@pytest.mark.parametrize("name, code, status", [("heisenberg", 0, "found"),
                                               ("affine_line", 3, "not_found")])
def test_cli_search_row_tallies_stop_reasons(tmp_path, capsys, name, code, status):
    from liemetric import by_name
    from liemetric.search import STOP_REASONS
    report = tmp_path / "r.json"
    assert main(["search", algebra_file(tmp_path, by_name(name)), "--restarts", "5",
                 "--out", str(tmp_path / "m.json"), "--json", str(report)]) == code
    row = next(r for r in json.loads(report.read_text())["checks"] if r["name"] == "search")
    assert row["status"] == status
    assert set(row["stop_reasons"]) <= set(STOP_REASONS)
    assert sum(row["stop_reasons"].values()) == row["restarts_run"]


def test_cli_dual_sweep(tmp_path, capsys):
    code = main(["dual-sweep", algebra_file(tmp_path, heisenberg()),
                 metric_file(tmp_path, Metric.identity(3)),
                 "--count", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "jacobi_cyclic_identity_max" in out


def test_cli_dual_sweep_points_file(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps([[0.1, 0.2, 0.3], [1.0, -1.0, 0.5]]))
    code = main(["dual-sweep", algebra_file(tmp_path, heisenberg()),
                 metric_file(tmp_path, sol_split_metric()),
                 "--points-file", str(pts), "--json", str(tmp_path / "d.json")])
    assert code == 0
    doc = json.loads((tmp_path / "d.json").read_text())
    assert len(doc["sweep"]) > 0


@pytest.mark.parametrize("text", [
    "[[0.1, NaN, 0.3]]",
    "[[0.1, 0.2, Infinity]]",
    "[[0.1, 0.2, -Infinity]]",
    "[[1e400, 0.2, 0.3]]",
    '[[0.1, "abc", 0.3]]',
    "[[0.1, null, 0.3]]",
    "[[0.1, true, 0.3]]",
    "[[0.1, 0.2]]",
    '{"points": []}',
])
def test_cli_dual_sweep_bad_points_file_is_input_error(tmp_path, capsys, text):
    pts = tmp_path / "pts.json"
    pts.write_text(text)
    code = main(["dual-sweep", algebra_file(tmp_path, heisenberg()),
                 metric_file(tmp_path, sol_split_metric()), "--points-file", str(pts)])
    assert code == 2


def test_load_points_requires_at_least_one_point(tmp_path):
    pts = tmp_path / "pts.json"
    pts.write_text("[[0.5, -1, 2]]")
    assert load_points(pts, 3) == [[0.5, -1.0, 2.0]]
    pts.write_text("[]")
    with pytest.raises(FormatError, match="non-empty"):
        load_points(pts, 3)


def test_cli_dual_sweep_of_no_points_is_an_input_error(tmp_path, capsys):
    """An empty sweep has compared nothing, so it may not report ok: sol with
    the Heisenberg split metric is above tolerance at any point."""
    alg = algebra_file(tmp_path, sol())
    metric = metric_file(tmp_path, heisenberg_split_metric())
    main(["dual-sweep", alg, metric, "--count", "3"])
    assert "dual_compatibility_max       above_tol" in capsys.readouterr().out
    pts = tmp_path / "pts.json"
    pts.write_text("[]")
    assert main(["dual-sweep", alg, metric, "--points-file", str(pts)]) == 2
    out = capsys.readouterr()
    assert "dual_compatibility_max" not in out.out and "Traceback" not in out.err


def _line_pair(tmp_path) -> list:
    """Files of the one-dimensional algebra and metric: points of length 1."""
    return [algebra_file(tmp_path, abelian(1)), metric_file(tmp_path, Metric.identity(1))]


def test_cli_count_above_the_points_cap_is_a_usage_error(tmp_path, capsys):
    pair = _line_pair(tmp_path)
    args = build_parser().parse_args(["dual-sweep", *pair, "--count", str(MAX_POINTS)])
    assert args.count == MAX_POINTS
    assert main(["dual-sweep", *pair, "--count", str(MAX_POINTS + 1)]) == 2
    assert f"must be at most {MAX_POINTS}, got {MAX_POINTS + 1}" in capsys.readouterr().err


def test_points_file_above_the_cap_is_refused_before_parsing(tmp_path, capsys, monkeypatch):
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps([[0.5]] * MAX_POINTS))
    assert len(load_points(pts, 1)) == MAX_POINTS

    from liemetric.io import _entry

    def refuse(x, exact, where):
        # the algebra and metric files are rational; only points are float
        if not exact:
            raise AssertionError("a point was parsed past the points cap")
        return _entry(x, exact, where)

    monkeypatch.setattr("liemetric.io._entry", refuse)
    pts.write_text(json.dumps([[0.5]] * (MAX_POINTS + 1)))
    assert main(["dual-sweep", *_line_pair(tmp_path), "--points-file", str(pts)]) == 2
    assert f"more points than the cap of {MAX_POINTS}" in capsys.readouterr().out


def test_file_above_the_byte_cap_is_refused_before_parsing(tmp_path, capsys, monkeypatch):
    """A well-formed points file padded to the byte cap loads; one byte more
    exits 2, and no document that long reaches the JSON parser. The algebra
    and metric loaders share the cap."""
    parsed = []
    loads = json.loads

    def measuring(text, **kw):
        parsed.append(len(text))
        return loads(text, **kw)

    monkeypatch.setattr(json, "loads", measuring)
    pts = tmp_path / "pts.json"
    pts.write_bytes(b"[[0.5]]".ljust(MAX_FILE_BYTES))
    assert load_points(pts, 1) == [[0.5]]
    pts.write_bytes(b"[[0.5]]".ljust(MAX_FILE_BYTES + 1))
    assert main(["dual-sweep", *_line_pair(tmp_path), "--points-file", str(pts)]) == 2
    assert f"longer than the cap of {MAX_FILE_BYTES} bytes" in capsys.readouterr().out
    assert max(parsed) == MAX_FILE_BYTES
    for load in (load_algebra, load_metric):
        with pytest.raises(FormatError, match="longer than the cap"):
            load(pts)


def test_cli_huge_dim_is_refused_before_allocation(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("from_brackets reached past the dimension cap")

    monkeypatch.setattr(LieAlgebra, "from_brackets", refuse)
    path = tmp_path / "huge.json"
    path.write_text('{"dim": 1000000, "brackets": []}')
    assert main(["validate", str(path)]) == 2
    assert "above the cap" in capsys.readouterr().out


def test_dim_cap_admits_the_cap_itself(tmp_path):
    path = tmp_path / "cap.json"
    path.write_text(json.dumps({"dim": MAX_DIM, "brackets": []}))
    assert load_algebra(path, check_jacobi=False).dim == MAX_DIM


def test_metric_dim_cap_admits_the_cap_itself(tmp_path):
    path = tmp_path / "cap.metric.json"
    save_metric(Metric.identity(MAX_DIM), path)
    assert load_metric(path).dim == MAX_DIM


def test_metric_above_the_dim_cap_is_refused_before_parsing(tmp_path, monkeypatch):
    def refuse(x, exact, where):
        raise AssertionError("an entry was parsed past the row cap")

    monkeypatch.setattr("liemetric.io._entry", refuse)
    n = MAX_DIM + 1
    path = tmp_path / "huge.metric.json"
    path.write_text(json.dumps({"matrix": [["1" if i == j else "0" for j in range(n)]
                                           for i in range(n)]}))
    with pytest.raises(FormatError, match="above the cap"):
        load_metric(path)


def test_cli_version_flag(capsys):
    with pytest.raises(SystemExit):
        raise SystemExit(main(["--version"]))
