"""File formats round-trip byte-for-byte; the command line keeps its exit
code contract: 0 ok, 1 check failed, 2 bad input, 3 nothing found."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from liemetric import (
    FormatError,
    Metric,
    heisenberg,
    load_algebra,
    load_metric,
    save_algebra,
    save_metric,
    sol_split_metric,
    solvable_family,
)
from liemetric import dual
from liemetric.algebra import LieAlgebra
from liemetric.cli import main
from liemetric.io import MAX_DIM
from liemetric.metric import ConnectionTensor
from liemetric.poly import Polynomial
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
    a = random_metric(rng, 4)
    p1 = tmp_path / "m.json"
    p2 = tmp_path / "m2.json"
    save_metric(a, p1)
    save_metric(load_metric(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


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


def test_cli_check_nan_metric_is_input_error(tmp_path, capsys):
    path = tmp_path / "nan_metric.json"
    path.write_text(json.dumps({
        "matrix": [[1.0, 0.0, 0.0], [0.0, float("nan"), 0.0], [0.0, 0.0, 1.0]],
        "scalar": "float"}))
    assert main(["check", algebra_file(tmp_path, heisenberg()), str(path)]) == 2


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


def _nonzero_defects(fr):
    return [Polynomial.constant(fr.n, Fraction(1, 7))]


@pytest.mark.parametrize("row, owner, attr, fake", [
    ("product_torsion", ConnectionTensor, "torsion_residual", lambda self, alg: Fraction(1)),
    ("product_metric_skew", ConnectionTensor, "skew_residual", lambda self, a: Fraction(1)),
    ("dual_compatibility", dual, "_dpi_defects", _nonzero_defects),
    ("jacobi_cyclic_identity", dual, "_cyclic_defects", _nonzero_defects),
    ("metric_transport_identity", dual, "_transport_defects", _nonzero_defects),
    ("modular_sweep_max", dual, "_modular_terms",
     lambda fr, du: [(Fraction(1), Polynomial.constant(fr.n, 1))]),
])
def test_cli_check_row_judged_by_its_value(tmp_path, capsys, monkeypatch,
                                           row, owner, attr, fake):
    monkeypatch.setattr(owner, attr, fake)
    code, rows = _check_rows(tmp_path)
    assert rows[row] == "failed"
    assert rows["compatibility_residual"] == "ok"
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


def test_cli_search_not_found_exits_three(tmp_path, capsys):
    from liemetric import affine_line
    code = main(["search", algebra_file(tmp_path, affine_line()),
                 "--restarts", "6"])
    assert code == 3


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


def test_cli_classify_dim2(capsys):
    code = main(["classify", "--dim", "2", "--restarts", "6", "--samples", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "abelian2" in out and "affine_line" in out


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


def test_cli_version_flag(capsys):
    with pytest.raises(SystemExit):
        raise SystemExit(main(["--version"]))
