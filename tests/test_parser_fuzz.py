"""Fuzz the bracket and metric file parsers through the command line.

Whatever a file holds, ``liemetric`` must answer with one of its exit codes
(0 ok, 1 check failed, 2 bad input, 3 nothing found) and never with a
traceback.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from liemetric import Metric, abelian, heisenberg, save_algebra, save_metric
from liemetric.cli import main
from liemetric.io import MAX_DIM

EXIT_CODES = {0, 1, 2, 3}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10) | st.text(max_size=6)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=4),
    max_leaves=8)

scalars = st.one_of(
    st.integers(-3, 3),
    st.sampled_from(["0", "1", "-2", "1/2", "-3/4", "1/0", "abc", "", "1e400", "nan",
                     "inf", "0.5", " 7 ", "1e99999999", "-2E-0012345", "1_0e1_0",
                     "9" * 5000]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=-1e3, max_value=1e3),
    json_values)

scalar_modes = st.one_of(st.sampled_from(["rational", "float", "complex"]), json_values)


@st.composite
def bracket_docs(draw):
    n = draw(st.one_of(st.integers(-1, 4), st.just(MAX_DIM + 1), json_values))
    width = n if isinstance(n, int) and 0 <= n <= 4 else draw(st.integers(0, 4))
    entry = st.fixed_dictionaries(
        {"i": st.one_of(st.integers(0, 5), json_values),
         "j": st.one_of(st.integers(0, 5), json_values),
         "v": st.one_of(st.lists(scalars, min_size=width, max_size=width),
                        st.lists(scalars, max_size=5), json_values)})
    doc = {"dim": n, "brackets": draw(st.one_of(st.lists(entry, max_size=4), json_values))}
    if draw(st.booleans()):
        doc["scalar"] = draw(scalar_modes)
    if draw(st.booleans()):
        doc["name"] = draw(json_values)
    for key in draw(st.sets(st.sampled_from(["dim", "brackets"]), max_size=1)):
        del doc[key]
    return doc


@st.composite
def metric_docs(draw):
    n = draw(st.integers(0, 4))
    row = st.lists(scalars, min_size=n, max_size=n)
    rows = draw(st.one_of(st.lists(row, min_size=n, max_size=n),
                          st.lists(st.lists(scalars, max_size=4), max_size=4), json_values))
    doc = {"matrix": rows}
    if draw(st.booleans()):
        doc["scalar"] = draw(scalar_modes)
    if draw(st.booleans()):
        del doc["matrix"]
    return doc


def file_text(doc_strategy):
    """A document as JSON (NaN and Infinity literals allowed), or raw text or bytes."""
    as_json = doc_strategy.map(lambda d: json.dumps(d).encode())
    huge_int = st.just(b"9" * 5000)
    spliced = st.tuples(as_json, huge_int).map(lambda t: t[0].replace(b"0", t[1], 1))
    return st.one_of(as_json, as_json, spliced,
                     json_values.map(lambda d: json.dumps(d).encode()),
                     st.text(max_size=40).map(str.encode), st.binary(max_size=40))


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue() + err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    for n in range(1, 5):
        save_algebra(abelian(n), path / f"abelian{n}.json")
        save_metric(Metric.identity(n), path / f"identity{n}.json")
    save_algebra(heisenberg(), path / "heisenberg.json")
    save_metric(Metric.from_rows([[0, 0, 1], [0, 1, 0], [1, 0, 0]]), path / "split3.json")
    return path


FUZZ = settings(max_examples=120, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(data=file_text(bracket_docs()), paired=st.sampled_from(["identity3", "split3"]))
def test_bracket_file_fuzz(workdir, data, paired):
    path = workdir / "fuzz.alg.json"
    path.write_bytes(data)
    for argv in (["validate", str(path)],
                 ["check", str(path), str(workdir / f"{paired}.json")]):
        code, text = _run(argv)
        assert code in EXIT_CODES
        assert "Traceback" not in text


@FUZZ
@given(data=file_text(metric_docs()),
       algebra=st.sampled_from(["abelian1", "abelian2", "abelian3", "abelian4", "heisenberg"]))
def test_metric_file_fuzz(workdir, data, algebra):
    path = workdir / "fuzz.metric.json"
    path.write_bytes(data)
    code, text = _run(["check", str(workdir / f"{algebra}.json"), str(path)])
    assert code in EXIT_CODES
    assert "Traceback" not in text

