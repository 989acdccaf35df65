"""README states what the code defines: the search's stop reasons, batch
sizes and dimension cap, the input caps and the numeric cutoffs."""

import re
from pathlib import Path

from liemetric import algebra, dual, io, scalars, search

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def test_readme_lists_the_stop_reasons():
    """The sentence that lists them runs from "(`stop_reasons`):" to its period."""
    sentence = README.split("(`stop_reasons`):", 1)[1].split(".", 1)[0]
    assert tuple(re.findall(r"`(\w+)`", sentence)) == search.STOP_REASONS


def test_readme_states_the_batch_sizes():
    """The sentence that gives them runs from "within 512 KiB:" to its period."""
    sentence = " ".join(README.split("within 512 KiB:", 1)[1].split(".", 1)[0].split())
    stated = {int(n): int(size) for size, n in re.findall(r"(\d+) (?:restarts )?at n = (\d+)",
                                                          sentence)}
    assert stated == {n: search._batch_size(n) for n in (3, 4, 5, 6)}
    assert search._BATCH_BYTES == 512 * 1024


def test_readme_states_the_input_caps():
    stated = {name: float(value.replace(",", "")) for name, value in
              re.findall(r"`liemetric\.io\.(MAX_\w+)` \(([\d,.e]+)\)", README)}
    assert stated == {"MAX_DIM": io.MAX_DIM, "MAX_FLOAT_ENTRY": io.MAX_FLOAT_ENTRY,
                      "MAX_POINTS": io.MAX_POINTS, "MAX_FILE_BYTES": io.MAX_FILE_BYTES,
                      "MAX_EXPONENT_DIGITS": io.MAX_EXPONENT_DIGITS}


def test_readme_states_the_search_cap():
    stated = re.findall(r"`liemetric\.search\.(MAX_\w+)` \((\d+)\)", README)
    assert stated == [("MAX_SEARCH_DIM", str(search.MAX_SEARCH_DIM))]


def test_readme_states_the_numeric_cutoffs():
    """Each cutoff is named in full with its value, as the caps are, and
    README names no other tolerance constant."""
    stated = {(module, name, float(value)) for module, name, value in
              re.findall(r"`liemetric\.(\w+)\.(\w+)`\s+\(([\d.e-]+)\)", README)
              if name.endswith("TOL")}
    assert stated == {("algebra", "RANK_RTOL", algebra.RANK_RTOL),
                      ("dual", "EIG_POSITIVITY_TOL", dual.EIG_POSITIVITY_TOL),
                      ("scalars", "DEFAULT_TOL", scalars.DEFAULT_TOL)}
    assert set(re.findall(r"\b[A-Z_]+_R?TOL\b", README)) == {name for _, name, _ in stated}
