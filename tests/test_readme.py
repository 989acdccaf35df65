"""README states what the code defines: the search's stop reasons and the
input caps."""

import re
from pathlib import Path

from liemetric import io, search

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def test_readme_lists_the_stop_reasons():
    """The sentence that lists them runs from "(`stop_reasons`):" to its period."""
    sentence = README.split("(`stop_reasons`):", 1)[1].split(".", 1)[0]
    assert tuple(re.findall(r"`(\w+)`", sentence)) == search.STOP_REASONS


def test_readme_states_the_input_caps():
    stated = {name: float(value.replace(",", "")) for name, value in
              re.findall(r"`liemetric\.io\.(MAX_\w+)` \(([\d,.e]+)\)", README)}
    assert stated == {"MAX_DIM": io.MAX_DIM, "MAX_FLOAT_ENTRY": io.MAX_FLOAT_ENTRY,
                      "MAX_POINTS": io.MAX_POINTS, "MAX_FILE_BYTES": io.MAX_FILE_BYTES}
