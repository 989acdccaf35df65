"""The benchmark's tracer names the package modules it patches.

``bench/tracer.py`` lists them in ``MODULES`` and looks each one up in
``sys.modules`` when a ``Tracer`` is built, so a module that leaves the
package, or stops being imported by it, breaks ``bench/run.py --trace 1``.
This test builds a tracer the way the benchmark does and fails first.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_traced_module_is_loaded_and_patched(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import liemetric
    import liemetric.cli  # noqa: F401  (the benchmark imports the CLI too)
    import tracer

    missing = [m for m in tracer.MODULES if f"liemetric.{m}" not in sys.modules]
    assert missing == []
    assert tracer.Tracer(liemetric).patched > 0
