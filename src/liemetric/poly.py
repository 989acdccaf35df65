"""No code: the polynomial engine lives with the tests that use it
(``tests/polynomial.py``). The module is kept, empty, only because the
benchmark's tracer (``bench/tracer.py``) looks it up by name."""
