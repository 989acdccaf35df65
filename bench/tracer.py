"""Spans around the public functions and methods of ``liemetric`` modules.

``Tracer.install`` replaces each public function, and each public method of
a class defined in a traced module, with a wrapper that records one span per
call: name, start, end, parent span and job id. A function is patched in
every ``liemetric`` module namespace that holds it, because modules import
names from each other (``search`` holds ``compatibility_residual``). Spans
stay in memory, in flat arrays, until ``spans()`` hands them out.

Self time is a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

import numpy as np

MODULES = ("algebra", "rational", "metric", "search", "dual", "poly", "io", "cli")

# operator methods that carry the polynomial and form arithmetic
OPERATORS = ("__add__", "__sub__", "__mul__", "__rmul__", "__neg__")


def _mode_suffix(qualname: str):
    """Split a span name by scalar mode or evaluation mode, where one exists."""
    if qualname == "levi_civita_product":
        return lambda args, kw: "exact" if args[0].exact and args[1].exact else "float"
    if qualname == "compatibility_residual":
        def mode(args, kw):
            conn = args[2] if len(args) > 2 else kw.get("conn")
            exact = conn.exact if conn is not None else args[0].exact and args[1].exact
            return "exact" if exact else "float"
        return mode
    if qualname in ("dpi_residual", "cyclic_schouten_residual", "metric_derivation_residual"):
        return lambda args, kw: "coef" if (args[2] if len(args) > 2
                                           else kw.get("points")) is None else "points"
    return None


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names: list = []
        self._ids: dict = {}
        self._patches: list = []
        self.job = -1
        self._stack = [-1]
        self._start = array("d")
        self._end = array("d")
        self._name = array("i")
        self._parent = array("i")
        self._job = array("i")
        self._plan()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _namespaces(self):
        prefix = self.package.__name__
        return [m for k, m in sys.modules.items()
                if m is not None and (k == prefix or k.startswith(prefix + "."))]

    def _plan(self):
        """Decide every (owner, attribute, wrapper) patch once."""
        prefix = self.package.__name__
        spaces = self._namespaces()
        for short in MODULES:
            mod = sys.modules[f"{prefix}.{short}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(obj, f"{short}.{attr}", _mode_suffix(attr))
                    for space in spaces:
                        if vars(space).get(attr) is obj:
                            self._patches.append((space, attr, obj, wrapped))
                elif inspect.isclass(obj) and not issubclass(obj, (BaseException, tuple)):
                    self._plan_class(short, obj)

    def _plan_class(self, short: str, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, name, None))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(raw, name, None)
            else:
                continue
            self._patches.append((cls, attr, raw, wrapped))

    def _wrap(self, fn, name: str, suffix):
        perf = time.perf_counter
        stack, start, end = self._stack, self._start, self._end
        names, parents, jobs = self._name, self._parent, self._job
        tracer = self
        if suffix is None:
            ident = self._id(name)
            pick = None
        else:
            ids = {s: self._id(f"{name}[{s}]") for s in ("exact", "float", "coef", "points")}
            pick = lambda args, kw: ids[suffix(args, kw)]

        def wrapper(*args, **kw):
            idx = len(start)
            start.append(0.0)
            end.append(0.0)
            names.append(ident if pick is None else pick(args, kw))
            parents.append(stack[-1])
            jobs.append(tracer.job)
            stack.append(idx)
            t0 = perf()
            try:
                return fn(*args, **kw)
            finally:
                end[idx] = perf()
                start[idx] = t0
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self):
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    @property
    def patched(self) -> int:
        return len(self._patches)

    def spans(self) -> dict:
        """Columns of every span so far (views, valid until the next traced
        call), plus each span's self time."""
        start = np.frombuffer(self._start, dtype=float)
        end = np.frombuffer(self._end, dtype=float)
        parent = np.frombuffer(self._parent, dtype=np.int32)
        dur = end - start
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        return {"name": np.frombuffer(self._name, dtype=np.int32), "start": start,
                "end": end, "parent": parent, "job": np.frombuffer(self._job, dtype=np.int32),
                "self": dur - child}

    def totals(self, spans: dict, lo: int, hi: int) -> dict:
        """{span name: (calls, self seconds)} over spans whose job id is in [lo, hi]."""
        keep = (spans["job"] >= lo) & (spans["job"] <= hi)
        calls = np.bincount(spans["name"][keep], minlength=len(self.names))
        selfs = np.bincount(spans["name"][keep], weights=spans["self"][keep],
                            minlength=len(self.names))
        return {name: (int(calls[i]), float(selfs[i])) for i, name in enumerate(self.names)}
