"""Benchmark for liemetric: named workloads, checked verdicts, a traced run.

Run from the root of a checkout:

    python3 bench/run.py --workload search --seed 1 --seconds 16 --trace 0
    python3 bench/selftest.py      # smoke-size self-tests of the benchmark

Workloads are ``search``, ``certify``, ``dual`` and ``cli`` (see
``workloads.py`` and ``BENCHMARK.json`` for what each runs and why). Load is
one client in a closed loop in this process: the next job starts when the
previous one returns; ``cli`` jobs are subprocesses run one at a time.

A run first sets up: it imports ``liemetric`` from ``src/`` of the
checkout, generates the seeded inputs and round-trips them through the
program's ``io`` module. Every job's verdict is checked against the
reference in ``reference.py`` / ``workloads.py``.

``--trace 0`` repeats set-up ``SETUP_REPS`` times (``setup_s`` is the
median), then runs whole passes over the job list until ``--seconds`` have
gone by (or stops after fewer when one more pass would end past 1.5 times
``--seconds``), and reports the end-to-end metrics. Job latencies and
``jobs_per_s`` count only the time spent inside the program's calls.

Every reported time is calibrated: wall time scaled by how long a fixed
kernel took right before and after it, against that kernel's time on the
reference machine (see ``Clock``). Raw wall-clock figures are printed as
``raw.*`` lines and kept in the results file.

``--trace 1`` runs one untraced pass and one traced pass of the same jobs
and reports the per-layer metrics from the traced pass; the spans are saved
to ``bench/out/<workload>-seed<n>.spans.npz``. ``--seconds`` does not apply.
A per-layer metric of a layer the workload does not call reads 0.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``failed_share``
is printed above it. A fuller record (machine, versions, seeds, verdict
digest, failures) goes to ``bench/out/<workload>-seed<n>-trace<t>.json``.
The exit code is 0 when every verdict matched its reference, apart from the
known defects listed in ``workloads.KNOWN_DEFECTS``, which still count in
``failed``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPS = 3
STARTUP_REPS = 5

_CAL_A = np.eye(6) * 3.0 + np.ones((6, 6))
_CAL_B = np.ones((6, 4))


def _work_kernel():
    """A fixed mix of the work liemetric does: Fractions, dicts, tiny numpy solves."""
    s = Fraction(0)
    for i in range(1, 150):
        s += Fraction(1, i) * Fraction(i + 1, i + 2)
    d = {}
    for i in range(1500):
        key = (i % 7, i % 5, i % 3)
        d[key] = d.get(key, 0) + i
    for _ in range(60):
        np.linalg.solve(_CAL_A, _CAL_B)


def _spawn_kernel():
    """Start an interpreter that imports numpy, as every ``cli`` job does first."""
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)


class Clock:
    """Wall time scaled to a reference machine speed.

    A shared machine's speed swings by a quarter within seconds. ``read``
    times a fixed kernel (the fastest of ``reps`` runs); ``scale`` multiplies
    a measured time by ``ref`` over the mean of the kernel times read just
    before and just after it. ``ref`` is the kernel's time on the reference
    machine (Intel Xeon, 2 vCPUs, Python 3.11.7, numpy 2.4.6), so reported
    times read as that machine's seconds.
    """

    def __init__(self, kernel, ref: float, reps: int):
        self.kernel, self.ref, self.reps = kernel, ref, reps

    def read(self) -> float:
        best = float("inf")
        for _ in range(self.reps):
            t0 = time.perf_counter()
            self.kernel()
            best = min(best, time.perf_counter() - t0)
        return best

    def scale(self, dt: float, before: float, after: float) -> float:
        return dt * self.ref / ((before + after) / 2.0)


IN_PROCESS = Clock(_work_kernel, 0.0015, reps=3)
SPAWN = Clock(_spawn_kernel, 0.17, reps=1)  # for jobs that are subprocesses


def import_program():
    """A fresh import of ``liemetric`` (and its CLI module) from ``src/``."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for key in [k for k in sys.modules if k == "liemetric" or k.startswith("liemetric.")]:
        del sys.modules[key]
    lm = importlib.import_module("liemetric")
    importlib.import_module("liemetric.cli")
    if not os.path.abspath(lm.__file__).startswith(os.path.join(SRC, "")):
        raise RuntimeError(f"liemetric imported from {lm.__file__}, not from {SRC}")
    return lm


def setup(workload, seed: int, smoke: bool, workdir: str, trace: bool):
    lm = import_program()
    tracer = None
    if trace:
        tracer = Tracer(lm)
        tracer.install()
    rng = np.random.default_rng([seed, wl.WORKLOADS.index(workload.name)])
    jobs = workload.generate(lm, rng, workdir, smoke)
    if tracer is not None:
        tracer.uninstall()
    return lm, jobs, tracer


class Loop:
    """Runs passes over the job list and keeps every measurement and failure."""

    def __init__(self, workload, lm, jobs):
        self.workload, self.lm, self.jobs = workload, lm, jobs
        self.clock = SPAWN if getattr(workload, "spawns", False) else IN_PROCESS
        self.first = {}      # job index -> (verdict, mismatches) from its first run
        self.durations = []  # (job index, calibrated seconds)
        self.raw = []        # wall seconds, as measured
        self.failures = []   # (pass, job label, reasons)
        self.outputs = []    # outputs of the last pass
        self.attempted = 0

    def run_pass(self, number: int, tracer=None) -> float:
        """One pass over every job; returns its calibrated busy time."""
        busy = 0.0
        self.outputs = []
        perf = time.perf_counter
        before = self.clock.read()
        for idx, job in enumerate(self.jobs):
            if tracer is not None:
                tracer.job = idx
            self.attempted += 1
            t0 = perf()
            try:
                out = self.workload.run(self.lm, job)
                err = None
            except Exception as exc:  # a job that raises is a failed job
                out, err = None, f"{type(exc).__name__}: {exc}"
            dt = perf() - t0
            after = self.clock.read()
            scaled = self.clock.scale(dt, before, after)
            before = after
            busy += scaled
            self.raw.append(dt)
            self.durations.append((idx, scaled))
            self.outputs.append(out)
            reasons = [err] if err else self._judge(idx, job, out)
            if reasons:
                self.failures.append((number, job.label, reasons))
        if tracer is not None:
            tracer.job = -1
        return busy

    def _judge(self, idx, job, out):
        verdict = self.workload.verdict(job, out)
        if idx not in self.first:
            try:
                reasons = self.workload.check(job, verdict, out)
            except Exception as exc:
                reasons = [f"check raised {type(exc).__name__}: {exc}"]
            self.first[idx] = (verdict, reasons)
            return reasons
        first, reasons = self.first[idx]
        if verdict != first:
            return ["verdict differs from the first pass at this seed"]
        return reasons

    def digest(self) -> str:
        record = [[self.jobs[i].label, self.first[i][0]] for i in sorted(self.first)]
        return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()

    @property
    def unexpected(self) -> list:
        return [f for f in self.failures if f[1] not in wl.KNOWN_DEFECTS]


def percentile_ms(values, q: float) -> float:
    return float(np.percentile(np.asarray(values) * 1000.0, q)) if values else 0.0


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def end_to_end(workload, seed, seconds, smoke, workdir):
    setup_times, setup_raw = [], []
    for _ in range(1 if smoke else SETUP_REPS):
        before = IN_PROCESS.read()
        t0 = time.perf_counter()
        lm, jobs, _ = setup(workload, seed, smoke, workdir, trace=False)
        dt = time.perf_counter() - t0
        setup_raw.append(dt)
        setup_times.append(IN_PROCESS.scale(dt, before, IN_PROCESS.read()))
    for job in jobs:
        workload.reference(job)
    loop = Loop(workload, lm, jobs)
    started = time.perf_counter()
    busy, passes = 0.0, 0
    while True:
        passes += 1
        busy += loop.run_pass(passes)
        elapsed = time.perf_counter() - started
        # stop at --seconds, or sooner when one more pass would overrun it by half
        if elapsed >= seconds or elapsed * (passes + 1) / passes > 1.5 * seconds:
            break
    lat = [d for _, d in loop.durations]
    metrics = {
        "jobs_per_s": (len(lat) / busy, "1/s"),
        "job_p50_ms": (percentile_ms(lat, 50), "ms"),
        "job_p90_ms": (percentile_ms(lat, 90), "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    raw = loop.raw
    extra = {"samples": len(lat), "passes": passes, "jobs_per_pass": len(jobs),
             "wall_s": time.perf_counter() - started, "setup_runs_s": setup_times,
             "raw": {"jobs_per_s": len(raw) / sum(raw), "job_p50_ms": percentile_ms(raw, 50),
                     "job_p90_ms": percentile_ms(raw, 90),
                     "setup_s": statistics.median(setup_raw)}}
    return loop, metrics, extra


def _agg(totals: dict, match) -> tuple:
    calls = sum(c for name, (c, _) in totals.items() if match(name))
    secs = sum(s for name, (_, s) in totals.items() if match(name))
    return calls, secs


def _in(*names):
    return lambda n: n in names


def _prefix(p):
    return lambda n: n.startswith(p)


IDENTITIES = ("dual.dpi_residual", "dual.cyclic_schouten_residual",
              "dual.metric_derivation_residual")
CLI_COMMANDS = ("validate", "check", "search", "classify", "dual-sweep")


def search_counts(jobs, outputs) -> dict:
    done = [(j, o) for j, o in zip(jobs, outputs) if o is not None and j.kind in
            ("family", "catalog", "sheared")]
    finds = [o for _, o in done if o.found]
    exists = [o for j, o in done if j.expect["exists"]]
    return {"searches": len(done), "finds": len(finds),
            "certified": sum(o.exact_certificate for o in finds),
            "restarts": sum(len(o.log) for _, o in done),
            "iterations": sum(r.iterations for _, o in done for r in o.log),
            "predicted": len(exists), "predicted_found": sum(o.found for o in exists)}


def startup_ms() -> float:
    """Median calibrated time of a subprocess that only imports liemetric."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    before = SPAWN.read()
    for _ in range(STARTUP_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import liemetric"], env=env, cwd=ROOT,
                       check=True, timeout=120)
        dt = time.perf_counter() - t0
        after = SPAWN.read()
        times.append(SPAWN.scale(dt, before, after))
        before = after
    return statistics.median(times) * 1000.0


def per_layer(workload, seed, smoke, workdir):
    lm, jobs, tracer = setup(workload, seed, smoke, workdir, trace=True)
    for job in jobs:
        workload.reference(job)
    loop = Loop(workload, lm, jobs)
    plain = loop.run_pass(1)
    tracer.install()
    try:
        traced = loop.run_pass(2, tracer)
    finally:
        tracer.uninstall()
    # span times are wall seconds; bring them to the calibrated scale of the pass
    scale = traced / sum(loop.raw[-len(jobs):])
    spans = tracer.spans()
    run_t = {k: (c, t * scale) for k, (c, t) in tracer.totals(spans, 0, len(jobs)).items()}
    all_t = {k: (c, t * scale) for k, (c, t) in tracer.totals(spans, -1, len(jobs)).items()}
    sc = search_counts(jobs, loop.outputs)
    find_calls, find_s = _agg(run_t, _in("search.find_compatible_metric"))
    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    put("search.find.calls", find_calls, "count")
    put("search.find.s", find_s, "s")
    put("search.restarts", sc["restarts"], "count")
    put("search.iterations", sc["iterations"], "count")
    put("search.iter_ms", 1000.0 * find_s / sc["iterations"] if sc["iterations"] else 0.0, "ms")
    put("search.restarts_per_find", sc["restarts"] / sc["finds"] if sc["finds"] else 0.0,
        "restarts/find")
    put("search.find_yield",
        sc["predicted_found"] / sc["predicted"] if sc["predicted"] else 0.0, "ratio")
    put("search.exact_cert_share", sc["certified"] / sc["finds"] if sc["finds"] else 0.0,
        "ratio")
    calls, secs = _agg(run_t, _prefix("rational."))
    put("rational.calls", calls, "count")
    put("rational.s", secs, "s")
    calls, secs = _agg(run_t, _in("algebra.LieAlgebra.from_brackets",
                                  "algebra.LieAlgebra.from_structure"))
    put("algebra.build.calls", calls, "count")
    put("algebra.build.s", secs, "s")
    put("algebra.jacobi.s", _agg(run_t, _in("algebra.LieAlgebra.jacobi_residual",
                                            "algebra.LieAlgebra.worst_jacobi_triple",
                                            "algebra.LieAlgebra.require_jacobi"))[1], "s")
    for mode in ("exact", "float"):
        calls, secs = _agg(run_t, _in(f"metric.levi_civita_product[{mode}]"))
        if mode == "exact":
            put("metric.lc_product.exact.calls", calls, "count")
        put(f"metric.lc_product.{mode}.s", secs, "s")
        calls, secs = _agg(run_t, _in(f"metric.compatibility_residual[{mode}]"))
        if mode == "exact":
            put("metric.compat.exact.calls", calls, "count")
        put(f"metric.compat.{mode}.s", secs, "s")
    put("metric.signature.s", _agg(run_t, _in("metric.Metric.signature",
                                              "metric.signature"))[1], "s")
    put("dual.identity.s", _agg(run_t, _in(*(f"{n}[coef]" for n in IDENTITIES)))[1], "s")
    put("dual.sweep.s", _agg(run_t, _in(*(f"{n}[points]" for n in IDENTITIES)))[1], "s")
    for short, full in (("contravariant", "dual.contravariant_derivative"),
                        ("form_bracket", "dual.form_bracket"),
                        ("modular", "dual.modular_field_value"),
                        ("kahler", "dual.kahler_check_at")):
        calls, secs = _agg(run_t, _in(full))
        put(f"dual.{short}.calls", calls, "count")
        if short != "form_bracket":
            put(f"dual.{short}.s", secs, "s")
    put("poly.mul.calls", _agg(run_t, _in("poly.Polynomial.__mul__",
                                          "poly.Polynomial.__rmul__"))[0], "count")
    put("poly.add.calls", _agg(run_t, _in("poly.Polynomial.__add__"))[0], "count")
    put("poly.eval.calls", _agg(run_t, _in("poly.Polynomial.eval"))[0], "count")
    put("poly.s", _agg(run_t, _prefix("poly."))[1], "s")
    put("io.load.calls", _agg(all_t, _in("io.load_algebra", "io.load_metric"))[0], "count")
    put("io.load.s", _agg(all_t, _in("io.load_algebra", "io.load_metric",
                                     "io.algebra_from_dict", "io.metric_from_dict"))[1], "s")
    put("io.save.s", _agg(all_t, _in("io.save_algebra", "io.save_metric",
                                     "io.algebra_to_dict", "io.metric_to_dict"))[1], "s")
    put("cli.startup_ms", startup_ms(), "ms")
    for cmd in CLI_COMMANDS:
        lat = [d for i, d in loop.durations if jobs[i].kind == cmd]
        put(f"cli.{cmd}.p50_ms", percentile_ms(lat, 50), "ms")
    put("trace.overhead_share", traced / plain - 1.0, "ratio")

    os.makedirs(OUT, exist_ok=True)
    np.savez_compressed(os.path.join(OUT, f"{workload.name}-seed{seed}.spans.npz"),
                        names=np.array(tracer.names),
                        **{k: v for k, v in spans.items() if k != "self"})
    hottest = sorted(((s, c, n) for n, (c, s) in run_t.items() if c), reverse=True)[:15]
    extra = {"plain_pass_s": plain, "traced_pass_s": traced, "spans": len(spans["name"]),
             "patched": tracer.patched, "search_counts": sc,
             "counts": {k: m[k][0] for k in m if k.endswith(".calls")
                        or k in ("search.restarts", "search.iterations")},
             "hottest_self_s": [[n, c, s] for s, c, n in hottest]}
    return loop, m, extra


def machine_record(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "liemetric")
    for dirpath, dirnames, files in sorted(os.walk(pkg)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for f in sorted(files):
            if f.endswith((".py", ".json")):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    h.update(f.encode() + b"\0" + fh.read())
    return {"commit": commit, "source_sha256": h.hexdigest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "cpu_model": cpu, "platform": platform.platform(),
            "seed": seed}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="a few jobs of each kind and a single pass, for self-tests")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "liemetric", "__init__.py")):
        print(f"error: no liemetric package under {SRC}", file=sys.stderr)
        return 2
    workload = wl.make(args.workload, SRC)
    workdir = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.trace:
            loop, metrics, extra = per_layer(workload, args.seed, args.smoke, workdir)
        else:
            seconds = 0.0 if args.smoke else args.seconds
            loop, metrics, extra = end_to_end(workload, args.seed, seconds, args.smoke, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(loop.failures)
    correct = not loop.unexpected
    for name, (value, unit) in metrics.items():
        print(f"{name:<30} {value:>16.6f} {unit}")
    for name, value in extra.get("raw", {}).items():
        print(f"{'raw.' + name:<30} {value:>16.6f} (wall clock, not calibrated)")
    print(f"{'failed_share':<30} {failed / loop.attempted:>16.6f} ratio "
          f"({failed} of {loop.attempted} jobs)")
    print(f"verdict_digest {loop.digest()}")
    for number, label, reasons in loop.failures:
        known = " [known defect]" if label in wl.KNOWN_DEFECTS else ""
        print(f"FAILED pass {number} {label}{known}: {'; '.join(reasons)}")
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "smoke": args.smoke, "machine": machine_record(args.seed),
              "verdict_digest": loop.digest(), "attempted": loop.attempted,
              "failed": failed, "failed_share": failed / loop.attempted,
              "known_defects": {k: v for k, v in wl.KNOWN_DEFECTS.items()
                                if any(f[1] == k for f in loop.failures)},
              "failures": [list(f) for f in loop.failures],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "extra": extra}
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, default=str)
        fh.write("\n")
    print(json.dumps({"correct": correct, "attempted": loop.attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
