"""Smoke-size self-tests of the benchmark.

    python3 bench/selftest.py          # or: python3 -m pytest bench/selftest.py

They check that every workload runs, untraced and traced; that every metric
``BENCHMARK.json`` names prints with its unit and nothing else does; that the
checker fails a job when its reference verdict is deliberately wrong; that
two runs at one seed agree in verdict digest and counts; and that without
the program beside it the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads as wl  # noqa: E402

SEED = 7


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _bench(workload, trace, seed=SEED, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join("bench", "run.py"),
                           "--workload", workload, "--seed", str(seed), "--seconds", "1",
                           "--trace", str(trace), "--smoke"],
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def _result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _record(workload, trace, seed=SEED):
    with open(os.path.join(run.OUT, f"{workload}-seed{seed}-trace{trace}.json")) as fh:
        return json.load(fh)


def test_every_workload_runs_and_prints_its_metrics():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in wl.WORKLOADS:
            proc = _bench(workload, trace)
            assert proc.returncode == 0, (workload, trace, proc.stderr[-2000:])
            res = _result(proc)
            assert set(res) == {"correct", "attempted", "failed", "metrics"}
            assert res["correct"] is True and res["attempted"] >= 1
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            for name, unit in want.items():
                assert any(line.split()[:1] == [name] and line.split()[2] == unit
                           for line in proc.stdout.splitlines()), (workload, name)
            if workload == "cli":
                # the known defect stays in the data and is counted
                assert res["failed"] >= 1
            else:
                assert res["failed"] == 0, (workload, trace)


def _tamper(workload_name):
    """Run the smoke jobs of a workload; return mismatches before and after
    its first checkable job's reference is made wrong on purpose."""
    workload = wl.make(workload_name, run.SRC)
    workdir = os.path.join(HERE, ".work", f"selftest-{workload_name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        lm, jobs, _ = run.setup(workload, SEED, True, workdir, trace=False)
        for job in jobs:
            workload.reference(job)
        for job in jobs:
            out = workload.run(lm, job)
            verdict = workload.verdict(job, out)
            honest = workload.check(job, verdict, out)
            if workload_name == "search":
                if not out.found:
                    continue
                job.expect["exists"] = False
            elif workload_name in ("certify", "dual"):
                job.expect["ref_compatible"] = not job.expect["ref_compatible"]
            elif job.kind == "validate":
                job.expect["dim"] += 1
            else:
                continue
            return honest, workload.check(job, verdict, out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    raise AssertionError(f"no checkable job in the {workload_name} smoke set")


def test_checker_flags_a_wrong_reference():
    for name in wl.WORKLOADS:
        honest, tampered = _tamper(name)
        assert honest == [], (name, honest)
        assert tampered, name


def test_same_seed_same_digest_and_counts():
    for workload in wl.WORKLOADS:
        records = []
        for _ in range(2):
            assert _bench(workload, 1).returncode == 0
            records.append(_record(workload, 1))
        a, b = records
        assert a["verdict_digest"] == b["verdict_digest"], workload
        assert a["extra"]["counts"] == b["extra"]["counts"], workload
    assert a["extra"]["counts"]["io.load.calls"] > 0


def test_refuses_to_run_without_the_program():
    bare = os.path.join(HERE, ".work", f"bare-{os.getpid()}")
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
        proc = _bench("certify", 0, cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    print(f"{len(tests)} self-tests passed")
