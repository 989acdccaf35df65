"""The benchmark's own checks pass on the jobs it times.

``bench/workloads.py`` turns a seed into jobs and judges each output against
``bench/reference.py``; a job whose check reports a problem makes a benchmark
run incorrect. This test builds the full-size jobs of the in-process
workloads at seed 1, the way ``bench/run.py`` does, runs each once and
asserts that every check comes back clean, so such a change fails here
first.
"""

from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize("name", ["search", "certify", "dual"])
def test_every_benchmark_job_passes_its_check(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import liemetric
    import workloads

    workload = workloads.make(name, str(BENCH.parent / "src"))
    rng = np.random.default_rng([1, workloads.WORKLOADS.index(name)])
    jobs = workload.generate(liemetric, rng, str(tmp_path), False)
    assert jobs
    problems = []
    for job in jobs:
        workload.reference(job)
        out = workload.run(liemetric, job)
        problems += [(job.label, reason)
                     for reason in workload.check(job, workload.verdict(job, out), out)]
    assert problems == []
