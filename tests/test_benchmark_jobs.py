"""One pass of the benchmark's `degrees`, `sweep` and `catalog` jobs at
seed 1 (perfbench/workloads.py), each report checked as
``perfbench/stage.py measure`` checks it, so that a wrong report fails
here before the benchmark runs. `parallel` is left out: it starts process
pools. Inputs and outputs go to a temporary directory."""

import os
import sys

import pytest

import bck
import bck.cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import stage  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", ["degrees", "sweep", "catalog"])
def test_benchmark_jobs_give_the_expected_reports(tmp_path, workload):
    jobs = workloads.setup(workload, 1, str(tmp_path), bck)
    wrong = []
    for job, expected in zip(jobs, workloads.expect(jobs)):
        rc, out, err, _, _ = stage.run_job(bck.cli, job["argv"])
        problem = workloads.check(expected, rc, out, err)
        if problem is not None:
            wrong.append(f"{' '.join(job['argv'])}: {problem}")
    assert not wrong
