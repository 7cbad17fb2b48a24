"""One pass of each of the benchmark's workloads at seed 1
(perfbench/workloads.py), each report checked as ``perfbench/stage.py
measure`` checks it, so that a wrong report fails here before the
benchmark runs. `parallel` starts no process pool at seed 1: its
`degree --jobs` and `gap --jobs` count serially, and `enumerate --order 5
--jobs 2` is below the order at which the catalog search uses a pool.
Its `degree --eq` commands on tables below order 10 are the gather
kernel's smallest grids. Inputs and outputs go to a temporary directory."""

import os
import sys

import pytest

import bck
import bck.cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import stage  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", ["degrees", "sweep", "catalog", "parallel"])
def test_benchmark_jobs_give_the_expected_reports(tmp_path, workload):
    jobs = workloads.setup(workload, 1, str(tmp_path), bck)
    wrong = []
    for job, expected in zip(jobs, workloads.expect(jobs)):
        rc, out, err, _, _ = stage.run_job(bck.cli, job["argv"])
        problem = workloads.check(expected, rc, out, err)
        if problem is not None:
            wrong.append(f"{' '.join(job['argv'])}: {problem}")
    assert not wrong
