"""One stage of a benchmark run, in a process of its own.

    python3 perfbench/stage.py setup   --workload W --seed S --dir D
    python3 perfbench/stage.py expect  --dir D
    python3 perfbench/stage.py measure --dir D --seconds T --trace 0|1

``setup`` imports `bck` from ./src, writes the inputs and the job list and
prints its own duration (import included). ``expect`` computes every
job's expected report with the reference checker, without `bck`.
``measure`` runs whole rounds of the job list through ``bck.cli.main``
until the next round would end past T seconds (three rounds at least),
checks every report, and prints one JSON object. Run from the root of a
checkout; ``run.py`` drives the stages.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

MIN_ROUNDS = 3  # per kind of round (untraced, traced)
CALIBRATE_EVERY = 10  # commands between two calibration samples
# What the calibration kernel takes when this 2-vCPU VM runs at its
# fastest; timings are reported at that speed (see README, "Machine speed").
KERNEL_REFERENCE_S = 0.003


def kernel_seconds() -> float:
    """Time one pass of a fixed pure-Python kernel: dict lookups, tuple
    unpacking, comparisons and integer additions, the operations the term
    evaluator and the enumerator spend their time in."""
    start = time.perf_counter()
    table = {i: (i, i + 1) for i in range(256)}
    acc = 0
    for i in range(40000):
        a, b = table[i & 255]
        acc += a if b > a else b
    return time.perf_counter() - start


def import_bck():
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import bck
    import bck.cli

    if not os.path.abspath(bck.__file__).startswith(src + os.sep):
        raise SystemExit(f"bck imported from {bck.__file__}, not from {src}")
    return bck


def stage_setup(args) -> None:
    kernel = [kernel_seconds() for _ in range(5)]
    start = time.perf_counter()
    bck = import_bck()
    jobs = workloads.setup(args.workload, args.seed, args.dir, bck)
    with open(os.path.join(args.dir, "jobs.json"), "w", encoding="utf-8") as fh:
        json.dump(jobs, fh)
    seconds = time.perf_counter() - start
    kernel += [kernel_seconds() for _ in range(5)]
    print(json.dumps({"setup_s": seconds * KERNEL_REFERENCE_S / statistics.median(kernel), "unscaled_s": seconds}))


def stage_expect(args) -> None:
    with open(os.path.join(args.dir, "jobs.json"), encoding="utf-8") as fh:
        jobs = json.load(fh)
    with open(os.path.join(args.dir, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(workloads.expect(jobs), fh)


def cpu_seconds() -> tuple[float, float]:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime


def run_job(cli, argv) -> tuple[int, str, str, float, float]:
    """Run one command; returns exit code, stdout, stderr, wall seconds and
    CPU seconds (this process and the pool workers it reaped)."""
    out, err = io.StringIO(), io.StringIO()
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)  # looked up per call, so a traced round gets the wrapper
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a wrong report, not the end of the run
            traceback.print_exc()
            rc = 1
    wall = time.perf_counter() - start
    cpu1 = cpu_seconds()
    return rc, out.getvalue(), err.getvalue(), wall, sum(cpu1) - sum(cpu0)


class Round:
    """One pass over the job list. ``outcomes`` holds what ``run_job``
    returns per command until the round is checked, then (wall, cpu)."""

    def __init__(self, cli, jobs, tracer=None):
        self.tracer = tracer
        if tracer:
            tracer.install()
        self.kernel = []
        self.outcomes = []
        kids0 = cpu_seconds()[1]
        start = time.perf_counter()
        try:
            for i, job in enumerate(jobs):
                if i % CALIBRATE_EVERY == 0:
                    self.kernel.append(kernel_seconds())
                self.outcomes.append(run_job(cli, job["argv"]))
        finally:
            if tracer:
                tracer.uninstall()
        self.wall = time.perf_counter() - start
        self.children_cpu = cpu_seconds()[1] - kids0


def stage_measure(args) -> None:
    bck = import_bck()
    import tracer as tracing

    with open(os.path.join(args.dir, "jobs.json"), encoding="utf-8") as fh:
        jobs = json.load(fh)
    with open(os.path.join(args.dir, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)

    plain, traced = [], []
    attempted = failed = 0
    faults: dict[str, int] = {}
    wrong: list[str] = []
    start = time.perf_counter()
    while True:
        want_trace = bool(args.trace) and len(traced) < len(plain)
        rnd = Round(bck.cli, jobs, tracing.Tracer() if want_trace else None)
        (traced if want_trace else plain).append(rnd)
        for job, exp, (rc, out, err, *_) in zip(jobs, expected, rnd.outcomes):
            attempted += 1
            problem = workloads.check(exp, rc, out, err)
            if problem is None:
                continue
            failed += 1
            # a known fault counts only when the report is its exact wrong one
            known = exp.get("fault")
            if known and workloads.check(known, rc, out, err) is None:
                faults[known["name"]] = faults.get(known["name"], 0) + 1
            elif len(wrong) < 20:
                wrong.append(f"{' '.join(job['argv'])}: {problem}")
        # keep (wall, cpu) only, so harness memory does not grow with rounds
        rnd.outcomes = [(wall, cpu) for *_, wall, cpu in rnd.outcomes]
        # stop before a round that would end past the time given, once each
        # kind of round ran MIN_ROUNDS times and traced rounds caught up
        rounds = plain + traced
        elapsed = time.perf_counter() - start
        if (
            len(plain) >= MIN_ROUNDS
            and (not args.trace or len(traced) == len(plain))
            and elapsed + elapsed / len(rounds) > args.seconds
        ):
            break

    for line in wrong:
        print(f"WRONG {line}", file=sys.stderr)
    for name, n in faults.items():
        print(f"failed: {n} x {name}")
    rounds = len(plain) + len(traced)
    print(f"{rounds} rounds of {len(jobs)} commands: attempted {attempted}, failed {failed}")

    metrics = layer_metrics(traced, plain, tracing) if args.trace else end_to_end(plain)
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}))


def end_to_end(rounds: list[Round]) -> dict:
    """Timings at the reference machine speed.

    The VM this runs on changes speed by a third, within seconds and for
    minutes at a time. Each round's median kernel time gives its speed,
    and every command's latency and CPU time in that round are scaled by
    it. ``wall_s`` and ``cpu_s`` add up each command's median over the
    rounds; the latency percentiles are over all scaled latencies."""
    scale = [KERNEL_REFERENCE_S / statistics.median(r.kernel) for r in rounds]
    jobs = range(len(rounds[0].outcomes))
    latency = [[r.outcomes[i][0] * f for r, f in zip(rounds, scale)] for i in jobs]
    cpu = [statistics.median(r.outcomes[i][1] * f for r, f in zip(rounds, scale)) for i in jobs]
    pooled = [x for per_job in latency for x in per_job]
    unscaled = sum(statistics.median(r.outcomes[i][0] for r in rounds) for i in jobs)
    print(f"round scales {' '.join(f'{f:.3f}' for f in scale)}; unscaled wall_s {unscaled:.6g}")
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "wall_s": sum(statistics.median(per_job) for per_job in latency),
        "cpu_s": sum(cpu),
        "job_p50_ms": 1000 * statistics.median(pooled),
        "job_p90_ms": 1000 * statistics.quantiles(pooled, n=10)[8],
        "peak_rss_mb": max(me, kids) / 1024,  # ru_maxrss is in KiB on Linux
    }


def layer_metrics(traced: list[Round], plain: list[Round], tracing) -> dict:
    per_round = [r.tracer.metrics() for r in traced]
    out = {}
    for name in per_round[0]:
        values = [m[name] for m in per_round]
        if tracing.is_count(name):
            if len(set(values)) != 1:
                print(f"count {name} differs between rounds: {values}", file=sys.stderr)
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    out["children.cpu_s"] = statistics.median(r.children_cpu for r in traced)
    out["trace.overhead_s"] = statistics.median(r.wall for r in traced) - statistics.median(r.wall for r in plain)
    return out


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("stage", choices=("setup", "expect", "measure"))
    p.add_argument("--workload", choices=tuple(workloads.JOB_LISTS))
    p.add_argument("--seed", type=int)
    p.add_argument("--dir", required=True)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    {"setup": stage_setup, "expect": stage_expect, "measure": stage_measure}[args.stage](args)


if __name__ == "__main__":
    main()
