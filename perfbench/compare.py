"""Repeat benchmark runs and compare sets of them against BENCHMARK.json.

    python3 perfbench/compare.py run --workload sweep --seeds 1-10 --out .perfbench/results/a.json
    python3 perfbench/compare.py run --workload all --seeds 1-10 --out .perfbench/results/a.json
    python3 perfbench/compare.py compare .perfbench/results/a.json .perfbench/results/b.json

``run`` calls run.py once per seed for the ``run_seconds`` of
BENCHMARK.json, appends every result to the output file and prints each
metric's median and quartiles. ``compare`` prints, per workload and
end-to-end metric, both medians, the spread of each set (quartile
distance over median) and the change of the median, and checks them
against the metric's bound: each spread within the bound and the second
median no worse than the first by more than the bound. It also rejects
the second set when any of its runs is not correct or when its share of
failed commands is higher than the first set's.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(first quartile, median, third quartile, quartile distance / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else 0.0


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def summarize(records: list[dict]) -> None:
    for workload in sorted({r["workload"] for r in records}):
        runs = [r["result"] for r in records if r["workload"] == workload]
        print(f"{workload}: {len(runs)} runs, failed {sum(r['failed'] for r in runs)}"
              f" of {sum(r['attempted'] for r in runs)}, correct {all(r['correct'] for r in runs)}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            if len(values) >= 2:
                q1, med, q3, rel = spread(values)
                print(f"  {name:44s} median {med:<12.6g} quartiles {q1:.6g} .. {q3:.6g}  spread {rel:6.1%}")
            else:
                print(f"  {name:44s} {values[0]:.6g}")


def cmd_run(args) -> int:
    workloads = [w["name"] for w in SPEC["workloads"]] if args.workload == "all" else [args.workload]
    records = load(args.out) if os.path.exists(args.out) else []
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    for workload in workloads:
        for seed in seeds(args.seeds):
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(SPEC["run_seconds"]), "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True, timeout=900)
            if done.returncode:
                print(f"{workload} seed {seed}: exit code {done.returncode}", file=sys.stderr)
                return 1
            result = json.loads(done.stdout.splitlines()[-1])
            records.append({"workload": workload, "seed": seed, "trace": args.trace, "result": result,
                            "lines": done.stdout.splitlines()[:-1]})
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(records, fh, indent=1)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    summarize([r for r in records if r["trace"] == args.trace])
    return 0


def cmd_compare(args) -> int:
    first, second = load(args.first), load(args.second)
    ok = True
    for workload in sorted({r["workload"] for r in first} & {r["workload"] for r in second}):
        a = [r["result"] for r in first if r["workload"] == workload and not r["trace"]]
        b = [r["result"] for r in second if r["workload"] == workload and not r["trace"]]
        if len(a) < 2 or len(b) < 2:
            continue
        share_a = sum(r["failed"] for r in a) / sum(r["attempted"] for r in a)
        share_b = sum(r["failed"] for r in b) / sum(r["attempted"] for r in b)
        if share_b > share_a:
            ok = False
            print(f"{workload}: failed share rose from {share_a:.4%} to {share_b:.4%}")
        if not all(r["correct"] for r in b):
            ok = False
            print(f"{workload}: {sum(not r['correct'] for r in b)} runs of the second set are not correct")
        print(f"{workload}:")
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1 if metric["better"] == "lower" else -1
            _, ma, _, ra = spread([r["metrics"][name]["value"] for r in a])
            _, mb, _, rb = spread([r["metrics"][name]["value"] for r in b])
            worse = sign * (mb - ma) / ma
            bad = [why for why, hit in (
                ("spread", max(ra, rb) > bound),
                ("regression", worse > bound),
            ) if hit]
            ok &= not bad
            print(f"  {name:12s} {ma:<10.5g} {mb:<10.5g} spread {ra:6.1%} {rb:6.1%}"
                  f" change {sign * worse:+6.1%} bound {bound:.0%} {'FAIL ' + ','.join(bad) if bad else 'ok'}")
    print("accepted" if ok else "rejected")
    return 0 if ok else 1


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload", required=True, choices=["all"] + [w["name"] for w in SPEC["workloads"]])
    r.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,3,5")
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--out", required=True)
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    args = p.parse_args()
    return cmd_run(args) if args.cmd == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
