"""Benchmark of the `bck` command line, one workload per run.

    python3 perfbench/run.py --workload degrees --seed 1 --seconds 25 --trace 0

Run from the root of a bck-workbench checkout; `bck` is imported from its
./src. Set-up runs three times, each in a fresh process, and ``setup_s``
is their median. The last line printed is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. Inputs and outputs live under .perfbench/ and are removed
at the end. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SETUPS = 3
STAGE_TIMEOUT_S = 170


def stage(*args: str) -> str:
    done = subprocess.run([sys.executable, os.path.join(HERE, "stage.py"), *args],
                          stdout=subprocess.PIPE, timeout=STAGE_TIMEOUT_S, text=True)
    if done.returncode:
        raise SystemExit(f"stage {args[0]} failed with exit code {done.returncode}")
    return done.stdout


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("degrees", "sweep", "catalog", "parallel"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not os.path.isfile(os.path.join("src", "bck", "cli.py")):
        print("error: run from the root of a bck-workbench checkout (src/bck/ not found)", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = os.path.join(".perfbench", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        setup_s = []
        for _ in range(SETUPS):
            shutil.rmtree(work, ignore_errors=True)
            out = stage("setup", "--workload", args.workload, "--seed", str(args.seed), "--dir", work)
            setup_s.append(json.loads(out)["setup_s"])
        stage("expect", "--dir", work)
        out = stage("measure", "--dir", work, "--seconds", str(args.seconds), "--trace", str(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = out.splitlines()
    result = json.loads(lines[-1])
    measured = dict(result["metrics"], setup_s=statistics.median(setup_s))
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    result["metrics"] = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
