#!/usr/bin/env python3
"""Run the benchmark once per seed and print each metric's median and its
spread: the distance between the first and third quartile of the values,
as a share of their median.

    python3 perfbench/spread.py --workload network-scale --seeds 1-10

Run it from the root of a source checkout. Each run lasts ``run_seconds``
from BENCHMARK.json and reports the end-to-end metrics (``--trace 0``).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    values: dict[str, list[float]] = {}
    shares = set()
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        shares.add((result["failed"] / result["attempted"], result["correct"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("seed %d: %s" % (seed, json.dumps(result)), flush=True)

    print("failed share, correct: %s" % sorted(shares))
    print("%-40s %14s %8s" % ("metric", "median", "spread"))
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        print("%-40s %14.6g %8.4f" % (name, med, (q3 - q1) / med if med else 0.0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
