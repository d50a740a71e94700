#!/usr/bin/env python3
"""Benchmark two commits in alternating pairs and write BENCH_<pr>.json.

    python3 scripts/bench_pairs.py PARENT CHANGE --pr N --description TEXT \\
        --pairs ring6-pipeline=10 --pairs roundtrip-sweep=10 \\
        --held-out ring6-pipeline=3 --trace ring6-pipeline=3

Each commit is unpacked with ``git archive`` into its own temporary
directory, and ``perfbench/run.py`` runs from there, so both sides use
their own committed benchmark code and sources. Every run lasts
``BENCHMARK.json``'s ``run_seconds``. Pairs alternate which side runs
first. ``--pairs`` and ``--held-out`` give end-to-end runs (``--trace 0``)
at ``SEED`` and ``HELD_OUT_SEED``; ``--trace`` gives per-layer runs
(``--trace 1``) at ``SEED``. The file keeps ``BENCH_15.json``'s layout and
is written to ``BENCH_<pr>.json`` in the current directory. Run from the
root of the repository.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# one BLAS / OpenMP thread in this process and in the sweep workers
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

SIDES = ("parent", "change")
SEED, HELD_OUT_SEED = 3, 11


def git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def unpack(rev: str, into: Path) -> dict:
    """Extract the files of commit ``rev`` into ``into``."""
    into.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "--format=tar", rev], check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return {"commit": git("rev-parse", rev), "src_tree": git("rev-parse", rev + ":src")}


def run_bench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError("perfbench failed in %s: %s" % (root, done.stderr[-2000:]))
    return json.loads(done.stdout.strip().splitlines()[-1])


def alternate(pairs: int, run) -> dict:
    """``run(side)`` for both sides, ``pairs`` times, alternating which side
    goes first; returns each side's results in pair order."""
    out = {side: [] for side in SIDES}
    for i in range(pairs):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            out[side].append(run(side))
            print("bench_pairs: %s pair %d/%d done" % (side, i + 1, pairs), file=sys.stderr)
    return out


def summary(runs: list) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive") if len(runs) > 1 \
        else runs * 3
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "runs": runs}


def end_to_end_block(results: dict, seed: int, spec: dict) -> dict:
    """One workload's pairs in ``BENCH_15.json``'s layout."""
    block = {
        "pairs": len(results["parent"]),
        "seed": seed,
        "failed": {s: [r["failed"] for r in results[s]] for s in SIDES},
        "attempted": {s: [r["attempted"] for r in results[s]] for s in SIDES},
        "correct": all(r["correct"] for s in SIDES for r in results[s]),
        "metrics": {},
    }
    for metric in spec["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        runs = {s: [r["metrics"][name]["value"] for r in results[s]] for s in SIDES}
        pairs = list(zip(runs["parent"], runs["change"]))
        block["metrics"][name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "parent": summary(runs["parent"]),
            "change": summary(runs["change"]),
            "pairs_change_better": sum((c > p) if higher else (c < p) for p, c in pairs),
            "pair_ratio_change_over_parent_median": statistics.median(
                c / p if p else float("nan") for p, c in pairs),
        }
    return block


def per_layer_block(results: dict, command: str) -> dict:
    """Every per-layer metric that reads nonzero on either side."""
    names = results["parent"][0]["metrics"]
    metrics = {}
    for name in sorted(names):
        vals = {s: [r["metrics"][name]["value"] for r in results[s]] for s in SIDES}
        if any(v != 0.0 for s in SIDES for v in vals[s]):
            metrics[name] = {"unit": names[name]["unit"], **vals}
    return {
        "command": command,
        "runs": len(results["parent"]),
        "order": "pairs alternate which side runs first; each value is the median span of one run",
        "metrics": metrics,
    }


def parse_counts(items) -> dict:
    out = {}
    for item in items or ():
        name, _, count = item.partition("=")
        out[name] = int(count)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pr", required=True)
    parser.add_argument("--description", required=True)
    parser.add_argument("--pairs", action="append", metavar="WORKLOAD=N")
    parser.add_argument("--held-out", action="append", metavar="WORKLOAD=N")
    parser.add_argument("--trace", action="append", metavar="WORKLOAD=N")
    args = parser.parse_args(argv)

    import numpy
    import scipy

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    command = "python3 perfbench/run.py --workload <w> --seed %s --seconds %g --trace %d"
    bench = {"description": args.description}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        roots = {side: Path(tmp) / side for side in SIDES}
        for side, rev in zip(SIDES, (args.parent, args.change)):
            bench[side] = unpack(rev, roots[side])
        bench["machine"] = {"cpus": os.cpu_count(), "python": platform.python_version(),
                            "numpy": numpy.__version__, "scipy": scipy.__version__,
                            "blas_threads": 1}
        e2e = {"command": command % ("<seed>", seconds, 0),
               "order": "pairs alternate which side runs first", "workloads": {},
               "held_out_seed": {}}
        for key, seed, counts in (("workloads", SEED, parse_counts(args.pairs)),
                                  ("held_out_seed", HELD_OUT_SEED,
                                   parse_counts(args.held_out))):
            for wl, pairs in counts.items():
                results = alternate(pairs, lambda side: run_bench(
                    roots[side], wl, seed, seconds, 0))
                e2e[key][wl] = end_to_end_block(results, seed, spec)
        bench["end_to_end"] = e2e
        for wl, pairs in parse_counts(args.trace).items():
            results = alternate(pairs, lambda side: run_bench(
                roots[side], wl, SEED, seconds, 1))
            bench["per_layer_" + wl.replace("-", "_")] = per_layer_block(
                results, (command % (SEED, seconds, 1)).replace("<w>", wl))
    out = "BENCH_%s.json" % args.pr
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    print("bench_pairs: wrote %s" % out, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
