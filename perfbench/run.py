#!/usr/bin/env python3
"""Benchmark of srtrkit, run from the root of a source checkout.

    python3 perfbench/run.py --workload ring6-pipeline --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from the seed, measures set-up (fresh
interpreters importing srtrkit and running one CLI command), runs an
untimed warm-up, then runs whole rounds of the workload's operations for
about ``--seconds`` seconds, checking every output. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``). Details and spans go to ``.perfbench_out/``.
"""

import os

# one BLAS / OpenMP thread, set before numpy loads here or in a child
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_LAUNCHES = 3
MIN_ROUNDS = 3
ACCURACY_CAP = 12.0
SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); import srtrkit; "
    "from srtrkit.cli import dispatch; "
    "sys.exit(dispatch(['fixtures', 'export', 'ring6-K', '-o', sys.argv[1]]))"
)


def measure_setup(tmp: Path) -> float:
    """Median wall time of fresh interpreters that import srtrkit and run
    ``fixtures export ring6-K`` through cli.dispatch."""
    times = []
    for i in range(SETUP_LAUNCHES):
        target = tmp / ("setup-%d.json" % i)
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(target)], cwd=ROOT,
                              env=dict(os.environ), capture_output=True, timeout=120)
        elapsed = time.perf_counter() - start
        if done.returncode != 0 or not target.is_file():
            raise RuntimeError("set-up launch failed: %s" % done.stderr.decode()[-500:])
        times.append(elapsed)
    return statistics.median(times)


def op_times(rec, rounds: int) -> list[float]:
    """Each operation's median time over the rounds. Every round runs the
    same operations in the same order, so position j of each round is one
    operation; the median drops a round that ran during a burst of load."""
    per_round = len(rec.ops) // rounds
    return [statistics.median(rec.ops[r * per_round + j]["seconds"] for r in range(rounds))
            for j in range(per_round)]


def ops_per_s(rec) -> float:
    """Operations run per second of the timed phase: the operations' timed
    windows, which leave out the untimed checks between them."""
    return len(rec.ops) / sum(op["seconds"] for op in rec.ops)


def end_to_end(rec, rounds: int, setup_s: float) -> dict:
    times = op_times(rec, rounds)
    residuals = [r for op in rec.ops if not op["failed"] for r in op["residuals"]]
    worst = max(residuals, default=0.0)
    digits = ACCURACY_CAP if worst <= 10.0 ** -ACCURACY_CAP else -math.log10(worst)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ops_per_s(rec), "1/s"),
        "op_p50_s": (statistics.median(times), "s"),
        "accuracy_digits": (digits, "digits"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(workloads, wl, rec, rounds: int, span_cost: float) -> dict:
    """Every workload's per-layer metrics; those of the other workloads,
    whose functions this one never calls, read 0."""
    values = wl.per_layer(rec, rounds)
    out = {}
    for other in workloads.WORKLOADS.values():
        for name, unit in other.layer_metrics:
            out[name] = (values.get(name, 0.0) if other is type(wl) else 0.0, unit)
    busy = sum(op["seconds"] for op in rec.ops)
    spans = sum(1 for s in rec.spans if s is not None)
    out["trace.overhead_pct"] = (100.0 * spans * span_cost / busy, "%")
    out["trace.ops_per_s"] = (ops_per_s(rec), "1/s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "srtrkit" / "__init__.py").is_file():
        print("perfbench: no srtrkit sources under %s; run from a full checkout" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import srtrkit

    if Path(srtrkit.__file__).resolve().parent != SRC / "srtrkit":
        print("perfbench: srtrkit imported from %s, not from this checkout" % srtrkit.__file__,
              file=sys.stderr)
        return 2
    import workloads
    from spans import Recorder, span_cost

    if args.workload not in workloads.WORKLOADS:
        print("perfbench: unknown workload %r; choose from %s"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2

    tmp = OUT / ("tmp-%d" % os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, tmp / "work")
        setup_s = measure_setup(tmp)
        wl.warmup(Recorder(tracing=False))

        rec = Recorder(tracing=bool(args.trace))
        wl.install_wraps(rec)
        try:
            start = time.perf_counter()
            walls = []
            while True:
                t0 = time.perf_counter()
                wl.run_round(rec)
                walls.append(time.perf_counter() - t0)
                if (len(walls) >= MIN_ROUNDS
                        and time.perf_counter() - start + statistics.mean(walls) > args.seconds):
                    break
        finally:
            rec.unwrap_all()
        rounds = len(walls)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed = [op for op in rec.ops if op["failed"]]
    unexpected = [op for op in failed if not op["known_failure"]]
    for reason in sorted({"%s: %s" % (op["name"], "; ".join(op["failures"])) for op in failed}):
        print("perfbench: failed %s" % reason[:400], file=sys.stderr)
    if args.trace:
        metrics = per_layer(workloads, wl, rec, rounds, span_cost())
    else:
        metrics = end_to_end(rec, rounds, setup_s)
    result = {
        "correct": not unexpected,
        "attempted": len(rec.ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    with open(OUT / ("result-%s.json" % tag), "w", encoding="utf-8") as fh:
        json.dump(dict(result, rounds=rounds, ops=rec.ops), fh, indent=1)
    if args.trace:
        rec.dump_spans(OUT / ("spans-%s.json" % tag))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
