#!/usr/bin/env python3
"""Stage sweep of ``loop.simulate`` and ``Trajectory.to_csv`` on two commits.

    python3 scripts/loop_stage_sweep.py PARENT CHANGE --pr N

Unpacks both commits as ``scripts/bench_pairs.py`` does, times the stages
of ``simulate`` (sampling, step matrices, stepping, outputs) and
``to_csv`` on stable random loops of n = 24, 48, 96 and 192 states in
alternating rounds, reports each stage's best time with the quartiles of
all its timed calls, compares the two sides' trajectories and the sha256 of
their CSV texts, and adds the result as ``stage_sweep`` to
``BENCH_<pr>.json`` (written before by ``bench_pairs.py``). Per size and
side it also runs one ``srtrkit loop simulate -o`` on the same loop (free
response) in a fresh process that reports its own peak RSS. The stages are
timed by wrapping private names of ``loop.py`` (see ``sweep_worker``), so
this script follows that module's internals and is specific to it. Run
from the root of the repository.
"""

import argparse
import hashlib
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import SIDES, unpack  # also pins BLAS to one thread

SWEEP_SIZES = (24, 48, 96, 192)
SWEEP_ROUNDS = 3  # alternating sweeps per side
SWEEP_CALLS = 4  # timed simulate calls per size and sweep, after one untimed call
SWEEP_HORIZON, SWEEP_DT = 20.0, 1e-3  # the ring workload's grid: 20k steps


def sweep_worker(src: str, out: str) -> None:
    """Stage times of ``simulate`` and ``to_csv`` with the sources in ``src``.

    Each loop is a stable random ``ClosedLoopModel`` of n states with
    p = m = n / 4 (rng seed n, spectral abscissa -0.2), driven on all four
    channels by sinusoids of the time grid, as in ``ring6-pipeline``'s
    driven run. The stages are timed by wrapping the module's ``_sample``,
    ``_step_matrices`` and ``ClosedLoopModel.outputs``; ``stepping_s`` is
    the rest of ``simulate``: the input forcing, the recurrence and the
    divergence check. ``to_csv`` is timed on the driven trace and on the
    free response from the same x0 (``to_csv_free_s``), the signal-free
    shape that ``loop simulate`` writes. Writes every timed call's stage
    times as JSON to ``out`` and the state trajectories to
    ``out + ".npz"``.
    """
    sys.path.insert(0, src)
    import numpy as np
    from srtrkit import loop

    spent: dict = {}

    def timed(fn, stage):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[stage] = spent.get(stage, 0.0) + time.perf_counter() - start
        return wrapper

    loop._sample = timed(loop._sample, "sample_s")
    loop._step_matrices = timed(loop._step_matrices, "step_matrices_s")
    loop.ClosedLoopModel.outputs = timed(loop.ClosedLoopModel.outputs, "outputs_s")

    result, states = {}, {}
    for n in SWEEP_SIZES:
        cl, signals, x0 = random_loop(loop, n)
        times: dict = {}
        for call in range(1 + SWEEP_CALLS):
            spent.clear()
            start = time.perf_counter()
            traj = loop.simulate(cl, signals=signals, x0=x0, horizon=SWEEP_HORIZON,
                                 dt=SWEEP_DT)
            total = time.perf_counter() - start
            stages = dict(spent, simulate_s=total)
            stages["stepping_s"] = total - sum(spent.values())
            if call:
                for key, val in stages.items():
                    times.setdefault(key, []).append(val)
        result[str(n)] = {"times": times}
        # the driven trace, then the free response that `loop simulate` writes
        free = loop.simulate(cl, x0=x0, horizon=SWEEP_HORIZON, dt=SWEEP_DT)
        for tag, trace in (("", traj), ("_free", free)):
            start = time.perf_counter()
            text = trace.to_csv()
            times["to_csv%s_s" % tag] = [time.perf_counter() - start]
            result[str(n)].update({
                "csv%s_bytes" % tag: len(text),
                "csv%s_sha256" % tag: hashlib.sha256(text.encode("ascii")).hexdigest()})
            del text
        states[str(n)] = traj.x
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    np.savez(out + ".npz", **states)


def random_loop(loop, n: int):
    """The sweep's stable random loop of n states, its sinusoids and x0."""
    import numpy as np

    rng = np.random.default_rng(n)
    k = n // 4
    A = rng.normal(size=(n, n)) / np.sqrt(n)
    A -= (np.max(np.linalg.eigvals(A).real) + 0.2) * np.eye(n)
    cl = loop.ClosedLoopModel(
        Acl=A, B_r=rng.normal(size=(n, k)), B_w=rng.normal(size=(n, k)),
        B_zeta=rng.normal(size=(n, k)), B_du=rng.normal(size=(n, k)),
        Cu=rng.normal(size=(k, n)), Cy=rng.normal(size=(k, n)),
        E=rng.normal(size=(k, k)), F=np.zeros((k, k)),
        n_plant=n, n_ctrl=0, domain="continuous")
    signals = {
        c: (lambda t, a=rng.normal(size=k), om=rng.uniform(0.5, 4.0),
            ph=rng.uniform(0.0, 2 * np.pi): a * np.sin(om * t + ph))
        for c in ("r", "w", "zeta", "du")
    }
    return cl, signals, rng.normal(size=n)


def cli_worker(src: str, n: str, workdir: str) -> None:
    """One ``srtrkit loop simulate -o`` run on the loop of ``n`` states with
    the sources in ``src``; the loop, x0 and trace files go to ``workdir``.
    Prints as JSON the exit code, this process's peak RSS before and after
    the run, and the size and sha256 of the trace."""
    import resource

    sys.path.insert(0, src)
    from srtrkit import cli, jsonio, loop

    cl, _, x0 = random_loop(loop, int(n))
    work = Path(workdir)
    (work / "cl.json").write_text(jsonio.dumps(jsonio.closed_loop_to_dict(cl)))
    (work / "x0.json").write_text(json.dumps(x0.tolist()))
    del cl
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rc = cli.dispatch(["loop", "simulate", "--cl", str(work / "cl.json"),
                       "--x0", str(work / "x0.json"), "--horizon", repr(SWEEP_HORIZON),
                       "--dt", repr(SWEEP_DT), "-o", str(work / "traj.csv")])
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    digest = hashlib.sha256()
    with open(work / "traj.csv", "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    print(json.dumps({"cli_exit": rc, "cli_rss_before_mb": before / 1024,
                      "cli_peak_rss_mb": peak / 1024,
                      "cli_csv_bytes": (work / "traj.csv").stat().st_size,
                      "cli_csv_sha256": digest.hexdigest()}))
    (work / "traj.csv").unlink()


def cli_peaks(roots: dict, tmp: Path) -> dict:
    """``cli_worker``'s report per side and size, the sides alternating."""
    out = {s: {} for s in SIDES}
    for i, n in enumerate(SWEEP_SIZES):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            work = tmp / ("cli-%s-%d" % (side, n))
            work.mkdir()
            done = subprocess.run([sys.executable, __file__, "--cli-worker",
                                   str(roots[side] / "src"), str(n), str(work)],
                                  check=True, capture_output=True, text=True)
            out[side][str(n)] = json.loads(done.stdout.strip().splitlines()[-1])
    return out


def stage_sweep(roots: dict, tmp: Path) -> dict:
    import numpy as np

    times = {s: {} for s in SIDES}
    exact = {s: {} for s in SIDES}
    states = {}
    for i in range(SWEEP_ROUNDS):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            out = tmp / ("sweep-%s-%d.json" % (side, i))
            subprocess.run([sys.executable, __file__, "--worker", str(roots[side] / "src"),
                            str(out)], check=True)
            with open(out, encoding="utf-8") as fh:
                for n, got in json.load(fh).items():
                    for key, vals in got.pop("times").items():
                        times[side].setdefault(n, {}).setdefault(key, []).extend(vals)
                    exact[side][n] = got
            states[side] = np.load(str(out) + ".npz")
    peaks = cli_peaks(roots, tmp)

    def spread(vals):
        q1, median, q3 = np.percentile(vals, [25, 50, 75])
        return {"best": min(vals), "q1": q1, "median": median, "q3": q3}

    sizes = {}
    for n in times["parent"]:
        xp, xc = states["parent"][n], states["change"][n]
        same = xp.shape == xc.shape
        rel = float(np.linalg.norm(xc - xp) / np.linalg.norm(xp)) if same else float("nan")
        sides = {side: dict({key: spread(vals) for key, vals in times[side][n].items()},
                            **exact[side][n], **peaks[side][n]) for side in SIDES}
        hashes = {key: sides["parent"][key] == sides["change"][key]
                  for key in ("csv_sha256", "csv_free_sha256", "cli_csv_sha256")}
        sizes[n] = dict(sides, x_rel_diff=rel, same_rows=same,
                        same_csv=hashes["csv_sha256"] and hashes["cli_csv_sha256"],
                        same_free_csv=hashes["csv_free_sha256"])
    return {
        "input": ("stable random ClosedLoopModel of n states, p = m = n / 4, rng seed n, "
                  "spectral abscissa -0.2; sinusoids of t on all four channels; horizon %g, "
                  "dt %g" % (SWEEP_HORIZON, SWEEP_DT)),
        "time": ("best, first quartile, median and third quartile of each stage over %d "
                 "simulate calls (%d alternating sweeps of %d calls, each after one untimed "
                 "call) and over %d to_csv calls per trace, one BLAS thread"
                 % (SWEEP_ROUNDS * SWEEP_CALLS, SWEEP_ROUNDS, SWEEP_CALLS, SWEEP_ROUNDS)),
        "stages": ("sample_s: loop._sample (grid and midpoints); step_matrices_s: "
                   "loop._step_matrices; outputs_s: ClosedLoopModel.outputs; stepping_s: "
                   "the rest of simulate (input forcing, recurrence, divergence check); "
                   "simulate_s: the whole call; to_csv_s: Trajectory.to_csv of the driven "
                   "trace; to_csv_free_s: Trajectory.to_csv of the free response from the "
                   "same x0, whose r, w, zeta and du are zero, as `loop simulate` writes it"),
        "x_rel_diff": "|x_change - x_parent|_F / |x_parent|_F over the whole trajectory",
        "cli": ("one `srtrkit loop simulate --x0 -o` of the same loop (free response, same "
                "grid) per size and side, alternating, in a fresh process: cli_peak_rss_mb is "
                "its ru_maxrss after the run, cli_rss_before_mb after loading srtrkit and "
                "writing the loop files"),
        "same_csv": ("the two sides' to_csv texts of the driven trace have the same sha256 "
                     "(csv_sha256), and so do their CLI traces (cli_csv_sha256); a driven "
                     "trajectory that moves at rounding level (x_rel_diff) changes its text"),
        "same_free_csv": ("the same for the to_csv texts of the free response "
                          "(csv_free_sha256)"),
        "sizes": sizes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pr", required=True)
    args = parser.parse_args(argv)

    out = "BENCH_%s.json" % args.pr
    with open(out, encoding="utf-8") as fh:
        bench = json.load(fh)
    with tempfile.TemporaryDirectory(prefix="loop_stage_sweep-") as tmp:
        roots = {side: Path(tmp) / side for side in SIDES}
        for side, rev in zip(SIDES, (args.parent, args.change)):
            commit = unpack(rev, roots[side])["commit"]
            if commit != bench[side]["commit"]:
                raise SystemExit("%s is %s, but %s has %s" % (
                    side, commit, out, bench[side]["commit"]))
        bench["stage_sweep"] = stage_sweep(roots, Path(tmp))
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    print("loop_stage_sweep: added stage_sweep to %s" % out, file=sys.stderr)
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        sweep_worker(*sys.argv[2:4])
    elif sys.argv[1:2] == ["--cli-worker"]:
        cli_worker(*sys.argv[2:5])
    else:
        sys.exit(main())
