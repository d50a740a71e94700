#!/usr/bin/env python3
"""Self-test of the benchmark's checks: for each check family, perturb one
output of an operation and confirm that the operation is counted as failed
by that check, after confirming that the unperturbed operation passes.
Then confirm that each kept-fault operation fails on its named checks
alone, and that a raise inside it is not taken for the known fault.

    python3 perfbench/selftest.py

Runs small instances (short horizon, smallest sizes) in under a minute and
exits 0 when every perturbation is caught.
"""

import os

import run  # sets one BLAS thread before numpy loads

import dataclasses  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402
from spans import Recorder  # noqa: E402
from srtrkit.rational import RationalFn  # noqa: E402
from srtrkit.srtr import SrtrPair  # noqa: E402


class PerturbingRecorder(Recorder):
    """Applies ``perturb`` to the outputs of operations whose name starts
    with ``prefix``, before they are checked."""

    def __init__(self, prefix: str, perturb):
        super().__init__(tracing=False)
        self.prefix, self.perturb = prefix, perturb

    def run_op(self, name, program, check, known_fault=()):
        if name.startswith(self.prefix):
            program = (lambda inner=program: self.perturb(inner()))
        return super().run_op(name, program, check, known_fault)


def _edit_json(path, edit):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    edit(data)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def _bump(matrix, delta):
    return (np.asarray(matrix) + delta).tolist()


def _pad(row):
    """The same transfer function with one extra decoupled state."""
    A, B, C, D = (np.asarray(row[k], dtype=float) for k in "ABCD")
    n = A.shape[0]
    A2 = np.zeros((n + 1, n + 1))
    A2[:n, :n] = A
    A2[n, n] = -1.0
    return {**row, "A": A2.tolist(), "B": np.vstack([B, np.zeros((1, B.shape[1]))]).tolist(),
            "C": np.hstack([C, np.zeros((1, 1))]).tolist()}


def _file_case(wl, name, edit):
    def perturb(out):
        _edit_json(os.path.join(wl.workdir, name), edit)
        return out
    return perturb


def _csv_case(wl):
    def perturb(out):
        path = os.path.join(wl.workdir, "traj.csv")
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        vals = lines[-1].split(",")
        vals[1] = repr(float(vals[1]) + 1e-3)
        lines[-1] = ",".join(vals)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return out
    return perturb


def _driven_case(traj):
    traj.x[-1] = traj.x[-1] + 1e-6
    return traj


def _flip_pattern(pattern, mask):
    zeros = np.argwhere(mask == 0)
    i, j = zeros[0]
    pattern.maskV = pattern.maskV.copy()
    pattern.maskV[i, j] = 1
    return pattern


def _pad_system(row):
    n = row.A.shape[0]
    A = np.zeros((n + 1, n + 1))
    A[:n, :n] = row.A
    A[n, n] = -1.0
    return dataclasses.replace(row, A=A, B=np.vstack([row.B, np.zeros((1, row.B.shape[1]))]),
                               C=np.hstack([row.C, np.zeros((1, 1))]))


def ring6_cases(wl):
    f = lambda name, edit: _file_case(wl, name, edit)  # noqa: E731

    def a21(d):
        d["A21"] = _bump(d["A21"], 1e-3)

    def k(delta):
        return lambda d: d.update(K=_bump(d["K"], delta))

    def rows(edit):
        return lambda d: d.update(rows=[edit(r) for r in d["rows"]])

    return [
        ("cli-chain", f("pair.json", a21), "pair identity"),
        ("cli-chain", f("lcf.json", lambda d: d.update(B1=_bump(d["B1"], 1e-3))),
         "factorization identity"),
        ("cli-chain", f("riccati.json", k(1e-3)), "riccati residual"),
        ("cli-chain", f("pair2.json", a21), "round trip"),
        ("cli-chain", f("solve.json", k(0.1)), "solved gain masks"),
        ("cli-chain", f("rows.json", rows(lambda r: {**r, "B": _bump(np.asarray(r["B"]) * 1.05, 0)})),
         "rows against printed coefficients"),
        ("cli-chain", f("rows.json", rows(_pad)), "reduced row orders"),
        ("cli-chain", f("kd.json", lambda d: d["realization"].update(
            B=_bump(d["realization"]["B"], 1e-3))), "controller realization"),
        ("cli-chain", f("nrf.json", lambda d: d["Gamma"][0][0].update(
            num=_bump(np.asarray(d["Gamma"][0][0]["num"]) * 1.01, 1e-3))),
         "normalized form response"),
        ("cli-chain", _csv_case(wl), "free response"),
        ("driven-simulate", _driven_case, "driven response"),
    ]


def roundtrip_cases():
    def riccati(outs):
        lcf, sol, back, report, coprime = outs[0]
        return [(lcf, dataclasses.replace(sol, K=sol.K + 1e-4), back, report, coprime)] + outs[1:]

    def pair_back(outs):
        lcf, sol, back, report, coprime = outs[0]
        base = dataclasses.replace(back.base, A21=back.base.A21 + 1e-3)
        return [(lcf, sol, SrtrPair(base, back.K), report, coprime)] + outs[1:]

    return [("roundtrip-", riccati, "riccati residual"), ("roundtrip-", pair_back, "round trip")]


def network_cases(inst_block):
    def ring_gain(outs):
        K, rows = outs[0]
        return [(K + 1e-4, rows)]

    def ring_rows(outs):
        K, rows = outs[0]
        return [(K, [dataclasses.replace(rows[0], B=rows[0].B * 1.01)] + rows[1:])]

    def pattern(outs):
        return [{**outs[0], "pattern": _flip_pattern(outs[0]["pattern"], inst_block["mask"])}]

    def nrf(nrfs):
        gamma = nrfs[0].Gamma.copy()
        gamma[0, 0] = RationalFn(gamma[0, 0].num * 1.01 + 1e-3, gamma[0, 0].den)
        return [dataclasses.replace(nrfs[0], Gamma=gamma)] + nrfs[1:]

    def orders(impl):
        return dataclasses.replace(impl, rows=(_pad_system(impl.rows[0]),) + impl.rows[1:])

    def row_tf(impl):
        return dataclasses.replace(impl, rows=(dataclasses.replace(
            impl.rows[0], B=impl.rows[0].B * 1.01),) + impl.rows[1:])

    return [
        ("rings-", ring_gain, "ring masks"),
        ("rings-", ring_rows, "reduced rows"),
        ("blocks", pattern, "false nonzeros"),
        ("normal-forms", nrf, "normalized form response"),
        ("rows-", orders, "row orders"),
        ("rows-", row_tf, "row transfer functions"),
    ]


def _raise(_outputs):
    raise RuntimeError("perturbed")


def kept_fault_problems(net) -> list[str]:
    """Each kept-fault operation fails on its named checks only, and its
    counter is positive; when the program raises, the failure is not the
    known one and the counter reads the worst case."""
    problems = []
    plan = [
        ("rows-", lambda rec: net._rows_op(rec, net.fixed_rows, kept_fault=True),
         "network.row_order_excess", net.fixed_rows["p"]),
        ("pattern-", lambda rec: net._pattern_op(rec, net.fixed_pattern),
         "network.false_nonzeros", workloads._structural_zeros(net.fixed_pattern["mask"])),
    ]
    for prefix, runner, counter, worst in plan:
        base = Recorder(tracing=False)
        runner(base)
        op = base.ops[-1]
        if not (op["failed"] and op["known_failure"] and base.counters.get(counter, 0) > 0):
            problems.append("%s did not fail on its known fault alone: %s" % (prefix, op["failures"]))
        rec = PerturbingRecorder(prefix, _raise)
        runner(rec)
        op = rec.ops[-1]
        ok = op["failed"] and not op["known_failure"] and rec.counters.get(counter) == worst
        print("%-8s %-18s %-36s" % ("caught" if ok else "MISSED", prefix, "raise in a kept fault"))
        if not ok:
            problems.append("a raise in %s was taken for the known fault" % prefix)
    return problems


def _caught(rec, prefix, label) -> bool:
    return any(op["failed"] and any(msg.startswith(label) for msg in op["failures"])
               for op in rec.ops if op["name"].startswith(prefix))


def main() -> int:
    tmp = run.OUT / ("selftest-%d" % os.getpid())
    problems = []
    try:
        ring6 = workloads.Ring6Pipeline(0, tmp / "ring6")
        short = lambda rec: ring6._round(rec, horizon=0.5)  # noqa: E731
        rt = workloads.RoundtripSweep(0)
        rt_one = lambda rec: rt._op(rec, rt.warm)  # noqa: E731
        net = workloads.NetworkScale(0)
        # a ring whose full-order rows the program gets right, as the
        # positive control of the row checks
        ring = net.warm_ring
        ring_rows = {**ring, "row_blocks": [1] * ring["p"],
                     "pair": SrtrPair(ring["obj"], ring["L"]), "K": ring["L"]}
        net_one = lambda rec: (net._ring_op(rec, [ring]), net._block_op(rec, [net.warm_block]),  # noqa: E731
                               net._nrf_op(rec, [net.warm_block]), net._rows_op(rec, ring_rows))
        plan = [(short, ring6_cases(ring6)), (rt_one, roundtrip_cases()),
                (net_one, network_cases(net.warm_block))]
        for runner, cases in plan:
            base = Recorder(tracing=False)
            runner(base)
            for op in base.ops:
                if op["failed"]:
                    problems.append("unperturbed %s failed: %s" % (op["name"], op["failures"]))
            for prefix, perturb, label in cases:
                rec = PerturbingRecorder(prefix, perturb)
                runner(rec)
                ok = _caught(rec, prefix, label)
                print("%-8s %-18s %-36s" % ("caught" if ok else "MISSED", prefix, label))
                if not ok:
                    problems.append("perturbed %s not caught by %r" % (prefix, label))
        problems += kept_fault_problems(net)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for p in problems:
        print("selftest: " + p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
