#!/usr/bin/env python3
"""Size sweep of the structure kernels on two commits.

    python3 scripts/structure_sweep.py PARENT CHANGE --pr N

Unpacks both commits as ``scripts/bench_pairs.py`` does and times
``linalg.zero_entries``, ``srtr.sparsity_pattern``, ``srtr.nrf_from_srtr``
and ``systems.is_minimal`` in alternating rounds on rotated block networks
(``tests/helpers.block_network``, p = 9, 15, 30, 48) and dense pairs
(``perfbench/inputs.stable_pair``, p = 12, 24, 48), and the Krylov stage
of synthesis (``synthesis.mm_conditions`` at one gain, the condition rows
of the 120-gain alpha grid of ``mm_solve``, and ``synthesis.reduce_rows``)
on exact rings (``perfbench/inputs.exact_ring``, p = 7, 12, 24, 48), and
the Riccati stage (``factorization.solve_ctnare`` after
``to_kontroller_form``) on minimal plants
(``perfbench/inputs.kontroller_plant``, p = 3, 5, 7, 12), all built once
with the builders of the change's checkout and loaded by both sides. It
reports each call's best time with the quartiles of all its timed calls,
checks that both sides give equal masks, equal normal-form orders and
entry degrees, equal staircase orders k, equal minimality verdicts and
bit-equal condition rows, margins and reduced rows, measures the largest
move of a normal-form coefficient and of a Riccati solution K, reports
each side's Riccati residual and cond(V1), and adds the result as
``structure_sweep`` to ``BENCH_<pr>.json`` (written before by
``bench_pairs.py``). Run from the root of the repository.
"""

import argparse
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import SIDES, unpack  # also pins BLAS to one thread

BLOCK_SIZES = (9, 15, 30, 48)
DENSE_SIZES = (12, 24, 48)
RING_SIZES = (7, 12, 24, 48)
# past p = 12 place_poles stops converging and the plant builder redraws
# for minutes
PLANT_SIZES = (3, 5, 7, 12)
SWEEP_ROUNDS = 3  # alternating sweeps per side
MIN_CALLS, MIN_SECONDS = 3, 0.3  # timed calls per function, size and sweep
CALLS = ("zero_entries", "sparsity_pattern", "nrf_from_srtr", "is_minimal")
RING_CALLS = ("mm_conditions", "condition_grid", "reduce_rows")
NAMES = ["block-p%d" % p for p in BLOCK_SIZES] + ["dense-p%d" % p for p in DENSE_SIZES]
RINGS = ["ring-p%d" % p for p in RING_SIZES]
PLANTS = ["plant-p%d" % p for p in PLANT_SIZES]
BLOCKS = ("A11", "A12", "A21", "A22", "B1", "B2", "K")  # saved per input


def inputs_worker(root: str, out: str) -> None:
    """The base blocks and gain of every sweep input, built once with the
    builders of the checkout in ``root`` and saved to ``out`` (npz) as
    ``<name>/<block>``; a dense p = 48 pair takes minutes to place."""
    root = Path(root)
    for sub in ("src", "tests", "perfbench"):
        sys.path.insert(0, str(root / sub))
    import numpy as np
    from helpers import block_network
    from inputs import exact_ring, kontroller_plant, stable_pair

    saved = {}
    for p in BLOCK_SIZES:
        pair = block_network(np.random.default_rng(7000 + p), p)[0]
        b = pair.base
        blocks = (b.A11, b.A12, b.A21, b.A22, b.B1, b.B2, pair.K)
        saved.update({"block-p%d/%s" % (p, key): val for key, val in zip(BLOCKS, blocks)})
    for p in DENSE_SIZES:
        base, K = stable_pair(np.random.default_rng(8000 + p), p)
        saved.update({"dense-p%d/%s" % (p, key): val for key, val in dict(base, K=K).items()})
    for p in RING_SIZES:
        base, mask, L = exact_ring(np.random.default_rng(9000 + p), p)
        saved.update({"ring-p%d/%s" % (p, key): val for key, val in dict(base, K=L, mask=mask).items()})
    for p in PLANT_SIZES:
        plant = kontroller_plant(np.random.default_rng(9100 + p), p)
        saved.update({"plant-p%d/%s" % (p, key): val for key, val in plant.items()})
    np.savez(out, **saved)


def timed(name: str, calls: dict):
    """One untimed call of each function of ``calls``, then timed calls;
    returns the timed calls' times and the untimed call's result by key."""
    times, got = {}, {}
    for key, call in calls.items():
        got[key] = call()
        spent = []
        while len(spent) < MIN_CALLS or sum(spent) < MIN_SECONDS:
            start = time.perf_counter()
            call()
            spent.append(time.perf_counter() - start)
        times[key] = spent
        print("structure_sweep: %s %s %.4f s" % (name, key, min(spent)), file=sys.stderr)
    return times, got


def sweep_worker(src: str, inputs: str, out: str) -> None:
    """Times and results of the structure calls, the Krylov stage and the
    Riccati stage with the sources in ``src`` on the inputs saved in
    ``inputs``.

    Writes the timed calls' times, the masks, orders, degrees, staircase
    orders, verdicts, Riccati residuals and cond(V1) as JSON to ``out``,
    and the normal-form coefficients, condition rows, margins, reduced rows
    and Riccati solutions to ``out + ".npz"``."""
    sys.path.insert(0, src)
    import numpy as np
    from srtrkit.factorization import solve_ctnare, to_kontroller_form
    from srtrkit.linalg import column_staircases, zero_entries
    from srtrkit.srtr import SrtrPair, nrf_from_srtr, sparsity_pattern
    from srtrkit.synthesis import SynthesisSpec, _condition_rows, mm_conditions, reduce_rows
    from srtrkit.systems import PartitionedRealization, StateSpaceSystem, is_minimal

    saved = np.load(inputs)
    result, coeffs = {}, {}
    for name in NAMES:
        A11, A12, A21, A22, B1, B2, K = (saved["%s/%s" % (name, key)] for key in BLOCKS)
        pair = SrtrPair(PartitionedRealization(A11, A12, A21, A22, B1, B2, "continuous"), K)
        system = pair.base.full_system()
        times, got = timed(name, {
            "zero_entries": lambda: zero_entries(pair.Aw, pair.Bw, pair.Cw, pair.Dw),
            "sparsity_pattern": lambda: sparsity_pattern(pair),
            "nrf_from_srtr": lambda: nrf_from_srtr(pair),
            "is_minimal": lambda: is_minimal(system),
        })
        pat, nrf = got["sparsity_pattern"], got["nrf_from_srtr"]
        entries = np.hstack([nrf.Phi, nrf.Gamma]).ravel()
        result[name] = {
            "times": times,
            "maskW": pat.maskW.tolist(), "maskV": pat.maskV.tolist(),
            "nrf_order": nrf.order.tolist(),
            "degrees": [[e.num_degree, e.den_degree] for e in entries],
            "k": column_staircases(pair.Aw, pair.Bw.T)[1].tolist(),
            "is_minimal": bool(got["is_minimal"]),
        }
        for part in ("num", "den"):
            coeffs["%s/%s" % (name, part)] = np.concatenate([getattr(e, part) for e in entries])
    for name in RINGS:
        A11, A12, A21, A22, B1, B2, L = (saved["%s/%s" % (name, key)] for key in BLOCKS)
        base = PartitionedRealization(A11, A12, A21, A22, B1, B2, "continuous")
        p, mask = base.p, saved[name + "/mask"]
        spec = SynthesisSpec(mask, mask, (1,) * p, "ring-homogeneous")
        # the alpha grid of mm_solve's ring-homogeneous candidate
        grid = -np.geomspace(1e-2, 10.0 * (1.0 + np.linalg.norm(base.A, 2)), 120)
        gains = (np.multiply.outer(grid, np.eye(p)) - A22) @ np.linalg.inv(A12)
        times, got = timed(name, {
            "mm_conditions": lambda: mm_conditions(base, L, spec),
            "condition_grid": lambda: _condition_rows(base, gains, spec),
            "reduce_rows": lambda: reduce_rows(base, L, spec),
        })
        result[name] = {"times": times}
        report, (rows, margins) = got["mm_conditions"], got["condition_grid"]
        coeffs.update({"%s/one_rows" % name: report.rows, "%s/one_margins" % name: report.margins,
                       "%s/grid_rows" % name: rows, "%s/grid_margins" % name: margins})
        for i, row in enumerate(got["reduce_rows"]):
            coeffs.update({"%s/row%d/%s" % (name, i, key): getattr(row, key) for key in "ABCD"})
    for name in PLANTS:
        A, B, C, F, U = (saved["%s/%s" % (name, key)] for key in "ABCFU")
        plant = StateSpaceSystem(A, B, C, np.zeros((C.shape[0], B.shape[1])), "continuous")
        lcf = to_kontroller_form(plant, F, U)
        times, got = timed(name, {"solve_ctnare": lambda: solve_ctnare(lcf)})
        sol = got["solve_ctnare"]
        result[name] = {"times": times, "residual_norm": sol.residual_norm,
                        "subspace_cond": sol.subspace_cond}
        coeffs[name + "/K"] = sol.K
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    np.savez(out + ".npz", **coeffs)


def coefficient_move(parent, change, name: str) -> float:
    """max |c_change - c_parent| / (1 + max |c_parent|) over the normal-form
    coefficients of ``name``; inf if their layouts differ."""
    import numpy as np

    moves = []
    for part in ("num", "den"):
        cp, cc = parent["%s/%s" % (name, part)], change["%s/%s" % (name, part)]
        if cp.shape != cc.shape:
            return float("inf")
        moves.append(np.max(np.abs(cc - cp), initial=0.0) / (1.0 + np.max(np.abs(cp), initial=0.0)))
    return float(max(moves))


def relative_move(parent, change, key: str) -> float:
    """max |x_change - x_parent| / max |x_parent| over the array ``key``;
    inf if its shapes differ."""
    import numpy as np

    xp, xc = parent[key], change[key]
    if xp.shape != xc.shape:
        return float("inf")
    return float(np.max(np.abs(xc - xp)) / np.max(np.abs(xp)))


def structure_sweep(roots: dict, tmp: Path) -> dict:
    import numpy as np

    times = {s: {} for s in SIDES}
    found = {s: {} for s in SIDES}
    coeffs = {}
    inputs = tmp / "inputs.npz"
    subprocess.run([sys.executable, __file__, "--inputs", str(roots["change"]), str(inputs)],
                   check=True)
    for i in range(SWEEP_ROUNDS):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            out = tmp / ("sweep-%s-%d.json" % (side, i))
            subprocess.run([sys.executable, __file__, "--worker", str(roots[side] / "src"),
                            str(inputs), str(out)], check=True)
            with open(out, encoding="utf-8") as fh:
                for name, got in json.load(fh).items():
                    for key, vals in got.pop("times").items():
                        times[side].setdefault(name, {}).setdefault(key, []).extend(vals)
                    found[side][name] = got
            coeffs[side] = np.load(str(out) + ".npz")

    def spread(vals):
        q1, median, q3 = np.percentile(vals, [25, 50, 75])
        return {"best": min(vals), "q1": q1, "median": median, "q3": q3, "calls": len(vals)}

    def same(name: str, prefix: str) -> bool:
        """The arrays saved as ``name/prefix...`` are bit-equal on both sides."""
        start = "%s/%s" % (name, prefix)
        got = [{key: coeffs[side][key] for key in coeffs[side].files if key.startswith(start)}
               for side in SIDES]
        return got[0].keys() == got[1].keys() and all(
            got[0][key].shape == got[1][key].shape and got[0][key].tobytes() == got[1][key].tobytes()
            for key in got[0])

    sizes = {}
    for name in times["parent"]:
        fp, fc = found["parent"][name], found["change"][name]
        sides = {side: {key: spread(vals) for key, vals in times[side][name].items()}
                 for side in SIDES}
        speedup = {key: sides["parent"][key]["median"] / sides["change"][key]["median"]
                   for key in sides["parent"]}
        if name in PLANTS:
            sizes[name] = dict(
                sides, speedup=speedup,
                residual_norm={side: found[side][name]["residual_norm"] for side in SIDES},
                subspace_cond={side: found[side][name]["subspace_cond"] for side in SIDES},
                riccati_K_move=relative_move(coeffs["parent"], coeffs["change"], name + "/K"))
            continue
        if name in RINGS:
            sizes[name] = dict(
                sides, speedup=speedup, same_conditions=same(name, "one_"),
                same_condition_grid=same(name, "grid_"), same_rows=same(name, "row"))
            continue
        sizes[name] = dict(
            sides,
            speedup=speedup,
            same_masks=fp["maskW"] == fc["maskW"] and fp["maskV"] == fc["maskV"],
            same_orders=fp["nrf_order"] == fc["nrf_order"] and fp["degrees"] == fc["degrees"],
            same_k=fp["k"] == fc["k"],
            same_is_minimal=fp["is_minimal"] == fc["is_minimal"],
            coefficient_move=coefficient_move(coeffs["parent"], coeffs["change"], name),
        )
    return {
        "input": ("built once with the change's builders; block-p*: tests/helpers.block_network(default_rng(7000 + p), p), rotated "
                  "(1, 2)-block networks, p = q = m; dense-p*: perfbench/inputs.stable_pair("
                  "default_rng(8000 + p), p), random p = q = m pairs with placed real eig(Aw), "
                  "hidden coordinates rotated; ring-p*: perfbench/inputs.exact_ring("
                  "default_rng(9000 + p), p), exact p-node rings with their gain L; plant-p*: "
                  "perfbench/inputs.kontroller_plant(default_rng(9100 + p), p), minimal plants "
                  "with n = 2p states, p inputs and outputs, an output injection F and an "
                  "orthogonal U"),
        "time": ("best, first quartile, median and third quartile in seconds of each call "
                 "over %d alternating sweeps, each of at least %d calls and %g s per call "
                 "and size after one untimed call, one BLAS thread"
                 % (SWEEP_ROUNDS, MIN_CALLS, MIN_SECONDS)),
        "calls": ("zero_entries(Aw, Bw, Cw, Dw) of the pair; sparsity_pattern(pair); "
                  "nrf_from_srtr(pair); is_minimal of the pair's base system; on ring-p*: "
                  "mm_conditions(base, L, spec) at the ring's gain L, condition_grid: "
                  "synthesis._condition_rows(base, gains, spec) over the 120 gains of "
                  "mm_solve's alpha grid, reduce_rows(base, L, spec); spec: ring masks, "
                  "first-order rows, ring-homogeneous; on plant-p*: solve_ctnare(lcf) on "
                  "lcf = to_kontroller_form(plant, F, U), built once"),
        "speedup": "parent median / change median",
        "same_masks": "sparsity_pattern's maskW and maskV are equal on both sides",
        "same_orders": ("NrfPair.order and the (numerator, denominator) degree of every "
                        "entry of [Phi Gamma] are equal on both sides"),
        "same_k": "the orders k of column_staircases(Aw, Bw.T) are equal on both sides",
        "same_conditions": "mm_conditions' rows and margins are bit-equal on both sides",
        "same_condition_grid": "the grid's condition rows and margins are bit-equal on both sides",
        "same_rows": "reduce_rows' A, B, C and D are bit-equal on both sides",
        "coefficient_move": ("max |c_change - c_parent| / (1 + max |c_parent|) over the "
                             "numerator, then the denominator coefficients of every entry "
                             "of [Phi Gamma], the larger of the two"),
        "residual_norm": "each side's RiccatiSolution.residual_norm",
        "subspace_cond": "each side's RiccatiSolution.subspace_cond, cond(V1)",
        "riccati_K_move": "max |K_change - K_parent| / max |K_parent| over the Riccati solution",
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
    with tempfile.TemporaryDirectory(prefix="structure_sweep-") as tmp:
        roots = {side: Path(tmp) / side for side in SIDES}
        for side, rev in zip(SIDES, (args.parent, args.change)):
            commit = unpack(rev, roots[side])["commit"]
            if commit != bench[side]["commit"]:
                raise SystemExit("%s is %s, but %s has %s" % (
                    side, commit, out, bench[side]["commit"]))
        bench["structure_sweep"] = structure_sweep(roots, Path(tmp))
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    print("structure_sweep: added structure_sweep to %s" % out, file=sys.stderr)
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--inputs"]:
        inputs_worker(*sys.argv[2:4])
    elif sys.argv[1:2] == ["--worker"]:
        sweep_worker(*sys.argv[2:5])
    else:
        sys.exit(main())
