#!/usr/bin/env python3
"""End-to-end walkthrough of the six-node ring benchmark.

Builds the embedded controller data, certifies the pair, checks the
structured-synthesis residuals, reduces every row to first order, compares
the coefficients against the published values, and closes the loop around
the unstable ring plant. Prints a short report; exits nonzero if the
coefficient deviation exceeds 1%.
"""

import argparse
import sys

import numpy as np
from scipy.linalg import expm

from srtrkit import fixtures
from srtrkit.cli import run_ring_reproduction
from srtrkit.loop import assemble_closed_loop, rowwise_implementation, simulate
from srtrkit.srtr import check_flcf, verify_srtr_identity
from srtrkit.synthesis import mm_conditions


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--horizon", type=float, default=20.0)
    ap.add_argument("--dt", type=float, default=1e-3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    pair = fixtures.ring6_pair()
    print("== pair certification ==")
    resid = verify_srtr_identity(pair)
    print(f"identity residual        : {resid:.3e}")
    rep = check_flcf(pair)
    print(f"coprime                  : {rep.coprime}")
    print(f"staircase margin         : {rep.min_singular['finite']:.3e}")

    print("\n== structured synthesis conditions (tol 5e-3) ==")
    cond = mm_conditions(
        fixtures.ring6_controller_base(),
        fixtures.ring6_gain(),
        fixtures.ring6_spec(orders=1),
        tol=5e-3,
    )
    labels = ["i", "ii", "iii", "iv", "v", "vi"]
    for name, value in zip(labels, cond.per_condition_max()):
        print(f"condition {name:>3}: max residual {value:.4e}")
    print(f"passed: {cond.passed}")

    print("\n== first-order reduction vs published coefficients ==")
    lines, worst = run_ring_reproduction()
    print("\n".join(lines))

    print("\n== closed loop ==")
    rows = rowwise_implementation(pair, orders=[1] * 6)
    cl = assemble_closed_loop(fixtures.ring6_plant(), rows)
    eig = np.linalg.eigvals(cl.Acl)
    print(f"states (plant + controller): {cl.n_plant} + {cl.n_ctrl}")
    print(f"max real part of Acl        : {np.max(eig.real):.6f}")
    print(f"|exp({args.horizon:g} Acl)|_2          : "
          f"{np.linalg.norm(expm(args.horizon * cl.Acl), 2):.4e}")
    rng = np.random.default_rng(args.seed)
    x0 = rng.normal(size=cl.n)
    traj = simulate(cl, x0=x0, horizon=args.horizon, dt=args.dt)
    decay = np.linalg.norm(traj.x[-1]) / np.linalg.norm(x0)
    print(f"free response decay factor  : {decay:.4e} over {args.horizon:g}s")

    if worst > 0.01:
        print("\ncoefficient deviation above 1%", file=sys.stderr)
        return 1
    print("\nall reproduction checks within 1%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
