"""Command-line front end.

Exit codes: 0 success or verified, 1 a verification/feasibility check failed,
2 invalid input, 3 numerical failure. Results go to --output or stdout as
JSON (CSV for simulation); diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys

import numpy as np

from . import fixtures, jsonio
from .errors import InvalidInputError, SrtrKitError
from .factorization import (
    ThetaFactor,
    lcf_from_srtr,
    solve_ctnare,
    srtr_from_lcf,
    verify_lcf,
)
from .linalg import check_tolerance, eigenvalues, stability_margin
from .loop import (
    assemble_closed_loop,
    check_internal_stability,
    kd_from_srtr,
    rowwise_implementation,
    simulate,
    unstable_pole_count,
)
from .rational import siso_rational
from .srtr import (
    SrtrPair,
    check_flcf,
    nrf_from_srtr,
    sparsity_pattern,
    srtr_is_stable,
    verify_srtr_identity,
)
from .synthesis import mm_conditions, mm_solve, reduce_rows, SolveOptions
from .systems import PartitionedRealization, StateSpaceSystem, is_minimal


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, payload: dict) -> None:
    _emit(args, jsonio.dumps(payload))


def _load_pair(path: str):
    return jsonio.pair_from_dict(jsonio.load_json(path))


def _load_source(path: str):
    d = jsonio.load_json(path)
    if "K" in d:
        return jsonio.pair_from_dict(d)
    if "A11" in d:
        return jsonio.partitioned_from_dict(d).full_system()
    return jsonio.system_from_dict(d)


def _default_theta(p: int, domain: str) -> ThetaFactor:
    Ax = -np.eye(p) if domain == "continuous" else np.zeros((p, p))
    return ThetaFactor(Ax, np.eye(p), np.eye(p), domain)


def cmd_srtr_build(args) -> int:
    base = jsonio.partitioned_from_dict(jsonio.load_json(args.base))
    K = jsonio.gain_from_dict(jsonio.load_json(args.gain), p=base.p, q=base.q)
    pair = SrtrPair(base, K)
    if not is_minimal(base.full_system()):
        print("note: base realization is not minimal", file=sys.stderr)
    _emit_json(args, jsonio.pair_to_dict(pair))
    return 0


def cmd_srtr_check(args) -> int:
    pair = _load_pair(args.infile)
    residual = verify_srtr_identity(pair, n_samples=args.samples, seed=args.seed)
    stable = srtr_is_stable(pair)
    report = check_flcf(pair, seed=args.seed)
    _emit_json(
        args,
        {
            "identityResidual": residual,
            "stable": stable,
            "flcf": report.as_dict(),
            "minimalBase": is_minimal(pair.base.full_system()),
        },
    )
    return 0 if (residual <= args.tol and stable and report.coprime) else 1


def cmd_srtr_nrf(args) -> int:
    pair = _load_pair(args.infile)
    _emit_json(args, jsonio.nrf_to_dict(nrf_from_srtr(pair)))
    return 0


def cmd_srtr_pattern(args) -> int:
    pair = _load_pair(args.infile)
    _emit_json(args, jsonio.pattern_to_dict(sparsity_pattern(pair, tol=args.tol)))
    return 0


def cmd_lcf_from_srtr(args) -> int:
    pair = _load_pair(args.infile)
    if args.theta:
        theta = jsonio.theta_from_dict(jsonio.load_json(args.theta))
    else:
        theta = _default_theta(pair.p, pair.domain)
    _emit_json(args, jsonio.lcf_to_dict(lcf_from_srtr(pair, theta)))
    return 0


def cmd_lcf_to_srtr(args) -> int:
    lcf = jsonio.lcf_from_dict(jsonio.load_json(args.infile))
    solution = solve_ctnare(lcf)
    pair = srtr_from_lcf(lcf, solution)
    _emit_json(args, jsonio.pair_to_dict(pair))
    return 0


def cmd_lcf_check(args) -> int:
    lcf = jsonio.lcf_from_dict(jsonio.load_json(args.infile))
    source = _load_source(args.source) if args.source else None
    report = verify_lcf(lcf, source, n_samples=args.samples, seed=args.seed)
    _emit_json(args, report.as_dict())
    ok = report.stable and report.coprime_over_s and report.identity_residual <= args.tol
    return 0 if ok else 1


def cmd_riccati_solve(args) -> int:
    lcf = jsonio.lcf_from_dict(jsonio.load_json(args.infile))
    _emit_json(args, solve_ctnare(lcf).as_dict())
    return 0


def _load_synth_inputs(args):
    base = jsonio.partitioned_from_dict(jsonio.load_json(args.base))
    spec = jsonio.spec_from_dict(jsonio.load_json(args.spec))
    return base, spec


def cmd_synth_conditions(args) -> int:
    base, spec = _load_synth_inputs(args)
    K = jsonio.gain_from_dict(jsonio.load_json(args.gain), p=base.p, q=base.q)
    report = mm_conditions(base, K, spec, tol=args.tol)
    _emit_json(args, report.as_dict())
    return 0 if report.passed else 1


def cmd_synth_solve(args) -> int:
    base, spec = _load_synth_inputs(args)
    opts = SolveOptions(tol=args.tol)
    K = mm_solve(base, spec, opts)
    report = mm_conditions(base, K, spec, tol=args.tol)
    _emit_json(args, {"K": K.tolist(), "report": report.as_dict()})
    return 0


def cmd_synth_reduce(args) -> int:
    base, spec = _load_synth_inputs(args)
    K = jsonio.gain_from_dict(jsonio.load_json(args.gain), p=base.p, q=base.q)
    rows = reduce_rows(base, K, spec)
    _emit_json(
        args,
        {
            "domain": base.domain,
            "p": base.p,
            "rows": [jsonio.system_to_dict(r) for r in rows],
        },
    )
    return 0


def cmd_loop_kd(args) -> int:
    pair = _load_pair(args.pair)
    kd = kd_from_srtr(pair)
    _emit_json(
        args,
        {
            "realization": jsonio.system_to_dict(kd.realization),
            "unstablePoles": unstable_pole_count(kd.realization),
        },
    )
    return 0


def cmd_loop_assemble(args) -> int:
    plant = jsonio.system_from_dict(jsonio.load_json(args.plant))
    pair = _load_pair(args.pair)
    orders = None
    if args.orders:
        try:
            parts = json.loads(f"[{args.orders}]")
        except json.JSONDecodeError:
            parts = [args.orders]
        parts = [jsonio.integer(v, "each entry of --orders") for v in parts]
        orders = parts * pair.p if len(parts) == 1 else parts
        if len(orders) != pair.p:
            raise InvalidInputError(
                f"--orders needs 1 or {pair.p} integers, got {len(parts)}"
            )
    cl = assemble_closed_loop(plant, rowwise_implementation(pair, orders=orders))
    _emit_json(args, jsonio.closed_loop_to_dict(cl))
    return 0


def cmd_loop_stability(args) -> int:
    cl = jsonio.closed_loop_from_dict(jsonio.load_json(args.cl))
    stable = check_internal_stability(cl)
    _emit_json(
        args,
        {
            "internallyStable": stable,
            "stabilityMargin": stability_margin(eigenvalues(cl.Acl), cl.domain),
        },
    )
    return 0 if stable else 1


def cmd_loop_simulate(args) -> int:
    cl = jsonio.closed_loop_from_dict(jsonio.load_json(args.cl))
    x0 = None
    if args.x0:
        x0 = jsonio.vector_from_list(jsonio.load_json(args.x0), "x0")
    traj = simulate(cl, signals=None, x0=x0, horizon=args.horizon, dt=args.dt)
    if traj.diverged:
        print("warning: trajectory diverged before the horizon", file=sys.stderr)
    if not args.output:
        traj.to_csv(sys.stdout)
        return 0
    fh = open(args.output, "w", encoding="utf-8")
    try:
        with fh:
            traj.to_csv(fh)
    except BaseException:
        # a short trace would still parse: remove it, unless it is no
        # regular file of its own (/dev/null, a symlink)
        if stat.S_ISREG(os.lstat(args.output).st_mode):
            os.remove(args.output)
        raise
    return 0


def _fmt_tf(num, den, var: str = "s") -> str:
    def poly(c):
        terms = []
        for k in range(len(c) - 1, -1, -1):
            v = c[k]
            if abs(v) < 5e-5:
                continue
            if k == 0:
                terms.append(f"{v:+.4f}")
            elif k == 1:
                terms.append(f"{v:+.4f} {var}" if abs(v - 1) > 5e-5 else f"+{var}")
            else:
                terms.append(f"{v:+.4f} {var}^{k}")
        if not terms:
            return "0"
        return " ".join(terms).lstrip("+")

    return f"({poly(num)}) / ({poly(den)})"


def run_ring_reproduction() -> tuple[list[str], float]:
    """Reduce the embedded ring controller to first-order rows and compare
    every nonzero entry against the printed coefficients.

    Returns printable lines and the worst relative coefficient deviation.
    """
    base = fixtures.ring6_controller_base()
    K = fixtures.ring6_gain()
    spec = fixtures.ring6_spec(orders=1)
    rows = reduce_rows(base, K, spec)
    expected = fixtures.RING6_EXPECTED_ROWS
    p = base.p
    lines = []
    worst = 0.0
    for i, row in enumerate(rows):
        prev = (i - 1) % p
        got = {}
        cols = {"W_local": i, "W_prev": prev, "V_local": p + i, "V_prev": p + prev}
        for name, j in cols.items():
            fn = siso_rational(row.A, row.B[:, j], row.C, row.D[0, j])
            got[name] = (np.pad(fn.num, (0, fn.den.size - fn.num.size)), fn.den)
        for name, (gnum, gden) in got.items():
            enum_ = expected[name]["num"]
            eden = expected[name]["den"]
            scale = max(abs(v) for v in enum_ + eden)
            for gv, ev in zip(list(gnum) + list(gden), enum_ + eden):
                if ev != 0.0:
                    worst = max(worst, abs(gv - ev) / abs(ev))
                else:
                    worst = max(worst, abs(gv) / scale)
        if i == 0:
            for name, (gnum, gden) in got.items():
                lines.append(f"  {name}(s) = {_fmt_tf(gnum, gden)}")
    lines.append(f"worst relative coefficient deviation: {worst:.4%}")
    return lines, worst


def cmd_reproduce(args) -> int:
    if args.what != "paper-example":
        raise InvalidInputError(f"unknown reproduction target {args.what!r}")
    lines, worst = run_ring_reproduction()
    ok = worst <= 0.01
    lines.append("PASS (within 1%)" if ok else "FAIL (worse than 1%)")
    _emit(args, "\n".join(["first-order ring rows (row 0 shown):"] + lines) + "\n")
    return 0 if ok else 1


def cmd_fixtures_export(args) -> int:
    maker = fixtures.FIXTURES.get(args.name)
    if maker is None:
        raise InvalidInputError(
            f"unknown fixture {args.name!r}; available: "
            + ", ".join(sorted(fixtures.FIXTURES))
        )
    obj = maker()
    if isinstance(obj, StateSpaceSystem):
        payload = jsonio.system_to_dict(obj)
    elif isinstance(obj, PartitionedRealization):
        payload = jsonio.partitioned_to_dict(obj)
    elif isinstance(obj, np.ndarray):
        payload = {"K": obj.tolist()}
    elif isinstance(obj, dict):
        payload = obj
    else:
        payload = jsonio.pair_to_dict(obj)
    _emit_json(args, payload)
    return 0


def _tolerance(text: str) -> float:
    """``--tol``: a finite number at least 0, as ``linalg.check_tolerance``
    requires."""
    try:
        return check_tolerance(float(text))
    except InvalidInputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command tree, built once per process and shared by every call.

    Each command names its ``cmd_*`` function; ``dispatch`` looks the name
    up when it runs the command.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-o", "--output", default=None)
    tol = argparse.ArgumentParser(add_help=False, parents=[common])
    tol.add_argument("--tol", type=_tolerance, default=1e-6)
    sampled = argparse.ArgumentParser(add_help=False, parents=[tol])
    sampled.add_argument("--seed", type=int, default=42)
    sampled.add_argument("--samples", type=int, default=5)

    parser = argparse.ArgumentParser(prog="srtrkit")
    top = parser.add_subparsers(dest="group", required=True)

    srtr = top.add_parser("srtr", help="pair construction and checks")
    srtr_sub = srtr.add_subparsers(dest="cmd", required=True)
    sp = srtr_sub.add_parser("build", parents=[common])
    sp.add_argument("--base", required=True)
    sp.add_argument("--gain", required=True)
    sp.set_defaults(func="cmd_srtr_build")
    sp = srtr_sub.add_parser("check", parents=[sampled])
    sp.add_argument("--in", dest="infile", required=True)
    sp.set_defaults(func="cmd_srtr_check")
    sp = srtr_sub.add_parser("nrf", parents=[common])
    sp.add_argument("--in", dest="infile", required=True)
    sp.set_defaults(func="cmd_srtr_nrf")
    sp = srtr_sub.add_parser("pattern", parents=[tol])
    sp.add_argument("--in", dest="infile", required=True)
    sp.set_defaults(func="cmd_srtr_pattern")

    lcf = top.add_parser("lcf", help="left factorizations")
    lcf_sub = lcf.add_subparsers(dest="cmd", required=True)
    sp = lcf_sub.add_parser("from-srtr", parents=[common])
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--theta", default=None)
    sp.set_defaults(func="cmd_lcf_from_srtr")
    sp = lcf_sub.add_parser("to-srtr", parents=[common])
    sp.add_argument("--in", dest="infile", required=True)
    sp.set_defaults(func="cmd_lcf_to_srtr")
    sp = lcf_sub.add_parser("check", parents=[sampled])
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--source", default=None)
    sp.set_defaults(func="cmd_lcf_check")

    ric = top.add_parser("riccati", help="nonsymmetric Riccati solves")
    ric_sub = ric.add_subparsers(dest="cmd", required=True)
    sp = ric_sub.add_parser("solve", parents=[common])
    sp.add_argument("--in", dest="infile", required=True)
    sp.set_defaults(func="cmd_riccati_solve")

    synth = top.add_parser("synth", help="structured gain synthesis")
    synth_sub = synth.add_subparsers(dest="cmd", required=True)
    sp = synth_sub.add_parser("conditions", parents=[tol])
    sp.add_argument("--base", required=True)
    sp.add_argument("--gain", required=True)
    sp.add_argument("--spec", required=True)
    sp.set_defaults(func="cmd_synth_conditions")
    sp = synth_sub.add_parser("solve", parents=[tol])
    sp.add_argument("--base", required=True)
    sp.add_argument("--spec", required=True)
    sp.set_defaults(func="cmd_synth_solve")
    sp = synth_sub.add_parser("reduce", parents=[common])
    sp.add_argument("--base", required=True)
    sp.add_argument("--gain", required=True)
    sp.add_argument("--spec", required=True)
    sp.set_defaults(func="cmd_synth_reduce")

    loop = top.add_parser("loop", help="controller and closed loop")
    loop_sub = loop.add_subparsers(dest="cmd", required=True)
    sp = loop_sub.add_parser("kd", parents=[common])
    sp.add_argument("--pair", required=True)
    sp.set_defaults(func="cmd_loop_kd")
    sp = loop_sub.add_parser("assemble", parents=[common])
    sp.add_argument("--plant", required=True)
    sp.add_argument("--pair", required=True)
    sp.add_argument("--orders", default=None)
    sp.set_defaults(func="cmd_loop_assemble")
    sp = loop_sub.add_parser("stability", parents=[common])
    sp.add_argument("--cl", required=True)
    sp.set_defaults(func="cmd_loop_stability")
    sp = loop_sub.add_parser("simulate", parents=[common])
    sp.add_argument("--cl", required=True)
    sp.add_argument("--x0", default=None)
    sp.add_argument("--horizon", type=float, default=20.0)
    sp.add_argument("--dt", type=float, default=1e-3)
    sp.set_defaults(func="cmd_loop_simulate")

    rep = top.add_parser("reproduce", parents=[common], help="rebuild published numbers")
    rep.add_argument("what", choices=["paper-example"])
    rep.set_defaults(func="cmd_reproduce")

    fx = top.add_parser("fixtures", help="embedded benchmark data")
    fx_sub = fx.add_subparsers(dest="cmd", required=True)
    sp = fx_sub.add_parser("export", parents=[common])
    sp.add_argument("name")
    sp.set_defaults(func="cmd_fixtures_export")

    return parser


def dispatch(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return globals()[args.func](args)
    except SrtrKitError as exc:
        print(f"{exc.kind}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
