"""JSON serialization for every value the command line reads or writes.

Schemas are plain dicts of nested lists; every reader validates shape and
finiteness and raises InvalidInputError with a usable message instead of
letting numpy errors escape.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import InvalidInputError, SrtrKitError
from .factorization import LcfOverS, ThetaFactor
from .loop import ClosedLoopModel
from .rational import RationalFn
from .srtr import NrfPair, SparsityPattern, SrtrPair
from .synthesis import SynthesisSpec
from .systems import PartitionedRealization, StateSpaceSystem


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidInputError(f"cannot read JSON from {path}: {exc}") from exc


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _matrix(data, name: str, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    try:
        M = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"field {name!r} is not a numeric matrix") from exc
    if M.size == 0 and rows is not None and cols is not None and rows * cols == 0:
        return np.zeros((rows, cols))
    if M.ndim != 2:
        raise InvalidInputError(f"field {name!r} must be a list of rows")
    if not np.all(np.isfinite(M)):
        raise InvalidInputError(f"field {name!r} contains non-finite values")
    if rows is not None and M.shape[0] != rows:
        raise InvalidInputError(f"field {name!r} must have {rows} rows, got {M.shape[0]}")
    if cols is not None and M.shape[1] != cols:
        raise InvalidInputError(f"field {name!r} must have {cols} columns, got {M.shape[1]}")
    return M


def vector_from_list(data, name: str) -> np.ndarray:
    """A flat list of finite numbers, such as the initial state ``--x0``."""
    try:
        v = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{name} is not a list of numbers") from exc
    if v.ndim != 1:
        raise InvalidInputError(f"{name} must be a flat list of numbers")
    if not np.all(np.isfinite(v)):
        raise InvalidInputError(f"{name} contains non-finite values")
    return v


def integer(value, name: str) -> int:
    """A whole number such as ``p`` or a row order. Bools, strings and
    numbers with a fractional part are rejected; 6.0 reads as 6."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    return value


def _need(d: dict, key: str, kind: type = object):
    if not isinstance(d, dict):
        raise InvalidInputError(f"expected a JSON object with field {key!r}")
    if key not in d:
        raise InvalidInputError(f"missing required field {key!r}")
    if not isinstance(d[key], kind):
        raise InvalidInputError(f"field {key!r} must be a {kind.__name__}, got {d[key]!r}")
    return d[key]


def _domain(d: dict) -> str:
    dom = d.get("domain", "continuous")
    if dom not in ("continuous", "discrete"):
        raise InvalidInputError(f"domain must be 'continuous' or 'discrete', got {dom!r}")
    return dom


def system_to_dict(sys: StateSpaceSystem) -> dict:
    return {
        "domain": sys.domain,
        "A": sys.A.tolist(),
        "B": sys.B.tolist(),
        "C": sys.C.tolist(),
        "D": sys.D.tolist(),
    }


def system_from_dict(d: dict) -> StateSpaceSystem:
    A = _matrix(_need(d, "A"), "A")
    n = A.shape[0]
    B = _matrix(_need(d, "B"), "B", rows=n)
    C = _matrix(_need(d, "C"), "C", cols=n)
    D = _matrix(_need(d, "D"), "D", rows=C.shape[0], cols=B.shape[1])
    try:
        return StateSpaceSystem(A, B, C, D, _domain(d))
    except SrtrKitError as exc:
        raise InvalidInputError(str(exc)) from exc


def partitioned_to_dict(base: PartitionedRealization) -> dict:
    return {
        "domain": base.domain,
        "p": base.p,
        "A11": base.A11.tolist(),
        "A12": base.A12.tolist(),
        "A21": base.A21.tolist(),
        "A22": base.A22.tolist(),
        "B1": base.B1.tolist(),
        "B2": base.B2.tolist(),
    }


def partitioned_from_dict(d: dict) -> PartitionedRealization:
    p = integer(_need(d, "p"), "field 'p'")
    A11 = _matrix(_need(d, "A11"), "A11", rows=p, cols=p)
    A22 = _need(d, "A22")
    q = len(A22) if isinstance(A22, list) else 0
    A22 = _matrix(A22, "A22", rows=q, cols=q)
    A12 = _matrix(_need(d, "A12"), "A12", rows=p, cols=q)
    A21 = _matrix(_need(d, "A21"), "A21", rows=q, cols=p)
    B1 = _matrix(_need(d, "B1"), "B1", rows=p)
    B2 = _matrix(_need(d, "B2"), "B2", rows=q, cols=B1.shape[1])
    try:
        return PartitionedRealization(A11, A12, A21, A22, B1, B2, _domain(d))
    except SrtrKitError as exc:
        raise InvalidInputError(str(exc)) from exc


def pair_to_dict(pair: SrtrPair) -> dict:
    out = partitioned_to_dict(pair.base)
    out["K"] = pair.K.tolist()
    return out


def pair_from_dict(d: dict) -> SrtrPair:
    base = partitioned_from_dict(d)
    K = _matrix(_need(d, "K"), "K", rows=base.q, cols=base.p)
    try:
        return SrtrPair(base, K)
    except SrtrKitError as exc:
        raise InvalidInputError(str(exc)) from exc


def _rational_to_dict(fn: RationalFn) -> dict:
    return {"num": fn.num.tolist(), "den": fn.den.tolist()}


def nrf_to_dict(nrf: NrfPair) -> dict:
    p, m = nrf.p, nrf.m
    return {
        "Phi": [[_rational_to_dict(nrf.Phi[i, j]) for j in range(p)] for i in range(p)],
        "Gamma": [[_rational_to_dict(nrf.Gamma[i, k]) for k in range(m)] for i in range(p)],
        "notes": [],
    }


def pattern_to_dict(pat: SparsityPattern) -> dict:
    return {"maskW": pat.maskW.tolist(), "maskV": pat.maskV.tolist()}


def lcf_to_dict(lcf: LcfOverS) -> dict:
    out = partitioned_to_dict(lcf.blocks)
    out["F1"] = lcf.F1.tolist()
    out["F2"] = lcf.F2.tolist()
    out["U"] = lcf.U.tolist()
    return out


def lcf_from_dict(d: dict) -> LcfOverS:
    blocks = partitioned_from_dict(d)
    F1 = _matrix(_need(d, "F1"), "F1", rows=blocks.p, cols=blocks.p)
    F2 = _matrix(_need(d, "F2"), "F2", rows=blocks.q, cols=blocks.p)
    U = _matrix(_need(d, "U"), "U", rows=blocks.p, cols=blocks.p)
    try:
        return LcfOverS(blocks, F1, F2, U)
    except SrtrKitError as exc:
        raise InvalidInputError(str(exc)) from exc


def theta_from_dict(d: dict) -> ThetaFactor:
    Ax = _matrix(_need(d, "Ax"), "Ax")
    p = Ax.shape[0]
    Bx = _matrix(_need(d, "Bx"), "Bx", rows=p, cols=p)
    Cx = _matrix(_need(d, "Cx"), "Cx", rows=p, cols=p)
    try:
        return ThetaFactor(Ax, Bx, Cx, _domain(d))
    except SrtrKitError as exc:
        raise InvalidInputError(str(exc)) from exc


def theta_to_dict(theta: ThetaFactor) -> dict:
    return {
        "domain": theta.domain,
        "Ax": theta.Ax.tolist(),
        "Bx": theta.Bx.tolist(),
        "Cx": theta.Cx.tolist(),
    }


def spec_to_dict(spec: SynthesisSpec) -> dict:
    return {
        "maskW": spec.maskW.tolist(),
        "maskV": spec.maskV.tolist(),
        "orders": list(spec.orders),
        "extra": spec.extra,
    }


def spec_from_dict(d: dict) -> SynthesisSpec:
    maskW = _matrix(_need(d, "maskW"), "maskW")
    maskV = _matrix(_need(d, "maskV"), "maskV")
    orders = tuple(integer(v, "each entry of field 'orders'") for v in _need(d, "orders", list))
    try:
        return SynthesisSpec(maskW, maskV, orders, d.get("extra"))
    except SrtrKitError as exc:
        raise InvalidInputError(str(exc)) from exc


def gain_from_dict(d, p: int | None = None, q: int | None = None) -> np.ndarray:
    """Accept either a bare matrix or an object with a "K" field."""
    data = d.get("K") if isinstance(d, dict) else d
    if data is None:
        raise InvalidInputError("expected a gain matrix or an object with a 'K' field")
    return _matrix(data, "K", rows=q, cols=p)


def closed_loop_to_dict(cl: ClosedLoopModel) -> dict:
    return {
        "domain": cl.domain,
        "Acl": cl.Acl.tolist(),
        "Br": cl.B_r.tolist(),
        "Bw": cl.B_w.tolist(),
        "Bzeta": cl.B_zeta.tolist(),
        "Bdu": cl.B_du.tolist(),
        "Cu": cl.Cu.tolist(),
        "Cy": cl.Cy.tolist(),
        "E": cl.E.tolist(),
        "F": cl.F.tolist(),
        "nPlant": cl.n_plant,
        "nCtrl": cl.n_ctrl,
    }


def closed_loop_from_dict(d: dict) -> ClosedLoopModel:
    Acl = _matrix(_need(d, "Acl"), "Acl")
    n = Acl.shape[0]
    Cu = _matrix(_need(d, "Cu"), "Cu", cols=n)
    Cy = _matrix(_need(d, "Cy"), "Cy", cols=n)
    p, m = Cu.shape[0], Cy.shape[0]
    n_plant = integer(_need(d, "nPlant"), "field 'nPlant'")
    n_ctrl = integer(_need(d, "nCtrl"), "field 'nCtrl'")
    if min(n_plant, n_ctrl) < 0 or n_plant + n_ctrl != n:
        raise InvalidInputError(
            f"fields 'nPlant' and 'nCtrl' must be at least 0 and sum to the {n} "
            f"states of 'Acl', got {n_plant} and {n_ctrl}"
        )
    return ClosedLoopModel(
        Acl=Acl,
        B_r=_matrix(_need(d, "Br"), "Br", rows=n, cols=m),
        B_w=_matrix(_need(d, "Bw"), "Bw", rows=n, cols=p),
        B_zeta=_matrix(_need(d, "Bzeta"), "Bzeta", rows=n, cols=m),
        B_du=_matrix(_need(d, "Bdu"), "Bdu", rows=n, cols=p),
        Cu=Cu,
        Cy=Cy,
        E=_matrix(_need(d, "E"), "E", rows=p, cols=m),
        F=_matrix(_need(d, "F"), "F", rows=m, cols=p),
        n_plant=n_plant,
        n_ctrl=n_ctrl,
        domain=_domain(d),
    )
