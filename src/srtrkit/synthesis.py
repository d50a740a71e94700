"""Structured gain synthesis: residuals for the six row-wise feasibility
conditions, a penalty-based solver for a gain K meeting sparsity masks and
row-order targets, and the order-n_i row truncation those conditions make
exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    InexactTruncationError,
    InfeasibleError,
    InvalidInputError,
)
from .linalg import (
    RowCompression,
    eigenvalues,
    stability_distance,
    stability_margin,
    row_compressor,
    zero_entries,
)
from .srtr import SparsityPattern, SrtrPair, sparsity_pattern, srtr_is_stable
from .systems import PartitionedRealization, StateSpaceSystem

RING_HOMOGENEOUS = "ring-homogeneous"


@dataclass(frozen=True)
class SynthesisSpec:
    """Target structure: binary masks for the coupling and input parts, a
    per-row hidden order, and an optional extra constraint tag
    ("ring-homogeneous" asks for A22 + K A12 = alpha I)."""

    maskW: np.ndarray
    maskV: np.ndarray
    orders: tuple
    extra: str | None = None

    def __post_init__(self):
        maskW = np.asarray(self.maskW, dtype=int)
        maskV = np.asarray(self.maskV, dtype=int)
        if maskW.ndim != 2 or maskW.shape[0] != maskW.shape[1]:
            raise InvalidInputError("maskW must be square")
        if maskV.ndim != 2 or maskV.shape[0] != maskW.shape[0]:
            raise InvalidInputError("maskV must have the same row count as maskW")
        for M, name in ((maskW, "maskW"), (maskV, "maskV")):
            if not np.isin(M, (0, 1)).all():
                raise InvalidInputError(f"{name} entries must be 0 or 1")
        orders = tuple(int(v) for v in self.orders)
        if len(orders) != maskW.shape[0]:
            raise InvalidInputError("orders must have one entry per output row")
        if any(v < 1 for v in orders):
            raise InvalidInputError("row orders must be at least 1")
        if self.extra not in (None, RING_HOMOGENEOUS):
            raise InvalidInputError(f"unknown extra constraint {self.extra!r}")
        object.__setattr__(self, "maskW", maskW)
        object.__setattr__(self, "maskV", maskV)
        object.__setattr__(self, "orders", orders)

    @property
    def p(self) -> int:
        return self.maskW.shape[0]

    @property
    def m(self) -> int:
        return self.maskV.shape[1]

    def pattern(self) -> SparsityPattern:
        return SparsityPattern(self.maskW, self.maskV)


def dense_spec(p: int, m: int, q: int, extra: str | None = None) -> SynthesisSpec:
    """All-ones masks with full row orders: no structure asked for."""
    return SynthesisSpec(np.ones((p, p)), np.ones((p, m)), (max(q, 1),) * p, extra)


@dataclass(frozen=True)
class ConditionReport:
    """Residual matrix with one row per output and the six condition columns
    (masked coupling, masked input, masked hidden coupling, masked hidden
    input, truncation coupling, corner stability). Column 6 is the distance
    of the corner spectrum outside the stability region; ``margins`` carries
    how far inside it sits."""

    rows: np.ndarray
    margins: np.ndarray
    tol: float
    passed: bool

    def max_residual(self) -> float:
        return float(np.max(self.rows)) if self.rows.size else 0.0

    def per_condition_max(self) -> np.ndarray:
        return self.rows.max(axis=0) if self.rows.size else np.zeros(6)

    def as_dict(self) -> dict:
        return {
            "rows": self.rows.tolist(),
            "perConditionMax": self.per_condition_max().tolist(),
            "stabilityMargins": self.margins.tolist(),
            "tol": float(self.tol),
            "passed": bool(self.passed),
        }


def compress_rows(base: PartitionedRealization) -> list[RowCompression]:
    """One orthogonal compressor per output row of the coupling block A12."""
    if base.q == 0:
        return [RowCompression(np.zeros((0, 0)), 0.0, True)] * base.p
    return [row_compressor(base.A12[i, :]) for i in range(base.p)]


def _check_spec_dims(base: PartitionedRealization, spec: SynthesisSpec):
    if spec.p != base.p or spec.m != base.m:
        raise DimensionError(
            f"spec masks are {spec.p}x{spec.p}/{spec.p}x{spec.m}, base needs "
            f"{base.p}x{base.p}/{base.p}x{base.m}"
        )
    if base.q and any(v > base.q for v in spec.orders):
        raise ValueError(f"row orders must not exceed the hidden dimension {base.q}")


def _condition_rows(
    base: PartitionedRealization,
    Ks: np.ndarray,
    spec: SynthesisSpec,
    comps: list[RowCompression],
) -> tuple[np.ndarray, np.ndarray]:
    """Residual rows and corner margins for a stack of gains.

    ``Ks`` has shape (N, q, p); the result is the (N, p, 6) residual rows
    and the (N, p) margins that ``mm_conditions`` reports for each gain.
    Rows are grouped by order so that each group's compressed tails and
    heads are stacked once and every product, norm and spectrum is one
    batched call.
    """
    p, q = base.p, base.q
    N = Ks.shape[0]
    outW = spec.maskW == 0
    outV = spec.maskV == 0
    KA12 = Ks @ base.A12
    Wd = base.A11 - base.A12 @ Ks
    AK = Ks @ base.A11 - KA12 @ Ks + base.A21 - base.A22 @ Ks
    Bh = Ks @ base.B1 + base.B2
    Aw = base.A22 + KA12
    rows = np.zeros((N, p, 6))
    margins = np.full((N, p), np.inf)
    rows[:, :, 0] = np.max(np.abs(Wd) * outW, axis=-1, initial=0.0)
    rows[:, :, 1] = np.max(np.abs(base.B1) * outV, axis=-1, initial=0.0)
    groups: dict[int, list[int]] = {}
    for i in range(p):
        if q and not comps[i].is_zero:
            groups.setdefault(spec.orders[i], []).append(i)
    for ni, idx in groups.items():
        Q = np.stack([comps[i].Q for i in idx])
        tail = Q[:, q - ni :, :]
        head = Q[:, : q - ni, :]
        TW = tail @ AK[:, None]
        TV = tail @ Bh[:, None]
        rows[:, idx, 2] = np.max(
            np.abs(TW) * outW[idx, None, :], axis=(-2, -1), initial=0.0
        )
        rows[:, idx, 3] = np.max(
            np.abs(TV) * outV[idx, None, :], axis=(-2, -1), initial=0.0
        )
        tailAw = tail @ Aw[:, None]
        if ni < q:
            coupling = tailAw @ head.swapaxes(-2, -1)
            rows[:, idx, 4] = np.linalg.norm(coupling, 2, axis=(-2, -1))
        eigs = eigenvalues(tailAw @ tail.swapaxes(-2, -1))
        rows[:, idx, 5] = np.max(stability_distance(eigs, base.domain), axis=-1)
        margins[:, idx] = stability_margin(eigs, base.domain)
    return rows, margins


def mm_conditions(
    base: PartitionedRealization,
    K,
    spec: SynthesisSpec,
    tol: float = 1e-6,
) -> ConditionReport:
    """Absolute residuals of the six row-wise conditions for gain K.

    Conditions 1 and 2 zero the masked-out entries of A11 - A12 K and B1;
    conditions 3 and 4 do the same for the hidden-block images after row
    compression; condition 5 measures the coupling that the order-n_i
    truncation would discard; condition 6 is corner-spectrum stability.
    """
    _check_spec_dims(base, spec)
    K = SrtrPair(base, K).K
    rows, margins = _condition_rows(base, K[None], spec, compress_rows(base))
    rows, margins = rows[0], margins[0]
    passed = bool(np.all(rows <= tol))
    return ConditionReport(rows=rows, margins=margins, tol=tol, passed=passed)


@dataclass(frozen=True)
class SolveOptions:
    max_iter: int = 40
    penalty_weights: tuple = (1.0, 10.0)
    seed: int = 42
    tol: float = 1e-6
    restarts: int = 8


def _ring_homogeneous_candidates(base: PartitionedRealization, spec: SynthesisSpec):
    """For the homogeneous constraint with square invertible A12 the gain is
    pinned down by one scalar: K(alpha) = (alpha I - A22) A12^{-1}. Yields
    the best grid point's gain, then, only when asked for, the polished
    one."""
    q = base.q
    if q == 0 or base.p != q or np.linalg.matrix_rank(base.A12) < q:
        return
    A12inv = np.linalg.inv(base.A12)
    comps = compress_rows(base)

    def gain(alpha):
        return (np.multiply.outer(alpha, np.eye(q)) - base.A22) @ A12inv

    def score(alpha: float) -> float:
        rows, _ = _condition_rows(base, gain(alpha)[None], spec, comps)
        return float(np.max(rows))

    scale = 1.0 + float(np.linalg.norm(base.A, 2))
    if base.domain == "continuous":
        grid = -np.geomspace(1e-2, 10.0 * scale, 120)
    else:
        grid = np.linspace(-0.95, 0.95, 120)
    rows, _ = _condition_rows(base, gain(grid), spec, comps)
    order = np.argsort(rows.max(axis=(1, 2)))
    best_alpha = grid[order[0]]
    yield gain(best_alpha)
    # local polish around the best grid point
    import scipy.optimize  # deferred: importing it costs about a third of CLI start-up

    res = scipy.optimize.minimize_scalar(
        score,
        bracket=None,
        bounds=(best_alpha - abs(best_alpha) * 0.5 - 0.1,
                best_alpha + abs(best_alpha) * 0.5 + 0.1),
        method="bounded",
        options={"xatol": 1e-10},
    )
    yield gain(float(res.x))


def _masked_lsq_gain(
    base: PartitionedRealization,
    spec: SynthesisSpec,
    K_prev: np.ndarray,
    target: np.ndarray | None,
    weight_target: float,
) -> np.ndarray:
    """One linearized step: solve a least-squares problem in K that drives
    the masked-out entries of A11 - A12 K, tail(A_K) and tail(K B1 + B2)
    toward zero, with the quadratic in K replaced by its linearization around
    K_prev, plus a pull toward a target hidden matrix for stability."""
    p, q, m = base.p, base.q, base.m
    comps = compress_rows(base)
    rows_lhs: list[np.ndarray] = []
    rows_rhs: list[float] = []

    def add_equation(coeff: np.ndarray, rhs: float, w: float = 1.0):
        rows_lhs.append(w * coeff.ravel())
        rows_rhs.append(w * rhs)

    # condition 1: (A11 - A12 K)[i, j] = 0 on masked-out entries
    for i in range(p):
        for j in range(p):
            if spec.maskW[i, j]:
                continue
            coeff = np.zeros((q, p))
            coeff[:, j] = -base.A12[i, :]
            add_equation(coeff, -base.A11[i, j])
    # conditions 3 and 4 on the compressed tail rows, with K A12 K linearized
    lin_const = -K_prev @ base.A12 @ K_prev
    for i in range(p):
        if comps[i].is_zero or q == 0:
            continue
        ni = spec.orders[i]
        tail = comps[i].Q[q - ni :, :]
        for r in range(ni):
            trow = tail[r]
            for j in range(p):
                if not spec.maskW[i, j]:
                    # row of tail @ (K A11 - K A12 K + A21 - A22 K), column j
                    coeff = np.zeros((q, p))
                    coeff += np.outer(trow, base.A11[:, j])
                    coeff -= np.outer(trow @ base.A22, np.eye(p)[j])
                    coeff -= np.outer(trow, (base.A12 @ K_prev)[:, j])
                    coeff -= np.outer(trow @ K_prev @ base.A12, np.eye(p)[j])
                    rhs = -(trow @ base.A21[:, j]) - trow @ lin_const[:, j]
                    add_equation(coeff, rhs)
            for k in range(m):
                if not spec.maskV[i, k]:
                    coeff = np.einsum("a,b->ab", trow, base.B1[:, k])
                    add_equation(coeff, -(trow @ base.B2[:, k]))
    # stability pull: A22 + K A12 ~ target
    if target is not None:
        for a in range(q):
            for b in range(q):
                coeff = np.zeros((q, p))
                coeff[a, :] = base.A12[:, b]
                add_equation(
                    coeff, target[a, b] - base.A22[a, b], w=weight_target
                )
    if not rows_lhs:
        return K_prev
    A = np.vstack(rows_lhs)
    b = np.asarray(rows_rhs)
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    return sol.reshape(q, p)


def _stable_targets(base: PartitionedRealization, rng: np.random.Generator, count: int):
    q = base.q
    scale = 1.0 + float(np.linalg.norm(base.A22, 2))
    out = []
    for _ in range(count):
        if base.domain == "continuous":
            vals = -rng.uniform(0.3, 2.0, q) * scale
        else:
            vals = rng.uniform(-0.8, 0.8, q)
        out.append(np.diag(vals))
    return out


def mm_solve(
    base: PartitionedRealization,
    spec: SynthesisSpec,
    opts: SolveOptions | None = None,
) -> np.ndarray:
    """Search for a gain K whose condition report passes at opts.tol.

    Order of attack: the zero gain (free win when the base already has the
    structure), an immediate infeasibility verdict when the gain-independent
    input condition already fails, the closed-form candidates of the
    one-parameter family pinned down by the homogeneous constraint, then
    seeded multi-start alternating linearization. Candidates are tested in
    that order as they are made, so the first that passes is returned
    before any later one is computed. Raises InfeasibleError with the best
    report otherwise.
    """
    if opts is None:
        opts = SolveOptions()
    _check_spec_dims(base, spec)
    p, q = base.p, base.q
    best_report = mm_conditions(base, np.zeros((q, p)), spec, opts.tol)
    if best_report.passed:
        return np.zeros((q, p))
    # the input-block condition does not involve K at all
    if best_report.per_condition_max()[1] > opts.tol:
        raise InfeasibleError(
            "masked-out entries of the input block are nonzero; no gain can "
            "change them",
            report=best_report,
        )
    def candidates():
        # generated lazily, so no restart runs once a candidate passes
        if spec.extra == RING_HOMOGENEOUS:
            yield from _ring_homogeneous_candidates(base, spec)
        if q == 0:
            return
        rng = np.random.default_rng(opts.seed)
        starts = [np.zeros((q, p))] + [
            rng.standard_normal((q, p)) for _ in range(opts.restarts - 1)
        ]
        targets = _stable_targets(base, rng, opts.restarts)
        for K0, target in zip(starts, targets):
            K = K0
            for _ in range(opts.max_iter):
                K_next = _masked_lsq_gain(
                    base, spec, K, target, opts.penalty_weights[0]
                )
                if np.linalg.norm(K_next - K) <= 1e-12 * (1 + np.linalg.norm(K)):
                    K = K_next
                    break
                K = K_next
            yield K
            # a final pass with the stability pull released
            yield _masked_lsq_gain(base, spec, K, None, 0.0)

    def rank_key(report: ConditionReport) -> tuple:
        per = report.per_condition_max()
        return (float(per[5]), report.max_residual())

    for K in candidates():
        rep = mm_conditions(base, K, spec, opts.tol)
        if rep.passed:
            # the first passing candidate in the deterministic order
            return K
        if rank_key(rep) < rank_key(best_report):
            best_report = rep
    raise InfeasibleError(
        f"no gain met the structure at tol={opts.tol:g} "
        f"(best max residual {best_report.max_residual():.3e})",
        report=best_report,
    )


def reduce_rows(
    base: PartitionedRealization,
    K,
    spec: SynthesisSpec,
    tol: float = 1e-2,
) -> list[StateSpaceSystem]:
    """Per-row order-n_i realizations of [W V].

    Row i keeps only the trailing n_i compressed hidden states; this is exact
    when the truncation coupling (condition 5) vanishes, so rows whose
    relative coupling exceeds ``tol`` raise InexactTruncationError. Rows with
    a zero coupling vector come back as order-0 constants.
    """
    _check_spec_dims(base, spec)
    pair = SrtrPair(base, K)
    p, q, m = base.p, base.q, base.m
    Bw, Dw = pair.Bw, pair.Dw
    Aw = pair.Aw
    comps = compress_rows(base)
    scale = max(1.0, float(np.linalg.norm(Aw, 2)) if q else 1.0)
    rows: list[StateSpaceSystem] = []
    for i in range(p):
        if comps[i].is_zero or q == 0:
            rows.append(
                StateSpaceSystem(
                    np.zeros((0, 0)),
                    np.zeros((0, p + m)),
                    np.zeros((1, 0)),
                    Dw[i : i + 1, :],
                    base.domain,
                )
            )
            continue
        ni = spec.orders[i]
        Qi = comps[i].Q
        tail = Qi[q - ni :, :]
        head = Qi[: q - ni, :]
        coupling = tail @ Aw @ head.T
        resid = float(np.linalg.norm(coupling, 2)) if coupling.size else 0.0
        if resid > tol * scale:
            raise InexactTruncationError(
                f"row {i}: discarded coupling {resid:.3e} exceeds "
                f"{tol:g} * {scale:.3e}",
                residual=resid,
            )
        At = tail @ Aw @ tail.T
        Bt = tail @ Bw
        Ct = np.zeros((1, ni))
        Ct[0, -1] = comps[i].norm
        rows.append(StateSpaceSystem(At, Bt, Ct, Dw[i : i + 1, :], base.domain))
    return rows


def _rows_list(pair_or_rows) -> list[StateSpaceSystem] | None:
    if isinstance(pair_or_rows, (list, tuple)):
        return list(pair_or_rows)
    inner = getattr(pair_or_rows, "rows", None)
    if inner is not None:
        return list(inner)
    return None


def verify_structured(pair_or_rows, spec: SynthesisSpec, tol: float = 1e-9) -> bool:
    """Structure and stability in one verdict.

    For a pair: its sparsity pattern must be contained in the masks and its
    hidden dynamics stable. For reduced rows: each row must be stable and its
    transfer-matrix entries identically zero wherever the masks say so (the
    coupling diagonal is exempt, mirroring the pattern convention).
    """
    if isinstance(pair_or_rows, SrtrPair):
        pat = sparsity_pattern(pair_or_rows, tol)
        ok_w = bool(np.all(pat.maskW <= np.maximum(spec.maskW, np.eye(spec.p, dtype=int))))
        ok_v = bool(np.all(pat.maskV <= spec.maskV))
        return ok_w and ok_v and srtr_is_stable(pair_or_rows)
    rows = _rows_list(pair_or_rows)
    if rows is None:
        raise TypeError(
            f"expected SrtrPair or a row collection, got {type(pair_or_rows).__name__}"
        )
    for i, row in enumerate(rows):
        if row.n and not all(
            stability_distance(z, row.domain) == 0.0 for z in row.poles()
        ):
            return False
        allowed = np.concatenate([spec.maskW[i], spec.maskV[i]]).astype(bool)
        allowed[i] = True
        if not np.all(allowed | zero_entries(row.A, row.B, row.C, row.D, tol)[0]):
            return False
    return True
