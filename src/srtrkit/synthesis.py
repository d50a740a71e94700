"""Structured gain synthesis: residuals for the six row-wise feasibility
conditions, a solver for a gain K meeting sparsity masks and row-order
targets (the zero gain, the ring-homogeneous closed form, then one
least-squares solve with a corner-stability hinge), and the row
truncation those conditions make exact. Row i is truncated to the Krylov
subspace span{a, a Aw, ...} of its coupling row a = A12[i] under
Aw = A22 + K A12, at most n_i states of it, so every condition and reduced
row depends on the pair (W, V) alone, not on the hidden coordinates. The
bases come from the one Arnoldi kernel, ``linalg.column_staircases``, on
(Aw^T, a) with a cap of n_i steps.
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
    RANK_CUT,
    check_tolerance,
    column_staircases,
    eigenvalues,
    is_stable_spectrum,
    rank_with_tolerance,
    stability_distance,
    stability_margin,
    zero_entries,
)
from .srtr import (
    SrtrPair,
    gain_blocks,
    sparsity_pattern,
    srtr_is_stable,
)
from .systems import PartitionedRealization, StateSpaceSystem

RING_HOMOGENEOUS = "ring-homogeneous"


@dataclass(frozen=True)
class SynthesisSpec:
    """Target structure: binary masks for the coupling and input parts, a
    per-row upper bound on the hidden order, and an optional extra
    constraint tag ("ring-homogeneous" asks for A22 + K A12 = alpha I). A
    row whose Krylov subspace has a smaller dimension is realized exactly
    with that many states."""

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


def dense_spec(p: int, m: int, q: int) -> SynthesisSpec:
    """All-ones masks with full row orders: no structure asked for."""
    return SynthesisSpec(np.ones((p, p)), np.ones((p, m)), (max(q, 1),) * p)


@dataclass(frozen=True)
class ConditionReport:
    """Residual matrix with one row per output and the six condition columns
    (masked coupling, masked input, masked hidden coupling, masked hidden
    input, next Krylov direction, corner stability). Column 6 is the distance
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


def _check_spec_dims(base: PartitionedRealization, spec: SynthesisSpec):
    if spec.p != base.p or spec.m != base.m:
        raise DimensionError(
            f"spec masks are {spec.p}x{spec.p}/{spec.p}x{spec.m}, base needs "
            f"{base.p}x{base.p}/{base.p}x{base.m}"
        )
    if base.q and any(v > base.q for v in spec.orders):
        raise InvalidInputError(f"row orders must not exceed the hidden dimension {base.q}")


def _row_groups(base: PartitionedRealization, spec: SynthesisSpec):
    """Rows grouped by order: for each order, the order, the row indices and
    their rows of A12."""
    groups: dict[int, list[int]] = {}
    for i, ni in enumerate(spec.orders):
        groups.setdefault(ni, []).append(i)
    return [(ni, idx, base.A12[idx]) for ni, idx in groups.items()]


def _row_terms(base: PartitionedRealization, Ks: np.ndarray, groups):
    """A11 - A12 K and, per order group, the row indices, the orders k,
    T A_K, T (K B1 + B2), the next Krylov direction and the corner spectrum
    eig(T Aw T^T) for a stack of gains. T (N, r, n_i, q) holds each row's
    basis in its first k rows and zeros below; the bases, orders and next
    directions of a group come from one ``linalg.column_staircases`` sweep
    over (Aw^T, a) capped at n_i steps, whose rows share one product per
    gain. The zero states that pad a row cut short at order k < n_i get
    corner eigenvalues that move no margin: 0 in discrete time, and in
    continuous time a value left of the whole order-k spectrum."""
    Wd, AK, Bh, Aw = gain_blocks(base, Ks)
    terms = []
    for ni, idx, a in groups:
        V, k, nxt = column_staircases(np.swapaxes(Aw, -2, -1)[:, None], a, steps=ni)
        T = np.swapaxes(V, -2, -1)
        if T.shape[-2] < ni:  # every row of the group stopped short of n_i
            T = np.concatenate([T, np.zeros(k.shape + (ni - T.shape[-2], base.q))], axis=-2)
        corner = T @ Aw[:, None] @ T.swapaxes(-2, -1)
        pad = np.arange(ni) >= k[..., None]
        if base.domain == "continuous" and pad.any():
            fill = -1.0 - np.abs(corner).sum(axis=(-2, -1))[..., None]
            corner += np.eye(ni) * np.where(pad, fill, 0.0)[..., None, :]
        terms.append((idx, k, T @ AK[:, None], T @ Bh[:, None], nxt, eigenvalues(corner)))
    return Wd, terms


def _condition_rows(
    base: PartitionedRealization,
    Ks: np.ndarray,
    spec: SynthesisSpec,
) -> tuple[np.ndarray, np.ndarray]:
    """Residual rows and corner margins for a stack of gains.

    ``Ks`` has shape (N, q, p); the result is the (N, p, 6) residual rows
    and the (N, p) margins that ``mm_conditions`` reports for each gain.
    Rows are grouped by order so that each group's Krylov bases come from
    one sweep over the whole stack and every product, norm and spectrum is
    one batched call. A row of order 0 has no corner, so its margin is inf.
    """
    N, p = Ks.shape[0], base.p
    outW = spec.maskW == 0
    outV = spec.maskV == 0
    Wd, terms = _row_terms(base, Ks, _row_groups(base, spec))
    rows = np.zeros((N, p, 6))
    margins = np.full((N, p), np.inf)
    rows[:, :, 0] = np.max(np.abs(Wd) * outW, axis=-1, initial=0.0)
    rows[:, :, 1] = np.max(np.abs(base.B1) * outV, axis=-1, initial=0.0)
    for idx, k, TW, TV, nxt, eigs in terms:
        rows[:, idx, 2] = np.max(
            np.abs(TW) * outW[idx, None, :], axis=(-2, -1), initial=0.0
        )
        rows[:, idx, 3] = np.max(
            np.abs(TV) * outV[idx, None, :], axis=(-2, -1), initial=0.0
        )
        rows[:, idx, 4] = np.linalg.norm(nxt, axis=-1)
        rows[:, idx, 5] = np.max(stability_distance(eigs, base.domain), axis=-1)
        margins[:, idx] = np.where(k > 0, stability_margin(eigs, base.domain), np.inf)
    return rows, margins


def _report(rows: np.ndarray, margins: np.ndarray, tol: float) -> ConditionReport:
    return ConditionReport(rows=rows, margins=margins, tol=tol, passed=bool(np.all(rows <= tol)))


def mm_conditions(
    base: PartitionedRealization,
    K,
    spec: SynthesisSpec,
    tol: float = 1e-6,
) -> ConditionReport:
    """Absolute residuals of the six row-wise conditions for gain K.

    Conditions 1 and 2 zero the masked-out entries of A11 - A12 K and B1.
    Row i keeps T, the orthonormal basis of its Krylov subspace
    span{a, a Aw, ...} (a = A12[i], Aw = A22 + K A12), of order n_i, or k
    when the sequence breaks down at k < n_i; ``linalg.column_staircases``
    on (Aw^T, a) gives it, and a coupling row a below its cut has order 0.
    Conditions 3 and 4 zero the masked-out entries of T A_K and
    T (K B1 + B2); condition 5 is the norm of the next Krylov direction,
    the coupling that truncation to T discards (a itself at order 0);
    condition 6 is the stability of the corner T Aw T^T.
    """
    tol = check_tolerance(tol)
    _check_spec_dims(base, spec)
    K = SrtrPair(base, K).K
    rows, margins = _condition_rows(base, K[None], spec)
    return _report(rows[0], margins[0], tol)


@dataclass(frozen=True)
class SolveOptions:
    tol: float = 1e-6

    def __post_init__(self):
        check_tolerance(self.tol)


# how far inside the stability region the least-squares hinge pushes every
# corner eigenvalue
CORNER_MARGIN = 0.1


def _ring_homogeneous_gain(base: PartitionedRealization, spec: SynthesisSpec):
    """For the homogeneous constraint with square invertible A12 the gain is
    pinned down by one scalar: K(alpha) = (alpha I - A22) A12^{-1}. Returns
    the gain at the alpha grid point with the smallest max residual with
    its condition rows and margins, or None when A12 is not square and
    invertible."""
    q = base.q
    if q == 0 or base.p != q or rank_with_tolerance(base.A12) < q:
        return None
    A12inv = np.linalg.inv(base.A12)

    def gain(alpha):
        return (np.multiply.outer(alpha, np.eye(q)) - base.A22) @ A12inv

    scale = 1.0 + float(np.linalg.norm(base.A, 2))
    if base.domain == "continuous":
        grid = -np.geomspace(1e-2, 10.0 * scale, 120)
    else:
        grid = np.linspace(-0.95, 0.95, 120)
    rows, margins = _condition_rows(base, gain(grid), spec)
    # exact rings tie many grid points at one max residual; the first of
    # argsort's order among them (not argmin's first index) is the one taken
    best = np.argsort(rows.max(axis=(1, 2)))[0]
    return gain(grid[best]), rows[best], margins[best]


def _least_squares_gain(base: PartitionedRealization, spec: SynthesisSpec):
    """One trust-region least-squares solve from K = 0 over the signed
    masked entries of conditions 1, 3 and 4, the next Krylov direction of
    condition 5 and a hinge that asks every corner eigenvalue to sit
    CORNER_MARGIN inside the stability region. Condition 2 does not involve
    K."""
    import scipy.optimize  # deferred: importing it would more than triple CLI start-up

    p, q = base.p, base.q
    outW = spec.maskW == 0
    outV = spec.maskV == 0
    groups = _row_groups(base, spec)

    def residual(k):
        Wd, terms = _row_terms(base, k.reshape(1, q, p), groups)
        parts = [Wd * outW]
        for idx, _, TW, TV, nxt, eigs in terms:
            parts += [
                TW * outW[idx, None, :],
                TV * outV[idx, None, :],
                nxt,
                np.maximum(CORNER_MARGIN - stability_margin(eigs[..., None], base.domain), 0.0),
            ]
        return np.concatenate([part.ravel() for part in parts])

    fit = scipy.optimize.least_squares(residual, np.zeros(q * p), method="trf")
    return fit.x.reshape(q, p)


def mm_solve(
    base: PartitionedRealization,
    spec: SynthesisSpec,
    opts: SolveOptions | None = None,
) -> np.ndarray:
    """Search for a gain K whose condition report passes at opts.tol.

    Order of attack: the zero gain (free win when the base already has the
    structure), an immediate infeasibility verdict when the gain-independent
    input condition already fails, the best grid point of the one-parameter
    family pinned down by the homogeneous constraint, then one least-squares
    solve over every gain entry. Candidates are tested in that order as they
    are made, so the first that passes is returned before any later one is
    computed. Raises InfeasibleError with the best report otherwise.
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
        # generated lazily, so the least-squares solve runs only when the
        # closed-form candidate fails; the closed form brings the report of
        # its grid point
        found = _ring_homogeneous_gain(base, spec) if spec.extra == RING_HOMOGENEOUS else None
        if found is not None:
            yield found[0], _report(*found[1:], opts.tol)
        if q:
            K = _least_squares_gain(base, spec)
            yield K, mm_conditions(base, K, spec, opts.tol)

    def rank_key(report: ConditionReport) -> tuple:
        per = report.per_condition_max()
        return (float(per[5]), report.max_residual())

    for K, rep in candidates():
        if rep.passed:
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
    """Per-row realizations of [W V] of order at most n_i.

    Row i keeps the hidden states T x2, with T the orthonormal basis of
    span{a, a Aw, a Aw^2, ...} (a = A12[i], Aw = A22 + K A12) from
    ``linalg.column_staircases`` on (Aw^T, a) capped at n_i steps, one
    sweep per order group; a row whose sequence breaks down at k < n_i
    keeps k states, and a row whose coupling a is below the cut comes back
    as an order-0 constant. The row is (T Aw T^T, T Bw, ||a|| e_1, Dw_i).
    This is exact when the next Krylov direction (condition 5, a itself at
    order 0) vanishes, so rows whose discarded coupling exceeds ``tol``
    times max(1, ||Aw||_2) raise InexactTruncationError.
    """
    tol = check_tolerance(tol)
    _check_spec_dims(base, spec)
    pair = SrtrPair(base, K)
    Aw, Bw, Dw = pair.Aw, pair.Bw, pair.Dw
    scale = max(1.0, float(np.linalg.norm(Aw, 2)) if base.q else 1.0)
    rows = [None] * base.p
    for ni, idx, a in _row_groups(base, spec):
        V, k, nxt = column_staircases(Aw.T, a, steps=ni)
        for i, ai, Vi, ki, wi in zip(idx, a, V, k, nxt):
            resid = float(np.linalg.norm(wi))
            if resid > tol * scale:
                raise InexactTruncationError(
                    f"row {i}: discarded coupling {resid:.3e} exceeds "
                    f"{tol:g} * {scale:.3e}",
                    residual=resid,
                )
            Ti = Vi[:, :ki].T
            Ct = np.linalg.norm(ai) * np.eye(1, ki)
            rows[i] = StateSpaceSystem(Ti @ Aw @ Ti.T, Ti @ Bw, Ct, Dw[i : i + 1], base.domain)
    return rows


def verify_structured(pair_or_rows, spec: SynthesisSpec, tol: float = RANK_CUT) -> bool:
    """Structure and stability in one verdict.

    For a pair: its sparsity pattern must be contained in the masks and its
    hidden dynamics stable. For a list or tuple of reduced rows: each row
    must be stable and its transfer-matrix entries identically zero wherever
    the masks say so (the coupling diagonal is exempt, mirroring the pattern
    convention). A collection that is not p rows of 1 output and p + m
    inputs raises DimensionError; anything else raises TypeError.
    """
    tol = check_tolerance(tol)
    if isinstance(pair_or_rows, SrtrPair):
        pat = sparsity_pattern(pair_or_rows, tol)
        ok_w = bool(np.all(pat.maskW <= np.maximum(spec.maskW, np.eye(spec.p, dtype=int))))
        ok_v = bool(np.all(pat.maskV <= spec.maskV))
        return ok_w and ok_v and srtr_is_stable(pair_or_rows)
    if not isinstance(pair_or_rows, (list, tuple)):
        raise TypeError(
            f"expected SrtrPair or a row collection, got {type(pair_or_rows).__name__}"
        )
    shapes = [(row.n_outputs, row.n_inputs) for row in pair_or_rows]
    if shapes != [(1, spec.p + spec.m)] * spec.p:
        raise DimensionError(
            f"expected {spec.p} rows of 1 output and {spec.p + spec.m} inputs, got {shapes}"
        )
    for i, row in enumerate(pair_or_rows):
        if not is_stable_spectrum(row.A, row.domain):
            return False
        allowed = np.concatenate([spec.maskW[i], spec.maskV[i]]).astype(bool)
        allowed[i] = True
        if not np.all(allowed | zero_entries(row.A, row.B, row.C, row.D, tol)[0]):
            return False
    return True
