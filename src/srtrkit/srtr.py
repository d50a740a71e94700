"""Pair representations of the form G = (lam I - W)^{-1} V.

A gain K on a partitioned realization produces the pair (W, V) with hidden
state dimension n - p; this module constructs the pair, verifies the defining
identity by sampling (each draw of points in one stacked evaluation of the
[W V] realization, which a pair builds once), and builds the normalized
(zero-diagonal) form in state space: every row of [W V] reduced to its
Krylov subspace by one sweep shared by all rows, laid out behind its
integrator and fed back into its own input. These rows answer its
evaluation in one stacked solve, one stacked sweep over every entry gives
its coefficients, and its identically zero entries form no coefficients
and share one read-only zero function. It reads off sparsity masks by the
staircase zero test for a pair and a normalized form alike, and certifies
coprimeness of [lam I - W, V]: its finite zeros are the unreachable modes
of the base (A, B), found by one orthogonal staircase, and a leading
matrix of full row rank rules out zeros at infinity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionError
from .linalg import (
    RANK_CUT,
    as_real_matrix,
    auto_rank_tol,
    check_tolerance,
    column_staircases,
    controllability_staircase,
    eigenvalues,
    is_stable_spectrum,
    sampled_residual,
    singular_values,
    stack_slices,
    zero_entries,
)
from .rational import RationalFn, siso_rational
from .systems import (
    PartitionedRealization,
    StateSpaceSystem,
    _guarded_inverse,
    _integrator_layout,
    _pencils,
    eval_tfm,
    read_only_system,
)


def gain_blocks(b: PartitionedRealization, K: np.ndarray) -> tuple:
    """A11 - A12 K, A_K = K A11 - K A12 K + A21 - A22 K, K B1 + B2 and
    Aw = A22 + K A12 for one gain of shape (q, p) or a stack (..., q, p)."""
    KA12 = K @ b.A12
    A_K = K @ b.A11 - KA12 @ K + b.A21 - b.A22 @ K
    return b.A11 - b.A12 @ K, A_K, K @ b.B1 + b.B2, b.A22 + KA12


@dataclass(frozen=True)
class SrtrPair:
    """A realization-level carrier for the pair (W, V).

    The four derived blocks give [W V] the state-space form
    (Aw, [A_K | K B1 + B2], A12, [A11 - A12 K | B1]) with
    Aw = A22 + K A12 and A_K = K A11 - K A12 K + A21 - A22 K. They are
    computed once, on construction.
    """

    base: PartitionedRealization
    K: np.ndarray
    Aw: np.ndarray = field(init=False, repr=False, compare=False)
    A_K: np.ndarray = field(init=False, repr=False, compare=False)
    Bw: np.ndarray = field(init=False, repr=False, compare=False)
    Dw: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        K = as_real_matrix(self.K, "K")
        b = self.base
        if K.shape != (b.q, b.p):
            raise DimensionError(f"K must be {b.q}x{b.p}, got {K.shape}")
        Wd, A_K, Bh, Aw = gain_blocks(b, K)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "Aw", Aw)
        object.__setattr__(self, "A_K", A_K)
        object.__setattr__(self, "Bw", np.hstack([A_K, Bh]))
        object.__setattr__(self, "Dw", np.hstack([Wd, b.B1]))

    @property
    def p(self) -> int:
        return self.base.p

    @property
    def q(self) -> int:
        return self.base.q

    @property
    def m(self) -> int:
        return self.base.m

    @property
    def domain(self) -> str:
        return self.base.domain

    @property
    def Cw(self) -> np.ndarray:
        return self.base.A12

    @cached_property
    def _wv(self) -> StateSpaceSystem:
        return read_only_system(self.Aw, self.Bw, self.Cw, self.Dw, self.domain)

    def wv_system(self) -> StateSpaceSystem:
        """[W V] as one system: p outputs, p + m inputs, q states; built on
        first use, its matrices read-only."""
        return self._wv

    def response(self, lam) -> np.ndarray:
        """G(lam) = (lam I - W(lam))^{-1} V(lam), at a point or at each
        point of a 1-D array."""
        wv = eval_tfm(self.wv_system(), lam)
        pencil = np.asarray(lam)[..., None, None] * np.eye(self.p) - wv[..., : self.p]
        return np.linalg.solve(pencil, wv[..., self.p :])


def verify_srtr_identity(pair: SrtrPair, n_samples: int = 7, seed: int = 0) -> float:
    """Max relative sampling residual of G = (lam I - W)^{-1} V against the
    transfer matrix of the pair's base."""
    base = pair.base
    G = base.full_system()
    poles = np.concatenate([eigenvalues(base.A), eigenvalues(pair.Aw)])
    return sampled_residual(
        lambda lams: (eval_tfm(G, lams), pair.response(lams)), poles, n_samples, seed
    )


def srtr_is_stable(pair: SrtrPair) -> bool:
    """Stability of the pair is stability of its hidden dynamics Aw."""
    return is_stable_spectrum(pair.Aw, pair.domain)


@dataclass(frozen=True)
class NrfPair:
    """Normalized form: Phi has an identically zero diagonal and
    G = (I - Phi)^{-1} Gamma.

    Row i of [Phi Gamma] is c_i (lam I - A_i)^{-1} B_i: row i of
    lam^{-1} [W V], reduced to its Krylov subspace and laid out behind its
    integrator, fed back into its own input. The rows are stacked in A, B
    and c, zero-padded to the largest order, and ``order`` holds each row's
    own, 1 plus its Krylov order. Evaluation and zero entries are answered
    from these rows. Phi and Gamma hold the entries as RationalFn objects,
    each formed from a minimal realization, so no entry carries a
    cancelling root pair; they serve output only.
    """

    Phi: np.ndarray
    Gamma: np.ndarray
    A: np.ndarray = field(repr=False, compare=False)
    B: np.ndarray = field(repr=False, compare=False)
    c: np.ndarray = field(repr=False, compare=False)
    order: np.ndarray = field(repr=False, compare=False)

    @property
    def p(self) -> int:
        return self.Phi.shape[0]

    @property
    def m(self) -> int:
        return self.Gamma.shape[1]

    def _rows(self, lam) -> np.ndarray:
        """[Phi Gamma] at a point, or at each point of a 1-D array, from
        one ``_guarded_inverse`` of every row's pencil, so a pole of any row
        raises as in ``eval_tfm``. A padded state's pencil block is the
        identity, so padding adds no pole."""
        active = np.arange(self.A.shape[-1]) < self.order[:, None]
        lams = np.asarray(lam, dtype=complex)
        points = lams.reshape(-1)
        pencils = _pencils(self.A, np.where(active, points[:, None, None], 1))
        rows = (self.c[:, None, :] @ (_guarded_inverse(pencils, points) @ self.B))[..., 0, :]
        return rows if lams.ndim else rows[0]

    def eval_phi(self, lam) -> np.ndarray:
        return self._rows(lam)[..., : self.p]

    def eval_gamma(self, lam) -> np.ndarray:
        return self._rows(lam)[..., self.p :]

    def response(self, lam) -> np.ndarray:
        """G(lam) = (I - Phi(lam))^{-1} Gamma(lam), at a point or at each
        point of a 1-D array."""
        rows = self._rows(lam)
        return np.linalg.solve(np.eye(self.p) - rows[..., : self.p], rows[..., self.p :])


# every identically zero entry of a normalized form: the num = [0.],
# den = [1.] that ``siso_rational`` gives an entry of order 0, read-only
_ZERO_ENTRY = RationalFn._wrap(np.zeros(1), np.ones(1))
_ZERO_ENTRY.num.flags.writeable = _ZERO_ENTRY.den.flags.writeable = False


def nrf_from_srtr(pair: SrtrPair) -> NrfPair:
    """Normalize the pair row by row, in state space.

    Row i of lam^{-1} [W V] maps (u, z) to u_i. Feeding its output back
    into its own input i solves (lam - W_ii) u_i = sum_j W_ij u_j + V_i z
    for u_i, so Phi[i, j] = W_ij / (lam - W_ii) for j != i and
    Gamma[i, k] = V_ik / (lam - W_ii), and input i no longer reaches the
    row: the diagonal is exactly zero. Row i of [W V] keeps the hidden
    states T_i x2, with T_i the orthonormal basis of span{a, a Aw, ...}
    (a = A12[i], Aw = A22 + K A12), as in ``synthesis.reduce_rows`` at full
    order: its observable part (T_i Aw T_i^T, T_i Bw, a T_i^T, Dw_i). The
    rows share Aw, so one ``column_staircases`` sweep on (Aw^T, A12) gives
    every T_i. The rows, zero-padded to the largest order, are laid out
    behind their integrators by the stacked core of ``with_integrators``.
    A row's output is its state 0 (C = e_0^T), so the feedback is one
    move: add column i of B to column 0 of A, then zero column i of B.
    Input i read u_i = e_0^T x before the move and column 0 of A reads it
    after, so a loop that closes u_i is unchanged; only the row seen alone
    changes. The move leaves the row observable: its unobservable subspace
    lies in ker e_0^T, where the moved A equals the old one. An input
    column whose reduced part is below RANK_CUT of its full norm
    ||[Dw_ij; Bw_j]|| is set to zero: that much is rounding from the basis,
    and a cut on the reduced column alone would lose the input's scale.
    These rows are what the returned NrfPair evaluates, and ``order`` is 1
    plus each row's Krylov order. A second sweep over every entry keeps
    the part that its input reaches. By Kalman's decomposition what
    remains is minimal, so each entry's degree is its true McMillan degree
    and no root is cancelled by tolerance. The entries of one order above
    0 get their coefficients from one stacked ``siso_rational`` call; an
    entry of order 0, which its input does not reach past the row's
    output, forms no coefficients and is the shared read-only zero
    function (num = [0.], den = [1.], the value ``siso_rational`` gives
    it). Rows are swept in consecutive groups whose entry stacks fit in
    ``STACK_DOUBLES``; a network that fits in one group makes one call per
    order.
    """
    p, m = pair.p, pair.m
    Aw, Bw, Cw, Dw = pair.Aw, pair.Bw, pair.Cw, pair.Dw
    V, k, _ = column_staircases(Aw.T, Cw)
    T = np.swapaxes(V, 1, 2)
    A, B = _integrator_layout(T @ Aw @ V, T @ Bw, Cw[:, None] @ V, Dw[:, None])
    i = np.arange(p)
    A[:, :, 0] += B[i, :, i]
    B[i, :, i] = 0.0
    norm = np.linalg.norm
    B *= norm(B, axis=1, keepdims=True) > RANK_CUT * np.hypot(Dw, norm(Bw, axis=0))[:, None]
    n = A.shape[-1]
    c = np.repeat(np.eye(1, n), p, axis=0)
    entries = np.full((p, p + m), _ZERO_ENTRY, dtype=object)
    for rows in stack_slices(p, (p + m) * n * n):
        for r, j, fns in _entry_functions(A[rows], B[rows], c[rows]):
            entries[rows.start + r, j] = fns
    return NrfPair(entries[:, :p], entries[:, p:], A, B, c, 1 + k)


def _entry_functions(Ao: np.ndarray, Bo: np.ndarray, co: np.ndarray) -> list:
    """Every entry (r, j) of the rows (Ao, Bo, co) that its input reaches
    reduced to the reachable part, by one sweep over all of them, and its
    coefficients formed by one ``siso_rational`` call per order above 0.
    Returns, per order, the row and column indices and the RationalFn of
    each entry; the entries of order 0 are left out."""
    Z, orders, _ = column_staircases(Ao[:, None], np.swapaxes(Bo, 1, 2))
    reduced = []
    for order in np.unique(orders[orders > 0]):
        r, j = np.nonzero(orders == order)
        V = Z[..., :order][r, j]
        reduced.append((r, j, (
            np.swapaxes(V, 1, 2) @ Ao[r] @ V,
            np.einsum("eki,ek->ei", V, Bo[r, :, j]),
            np.einsum("ek,eki->ei", co[r], V),
        )))
    Z = V = None  # free the sweep before the coefficients are formed
    return [(r, j, siso_rational(*abc, np.zeros(r.size))) for r, j, abc in reduced]


@dataclass(eq=False)
class SparsityPattern:
    """Binary masks for the coupling (p x p) and input (p x m) structure."""

    maskW: np.ndarray
    maskV: np.ndarray

    def __post_init__(self):
        self.maskW = np.asarray(self.maskW, dtype=int)
        self.maskV = np.asarray(self.maskV, dtype=int)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparsityPattern):
            return NotImplemented
        return bool(
            np.array_equal(self.maskW, other.maskW)
            and np.array_equal(self.maskV, other.maskV)
        )


def sparsity_pattern(obj, tol: float = RANK_CUT) -> SparsityPattern:
    """Zero/nonzero masks of the pair entries.

    An entry counts as zero when the staircase test of
    ``linalg.zero_entries`` finds it identically zero at relative cut
    ``tol``: for a pair on the [W V] realization, for a normalized form on
    each of its rows (A_i, B_i, c_i), where the test cuts at
    ``tol * ||c_i||``. No coefficient is read. The coupling mask's diagonal
    is always 1: it describes the structurally nonzero diagonal of
    (lam I - W), which the normalized form shares through its row
    denominators.
    """
    tol = check_tolerance(tol)
    if isinstance(obj, SrtrPair):
        nonzero = ~zero_entries(obj.Aw, obj.Bw, obj.Cw, obj.Dw, tol)
    elif isinstance(obj, NrfPair):
        nonzero = ~np.vstack([
            zero_entries(A, B, c[None], np.zeros((1, B.shape[1])), tol)
            for A, B, c in zip(obj.A, obj.B, obj.c)
        ])
    else:
        raise TypeError(f"expected SrtrPair or NrfPair, got {type(obj).__name__}")
    p = obj.p
    maskW, maskV = nonzero[:, :p].astype(int), nonzero[:, p:].astype(int)
    np.fill_diagonal(maskW, 1)
    return SparsityPattern(maskW, maskV)


@dataclass(frozen=True)
class CoprimeReport:
    full_normal_rank: bool
    no_finite_zeros: bool
    no_infinite_zeros: bool
    coprime: bool
    min_singular: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "fullNormalRank": self.full_normal_rank,
            "noFiniteZeros": self.no_finite_zeros,
            "noInfiniteZeros": self.no_infinite_zeros,
            "coprime": self.coprime,
            "minSingular": {k: float(v) for k, v in self.min_singular.items()},
        }


def check_flcf(pair: SrtrPair, seed: int = 0) -> CoprimeReport:
    """Certify that [lam I - W, V] has no common zeros, finite or infinite.

    The common zeros of [lam I - W, V] are those of the linear pencil
    [[Aw - lam I, 0, -A_K, K B1 + B2], [0, I_p, -lam I_p, 0],
    [A12, I_p, -(A11 - A12 K), B1]]. A left null vector [eta1, -eta3, eta3]
    of it at a finite lam makes [eta1, eta3] a left eigenvector of the base
    A, in coordinates (x2 + K x1, x1), that annihilates the base B. So by
    the PBH test (Hautus 1969) the finite zeros are exactly the unreachable
    modes of (A, B), whatever K is and in either domain, and one orthogonal
    staircase of (A, B) decides them. At infinity the pencil's leading
    matrix [[I_q, 0, 0, 0], [0, 0, I_p, 0], [A12, I_p, -(A11 - A12 K), B1]]
    has its identity blocks in disjoint columns, so it has full row rank,
    and with it the pencil has full normal rank; one SVD of that matrix
    reports both.

    ``min_singular["finite"]`` is the staircase's decisive singular value
    relative to max(||A||_2, ||B||_2), the scale of its RANK_CUT cut: the
    smallest value kept when it reaches every state, the largest value
    dropped when it stops short. ``"infinite"`` and ``"normalRank"`` are
    both the smallest singular value of the leading matrix. ``seed`` is
    accepted for callers that pass one and unused: nothing is sampled.
    """
    b, p, q = pair.base, pair.p, pair.q
    _, k, sig_finite = controllability_staircase(b.A, b.B)
    lead = np.zeros((q + 2 * p, q + 2 * p + pair.m))
    lead[:q, :q] = np.eye(q)
    lead[q : q + p, q + p : q + 2 * p] = np.eye(p)
    lead[q + p :] = np.hstack([b.A12, np.eye(p), -pair.Dw[:, :p], b.B1])
    sv = singular_values(lead)
    full = bool(np.count_nonzero(sv > auto_rank_tol(lead, sv)) == q + 2 * p)
    no_finite = k == b.n
    return CoprimeReport(
        full_normal_rank=full,
        no_finite_zeros=no_finite,
        no_infinite_zeros=full,
        coprime=no_finite and full,
        min_singular={"finite": sig_finite, "infinite": sv[-1], "normalRank": sv[-1]},
    )
