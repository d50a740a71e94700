"""Left factorizations with stable factors, and the bridge in both
directions: pair -> factorization through a stable shaping factor Theta, and
factorization -> pair through a right-stabilizing solution of a nonsymmetric
algebraic Riccati equation built from the factor data.

The realizations of Theta and of [M N] are built on first use and kept,
read-only. Transfer matrices evaluate at a point or at a whole 1-D array of
points at once, so each sampled check makes one stacked evaluation per draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .errors import (
    DimensionError,
    InvalidThetaError,
    KontrollerFormError,
    NoSolutionError,
    NumericalFailureError,
    PreconditionError,
)
from .linalg import (
    as_real_matrix,
    check_domain,
    eigenvalues,
    in_stability_region,
    is_stabilizable,
    is_stable_spectrum,
    rank_with_tolerance,
    sampled_residual,
)
from .srtr import SrtrPair, gain_blocks, srtr_is_stable
from .systems import (
    PartitionedRealization,
    StateSpaceSystem,
    eval_tfm,
    is_minimal,
    read_only_system,
    to_output_normal,
)


@dataclass(frozen=True)
class ThetaFactor:
    """Square stable shaping factor Theta(lam) = Cx (lam I - Ax)^{-1} Bx."""

    Ax: np.ndarray
    Bx: np.ndarray
    Cx: np.ndarray
    domain: str = "continuous"

    def __post_init__(self):
        Ax = as_real_matrix(self.Ax, "Ax")
        Bx = as_real_matrix(self.Bx, "Bx")
        Cx = as_real_matrix(self.Cx, "Cx")
        check_domain(self.domain)
        p = Ax.shape[0]
        if Ax.shape != (p, p) or Bx.shape != (p, p) or Cx.shape != (p, p):
            raise DimensionError("Ax, Bx, Cx must all be square of equal size")
        if not is_stable_spectrum(Ax, self.domain):
            raise InvalidThetaError("Ax must have all eigenvalues in the stability region")
        if p and rank_with_tolerance(Bx) < p:
            raise InvalidThetaError("Bx must be invertible")
        if p and rank_with_tolerance(Cx) < p:
            raise InvalidThetaError("Cx must be invertible")
        object.__setattr__(self, "Ax", Ax)
        object.__setattr__(self, "Bx", Bx)
        object.__setattr__(self, "Cx", Cx)

    @property
    def p(self) -> int:
        return self.Ax.shape[0]

    @cached_property
    def _system(self) -> StateSpaceSystem:
        return read_only_system(
            self.Ax, self.Bx, self.Cx, np.zeros((self.p, self.p)), self.domain
        )

    def system(self) -> StateSpaceSystem:
        """Theta as one system, built on first use; its matrices are
        read-only."""
        return self._system


@dataclass(frozen=True)
class LcfOverS:
    """[M N] in the normalized observer-like form.

    The factor pair is carried by a partitioned block set plus gains:
    [M N](lam) = [U 0] + [U 0](lam I - Ap)^{-1} [[F1, B1], [F2, B2]] with the
    pole matrix Ap = blocks.A + [[F1, 0], [F2, 0]]. Construction validates
    shapes and invertibility of U; stability of Ap is the factories'
    guarantee and verify_lcf's to check. ``srtr.gain_blocks`` on the blocks
    of Ap gives a gain's Riccati residual (A_K) and closed matrix.
    """

    blocks: PartitionedRealization
    F1: np.ndarray
    F2: np.ndarray
    U: np.ndarray

    def __post_init__(self):
        F1 = as_real_matrix(self.F1, "F1")
        F2 = as_real_matrix(self.F2, "F2")
        U = as_real_matrix(self.U, "U")
        p, q = self.blocks.p, self.blocks.q
        if F1.shape != (p, p):
            raise DimensionError(f"F1 must be {p}x{p}, got {F1.shape}")
        if F2.shape != (q, p):
            raise DimensionError(f"F2 must be {q}x{p}, got {F2.shape}")
        if U.shape != (p, p):
            raise DimensionError(f"U must be {p}x{p}, got {U.shape}")
        if rank_with_tolerance(U) < p:
            raise KontrollerFormError("a", "U must be invertible")
        object.__setattr__(self, "F1", F1)
        object.__setattr__(self, "F2", F2)
        object.__setattr__(self, "U", U)

    @property
    def p(self) -> int:
        return self.blocks.p

    @property
    def q(self) -> int:
        return self.blocks.q

    @property
    def m(self) -> int:
        return self.blocks.m

    @property
    def domain(self) -> str:
        return self.blocks.domain

    def pole_matrix(self) -> np.ndarray:
        """Ap, built on first use and read-only."""
        return self._mn.A

    @cached_property
    def _poles(self) -> PartitionedRealization:
        b = self.blocks
        return PartitionedRealization(
            b.A11 + self.F1, b.A12, b.A21 + self.F2, b.A22, b.B1, b.B2, self.domain
        )

    @cached_property
    def _mn(self) -> StateSpaceSystem:
        b = self._poles
        p = self.p
        return read_only_system(
            b.A,
            np.block([[self.F1, b.B1], [self.F2, b.B2]]),
            np.hstack([self.U, np.zeros((p, self.q))]),
            np.hstack([self.U, np.zeros((p, self.m))]),
            self.domain,
        )

    def mn_system(self) -> StateSpaceSystem:
        """One system whose transfer matrix is [M(lam) N(lam)], built on
        first use; its matrices are read-only."""
        return self._mn

    def eval_mn(self, lam) -> tuple[np.ndarray, np.ndarray]:
        mn = eval_tfm(self.mn_system(), lam)
        return mn[..., : self.p], mn[..., self.p :]

    def response(self, lam) -> np.ndarray:
        """G(lam) = M(lam)^{-1} N(lam), at a point or at each point of a 1-D
        array."""
        M, N = self.eval_mn(lam)
        return np.linalg.solve(M, N)


def lcf_from_srtr(pair: SrtrPair, theta: ThetaFactor) -> LcfOverS:
    """Turn a stable pair into a stable left factorization M = Theta (lam I - W),
    N = Theta V.

    The result is stored in the normalized observer-like form; its pole
    matrix is block triangular with spectrum eig(Ax) union eig(Aw), so the
    pair's poles are preserved and stability is inherited.
    """
    if theta.domain != pair.domain:
        raise DimensionError("theta and pair must share the same domain")
    if theta.p != pair.p:
        raise DimensionError(
            f"theta must be {pair.p}x{pair.p}, got {theta.p}x{theta.p}"
        )
    if not srtr_is_stable(pair):
        raise PreconditionError("the pair must be stable (all eig(Aw) in the region)")
    # the pair's gain blocks: Dw = [A11 - A12 K, B1], Bw = [A_K, K B1 + B2]
    p, b = pair.p, pair.base
    L11 = pair.Dw[:, :p]
    blocks = PartitionedRealization(
        A11=L11,
        A12=b.A12,
        A21=pair.A_K,
        A22=pair.Aw,
        B1=b.B1,
        B2=pair.Bw[:, p:],
        domain=pair.domain,
    )
    X = np.linalg.solve(theta.Bx, theta.Ax @ theta.Bx)
    return LcfOverS(
        blocks=blocks,
        F1=X - L11,
        F2=-pair.A_K,
        U=theta.Cx @ theta.Bx,
    )


def to_kontroller_form(sys: StateSpaceSystem, F, U) -> LcfOverS:
    """Normalize an observer-form factorization [M N] = [U 0] + U C (lam I - A - F C)^{-1} [F B].

    ``sys`` carries the plant data (A, B, C) with D = 0; F is the output
    injection making A + F C stable; U is the invertible leading coefficient.
    The three admissibility conditions are checked and the failing one is
    named: (a) U invertible, (b) A + F C stable, (c) (A, B, C) minimal.
    """
    F = as_real_matrix(F, "F")
    U = as_real_matrix(U, "U")
    p, n = sys.n_outputs, sys.n
    if F.shape != (n, p):
        raise DimensionError(f"F must be {n}x{p}, got {F.shape}")
    if U.shape != (p, p):
        raise DimensionError(f"U must be {p}x{p}, got {U.shape}")
    if np.any(sys.D != 0.0):
        raise KontrollerFormError("c", "plant feedthrough must be zero")
    if rank_with_tolerance(U) < p:
        raise KontrollerFormError("a", "U must be invertible")
    if not is_stable_spectrum(sys.A + F @ sys.C, sys.domain):
        raise KontrollerFormError("b", "A + F C must be stable")
    if not is_minimal(sys):
        raise KontrollerFormError("c", "(A, B, C) must be minimal")
    part, T = to_output_normal(sys)
    TF = T @ F
    return LcfOverS(blocks=part, F1=TF[:p], F2=TF[p:], U=U)


@dataclass(frozen=True)
class RiccatiSolution:
    """Right-stabilizing solution K of
    K(A11+F1) - K A12 K + (A21+F2) - A22 K = 0, read off the reordered
    Schur basis [V1; V2] as K = V2 V1^{-1} (Laub's method), with the
    spectrum of the closed matrix A11+F1 - A12 K and cond(V1)."""

    K: np.ndarray
    residual_norm: float
    closed_spectrum: np.ndarray
    subspace_cond: float

    def as_dict(self) -> dict:
        return {
            "K": self.K.tolist(),
            "residualNorm": float(self.residual_norm),
            "closedSpectrum": [[z.real, z.imag] for z in self.closed_spectrum],
            "subspaceCond": float(self.subspace_cond),
        }


def riccati_residual(lcf: LcfOverS, K: np.ndarray) -> float:
    """Frobenius norm of the Riccati residual, A_K on the blocks of Ap."""
    return float(np.linalg.norm(gain_blocks(lcf._poles, K)[1]))


def _hamiltonian_like(lcf: LcfOverS) -> np.ndarray:
    b = lcf._poles
    return np.block([[b.A11, -b.A12], [-b.A21, b.A22]])


def _reachable(count: int, singles: int, pairs: int) -> bool:
    """Whether ``count`` columns (never a negative count) can be made of
    whole groups taken from ``singles`` one-column and ``pairs`` two-column
    groups."""
    used = max(0, count - 2 * pairs)
    used += (used - count) % 2
    return used <= min(singles, count)


def _greedy_groups(blocks: list[np.ndarray], p: int) -> list[int] | None:
    """Indices of column groups chosen one at a time, each the one whose
    addition maximizes the volume (sum of log singular values) of the top p
    rows of the orthonormalized basis; ties go to the lowest index. A group
    is skipped when the columns still needed could no longer be met by the
    others. None when no set of groups has exactly p columns.

    The groups of one width are stacked once; each step scores all that are
    left of a width by one stacked QR of [Q, group] and one stacked SVD of
    its top p rows."""
    if not blocks:
        return None
    widths = np.array([block.shape[1] for block in blocks])
    stacks = {
        w: (np.flatnonzero(widths == w), np.stack([b for b in blocks if b.shape[1] == w]))
        for w in (1, 2)
        if np.any(widths == w)
    }
    chosen: list[int] = []
    left = np.ones(len(blocks), dtype=bool)
    Q = np.zeros((blocks[0].shape[0], 0))
    while Q.shape[1] < p:
        singles = int(np.count_nonzero(left & (widths == 1)))
        pairs = int(np.count_nonzero(left)) - singles
        index, scores, bases = [], [], []
        for w, (js, stack) in stacks.items():
            need = p - Q.shape[1] - w
            live = left[js]
            if not live.any() or not _reachable(need, singles - (w == 1), pairs - (w == 2)):
                continue
            groups = stack[live]
            Qs = np.linalg.qr(
                np.concatenate([np.broadcast_to(Q, (len(groups),) + Q.shape), groups], axis=2)
            )[0]
            with np.errstate(divide="ignore"):
                scores.append(np.sum(np.log(np.linalg.svd(Qs[:, :p], compute_uv=False)), axis=1))
            index.append(js[live])
            bases.extend(Qs)
        if not index:
            return None
        index, scores = np.concatenate(index), np.concatenate(scores)
        best = np.flatnonzero(scores == scores.max())
        pick = best[np.argmin(index[best])]
        chosen.append(int(index[pick]))
        left[index[pick]] = False
        Q = bases[pick]
    return chosen


# largest condition number of V1 that still gives a Riccati solution
COND_CAP = 1e10


def solve_ctnare(lcf: LcfOverS) -> RiccatiSolution:
    """Right-stabilizing Riccati solution from a p-dimensional invariant
    subspace of the sign-flipped pole matrix.

    Only eigenvalues in the stability region can give a stabilizing K, and
    a conjugate pair must be taken whole. Among those, the subspace is
    picked greedily, in the manner of a rank-revealing column choice: add
    the eigenvalue (or pair) whose real eigenvector columns most enlarge the
    volume of the top p rows V1 of the orthonormalized basis, until p
    columns are chosen. The basis itself then comes from one real Schur
    form, reordered by position (LAPACK ``trsen``) to put the chosen
    eigenvalues first, which stays accurate on near-defective spectra. Each
    chosen eigenvalue claims the nearest diagonal block of its own, so it is
    split from an equal eigenvalue that is left out. The first p Schur
    vectors [V1; V2] are orthonormal, and K = V2 V1^{-1} is read straight
    off them (Laub's method); K does not depend on the basis of the
    subspace. The cost is polynomial in p. A cond(V1) above COND_CAP or a
    closed spectrum outside the region raises NoSolutionError, and a
    residual above 1e-10 (1 + ||blocks.A||_F) NumericalFailureError.
    """
    import scipy.linalg  # deferred: importing it would double CLI start-up

    p = lcf.p
    tol = 1e-10 * (1.0 + float(np.linalg.norm(lcf.blocks.A)))
    Aplus = _hamiltonian_like(lcf)
    w, V = np.linalg.eig(Aplus)
    # a real matrix has real eigenvalues and exact conjugate pairs: keep one
    # of each pair, as the real and imaginary parts of its eigenvector
    upper = np.flatnonzero(w.imag >= 0.0)
    stable = upper[in_stability_region(w[upper], lcf.domain)]
    blocks = [
        np.column_stack([V[:, i].real] + ([V[:, i].imag] if w[i].imag else []))
        for i in stable
    ]
    picked = _greedy_groups(blocks, p)
    if picked is None:
        raise NoSolutionError(
            f"fewer than {p} eigenvalues in the stability region can form a "
            f"conjugate-closed set"
        )
    chosen = w[[stable[j] for j in picked]]
    try:
        T, Z = scipy.linalg.schur(Aplus, output="real")
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"real Schur form failed: {exc}") from exc
    # diagonal blocks of T as (first row, size, eigenvalue with imag >= 0); a
    # standardized 2 x 2 block [[a, b], [c, a]] has eigenvalues a +- i sqrt(-bc)
    spots, i = [], 0
    while i < len(T):
        if i + 1 < len(T) and T[i + 1, i] != 0.0:
            spots.append((i, 2, complex(T[i, i], np.sqrt(-T[i, i + 1] * T[i + 1, i]))))
            i += 2
        else:
            spots.append((i, 1, complex(T[i, i])))
            i += 1
    # each chosen eigenvalue claims the nearest unclaimed block, so it is
    # split from an equal eigenvalue that stays behind
    select = np.zeros(len(T), dtype=np.int32)
    for z in chosen:
        spot = min(spots, key=lambda s: abs(s[2] - z))
        spots.remove(spot)
        select[spot[0] : spot[0] + spot[1]] = 1
    _, Z, _, _, sdim, _, _, info = scipy.linalg.lapack.dtrsen(select, T, Z, job="N")
    if info != 0:
        raise NumericalFailureError(f"Schur reordering failed (LAPACK info {info})")
    if sdim != p:
        raise NumericalFailureError(
            f"Schur reordering put {sdim} eigenvalues first, expected {p}"
        )
    V1 = Z[:p, :p]
    cond1 = float(np.linalg.cond(V1))
    closed = None
    if np.isfinite(cond1) and cond1 <= COND_CAP:
        K = Z[p:, :p] @ np.linalg.inv(V1)
        Ac, A_K = gain_blocks(lcf._poles, K)[:2]
        closed = eigenvalues(Ac)
    if closed is None or not np.all(in_stability_region(closed, lcf.domain)):
        raise NoSolutionError(
            "no invariant subspace gave an invertible, stabilizing V1",
            best_cond=cond1 if np.isfinite(cond1) else None,
        )
    residual = float(np.linalg.norm(A_K))
    if residual > tol:
        raise NumericalFailureError(
            f"Riccati residual {residual:.3e} above tolerance {tol:.3e}"
        )
    return RiccatiSolution(K, residual, closed, cond1)


def srtr_from_lcf(lcf: LcfOverS, solution: RiccatiSolution | None = None) -> SrtrPair:
    """Recover a stable pair from the factorization.

    A right-stabilizing Riccati solution K turns the stored blocks into the
    pair via the standard gain construction; the result is cross-checked
    against the closed-form recovery
    [W V] = [lam I, 0] + (lam I - Ax) U^{-1} [-M, N] at sample points.
    """
    if solution is None:
        solution = solve_ctnare(lcf)
    K = as_real_matrix(solution.K, "K")
    if K.shape != (lcf.q, lcf.p):
        raise DimensionError(f"K must be {lcf.q}x{lcf.p}, got {K.shape}")
    Ax = gain_blocks(lcf._poles, K)[0]
    eig_ax = eigenvalues(Ax)
    if not np.all(in_stability_region(eig_ax, lcf.domain)):
        raise PreconditionError("K is not right stabilizing for this factorization")
    pair = SrtrPair(lcf.blocks, K)
    # closed-form recovery check at a few points clear of all poles involved
    Uinv = np.linalg.inv(lcf.U)
    poles = np.concatenate(
        [eigenvalues(lcf.pole_matrix()), eigenvalues(pair.Aw), eig_ax]
    )
    eye = np.eye(lcf.p)

    def recoveries(lams):
        M, N = lcf.eval_mn(lams)
        lam_eye = lams[:, None, None] * eye
        closed_form = (lam_eye - Ax) @ Uinv @ np.concatenate([-M, N], axis=-1)
        closed_form[..., : lcf.p] += lam_eye
        return eval_tfm(pair.wv_system(), lams), closed_form

    worst = sampled_residual(recoveries, poles, 5, seed=11)
    if worst > 1e-8:
        raise NumericalFailureError(
            f"closed-form recovery disagrees with the gain construction "
            f"(residual {worst:.3e})"
        )
    return pair


@dataclass(frozen=True)
class LcfReport:
    stable: bool
    identity_residual: float
    coprime_over_s: bool

    def as_dict(self) -> dict:
        return {
            "stable": self.stable,
            "identityResidual": float(self.identity_residual),
            "coprimeOverS": self.coprime_over_s,
        }


def verify_lcf(
    lcf: LcfOverS,
    source=None,
    n_samples: int = 5,
    seed: int = 0,
) -> LcfReport:
    """Three-part certificate: factor stability, M^{-1} N = G at samples, and
    coprimeness over the region's closed complement, which is
    stabilizability of (Ap, [F B]): [lam I - Ap, F, B] can lose rank only
    at an eigenvalue of Ap.

    ``source`` supplies G: a StateSpaceSystem, an SrtrPair, or None for the
    transfer matrix realized by the stored blocks themselves.
    """
    Ap = lcf.pole_matrix()
    spectrum = eigenvalues(Ap)
    stable = bool(np.all(in_stability_region(spectrum, lcf.domain)))
    if source is None:
        source = lcf.blocks.full_system()
    if isinstance(source, SrtrPair):
        poles = [spectrum, eigenvalues(source.base.A), eigenvalues(source.Aw)]
        response = source.response
    elif isinstance(source, StateSpaceSystem):
        poles = [spectrum, eigenvalues(source.A)]
        response = partial(eval_tfm, source)
    else:
        raise TypeError(f"unsupported source type {type(source).__name__}")
    worst = sampled_residual(
        lambda lams: (response(lams), lcf.response(lams)), np.concatenate(poles), n_samples, seed
    )
    coprime = is_stabilizable(Ap, lcf.mn_system().B, lcf.domain)
    return LcfReport(stable=stable, identity_residual=worst, coprime_over_s=coprime)
