"""State-space containers and structural operations.

Two containers: a plain (A, B, C, D) system and a partitioned realization
whose state is split so the first block of outputs reads the first block of
states directly (C = [I 0]). The partitioned form is the working
representation for everything downstream; its full system is built once,
on first use, over read-only arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionError,
    PoleEvaluationError,
    RegularityViolationError,
    TrivialCaseError,
    UnsupportedFeedthroughError,
)
from .linalg import (
    as_real_matrix,
    _staircase,
    check_domain,
    rank_with_tolerance,
)


@dataclass(frozen=True)
class StateSpaceSystem:
    """x' = A x + B u, y = C x + D u (or the shift version when discrete)."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    domain: str = "continuous"

    def __post_init__(self):
        A = as_real_matrix(self.A, "A")
        B = as_real_matrix(self.B, "B")
        C = as_real_matrix(self.C, "C")
        D = as_real_matrix(self.D, "D")
        check_domain(self.domain)
        n = A.shape[0]
        if A.shape[1] != n:
            raise DimensionError(f"A must be square, got {A.shape}")
        if B.shape[0] != n:
            raise DimensionError(f"B row count {B.shape[0]} != state dim {n}")
        if C.shape[1] != n:
            raise DimensionError(f"C column count {C.shape[1]} != state dim {n}")
        if D.shape != (C.shape[0], B.shape[1]):
            raise DimensionError(
                f"D must be {C.shape[0]}x{B.shape[1]}, got {D.shape}"
            )
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "D", D)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.B.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.C.shape[0]


def _guarded_inverse(pencils: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Inverse of a (k, ..., n, n) stack of pencils, ``pencils[i]`` those of
    ``points[i]``. A point is a pole when one of its pencils is exactly
    singular, and too close to one when a pencil's exact 1-norm condition
    number ||P||_1 ||P^-1||_1 exceeds 1e13 (LAPACK gecon estimates a lower
    bound of it, so this cut is at least as strict); either raises
    PoleEvaluationError naming the first such point."""
    axes = tuple(range(1, pencils.ndim - 2))
    try:
        inv = np.linalg.inv(pencils)
    except np.linalg.LinAlgError:
        i = np.argmax(np.any(np.linalg.slogdet(pencils)[0] == 0, axis=axes))
        raise PoleEvaluationError(f"evaluation point {points[i]} is a pole") from None
    norms = [np.abs(M).sum(axis=-2).max(axis=-1) for M in (pencils, inv)]
    cond = norms[0] * norms[1]
    clear = np.all(cond <= 1e13, axis=axes)
    if not clear.all():
        i = np.argmin(clear)
        raise PoleEvaluationError(
            f"evaluation point {points[i]} is too close to a pole (cond={np.max(cond[i]):.2e})"
        )
    return inv


def _pencils(A: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """The pencils of a (..., n, n) stack A as one complex (k, ..., n, n)
    stack: -A with ``shifts[i]``, broadcast to (..., n), added on the
    diagonals of entry i."""
    P = np.empty((len(shifts),) + A.shape, dtype=complex)
    np.negative(A, out=P)
    P.reshape(P.shape[:-2] + (-1,))[..., :: A.shape[-1] + 1] += shifts
    return P


def eval_tfm(sys: StateSpaceSystem, lam) -> np.ndarray:
    """Transfer matrix C (lam I - A)^{-1} B + D at a point, or at each point
    of a 1-D array ``lam`` as a (k, p, m) stack, from one stacked
    ``_guarded_inverse`` of the pencils lam I - A, which rejects poles."""
    lams = np.asarray(lam, dtype=complex)
    points = lams.reshape(-1)
    n = sys.n
    if n == 0:
        G = np.repeat(sys.D[None], points.size, axis=0).astype(complex)
        return G if lams.ndim else G[0]
    inv = _guarded_inverse(_pencils(sys.A, points[:, None]), points)
    G = sys.C @ (inv @ sys.B) + sys.D
    return G if lams.ndim else G[0]


def read_only(M) -> np.ndarray:
    """A read-only view of M, for arrays that are built once and kept: a
    write through it raises instead of changing what later calls see."""
    view = np.asarray(M, dtype=float).view()
    view.flags.writeable = False
    return view


def read_only_system(A, B, C, D, domain: str) -> StateSpaceSystem:
    """A system over read-only views of its matrices."""
    return StateSpaceSystem(*map(read_only, (A, B, C, D)), domain)


def apply_transform(sys: StateSpaceSystem, T) -> StateSpaceSystem:
    """Similarity transform z = T x: (T A T^-1, T B, C T^-1, D)."""
    T = as_real_matrix(T, "T")
    if T.shape != (sys.n, sys.n):
        raise DimensionError(f"T must be {sys.n}x{sys.n}, got {T.shape}")
    if sys.n and rank_with_tolerance(T) < sys.n:
        raise RegularityViolationError("transform matrix is singular")
    Tinv = np.linalg.inv(T) if sys.n else T
    return StateSpaceSystem(
        T @ sys.A @ Tinv, T @ sys.B, sys.C @ Tinv, sys.D.copy(), sys.domain
    )


def is_minimal(sys: StateSpaceSystem, tol: float | None = None) -> bool:
    """Controllable and observable: the staircases of (A, B) and of
    (A^T, C^T) both reach every state. ``tol`` is the staircase's relative
    rank cut. ``||A||_2``, which both staircases scale by, is computed once."""
    n = sys.n
    _, k, _, norm_a = _staircase(sys.A, sys.B, tol)
    return k == n and _staircase(sys.A.T, sys.C.T, tol, norm_a)[1] == n


def minimal_realization(sys: StateSpaceSystem, tol: float | None = None) -> StateSpaceSystem:
    """Keep the reachable states, then the observable ones: two orthogonal
    staircase projections. ``tol`` is the staircase's relative rank cut. A
    pass that keeps every state changes nothing, so a minimal input comes
    back with its matrices, and eigenvalues on the stability boundary,
    exactly as given; after such a first pass the second reuses its
    ``||A||_2``."""
    A, B, C = sys.A, sys.B, sys.C
    Z, k, _, norm_a = _staircase(A, B, tol)
    if k < A.shape[0]:
        V = Z[:, :k]
        A, B, C = V.T @ A @ V, V.T @ B, C @ V
        norm_a = None
    Z, k, _, _ = _staircase(A.T, C.T, tol, norm_a)
    if k < A.shape[0]:
        W = Z[:, :k]
        A, B, C = W.T @ A @ W, W.T @ B, C @ W
    return StateSpaceSystem(A, B, C, sys.D.copy(), sys.domain)


def _integrator_layout(A, B, C, D) -> tuple:
    """The A = [[0, C], [0, A]] and B = [D; B] of ``with_integrators`` for
    one system or a stack of them, (A, B, C, D) of shapes (..., k, k),
    (..., k, m), (..., p, k) and (..., p, m)."""
    p, k = C.shape[-2], A.shape[-1]
    Al = np.zeros(A.shape[:-2] + (p + k, p + k))
    Al[..., :p, p:] = C
    Al[..., p:, p:] = A
    return Al, np.concatenate([D, B], axis=-2)


def with_integrators(wv: StateSpaceSystem) -> StateSpaceSystem:
    """lam^{-1} times a system with p outputs: p integrator states in front
    read its outputs and are the new outputs. A = [[0, C], [0, A]],
    B = [D; B], C = [I 0], D = 0."""
    p = wv.n_outputs
    A, B = _integrator_layout(wv.A, wv.B, wv.C, wv.D)
    return StateSpaceSystem(A, B, np.eye(p, p + wv.n), np.zeros((p, wv.n_inputs)), wv.domain)


@dataclass(frozen=True)
class PartitionedRealization:
    """Realization with C = [I_p 0]: the first p states are the outputs.

    State dimension n = p + q with q >= 0; q = 0 encodes static output
    dynamics (no hidden states).
    """

    A11: np.ndarray
    A12: np.ndarray
    A21: np.ndarray
    A22: np.ndarray
    B1: np.ndarray
    B2: np.ndarray
    domain: str = "continuous"

    def __post_init__(self):
        A11 = as_real_matrix(self.A11, "A11")
        A12 = as_real_matrix(self.A12, "A12")
        A21 = as_real_matrix(self.A21, "A21")
        A22 = as_real_matrix(self.A22, "A22")
        B1 = as_real_matrix(self.B1, "B1")
        B2 = as_real_matrix(self.B2, "B2")
        check_domain(self.domain)
        p = A11.shape[0]
        q = A22.shape[0]
        if A11.shape != (p, p):
            raise DimensionError(f"A11 must be square, got {A11.shape}")
        if A22.shape != (q, q):
            raise DimensionError(f"A22 must be square, got {A22.shape}")
        if A12.shape != (p, q):
            raise DimensionError(f"A12 must be {p}x{q}, got {A12.shape}")
        if A21.shape != (q, p):
            raise DimensionError(f"A21 must be {q}x{p}, got {A21.shape}")
        if B1.shape[0] != p:
            raise DimensionError(f"B1 must have {p} rows, got {B1.shape}")
        if B2.shape != (q, B1.shape[1]):
            raise DimensionError(
                f"B2 must be {q}x{B1.shape[1]}, got {B2.shape}"
            )
        if p < 1:
            raise DimensionError("output dimension p must be at least 1")
        for name, M in (("A11", A11), ("A12", A12), ("A21", A21), ("A22", A22),
                        ("B1", B1), ("B2", B2)):
            object.__setattr__(self, name, M)

    @property
    def p(self) -> int:
        return self.A11.shape[0]

    @property
    def q(self) -> int:
        return self.A22.shape[0]

    @property
    def n(self) -> int:
        return self.p + self.q

    @property
    def m(self) -> int:
        return self.B1.shape[1]

    @cached_property
    def A(self) -> np.ndarray:
        return read_only(np.block([[self.A11, self.A12], [self.A21, self.A22]]))

    @cached_property
    def B(self) -> np.ndarray:
        return read_only(np.vstack([self.B1, self.B2]))

    @property
    def C(self) -> np.ndarray:
        return np.hstack([np.eye(self.p), np.zeros((self.p, self.q))])

    @cached_property
    def _system(self) -> StateSpaceSystem:
        return read_only_system(
            self.A, self.B, self.C, np.zeros((self.p, self.m)), self.domain
        )

    def full_system(self) -> StateSpaceSystem:
        """The whole realization as one system, built on first use; its
        matrices are read-only."""
        return self._system


def to_output_normal(sys: StateSpaceSystem) -> tuple[
    PartitionedRealization, np.ndarray
]:
    """Bring a strictly proper system with full-row-rank C into C = [I 0] form.

    Returns the partitioned realization and the state transform T used
    (z = T x). Raises UnsupportedFeedthroughError for D != 0,
    RegularityViolationError when C is row-rank deficient, TrivialCaseError
    when there is no state at all.
    """
    if sys.n == 0:
        raise TrivialCaseError("system has no state to partition")
    if np.any(sys.D != 0.0):
        raise UnsupportedFeedthroughError("nonzero feedthrough is not supported here")
    p = sys.n_outputs
    if p < 1:
        raise DimensionError("at least one output is required")
    if p > sys.n:
        raise RegularityViolationError(
            f"more outputs ({p}) than states ({sys.n})"
        )
    if rank_with_tolerance(sys.C) < p:
        raise RegularityViolationError("output matrix is row-rank deficient")
    # stack C over an orthonormal completion of its row space; the inverse of
    # this T is [C^+, Q2] so C T^{-1} = [I 0] exactly in exact arithmetic
    Q, _ = np.linalg.qr(sys.C.T, mode="complete")
    T = np.vstack([sys.C, Q[:, p:].T])
    moved = apply_transform(sys, T)
    return (
        PartitionedRealization(
            moved.A[:p, :p], moved.A[:p, p:], moved.A[p:, :p], moved.A[p:, p:],
            moved.B[:p], moved.B[p:], sys.domain,
        ),
        T,
    )
