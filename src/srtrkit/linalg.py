"""Dense linear-algebra kernel: eigenvalues, tolerant rank, stability-region
predicates, the controllability staircase that decides every structural
question (reachable subspace, stabilizability, identically zero entries),
its single-column case swept over a whole stack at once
(``column_staircases``: batched Arnoldi with two classical Gram-Schmidt
passes, which keeps only the reachable basis and forms no power of A: the
one Arnoldi kernel, behind zero entries, normalized forms and the row
Krylov bases of structured synthesis), and seeded sampled-residual checks.

Everything here works on plain ``numpy.ndarray`` values and is pure; the rest
of the toolkit builds on these primitives.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import (
    DimensionError, InvalidInputError, NonFiniteError, NumericalFailureError, PoleEvaluationError,
)

DOMAINS = ("continuous", "discrete")


def check_domain(domain: str) -> str:
    if domain not in DOMAINS:
        raise ValueError(f"domain must be one of {DOMAINS}, got {domain!r}")
    return domain


def check_tolerance(tol) -> float:
    """``tol`` as a float: a cut or tolerance must be finite and at least 0.
    NaN, +-inf and negative values raise ``InvalidInputError``."""
    value = float(tol)
    if not 0.0 <= value < np.inf:  # NaN fails both comparisons
        raise InvalidInputError(f"tol must be finite and at least 0, got {tol!r}")
    return value


def as_real_matrix(M, name: str = "matrix") -> np.ndarray:
    """Validate and return a finite real 2-D array of doubles."""
    A = np.asarray(M, dtype=float)
    if A.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {A.shape}")
    if A.size and not np.all(np.isfinite(A)):
        raise NonFiniteError(f"{name} contains non-finite entries")
    return A


def eigenvalues(A) -> np.ndarray:
    """Eigenvalues of a square real matrix, with multiplicity.

    A stack of shape (..., n, n) gives the eigenvalues of each matrix, of
    shape (..., n). Complex values come in conjugate pairs. Raises
    DimensionError for non-square input and NumericalFailureError if the
    QR iteration does not converge.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise DimensionError(f"square matrix required, got {A.shape}")
    if A.size and not np.all(np.isfinite(A)):
        raise NonFiniteError("A contains non-finite entries")
    if A.shape[-1] == 0:
        return np.zeros(A.shape[:-1], dtype=complex)
    try:
        return np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigenvalue iteration failed: {exc}") from exc


def singular_values(M) -> np.ndarray:
    M = np.asarray(M)
    if M.size == 0:
        return np.zeros(0)
    return np.linalg.svd(M, compute_uv=False)


def auto_rank_tol(M, sv=None) -> float:
    """The threshold ``max(rows, cols) * ||M||_2 * eps``; ``sv`` passes the
    singular values of M when they are already known."""
    if sv is None:
        sv = singular_values(M)
    if sv.size == 0:
        return 0.0
    return max(M.shape) * sv[0] * np.finfo(float).eps


def rank_with_tolerance(M) -> int:
    """Number of singular values above the automatic threshold
    ``max(rows, cols) * ||M|| * eps``. Works for real and complex input."""
    M = np.asarray(M)
    if M.ndim != 2:
        raise DimensionError(f"matrix required, got shape {M.shape}")
    if M.size and not np.all(np.isfinite(M.real)) or (
        np.iscomplexobj(M) and M.size and not np.all(np.isfinite(M.imag))
    ):
        raise NonFiniteError("rank input contains non-finite entries")
    sv = singular_values(M)
    return int(np.count_nonzero(sv > auto_rank_tol(M, sv)))


def _outside(lam, domain: str) -> np.ndarray:
    """How far each of ``lam`` lies outside the stability region, signed
    and elementwise: Re lam for the open left half-plane, |lam| - 1 for the
    open unit disk. Negative inside, zero on the boundary."""
    check_domain(domain)
    lam = np.asarray(lam)
    return lam.real if domain == "continuous" else np.abs(lam) - 1.0


def in_stability_region(lam, domain: str):
    """Strict membership in the open left half-plane or the open unit disk,
    elementwise on arrays; a scalar gives a bool."""
    inside = _outside(lam, domain) < 0.0
    return inside if inside.ndim else bool(inside)


def stability_distance(lam, domain: str):
    """Distance of ``lam`` outside the stability region (0 when inside),
    elementwise on arrays."""
    dist = np.maximum(_outside(lam, domain), 0.0)
    return dist if dist.ndim else float(dist)


def stability_margin(eigs, domain: str):
    """How far inside the region the worst eigenvalue sits (negative when
    some eigenvalue is outside, inf when there is none), taken over the
    last axis of ``eigs``."""
    outside = _outside(np.atleast_1d(np.asarray(eigs, dtype=complex)), domain)
    margin = -np.max(outside, axis=-1, initial=-np.inf)
    return margin if margin.ndim else float(margin)


def is_stable_spectrum(A, domain: str) -> bool:
    """True iff every eigenvalue of A lies strictly inside the region."""
    return bool(np.all(in_stability_region(eigenvalues(A), domain)))


# relative cut below which every structural kernel counts a singular value
# or a column norm as zero
RANK_CUT = 1e-9


def controllability_staircase(
    A, B, tol: float | None = None
) -> tuple[np.ndarray, int, float]:
    """Orthogonal staircase form of (A, B) (Varga 1981; Van Dooren 1981).

    Returns an orthogonal Z, the reachable dimension k and the decisive
    margin. The first k columns of Z span the controllable subspace of
    (A, B); in the basis Z, A is block upper Hessenberg on that part and the
    remaining block ``Z[:, k:].T @ A @ Z[:, k:]`` carries the uncontrollable
    modes. Each step compresses the newest block by an SVD and keeps the
    singular values above ``tol * max(||A||_2, ||B||_2)``; ``tol=None``
    means ``RANK_CUT``. No power of A is ever formed.

    The margin is the singular value that decided k, divided by the same
    ``max(||A||_2, ||B||_2)`` so that it compares with ``tol``: the smallest
    value kept when k reaches n, the largest value dropped when the
    staircase stops short (0 when B has no columns, inf when n = 0).
    """
    return _staircase(A, B, tol)[:3]


def _staircase(A, B, tol: float | None = None, norm_a: float | None = None):
    """``controllability_staircase`` and the ``||A||_2`` it used (None when
    it needed none); ``norm_a`` passes ``||A||_2`` when it is known. ``||B||_2``
    comes from the SVD of the first step."""
    tol = RANK_CUT if tol is None else check_tolerance(tol)
    A = as_real_matrix(A, "A")
    B = as_real_matrix(B, "B")
    n = A.shape[0]
    if A.shape[1] != n or B.shape[0] != n:
        raise DimensionError(f"need square A and B with {n} rows, got {A.shape}, {B.shape}")
    Z = np.eye(n)
    if n == 0:
        return Z, 0, np.inf, norm_a
    if B.size == 0:
        return Z, 0, 0.0, norm_a
    if norm_a is None:
        norm_a = float(singular_values(A)[0])
    U, s, _ = np.linalg.svd(B)
    scale = max(norm_a, s[0]) or 1.0
    cut = tol * scale
    H = A.copy()
    k = 0
    kept = np.inf
    while True:
        r = int(np.count_nonzero(s > cut))
        if r == 0:
            return Z, k, float(s[0] / scale), norm_a
        kept = min(kept, s[r - 1])
        Z[:, k:] = Z[:, k:] @ U
        H[k:, :] = U.T @ H[k:, :]
        H[:, k:] = H[:, k:] @ U
        block = H[k + r :, k : k + r]
        k += r
        if k == n:
            return Z, k, float(kept / scale), norm_a
        U, s, _ = np.linalg.svd(block)


# The most doubles that one stacked array of a sweep may hold; callers
# sweep larger stacks in consecutive groups.
STACK_DOUBLES = 2**18


def stack_slices(count: int, doubles_each: int):
    """Consecutive slices of ``range(count)`` whose items, ``doubles_each``
    doubles apiece, fit in ``STACK_DOUBLES``; at least one item each."""
    step = max(1, STACK_DOUBLES // max(doubles_each, 1))
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def column_staircases(A, b, tol: float | None = None, steps: int | None = None) -> tuple:
    """The single-column case of ``controllability_staircase`` on a whole
    stack at once, by Arnoldi.

    ``A`` of shape (..., n, n) and ``b`` of shape (..., n) broadcast to one
    stack of pairs (A, b). Step j normalizes the newest direction x into
    v_j while ``||x|| > tol * max(||A||_2, ||b||)`` (``tol=None`` means
    ``RANK_CUT``) and j < ``steps`` (``None`` means n), and the next x is
    A v_j made orthogonal to v_0, ..., v_j by two classical Gram-Schmidt
    passes; x = b at step 0, so a b below the cut has order 0. Returns the
    bases V of shape (..., n, k_max), the orders k of shape (...) and the
    last directions x of shape (..., n): the first k columns of each V are
    an orthonormal basis of the reachable subspace of its pair, cut at
    ``steps`` columns, and its columns past k are zero; x is the direction
    that fell below the cut, the one that the cap on ``steps`` left, or zero
    when k = n. The pairs that share a matrix of ``A`` get their products
    A v_j from one GEMM. No power of A is formed and only the basis is kept,
    never an (n, n) block per pair; a pair leaves the sweep when it stops.
    ``||A||_2`` is computed only for a matrix of ``A`` at which some norm
    falls between the cuts of its cheap bounds, so every decision is that
    of the exact cut.
    """
    tol = RANK_CUT if tol is None else check_tolerance(tol)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    n = A.shape[-1] if A.ndim >= 2 else -1
    if n < 0 or A.shape[-2] != n or b.ndim < 1 or b.shape[-1] != n:
        raise DimensionError(f"need A of shape (..., n, n) and b of shape (..., n), got {A.shape}, {b.shape}")
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise NonFiniteError("staircase input contains non-finite entries")
    steps = n if steps is None else operator.index(steps)
    if steps < 0:
        raise InvalidInputError(f"the step cap must be at least 0, got {steps}")
    steps = min(steps, n)
    stack = np.broadcast_shapes(A.shape[:-2], b.shape[:-1])
    count = math.prod(stack)
    if n == 0 or count == 0:
        return np.zeros(stack + (n, 0)), np.zeros(stack, dtype=int), np.zeros(stack + (n,))
    # the stack as G groups of M pairs, the pairs of a group sharing one
    # matrix of A: G = 1 for one matrix, M = 1 when no two pairs share one
    lead = (1,) * (len(stack) + 2 - A.ndim) + A.shape[:-2]
    s = len(stack)
    while s and lead[s - 1] == 1:
        s -= 1
    if lead[:s] == stack[:s]:
        As = A.reshape(-1, n, n)
    else:
        As = np.broadcast_to(A, stack + (n, n)).reshape(count, n, n)
    G, M = As.shape[0], count // As.shape[0]
    x = (b if b.size == count * n else np.broadcast_to(b, stack + (n,))).reshape(G, M, n)
    norm_b = np.broadcast_to(np.linalg.norm(b, axis=-1), stack).reshape(G, M)

    def cut(norm_a, norm_b):
        return tol * np.maximum(norm_a[:, None], norm_b)

    # ||A||_2 lies between the largest row or column norm of A and its
    # Frobenius norm, bounds widened here by 1e-10 against rounding. The
    # upper cut passes every norm above it; the lower cut is formed when
    # some norm first falls below the upper one, and only for a norm
    # between the two is ||A||_2 computed, for that matrix of A.
    cut_hi = cut(np.sqrt(np.einsum("gij,gij->g", As, As)) * (1.0 + 1e-10), norm_b)
    cut_lo = None
    groups, items = np.arange(G), np.arange(M)
    k = np.zeros((G, M), dtype=int)
    last = np.zeros((G, M, n))
    basis = np.zeros((G, M, min(steps, 4), n))
    parts = []  # (groups, items, basis, k, last) of each set of pairs set aside
    for j in range(steps + 1):
        norm = norm_b if j == 0 else np.linalg.norm(x, axis=-1)
        going = norm > (cut_hi if j < steps else np.inf)  # the cap stops every pair
        if not going.all():
            if j < steps:
                if cut_lo is None:
                    rows, cols = np.einsum("gij,gij->gi", As, As), np.einsum("gij,gij->gj", As, As)
                    low = np.sqrt(np.maximum(rows.max(axis=-1), cols.max(axis=-1)))
                    cut_lo = cut(low * (1.0 - 1e-10), norm_b)
                unsure = ~going & (norm > cut_lo)
                if unsure.any():
                    g = unsure.any(axis=1)
                    cut_lo[g] = cut_hi[g] = cut(np.linalg.norm(As[g], 2, axis=(-2, -1)), norm_b[g])
                    going = norm > cut_hi
            np.copyto(last, x, where=((k == j) & ~going)[..., None])
            if not going.any():
                break
            keep_g, keep_m = going.any(axis=1), going.any(axis=0)
            if not (keep_g.all() and keep_m.all()):
                parts.append((groups, items, basis[..., :j, :], k, last))
                sub = np.ix_(keep_g, keep_m)
                basis, k, last, x, norm, going, norm_b, cut_lo, cut_hi = (
                    a[sub] for a in (basis, k, last, x, norm, going, norm_b, cut_lo, cut_hi))
                groups, items = groups[keep_g], items[keep_m]
                if not keep_g.all():
                    As = As[keep_g]
            norm = np.where(going, norm, np.inf)
        k[going] = j + 1
        if j == basis.shape[-2]:
            grow = np.zeros(basis.shape[:2] + (min(j, steps - j), n))
            basis = np.concatenate([basis, grow], axis=-2)
        v = basis[..., j, :]
        np.divide(x, norm[..., None], out=v)
        if j + 1 == n:
            break
        x = v @ np.swapaxes(As, -2, -1)
        Q = basis[..., : j + 1, :]
        for _ in range(2):
            x -= (np.swapaxes(Q @ x[..., None], -2, -1) @ Q)[..., 0, :]
    parts.append((groups, items, basis, k, last))
    k_max = max(int(part[3].max(initial=0)) for part in parts)
    if len(parts) == 1:
        V, K, X = basis[..., :k_max, :], k, last
    else:
        V = np.zeros((G, M, k_max, n))
        K = np.zeros((G, M), dtype=int)
        X = np.zeros((G, M, n))
        for groups, items, basis, k, last in parts:
            V[groups[:, None], items, : basis.shape[-2]] = basis[..., :k_max, :]
            K[groups[:, None], items] = k
            X[groups[:, None], items] = last
    return (np.swapaxes(V.reshape(stack + (k_max, n)), -2, -1), K.reshape(stack),
            X.reshape(stack + (n,)))


def is_stabilizable(A, B, domain: str) -> bool:
    """Every uncontrollable mode of (A, B) lies in the stability region.

    Detectability of (A, C) is ``is_stabilizable(A.T, C.T, domain)``.
    """
    check_domain(domain)
    A = as_real_matrix(A, "A")
    Z, k, _ = controllability_staircase(A, B)
    U = Z[:, k:]
    return is_stable_spectrum(U.T @ A @ U, domain)


def zero_entries(A, B, C, D, tol: float = RANK_CUT) -> np.ndarray:
    """Boolean mask of the entries of ``C (lam I - A)^{-1} B + D`` that are
    identically zero.

    Entry (i, j) vanishes iff ``D[i, j]`` does and row i of C is orthogonal
    to the reachable subspace of (A, b_j), read off one stacked
    ``column_staircases`` sweep over the columns of B. Both tests cut at
    ``tol * ||[C D]||_2``.
    """
    tol = check_tolerance(tol)
    A = as_real_matrix(A, "A")
    B = as_real_matrix(B, "B")
    C = as_real_matrix(C, "C")
    D = as_real_matrix(D, "D")
    if D.shape != (C.shape[0], B.shape[1]):
        raise DimensionError(f"D must be {C.shape[0]}x{B.shape[1]}, got {D.shape}")
    CD = np.hstack([C, D])
    cut = tol * np.linalg.norm(CD, 2) if CD.size else 0.0
    zero = np.abs(D) <= cut
    n = A.shape[0]
    for cols in stack_slices(B.shape[1], n * n):
        V = column_staircases(A, B[:, cols].T, tol)[0]
        zero[:, cols] &= (np.linalg.norm(C @ V, axis=2) <= cut).T
    return zero


# half-width of the first square of candidates about the poles' barycenter
SAMPLE_RADIUS = 2.0


def sample_complex_points(
    poles,
    count: int,
    seed: int = 0,
    min_distance: float = 0.1,
    max_draws: int = 200,
) -> np.ndarray:
    """Seeded sample points on a complex disk, kept away from given poles.

    The disk is centered at the barycenter of ``poles`` (origin when empty).
    Each radius, SAMPLE_RADIUS first, gets ``max_draws`` candidates from one
    draw of the stream; the candidates closer than ``min_distance`` to a pole
    are dropped at once, and the rest are taken in order unless within 1e-6
    of a point already taken. The disk doubles while too few points are
    found, and past radius 1e6 the search fails.
    """
    poles = np.atleast_1d(np.asarray(poles, dtype=complex))
    center = poles.mean() if poles.size else 0.0 + 0.0j
    rng = np.random.default_rng(seed)
    picked: list[complex] = []
    r = SAMPLE_RADIUS
    while len(picked) < count:
        u = rng.uniform(-1, 1, size=2 * max_draws)
        z = center + r * (u[0::2] + 1j * u[1::2])
        if poles.size:
            z = z[np.min(np.abs(poles - z[:, None]), axis=1) >= min_distance]
        for w in z:
            if len(picked) == count:
                break
            if not picked or min(abs(w - v) for v in picked) >= 1e-6:
                picked.append(w)
        r *= 2.0
        if len(picked) < count and r > 1e6:
            raise NumericalFailureError(
                "could not place sample points away from the poles"
            )
    return np.array(picked)


def sampled_residual(evaluate, poles, count: int, seed: int = 0) -> float:
    """Max relative residual ``||ref - got|| / (1 + ||ref||)`` over seeded
    sample points clear of ``poles``; ``evaluate(lams)`` returns the pair
    (ref, got) of (k, ...) stacks at the k points of the 1-D array ``lams``.

    A draw on which sampling or evaluation fails (a singular solve, a point
    too close to a pole, no room between the poles) is replaced by the draw
    of the next seed, up to five draws. A ``count`` below 1, which would
    check nothing, or a negative ``seed`` raises InvalidInputError.
    """
    if count < 1:
        raise InvalidInputError(f"the sample count must be at least 1, got {count}")
    if seed < 0:
        raise InvalidInputError(f"the seed must be at least 0, got {seed}")
    for attempt in range(5):
        try:
            refs, gots = evaluate(sample_complex_points(poles, count, seed=seed + attempt))
        except (np.linalg.LinAlgError, NumericalFailureError, PoleEvaluationError):
            continue
        worst = 0.0
        for ref, got in zip(refs, gots):
            worst = max(
                worst,
                float(np.linalg.norm(ref - got) / (1.0 + np.linalg.norm(ref))),
            )
        return worst
    raise NumericalFailureError("could not find sample points clear of the poles")
