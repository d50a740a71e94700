"""Seeded inputs, built with numpy and scipy only.

srtrkit receives the matrices made here and nothing else. Every generator
takes a numpy Generator, so one seed gives the same inputs every time.
"""

from __future__ import annotations

import numpy as np
import scipy.signal

RING_ALPHA = -9.34  # common denominator root of the printed ring rows
# Draws whose placed gain exceeds this are redrawn: a nearly unobservable
# (A22, A12) pair needs a huge gain, and the round trip then loses digits
# to the input's conditioning, not to the method.
MAX_GAIN = 50.0


def rotation(rng, n: int) -> np.ndarray:
    """Haar-distributed orthogonal matrix."""
    Q, R = np.linalg.qr(rng.normal(size=(n, n)))
    return Q * np.sign(np.diag(R))


def _pbh_ok(A, M, observe: bool, tol: float = 1e-8) -> bool:
    """PBH rank test at every eigenvalue of A: [lam I - A, B] (or its
    transpose form with C) keeps full rank."""
    n = A.shape[0]
    scale = 1.0 + np.linalg.norm(A, 2)
    for lam in np.linalg.eigvals(A):
        pencil = lam * np.eye(n) - A
        S = np.vstack([pencil, M]) if observe else np.hstack([pencil, M])
        if np.linalg.svd(S, compute_uv=False)[-1] <= tol * scale:
            return False
    return True


def is_minimal(A, B, C) -> bool:
    return _pbh_ok(A, B, observe=False) and _pbh_ok(A, C, observe=True)


def place_injection(A22, A12, poles) -> np.ndarray:
    """Gain K with eig(A22 + K A12) at ``poles``."""
    placed = scipy.signal.place_poles(A22.T, A12.T, np.sort(poles))
    return -placed.gain_matrix.T


def _random_base(rng, p: int, q: int, m: int) -> dict:
    """Partitioned base (C = [I 0]) that is minimal and whose (A22, A12)
    pair is observable, so output injection can place Aw."""
    n = p + q
    C = np.hstack([np.eye(p), np.zeros((p, q))])
    while True:
        A = rng.normal(size=(n, n)) / np.sqrt(n)
        B = rng.normal(size=(n, m))
        if is_minimal(A, B, C) and _pbh_ok(A[p:, p:], A[:p, p:], observe=True):
            return {"A11": A[:p, :p], "A12": A[:p, p:], "A21": A[p:, :p],
                    "A22": A[p:, p:], "B1": B[:p], "B2": B[p:]}


def _rotate_hidden(base: dict, K, Q) -> tuple[dict, np.ndarray]:
    """Change hidden coordinates x2 -> Q^T x2; the transfer matrix and the
    pair (W, V) do not change."""
    out = {
        "A11": base["A11"], "A12": base["A12"] @ Q, "A21": Q.T @ base["A21"],
        "A22": Q.T @ base["A22"] @ Q, "B1": base["B1"], "B2": Q.T @ base["B2"],
    }
    return out, Q.T @ K


def _placed_pair(rng, b: int) -> tuple[dict, np.ndarray]:
    """Random b = q = m base with a gain of norm at most MAX_GAIN placing
    eig(Aw) at distinct real points."""
    while True:
        base = _random_base(rng, b, b, b)
        targets = -np.linspace(0.8, 2.5, b) - rng.uniform(0.0, 0.1)
        if b == 1:
            K = (targets[:, None] - base["A22"]) / base["A12"]
        else:
            K = place_injection(base["A22"], base["A12"], targets)
        if np.linalg.norm(K, 2) <= MAX_GAIN:
            return base, K


def stable_pair(rng, p: int) -> tuple[dict, np.ndarray]:
    """Random p = q = m pair with eig(Aw) placed at distinct real points,
    hidden coordinates rotated."""
    base, K = _placed_pair(rng, p)
    return _rotate_hidden(base, K, rotation(rng, p))


def theta(rng, p: int) -> dict:
    """Stable shaping factor with distinct real poles."""
    ax = -np.linspace(1.0, 2.0, p) - rng.uniform(0.0, 0.2)
    return {"Ax": np.diag(ax), "Bx": rotation(rng, p), "Cx": rotation(rng, p)}


def kontroller_plant(rng, p: int) -> dict:
    """Minimal plant with n = 2p states and p outputs, an output injection F
    placing eig(A + F C) at distinct real points, and an orthogonal U."""
    n = 2 * p
    while True:
        A = rng.normal(size=(n, n)) / np.sqrt(n)
        B = rng.normal(size=(n, p))
        C = rng.normal(size=(p, n))
        if not is_minimal(A, B, C):
            continue
        poles = -np.linspace(0.5, 3.0, n) - rng.uniform(0.0, 0.1)
        F = place_injection(A, C, poles)
        if np.linalg.norm(F, 2) <= MAX_GAIN:
            return {"A": A, "B": B, "C": C, "F": F, "U": rotation(rng, p)}


def ring_mask(p: int) -> np.ndarray:
    """Node i sees itself and its ring predecessor i - 1."""
    return (np.eye(p) + np.roll(np.eye(p), 1, axis=0)).astype(int)


def exact_ring(rng, p: int) -> tuple[dict, np.ndarray, np.ndarray]:
    """p-node ring base on which the homogeneous structure holds exactly.

    Scales follow the printed six-node data. With L = (alpha I - A22)
    A12^{-1}, the masked-out entries of A11 - A12 L, A12 A_K(L) and
    A12 (L B1 + B2) are zeroed and A11, A21, A22, B2 rebuilt from them, so
    first-order rows on the ring masks exist; then the hidden coordinates
    are rotated. Returns the base, the ring mask and the gain L in the
    rotated coordinates.
    """
    mask = ring_mask(p)
    eye = np.eye(p)
    shift = np.roll(eye, 1, axis=0)
    A11 = -12.0 * eye + rng.normal(size=(p, p))
    A12 = 15.0 * rng.normal(size=(p, p))
    A21 = 0.3 * rng.normal(size=(p, p))
    A22 = 1.5 * rng.normal(size=(p, p)) - 3.0 * eye
    B1 = (-1.08 * eye + 15.8 * shift) * (1.0 + 0.1 * rng.normal(size=(p, p)))
    B2 = rng.normal(size=(p, p))
    L = (RING_ALPHA * eye - A22) @ np.linalg.inv(A12)
    A11 = (A11 - A12 @ L) * mask + A12 @ L
    A_K = L @ A11 - L @ A12 @ L + A21 - A22 @ L
    A_K = np.linalg.solve(A12, (A12 @ A_K) * mask)
    B_K = np.linalg.solve(A12, (A12 @ (L @ B1 + B2)) * mask)
    A22 = RING_ALPHA * eye - L @ A12
    base = {
        "A11": A11, "A12": A12, "A21": A_K - L @ A11 + L @ A12 @ L + A22 @ L,
        "A22": A22, "B1": B1, "B2": B_K - L @ B1,
    }
    base, L = _rotate_hidden(base, L, rotation(rng, p))
    return base, mask, L


def block_family(rng, p: int) -> tuple[dict, np.ndarray, np.ndarray, list[int]]:
    """Direct sum of stable pairs with block sizes 1, 2, 1, 2, ... (p = q,
    p a multiple of 3), hidden coordinates rotated across all blocks.

    Returns the base, the gain, the block mask and the block size of each
    row; row i of the controller has order 1 + its block size.
    """
    sizes = [1, 2] * (p // 3)
    parts = [_placed_pair(rng, b) for b in sizes]

    def blkdiag(mats):
        out = np.zeros((sum(m.shape[0] for m in mats), sum(m.shape[1] for m in mats)))
        r = c = 0
        for m in mats:
            out[r:r + m.shape[0], c:c + m.shape[1]] = m
            r += m.shape[0]
            c += m.shape[1]
        return out

    base = {k: blkdiag([b[k] for b, _ in parts]) for k in parts[0][0]}
    K = blkdiag([k for _, k in parts])
    mask = blkdiag([np.ones((b, b)) for b in sizes]).astype(int)
    row_blocks = [b for b in sizes for _ in range(b)]
    base, K = _rotate_hidden(base, K, rotation(rng, p))
    return base, K, mask, row_blocks


def sinusoids(rng, channels: dict[str, int]) -> dict[str, dict]:
    """One sinusoid a sin(omega t + phi) per exogenous channel."""
    return {
        name: {
            "amp": rng.uniform(0.2, 1.0, dim) * rng.choice([-1.0, 1.0], dim),
            "omega": float(rng.uniform(0.5, 3.0)),
            "phi": float(rng.uniform(0.0, 2 * np.pi)),
        }
        for name, dim in channels.items()
    }
