"""Checks made apart from the program, with numpy and scipy only.

Transfer functions come from direct solves of (lam I - A)^{-1} B at seeded
points; the pair blocks, the factorization, the Riccati residual and the
mask conditions are recomputed here from their definitions; responses are
compared with matrix exponentials.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
from numpy.polynomial import polynomial as P

# Printed first-order ring rows, ascending coefficients; "local" is the
# node's own column, "prev" its ring predecessor's. Every other entry is 0.
PRINTED_RING_ROWS = {
    "W_local": ([-55.9, -5.255], [9.34, 1.0]),
    "W_prev": ([-15.84, 0.0], [9.34, 1.0]),
    "V_local": ([-94.28, -1.078], [9.34, 1.0]),
    "V_prev": ([-15.84, 15.84], [9.34, 1.0]),
}


def rel(a, b) -> float:
    """Relative Frobenius distance of a from the reference b."""
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)) / np.linalg.norm(b))


def tf(A, B, C, D, lam) -> np.ndarray:
    """C (lam I - A)^{-1} B + D by a direct solve."""
    A = np.asarray(A, dtype=float)
    if A.shape[0] == 0:
        return np.asarray(D, dtype=complex)
    X = np.linalg.solve(lam * np.eye(A.shape[0]) - A, np.asarray(B, dtype=complex))
    return np.asarray(C) @ X + np.asarray(D)


def clear_points(points, poles, gap: float = 0.05) -> list[complex]:
    """Move each sample point up the imaginary axis until it is at least
    ``gap`` (relative) away from every pole."""
    poles = np.asarray(poles, dtype=complex).ravel()
    out = []
    for lam in points:
        lam = complex(lam)
        while poles.size and np.min(np.abs(poles - lam)) < gap * (1.0 + abs(lam)):
            lam += 0.37j
        out.append(lam)
    return out


def sample_points(rng, count: int) -> list[complex]:
    return list(rng.uniform(0.3, 2.0, count) + 1j * rng.uniform(-4.0, 4.0, count))


# -- pairs and factorizations ----------------------------------------------

def base_system(b: dict):
    p, q = b["A11"].shape[0], b["A22"].shape[0]
    A = np.block([[b["A11"], b["A12"]], [b["A21"], b["A22"]]])
    B = np.vstack([b["B1"], b["B2"]])
    C = np.hstack([np.eye(p), np.zeros((p, q))])
    return A, B, C, np.zeros((p, B.shape[1]))


def wv_system(b: dict, K):
    """[W V] as one realization: with hidden state x2 + K y,
    W = A11 - A12 K + A12 (lam - Aw)^{-1} A_K, V = B1 + A12 (lam - Aw)^{-1}
    (K B1 + B2), Aw = A22 + K A12, A_K = K A11 - K A12 K + A21 - A22 K."""
    K = np.asarray(K, dtype=float)
    Aw = b["A22"] + K @ b["A12"]
    A_K = K @ b["A11"] - K @ b["A12"] @ K + b["A21"] - b["A22"] @ K
    Bw = np.hstack([A_K, K @ b["B1"] + b["B2"]])
    Dw = np.hstack([b["A11"] - b["A12"] @ K, b["B1"]])
    return Aw, Bw, b["A12"], Dw


def pair_response(b: dict, K, lam) -> np.ndarray:
    """(lam I - W(lam))^{-1} V(lam)."""
    p = b["A11"].shape[0]
    wv = tf(*wv_system(b, K), lam)
    return np.linalg.solve(lam * np.eye(p) - wv[:, :p], wv[:, p:])


def pair_poles(b: dict, K) -> np.ndarray:
    A, _, _, _ = base_system(b)
    return np.concatenate([np.linalg.eigvals(A), np.linalg.eigvals(wv_system(b, K)[0])])


def same_pair_residual(b1: dict, K1, b2: dict, K2, points) -> float:
    """Worst relative gap between the [W V] of two pairs."""
    pts = clear_points(points, np.concatenate([pair_poles(b1, K1), pair_poles(b2, K2)]))
    return max(rel(tf(*wv_system(b1, K1), lam), tf(*wv_system(b2, K2), lam)) for lam in pts)


def response_residual(b: dict, K, G, points) -> float:
    """Worst relative gap between the pair's response (lam I - W)^{-1} V
    and G given as (A, B, C, D): the pair identity when G is the pair's own
    base, the round trip when G is the system the trip started from."""
    pts = clear_points(points, np.concatenate([pair_poles(b, K), np.linalg.eigvals(G[0])]))
    return max(rel(pair_response(b, K, lam), tf(*G, lam)) for lam in pts)


def nrf_residual(phi, gamma, G, points) -> float:
    """Worst relative gap between (I - Phi)^{-1} Gamma and G, with the
    entries of Phi and Gamma given as (num, den) ascending coefficients.
    A nonzero diagonal of Phi fails the check outright."""
    def evaluate(entries, lam):
        return np.array([[P.polyval(lam, num) / P.polyval(lam, den) for num, den in row]
                         for row in entries])

    worst = 0.0
    for lam in clear_points(points, np.linalg.eigvals(G[0])):
        Phi, Gam = evaluate(phi, lam), evaluate(gamma, lam)
        if np.any(np.diag(Phi) != 0):
            return float("inf")
        resp = np.linalg.solve(np.eye(Phi.shape[0]) - Phi, Gam)
        worst = max(worst, rel(resp, tf(*G, lam)))
    return worst


def lcf_pole_matrix(lcf: dict) -> np.ndarray:
    return np.block([[lcf["A11"] + lcf["F1"], lcf["A12"]],
                     [lcf["A21"] + lcf["F2"], lcf["A22"]]])


def lcf_response(lcf: dict, lam) -> np.ndarray:
    """M(lam)^{-1} N(lam) with [M N] = [U 0] + [U 0] (lam I - Ap)^{-1}
    [[F1, B1], [F2, B2]]."""
    p, q = lcf["A11"].shape[0], lcf["A22"].shape[0]
    m = lcf["B1"].shape[1]
    U = lcf["U"]
    Bmn = np.block([[lcf["F1"], lcf["B1"]], [lcf["F2"], lcf["B2"]]])
    Cmn = np.hstack([U, np.zeros((p, q))])
    Dmn = np.hstack([U, np.zeros((p, m))])
    mn = tf(lcf_pole_matrix(lcf), Bmn, Cmn, Dmn, lam)
    return np.linalg.solve(mn[:, :p], mn[:, p:])


def lcf_residual(lcf: dict, G, points) -> float:
    """Worst relative gap between M^{-1} N and G = (A, B, C, D)."""
    poles = np.concatenate([np.linalg.eigvals(lcf_pole_matrix(lcf)), np.linalg.eigvals(G[0])])
    pts = clear_points(points, poles)
    return max(rel(lcf_response(lcf, lam), tf(*G, lam)) for lam in pts)


def riccati_residual(lcf: dict, K) -> float:
    """Relative residual of K(A11+F1) - K A12 K + (A21+F2) - A22 K = 0,
    scaled by the sizes of its four terms."""
    P11 = lcf["A11"] + lcf["F1"]
    P21 = lcf["A21"] + lcf["F2"]
    A12, A22 = lcf["A12"], lcf["A22"]
    R = K @ P11 - K @ A12 @ K + P21 - A22 @ K
    n = np.linalg.norm
    scale = n(K) * n(P11) + n(K) ** 2 * n(A12) + n(P21) + n(A22) * n(K)
    return float(n(R) / scale) if scale > 0 else 0.0


def closed_spectrum(lcf: dict, K) -> np.ndarray:
    return np.linalg.eigvals(lcf["A11"] + lcf["F1"] - lcf["A12"] @ K)


def max_real(M) -> float:
    return float(np.max(np.linalg.eigvals(M).real))


def same_spectrum(a, b) -> float:
    """Worst relative distance between two sorted spectra."""
    a = np.sort_complex(np.asarray(a, dtype=complex))
    b = np.sort_complex(np.asarray(b, dtype=complex))
    if a.shape != b.shape:
        return float("inf")
    return float(np.max(np.abs(a - b)) / (1.0 + np.max(np.abs(b))))


# -- synthesis ----------------------------------------------------------------

def first_order_mask_residual(b: dict, K, maskW, maskV) -> float:
    """Largest residual of the six row conditions for first-order rows.

    With order 1 the kept hidden direction of row i is t = A12[i] / |A12[i]|:
    conditions 1-4 zero the masked-out entries of A11 - A12 K, B1, t A_K and
    t (K B1 + B2); condition 5 is the coupling |t Aw (I - t^T t)|; condition
    6 is how far the corner t Aw t^T sits outside the open left half-plane.
    """
    K = np.asarray(K, dtype=float)
    Aw, Bw, _, Dw = wv_system(b, K)
    p = b["A11"].shape[0]
    q = Aw.shape[0]
    worst = 0.0
    for i in range(p):
        outW, outV = maskW[i] == 0, maskV[i] == 0
        t = b["A12"][i] / np.linalg.norm(b["A12"][i])
        terms = [Dw[i, :p][outW], Dw[i, p:][outV], (t @ Bw[:, :p])[outW], (t @ Bw[:, p:])[outV]]
        worst = max([worst] + [float(np.max(np.abs(v))) for v in terms if v.size])
        worst = max(worst, float(np.linalg.norm(t @ Aw @ (np.eye(q) - np.outer(t, t)))))
        worst = max(worst, float(t @ Aw @ t))
    return worst


def row_tf_residual(row, b: dict, K, i: int, points) -> float:
    """Worst relative gap between a reduced row (A, B, C, D) and row i of
    [W V]."""
    wv = wv_system(b, K)
    pts = clear_points(points, np.concatenate([np.linalg.eigvals(wv[0]), np.linalg.eigvals(row[0])]))
    return max(rel(tf(*row, lam), tf(*wv, lam)[i:i + 1]) for lam in pts)


def controller_row_residual(row, b: dict, K, i: int, points) -> float:
    """Worst relative gap between a controller row and lam^{-1} [W V] row i."""
    wv = wv_system(b, K)
    poles = np.concatenate([np.linalg.eigvals(wv[0]), np.linalg.eigvals(row[0]), [0.0]])
    pts = clear_points(points, poles)
    return max(rel(tf(*row, lam), tf(*wv, lam)[i:i + 1] / lam) for lam in pts)


def printed_ring_deviation(rows) -> float:
    """Worst relative deviation of first-order ring rows (A, B, C, D) from
    the printed coefficients; zero entries are measured against the row's
    largest printed coefficient."""
    p = len(rows)
    worst = 0.0
    for i, (A, B, C, D) in enumerate(rows):
        a = float(A[0, 0])
        c = float(C[0, 0])
        den = [-a, 1.0]
        prev = (i - 1) % p
        where = {"W_local": i, "W_prev": prev, "V_local": p + i, "V_prev": p + prev}
        scale = max(abs(v) for num, d in PRINTED_RING_ROWS.values() for v in num + d)
        for j in range(B.shape[1]):
            num = [c * B[0, j] - a * D[0, j], D[0, j]]
            name = next((k for k, col in where.items() if col == j), None)
            if name is None:
                worst = max(worst, max(abs(v) for v in num) / scale)
                continue
            enum, eden = PRINTED_RING_ROWS[name]
            for got, want in zip(num + den, enum + eden):
                dev = abs(got - want) / (abs(want) if want else scale)
                worst = max(worst, dev)
    return worst


# -- loop ---------------------------------------------------------------------

def free_response_residual(Acl, x0, horizon: float, x_end) -> float:
    """Gap between the simulated end state and expm(horizon Acl) x0,
    relative to |x0|."""
    exact = scipy.linalg.expm(horizon * np.asarray(Acl)) @ x0
    return float(np.linalg.norm(np.asarray(x_end) - exact) / np.linalg.norm(x0))


def exosystem(waves: dict, order: list[str], inputs: dict):
    """Loop augmented with the sinusoid generators: channel c adds the
    state (sin(w t + phi), cos(w t + phi)) and feeds amp * sin into
    ``inputs[c]``. Returns the augmented matrix and the initial
    generator state."""
    blocks, col, start = [], [], []
    for name in order:
        w = waves[name]
        om = w["omega"]
        blocks.append(np.array([[0.0, om], [-om, 0.0]]))
        col.append(np.column_stack([inputs[name] @ w["amp"], np.zeros(inputs[name].shape[0])]))
        start += [np.sin(w["phi"]), np.cos(w["phi"])]
    S = scipy.linalg.block_diag(*blocks)
    return np.hstack(col), S, np.array(start)


def driven_response_residual(Acl, feed, S, e0, x0, times, states) -> float:
    """Worst gap between simulated states at ``times`` and the exponential
    of the augmented loop, relative to the larger of |x_exact| and |x0|."""
    n = Acl.shape[0]
    aug = np.block([[Acl, feed], [np.zeros((S.shape[0], n)), S]])
    z0 = np.concatenate([x0, e0])
    worst = 0.0
    for t, x in zip(times, states):
        exact = (scipy.linalg.expm(t * aug) @ z0)[:n]
        scale = max(np.linalg.norm(exact), np.linalg.norm(x0))
        worst = max(worst, float(np.linalg.norm(np.asarray(x) - exact) / scale))
    return worst
