"""Shared random-model builders for the test suite.

Everything is driven by an explicit numpy Generator so tests stay
reproducible under fixed seeds.
"""

from __future__ import annotations

import numpy as np
import scipy.signal

from srtrkit import fixtures
from srtrkit.errors import NumericalFailureError
from srtrkit.factorization import ThetaFactor, _hamiltonian_like, _reachable
from srtrkit.linalg import (
    controllability_staircase,
    eigenvalues,
    in_stability_region,
    stability_distance,
    stability_margin,
)
from srtrkit.srtr import SrtrPair
from srtrkit.synthesis import mm_conditions
from srtrkit.systems import PartitionedRealization, StateSpaceSystem, is_minimal


def random_partitioned(rng, p, q, m, domain="continuous", max_tries=50):
    """Random output-normal base whose full system is minimal and whose
    (A22, A12) pair is observable, so gains can be placed on it."""
    n = p + q
    for _ in range(max_tries):
        scale = 1.0 / np.sqrt(max(n, 1))
        base = PartitionedRealization(
            A11=rng.normal(size=(p, p)) * scale,
            A12=rng.normal(size=(p, q)) * scale,
            A21=rng.normal(size=(q, p)) * scale,
            A22=rng.normal(size=(q, q)) * scale,
            B1=rng.normal(size=(p, m)),
            B2=rng.normal(size=(q, m)),
            domain=domain,
        )
        if not is_minimal(base.full_system()):
            continue
        if q > 0 and controllability_staircase(base.A22.T, base.A12.T)[1] < q:
            continue
        return base
    raise AssertionError("could not draw a usable random base")


def stable_targets(q, rng, domain="continuous"):
    if q == 0:
        return np.zeros(0)
    if domain == "continuous":
        vals = -np.linspace(0.8, 2.5, q) - rng.uniform(0.0, 0.1)
    else:
        vals = np.linspace(-0.7, 0.7, q) * 0.9 + rng.uniform(-0.02, 0.02)
        vals = np.clip(vals, -0.9, 0.9)
    return vals


def assign_stable_spectrum(A22, A12, poles):
    """Gain K with eig(A22 + K A12) at the requested locations.

    This is output-injection pole placement on the transposed pair; it needs
    (A22, A12) observable and pole multiplicities within the row count of
    A12.
    """
    A22 = np.asarray(A22, dtype=float)
    A12 = np.asarray(A12, dtype=float)
    if A22.shape[0] == 0:
        return np.zeros((0, A12.shape[0]))
    placed = scipy.signal.place_poles(A22.T, A12.T, np.sort(np.asarray(poles)))
    return -placed.gain_matrix.T


def stable_gain(base, rng):
    targets = stable_targets(base.q, rng, base.domain)
    return assign_stable_spectrum(base.A22, base.A12, targets)


def random_pair(rng, p, q, m, domain="continuous", stable=True):
    base = random_partitioned(rng, p, q, m, domain)
    if stable and q > 0:
        K = stable_gain(base, rng)
    else:
        K = rng.normal(size=(q, p))
    return SrtrPair(base, K)


def random_theta(p, rng, domain="continuous"):
    if domain == "continuous":
        ax = -np.linspace(1.0, 2.0, p) - rng.uniform(0.0, 0.2)
    else:
        ax = np.linspace(-0.5, 0.5, p) * 0.8 + rng.uniform(-0.05, 0.05)
    Bx = np.linalg.qr(rng.normal(size=(p, p)))[0]
    Cx = np.linalg.qr(rng.normal(size=(p, p)))[0]
    return ThetaFactor(np.diag(ax), Bx, Cx, domain)


def direct_sum_pairs(pairs):
    """Block-diagonal combination of SRTR pairs; keeps output-normal form
    after a permutation-free stacking of the partitions."""

    def blk(mats):
        return _blkdiag([np.atleast_2d(m) for m in mats])

    base = PartitionedRealization(
        A11=blk([p.base.A11 for p in pairs]),
        A12=blk([p.base.A12 for p in pairs]),
        A21=blk([p.base.A21 for p in pairs]),
        A22=blk([p.base.A22 for p in pairs]),
        B1=blk([p.base.B1 for p in pairs]),
        B2=blk([p.base.B2 for p in pairs]),
        domain=pairs[0].domain,
    )
    K = _blkdiag([p.K for p in pairs])
    return SrtrPair(base, K)


def _blkdiag(mats):
    rows = sum(m.shape[0] for m in mats)
    cols = sum(m.shape[1] for m in mats)
    out = np.zeros((rows, cols))
    r = c = 0
    for m in mats:
        out[r : r + m.shape[0], c : c + m.shape[1]] = m
        r += m.shape[0]
        c += m.shape[1]
    return out


def structured_pair(rng, block_sizes=(1, 2), domain="continuous"):
    """Pair with an exact block-diagonal coupling structure and the mask
    that encodes it."""
    parts = [
        random_pair(rng, b, b, b, domain=domain, stable=True) for b in block_sizes
    ]
    pair = direct_sum_pairs(parts)
    p = sum(block_sizes)
    mask = np.zeros((p, p), dtype=int)
    at = 0
    for b in block_sizes:
        mask[at : at + b, at : at + b] = 1
        at += b
    return pair, mask


def rotation(rng, n):
    """Haar-distributed orthogonal matrix."""
    Q, R = np.linalg.qr(rng.normal(size=(n, n)))
    return Q * np.sign(np.diag(R))


def rotate_hidden(pair, Q):
    """The same pair (W, V) in hidden coordinates x2 -> Q^T x2."""
    b = pair.base
    base = PartitionedRealization(
        A11=b.A11, A12=b.A12 @ Q, A21=Q.T @ b.A21, A22=Q.T @ b.A22 @ Q,
        B1=b.B1, B2=Q.T @ b.B2, domain=b.domain,
    )
    return SrtrPair(base, Q.T @ pair.K)


def shear_hidden(pair, K0):
    """The same pair (W, V) in hidden coordinates x2 -> x2 + K0 y: the base
    becomes (A11 - A12 K0, A12, A_K(K0), A22 + K0 A12, B1, K0 B1 + B2) and
    the known gain pair.K - K0."""
    b = pair.base
    at_K0 = SrtrPair(b, K0)
    base = PartitionedRealization(
        A11=b.A11 - b.A12 @ K0, A12=b.A12, A21=at_K0.A_K, A22=at_K0.Aw,
        B1=b.B1, B2=K0 @ b.B1 + b.B2, domain=b.domain,
    )
    return SrtrPair(base, pair.K - K0)


def block_network(rng, p, domain="continuous"):
    """Rotated block network: the direct sum of stable pairs with block
    sizes 1, 2, 1, 2, ... (p = q = m, p a multiple of 3), hidden
    coordinates rotated across all blocks. Returns the pair, its block
    mask and the block size of each row; row i of the controller has
    order 1 + its block size."""
    sizes = (1, 2) * (p // 3)
    pair, mask = structured_pair(rng, block_sizes=sizes, domain=domain)
    return rotate_hidden(pair, rotation(rng, p)), mask, [b for b in sizes for _ in range(b)]


def own_loop_move(row, i, v):
    """Add v to column 0 of A and subtract it from column i of B."""
    A, B = row.A.copy(), row.B.copy()
    A[:, 0] += v
    B[:, i] -= v
    return StateSpaceSystem(A, B, row.C, row.D, row.domain)


def planted_unreachable(rng, n_c, n_u, m, domain, stable):
    """Rotated (A, B) with a random reachable part of order n_c and an
    unreachable block of order n_u whose modes are all stable or all
    unstable; two unreachable modes form a conjugate pair."""
    if domain == "continuous":
        size = -rng.uniform(0.2, 2.0) if stable else rng.uniform(0.2, 2.0)
        pair = np.array([[size, 0.7], [-0.7, size]])
    else:
        size = rng.uniform(0.2, 0.9) if stable else rng.uniform(1.1, 2.0)
        pair = size * np.array([[0.6, 0.8], [-0.8, 0.6]])
    Au = pair if n_u == 2 else size * np.eye(n_u)
    A = np.block([
        [rng.normal(size=(n_c, n_c)), rng.normal(size=(n_c, n_u))],
        [np.zeros((n_u, n_c)), Au],
    ])
    B = np.vstack([rng.normal(size=(n_c, m)), np.zeros((n_u, m))])
    T = rotation(rng, n_c + n_u)
    return T @ A @ T.T, T @ B


def partitioned_base(A, B, p, domain="continuous"):
    """(A, B) as a partitioned base whose first p states are the outputs."""
    return PartitionedRealization(
        A11=A[:p, :p], A12=A[:p, p:], A21=A[p:, :p], A22=A[p:, p:],
        B1=B[:p], B2=B[p:], domain=domain,
    )


def pbh_holds(A, M, domain=None, dual=False, tol=1e-8):
    """Reference PBH rank test: [A - lam I, B] (or, with ``dual``, the
    stacked [A - lam I; C]) keeps full rank at every eigenvalue lam of A
    outside the stability region. With ``domain`` None every eigenvalue is
    tested, which is controllability (observability)."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    scale = 1.0 + np.linalg.norm(A, 2)
    for lam in np.linalg.eigvals(A):
        if domain is not None and in_stability_region(lam, domain):
            continue
        shifted = A - lam * np.eye(n)
        pencil = np.vstack([shifted, M]) if dual else np.hstack([shifted, M])
        if np.linalg.svd(pencil, compute_uv=False)[-1] <= tol * scale:
            return False
    return True


def exact_ring(rng, p, alpha, domain="continuous"):
    """p-node ring base on which first-order rows on the ring masks exist
    exactly, with every corner at ``alpha``.

    With L = (alpha I - A22) A12^{-1}, the masked-out entries of
    A11 - A12 L, A12 A_K(L) and A12 (L B1 + B2) are zeroed and A11, A21,
    A22, B2 rebuilt from them; then the hidden coordinates are rotated.
    Returns the base, the ring mask and the gain L.
    """
    eye = np.eye(p)
    shift = np.roll(eye, 1, axis=0)
    mask = (eye + shift).astype(int)
    A11 = -12.0 * eye + rng.normal(size=(p, p))
    A12 = 15.0 * rng.normal(size=(p, p))
    A21 = 0.3 * rng.normal(size=(p, p))
    A22 = 1.5 * rng.normal(size=(p, p)) - 3.0 * eye
    B1 = (-1.08 * eye + 15.8 * shift) * (1.0 + 0.1 * rng.normal(size=(p, p)))
    B2 = rng.normal(size=(p, p))
    L = (alpha * eye - A22) @ np.linalg.inv(A12)
    A11 = (A11 - A12 @ L) * mask + A12 @ L
    A_K = L @ A11 - L @ A12 @ L + A21 - A22 @ L
    A_K = np.linalg.solve(A12, (A12 @ A_K) * mask)
    B_K = np.linalg.solve(A12, (A12 @ (L @ B1 + B2)) * mask)
    A22 = alpha * eye - L @ A12
    base = PartitionedRealization(
        A11=A11, A12=A12, A21=A_K - L @ A11 + L @ A12 @ L + A22 @ L, A22=A22,
        B1=B1, B2=B_K - L @ B1, domain=domain,
    )
    pair = rotate_hidden(SrtrPair(base, L), rotation(rng, p))
    return pair.base, mask, pair.K


def conditions_reference(base, K, spec):
    """Reference condition rows, margins and row orders, one output row at a
    time on the staircase: row i keeps the first min(k, n_i) columns of
    ``controllability_staircase(Aw.T, a[:, None])`` (a = A12[i], k its
    reachable order) as its tail, and the rest as its head; condition 5 is
    the norm of the coupling tail Aw head^T, or ||a|| for a row cut to
    order 0, whose every state is dropped. Rows with a zero coupling vector
    get order 0."""
    pair = SrtrPair(base, K)
    p = base.p
    Wd = base.A11 - base.A12 @ pair.K
    AK = pair.A_K
    Bh = pair.K @ base.B1 + base.B2
    Aw = pair.Aw
    rows = np.zeros((p, 6))
    margins = np.full(p, np.inf)
    orders = np.zeros(p, dtype=int)
    for i in range(p):
        outW = spec.maskW[i] == 0
        outV = spec.maskV[i] == 0
        rows[i, 0] = np.max(np.abs(Wd[i, outW])) if outW.any() else 0.0
        rows[i, 1] = np.max(np.abs(base.B1[i, outV])) if outV.any() else 0.0
        a = base.A12[i]
        if not np.any(a):
            continue
        Z, k, _ = controllability_staircase(Aw.T, a[:, None])
        orders[i] = min(k, spec.orders[i])
        tail = Z[:, : orders[i]].T
        head = Z[:, orders[i] :].T
        TW = tail @ AK
        TV = tail @ Bh
        rows[i, 2] = np.max(np.abs(TW[:, outW]), initial=0.0)
        rows[i, 3] = np.max(np.abs(TV[:, outV]), initial=0.0)
        coupling = tail @ Aw @ head.T if orders[i] else a
        rows[i, 4] = float(np.linalg.norm(coupling, 2)) if coupling.size else 0.0
        eigs = eigenvalues(tail @ Aw @ tail.T)
        rows[i, 5] = max(
            (stability_distance(z, base.domain) for z in eigs), default=0.0
        )
        margins[i] = stability_margin(eigs, base.domain)
    return rows, margins, orders


def exact_ring_base():
    """Ring controller base on which the homogeneous structure holds exactly.

    The printed ring matrices carry four decimals, which leaves the masked
    residuals of every gain near 1e-4. This base keeps A12 and B1 as
    printed and fixes the homogeneous gain L = (alpha I - A22) A12^{-1} at
    alpha = -9.34, the common denominator of the printed rows. It then
    zeroes the masked-out entries that L leaves in A11 - A12 L, A12 A_K(L)
    and A12 (L B1 + B2), and rebuilds A11, A21 and B2 from them with
    A22 = alpha I - L A12. With first-order rows each row's Krylov tail is
    the direction of its row of A12, so the last two products are
    conditions 3 and 4.
    """
    printed = fixtures.ring6_controller_base()
    masks = fixtures.ring6_masks()
    alpha = -fixtures.RING6_EXPECTED_ROWS["W_local"]["den"][0]
    A12, B1 = printed.A12, printed.B1
    eye = np.eye(printed.q)
    L = (alpha * eye - printed.A22) @ np.linalg.inv(A12)
    A11 = (printed.A11 - A12 @ L) * masks.maskW + A12 @ L
    A_K = SrtrPair(printed, L).A_K
    A_K = np.linalg.solve(A12, (A12 @ A_K) * masks.maskW)
    B_K = np.linalg.solve(A12, (A12 @ (L @ B1 + printed.B2)) * masks.maskV)
    A22 = alpha * eye - L @ A12
    exact = PartitionedRealization(
        A11=A11,
        A12=A12,
        A21=A_K - L @ A11 + L @ A12 @ L + A22 @ L,
        A22=A22,
        B1=B1,
        B2=B_K - L @ B1,
        domain=printed.domain,
    )
    _check_exact_ring_base(exact, printed)
    return exact


def _check_exact_ring_base(exact, printed):
    """Keep the exact base tied to the printed ring problem: A12 and B1
    unchanged, every other entry within the 4-decimal rounding scale, and
    the zero gain failing the masks so a solver has work to do."""
    for name in ("A12", "B1"):
        if not np.array_equal(getattr(exact, name), getattr(printed, name)):
            raise AssertionError(f"exact ring base changed the printed {name}")
    for name in ("A11", "A21", "A22", "B2"):
        dev = float(np.max(np.abs(getattr(exact, name) - getattr(printed, name))))
        if dev > 2e-4:
            raise AssertionError(f"exact ring base moves {name} by {dev:.2e}")
    zero = np.zeros((printed.q, printed.p))
    if mm_conditions(exact, zero, fixtures.ring6_spec(orders=1), tol=1e-6).passed:
        raise AssertionError("exact ring base already meets the masks at K = 0")


def ctnare_groups(lcf):
    """The column groups that ``solve_ctnare`` scores: the real eigenvector
    of each stable real eigenvalue of the sign-flipped pole matrix, and the
    real and imaginary parts of one eigenvector of each stable pair."""
    w, V = np.linalg.eig(_hamiltonian_like(lcf))
    return [
        np.column_stack([V[:, i].real] + ([V[:, i].imag] if w[i].imag else []))
        for i in np.flatnonzero(w.imag >= 0.0)
        if in_stability_region(w[i], lcf.domain)
    ]


def greedy_groups_reference(blocks, p):
    """Oracle for ``factorization._greedy_groups``: the same greedy choice,
    one QR and one SVD per candidate group at each step, keeping the first
    group in index order with the strictly largest score."""
    if not blocks:
        return None
    chosen = []
    Q = np.zeros((blocks[0].shape[0], 0))
    while Q.shape[1] < p:
        left = [j for j in range(len(blocks)) if j not in chosen]
        singles = sum(blocks[j].shape[1] == 1 for j in left)
        pairs = len(left) - singles
        best = None
        for j in left:
            width = blocks[j].shape[1]
            need = p - Q.shape[1] - width
            if not _reachable(need, singles - (width == 1), pairs - (width == 2)):
                continue
            Qj = np.linalg.qr(np.hstack([Q, blocks[j]]))[0]
            with np.errstate(divide="ignore"):
                score = float(np.sum(np.log(np.linalg.svd(Qj[:p], compute_uv=False))))
            if best is None or score > best[0]:
                best = (score, j, Qj)
        if best is None:
            return None
        chosen.append(best[1])
        Q = best[2]
    return chosen


def sample_complex_points_reference(
    poles, count, seed=0, radius=2.0, min_distance=0.1, max_draws=200
):
    """Oracle for ``linalg.sample_complex_points``: one candidate per pair
    of scalar draws, tested against the poles and the points taken so far
    one at a time."""
    poles = np.atleast_1d(np.asarray(poles, dtype=complex))
    center = poles.mean() if poles.size else 0.0 + 0.0j
    rng = np.random.default_rng(seed)
    picked = []
    r = radius
    draws = 0
    while len(picked) < count:
        if draws >= max_draws:
            r *= 2.0
            draws = 0
            if r > 1e6:
                raise NumericalFailureError(
                    "could not place sample points away from the poles"
                )
        z = center + r * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
        draws += 1
        if poles.size and np.min(np.abs(poles - z)) < min_distance:
            continue
        if picked and min(abs(z - w) for w in picked) < 1e-6:
            continue
        picked.append(z)
    return np.array(picked)


def csv_reference(traj):
    """Oracle for ``Trajectory.to_csv``: the header, then every row written
    by Python's ``%`` with one ``%.12g`` per value."""
    cols = [
        ("x", traj.x), ("r", traj.r), ("w", traj.w), ("zeta", traj.zeta),
        ("du", traj.du), ("u", traj.u), ("y", traj.y), ("z", traj.z),
        ("v", traj.v),
    ]
    header = ["t"]
    for name, arr in cols:
        header.extend(f"{name}{i}" for i in range(arr.shape[1]))
    data = np.hstack([traj.t[:, None]] + [arr for _, arr in cols])
    row = ",".join(["%.12g"] * data.shape[1]) + "\n"
    return ",".join(header) + "\n" + "".join(row % tuple(vals) for vals in data.tolist())


def forcing_reference(cl, signals, horizon, dt=1e-3):
    """Oracle for the input's share of each step of ``loop.simulate``:
    returns Phi and the rows g_k of x_{k+1} = Phi x_k + g_k, summed channel
    by channel from each channel's own products with its samples, which
    are taken one time point at a time."""
    from srtrkit.loop import _step_matrices

    dims = {"r": cl.m, "w": cl.p, "zeta": cl.m, "du": cl.p}
    continuous = cl.domain == "continuous"
    steps = int(round(horizon / dt)) if continuous else int(horizon)
    t = np.arange(steps + 1) * dt if continuous else np.arange(steps + 1.0)

    def samples(fn, times, dim):
        return np.array([np.broadcast_to(np.ravel(fn(tk)), dim) for tk in times]).reshape(-1, dim)

    G = np.zeros((steps, cl.n))
    if continuous:
        Phi, (W0, Wm, W1) = _step_matrices(cl.Acl, dt)
    else:
        Phi = cl.Acl
    for c, fn in signals.items():
        B = getattr(cl, "B_" + c)
        S = samples(fn, t, dims[c])
        if continuous:
            mid = samples(fn, t[:-1] + dt / 2, dims[c])
            G += S[:-1] @ (W0 @ B).T + mid @ (Wm @ B).T + S[1:] @ (W1 @ B).T
        else:
            G += S[:-1] @ B.T
    return Phi, G
