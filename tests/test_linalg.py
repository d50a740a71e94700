import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import pbh_holds, planted_unreachable, rotation, sample_complex_points_reference
from srtrkit.errors import InvalidInputError, NumericalFailureError, PoleEvaluationError
from srtrkit.linalg import (
    DOMAINS,
    auto_rank_tol,
    check_tolerance,
    column_staircases,
    controllability_staircase,
    eigenvalues,
    in_stability_region,
    is_stabilizable,
    is_stable_spectrum,
    rank_with_tolerance,
    sample_complex_points,
    sampled_residual,
    stability_distance,
    stability_margin,
    zero_entries,
)
from srtrkit.systems import StateSpaceSystem, is_minimal


def test_stability_region_is_open():
    assert in_stability_region(-0.1, "continuous")
    assert not in_stability_region(0.0, "continuous")
    assert not in_stability_region(1j, "continuous")
    assert in_stability_region(0.5j, "discrete")
    assert not in_stability_region(np.exp(1j), "discrete")
    assert not in_stability_region(-1.0, "discrete")


def test_stability_distance_values():
    assert stability_distance(np.array([-2.0]), "continuous") == 0.0
    assert stability_distance(np.array([3.0 + 1j]), "continuous") == 3.0
    assert stability_distance(np.array([0.5]), "discrete") == 0.0
    assert stability_distance(np.array([2.0]), "discrete") == pytest.approx(1.0)


def test_stability_margin_values():
    assert stability_margin(np.array([-2.0, -0.5]), "continuous") == pytest.approx(0.5)
    assert stability_margin(np.array([0.3, -0.8]), "discrete") == pytest.approx(0.2)
    assert stability_margin(np.zeros(0, dtype=complex), "continuous") == np.inf


def test_stability_predicates_on_stacks():
    rng = np.random.default_rng(12)
    stack = rng.normal(size=(4, 3, 5, 5))
    eigs = eigenvalues(stack)
    assert eigs.shape == (4, 3, 5)
    assert eigenvalues(np.zeros((2, 0, 0))).shape == (2, 0)
    for domain in DOMAINS:
        dist = stability_distance(eigs, domain)
        margin = stability_margin(eigs, domain)
        assert dist.shape == (4, 3, 5) and margin.shape == (4, 3)
        for a in range(4):
            for b in range(3):
                assert margin[a, b] == stability_margin(eigs[a, b], domain)
                one = [stability_distance(z, domain) for z in eigs[a, b]]
                assert list(dist[a, b]) == one


# points on and next to the boundary of both regions, and the membership
# each region gives them
BOUNDARY = np.array([0.0, 1e-300, -1e-300, 1j, -1j, -1.0, 0.6 + 0.8j])
INSIDE = {
    "continuous": [False, False, True, False, False, True, False],
    "discrete": [True, True, True, False, False, False, False],
}


@pytest.mark.parametrize("domain", DOMAINS)
def test_region_predicates_share_one_rule_on_the_boundary(domain):
    inside = in_stability_region(BOUNDARY, domain)
    margin = stability_margin(BOUNDARY[:, None], domain)
    dist = stability_distance(BOUNDARY, domain)
    assert inside.tolist() == INSIDE[domain]
    for k, z in enumerate(BOUNDARY):
        for point in (z, complex(z)):
            one = in_stability_region(point, domain)
            assert type(one) is bool and one == inside[k]
        assert inside[k] == (margin[k] > 0.0)
        assert dist[k] == max(-margin[k], 0.0)
        assert dist[k] == stability_distance(z, domain)
        if z.imag == 0.0:
            assert is_stable_spectrum(np.diag([z.real]), domain) == inside[k]
    real = BOUNDARY.imag == 0.0
    assert is_stable_spectrum(np.diag(BOUNDARY[real & inside].real), domain)
    assert not is_stable_spectrum(np.diag(BOUNDARY[real].real), domain)


def test_is_stable_spectrum():
    assert is_stable_spectrum(np.diag([-1.0, -2.0]), "continuous")
    assert not is_stable_spectrum(np.diag([-1.0, 0.0]), "continuous")
    assert is_stable_spectrum(np.diag([0.5, -0.5]), "discrete")
    assert not is_stable_spectrum(np.diag([1.0]), "discrete")


def test_eigenvalues_empty_and_errors():
    assert eigenvalues(np.zeros((0, 0))).shape == (0,)
    with pytest.raises(Exception):
        eigenvalues(np.zeros((2, 3)))


def test_rank_with_tolerance():
    M = np.outer([1.0, 2.0, 3.0], [1.0, -1.0])
    assert rank_with_tolerance(M) == 1
    assert rank_with_tolerance(np.eye(3)) == 3
    assert rank_with_tolerance(np.zeros((2, 2))) == 0
    assert auto_rank_tol(M) > 0
    assert auto_rank_tol(M, np.linalg.svd(M, compute_uv=False)) == auto_rank_tol(M)


def test_sampled_residual_redraws_failed_points():
    poles = np.array([-1.0, 2.0j, -2.0j])
    first = sample_complex_points(poles, 3, seed=5)
    second = sample_complex_points(poles, 3, seed=6)

    def evaluate(lams):
        if any(lam in first for lam in lams):
            raise np.linalg.LinAlgError("singular")
        ones = np.ones_like(lams)
        ref = np.stack([lams, ones], axis=-1)[:, None, :]
        return ref, np.stack([lams, ones + 1e-3], axis=-1)[:, None, :]

    got = sampled_residual(evaluate, poles, 3, seed=5)
    want = max(1e-3 / (1.0 + np.hypot(abs(z), 1.0)) for z in second)
    assert got == pytest.approx(want, rel=1e-12)
    with pytest.raises(NumericalFailureError):
        sampled_residual(_fail, poles, 3)


def test_sampled_residual_redraws_points_near_a_pole():
    poles = np.array([-1.0, 2.0j, -2.0j])
    first = sample_complex_points(poles, 3, seed=0)
    calls = []

    def evaluate(lams):
        calls.append(lams)
        if len(calls) == 1:
            raise PoleEvaluationError(f"evaluation point {lams[0]} is too close to a pole")
        return lams[:, None], lams[:, None]

    assert sampled_residual(evaluate, poles, 3) == 0.0
    assert np.array_equal(calls[0], first)
    assert np.array_equal(calls[1], sample_complex_points(poles, 3, seed=1))


@pytest.mark.parametrize("count,seed", [(0, 0), (-3, 0), (5, -1)])
def test_sampled_residual_rejects_checks_that_sample_nothing(count, seed):
    calls = []
    with pytest.raises(InvalidInputError):
        sampled_residual(calls.append, np.zeros(0), count, seed)
    assert calls == []


def _fail(lams):
    raise NumericalFailureError("no room")


def _unreached_block(A, B):
    Z, k, _ = controllability_staircase(A, B)
    assert np.allclose(Z.T @ Z, np.eye(A.shape[0]), atol=1e-12)
    return k, Z[:, k:].T @ A @ Z[:, k:]


def test_staircase_controllable_and_not():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    assert controllability_staircase(A, B)[1] == 2
    k, unreached = _unreached_block(A, np.array([[1.0], [0.0]]))
    assert k == 1 and np.allclose(unreached, 0.0)
    # (A^T, B) can lose rank only at lam = 0, never at lam = 1
    k, unreached = _unreached_block(A.T, B)
    assert k == 1 and np.allclose(unreached, 0.0)


def test_staircase_observable_dual():
    A = np.diag([1.0, 2.0])
    C = np.array([[1.0, 0.0]])
    # the mode at 1 is seen, the mode at 2 is not
    k, unseen = _unreached_block(A.T, C.T)
    assert k == 1 and np.allclose(unseen, [[2.0]])


def test_staircase_stabilizable_and_detectable():
    A = np.diag([-1.0, 2.0])
    B_good = np.array([[0.0], [1.0]])
    B_bad = np.array([[1.0], [0.0]])
    assert is_stabilizable(A, B_good, "continuous")
    assert not is_stabilizable(A, B_bad, "continuous")
    C = np.array([[0.0, 1.0]])
    assert is_stabilizable(A.T, C.T, "continuous")


def test_staircase_empty_and_zero_input():
    assert controllability_staircase(np.zeros((0, 0)), np.zeros((0, 2)))[1] == 0
    assert controllability_staircase(-np.eye(3), np.zeros((3, 1)))[1] == 0
    assert is_stabilizable(-np.eye(3), np.zeros((3, 1)), "continuous")
    assert not is_stabilizable(np.eye(3), np.zeros((3, 1)), "continuous")


def test_staircase_margin_decides_k():
    # the mode at 2 is reached through a coupling of size about eps; the
    # margin is that decisive value over max(||A||, ||B||), so it crosses
    # the 1e-9 cut exactly where k drops, and scaling (A, B) leaves it
    A = np.diag([1.0, 2.0])
    for eps, k_want in ((1e-6, 2), (1e-12, 1), (0.0, 1)):
        B = np.array([[1.0], [eps]])
        _, k, margin = controllability_staircase(A, B)
        assert k == k_want
        assert (margin > 1e-9) == (k == 2)
        scaled = controllability_staircase(10.0 * A, 10.0 * B)[2]
        assert scaled == pytest.approx(margin, rel=1e-9, abs=1e-15)
    assert controllability_staircase(np.zeros((0, 0)), np.zeros((0, 1)))[2] == np.inf
    assert controllability_staircase(-np.eye(3), np.zeros((3, 0)))[2] == 0.0


@pytest.mark.parametrize("domain", DOMAINS)
@pytest.mark.parametrize("seed", range(12))
def test_staircase_agrees_with_pbh_oracle(domain, seed):
    rng = np.random.default_rng(4100 + seed)
    n_c, n_u = int(rng.integers(1, 5)), int(rng.integers(0, 3))
    m = int(rng.integers(1, 3))
    stable = seed % 2 == 0
    A, B = planted_unreachable(rng, n_c, n_u, m, domain, stable)
    n = n_c + n_u
    assert controllability_staircase(A, B)[1] == n_c
    assert is_stabilizable(A, B, domain) == pbh_holds(A, B, domain) == (stable or n_u == 0)
    # the transposed pair has the planted modes unobservable
    Ao, Co = A.T, B.T
    assert is_stabilizable(Ao.T, Co.T, domain) == pbh_holds(Ao, Co, domain, dual=True)
    C = rng.normal(size=(2, n))
    sys = StateSpaceSystem(A, B, C, np.zeros((2, m)), domain)
    assert is_minimal(sys) == (pbh_holds(A, B) and pbh_holds(A, C, dual=True))
    assert is_minimal(sys) == (n_u == 0)
    dual = StateSpaceSystem(Ao, C.T, Co, np.zeros((m, 2)), domain)
    assert is_minimal(dual) == (pbh_holds(Ao, C.T) and pbh_holds(Ao, Co, dual=True))


def _agrees_with_single_column(A, b, V, k):
    """V's first k columns are orthonormal and the rest zero, and k and the
    span of the first k columns are those of controllability_staircase on
    the one-column pair (A, b)."""
    Zr, kr, _ = controllability_staircase(A, b[:, None])
    assert k == kr
    assert np.allclose(V[:, :k].T @ V[:, :k], np.eye(k), atol=1e-12)
    assert not np.any(V[:, k:])
    V, W = V[:, :k], Zr[:, :kr]
    assert np.linalg.norm(V - W @ (W.T @ V)) <= 1e-10


@pytest.mark.parametrize("domain", DOMAINS)
@pytest.mark.parametrize("n_u", [0, 1, 2])
def test_column_staircases_match_single_column_staircase(domain, n_u):
    # a stack of pairs with no planted mode, a real one or a conjugate pair,
    # then the same stack in rotated coordinates: every k and reachable span
    # agrees with the one-column staircase, and rotation maps span to span
    rng = np.random.default_rng(4200 + 3 * n_u + DOMAINS.index(domain))
    pairs = [planted_unreachable(rng, 4, n_u, 1, domain, seed % 2 == 0) for seed in range(6)]
    A = np.array([a for a, _ in pairs])
    b = np.array([bb[:, 0] for _, bb in pairs])
    V, k, _ = column_staircases(A, b)
    assert V.shape == (6, 4 + n_u, 4) and list(k) == [4] * 6
    for i in range(6):
        _agrees_with_single_column(A[i], b[i], V[i], k[i])
    Q = rotation(rng, 4 + n_u)
    Vq, kq, _ = column_staircases(Q @ A @ Q.T, b @ Q.T)
    assert np.array_equal(kq, k)
    for i in range(6):
        _agrees_with_single_column(Q @ A[i] @ Q.T, Q @ b[i], Vq[i], kq[i])
        V1, W = Vq[i], Q @ V[i]
        assert np.linalg.norm(V1 - W @ (W.T @ V1)) <= 1e-10


def test_column_staircases_broadcast_empty_and_zero_column():
    rng = np.random.default_rng(4300)
    A = rng.normal(size=(5, 5))
    b = rng.normal(size=(3, 5))
    b[1] = 0.0
    V, k, _ = column_staircases(A, b)
    assert V.shape == (3, 5, 5) and list(k) == [5, 0, 5]
    assert not np.any(V[1])
    for i in range(3):
        _agrees_with_single_column(A, b[i], V[i], k[i])
    # a stack of two matrices against the three columns
    stack = np.array([A, np.diag([1.0, 2.0, 3.0, 4.0, 5.0])])[:, None]
    V, k, _ = column_staircases(stack, b)
    assert V.shape == (2, 3, 5, 5) and k.shape == (2, 3)
    for a in range(2):
        for i in range(3):
            _agrees_with_single_column(stack[a, 0], b[i], V[a, i], k[a, i])
    # three matrices against a stack of two columns: no two pairs share a
    # matrix in the stack's layout
    V, k, _ = column_staircases(stack[:, 0][[0, 1, 0]], b[[0, 2]][:, None])
    assert V.shape == (2, 3, 5, 5) and k.shape == (2, 3)
    for a in range(2):
        for i in range(3):
            _agrees_with_single_column(stack[i % 2, 0], b[2 * a], V[a, i], k[a, i])
    V, k, _ = column_staircases(np.zeros((0, 0)), np.zeros((4, 0)))
    assert V.shape == (4, 0, 0) and list(k) == [0] * 4


def _capped_layouts(rng):
    """(A, b) stacks in the three layouts of the sweep: one matrix for
    every column (G = 1), one matrix per column (M = 1), and columns shared
    by a stack of matrices. Reachable orders 4 of 6, full and 0: a zero
    column and one 1e-12 of the data's size."""
    pairs = [planted_unreachable(rng, 4, 2, 3, "continuous", True) for _ in range(3)]
    A = np.array([a for a, _ in pairs])
    b = np.vstack([pairs[0][1].T, rng.normal(size=(1, 6)), np.zeros((1, 6))])
    b[2] *= 1e-12
    yield A[0], b
    yield A, np.array([bb[:, 0] for _, bb in pairs])
    yield A[:, None], b


@pytest.mark.parametrize("steps", [0, 1, 2, 4, 5, 6, 9])
def test_column_staircases_step_cap_and_last_direction(steps):
    # a capped sweep is the uncapped one cut at the cap, and its last
    # direction is the next Arnoldi direction (I - V V^T) A v_{k-1}: the one
    # below the cut, the one the cap left, b itself at order 0, zero at n
    rng = np.random.default_rng(4500)
    # nonzero columns at order 0: the 1e-12 one, in 1 + 3 pairs of the G = 1
    # and shared layouts; at cap 0, all 19 nonzero ones
    below = 0
    for A, b in _capped_layouts(rng):
        V, k, x = column_staircases(A, b)
        Vs, ks, xs = column_staircases(A, b, steps=steps)
        assert np.array_equal(ks, np.minimum(k, steps))
        assert np.array_equal(Vs, V[..., : Vs.shape[-1]])
        stack = ks.shape
        As = np.broadcast_to(A, stack + (6, 6))
        bs = np.broadcast_to(b, stack + (6,))
        for i in np.ndindex(stack):
            Vi = Vs[i][:, : ks[i]]
            if ks[i] == 0:
                assert np.array_equal(xs[i], bs[i])
                below += bool(bs[i].any())
            elif ks[i] == 6:
                assert not np.any(xs[i])
            else:
                want = As[i] @ Vi[:, -1]
                want -= Vi @ (Vi.T @ want)
                np.testing.assert_allclose(xs[i], want, rtol=0, atol=1e-12)
            if ks[i] == k[i]:
                assert np.array_equal(xs[i], x[i])
    assert below == (4 if steps else 19)
    with pytest.raises(InvalidInputError, match="step cap"):
        column_staircases(A, b, steps=-1)


def test_column_staircases_decide_by_the_exact_norm_between_its_bounds():
    # ||A||_2 = 1 lies strictly between the largest column norm and the
    # Frobenius norm; over a fine grid of cuts, some Arnoldi norms fall on
    # either side of tol * ||A||_2 within those bounds, and every k still
    # equals the staircase's, which scales by ||A||_2 itself
    rng = np.random.default_rng(4400)
    Q = rotation(rng, 4)
    A = Q @ np.diag([1.0, 0.9, 0.8, 0.7]) @ Q.T
    b = 0.01 * rng.normal(size=4)
    lo = np.max(np.linalg.norm(A, axis=0))
    hi = np.linalg.norm(A)
    assert lo < 0.99 and hi > 1.5
    R = np.abs(np.diag(np.linalg.qr(np.column_stack(
        [np.linalg.matrix_power(A, j) @ b for j in range(4)]))[1]))
    steps = np.concatenate([R[:1], R[1:] / R[:-1]])
    below = above = 0
    for tol in np.geomspace(1e-5, 1.0, 300):
        k = column_staircases(A, b, tol)[1]
        assert k == controllability_staircase(A, b[:, None], tol)[1]
        below += np.count_nonzero((steps > tol * lo) & (steps <= tol))
        above += np.count_nonzero((steps > tol) & (steps <= tol * hi))
    assert below > 0 and above > 0


def test_zero_entries_follow_reachable_subspaces():
    # input 0 reaches state 0 only; input 1 reaches state 1, which state 2
    # then follows; output 0 reads state 0, output 1 reads state 2
    A = np.array([[-1.0, 0.0, 0.0], [0.0, -2.0, 0.0], [0.0, 1.0, -3.0]])
    B = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    C = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    D = np.array([[0.0, 0.0], [0.0, 0.0]])
    assert np.array_equal(zero_entries(A, B, C, D), [[False, True], [True, False]])
    D[0, 1] = 0.5
    assert np.array_equal(zero_entries(A, B, C, D), [[False, False], [True, False]])
    Q = rotation(np.random.default_rng(5), 3)
    assert np.array_equal(
        zero_entries(Q @ A @ Q.T, Q @ B, C @ Q.T, D), [[False, False], [True, False]]
    )


def test_sample_complex_points_avoids_poles():
    poles = np.array([0.0 + 0.0j, 1.0 + 1.0j])
    pts = sample_complex_points(poles, 12, seed=3, min_distance=0.2)
    assert len(pts) == 12
    for z in pts:
        assert np.min(np.abs(z - poles)) >= 0.2
    again = sample_complex_points(poles, 12, seed=3, min_distance=0.2)
    assert np.allclose(pts, again)



def test_sample_complex_points_matches_per_draw_loop():
    rng = np.random.default_rng(11)
    grew = 0
    for seed in range(8):
        poles = rng.normal(size=6) + 1j * rng.normal(size=6)
        for count, min_distance, max_draws in ((5, 0.1, 200), (12, 0.4, 200), (4, 3.0, 7)):
            kwargs = dict(seed=seed, min_distance=min_distance, max_draws=max_draws)
            got = sample_complex_points(poles, count, **kwargs)
            want = sample_complex_points_reference(poles, count, **kwargs)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            # a point outside the first square [-2, 2]^2 about the center
            # means the disk grew
            grew += np.max(np.abs(got - poles.mean())) > 2.0 * np.sqrt(2.0)
    assert grew > 0
    empty = sample_complex_points([], 6, seed=2)
    assert empty.tobytes() == sample_complex_points_reference([], 6, seed=2).tobytes()
    with pytest.raises(NumericalFailureError):
        sample_complex_points(poles, 3, min_distance=1e7)
    with pytest.raises(NumericalFailureError):
        sample_complex_points_reference(poles, 3, min_distance=1e7)

def test_sample_complex_points_take_the_first_draw_only_when_it_is_spread(monkeypatch):
    # the points equal the one-by-one oracle's, also when a candidate of the
    # first draw sits within 1e-6 of one taken before it and is skipped
    rng = np.random.default_rng(12)
    for seed in range(200):
        poles = rng.normal(size=4) + 1j * rng.normal(size=4)
        count = 1 + seed % 7
        got = sample_complex_points(poles, count, seed=seed)
        want = sample_complex_points_reference(poles, count, seed=seed)
        assert got.tobytes() == want.tobytes()
    draw = np.random.default_rng(5).uniform(-1, 1, size=400)
    draw[2:4] = draw[0:2] + 1e-8  # candidate 1 sits within 1e-6 of candidate 0

    class Replay:
        def __init__(self, seed):
            self.values = iter(np.tile(draw, 2))

        def uniform(self, low, high, size=None):
            if size is None:
                return next(self.values)
            return np.array([next(self.values) for _ in range(size)])

    monkeypatch.setattr(np.random, "default_rng", Replay)
    got = sample_complex_points([], 3)
    assert got.tobytes() == sample_complex_points_reference([], 3).tobytes()
    z = 2.0 * (draw[0::2] + 1j * draw[1::2])
    assert np.array_equal(got, z[[0, 2, 3]])


def test_sample_complex_points_dense_pole_set_still_works():
    rng = np.random.default_rng(0)
    poles = rng.normal(size=40) + 1j * rng.normal(size=40)
    pts = sample_complex_points(poles, 8, seed=1, min_distance=0.05)
    assert len(pts) == 8


BAD_TOLS = [np.nan, np.inf, -np.inf, -1.0, -1e-300]


@pytest.mark.parametrize("tol", BAD_TOLS)
def test_cuts_must_be_finite_and_at_least_0(tol):
    rng = np.random.default_rng(3)
    A, B = rng.normal(size=(4, 4)), rng.normal(size=(4, 2))
    C, D = rng.normal(size=(3, 4)), np.zeros((3, 2))
    for call in (
        lambda: check_tolerance(tol),
        lambda: controllability_staircase(A, B, tol),
        lambda: column_staircases(A, B.T, tol),
        lambda: zero_entries(A, B, C, D, tol),
        lambda: is_minimal(StateSpaceSystem(A, B, C, D), tol),
    ):
        with pytest.raises(InvalidInputError, match="must be finite and at least 0"):
            call()


def test_cut_0_and_none_are_accepted():
    rng = np.random.default_rng(3)
    A, B = rng.normal(size=(4, 4)), rng.normal(size=(4, 2))
    assert check_tolerance(0) == 0.0
    assert controllability_staircase(A, B, 0.0)[1] == 4
    assert controllability_staircase(A, B, None)[1] == 4
    assert np.array_equal(column_staircases(A, B.T, None)[1], [4, 4])
