from functools import partial
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm
from scipy.signal import place_poles

from helpers import (
    assign_stable_spectrum,
    ctnare_groups,
    greedy_groups_reference,
    random_pair,
    random_partitioned,
    random_theta,
)
from srtrkit import fixtures
from srtrkit.errors import (
    InvalidInputError,
    InvalidThetaError,
    KontrollerFormError,
    NoSolutionError,
    PreconditionError,
)
from srtrkit.factorization import (
    LcfOverS,
    RiccatiSolution,
    ThetaFactor,
    _greedy_groups,
    lcf_from_srtr,
    riccati_residual,
    solve_ctnare,
    srtr_from_lcf,
    to_kontroller_form,
    verify_lcf,
)
from srtrkit.linalg import eigenvalues, is_stable_spectrum
from srtrkit.srtr import SrtrPair, verify_srtr_identity
from srtrkit.systems import (
    PartitionedRealization,
    StateSpaceSystem,
    eval_tfm,
    is_minimal,
)


def ring_theta():
    return ThetaFactor(-np.eye(6), np.eye(6), np.eye(6), "continuous")


def ring_lcf():
    return lcf_from_srtr(fixtures.ring6_pair(), ring_theta())


def test_theta_validation():
    with pytest.raises(InvalidThetaError):
        ThetaFactor(np.eye(2), np.eye(2), np.eye(2), "continuous")  # unstable Ax
    with pytest.raises(InvalidThetaError):
        ThetaFactor(-np.eye(2), np.zeros((2, 2)), np.eye(2), "continuous")
    theta = ThetaFactor(-2.0 * np.eye(2), np.eye(2), np.eye(2), "continuous")
    assert np.allclose(eval_tfm(theta.system(), 1.0), np.eye(2) / 3.0)


def test_lcf_factorization_identity():
    pair = fixtures.ring6_pair()
    lcf = ring_lcf()
    for lam in (0.9 + 1.4j, -0.2 + 2.0j, 3.0):
        M, N = lcf.eval_mn(lam)
        G = pair.response(lam)
        assert np.allclose(np.linalg.solve(M, N), G, atol=1e-9 * (1 + np.linalg.norm(G)))


def test_realizations_are_built_once_and_read_only():
    pair = fixtures.ring6_pair()
    lcf = lcf_from_srtr(pair, ring_theta())
    theta = ring_theta()
    built = [
        (pair.base, "full_system"), (pair, "wv_system"), (lcf, "mn_system"),
        (lcf, "pole_matrix"), (theta, "system"),
    ]
    for obj, name in built:
        first = getattr(obj, name)()
        assert getattr(obj, name)() is first
        for M in [first] if name == "pole_matrix" else [first.A, first.B, first.C, first.D]:
            with pytest.raises(ValueError):
                M[0, 0] = 1.0
    for M in (pair.base.A, pair.base.B):
        with pytest.raises(ValueError):
            M[0, 0] = 1.0
    assert pair.base.A is pair.base.A and pair.base.B is pair.base.B
    assert np.shares_memory(pair.base.A, pair.base.full_system().A)
    assert lcf.pole_matrix() is lcf.mn_system().A
    # the arrays the objects were made from stay writable
    assert pair.base.A12.flags.writeable and pair.Aw.flags.writeable

def test_stacked_evaluation_matches_per_point_calls():
    pair = fixtures.ring6_pair()
    theta = ring_theta()
    lcf = lcf_from_srtr(pair, theta)
    lams = np.array([0.6 + 1.1j, 2.0 + 0.3j, -0.1 + 2.5j])
    for evaluate in (pair.response, partial(eval_tfm, pair.wv_system()), lcf.response,
                     partial(eval_tfm, theta.system()),
                     lambda lam: np.concatenate(lcf.eval_mn(lam), axis=-1)):
        stack = evaluate(lams)
        assert np.array_equal(stack, np.stack([evaluate(lam) for lam in lams]))

def test_lcf_pole_matrix_spectrum():
    pair = fixtures.ring6_pair()
    theta = ring_theta()
    lcf = lcf_from_srtr(pair, theta)
    got = np.sort_complex(eigenvalues(lcf.pole_matrix()))
    want = np.sort_complex(
        np.concatenate([eigenvalues(theta.Ax), eigenvalues(pair.Aw)])
    )
    assert np.allclose(got, want, atol=1e-8)
    assert is_stable_spectrum(lcf.pole_matrix(), "continuous")


def test_lcf_requires_stable_pair():
    hot = fixtures.scalar_class_pair(2.0)
    theta = ThetaFactor(-np.eye(1), np.eye(1), np.eye(1), "continuous")
    with pytest.raises(PreconditionError):
        lcf_from_srtr(hot, theta)


def test_verify_lcf_report():
    rep = verify_lcf(ring_lcf(), fixtures.ring6_pair())
    d = rep.as_dict()
    assert set(d) == {"stable", "identityResidual", "coprimeOverS"}
    assert d["stable"] is True
    assert d["coprimeOverS"] is True
    assert d["identityResidual"] < 1e-10


def test_verify_lcf_flags_unstable():
    lcf = ring_lcf()
    bent = LcfOverS(
        blocks=PartitionedRealization(
            lcf.blocks.A11,
            lcf.blocks.A12,
            lcf.blocks.A21,
            lcf.blocks.A22 + 20.0 * np.eye(6),
            lcf.blocks.B1,
            lcf.blocks.B2,
            domain="continuous",
        ),
        F1=lcf.F1,
        F2=lcf.F2,
        U=lcf.U,
    )
    assert not verify_lcf(bent).stable


def test_ctnare_scalar_two_solutions():
    # K(A11+F1) - K A12 K + (A21+F2) - A22 K = 0 with the blocks below is
    # -2k - k^2 + k = 0, so k = 0 or k = -1; both close the loop stably.
    blocks = PartitionedRealization(
        A11=np.array([[-2.0]]),
        A12=np.array([[1.0]]),
        A21=np.array([[0.0]]),
        A22=np.array([[-1.0]]),
        B1=np.array([[1.0]]),
        B2=np.array([[0.0]]),
        domain="continuous",
    )
    lcf = LcfOverS(blocks, np.zeros((1, 1)), np.zeros((1, 1)), np.eye(1))
    sol = solve_ctnare(lcf)
    k = sol.K[0, 0]
    assert min(abs(k - 0.0), abs(k - (-1.0))) < 1e-9
    assert sol.residual_norm < 1e-10
    assert np.all(sol.closed_spectrum.real < 0)
    assert riccati_residual(lcf, sol.K) < 1e-10


def test_ctnare_no_stabilizing_solution():
    # A11+F1 = +1 with A12 = 0 leaves the closed spectrum pinned at +1.
    blocks = PartitionedRealization(
        A11=np.array([[1.0]]),
        A12=np.array([[0.0]]),
        A21=np.array([[0.0]]),
        A22=np.array([[-1.0]]),
        B1=np.array([[1.0]]),
        B2=np.array([[0.0]]),
        domain="continuous",
    )
    lcf = LcfOverS(blocks, np.zeros((1, 1)), np.zeros((1, 1)), np.eye(1))
    with pytest.raises(NoSolutionError):
        solve_ctnare(lcf)


def test_ctnare_rejects_a_stable_subspace_past_the_cond_cap():
    # The stable subspace span{e1, e3 + 1e-12 e2} of the sign-flipped pole
    # matrix is its only one, and its top rows V1 have cond(V1) = 1e12.
    S = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1e-12], [0.0, 0.0, 1.0]])
    H = S @ np.diag([-1.0, 1.0, -2.0]) @ np.linalg.inv(S)
    blocks = PartitionedRealization(
        H[:2, :2], -H[:2, 2:], -H[2:, :2], H[2:, 2:], np.zeros((2, 1)), np.zeros((1, 1)),
        "continuous",
    )
    lcf = LcfOverS(blocks, np.zeros((2, 2)), np.zeros((1, 2)), np.eye(2))
    with pytest.raises(NoSolutionError, match="invertible, stabilizing V1") as info:
        solve_ctnare(lcf)
    assert info.value.best_cond == pytest.approx(1e12, rel=1e-3)


def _no_hidden_lcf(rng, domain, stable):
    """LcfOverS with q = 0 whose A11 + F1 has a conjugate pair and one real
    eigenvalue, in a random orthogonal basis; the real one is unstable when
    ``stable`` is False."""
    if domain == "continuous":
        a, b = -rng.uniform(0.3, 2.0), rng.uniform(0.5, 2.0)
        c = -rng.uniform(0.3, 2.0) if stable else rng.uniform(0.3, 2.0)
    else:
        a, b = rng.uniform(-0.6, 0.6), rng.uniform(0.1, 0.6)
        c = rng.uniform(-0.9, 0.9) if stable else rng.uniform(1.1, 2.0)
    T = np.array([[a, b, rng.normal()], [-b, a, rng.normal()], [0.0, 0.0, c]])
    Q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    A11 = rng.normal(size=(3, 3))
    blocks = PartitionedRealization(
        A11=A11, A12=np.zeros((3, 0)), A21=np.zeros((0, 3)), A22=np.zeros((0, 0)),
        B1=rng.normal(size=(3, 2)), B2=np.zeros((0, 2)), domain=domain,
    )
    return LcfOverS(blocks, Q @ T @ Q.T - A11, np.zeros((0, 3)), np.eye(3))


@pytest.mark.parametrize("domain", ["continuous", "discrete"])
@pytest.mark.parametrize("seed", range(4))
def test_ctnare_without_hidden_states(domain, seed):
    # q = 0: K is empty and the closed spectrum is eig(A11 + F1) itself
    rng = np.random.default_rng(seed)
    lcf = _no_hidden_lcf(rng, domain, stable=True)
    sol = solve_ctnare(lcf)
    assert sol.K.shape == (0, 3)
    want = eigenvalues(lcf.blocks.A11 + lcf.F1)
    assert np.array_equal(np.sort_complex(sol.closed_spectrum), np.sort_complex(want))
    assert sol.residual_norm == 0.0
    assert abs(sol.subspace_cond - 1.0) <= 1e-12
    with pytest.raises(NoSolutionError):
        solve_ctnare(_no_hidden_lcf(rng, domain, stable=False))


def test_ctnare_keeps_conjugate_pairs_whole():
    # The stable spectrum of [[A11+F1, -A12], [-(A21+F2), A22]] is -1 with
    # eigenvector e1, whose top block is the best single column, and the
    # pair -0.5 +- 2i. With p = 2, taking -1 first leaves one column that
    # only half a pair could fill, so the pair is the only solution.
    blocks = PartitionedRealization(
        A11=np.array([[-1.0, 0.7], [0.0, -0.5]]),
        A12=np.array([[-0.3], [-2.0]]),
        A21=np.array([[0.0, 2.0]]),
        A22=np.array([[-0.5]]),
        B1=np.eye(2),
        B2=np.zeros((1, 2)),
        domain="continuous",
    )
    lcf = LcfOverS(blocks, np.zeros((2, 2)), np.zeros((1, 2)), np.eye(2))
    sol = solve_ctnare(lcf)
    assert np.allclose(np.sort_complex(sol.closed_spectrum), [-0.5 - 2j, -0.5 + 2j])
    assert riccati_residual(lcf, sol.K) < 1e-12


@pytest.mark.parametrize("seed", range(20))
def test_ctnare_splits_coinciding_eigenvalues(seed):
    # Theta = -I puts -1 into the pole matrix three times and eig(Aw) =
    # {-1, -2, -3} once more, so the chosen invariant subspace must take
    # some copies of -1 and leave an equal one behind.
    rng = np.random.default_rng(seed)
    base = random_partitioned(rng, 3, 3, 2)
    pair = SrtrPair(base, assign_stable_spectrum(base.A22, base.A12, [-1.0, -2.0, -3.0]))
    theta = ThetaFactor(-np.eye(3), np.eye(3), np.eye(3), "continuous")
    lcf = lcf_from_srtr(pair, theta)
    sol = solve_ctnare(lcf)
    assert sol.residual_norm < 1e-8
    assert np.all(sol.closed_spectrum.real < 0)
    back = srtr_from_lcf(lcf, sol)
    for lam in (0.6 + 1.1j, 2.0 + 0.3j):
        want = pair.response(lam)
        assert np.linalg.norm(back.response(lam) - want) <= 1e-8 * np.linalg.norm(want)


def test_riccati_solution_dict():
    sol = RiccatiSolution(
        K=np.zeros((1, 1)),
        residual_norm=0.0,
        closed_spectrum=np.array([-1.0 + 0j]),
        subspace_cond=1.0,
    )
    d = sol.as_dict()
    assert set(d) == {"K", "residualNorm", "closedSpectrum", "subspaceCond"}
    assert d["closedSpectrum"] == [[-1.0, 0.0]]


@pytest.mark.parametrize("domain", ["continuous", "discrete"])
def test_riccati_residual_is_bit_identical_to_the_riccati_formula(domain):
    rng = np.random.default_rng(31)
    pair = random_pair(rng, 3, 3, 2, domain)
    lcf = lcf_from_srtr(pair, random_theta(3, rng, domain))
    K = solve_ctnare(lcf).K + 1e-3 * rng.normal(size=(3, 3))
    b = lcf.blocks
    Ap11, Ap21 = b.A11 + lcf.F1, b.A21 + lcf.F2
    R = K @ Ap11 - K @ b.A12 @ K + Ap21 - b.A22 @ K
    assert riccati_residual(lcf, K) == float(np.linalg.norm(R))
    assert riccati_residual(lcf, K) > 0.0


def test_sampled_checks_reject_empty_counts_and_negative_seeds():
    lcf = ring_lcf()
    pair = fixtures.ring6_pair()
    for kwargs in ({"n_samples": 0}, {"n_samples": -3}, {"seed": -1}):
        with pytest.raises(InvalidInputError):
            verify_lcf(lcf, pair, **kwargs)
        with pytest.raises(InvalidInputError):
            verify_srtr_identity(pair, **kwargs)


def test_ring_round_trip_is_exact():
    pair = fixtures.ring6_pair()
    lcf = ring_lcf()
    sol = solve_ctnare(lcf)
    assert sol.residual_norm < 1e-12
    back = srtr_from_lcf(lcf, sol)
    for name in ("Aw", "Bw", "Cw", "Dw"):
        assert np.allclose(
            getattr(back, name), getattr(pair, name), atol=1e-12
        ), name


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=0, max_value=10**6),
)
def test_round_trip_random_pairs(p, q, m, seed):
    rng = np.random.default_rng(seed)
    pair = random_pair(rng, p, q, m, stable=True)
    theta = random_theta(p, rng)
    lcf = lcf_from_srtr(pair, theta)
    sol = solve_ctnare(lcf)
    assert sol.residual_norm <= 1e-10 * (1 + np.linalg.norm(lcf.blocks.A))
    back = srtr_from_lcf(lcf, sol)
    for lam in (0.6 + 1.1j, 2.0 + 0.3j):
        a = pair.response(lam)
        b = back.response(lam)
        assert np.allclose(a, b, atol=1e-6 * (1 + np.linalg.norm(a)))


def test_round_trip_discrete():
    rng = np.random.default_rng(77)
    pair = random_pair(rng, 2, 2, 2, domain="discrete", stable=True)
    theta = random_theta(2, rng, domain="discrete")
    lcf = lcf_from_srtr(pair, theta)
    sol = solve_ctnare(lcf)
    assert np.all(np.abs(sol.closed_spectrum) < 1.0)
    back = srtr_from_lcf(lcf, sol)
    lam = 1.8 + 0.6j
    assert np.allclose(back.response(lam), pair.response(lam), atol=1e-7)


def test_srtr_from_lcf_rejects_bad_solution():
    lcf = ring_lcf()
    wrong_shape = RiccatiSolution(np.zeros((2, 2)), 0.0, np.zeros(0, dtype=complex), 1.0)
    with pytest.raises(Exception):
        srtr_from_lcf(lcf, wrong_shape)
    sol = solve_ctnare(lcf)
    unstable = RiccatiSolution(sol.K + 50.0, 0.0, sol.closed_spectrum, 1.0)
    with pytest.raises(PreconditionError):
        srtr_from_lcf(lcf, unstable)


def test_kontroller_form_from_minimal_system():
    rng = np.random.default_rng(13)
    n, p, m = 4, 2, 3
    A = rng.normal(size=(n, n)) * 0.4
    B = rng.normal(size=(n, m))
    C = rng.normal(size=(p, n))
    sys = StateSpaceSystem(A, B, C, np.zeros((p, m)), "continuous")
    # output injection that pushes A + F C into the left half plane
    F = -place_poles(A.T, C.T, [-1.0, -1.3, -1.6, -1.9]).gain_matrix.T
    U = np.eye(p) + 0.1 * rng.normal(size=(p, p))
    lcf = to_kontroller_form(sys, F, U)
    for lam in (0.5 + 0.8j, 1.4):
        direct = U + U @ C @ np.linalg.solve(lam * np.eye(n) - A - F @ C, F)
        ndirect = U @ C @ np.linalg.solve(lam * np.eye(n) - A - F @ C, B)
        M, N = lcf.eval_mn(lam)
        assert np.allclose(M, direct, atol=1e-8)
        assert np.allclose(N, ndirect, atol=1e-8)
    got = np.sort_complex(eigenvalues(lcf.pole_matrix()))
    assert np.allclose(got, np.sort_complex(np.array([-1.9, -1.6, -1.3, -1.0], dtype=complex)), atol=1e-7)


def test_kontroller_form_condition_errors():
    rng = np.random.default_rng(14)
    A = np.diag([1.0, 2.0])
    B = rng.normal(size=(2, 1))
    C = np.eye(2)
    sys = StateSpaceSystem(A, B, C, np.zeros((2, 1)), "continuous")
    with pytest.raises(KontrollerFormError) as info:
        to_kontroller_form(sys, np.zeros((2, 2)), np.eye(2))
    assert info.value.condition == "b"
    with pytest.raises(KontrollerFormError) as info:
        to_kontroller_form(sys, -5.0 * np.eye(2), np.zeros((2, 2)))
    assert info.value.condition == "a"


def test_eval_mn_matches_state_space():
    lcf = ring_lcf()
    lam = 0.3 + 0.9j
    stacked = np.hstack(lcf.eval_mn(lam))
    assert np.allclose(stacked, eval_tfm(lcf.mn_system(), lam), atol=1e-10)


def _kontroller_plant(rng, p, domain="continuous"):
    """Minimal plant with n = 2p states, p outputs and p inputs, an output
    injection F placing eig(A + F C) at distinct stable points, and an
    orthogonal U. Discrete plants are the continuous ones sampled at
    dt = 0.3 through expm."""
    n, dt = 2 * p, 0.3
    while True:
        A = rng.normal(size=(n, n)) / np.sqrt(n)
        B = rng.normal(size=(n, p))
        C = rng.normal(size=(p, n))
        poles = -np.linspace(0.5, 3.0, n) - rng.uniform(0.0, 0.1)
        if domain == "discrete":
            A, B, poles = expm(A * dt), B * dt, np.exp(poles * dt)
        sys = StateSpaceSystem(A, B, C, np.zeros((p, p)), domain)
        if not is_minimal(sys):
            continue
        F = assign_stable_spectrum(A, C, poles)
        if np.linalg.norm(F, 2) <= 50.0:
            U = np.linalg.qr(rng.normal(size=(p, p)))[0]
            return sys, F, U


def _exhaustive_subspace_cond(lcf):
    """Oracle: the smallest cond(V1) over every conjugate-closed p-subset of
    the stable eigenvalues of [[A11+F1, -A12], [-(A21+F2), A22]], where V1
    is the top p rows of the orthonormalized real basis of the subset's
    invariant subspace."""
    b, p = lcf.blocks, lcf.p
    H = np.block([[b.A11 + lcf.F1, -b.A12], [-(b.A21 + lcf.F2), b.A22]])
    w, V = np.linalg.eig(H)
    stable = np.abs(w) < 1.0 if lcf.domain == "discrete" else w.real < 0.0
    groups = []
    for i in np.flatnonzero(stable & (w.imag >= 0.0)):
        v = V[:, i]
        groups.append([v.real] if w[i].imag == 0.0 else [v.real, v.imag])
    best = np.inf
    for r in range(1, p + 1):
        for sel in combinations(groups, r):
            cols = [c for g in sel for c in g]
            if len(cols) == p:
                Q = np.linalg.qr(np.column_stack(cols))[0]
                best = min(best, np.linalg.cond(Q[:p]))
    return best


def _solve_plant(sys, F, U):
    lcf = to_kontroller_form(sys, F, U)
    sol = solve_ctnare(lcf)
    scale = 1.0 + np.linalg.norm(lcf.blocks.A)
    bound = 1e-12 * scale * (1.0 + np.linalg.norm(sol.K)) ** 2
    assert riccati_residual(lcf, sol.K) <= bound
    return lcf, sol


def _check_plant_solve(sys, F, U):
    lcf, sol = _solve_plant(sys, F, U)
    assert is_stable_spectrum(
        lcf.blocks.A11 + lcf.F1 - lcf.blocks.A12 @ sol.K, sys.domain
    )
    assert sol.subspace_cond <= 2.0 * _exhaustive_subspace_cond(lcf)
    back = srtr_from_lcf(lcf, sol)
    for lam in (0.6 + 1.1j, 2.0 + 0.3j, -0.1 + 2.5j):
        if sys.domain == "discrete":
            lam = 1.5 * lam / abs(lam)
        G = eval_tfm(sys, lam)
        assert np.allclose(back.response(lam), G, atol=1e-8 * (1 + np.linalg.norm(G)))
    return sol


def _stable_plant_lcf(rng, p, pairs):
    """Factorization of a plant with n = 2p states whose A is already
    stable, with spectrum -0.5 .. -3 in a random basis, so F = 0 and U = I
    are admissible. ``pairs`` couples the first p states two by two into
    conjugate pairs."""
    n = 2 * p
    D = np.diag(-np.linspace(0.5, 3.0, n))
    if pairs:
        for k in range(0, p - 1, 2):
            D[k, k + 1], D[k + 1, k] = 0.8, -0.8
    S = rng.normal(size=(n, n))
    sys = StateSpaceSystem(
        S @ D @ np.linalg.inv(S), rng.normal(size=(n, p)), rng.normal(size=(p, n)),
        np.zeros((p, p)), "continuous",
    )
    return to_kontroller_form(sys, np.zeros((n, p)), np.eye(p))


def test_greedy_groups_matches_per_candidate_loop():
    # Seeded plants at p = 3..12, with real eigenvalues only and with
    # conjugate pairs among them. Listing every group twice makes exact
    # ties, which the lower index must win.
    for p in range(3, 13):
        for pairs in (False, True):
            groups = ctnare_groups(_stable_plant_lcf(np.random.default_rng(700 + p), p, pairs))
            assert any(g.shape[1] == 2 for g in groups) == pairs
            picked = _greedy_groups(groups, p)
            assert picked is not None
            assert picked == greedy_groups_reference(groups, p)
            twice = groups + groups
            assert _greedy_groups(twice, p) == greedy_groups_reference(twice, p)


def test_greedy_groups_skips_a_group_that_leaves_p_unreachable():
    # The fixture of test_ctnare_keeps_conjugate_pairs_whole: the real
    # eigenvalue -1 scores best, but after it one column is left that only
    # half a pair could fill, so it is skipped and the pair is chosen.
    blocks = PartitionedRealization(
        A11=np.array([[-1.0, 0.7], [0.0, -0.5]]),
        A12=np.array([[-0.3], [-2.0]]),
        A21=np.array([[0.0, 2.0]]),
        A22=np.array([[-0.5]]),
        B1=np.eye(2),
        B2=np.zeros((1, 2)),
        domain="continuous",
    )
    groups = ctnare_groups(LcfOverS(blocks, np.zeros((2, 2)), np.zeros((1, 2)), np.eye(2)))
    assert sorted(g.shape[1] for g in groups) == [1, 2]
    pair = next(j for j, g in enumerate(groups) if g.shape[1] == 2)
    assert _greedy_groups(groups, 2) == greedy_groups_reference(groups, 2) == [pair]
    assert _greedy_groups(groups, 4) is None
    assert greedy_groups_reference(groups, 4) is None


@pytest.mark.parametrize("p", [3, 4, 5, 6])
def test_ctnare_kontroller_plants(p):
    # Plants through to_kontroller_form give a nontrivial Riccati equation:
    # K = 0 does not solve it, unlike every factorization from lcf_from_srtr.
    rng = np.random.default_rng(600 + p)
    for _ in range(2):
        sys, F, U = _kontroller_plant(rng, p)
        sol = _check_plant_solve(sys, F, U)
        assert np.linalg.norm(sol.K) > 1e-3


def test_ctnare_kontroller_plant_discrete():
    rng = np.random.default_rng(613)
    sys, F, U = _kontroller_plant(rng, 4, "discrete")
    sol = _check_plant_solve(sys, F, U)
    assert np.all(np.abs(sol.closed_spectrum) < 1.0)


def test_ctnare_kontroller_plant_p20():
    # far past the reach of a subset search: C(40, 20) is about 1.4e11.
    # A comes from a stable A + F C here, since pole placement at n = 40
    # takes seconds.
    p, n = 20, 40
    rng = np.random.default_rng(620)
    C = rng.normal(size=(p, n))
    F = rng.normal(size=(n, p)) / np.sqrt(n)
    A = rng.normal(size=(n, n)) / np.sqrt(n) - 2.0 * np.eye(n) - F @ C
    B = rng.normal(size=(n, p))
    sys = StateSpaceSystem(A, B, C, np.zeros((p, p)), "continuous")
    _solve_plant(sys, F, np.linalg.qr(rng.normal(size=(p, p)))[0])
