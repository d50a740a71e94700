import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    block_network,
    partitioned_base,
    pbh_holds,
    planted_unreachable,
    random_pair,
    random_partitioned,
    rotate_hidden,
    rotation,
    structured_pair,
)
from srtrkit import fixtures, jsonio, srtr
from srtrkit.errors import DimensionError, InvalidInputError, PoleEvaluationError
from srtrkit.jsonio import _rational_to_dict
from srtrkit.linalg import DOMAINS, sample_complex_points
from srtrkit.rational import siso_rational
from srtrkit.srtr import (
    SrtrPair,
    check_flcf,
    nrf_from_srtr,
    sparsity_pattern,
    srtr_is_stable,
    verify_srtr_identity,
)
from srtrkit.systems import eval_tfm


def scalar_pair(k):
    return fixtures.scalar_class_pair(k)


def test_scalar_family_closed_form():
    # base (A11, A12, A21, A22, B1, B2) = (-1, 1, 0, -1, 1, 0) with gain k
    # gives W = -((k+1) lam + 1)/(lam + 1 - k), V = (lam + 1)/(lam + 1 - k);
    # the sample points stay away from the pole at k - 1
    for k in (0.0, 0.4, -0.7, 2.0):
        pair = scalar_pair(k)
        for lam in (0.25, 2.7, 0.5 + 2.0j, -3.3):
            den = lam + 1 - k
            W = eval_tfm(pair.wv_system(), lam)[0, 0]
            V = eval_tfm(pair.wv_system(), lam)[0, 1]
            assert W == pytest.approx(-((k + 1) * lam + 1) / den, rel=1e-10)
            assert V == pytest.approx((lam + 1) / den, rel=1e-10)


def test_scalar_family_k_zero_is_constant():
    pair = scalar_pair(0.0)
    for lam in (0.3, -2.0, 1.5j):
        assert eval_tfm(pair.wv_system(), lam)[0, 0] == pytest.approx(-1.0)
        assert eval_tfm(pair.wv_system(), lam)[0, 1] == pytest.approx(1.0)
    assert verify_srtr_identity(pair) < 1e-12


def test_block_formulas_against_definition():
    rng = np.random.default_rng(11)
    base = random_partitioned(rng, 2, 3, 2)
    K = rng.normal(size=(3, 2))
    pair = SrtrPair(base, K)
    assert np.allclose(pair.Aw, base.A22 + K @ base.A12)
    expected_ak = (
        K @ base.A11 - K @ base.A12 @ K + base.A21 - base.A22 @ K
    )
    assert np.allclose(pair.A_K, expected_ak)
    assert np.allclose(pair.Bw, np.hstack([expected_ak, K @ base.B1 + base.B2]))
    assert np.allclose(pair.Cw, base.A12)
    assert np.allclose(pair.Dw, np.hstack([base.A11 - base.A12 @ K, base.B1]))


def test_gain_shape_checked():
    rng = np.random.default_rng(1)
    base = random_partitioned(rng, 2, 2, 1)
    with pytest.raises(DimensionError):
        SrtrPair(base, np.zeros((3, 2)))


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=10**6),
)
def test_identity_holds_for_any_gain(p, q, m, seed):
    rng = np.random.default_rng(seed)
    pair = random_pair(rng, p, q, m, stable=False)
    assert verify_srtr_identity(pair, seed=seed % 97) < 1e-8


def test_identity_discrete_domain():
    rng = np.random.default_rng(5)
    pair = random_pair(rng, 2, 2, 2, domain="discrete", stable=True)
    assert verify_srtr_identity(pair) < 1e-8
    assert srtr_is_stable(pair)


def test_stability_flag_tracks_aw():
    pair = scalar_pair(0.5)  # Aw = -1 + 0.5 = -0.5, stable
    assert srtr_is_stable(pair)
    hot = scalar_pair(2.0)  # Aw = 1, unstable
    assert not srtr_is_stable(hot)
    bank = fixtures.integrator_bank_pair(3)
    assert srtr_is_stable(bank)  # q = 0: no dynamics to destabilize


def test_integrator_bank_response():
    pair = fixtures.integrator_bank_pair(2)
    lam = 0.7 + 0.4j
    wv = eval_tfm(pair.wv_system(), lam)
    assert np.allclose(wv[:, :2], np.zeros((2, 2)), atol=1e-12)
    assert np.allclose(wv[:, 2:], np.eye(2), atol=1e-12)
    assert np.allclose(pair.response(lam), np.eye(2) / lam)


def test_nrf_zero_diagonal_and_closure():
    rng = np.random.default_rng(21)
    pair = random_pair(rng, 3, 3, 2, stable=True)
    nrf = nrf_from_srtr(pair)
    for i in range(3):
        assert nrf.Phi[i][i].is_zero()
        for fn in list(nrf.Phi[i]) + list(nrf.Gamma[i]):
            assert fn.is_zero() or fn.num_degree < fn.den_degree
    for lam in (0.5 + 0.8j, -1.1 + 0.2j):
        phi = nrf.eval_phi(lam)
        gam = nrf.eval_gamma(lam)
        G = pair.response(lam)
        closed = np.linalg.solve(np.eye(3) - phi, gam)
        assert np.allclose(closed, G, atol=1e-8 * (1 + np.linalg.norm(G)))


def test_nrf_scalar_class():
    # The scalar family has p = 1, so Phi must vanish and Gamma must equal G.
    # Gamma = V / (lam - W) = (lam + 1) / (lam + 1)^2 for every k: the common
    # root is pruned in state space, so Gamma has degree 1.
    for k in (0.3, 0.0, -0.7, 2.0):
        pair = scalar_pair(k)
        nrf = nrf_from_srtr(pair)
        assert nrf.Phi[0][0].is_zero()
        lam = 1.7
        g = nrf.Gamma[0][0]
        assert g(lam) == pytest.approx(pair.response(lam)[0, 0], rel=1e-9)
        assert np.allclose(g.num, [1.0]) and np.allclose(g.den, [1.0, 1.0])


def test_nrf_ring_closure_at_criterion_8_points():
    # criterion 8 samples the ring at four points clear of Aw's poles
    # (seed 0); the normalized form's rows close the loop to rounding
    ring = fixtures.ring6_pair()
    nrf = nrf_from_srtr(ring)
    for lam in sample_complex_points(np.linalg.eigvals(ring.Aw), 4, seed=0):
        G = ring.response(lam)
        closed = np.linalg.solve(np.eye(ring.p) - nrf.eval_phi(lam), nrf.eval_gamma(lam))
        assert np.linalg.norm(closed - G) / (1 + np.linalg.norm(G)) < 1e-12


def test_nrf_response_on_array_matches_pointwise():
    rng = np.random.default_rng(22)
    pair, _ = structured_pair(rng, block_sizes=(1, 2, 1))
    nrf = nrf_from_srtr(pair)
    lams = np.array([0.3 + 1.1j, -0.4 + 0.2j, 2.0, 1.5j])
    stacked = nrf.response(lams)
    assert stacked.shape == (lams.size, pair.p, pair.m)
    for lam, G in zip(lams, stacked):
        assert np.allclose(G, nrf.response(lam), rtol=1e-14, atol=0.0)
    want = pair.response(lams)
    assert np.linalg.norm(stacked - want) <= 1e-8 * np.linalg.norm(want)


def test_nrf_padded_rows_add_no_pole_at_origin():
    # rows of orders 2 and 3 share one zero-padded stack; the padded states
    # must not put a pole at lam = 0, a regular point in discrete time
    rng = np.random.default_rng(23)
    pair, _ = structured_pair(rng, block_sizes=(1, 2, 1), domain="discrete")
    nrf = nrf_from_srtr(pair)
    assert len(set(nrf.order.tolist())) > 1
    for lam in (1e-9, 1e-9j, 0.0):
        G = pair.response(lam)
        assert np.linalg.norm(nrf.response(lam) - G) <= 1e-12 * np.linalg.norm(G)


def test_nrf_zero_entries_share_one_read_only_constant():
    # every identically zero entry is the one shared zero function, whose
    # arrays cannot be written, and it writes the JSON that siso_rational
    # gives an entry of order 0
    pair, _, _ = block_network(np.random.default_rng(7115), 15)
    nrf = nrf_from_srtr(pair)
    pat = sparsity_pattern(nrf)
    zero = ~np.hstack([pat.maskW, pat.maskV]).astype(bool)
    np.fill_diagonal(zero, True)
    entries = np.hstack([nrf.Phi, nrf.Gamma])
    assert zero.sum() > entries.size // 2
    for fn, is_zero in zip(entries.ravel(), zero.ravel()):
        assert (fn is srtr._ZERO_ENTRY) == is_zero
    for arr in (srtr._ZERO_ENTRY.num, srtr._ZERO_ENTRY.den):
        with pytest.raises(ValueError):
            arr[0] = 2.0
    order_0 = siso_rational(np.zeros((0, 0)), [], [], 0.0)
    assert jsonio.dumps(_rational_to_dict(srtr._ZERO_ENTRY)) == jsonio.dumps(
        _rational_to_dict(order_0))


def test_nrf_eval_phi_at_a_row_pole_raises():
    nrf = nrf_from_srtr(fixtures.ring6_pair())
    i = int(np.argmax(nrf.order))
    k = nrf.order[i]
    pole = np.linalg.eigvals(nrf.A[i, :k, :k])[0]
    with pytest.raises(PoleEvaluationError):
        nrf.eval_phi(pole)
    with pytest.raises(PoleEvaluationError, match=re.escape(f"point {np.complex128(pole)}")):
        nrf.eval_phi(np.array([pole + 0.5, pole]))


def test_sparsity_pattern_block_structure():
    rng = np.random.default_rng(33)
    pair, mask = structured_pair(rng, block_sizes=(1, 2))
    pat = sparsity_pattern(pair)
    expected_w = np.maximum(mask, np.eye(3, dtype=int))
    assert np.array_equal(pat.maskW, expected_w)
    assert np.array_equal(pat.maskV, mask)


def test_sparsity_pattern_nrf_agrees():
    rng = np.random.default_rng(34)
    pair, _ = structured_pair(rng, block_sizes=(2, 1))
    assert sparsity_pattern(pair) == sparsity_pattern(nrf_from_srtr(pair))


def test_flcf_report_shape():
    rep = check_flcf(fixtures.ring6_pair())
    d = rep.as_dict()
    assert set(d) == {
        "fullNormalRank",
        "noFiniteZeros",
        "noInfiniteZeros",
        "coprime",
        "minSingular",
    }
    assert set(d["minSingular"]) == {"finite", "infinite", "normalRank"}
    assert d["coprime"] is True


def test_flcf_noncoprime_fixture():
    # W = -2 and V = (lam+2)/(lam+1) share the zero of lam+2 at -2 with
    # lam I - W, so the compound loses rank there.
    rep = check_flcf(fixtures.noncoprime_pair())
    assert not rep.no_finite_zeros
    assert not rep.coprime
    assert rep.min_singular["finite"] < 1e-10


def test_flcf_random_pairs_certify():
    for seed in range(6):
        rng = np.random.default_rng(100 + seed)
        pair = random_pair(rng, 2, 2, 2, stable=True)
        rep = check_flcf(pair, seed=seed)
        assert rep.coprime, f"seed {seed} flagged non-coprime"


def test_flcf_integrator_bank():
    rep = check_flcf(fixtures.integrator_bank_pair(2))
    assert rep.coprime


def _planted_pair(rng, p, n_u, domain):
    """Pair of order 2p whose base leaves n_u modes unreachable (none, one
    real mode or one conjugate pair), with a random gain; also (A, B)."""
    A, B = planted_unreachable(rng, 2 * p - n_u, n_u, 3, domain, stable=n_u != 1)
    return SrtrPair(partitioned_base(A, B, p, domain), rng.normal(size=(p, p))), A, B


@pytest.mark.parametrize("domain", DOMAINS)
@pytest.mark.parametrize("p", [12, 24])
def test_flcf_flags_planted_unreachable_modes(p, domain):
    # a common finite zero of [lam I - W, V] is an unreachable mode of the
    # base (A, B); planting one flips check_flcf and the PBH reference alike
    rng = np.random.default_rng(5300 + p)
    for n_u in (0, 1, 2):
        pair, A, B = _planted_pair(rng, p, n_u, domain)
        rep = check_flcf(pair)
        assert rep.coprime == rep.no_finite_zeros == pbh_holds(A, B) == (n_u == 0)
        assert rep.no_infinite_zeros and rep.full_normal_rank
        if n_u:
            assert rep.min_singular["finite"] < 1e-10
        else:
            assert rep.min_singular["finite"] > 1e-6


@pytest.mark.parametrize("p", [12, 24])
def test_flcf_verdict_depends_only_on_base(p):
    rng = np.random.default_rng(5400 + p)
    for n_u in (0, 2):
        pair, _, _ = _planted_pair(rng, p, n_u, "continuous")
        rep = check_flcf(pair)
        other_gain = check_flcf(SrtrPair(pair.base, rng.normal(size=(p, p))))
        rotated = check_flcf(rotate_hidden(pair, rotation(rng, p)))
        assert rep.coprime == other_gain.coprime == rotated.coprime == (n_u == 0)
        assert other_gain.min_singular["finite"] == rep.min_singular["finite"]


def test_flcf_network_scale_budget():
    # the best of three calls keeps a descheduled run from failing the test
    pair, _, _ = block_network(np.random.default_rng(48), 48)
    assert check_flcf(pair).coprime
    times = []
    for _ in range(3):
        start = time.perf_counter()
        check_flcf(pair)
        times.append(time.perf_counter() - start)
    assert min(times) < 0.5, f"check_flcf took {min(times):.3f}s at p = 48"


def test_nrf_network_scale_budget():
    # the best of three calls keeps a descheduled run from failing the test
    pair, _, _ = block_network(np.random.default_rng(48), 48)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        nrf_from_srtr(pair)
        times.append(time.perf_counter() - start)
    assert min(times) < 0.1, f"nrf_from_srtr took {min(times):.3f}s at p = 48"


def test_nrf_memory_budget_on_dense_rows():
    # every entry of a dense p = 24 pair keeps order 25; the stacked sweep
    # runs in groups of rows, so its peak stays bounded
    p = 24
    base = random_partitioned(np.random.default_rng(2400), p, p, p)
    pair = SrtrPair(base, np.zeros((p, p)))
    tracemalloc.start()
    try:
        nrf = nrf_from_srtr(pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(fn.den_degree for fn in nrf.Gamma.ravel()) == p + 1
    assert peak < 16 * 2**20, f"nrf_from_srtr peaked at {peak / 2**20:.1f} MB"


def test_verify_identity_resamples_near_poles():
    # Identity check must not die when a sample lands near a pole;
    # the implementation redraws until evaluation succeeds.
    pair = scalar_pair(0.999)
    assert verify_srtr_identity(pair, n_samples=11, seed=2) < 1e-7


@pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -1.0])
def test_sparsity_pattern_rejects_a_bad_cut(tol):
    # NaN marked every entry nonzero, -1 every entry too
    pair = structured_pair(np.random.default_rng(1), (1, 2, 1))[0]
    with pytest.raises(InvalidInputError, match="must be finite and at least 0"):
        sparsity_pattern(pair, tol=tol)
    with pytest.raises(InvalidInputError):
        sparsity_pattern(nrf_from_srtr(pair), tol=tol)
    assert sparsity_pattern(pair, tol=0.0).maskW.shape == (pair.p, pair.p)
