"""Structural decisions on rotated block networks past the fixture: row
orders, pruned rows, zero patterns, normalized forms, structure and
minimality verdicts must not depend on the hidden-state coordinates."""

import numpy as np
import pytest

from helpers import (
    block_network,
    own_loop_move,
    planted_unreachable,
    random_pair,
    rotate_hidden,
    rotation,
)
from srtrkit import fixtures
from srtrkit.linalg import (
    RANK_CUT,
    controllability_staircase,
    eigenvalues,
    sample_complex_points,
    zero_entries,
)
from srtrkit.loop import rowwise_implementation
from srtrkit.rational import siso_rational
from srtrkit.srtr import SrtrPair, nrf_from_srtr, sparsity_pattern
from srtrkit.synthesis import SynthesisSpec, dense_spec, reduce_rows, verify_structured
from srtrkit.systems import (
    PartitionedRealization,
    StateSpaceSystem,
    eval_tfm,
    is_minimal,
    minimal_realization,
    with_integrators,
)


@pytest.mark.parametrize("p", [3, 9, 15, 30])
def test_rotated_block_network_structure(p):
    rng = np.random.default_rng(7000 + p)
    pair, mask, blocks = block_network(rng, p)
    spec = SynthesisSpec(mask, mask, tuple(blocks))
    want_w = np.maximum(mask, np.eye(p, dtype=int))
    for _ in range(2):
        impl = rowwise_implementation(pair)
        assert list(impl.orders()) == [1 + b for b in blocks]
        poles = np.append(eigenvalues(pair.Aw), 0.0)
        for lam in sample_complex_points(poles, 3, seed=p):
            want = eval_tfm(pair.wv_system(), lam) / lam
            for i, row in enumerate(impl.rows):
                err = np.linalg.norm(eval_tfm(row, lam)[0] - want[i])
                assert err <= 1e-8 * (1.0 + np.linalg.norm(want[i])), (i, err)
        pat = sparsity_pattern(pair)
        assert np.array_equal(pat.maskW, want_w)
        assert np.array_equal(pat.maskV, mask)
        assert verify_structured(pair, spec)
        assert is_minimal(pair.base.full_system())
        if p <= 15:
            check_normal_form(pair, blocks)
        pair = rotate_hidden(pair, rotation(rng, p))


def check_normal_form(pair, blocks):
    """(I - Phi)^{-1} Gamma matches G to 1e-10 relative, Phi has a zero
    diagonal, and every entry of row i has degree at most 1 + its block
    size."""
    nrf = nrf_from_srtr(pair)
    for i, b in enumerate(blocks):
        assert nrf.Phi[i, i].is_zero()
        for fn in list(nrf.Phi[i]) + list(nrf.Gamma[i]):
            assert fn.den_degree <= 1 + b, (i, fn.den_degree)
    G = pair.base.full_system()
    for lam in sample_complex_points(eigenvalues(pair.base.A), 3, seed=pair.p):
        want = eval_tfm(G, lam)
        err = np.linalg.norm(nrf.response(lam) - want)
        assert err <= 1e-10 * np.linalg.norm(want), err


def fed_back_row(pair, i):
    """Row i of lam^{-1} [W V] with its output fed back into input i,
    before any pruning."""
    wv = pair.wv_system()
    row = with_integrators(
        StateSpaceSystem(wv.A, wv.B, wv.C[i : i + 1], wv.D[i : i + 1], wv.domain)
    )
    A = row.A + np.outer(row.B[:, i], row.C[0])
    B = row.B.copy()
    B[:, i] = 0.0
    return StateSpaceSystem(A, B, row.C, row.D, wv.domain)


@pytest.mark.parametrize("case", ["ring", "discrete", "block"])
def test_normal_form_feeds_back_the_integrator_layout(case):
    # row i of the normal form is the own-loop move on the integrator
    # layout of the exact reduce_rows row i, input columns below RANK_CUT
    # of their full norm ||[Dw_ij; Bw_j]|| cut
    if case == "ring":
        pair = fixtures.ring6_pair()
    elif case == "discrete":
        pair = random_pair(np.random.default_rng(7400), 4, 3, 2, domain="discrete")
    else:
        pair = block_network(np.random.default_rng(7409), 9)[0]
    nrf = nrf_from_srtr(pair)
    rows = reduce_rows(pair.base, pair.K, dense_spec(pair.p, pair.m, pair.q))
    full = np.hypot(pair.Dw, np.linalg.norm(pair.Bw, axis=0))
    for i, row in enumerate(rows):
        layout = with_integrators(row)
        want = own_loop_move(layout, i, layout.B[:, i])
        B = want.B * (np.linalg.norm(want.B, axis=0) > RANK_CUT * full[i])
        k = nrf.order[i]
        assert k == 1 + row.n == want.n
        for got, ref in ((nrf.A[i, :k, :k], want.A), (nrf.B[i, :k], B), (nrf.c[i, :k], want.C[0])):
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
        assert not nrf.A[i, k:].any() and not nrf.A[i, :, k:].any() and not nrf.B[i, k:].any()
    if case == "block":
        # the same pair in rotated hidden coordinates: same orders and zero entries
        rotated = nrf_from_srtr(rotate_hidden(pair, rotation(np.random.default_rng(7410), 9)))
        assert np.array_equal(rotated.order, nrf.order)
        zero = np.vectorize(lambda fn: fn.is_zero())
        for fns in ("Phi", "Gamma"):
            assert np.array_equal(zero(getattr(rotated, fns)), zero(getattr(nrf, fns)))


def oracle_row(pair, i):
    """Row i of [Phi Gamma] by a full minimal realization of the fed-back
    row, one entry at a time."""
    row = fed_back_row(pair, i)
    out = []
    for j in range(row.n_inputs):
        e = minimal_realization(
            StateSpaceSystem(row.A, row.B[:, j : j + 1], row.C, row.D[:, j : j + 1], row.domain)
        )
        out.append(siso_rational(e.A, e.B, e.C, e.D))
    return out


def rel_gap(got, want):
    n = max(got.size, want.size)
    got, want = np.pad(got, (0, n - got.size)), np.pad(want, (0, n - want.size))
    return np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300)


@pytest.mark.parametrize("p", [9, 15])
def test_normal_form_matches_per_entry_oracle(p):
    rng = np.random.default_rng(7100 + p)
    pair, _, _ = block_network(rng, p)
    for _ in range(3):
        nrf = nrf_from_srtr(pair)
        for i in range(p):
            for fn, want in zip(list(nrf.Phi[i]) + list(nrf.Gamma[i]), oracle_row(pair, i)):
                assert fn.den_degree == want.den_degree, i
                assert rel_gap(fn.den, want.den) <= 1e-10, i
                if not want.is_zero():
                    assert rel_gap(fn.num, want.num) <= 1e-10, i
                else:
                    assert fn.is_zero(), i
        G = pair.base.full_system()
        for lam in sample_complex_points(eigenvalues(pair.base.A), 3, seed=p):
            want = eval_tfm(G, lam)
            assert np.linalg.norm(nrf.response(lam) - want) <= 1e-12 * np.linalg.norm(want)
        pair = rotate_hidden(pair, rotation(rng, p))


def zero_entries_oracle(A, B, C, D, tol=1e-9):
    """zero_entries with one controllability_staircase per column of B."""
    cut = tol * np.linalg.norm(np.hstack([C, D]), 2)
    zero = np.abs(D) <= cut
    for j in range(B.shape[1]):
        Z, k, _ = controllability_staircase(A, B[:, j : j + 1], tol)
        zero[:, j] &= np.linalg.norm(C @ Z[:, :k], axis=1) <= cut
    return zero


@pytest.mark.parametrize("p", [9, 15, 30])
def test_zero_entries_match_per_column_oracle(p):
    rng = np.random.default_rng(7200 + p)
    pair, mask, _ = block_network(rng, p)
    for _ in range(5 if p == 30 else 2):
        abcd = (pair.Aw, pair.Bw, pair.Cw, pair.Dw)
        got = zero_entries(*abcd)
        assert np.array_equal(got, zero_entries_oracle(*abcd))
        assert np.array_equal(~got[:, p:], mask.astype(bool))
        pair = rotate_hidden(pair, rotation(rng, p))


def test_zero_entries_match_per_column_oracle_on_a_dense_system():
    # n = 60: six inputs that reach 58 states, outputs that read the
    # reachable part and two that read only the unreachable one, in
    # rotated coordinates
    rng = np.random.default_rng(7260)
    A, B = planted_unreachable(rng, 58, 2, 6, "continuous", True)
    Z, k, _ = controllability_staircase(A, B)
    assert k == 58
    C = np.vstack([rng.normal(size=(3, 60)), Z[:, k:].T])
    D = np.zeros((5, 6))
    got = zero_entries(A, B, C, D)
    assert np.array_equal(got, zero_entries_oracle(A, B, C, D))
    assert not got[:3].any() and got[3:].all()


def entry_degrees(nrf):
    """(numerator, denominator) degree of every entry of [Phi Gamma], with
    -1 as the numerator degree of a zero entry."""
    return [
        [(-1 if fn.is_zero() else fn.num_degree, fn.den_degree) for fn in row]
        for row in np.hstack([nrf.Phi, nrf.Gamma])
    ]


@pytest.mark.parametrize("p", [15, 30])
def test_normal_form_degrees_ignore_hidden_coordinates(p):
    # At p = 30, seed 3003 gives two inputs columns of norm 1.4e4 in the B
    # of [W V], against ||A|| of a few units. In rotated coordinates a row
    # that they do not reach keeps about 1e-8 of them in its observable
    # part: rounding from the basis, which a cut at 1e-9 of the projected
    # column, rather than of the input, would take for a nonzero entry.
    for seed in (7300 + p, 3003):
        rng = np.random.default_rng(seed)
        pair, _, _ = block_network(rng, p)
        want = entry_degrees(nrf_from_srtr(pair))
        assert max(d for row in want for _, d in row) == 3
        for _ in range(2):
            pair = rotate_hidden(pair, rotation(rng, p))
            nrf = nrf_from_srtr(pair)
            assert entry_degrees(nrf) == want
            assert sparsity_pattern(nrf) == sparsity_pattern(pair)


def test_normal_form_prunes_unobservable_and_partly_reachable_modes():
    # Row 0 of lam^{-1} [W V] has three states: its integrator, x2a and x2b.
    # A12[0] sees only x2a and A22 never drives x2a from x2b, so x2b is
    # unobservable from row 0. x2a is reached from z (B2[0, 0] = 1) but not
    # from u1 (A21[0, 1] = 0), nor through the integrator (A21[0, 0] = 0).
    # So Phi[0, 1] = 0.5 / (lam + 1) keeps one state and
    # Gamma[0, 0] = (lam + 4) / ((lam + 1)(lam + 3)) keeps two.
    base = PartitionedRealization(
        A11=np.array([[-1.0, 0.5], [0.3, -2.0]]),
        A12=np.array([[1.0, 0.0], [0.4, 0.7]]),
        A21=np.array([[0.0, 0.0], [0.2, 0.5]]),
        A22=np.array([[-3.0, 0.0], [0.6, -4.0]]),
        B1=np.array([[1.0], [0.8]]),
        B2=np.array([[1.0], [0.3]]),
    )
    pair = SrtrPair(base, np.zeros((2, 2)))
    row = fed_back_row(pair, 0)
    assert row.n == 3 and controllability_staircase(row.A.T, row.C.T)[1] == 2
    nrf = nrf_from_srtr(pair)
    assert nrf.Phi[0, 0].is_zero()
    assert np.allclose(nrf.Phi[0, 1].num, [0.5]) and np.allclose(nrf.Phi[0, 1].den, [1.0, 1.0])
    g = nrf.Gamma[0, 0]
    assert np.allclose(g.num, [4.0, 1.0]) and np.allclose(g.den, [3.0, 4.0, 1.0])
    for lam in (0.5 + 0.8j, 2.0, -0.4 + 1.5j):
        want = eval_tfm(base.full_system(), lam)
        assert np.linalg.norm(nrf.response(lam) - want) <= 1e-12 * np.linalg.norm(want)

