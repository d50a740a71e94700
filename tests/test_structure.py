"""Structural decisions on rotated block networks past the fixture: row
orders, pruned rows, zero patterns, normalized forms, structure and
minimality verdicts must not depend on the hidden-state coordinates."""

import numpy as np
import pytest

from helpers import block_network, rotate_hidden, rotation
from srtrkit.linalg import eigenvalues, sample_complex_points
from srtrkit.loop import rowwise_implementation
from srtrkit.srtr import nrf_from_srtr, sparsity_pattern
from srtrkit.synthesis import SynthesisSpec, verify_structured
from srtrkit.systems import eval_tfm, is_minimal


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
