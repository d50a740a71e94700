import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from srtrkit.rational import RationalFn, siso_rational


def test_monic_normalization():
    r = RationalFn([2.0, 4.0], [4.0, 2.0])
    assert r.den[-1] == pytest.approx(1.0)
    assert r(0.0) == pytest.approx(0.5)


def test_degree_and_properness():
    r = RationalFn([1.0], [1.0, 1.0])
    assert r.num_degree == 0 and r.den_degree == 1
    s = RationalFn([0.0, 1.0], [1.0, 1.0])
    assert s.num_degree == s.den_degree == 1
    t = RationalFn([0.0, 0.0, 1.0], [1.0, 1.0])
    assert t.num_degree == 2 and t.den_degree == 1


def test_zero_function():
    z = RationalFn([0.0], [1.0, 2.0])
    assert z.is_zero()
    assert not RationalFn([3.0]).is_zero()


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=5),
    st.booleans(),
    st.integers(min_value=0, max_value=10**6),
)
def test_siso_rational_matches_direct_evaluation(k, with_d, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(k, k))
    b = rng.normal(size=k)
    c = rng.normal(size=k)
    d = rng.normal() if with_d else 0.0
    r = siso_rational(A, b, c, d)
    assert (r.is_zero() or r.num_degree < r.den_degree) == (d == 0.0)
    for lam in (0.9 + 0.4j, -1.3, 2.1j):
        want = c @ np.linalg.solve(lam * np.eye(k) - A, b) + d if k else d
        assert r(lam) == pytest.approx(want, rel=1e-9, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=10**6))
def test_siso_rational_denominator_is_charpoly(k, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(k, k))
    r = siso_rational(A, rng.normal(size=k), rng.normal(size=k), 0.0)
    assert r.den_degree == k
    assert np.allclose(r.den, np.poly(A)[::-1] if k else [1.0], atol=1e-10)


def test_siso_rational_first_order():
    r = siso_rational([[-2.0]], [1.0], [3.0], 0.0)
    assert np.array_equal(r.num, [3.0]) and np.array_equal(r.den, [2.0, 1.0])
    for lam in (0.0, 1.0, 2.0j):
        assert r(lam) == pytest.approx(3.0 / (lam + 2.0), rel=1e-12)
    s = siso_rational(np.zeros((0, 0)), [], [], 0.5)
    assert np.array_equal(s.num, [0.5]) and np.array_equal(s.den, [1.0])


@pytest.mark.parametrize("k", [0, 1, 3, 6])
def test_stacked_siso_rational_matches_single_calls(k):
    rng = np.random.default_rng(40 + k)
    g = 5
    A = rng.normal(size=(g, k, k))
    b = rng.normal(size=(g, k))
    c = rng.normal(size=(g, k))
    d = np.array([0.0, 1.5, 0.0, -0.3, 2.0])
    stacked = siso_rational(A, b, c, d)
    assert len(stacked) == g
    for r, Ai, bi, ci, di in zip(stacked, A, b, c, d):
        one = siso_rational(Ai, bi, ci, di)
        assert r.num.shape == one.num.shape and r.den.shape == one.den.shape
        assert np.allclose(r.num, one.num, rtol=1e-12, atol=1e-12)
        assert np.allclose(r.den, one.den, rtol=1e-12, atol=1e-12)
        assert (r.is_zero() or r.num_degree < r.den_degree) == (di == 0.0)
