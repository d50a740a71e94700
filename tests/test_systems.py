import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import random_partitioned
from srtrkit.errors import (
    DimensionError,
    PoleEvaluationError,
    RegularityViolationError,
    TrivialCaseError,
    UnsupportedFeedthroughError,
)
from srtrkit.systems import (
    PartitionedRealization,
    StateSpaceSystem,
    apply_transform,
    eval_tfm,
    is_minimal,
    minimal_realization,
    to_output_normal,
)


def _sys(seed=0, n=4, p=2, m=2, domain="continuous"):
    rng = np.random.default_rng(seed)
    return StateSpaceSystem(
        rng.normal(size=(n, n)),
        rng.normal(size=(n, m)),
        rng.normal(size=(p, n)),
        np.zeros((p, m)),
        domain,
    )


def test_dimension_validation():
    with pytest.raises(DimensionError):
        StateSpaceSystem(
            np.zeros((2, 3)), np.zeros((2, 1)), np.zeros((1, 2)), np.zeros((1, 1)),
            "continuous",
        )
    with pytest.raises(DimensionError):
        StateSpaceSystem(
            np.zeros((2, 2)), np.zeros((3, 1)), np.zeros((1, 2)), np.zeros((1, 1)),
            "continuous",
        )


def test_eval_tfm_matches_direct_solve():
    sys = _sys(1)
    lam = 0.7 + 0.2j
    G = eval_tfm(sys, lam)
    ref = sys.C @ np.linalg.solve(lam * np.eye(sys.n) - sys.A, sys.B) + sys.D
    assert np.allclose(G, ref)


def test_eval_tfm_at_pole_raises():
    sys = StateSpaceSystem(
        np.array([[2.0]]), np.array([[1.0]]), np.array([[1.0]]), np.array([[0.0]]),
        "continuous",
    )
    with pytest.raises(PoleEvaluationError):
        eval_tfm(sys, 2.0)
    # a 1x1 pencil is perfectly conditioned, so the near-pole check needs two
    # states: lam I - A has condition number about 3e15 at 2 + 1e-15
    two = StateSpaceSystem(
        np.diag([2.0, -1.0]), np.ones((2, 1)), np.ones((1, 2)), np.zeros((1, 1)),
        "continuous",
    )
    with pytest.raises(PoleEvaluationError, match="too close"):
        eval_tfm(two, 2.0 + 1e-15)
    assert np.allclose(eval_tfm(two, 2.5), [[1 / 0.5 + 1 / 3.5]])



@pytest.mark.parametrize("domain", ["continuous", "discrete"])
def test_eval_tfm_stack_matches_per_point_calls(domain):
    lams = np.array([0.7 + 0.2j, -1.5 + 2.0j, 3.0, 0.1 - 0.9j])
    static = StateSpaceSystem(
        np.zeros((0, 0)), np.zeros((0, 3)), np.zeros((2, 0)),
        np.arange(6.0).reshape(2, 3), domain,
    )
    for sys in (_sys(4, n=5, p=2, m=3, domain=domain), static):
        stack = eval_tfm(sys, lams)
        assert stack.shape == (4, 2, 3)
        assert np.array_equal(stack, np.stack([eval_tfm(sys, lam) for lam in lams]))
        assert np.array_equal(eval_tfm(sys, lams[:1]), eval_tfm(sys, lams[0])[None])


def test_eval_tfm_stack_names_the_point_at_a_pole():
    two = StateSpaceSystem(
        np.diag([2.0, -1.0]), np.ones((2, 1)), np.ones((1, 2)), np.zeros((1, 1)),
        "continuous",
    )
    near = np.complex128(2.0 + 1e-15)
    with pytest.raises(PoleEvaluationError, match=re.escape(f"point {near} is too close")):
        eval_tfm(two, np.array([2.5, near, 3.0]))


def test_eval_tfm_guard_measures_conditioning_not_distance():
    # a Jordan chain at -1 coupled by 1e5: at 0, a distance of 1 from every
    # eigenvalue, ||P||_1 ||P^-1||_1 is about 1e15
    A = -np.eye(3) + 1e5 * np.eye(3, k=1)
    chain = StateSpaceSystem(A, np.ones((3, 1)), np.ones((1, 3)), np.zeros((1, 1)), "continuous")
    assert np.min(np.abs(np.linalg.eigvals(A))) >= 0.1
    assert np.linalg.cond(-A, 1) > 1e13
    with pytest.raises(PoleEvaluationError, match="point 0j is too close"):
        eval_tfm(chain, 0.0)
    # the same eigenvalues without the coupling are far from any pole at 0
    loose = StateSpaceSystem(-np.eye(3), np.ones((3, 1)), np.ones((1, 3)), np.zeros((1, 1)),
                             "continuous")
    assert np.allclose(eval_tfm(loose, 0.0), [[3.0]])


def test_eval_tfm_stack_names_an_exactly_singular_point():
    two = StateSpaceSystem(
        np.diag([2.0, 3.0]), np.ones((2, 1)), np.ones((1, 2)), np.zeros((1, 1)),
        "continuous",
    )
    with pytest.raises(PoleEvaluationError, match=re.escape("point (3+0j) is a pole")):
        eval_tfm(two, np.array([2.5, 3.0, 4.0]))


def test_static_system_evaluation():
    sys = StateSpaceSystem(
        np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((1, 0)),
        np.array([[1.0, -2.0]]), "continuous",
    )
    assert np.allclose(eval_tfm(sys, 5.0), [[1.0, -2.0]])


def test_apply_transform_preserves_transfer():
    sys = _sys(2)
    rng = np.random.default_rng(3)
    T = rng.normal(size=(sys.n, sys.n)) + np.eye(sys.n)
    out = apply_transform(sys, T)
    lam = 1.3 + 0.9j
    assert np.allclose(eval_tfm(sys, lam), eval_tfm(out, lam), atol=1e-9)


def test_minimal_realization_prunes_unreachable_modes():
    core = _sys(4, n=3, p=1, m=1)
    A = np.zeros((5, 5))
    A[:3, :3] = core.A
    A[3:, 3:] = np.diag([-5.0, -6.0])
    B = np.vstack([core.B, np.zeros((2, 1))])
    C = np.hstack([core.C, np.zeros((1, 2))])
    padded = StateSpaceSystem(A, B, C, core.D, "continuous")
    assert not is_minimal(padded)
    red = minimal_realization(padded)
    assert red.n <= 3
    lam = 0.4 + 1.1j
    assert np.allclose(eval_tfm(red, lam), eval_tfm(padded, lam), atol=1e-8)
    assert is_minimal(red)


def test_is_minimal_tol_is_the_staircase_rank_cut():
    # the second mode is reached only through the 1e-7 entry of B
    sys = StateSpaceSystem(
        np.diag([-1.0, -2.0]), np.array([[1.0], [1e-7]]), np.array([[1.0, 1.0]]),
        np.zeros((1, 1)), "continuous",
    )
    assert is_minimal(sys)
    assert not is_minimal(sys, tol=1e-5)
    assert minimal_realization(sys, tol=1e-5).n == 1


def test_to_output_normal_shape_and_invariance():
    sys = _sys(5, n=5, p=2, m=2)
    part, T = to_output_normal(sys)
    assert part.p == 2 and part.q == 3
    normal = part.full_system()
    assert np.allclose(normal.C, np.hstack([np.eye(2), np.zeros((2, 3))]))
    lam = -0.3 + 0.6j
    assert np.allclose(eval_tfm(sys, lam), eval_tfm(normal, lam), atol=1e-9)
    assert np.allclose(apply_transform(sys, T).A, normal.A, atol=1e-12)


def test_to_output_normal_rejects_feedthrough_and_bad_c():
    sys = _sys(6)
    bad = StateSpaceSystem(sys.A, sys.B, sys.C, np.ones_like(sys.D), "continuous")
    with pytest.raises(UnsupportedFeedthroughError):
        to_output_normal(bad)
    flat = StateSpaceSystem(
        sys.A, sys.B, np.vstack([sys.C[0], sys.C[0]]), np.zeros((2, 2)), "continuous"
    )
    with pytest.raises(RegularityViolationError):
        to_output_normal(flat)
    empty = StateSpaceSystem(
        np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), np.zeros((1, 1)),
        "continuous",
    )
    with pytest.raises(TrivialCaseError):
        to_output_normal(empty)


def test_partitioned_roundtrip_and_q_zero():
    rng = np.random.default_rng(7)
    base = random_partitioned(rng, 2, 3, 2)
    full = base.full_system()
    assert full.n == 5
    assert np.allclose(full.C, np.hstack([np.eye(2), np.zeros((2, 3))]))
    bank = PartitionedRealization(
        A11=np.zeros((2, 2)),
        A12=np.zeros((2, 0)),
        A21=np.zeros((0, 2)),
        A22=np.zeros((0, 0)),
        B1=np.eye(2),
        B2=np.zeros((0, 2)),
        domain="continuous",
    )
    assert bank.q == 0
    assert bank.full_system().n == 2


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_output_normal_partition_consistency(seed):
    sys = _sys(seed, n=4, p=2, m=2)
    part, _ = to_output_normal(sys)
    rebuilt = part.full_system()
    lam = 0.9 + 0.3j
    assert np.allclose(eval_tfm(sys, lam), eval_tfm(rebuilt, lam), atol=1e-8)
