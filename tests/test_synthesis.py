import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    assign_stable_spectrum,
    block_network,
    conditions_reference,
    exact_ring,
    random_pair,
    random_partitioned,
    rotate_hidden,
    rotation,
    shear_hidden,
    stable_targets,
    structured_pair,
)
from srtrkit import fixtures
from srtrkit.errors import (
    DimensionError,
    InexactTruncationError,
    InfeasibleError,
    InvalidInputError,
)
from srtrkit.linalg import column_staircases, eigenvalues, sample_complex_points
from srtrkit.rational import siso_rational
from srtrkit.srtr import SrtrPair
from srtrkit.systems import StateSpaceSystem, eval_tfm
from srtrkit.synthesis import (
    SolveOptions,
    SynthesisSpec,
    _condition_rows,
    _row_groups,
    dense_spec,
    mm_conditions,
    mm_solve,
    reduce_rows,
    verify_structured,
)

# Residual levels of the printed ring gain against its own spec, computed
# once from the 4-decimal fixture data and pinned here.
RING_CONDITION_MAXES = [2.3142e-3, 0.0, 2.9827e-4, 8.4671e-4, 3.1400e-3, 0.0]


def ring_inputs(orders=1):
    return (
        fixtures.ring6_controller_base(),
        fixtures.ring6_gain(),
        fixtures.ring6_spec(orders=orders),
    )


def test_spec_validation():
    with pytest.raises(InvalidInputError):
        SynthesisSpec(
            maskW=np.array([[2, 0], [0, 1]]),
            maskV=np.eye(2, dtype=int),
            orders=(1, 1),
        )
    with pytest.raises(InvalidInputError):
        SynthesisSpec(
            maskW=np.eye(2, dtype=int),
            maskV=np.eye(2, dtype=int),
            orders=(1,),
        )
    with pytest.raises(InvalidInputError):
        SynthesisSpec(
            maskW=np.eye(2, dtype=int),
            maskV=np.eye(2, dtype=int),
            orders=(1, 1),
            extra="unknown-constraint",
        )
    spec = dense_spec(2, 3, 4)
    assert spec.p == 2 and spec.m == 3
    assert spec.orders == (4, 4)
    # order caps above the hidden dimension are input errors (CLI exit 2)
    base, K, _ = ring_inputs()
    with pytest.raises(InvalidInputError):
        mm_conditions(base, K, fixtures.ring6_spec(orders=7))


def test_ring_condition_residuals_match_pinned_values():
    base, K, spec = ring_inputs()
    report = mm_conditions(base, K, spec, tol=5e-3)
    got = report.per_condition_max()
    assert np.allclose(got, RING_CONDITION_MAXES, rtol=2e-3, atol=1e-7)
    assert report.passed
    assert report.rows.shape == (6, 6)
    assert np.all(np.asarray(report.margins) > 0)


def test_ring_conditions_fail_at_tight_tolerance():
    base, K, spec = ring_inputs()
    report = mm_conditions(base, K, spec, tol=1e-4)
    assert not report.passed


def test_condition_report_dict():
    base, K, spec = ring_inputs()
    d = mm_conditions(base, K, spec, tol=5e-3).as_dict()
    assert set(d) == {"rows", "perConditionMax", "stabilityMargins", "tol", "passed"}


def test_dense_spec_accepts_any_stable_gain():
    rng = np.random.default_rng(3)
    base = random_partitioned(rng, 2, 3, 2)
    K = assign_stable_spectrum(base.A22, base.A12, stable_targets(3, rng))
    spec = dense_spec(2, 2, 3)
    report = mm_conditions(base, K, spec, tol=1e-8)
    assert report.passed, report.per_condition_max()


def test_unstable_gain_fails_condition_vi():
    base = fixtures.scalar_class_pair(0.0).base
    spec = dense_spec(1, 1, 1)
    hot = np.array([[2.0]])  # Aw = -1 + 2 = 1
    report = mm_conditions(base, hot, spec, tol=1e-6)
    assert not report.passed
    assert report.per_condition_max()[5] > 0.9


def _kernel_cases():
    """(base, gains, spec) triples that reach every branch of the kernel:
    rotated block networks with first-order rows and with order bounds
    1 + block size, at which the known gain breaks down, a zero coupling
    row, a coupling row at the noise level, no hidden state, and discrete
    time."""
    rng = np.random.default_rng(808)
    for p in (3, 9, 15):
        pair, mask, sizes = block_network(rng, p)
        gains = [pair.K + t * rng.normal(size=pair.K.shape) for t in (0.0, 0.3, 0.3)]
        for orders in ((1,) * p, tuple(1 + b for b in sizes)):
            yield pair.base, gains, SynthesisSpec(mask, mask, orders)
    # the staircase cuts a coupling row 1e-12 of its size to order 0
    pair, mask, sizes = block_network(np.random.default_rng(808), 9)
    b = pair.base
    A12 = b.A12.copy()
    A12[0] *= 1e-12
    noisy = b.__class__(b.A11, A12, b.A21, b.A22, b.B1, b.B2)
    yield noisy, [pair.K], SynthesisSpec(mask, mask, tuple(1 + b for b in sizes))
    base = random_partitioned(rng, 3, 4, 2)
    base = base.__class__(
        base.A11, np.vstack([np.zeros((1, 4)), base.A12[1:]]), base.A21,
        base.A22, base.B1, base.B2,
    )
    spec = SynthesisSpec(np.eye(3), np.ones((3, 2)), (1, 2, 4))
    yield base, [rng.normal(size=(4, 3)) for _ in range(3)], spec
    bank = fixtures.integrator_bank_pair(3).base
    yield bank, [np.zeros((0, 3))] * 2, SynthesisSpec(np.eye(3), np.eye(3), (1, 1, 1))
    pair = random_pair(rng, 3, 5, 2, domain="discrete")
    spec = SynthesisSpec(
        rng.integers(0, 2, (3, 3)), rng.integers(0, 2, (3, 2)), (1, 3, 5)
    )
    gains = [pair.K + t * rng.normal(size=pair.K.shape) for t in (0.0, 0.5, 0.5)]
    yield pair.base, gains, spec
    pair, mask, sizes = block_network(rng, 9, "discrete")
    gains = [pair.K, pair.K + 0.3 * rng.normal(size=pair.K.shape)]
    yield pair.base, gains, SynthesisSpec(mask, mask, tuple(1 + b for b in sizes))


def test_condition_kernel_matches_row_reference():
    # the reference takes each row's tail from the staircase, so the Arnoldi
    # kernel agrees with it to rounding, on the scale of the data it projects
    for base, gains, spec in _kernel_cases():
        for K in gains:
            ref_rows, ref_margins, ref_orders = conditions_reference(base, K, spec)
            report = mm_conditions(base, K, spec)
            pair = SrtrPair(base, K)
            scale = 1.0 + (np.linalg.norm(pair.Bw, 2) if base.q else 0.0)
            np.testing.assert_allclose(report.rows, ref_rows, rtol=1e-12, atol=1e-12 * scale)
            np.testing.assert_allclose(report.margins, ref_margins, rtol=1e-12, atol=1e-12)
            # condition 5 of a row cut to order 0 is ||a||, at any scale
            cut = ref_orders == 0
            np.testing.assert_allclose(report.rows[cut, 4], ref_rows[cut, 4], rtol=1e-12, atol=0)
            orders = np.zeros(base.p, dtype=int)
            for ni, idx, a in _row_groups(base, spec):
                V, k, _ = column_staircases(pair.Aw.T, a, steps=ni)
                orders[idx] = k
                s = V.shape[-1]
                np.testing.assert_allclose(
                    V.swapaxes(-2, -1) @ V, np.eye(s) * (np.arange(s) < k[:, None, None]), atol=1e-12
                )
            np.testing.assert_array_equal(orders, ref_orders)


def test_block_networks_meet_conditions_at_block_orders():
    # at the known gain of a block network each row's Krylov subspace is its
    # block's hidden states: rows with order bound b keep all of them, and
    # rows with bound 1 + b break down at b
    rng = np.random.default_rng(808)
    for p in (3, 9, 15):
        pair, mask, sizes = block_network(rng, p)
        for extra in (0, 1):
            spec = SynthesisSpec(mask, mask, tuple(b + extra for b in sizes))
            report = mm_conditions(pair.base, pair.K, spec, tol=1e-9)
            assert report.passed, report.per_condition_max()
            assert [row.n for row in reduce_rows(pair.base, pair.K, spec)] == sizes


def test_condition_kernel_stack_equals_single_calls():
    for base, gains, spec in _kernel_cases():
        rows, margins = _condition_rows(base, np.stack(gains), spec)
        assert rows.shape == (len(gains), base.p, 6)
        for k, K in enumerate(gains):
            one_rows, one_margins = _condition_rows(base, K[None], spec)
            np.testing.assert_allclose(rows[k], one_rows[0], rtol=1e-14, atol=0.0)
            np.testing.assert_allclose(margins[k], one_margins[0], rtol=1e-14, atol=0.0)


def test_mm_solve_discrete_exact_ring():
    rng = np.random.default_rng(4242)
    base, mask, _ = exact_ring(rng, 7, alpha=-0.43, domain="discrete")
    spec = SynthesisSpec(mask, mask, (1,) * 7, extra="ring-homogeneous")
    assert not mm_conditions(base, np.zeros((7, 7)), spec).passed
    K = mm_solve(base, spec, SolveOptions(tol=1e-6))
    report = mm_conditions(base, K, spec, tol=1e-6)
    assert report.passed, report.per_condition_max()
    for row in reduce_rows(base, K, spec):
        assert np.all(np.abs(np.linalg.eigvals(row.A)) < 1.0)


def _sheared_block_problem(seed, domain, rotated=False):
    """The (1, 2)-block structured pair with its hidden coordinates sheared by
    a standard normal K0, and, with ``rotated``, then rotated by a Haar Q
    drawn from seed + 1; returns the sheared pair, whose gain meets the
    block spec, and that spec."""
    rng = np.random.default_rng(seed)
    pair, mask = structured_pair(rng, (1, 2), domain=domain)
    sheared = shear_hidden(pair, rng.standard_normal((pair.q, pair.p)))
    if rotated:
        sheared = rotate_hidden(sheared, rotation(np.random.default_rng(seed + 1), pair.q))
    spec = SynthesisSpec(mask, mask, (1, 2, 2))
    assert mm_conditions(sheared.base, sheared.K, spec, tol=1e-12).passed
    return sheared, spec


SHEARED_CASES = [("continuous", s) for s in range(9000, 9010)] + [
    ("discrete", s) for s in range(9000, 9005)
]


@pytest.mark.parametrize(
    "domain,seed,rotated",
    [pytest.param(d, s, False, id=f"{d}-{s}") for d, s in SHEARED_CASES]
    + [pytest.param(d, s, True, id=f"{d}-{s}-rotated") for d, s in SHEARED_CASES],
)
def test_mm_solve_sheared_block_pairs(domain, seed, rotated):
    # the zero gain fails these instances, and the known gain is neither zero
    # nor ring-homogeneous, so only the least-squares solve can find one
    pair, spec = _sheared_block_problem(seed, domain, rotated)
    base = pair.base
    assert not mm_conditions(base, np.zeros((base.q, base.p)), spec).passed
    K = mm_solve(base, spec, SolveOptions(tol=1e-6))
    report = mm_conditions(base, K, spec, tol=1e-6)
    assert report.passed, report.per_condition_max()


def _hidden_copies(pair, rng):
    """The pair, a rotated and a sheared copy of its hidden coordinates, each
    with the map that carries a gain of the pair to the same gain of the
    copy."""
    q, p = pair.K.shape
    Q = rotation(rng, q)
    K0 = rng.standard_normal((q, p))
    return [
        (pair, lambda G: G),
        (rotate_hidden(pair, Q), lambda G: Q.T @ G),
        (shear_hidden(pair, K0), lambda G: G - K0),
    ]


@pytest.mark.parametrize("extra", [0, 1])
@pytest.mark.parametrize("domain", ["continuous", "discrete"])
@pytest.mark.parametrize("kind", ["block-p9", "sheared"])
def test_synthesis_ignores_hidden_coordinates(kind, domain, extra):
    # conditions, reduced rows and their verdicts belong to the pair (W, V),
    # at the exact block orders and at order bounds one above them
    rng = np.random.default_rng(9300)
    if kind == "block-p9":
        pair, mask, sizes = block_network(rng, 9, domain)
    else:
        pair, exact = _sheared_block_problem(9000, domain)
        mask, sizes = exact.maskW, list(exact.orders)
    spec = SynthesisSpec(mask, mask, tuple(b + extra for b in sizes))
    gains = [pair.K, pair.K + 0.3 * rng.standard_normal(pair.K.shape)]
    scale = 1.0 + np.linalg.norm(pair.Bw, 2)
    lams = sample_complex_points(np.append(eigenvalues(pair.Aw), 0.0), 3, seed=1)
    want = None
    for copy, carry in _hidden_copies(pair, rng):
        reports = [mm_conditions(copy.base, carry(G), spec) for G in gains]
        rows = reduce_rows(copy.base, carry(pair.K), spec)
        got = (
            [r.passed for r in reports],
            [r.per_condition_max() for r in reports],
            [row.n for row in rows],
            [np.vstack([eval_tfm(row, lam) for row in rows]) for lam in lams],
            verify_structured(rows, spec),
        )
        if want is None:
            want = got
            assert want[0] == [True, False] and want[2] == sizes and want[4]
            continue
        assert got[0] == want[0] and got[2] == want[2] and got[4] == want[4]
        for a, b in zip(got[1], want[1]):
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12 * scale)
        for a, b in zip(got[3], want[3]):
            assert np.linalg.norm(a - b) <= 1e-9 * (1.0 + np.linalg.norm(b))


def test_mm_solve_trivial_when_a22_stable():
    rng = np.random.default_rng(8)
    base = random_partitioned(rng, 2, 2, 2)
    shifted = base.__class__(
        base.A11,
        base.A12,
        base.A21,
        base.A22 - 3.0 * np.eye(2),
        base.B1,
        base.B2,
        domain="continuous",
    )
    spec = dense_spec(2, 2, 2)
    K = mm_solve(shifted, spec)
    assert np.allclose(K, 0.0)


def test_mm_solve_ring_problem_loose_tolerance():
    base, _, spec = ring_inputs()
    K = mm_solve(base, spec, SolveOptions(tol=5e-3))
    report = mm_conditions(base, K, spec, tol=5e-3)
    assert report.passed, report.per_condition_max()


def test_mm_solve_reports_infeasibility():
    base, _, spec = ring_inputs()
    with pytest.raises(InfeasibleError) as info:
        mm_solve(base, spec, SolveOptions(tol=1e-9))
    assert info.value.report is not None
    assert info.value.report.max_residual() > 1e-9


def test_mm_solve_detects_structural_infeasibility():
    # condition (ii) only involves B1, so a mask that zeroes a hard-wired
    # input column can never be met by any gain.
    base = fixtures.scalar_class_pair(0.0).base  # B1 = 1
    spec = SynthesisSpec(
        maskW=np.array([[1]]),
        maskV=np.array([[0]]),
        orders=(1,),
    )
    with pytest.raises(InfeasibleError):
        mm_solve(base, spec)


def test_reduce_rows_matches_printed_coefficients():
    base, K, spec = ring_inputs()
    rows = reduce_rows(base, K, spec)
    assert len(rows) == 6
    expected = fixtures.RING6_EXPECTED_ROWS
    worst = 0.0
    for i, row in enumerate(rows):
        assert row.n == 1
        prev = (i - 1) % 6
        checks = {"W_local": i, "W_prev": prev, "V_local": 6 + i, "V_prev": 6 + prev}
        for name, j in checks.items():
            fn = siso_rational(row.A, row.B[:, j], row.C, row.D[0, j])
            assert fn.den_degree == 1 and fn.num_degree <= 1
            gnum = np.pad(fn.num, (0, 2 - fn.num.size))
            ev = expected[name]
            scale = max(abs(v) for v in ev["num"] + ev["den"])
            for g, e in zip(list(gnum) + list(fn.den), ev["num"] + ev["den"]):
                err = abs(g - e) / (abs(e) if e != 0.0 else scale)
                worst = max(worst, err)
    assert worst <= 0.01, f"worst deviation {worst:.4%}"


def test_reduce_rows_rejects_heavy_truncation():
    rng = np.random.default_rng(55)
    pair = random_pair(rng, 2, 4, 2, stable=True)
    spec = SynthesisSpec(
        maskW=np.ones((2, 2), dtype=int),
        maskV=np.ones((2, 2), dtype=int),
        orders=(1, 1),
    )
    with pytest.raises(InexactTruncationError) as info:
        reduce_rows(pair.base, pair.K, spec, tol=1e-8)
    assert info.value.residual > 0


def test_reduce_rows_full_order_is_exact():
    rng = np.random.default_rng(56)
    pair = random_pair(rng, 2, 3, 2, stable=True)
    spec = dense_spec(2, 2, 3)
    rows = reduce_rows(pair.base, pair.K, spec, tol=1e-10)
    lam = 0.4 + 1.2j
    full = eval_tfm(pair.wv_system(), lam)
    for i, row in enumerate(rows):
        got = eval_tfm(row, lam)
        assert np.allclose(got, full[i : i + 1, :], atol=1e-8)


def test_verify_structured_pair_and_rows():
    base, K, spec = ring_inputs()
    rows = reduce_rows(base, K, spec)
    # 4-decimal fixture data leaves ~3e-4 relative leakage in the masked
    # entries, so the structure holds at 1e-3 but not at machine precision
    assert verify_structured(rows, spec, tol=1e-3)
    assert not verify_structured(rows, spec, tol=1e-9)
    tight = SynthesisSpec(
        maskW=np.eye(6, dtype=int), maskV=np.eye(6, dtype=int), orders=(1,) * 6
    )
    assert not verify_structured(rows, tight, tol=1e-3)


def test_verify_structured_takes_a_pair_or_a_list_or_tuple_of_rows():
    from srtrkit.loop import rowwise_implementation

    base, K, spec = ring_inputs()
    rows = reduce_rows(base, K, spec)
    assert verify_structured(tuple(rows), spec, tol=1e-3)
    # implemented rows carry an integrator, so they are not read as rows
    implemented = rowwise_implementation(fixtures.ring6_pair(), orders=[1] * 6)
    for other in (implemented, iter(rows), np.array([1.0]), {"rows": rows}):
        with pytest.raises(TypeError, match="expected SrtrPair or a row collection"):
            verify_structured(other, spec)


def test_verify_structured_rejects_a_row_count_or_shape_off_the_spec():
    base, K, spec = ring_inputs()
    rows = reduce_rows(base, K, spec)
    r = rows[0]
    two_outputs = StateSpaceSystem(r.A, r.B, np.vstack([r.C, r.C]), np.vstack([r.D, r.D]), r.domain)
    short = StateSpaceSystem(r.A, r.B[:, :-1], r.C, r.D[:, :-1], r.domain)
    # 2 of 6 rows passed and 7 rows raised IndexError before the count was checked
    for wrong in (rows[:2], rows + rows[:1], [], [two_outputs] + rows[1:], [short] + rows[1:]):
        with pytest.raises(DimensionError, match="expected 6 rows of 1 output and 12 inputs"):
            verify_structured(wrong, spec, tol=1e-3)


def test_verify_structured_exact_pair():
    rng = np.random.default_rng(18)
    pair, mask = structured_pair(rng, block_sizes=(1, 2))
    spec = SynthesisSpec(maskW=mask, maskV=mask, orders=(3,) * 3)
    assert verify_structured(pair, spec)
    wrong = SynthesisSpec(
        maskW=np.eye(3, dtype=int), maskV=np.eye(3, dtype=int), orders=(3,) * 3
    )
    assert not verify_structured(pair, wrong)


@pytest.mark.parametrize(
    "domain, boundary, inside",
    [("continuous", [0.0], -0.5), ("discrete", [1.0, -1.0], 0.5)],
)
def test_verify_structured_rejects_rows_on_the_stability_boundary(domain, boundary, inside):
    # stability is strict for rows as for pairs: a pole on the boundary fails
    spec = dense_spec(1, 1, 1)

    def row(pole):
        return StateSpaceSystem([[pole]], [[1.0, 1.0]], [[1.0]], np.zeros((1, 2)), domain)

    assert verify_structured([row(inside)], spec)
    for pole in boundary:
        assert not verify_structured([row(pole)], spec)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=10**6),
)
def test_assign_stable_spectrum_places_poles(p, q, seed):
    rng = np.random.default_rng(seed)
    base = random_partitioned(rng, p, q, 1)
    targets = stable_targets(q, rng)
    K = assign_stable_spectrum(base.A22, base.A12, targets)
    got = np.sort(np.linalg.eigvals(base.A22 + K @ base.A12).real)
    assert np.allclose(got, np.sort(targets), atol=1e-6)


def test_assign_stable_spectrum_q_zero():
    K = assign_stable_spectrum(np.zeros((0, 0)), np.zeros((2, 0)), np.zeros(0))
    assert K.shape == (0, 2)


def test_mm_solve_deterministic():
    # the least-squares solve has no random start, so two calls agree exactly
    pair, spec = _sheared_block_problem(9001, "continuous")
    base = pair.base
    K1 = mm_solve(base, spec, SolveOptions(tol=1e-6))
    K2 = mm_solve(base, spec, SolveOptions(tol=1e-6))
    assert np.array_equal(K1, K2)


@pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -1.0])
def test_tolerances_must_be_finite_and_at_least_0(tol):
    # mm_conditions reported passed: False at NaN and -1 where 5e-3 passes
    base, K, spec = ring_inputs()
    pair = SrtrPair(base, K)
    for call in (
        lambda: mm_conditions(base, K, spec, tol=tol),
        lambda: SolveOptions(tol=tol),
        lambda: reduce_rows(base, K, spec, tol=tol),
        lambda: verify_structured(pair, spec, tol=tol),
        lambda: verify_structured(reduce_rows(base, K, spec), spec, tol=tol),
    ):
        with pytest.raises(InvalidInputError, match="must be finite and at least 0"):
            call()
    assert mm_conditions(base, K, spec, tol=5e-3).passed
    assert SolveOptions(tol=0.0).tol == 0.0
