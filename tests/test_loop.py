import io
import math
import tracemalloc

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import block_diag, expm

from helpers import (
    assign_stable_spectrum,
    block_network,
    csv_reference,
    forcing_reference,
    own_loop_move,
    random_pair,
    stable_targets,
)
from srtrkit import fixtures, loop
from srtrkit.errors import AlgebraicLoopError, DimensionError, PreconditionError
from srtrkit.loop import (
    _BLOCK,
    ClosedLoopModel,
    RowImplementation,
    Trajectory,
    assemble_closed_loop,
    check_internal_stability,
    kd_from_srtr,
    _propagate,
    _sample,
    _step_matrices,
    rowwise_implementation,
    simulate,
    unstable_pole_count,
)
from srtrkit.linalg import eigenvalues, stability_margin
from srtrkit.srtr import SrtrPair
from srtrkit.synthesis import SynthesisSpec, dense_spec, reduce_rows
from srtrkit.systems import (
    PartitionedRealization,
    StateSpaceSystem,
    eval_tfm,
    is_minimal,
    minimal_realization,
    with_integrators,
)

# overflow on the divergence path must stay inside simulate
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def ring_rows(orders=1):
    return rowwise_implementation(fixtures.ring6_pair(), orders=[orders] * 6)


def test_kd_transfer_matches_scaled_wv():
    pair = fixtures.ring6_pair()
    kd = kd_from_srtr(pair)
    for lam in (0.8 + 0.6j, 2.0, -1.0 + 3.0j):
        want = eval_tfm(pair.wv_system(), lam) / lam
        got = eval_tfm(kd.realization, lam)
        assert np.allclose(got, want, atol=1e-9 * (1 + np.linalg.norm(want)))
    assert np.allclose(kd.realization.D, 0.0)


def test_kd_pole_structure_continuous():
    pair = fixtures.ring6_pair()
    kd = kd_from_srtr(pair)
    eig = np.linalg.eigvals(kd.realization.A)
    at_zero = np.sum(np.abs(eig) <= 1e-8)
    assert at_zero == pair.p
    rest = eig[np.abs(eig) > 1e-8]
    assert np.all(rest.real < 0)
    assert unstable_pole_count(kd.realization) == pair.p


def test_kd_pole_structure_discrete():
    rng = np.random.default_rng(17)
    pair = random_pair(rng, 2, 2, 2, domain="discrete", stable=True)
    kd = kd_from_srtr(pair)
    eig = np.linalg.eigvals(kd.realization.A)
    assert np.all(np.abs(eig) < 1.0)
    assert unstable_pole_count(kd.realization) == 0


def test_rowwise_implementation_orders_and_feedthrough():
    rows = ring_rows()
    assert rows.p == 6 and rows.m == 6
    assert rows.orders() == (2,) * 6  # first-order row plus its integrator
    for row in rows.rows:
        assert np.allclose(row.D, 0.0)


def test_rowwise_rows_reproduce_kd_rows():
    pair = fixtures.ring6_pair()
    rows = rowwise_implementation(pair)  # exact, no truncation
    kd = kd_from_srtr(pair)
    for lam in (0.9 + 0.9j, 2.2):
        full = eval_tfm(kd.realization, lam)
        for i, row in enumerate(rows.rows):
            got = eval_tfm(row, lam)
            assert np.allclose(got, full[i : i + 1], atol=1e-8)


def test_rowwise_truncated_rows_approximate_kd():
    pair = fixtures.ring6_pair()
    rows = ring_rows()
    kd = kd_from_srtr(pair)
    lam = 1.5 + 0.5j
    full = eval_tfm(kd.realization, lam)
    for i, row in enumerate(rows.rows):
        got = eval_tfm(row, lam)
        assert np.allclose(got, full[i : i + 1], atol=2e-2)


def test_rowwise_requires_stable_pair():
    hot = fixtures.scalar_class_pair(2.0)
    with pytest.raises(PreconditionError):
        rowwise_implementation(hot, orders=[1])


def test_exact_ring_rows_are_minimal_with_one_integrator():
    # row i of lam^{-1} [W V] needs at most q + 1 = 7 states; no other
    # row's integrator stays behind
    rows = rowwise_implementation(fixtures.ring6_pair())
    for row in rows.rows:
        assert row.n <= 7
        assert is_minimal(row)


def test_exact_ring_closed_loop_is_stable():
    cl = assemble_closed_loop(fixtures.ring6_plant(), rowwise_implementation(fixtures.ring6_pair()))
    assert check_internal_stability(cl)
    assert stability_margin(eigenvalues(cl.Acl), cl.domain) > 0.2


@pytest.mark.parametrize("domain", ["continuous", "discrete"])
def test_identically_zero_row_has_no_states(domain):
    # row 0 of [W V] is zero: no coupling, no direct term, no input
    rng = np.random.default_rng(31)
    base = random_pair(rng, 3, 2, 2, domain=domain).base
    A11, A12, B1 = base.A11.copy(), base.A12.copy(), base.B1.copy()
    A11[0], A12[0], B1[0] = 0.0, 0.0, 0.0
    base = PartitionedRealization(A11, A12, base.A21, base.A22, B1, base.B2, domain)
    pair = SrtrPair(base, assign_stable_spectrum(base.A22, base.A12, stable_targets(2, rng, domain)))
    for orders in (None, [2, 2, 2], [1, 2, 2]):
        rows = rowwise_implementation(pair, orders=orders)
        assert rows.rows[0].n == 0
        assert np.all(rows.rows[0].D == 0.0)
    lam = 0.7 + 1.3j
    want = eval_tfm(pair.wv_system(), lam) / lam
    for i, row in enumerate(rowwise_implementation(pair).rows):
        assert np.allclose(eval_tfm(row, lam), want[i : i + 1], atol=1e-10)


def test_truncated_ring_rows_are_integrators_on_reduced_rows():
    pair = fixtures.ring6_pair()
    spec = dense_spec(6, 6, 6)
    spec = SynthesisSpec(spec.maskW, spec.maskV, (1,) * 6)
    want = [with_integrators(r) for r in reduce_rows(pair.base, pair.K, spec)]
    for got, ref in zip(ring_rows().rows, want):
        for name in "ABCD":
            assert np.array_equal(getattr(got, name), getattr(ref, name))


@pytest.mark.parametrize("case", ["ring-orders-1", "block-network"])
def test_rows_at_the_spec_orders_are_the_reduced_rows_of_the_spec(case):
    # reduce_rows reads the spec's orders and never its masks, so the rows
    # built at those orders are the spec's reduced rows behind an integrator
    if case == "ring-orders-1":
        pair, spec = fixtures.ring6_pair(), fixtures.ring6_spec(orders=1)
    else:
        pair, mask, blocks = block_network(np.random.default_rng(9), 9)
        spec = SynthesisSpec(mask, mask, tuple(blocks))
    want = [minimal_realization(with_integrators(r)) for r in reduce_rows(pair.base, pair.K, spec)]
    got = rowwise_implementation(pair, orders=spec.orders).rows
    assert len(got) == len(want) == pair.p
    for g, w in zip(got, want):
        for name in "ABCD":
            assert np.array_equal(getattr(g, name), getattr(w, name))


def test_own_loop_move_keeps_ring_closed_loop():
    # with C = e_0^T the row's input i reads its state 0, so moving column
    # i of B into column 0 of A changes the row alone, not the loop
    pair, plant = fixtures.ring6_pair(), fixtures.ring6_plant()
    layout = [with_integrators(r) for r in reduce_rows(pair.base, pair.K, dense_spec(6, 6, 6))]
    assert all(np.array_equal(row.C, np.eye(1, row.n)) for row in layout)
    want = assemble_closed_loop(plant, rowwise_implementation(pair)).Acl
    moved = [own_loop_move(row, i, row.B[:, i]) for i, row in enumerate(layout)]
    for rows in (layout, moved):
        Acl = assemble_closed_loop(plant, RowImplementation(tuple(rows), 6, 6, "continuous")).Acl
        assert Acl.shape == want.shape
        assert np.linalg.norm(Acl - want) <= 1e-12 * np.linalg.norm(want)


def test_assemble_ring_closed_loop_is_stable():
    plant = fixtures.ring6_plant()
    cl = assemble_closed_loop(plant, ring_rows())
    assert cl.Acl.shape == (24, 24)
    eig = np.linalg.eigvals(cl.Acl)
    assert np.max(eig.real) == pytest.approx(-0.2187, abs=5e-3)
    assert check_internal_stability(cl)


def test_closed_loop_rejects_dimension_mismatch():
    plant = fixtures.ring6_plant()
    small = StateSpaceSystem(
        plant.A[:2, :2], plant.B[:2, :1], plant.C[:1, :2], np.zeros((1, 1)),
        "continuous",
    )
    with pytest.raises(Exception):
        assemble_closed_loop(small, ring_rows())


def test_closed_loop_requires_stabilizable_plant():
    # an unstable mode that no input reaches and no output sees
    A = np.diag([3.0, -1.0])
    B = np.array([[0.0], [1.0]])
    C = np.array([[0.0, 1.0]])
    plant = StateSpaceSystem(A, B, C, np.zeros((1, 1)), "continuous")
    rng = np.random.default_rng(2)
    pair = random_pair(rng, 1, 1, 1, stable=True)
    rows = rowwise_implementation(pair)
    with pytest.raises(PreconditionError):
        assemble_closed_loop(plant, rows)


def test_closed_loop_rejects_u_feedthrough():
    rng = np.random.default_rng(4)
    pair = random_pair(rng, 1, 1, 1, stable=True)
    rows = rowwise_implementation(pair)
    leaky = StateSpaceSystem(
        rows.rows[0].A,
        rows.rows[0].B,
        rows.rows[0].C,
        np.array([[1.0, 0.0]]),  # feedthrough on the u channel
        "continuous",
    )
    plant = StateSpaceSystem(
        np.array([[-1.0]]), np.array([[1.0]]), np.array([[1.0]]),
        np.zeros((1, 1)), "continuous",
    )
    with pytest.raises(AlgebraicLoopError):
        assemble_closed_loop(
            plant, RowImplementation((leaky,), 1, 1, "continuous")
        )


def test_internal_stability_depends_on_controller():
    # plant alone is unstable; a do-nothing controller cannot rescue it
    plant = StateSpaceSystem(
        np.array([[0.5]]), np.array([[1.0]]), np.array([[1.0]]),
        np.zeros((1, 1)), "continuous",
    )
    idle_row = StateSpaceSystem(
        -np.ones((1, 1)), np.zeros((1, 2)), np.ones((1, 1)), np.zeros((1, 2)),
        "continuous",
    )
    cl = assemble_closed_loop(
        plant, RowImplementation((idle_row,), 1, 1, "continuous")
    )
    assert not check_internal_stability(cl)


def test_simulate_matches_matrix_exponential():
    plant = fixtures.ring6_plant()
    cl = assemble_closed_loop(plant, ring_rows())
    rng = np.random.default_rng(0)
    x0 = rng.normal(size=cl.n)
    traj = simulate(cl, x0=x0, horizon=1.0, dt=1e-3)
    ref = expm(1.0 * cl.Acl) @ x0
    assert np.allclose(traj.x[-1], ref, atol=1e-6 * (1 + np.linalg.norm(ref)))
    assert not traj.diverged
    assert traj.t[-1] == pytest.approx(1.0)


def test_simulate_discrete_iteration():
    rng = np.random.default_rng(88)
    pair = random_pair(rng, 1, 1, 1, domain="discrete", stable=True)
    rows = rowwise_implementation(pair)
    plant = StateSpaceSystem(
        np.array([[0.2]]), np.array([[1.0]]), np.array([[1.0]]),
        np.zeros((1, 1)), "discrete",
    )
    cl = assemble_closed_loop(plant, rows)
    x0 = np.ones(cl.n)
    traj = simulate(cl, x0=x0, horizon=10)
    ref = np.linalg.matrix_power(cl.Acl, 10) @ x0
    assert np.allclose(traj.x[-1], ref, atol=1e-10)
    # driven: x_{k+1} = Acl x_k + B_w w(k) + B_du du(k)
    w = lambda t: np.sin(t)
    du = lambda t: 0.1 * t
    traj = simulate(cl, signals={"w": w, "du": du}, x0=x0, horizon=10)
    x = x0
    for k in range(10):
        x = cl.Acl @ x + cl.B_w @ [w(k)] + cl.B_du @ [du(k)]
    assert np.allclose(traj.x[-1], x, atol=1e-10)


def test_simulate_signal_algebra():
    plant = fixtures.ring6_plant()
    cl = assemble_closed_loop(plant, ring_rows())
    r = lambda t: np.full(cl.m, 0.5)
    traj = simulate(cl, signals={"r": r}, horizon=0.05, dt=1e-3)
    assert np.allclose(traj.z, traj.r + traj.y, atol=1e-12)
    assert np.allclose(traj.v, traj.u + traj.w, atol=1e-12)


def test_simulate_driven_matches_exosystem_exponential():
    # each channel is amp * sin(omega t + phi); the generator state
    # (sin, cos) of every channel joins the loop, and expm of the augmented
    # matrix is the exact driven response
    plant = fixtures.ring6_plant()
    cl = assemble_closed_loop(plant, ring_rows())
    rng = np.random.default_rng(5)
    x0 = rng.normal(size=cl.n)
    signals, feed, gens, e0 = {}, [], [], []
    for name, B in (("r", cl.B_r), ("w", cl.B_w), ("zeta", cl.B_zeta), ("du", cl.B_du)):
        amp = rng.normal(size=B.shape[1])
        om, ph = rng.uniform(0.5, 4.0), rng.uniform(0.0, 2 * np.pi)
        signals[name] = lambda t, a=amp, om=om, ph=ph: a * np.sin(om * t + ph)
        feed.append(np.column_stack([B @ amp, np.zeros(cl.n)]))
        gens.append(np.array([[0.0, om], [-om, 0.0]]))
        e0 += [np.sin(ph), np.cos(ph)]
    S = block_diag(*gens)
    aug = np.block([[cl.Acl, np.hstack(feed)], [np.zeros((S.shape[0], cl.n)), S]])
    z0 = np.concatenate([x0, e0])
    traj = simulate(cl, signals=signals, x0=x0, horizon=3.0, dt=1e-3)
    assert not traj.diverged
    for k in (1, 250, 1000, 3000):
        exact = (expm(traj.t[k] * aug) @ z0)[: cl.n]
        assert np.linalg.norm(traj.x[k] - exact) <= 1e-9 * np.linalg.norm(exact)
        assert np.array_equal(traj.r[k], signals["r"](traj.t[k]))


def test_simulate_signal_shapes():
    plant = fixtures.ring6_plant()
    cl = assemble_closed_loop(plant, ring_rows())
    traj = simulate(cl, signals={"w": lambda t: 0.5}, horizon=0.01, dt=1e-3)
    assert traj.w.shape == (11, cl.p)
    assert np.all(traj.w == 0.5)
    assert np.all(traj.r == 0.0)
    with pytest.raises(DimensionError):
        simulate(cl, signals={"r": lambda t: np.ones(cl.m + 1)}, horizon=0.01, dt=1e-3)


def test_simulate_samples_grid_callables_once():
    plant = fixtures.ring6_plant()
    cl = assemble_closed_loop(plant, ring_rows())
    rng = np.random.default_rng(6)
    amp, om, ph = rng.normal(size=cl.m), rng.uniform(0.5, 4.0), rng.uniform(0.0, 6.0)
    calls = []

    def r(t):
        calls.append(np.shape(t))
        return amp * np.sin(om * t + ph)

    traj = simulate(cl, signals={"r": r}, horizon=2.0, dt=1e-3)
    # the grid column and its first time, then the midpoints the same way
    assert calls == [(2001, 1), (), (2000, 1), ()]
    for times in (traj.t, traj.t[:-1] + 5e-4):
        assert np.array_equal(_sample(r, times, cl.m, "r"), np.array([r(t) for t in times]))
    assert np.array_equal(traj.r, np.array([r(t) for t in traj.t]))


@pytest.mark.parametrize(
    "scalar",
    [lambda t: 1.0 if t > 0.05 else 0.0, math.sin],
    ids=["step", "math.sin"],
)
def test_simulate_scalar_only_signals(scalar):
    # called per point, with the same trajectory as a grid callable that
    # returns the same values
    plant = fixtures.ring6_plant()
    cl = assemble_closed_loop(plant, ring_rows())
    x0 = np.random.default_rng(7).normal(size=cl.n)
    grid = np.vectorize(scalar, otypes=[float])
    got = simulate(cl, signals={"w": scalar}, x0=x0, horizon=0.2, dt=1e-3)
    want = simulate(cl, signals={"w": grid}, x0=x0, horizon=0.2, dt=1e-3)
    assert np.array_equal(got.w[:, 0], [scalar(t) for t in got.t])
    for name in ("x", "w", "u", "y", "z", "v"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


def test_simulate_one_row_per_call_falls_back_per_point():
    plant = fixtures.ring6_plant()
    cl = assemble_closed_loop(plant, ring_rows())
    calls = []

    def r(t):
        calls.append(np.shape(t))
        return np.full(cl.m, 0.5)  # one time's row, whatever t is

    traj = simulate(cl, signals={"r": r}, horizon=0.01, dt=1e-3)
    assert traj.r.shape == (11, cl.m)
    assert np.all(traj.r == 0.5)
    assert calls[0] == (11, 1) and calls[1:12] == [()] * 11


@pytest.mark.parametrize("kind", ["column", "mixed"])
def test_simulate_broadcasting_signal_at_as_many_times_as_entries(kind):
    # per point these give one row of m values, but on an (m, 1) column of
    # times they broadcast to the wrong samples: (m, 1) for the column vector,
    # M applied across the times for the mixed one
    plant = fixtures.ring6_plant()
    cl = assemble_closed_loop(plant, ring_rows())
    rng = np.random.default_rng(8)
    b, M = rng.normal(size=(cl.m, 1)), rng.normal(size=(cl.m, cl.m))
    r = {
        "column": lambda t: b * np.sin(t),
        "mixed": lambda t: M @ (b[:, 0] * np.sin(t)),
    }[kind]
    times = np.linspace(0.1, 1.0, cl.m)
    want = np.array([np.ravel(r(t)) for t in times])
    assert np.array_equal(_sample(r, times, cl.m, "r"), want)
    # the grid (horizon (m - 1) dt) or the midpoints (horizon m dt) have m times
    for steps in (cl.m - 1, cl.m):
        traj = simulate(cl, signals={"r": r}, horizon=steps * 1e-3, dt=1e-3)
        assert np.array_equal(traj.r, [np.ravel(r(t)) for t in traj.t])
        assert not np.array_equal(traj.r[1:, 0], traj.r[1:, 1])


def _recurrence(Phi, x0, G):
    X = [x0]
    for g in G:
        X.append(Phi @ X[-1] + g)
    return np.array(X)


@pytest.mark.parametrize("rows", [1, 2, _BLOCK + 1, 20001])
@pytest.mark.parametrize("domain", ["continuous", "discrete"])
def test_propagate_matches_recurrence(domain, rows):
    rng = np.random.default_rng(rows)
    n = 6
    A = rng.normal(size=(n, n))
    if domain == "continuous":
        A -= (np.max(np.linalg.eigvals(A).real) + 0.3) * np.eye(n)
        Phi = _step_matrices(A, 1e-3)[0]
    else:
        # spectral radius 0.99 with ||Phi||_1 > 1, so blocks are shorter
        Phi = 0.99 * A / np.max(np.abs(np.linalg.eigvals(A)))
        assert np.linalg.norm(Phi, 1) > 1.5
    x0 = rng.normal(size=n)
    G = rng.normal(size=(rows - 1, n)) * 1e-2
    want = _recurrence(Phi, x0, G)
    got = _propagate(Phi, x0, rows - 1, [(G, np.eye(n))])
    assert got.shape == (rows, n)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def _random_model(rng, n, p, m, domain):
    """A stable random loop of n states with p inputs and m outputs."""
    A = rng.normal(size=(n, n)) / np.sqrt(n)
    if domain == "continuous":
        A -= (np.max(np.linalg.eigvals(A).real) + 0.2) * np.eye(n)
    else:
        A *= 0.9 / np.max(np.abs(np.linalg.eigvals(A)))
    return ClosedLoopModel(
        Acl=A, B_r=rng.normal(size=(n, m)), B_w=rng.normal(size=(n, p)),
        B_zeta=rng.normal(size=(n, m)), B_du=rng.normal(size=(n, p)),
        Cu=rng.normal(size=(p, n)), Cy=rng.normal(size=(m, n)),
        E=rng.normal(size=(p, m)), F=np.zeros((m, p)),
        n_plant=n, n_ctrl=0, domain=domain,
    )


@pytest.mark.parametrize("channels", [("r", "w", "zeta", "du"), ("w",), ("zeta", "du")])
@pytest.mark.parametrize("domain", ["continuous", "discrete"])
def test_simulate_forcing_matches_per_channel_oracle(domain, channels):
    # the stacked forcing, written into the stepped rows, against each
    # channel's own products summed, stepped by the same recurrence
    rng = np.random.default_rng(len(channels))
    cl = _random_model(rng, 7, 2, 3, domain)
    dims = {"r": cl.m, "w": cl.p, "zeta": cl.m, "du": cl.p}
    signals = {
        c: (lambda t, a=rng.normal(size=dims[c]), om=rng.uniform(0.5, 4.0):
            a * np.sin(om * t) + 0.1 * t)
        for c in channels
    }
    x0 = rng.normal(size=cl.n)
    horizon = 0.5 if domain == "continuous" else 300
    traj = simulate(cl, signals=signals, x0=x0, horizon=horizon, dt=1e-3)
    Phi, G = forcing_reference(cl, signals, horizon)
    want = _propagate(Phi, x0, len(G), [(G, np.eye(cl.n))])
    assert traj.x.shape == want.shape and not traj.diverged
    assert np.linalg.norm(traj.x - want) <= 1e-13 * np.linalg.norm(want)
    for c in ("r", "w", "zeta", "du"):
        assert getattr(traj, c).shape == (len(traj.t), dims[c])
        assert np.any(getattr(traj, c)) == (c in channels)


def _scalar_model(Acl, domain):
    n = Acl.shape[0]
    return ClosedLoopModel(
        Acl=Acl,
        B_r=np.zeros((n, 1)),
        B_w=np.zeros((n, 1)),
        B_zeta=np.zeros((n, 1)),
        B_du=np.zeros((n, 1)),
        Cu=np.zeros((1, n)),
        Cy=np.ones((1, n)),
        E=np.zeros((1, 1)),
        F=np.zeros((1, 1)),
        n_plant=n,
        n_ctrl=0,
        domain=domain,
    )


def test_simulate_large_norm_without_growth():
    # the unstable mode is never excited; powers of Acl past 1e308 would
    # turn its zero into nan (inf * 0) and flag a divergence
    cl = _scalar_model(np.diag([1e6, 0.5]), "discrete")
    traj = simulate(cl, x0=np.array([0.0, 1.0]), horizon=200)
    assert traj.x.shape == (201, 2)
    assert traj.diverged is False
    assert np.array_equal(traj.x[:, 1], 0.5 ** np.arange(201))


def test_simulate_flags_divergence():
    cl = _scalar_model(np.array([[5.0]]), "continuous")
    traj = simulate(cl, x0=np.array([1.0]), horizon=20.0, dt=1e-2)
    assert traj.diverged
    assert traj.t[-1] < 20.0
    # a horizon long enough to overflow ends the record at the same point
    long = simulate(cl, x0=np.array([1.0]), horizon=200.0, dt=1e-2)
    assert long.diverged
    assert np.array_equal(long.x, traj.x)


def test_csv_layout():
    plant = fixtures.ring6_plant()
    cl = assemble_closed_loop(plant, ring_rows())
    traj = simulate(cl, horizon=0.002, dt=1e-3)
    lines = traj.to_csv().splitlines()
    header = lines[0].split(",")
    n, p, m = cl.n, cl.p, cl.m
    assert header[0] == "t"
    assert header[1 : 1 + n] == [f"x{i}" for i in range(n)]
    offset = 1 + n
    for name, dim in (
        ("r", m), ("w", p), ("zeta", m), ("du", p),
        ("u", p), ("y", m), ("z", m), ("v", p),
    ):
        assert header[offset : offset + dim] == [f"{name}{i}" for i in range(dim)]
        offset += dim
    assert len(header) == offset
    assert len(lines) == 1 + len(traj.t)


def test_csv_values_match_format_spec():
    # more rows than one formatting block, with the awkward values spread in
    rng = np.random.default_rng(9)
    rows = 2000
    awkward = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, 1 / 3]
    cols = {k: rng.normal(size=(rows, 2)) * 10.0 ** rng.integers(-20, 20, size=(rows, 2))
            for k in ("x", "r", "w", "zeta", "du", "u", "y", "z", "v")}
    for i, val in enumerate(awkward):
        cols["x"][(i * 157) % rows, i % 2] = val
        cols["v"][rows - 1 - i, 0] = val
    traj = Trajectory(t=np.arange(rows) * 1e-3, **cols)
    assert rows * 19 > loop._CSV_BLOCK
    assert traj.to_csv() == csv_reference(traj)


def _trajectory(values, width=10):
    """Trajectory of ``values`` laid out in rows of ``width``: t, then the
    nine channels, each at least one column wide."""
    values = np.asarray(values, dtype=float).ravel()
    data = np.zeros(-(-values.size // width) * width)
    data[: values.size] = values
    data = data.reshape(-1, width)
    return Trajectory(data[:, 0], *np.array_split(data[:, 1:], 9, axis=1))


def _twelve_digit_ties(rng, count):
    """Doubles whose exact decimal value lies halfway between two 12-digit
    numbers: m / 2**k with m odd and m 5**k of 13 digits, and integers
    (2M + 1) 10**d / 2 with M of 12 digits."""
    out = [123456789012.5, 123456789013.5]
    for k in range(1, 9):
        m = rng.integers(-(-10**12 // 5**k), 10**13 // 5**k, count) | 1
        out.extend((m / 2.0**k).tolist())
    for d in range(1, 4):
        m = rng.integers(10**11, 10**12, count)
        out.extend(((2 * m + 1) * 10**d // 2).astype(float).tolist())
    return np.array(out)


def _near_ties(rng, count):
    """The doubles on either side of decimal ties M.5e(E) at random E: the
    nearest double and its neighbour on the other side of the tie. The
    scaled value of these lies within its own rounding error of the tie."""
    m = rng.integers(10**11, 10**12, count).tolist()
    e = rng.integers(-280, 280, count).tolist()
    nearest = np.array([float("%d5e%d" % pair) for pair in zip(m, e)])
    return np.concatenate(
        [nearest, np.nextafter(nearest, 0.0), np.nextafter(nearest, np.inf)])


def _csv_cases():
    rng = np.random.default_rng(19)
    ties = _twelve_digit_ties(rng, 50)
    decades = [float("1e%d" % k) for k in range(-320, 309)]
    thresholds = [9.99999999999e-05, 9.999999999995e-05, 1e-05, 0.0001,
                  999999999999.5, 1e12, 1e16]
    specials = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-100,
                -2.5e200, 1.5e-290, 1e290, 9.9e-291, 1.1e290, 1e308]
    return {
        "random-bits": rng.integers(0, 2**64, 5000 * 10, dtype=np.uint64).view(np.float64),
        "decades": np.concatenate([decades, np.negative(decades)]),
        "ties": np.concatenate([ties, -ties]),
        "tie-neighbours": np.concatenate(
            [np.nextafter(ties, 0.0), np.nextafter(ties, np.inf), _near_ties(rng, 300)]),
        "thresholds": np.concatenate([thresholds, np.negative(thresholds)]),
        "specials": specials,
        "ring-like": rng.normal(size=4000) * 10.0 ** rng.integers(-6, 2, 4000),
    }


@pytest.mark.parametrize("case", list(_csv_cases()))
def test_csv_bytes_equal_percent_format(case):
    values = _csv_cases()[case]
    traj = _trajectory(values)
    assert traj.to_csv() == csv_reference(traj)


def test_csv_ties_are_rounded_half_even():
    # an exact tie rounds to the even 12th digit, as % rounds it
    traj = _trajectory([123456789012.5, 123456789013.5, 0.5, 2.5e-5, 1e-05])
    assert traj.to_csv().splitlines()[1].split(",")[:5] == [
        "123456789012", "123456789014", "0.5", "2.5e-05", "1e-05"]


@pytest.mark.parametrize("rows,width", [(0, 10), (1, 10), (1, 19), (3, 10), (7000, 10)])
def test_csv_shapes(rows, width):
    rng = np.random.default_rng(rows + width)
    traj = _trajectory(rng.normal(size=rows * width), width)
    assert traj.x.shape[0] == rows
    text = traj.to_csv()
    assert text == csv_reference(traj)
    assert text.count("\n") == rows + 1


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(0, 4), st.just(10)),
                  elements=st.floats()))
def test_csv_property_any_float(data):
    traj = Trajectory(data[:, 0], *np.array_split(data[:, 1:], 9, axis=1))
    assert traj.to_csv() == csv_reference(traj)


class _Sink:
    """A text file that keeps every ``write`` it is given, or with
    ``keep=False`` only counts the characters."""

    def __init__(self, keep=True):
        self.keep, self.writes, self.chars = keep, [], 0

    def write(self, text):
        self.chars += len(text)
        if self.keep:
            self.writes.append(text)


@pytest.mark.parametrize("rows,width", [(0, 10), (1, 10), (3, 19), (7000, 10), (2000, 73)])
def test_csv_streamed_equals_returned(rows, width):
    rng = np.random.default_rng(rows * width + 1)
    traj = _trajectory(rng.normal(size=rows * width) * 10.0 ** rng.integers(-8, 8, rows * width),
                       width)
    text = traj.to_csv()
    assert text == csv_reference(traj)
    buf = io.StringIO()
    assert traj.to_csv(buf) is None
    assert buf.getvalue() == text
    # the header goes out first, then one write per block of whole rows
    sink = _Sink()
    traj.to_csv(sink)
    per_block = loop._CSV_BLOCK // width
    assert sink.writes[0] == text[: text.index("\n") + 1]
    assert len(sink.writes) == 1 + -(-rows // per_block)
    assert all(w.endswith("\n") and w.count("\n") <= per_block for w in sink.writes[1:])


def test_csv_fallbacks_at_block_boundary():
    # values that the kernel leaves to % (and -0.0), in the last row of the
    # first block and the first row of the second, at the row ends too
    width = 73
    per_block = loop._CSV_BLOCK // width
    rng = np.random.default_rng(21)
    data = rng.normal(size=(3 * per_block, width))
    awkward = [np.nan, -np.inf, -0.0, 123456789012.5, 1e300]
    for row in (per_block - 1, per_block):
        for i, val in enumerate(awkward):
            data[row, [0, 1 + 13 * i, width - 1 - i][i % 3]] = val
        data[row, -1] = awkward[row % len(awkward)]
    traj = _trajectory(data, width)
    buf = io.StringIO()
    traj.to_csv(buf)
    assert buf.getvalue() == traj.to_csv() == csv_reference(traj)


def _free_trajectory(rng, rows, n, p, m):
    """A trace shaped as a free response writes it: r, w, zeta and du zero,
    z = r + y and v = u + w."""
    x = rng.normal(size=(rows, n)) * 10.0 ** rng.integers(-6, 2, (rows, n))
    u, y = rng.normal(size=(rows, p)), rng.normal(size=(rows, m))
    r, w = np.zeros((rows, m)), np.zeros((rows, p))
    return Trajectory(np.arange(rows) * 1e-3, x, r, w, np.zeros((rows, m)),
                      np.zeros((rows, p)), u, y, r + y, u + w)


def _assert_csv(traj):
    text = traj.to_csv()
    assert text == csv_reference(traj)
    buf = io.StringIO()
    traj.to_csv(buf)
    assert buf.getvalue() == text
    return text


def test_csv_repeated_channels_keep_the_sign_of_zero():
    # r = +0.0 and y = -0.0 give z = +0.0: z equals y in value, not in bits
    rng = np.random.default_rng(22)
    traj = _free_trajectory(rng, 50, 4, 3, 3)
    traj.y[[0, 7, 49], 1] = -0.0
    traj.u[:, 2] = -0.0
    traj.z[:], traj.v[:] = traj.r + traj.y, traj.u + traj.w
    assert np.array_equal(traj.z, traj.y) and np.array_equal(traj.v, traj.u)
    arrays = [traj.t[:, None], traj.x, traj.r, traj.w, traj.zeta, traj.du,
              traj.u, traj.y, traj.z, traj.v]
    kept, columns = loop._distinct_columns(arrays)
    # t, x, one zero column, u, y, and z and v for their signed zeros
    assert sum(a.shape[1] for a in kept) == 1 + 4 + 1 + 4 * 3
    assert len(columns) == 1 + 4 + 8 * 3
    lines = _assert_csv(traj).splitlines()
    header = lines[0].split(",")
    row = lines[8].split(",")
    assert row[header.index("y1")] == "-0" and row[header.index("z1")] == "0"
    assert row[header.index("u2")] == "-0" and row[header.index("v2")] == "0"


@pytest.mark.parametrize("p,m", [(2, 5), (5, 2), (1, 1), (3, 0)])
def test_csv_zero_channels_of_unequal_widths(p, m):
    rng = np.random.default_rng(10 * p + m)
    for rows in (0, 1, 3, 2 * loop._CSV_BLOCK // (1 + 6 + 4 * (p + m))):
        traj = _free_trajectory(rng, rows, 6, p, m)
        _assert_csv(traj)
    # every channel zero but t, x and u
    traj.y[:] = 0.0
    traj.z[:] = 0.0
    _assert_csv(traj)


def test_csv_channels_equal_only_in_their_first_and_last_rows():
    rng = np.random.default_rng(23)
    traj = _free_trajectory(rng, 3 * loop._CSV_BLOCK // 37, 6, 3, 3)
    traj.z[1:-1] += 1e-9  # z matches y in its first and last rows only
    traj.v[5, 0] = np.nextafter(traj.v[5, 0], 1.0)  # one bit inside
    traj.du[10, 2] = 5e-324  # zero in the first and last rows only
    traj.w[-1, 0] = -0.0  # zero in value, not in bits
    _assert_csv(traj)


def test_csv_repeated_channels_with_fallbacks_at_block_boundary():
    # nan, a rounding tie and 1e300, which % formats, in a channel and its
    # repeat, in the last row of a block and the first of the next
    rng = np.random.default_rng(24)
    p = m = 6
    width = 1 + 24 + 8 * p
    per_block = loop._CSV_BLOCK // width
    traj = _free_trajectory(rng, 3 * per_block, 24, p, m)
    for row in (per_block - 1, per_block):
        traj.y[row, [0, 2, m - 1]] = [np.nan, 123456789012.5, 1e300]
        traj.u[row, [0, p - 1]] = [-np.inf, 1e300]
    traj.x[per_block, 0] = np.nan
    traj.z[:], traj.v[:] = traj.y, traj.u
    text = _assert_csv(traj)
    assert text.count("nan") == 5 and text.count("1e+300") == 8


def _ring_sized_trajectory(rows):
    """``rows`` grid points of the ring loop's 73 columns (24 states, six of
    every signal), ring-like magnitudes."""
    rng = np.random.default_rng(rows)
    data = rng.normal(size=(rows, 73)) * 10.0 ** rng.integers(-6, 2, (rows, 73))
    return Trajectory(data[:, 0], data[:, 1:25], *np.split(data[:, 25:], 8, axis=1))


def test_csv_stream_memory_is_one_block():
    peaks, chars = [], []
    for rows in (8000, 80000):
        traj = _ring_sized_trajectory(rows)
        sink = _Sink(keep=False)
        tracemalloc.start()
        try:
            traj.to_csv(sink)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        chars.append(sink.chars)
        del traj
    assert chars[1] > 9 * chars[0]
    assert peaks[1] <= 1.5 * peaks[0]
    assert peaks[1] < chars[1] / 4
