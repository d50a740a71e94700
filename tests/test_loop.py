import numpy as np
import pytest
from scipy.linalg import block_diag, expm

from helpers import random_pair
from srtrkit import fixtures
from srtrkit.errors import AlgebraicLoopError, DimensionError, PreconditionError
from srtrkit.loop import (
    ClosedLoopModel,
    RowImplementation,
    Trajectory,
    assemble_closed_loop,
    check_internal_stability,
    kd_from_srtr,
    rowwise_implementation,
    simulate,
    unstable_pole_count,
)
from srtrkit.systems import StateSpaceSystem, eval_tfm

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


def test_simulate_flags_divergence():
    cl = ClosedLoopModel(
        Acl=np.array([[5.0]]),
        B_r=np.zeros((1, 1)),
        B_w=np.zeros((1, 1)),
        B_zeta=np.zeros((1, 1)),
        B_du=np.zeros((1, 1)),
        Cu=np.zeros((1, 1)),
        Cy=np.ones((1, 1)),
        E=np.zeros((1, 1)),
        F=np.zeros((1, 1)),
        n_plant=1,
        n_ctrl=0,
        domain="continuous",
    )
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
    rows = 1100
    awkward = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, 1 / 3]
    cols = {k: rng.normal(size=(rows, 2)) * 10.0 ** rng.integers(-20, 20, size=(rows, 2))
            for k in ("x", "r", "w", "zeta", "du", "u", "y", "z", "v")}
    for i, val in enumerate(awkward):
        cols["x"][(i * 157) % rows, i % 2] = val
        cols["v"][rows - 1 - i, 0] = val
    t = np.arange(rows) * 1e-3
    traj = Trajectory(t=t, **cols)
    data = np.hstack([t[:, None]] + list(cols.values()))
    want = [",".join(f"{val:.12g}" for val in row) + "\n" for row in data]
    got = traj.to_csv().splitlines(keepends=True)[1:]
    assert len(got) == rows
    assert [i for i in range(rows) if got[i] != want[i]] == []
