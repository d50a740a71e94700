"""Controller realization, row-wise implementation, closed-loop assembly and
simulation.

The controller is the strictly proper block [lam^{-1} W, lam^{-1} V]; it acts
on its own delayed/integrated output u plus a measurement z = r + y and so
never creates an algebraic loop. Rows are implemented one at a time so each
node only carries its own dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (
    AlgebraicLoopError,
    DimensionError,
    NonFiniteError,
    PreconditionError,
)
from .linalg import (
    check_domain,
    eigenvalues,
    in_stability_region,
    is_stable_spectrum,
    structural_property,
)
from .srtr import SrtrPair, srtr_is_stable
from .synthesis import SynthesisSpec, dense_spec, reduce_rows
from .systems import (
    StateSpaceSystem,
    eval_tfm,
    is_minimal,
    minimal_realization,
)


@dataclass(frozen=True)
class KdController:
    """Strictly proper controller realization of [lam^{-1} W, lam^{-1} V]."""

    realization: StateSpaceSystem
    source: SrtrPair

    @property
    def p(self) -> int:
        return self.source.p

    @property
    def m(self) -> int:
        return self.source.m


def kd_from_srtr(pair: SrtrPair) -> KdController:
    """Realize the controller by chaining integrators in front of [W V].

    The p integrator states feed the outputs; the hidden block is the pair's
    own Aw. Feedthrough is identically zero by construction.
    """
    p, q, m = pair.p, pair.q, pair.m
    A = np.block(
        [[np.zeros((p, p)), pair.Cw], [np.zeros((q, p)), pair.Aw]]
    )
    B = np.vstack([pair.Dw, pair.Bw])
    C = np.hstack([np.eye(p), np.zeros((p, q))])
    D = np.zeros((p, p + m))
    return KdController(
        StateSpaceSystem(A, B, C, D, pair.domain), pair
    )


def unstable_pole_count(sys: StateSpaceSystem, domain: str | None = None) -> int:
    """Eigenvalues outside the stability region, counted on the minimal part.

    Non-minimal inputs are pruned first so hidden cancelling modes do not
    inflate the count.
    """
    if domain is None:
        domain = sys.domain
    check_domain(domain)
    work = sys if is_minimal(sys) else minimal_realization(sys)
    return sum(
        0 if in_stability_region(z, domain) else 1 for z in eigenvalues(work.A)
    )


@dataclass(frozen=True)
class RowImplementation:
    """One realization per controller output row; shared input [u + du; z]."""

    rows: tuple
    p: int
    m: int
    domain: str

    @property
    def n_states(self) -> int:
        return sum(r.n for r in self.rows)

    def orders(self) -> tuple:
        return tuple(r.n for r in self.rows)

    def assembled_system(self) -> StateSpaceSystem:
        """Block-diagonal stack of the rows: a single realization of the full
        controller transfer matrix."""
        n = self.n_states
        A = np.zeros((n, n))
        B = np.zeros((n, self.p + self.m))
        C = np.zeros((self.p, n))
        D = np.zeros((self.p, self.p + self.m))
        at = 0
        for i, row in enumerate(self.rows):
            k = row.n
            A[at : at + k, at : at + k] = row.A
            B[at : at + k, :] = row.B
            C[i, at : at + k] = row.C[0]
            D[i, :] = row.D[0]
            at += k
        return StateSpaceSystem(A, B, C, D, self.domain)


def _row_with_integrator(row_wv: StateSpaceSystem) -> StateSpaceSystem:
    """Divide a single-output row of [W V] by lam: one extra leading state."""
    k = row_wv.n
    A = np.zeros((k + 1, k + 1))
    A[0, 1:] = row_wv.C[0]
    A[1:, 1:] = row_wv.A
    B = np.vstack([row_wv.D, row_wv.B])
    C = np.zeros((1, k + 1))
    C[0, 0] = 1.0
    D = np.zeros((1, row_wv.n_inputs))
    return StateSpaceSystem(A, B, C, D, row_wv.domain)


def rowwise_implementation(
    pair: SrtrPair,
    orders=None,
    spec: SynthesisSpec | None = None,
) -> RowImplementation:
    """Split the controller into per-row realizations.

    Without ``orders`` each row keeps the pair's full hidden block and is then
    pruned to its reachable and observable part, which drops the integrator
    from identically zero rows. With ``orders`` (or a full spec) the hidden
    block is first truncated to n_i states per row and one integrator state is
    chained in front.
    """
    if not srtr_is_stable(pair):
        raise PreconditionError("row-wise implementation needs a stable pair")
    p, q, m = pair.p, pair.q, pair.m
    if spec is None and orders is not None:
        spec = dense_spec(p, m, q)
        spec = SynthesisSpec(spec.maskW, spec.maskV, tuple(orders), None)
    if spec is not None:
        wv_rows = reduce_rows(pair.base, pair.K, spec)
        rows = tuple(_row_with_integrator(r) for r in wv_rows)
        return RowImplementation(rows, p, m, pair.domain)
    kd = kd_from_srtr(pair)
    rows = []
    for i in range(p):
        full = StateSpaceSystem(
            kd.realization.A,
            kd.realization.B,
            kd.realization.C[i : i + 1, :],
            kd.realization.D[i : i + 1, :],
            pair.domain,
        )
        pruned = minimal_realization(full)
        rows.append(pruned)
    return RowImplementation(tuple(rows), p, m, pair.domain)


@dataclass(frozen=True)
class ClosedLoopModel:
    """Plant states stacked over controller-row states, every exogenous
    channel mapped in: r (reference), w (input disturbance), zeta
    (measurement noise), du (communication disturbance)."""

    Acl: np.ndarray
    B_r: np.ndarray
    B_w: np.ndarray
    B_zeta: np.ndarray
    B_du: np.ndarray
    Cu: np.ndarray
    Cy: np.ndarray
    E: np.ndarray
    F: np.ndarray
    n_plant: int
    n_ctrl: int
    domain: str

    @property
    def n(self) -> int:
        return self.Acl.shape[0]

    @property
    def p(self) -> int:
        return self.Cu.shape[0]

    @property
    def m(self) -> int:
        return self.Cy.shape[0]

    def outputs(self, x, r, zeta, w):
        """Signal values (u, y, z, v) at one time point, or at many with the
        time points stacked as rows."""
        u = x @ self.Cu.T + r @ self.E.T + zeta @ self.E.T
        y = x @ self.Cy.T + w @ self.F.T + zeta
        z = r + y
        v = u + w
        return u, y, z, v


def assemble_closed_loop(
    plant: StateSpaceSystem, rows: RowImplementation
) -> ClosedLoopModel:
    """Wire plant and controller rows into one autonomous-plus-inputs model.

    Loop equations: v = u + w, y = G v + zeta, z = r + y, and the rows read
    [u + du; z]. The rows' feedthrough onto their own-output channel must be
    zero, which makes direct substitution well posed.
    """
    if plant.domain != rows.domain:
        raise DimensionError("plant and rows must share the same domain")
    p, m = rows.p, rows.m
    if plant.n_inputs != p:
        raise DimensionError(
            f"plant has {plant.n_inputs} inputs but the rows produce {p} signals"
        )
    if plant.n_outputs != m:
        raise DimensionError(
            f"plant has {plant.n_outputs} outputs but the rows expect {m}"
        )
    if not structural_property(plant.A, plant.B, "stabilizable", plant.domain):
        raise PreconditionError("plant must be stabilizable")
    if not structural_property(plant.A, plant.C, "detectable", plant.domain):
        raise PreconditionError("plant must be detectable")
    ctl = rows.assembled_system()
    Du = ctl.D[:, :p]
    if np.any(Du != 0.0):
        raise AlgebraicLoopError(
            "controller rows feed their own output channel through directly"
        )
    E = ctl.D[:, p:]
    F = plant.D
    if np.any(E != 0.0) and np.any(F != 0.0):
        raise AlgebraicLoopError(
            "both controller measurement feedthrough and plant feedthrough "
            "are nonzero; the loop is not solvable by substitution"
        )
    ng, nr = plant.n, ctl.n
    Bu = ctl.B[:, :p]
    Bz = ctl.B[:, p:]
    Cu = np.hstack([E @ plant.C, ctl.C])
    Cy = np.hstack([plant.C, F @ ctl.C])
    Acl = np.block(
        [[plant.A, np.zeros((ng, nr))], [np.zeros((nr, ng)), ctl.A]]
    )
    Acl += np.vstack([plant.B, Bu]) @ Cu
    Acl += np.vstack([np.zeros((ng, m)), Bz]) @ Cy
    B_r = np.vstack([plant.B @ E, Bu @ E + Bz])
    B_w = np.vstack([plant.B, Bz @ F])
    B_zeta = np.vstack([plant.B @ E, Bu @ E + Bz])
    B_du = np.vstack([np.zeros((ng, p)), Bu])
    return ClosedLoopModel(
        Acl=Acl,
        B_r=B_r,
        B_w=B_w,
        B_zeta=B_zeta,
        B_du=B_du,
        Cu=Cu,
        Cy=Cy,
        E=E,
        F=F,
        n_plant=ng,
        n_ctrl=nr,
        domain=plant.domain,
    )


def check_internal_stability(cl: ClosedLoopModel) -> bool:
    return is_stable_spectrum(cl.Acl, cl.domain)


_CSV_BLOCK = 512  # rows formatted per join in Trajectory.to_csv
_CHANNELS = ("r", "w", "zeta", "du")


@dataclass
class Trajectory:
    """Uniform-grid record of the loop state and all visible signals."""

    t: np.ndarray
    x: np.ndarray
    r: np.ndarray
    w: np.ndarray
    zeta: np.ndarray
    du: np.ndarray
    u: np.ndarray
    y: np.ndarray
    z: np.ndarray
    v: np.ndarray
    diverged: bool = False

    def to_csv(self) -> str:
        """Header line, then one line per grid point: every value as
        ``%.12g``, formatted a block of rows at a time."""
        cols = [
            ("x", self.x), ("r", self.r), ("w", self.w), ("zeta", self.zeta),
            ("du", self.du), ("u", self.u), ("y", self.y), ("z", self.z),
            ("v", self.v),
        ]
        header = ["t"]
        for name, arr in cols:
            header.extend(f"{name}{i}" for i in range(arr.shape[1]))
        data = np.hstack([self.t[:, None]] + [arr for _, arr in cols])
        row = ",".join(["%.12g"] * data.shape[1]) + "\n"
        parts = [",".join(header) + "\n"]
        for at in range(0, data.shape[0], _CSV_BLOCK):
            rows = data[at : at + _CSV_BLOCK].tolist()
            parts.append("".join([row % tuple(vals) for vals in rows]))
        return "".join(parts)


def _sample(fn, times: np.ndarray, dim: int, name: str) -> np.ndarray:
    """Signal samples at ``times`` as rows; a scalar fills every entry."""
    if not len(times):
        return np.zeros((0, dim))
    vals = [fn(t) for t in times]
    try:
        vals = np.asarray(vals, dtype=float)
    except ValueError as exc:
        raise DimensionError(f"signal {name} returned unstackable values: {exc}") from exc
    vals = vals.reshape(len(times), -1)
    if vals.shape[1] == 1 and dim > 1:
        vals = np.repeat(vals, dim, axis=1)
    if vals.shape[1] != dim:
        raise DimensionError(
            f"signal {name} returned size {vals.shape[1]}, expected {dim}"
        )
    return vals


def _step_matrices(A: np.ndarray, dt: float) -> tuple:
    """Exact one-step propagator for inputs that are quadratic over a step.

    Returns Phi = e^{A dt} and the weights (W0, Wm, W1) that the input
    samples at the step's start, middle and end take in the step's input
    integral. One exponential of Van Loan's block matrix, with time
    measured in steps, gives Phi and F_j = int_0^1 e^{A dt (1 - s)} s^j / j! ds
    for j = 0, 1, 2; the quadratic through the three samples then fixes the
    weights.
    """
    n = A.shape[0]
    M = np.zeros((4 * n, 4 * n))
    M[:n, :n] = A * dt
    M[: 3 * n, n:] += np.eye(3 * n)
    E = scipy.linalg.expm(M)
    Phi = E[:n, :n]
    F0, F1, F2 = E[:n, n : 2 * n], E[:n, 2 * n : 3 * n], E[:n, 3 * n :]
    return Phi, (dt * (F0 - 3 * F1 + 4 * F2), dt * (4 * F1 - 8 * F2), dt * (4 * F2 - F1))


def simulate(
    cl: ClosedLoopModel,
    signals: dict | None = None,
    x0=None,
    horizon: float = 20.0,
    dt: float = 1e-3,
) -> Trajectory:
    """Roll the loop forward and record every signal.

    Continuous models step exactly with the matrix exponential: each step
    is ``x_{k+1} = Phi x_k + H0 s_k + Hm s_{k+1/2} + H1 s_{k+1}``, where s
    stacks the inputs sampled at the step's start, middle and end and
    ``Hj = Wj [B_r B_w B_zeta B_du]`` (see ``_step_matrices``). This is
    exact for zero input; otherwise it integrates the quadratic through the
    three samples exactly, for a local error of order dt^5. Discrete models
    iterate ``x_{k+1} = Acl x_k + B s_k`` with t as the step index. Signals
    are callables of t returning one value per channel entry, or a scalar
    for all of them; missing channels are zero. Each is sampled once per
    grid point and, in continuous time, once per midpoint. A state that is
    non-finite or whose norm exceeds 1e12 ends the record before it and
    marks the trajectory as diverged instead of raising.
    """
    signals = signals or {}
    p, m, n = cl.p, cl.m, cl.n
    dims = {"r": m, "w": p, "zeta": m, "du": p}
    if x0 is None:
        x0 = np.zeros(n)
    x0 = np.asarray(x0, dtype=float).ravel()
    if x0.size != n:
        raise DimensionError(f"x0 must have {n} entries, got {x0.size}")
    if not np.all(np.isfinite(x0)):
        raise NonFiniteError("x0 contains non-finite entries")
    continuous = cl.domain == "continuous"
    if continuous:
        if dt <= 0:
            raise ValueError("dt must be positive")
        steps = int(round(horizon / dt))
        tgrid = np.arange(steps + 1) * dt
    else:
        steps = int(horizon)
        tgrid = np.arange(steps + 1, dtype=float)
    N = steps + 1
    given = [c for c in _CHANNELS if signals.get(c) is not None]
    S = {
        c: _sample(signals[c], tgrid, dims[c], c) if c in given
        else np.zeros((N, dims[c]))
        for c in _CHANNELS
    }
    # X[k + 1] holds the input's share of step k until the loop adds Phi X[k]
    X = np.zeros((N, n))
    X[0] = x0
    if continuous:
        Phi, (W0, Wm, W1) = _step_matrices(cl.Acl, dt)
        for c in given:
            B = getattr(cl, "B_" + c)
            mid = _sample(signals[c], tgrid[:-1] + dt / 2, dims[c], c)
            X[1:] += S[c][:-1] @ (W0 @ B).T + mid @ (Wm @ B).T + S[c][1:] @ (W1 @ B).T
    else:
        Phi = cl.Acl
        for c in given:
            X[1:] += S[c][:-1] @ getattr(cl, "B_" + c).T
    PhiT = Phi.T
    rows = list(X)
    with np.errstate(over="ignore", invalid="ignore"):
        for prev, row in zip(rows, rows[1:]):
            row += prev @ PhiT
        good = np.linalg.norm(X, axis=1) <= 1e12  # False for nan and inf rows too
    filled = N if good.all() else int(np.argmin(good))
    sl = slice(0, filled)
    X = X[sl]
    R, Wd, Z, Du = (S[c][sl] for c in _CHANNELS)
    U, Y, Zm, V = cl.outputs(X, R, Z, Wd)
    return Trajectory(
        t=tgrid[sl], x=X, r=R, w=Wd, zeta=Z, du=Du,
        u=U, y=Y, z=Zm, v=V, diverged=filled < N,
    )
