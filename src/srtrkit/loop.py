"""Controller realization, row-wise implementation, closed-loop assembly and
simulation.

The controller is the strictly proper block [lam^{-1} W, lam^{-1} V]; it acts
on its own delayed/integrated output u plus a measurement z = r + y and so
never creates an algebraic loop. Rows are implemented one at a time so each
node only carries its own dynamics.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    AlgebraicLoopError,
    DimensionError,
    InvalidInputError,
    NonFiniteError,
    PreconditionError,
)
from .linalg import (
    eigenvalues,
    in_stability_region,
    is_stabilizable,
    is_stable_spectrum,
)
from .srtr import SrtrPair, srtr_is_stable
from .synthesis import SynthesisSpec, dense_spec, reduce_rows
from .systems import StateSpaceSystem, minimal_realization, with_integrators


@dataclass(frozen=True)
class KdController:
    """Strictly proper controller realization of [lam^{-1} W, lam^{-1} V]."""

    realization: StateSpaceSystem


def kd_from_srtr(pair: SrtrPair) -> KdController:
    """Realize the controller by chaining integrators in front of [W V].

    The p integrator states feed the outputs; the hidden block is the pair's
    own Aw. Feedthrough is identically zero by construction.
    """
    return KdController(with_integrators(pair.wv_system()))


def unstable_pole_count(sys: StateSpaceSystem) -> int:
    """Eigenvalues outside the stability region, counted on the minimal part.

    Non-minimal inputs are pruned first so hidden cancelling modes do not
    inflate the count.
    """
    eigs = eigenvalues(minimal_realization(sys).A)
    return int(np.count_nonzero(~in_stability_region(eigs, sys.domain)))


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


def rowwise_implementation(pair: SrtrPair, orders=None) -> RowImplementation:
    """Split the controller into per-row realizations.

    Row i of [W V] is truncated by ``reduce_rows`` to its Krylov subspace,
    at most ``orders[i]`` states, or at most q without ``orders``, which is
    exact. One integrator state is chained in front, and the row is pruned
    to its reachable and observable part, so an exact row has at most
    q + 1 states and an identically zero row has none.
    """
    if not srtr_is_stable(pair):
        raise PreconditionError("row-wise implementation needs a stable pair")
    spec = dense_spec(pair.p, pair.m, pair.q)
    if orders is not None:
        spec = SynthesisSpec(spec.maskW, spec.maskV, tuple(orders))
    rows = tuple(
        minimal_realization(with_integrators(r))
        for r in reduce_rows(pair.base, pair.K, spec)
    )
    return RowImplementation(rows, pair.p, pair.m, pair.domain)


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
    if not is_stabilizable(plant.A, plant.B, plant.domain):
        raise PreconditionError("plant must be stabilizable")
    if not is_stabilizable(plant.A.T, plant.C.T, plant.domain):
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


_CSV_BLOCK = 1 << 15  # values formatted, and streamed, per block in Trajectory.to_csv
_BLOCK = 64  # most steps per block in _propagate
_POWER_MAX = 1e12  # bound on ||Phi||_1^L for _propagate's block length L
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

    def to_csv(self, fh=None) -> str | None:
        """The trajectory as CSV text: a header line, then one line per grid
        point.

        The columns are t, then x, r, w, zeta, du, u, y, z and v, each with
        indices from 0 (``x0, x1, ...``). Every value is written as Python's
        ``"%.12g" % v`` writes it, so the text holds ``nan``, ``inf``,
        ``-inf``, ``-0``, ``1e-05`` and ``1e+300``. Blocks of rows are
        formatted by one numpy kernel, ``_format_g12``; the few values it
        cannot round safely are formatted by ``%`` itself. Each distinct
        column is formatted once: a channel whose bits are all zero, or
        equal to those of an earlier channel, takes its text from the
        column it repeats (see ``_distinct_columns``). A free response, as
        ``loop simulate`` writes it, has r, w, zeta and du zero, and z and v
        equal to y and u wherever y and u hold no -0.0.

        With ``fh``, a text file, the header and then each block go to
        ``fh.write`` as soon as they are formatted, so no more than one
        block of text is held at a time, and ``None`` is returned. If
        formatting fails partway, ``fh`` has received the blocks before the
        failure. Without ``fh``, the whole text is returned as one string.
        """
        cols = [
            ("x", self.x), ("r", self.r), ("w", self.w), ("zeta", self.zeta),
            ("du", self.du), ("u", self.u), ("y", self.y), ("z", self.z),
            ("v", self.v),
        ]
        header = ["t"]
        for name, arr in cols:
            header.extend(f"{name}{i}" for i in range(arr.shape[1]))
        arrays, columns = _distinct_columns([self.t[:, None]] + [arr for _, arr in cols])
        seps = np.full(len(header), ord(","), np.uint64)
        seps[-1] = ord("\n")
        rows = max(1, _CSV_BLOCK // len(header))
        # Without fh, one growing buffer: a string per block would fragment
        # the heap. With fh, the buffer is written out and emptied before
        # each block and after the last.
        text = bytearray((",".join(header) + "\n").encode("ascii"))
        for at in range(0, self.t.shape[0], rows):
            if fh is not None:
                fh.write(text.decode("ascii"))
                del text[:]
            block = np.hstack([arr[at : at + rows] for arr in arrays], dtype=float)
            _format_g12(block, seps, text, columns)
        if fh is None:
            return text.decode("ascii")
        fh.write(text.decode("ascii"))
        return None


def _distinct_columns(arrays: list) -> tuple:
    """The arrays to format, and where each column of ``arrays`` side by
    side finds its values.

    An array whose bits are all zero, or bitwise equal to an earlier kept
    array of the same shape, is left out: its columns map to one kept
    column of zeros, or to the columns of that earlier array. The first and
    last rows are compared before the whole array, so arrays that differ
    there cost next to nothing. Returns the kept arrays and the map, an
    index array with one entry per column.
    """
    kept, columns, seen = [], [], []
    width, zero = 0, None
    for arr in arrays:
        arr = np.asarray(arr, dtype=float)
        k = arr.shape[1]
        bits = arr.view(np.uint64)
        if len(bits) and k:
            if not (bits[0].any() or bits[-1].any() or bits.any()):
                if zero is None:
                    zero, width = width, width + 1
                    kept.append(arr[:, :1])
                columns.extend([zero] * k)
                continue
            twin = next((at for at, other in seen if other.shape == bits.shape
                         and np.array_equal(other[0], bits[0])
                         and np.array_equal(other[-1], bits[-1])
                         and np.array_equal(other, bits)), None)
            if twin is not None:
                columns.extend(range(twin, twin + k))
                continue
            seen.append((width, bits))
        kept.append(arr)
        columns.extend(range(width, width + k))
        width += k
    return kept, np.array(columns, dtype=np.intp)


# One formatted value in 20 bytes: byte 0 the sign, bytes 1-17 the digits
# with their point (bytes 1-13 in scientific notation, whose exponent takes
# bytes 14-18), byte 19 the separator. Bytes left zero are padding, deleted
# from the text.
_CANVAS = np.dtype({"names": ["w0", "w1", "w2"], "formats": ["<u8", "<u8", "<u4"],
                    "offsets": [0, 8, 16], "itemsize": 20})
_E0 = 300  # index of exponent 0 in the tables of _G12Tables
# The scaled value carries a relative error of at most 2**-52 from the
# power of ten and the product: below 2.3e-4 on a 12-digit mantissa. A
# fraction this far from one half therefore rounds as the exact value does.
_TIE_GUARD = 1e-3


class _G12Tables(NamedTuple):
    """Lookup tables of ``_format_g12``. A string is held in uint64 words,
    its first byte in the low byte; a 16-byte string in a low and a high
    word."""

    quads: np.ndarray  # ASCII of each 4-digit group 0000..9999
    trailing: np.ndarray  # trailing zeros of each group, 4 for 0000
    pow10: np.ndarray  # 10**k, correctly rounded, at index k + _E0
    keep_lo: np.ndarray  # the low j bytes of a 16-byte string, j = 0..16
    keep_hi: np.ndarray
    dot_lo: np.ndarray  # a point at byte j = 1..15; none at j = 0
    dot_hi: np.ndarray
    # per exponent e of the rounded value, at index e + _E0:
    point: np.ndarray  # digits before the point
    shift: np.ndarray  # bits the digits move for the prefix of 0.000ddd
    prefix: np.ndarray  # the -e zeros of 0.000ddd, point not included
    length: np.ndarray  # bytes of the string: 12 digits plus the prefix


@functools.cache
def _g12_tables() -> _G12Tables:
    """The tables, built on first use. %g writes e < -4 and e >= 12 in
    scientific notation, one digit before the point. It writes -4 <= e < 0
    as 0.000ddd: the string is then "0zzz" and the 12 digits, with the
    unused z left as padding, and the point goes after its first byte."""
    u = np.uint64
    g = np.arange(10_000, dtype=u)
    quads = sum((g // u(10**(3 - i)) % u(10) + u(ord("0"))) << u(8 * i) for i in range(4))
    trailing = sum((g % u(10**i) == 0).astype(np.intp) for i in range(1, 5))
    pow10 = np.array([float("1e%d" % k) for k in range(-_E0, _E0 + 12)])

    def halves(strings):
        return (np.array([w & (2**64 - 1) for w in strings], dtype=u),
                np.array([w >> 64 for w in strings], dtype=u))

    keep_lo, keep_hi = halves([(1 << 8 * j) - 1 for j in range(17)])
    dot_lo, dot_hi = halves([0] + [ord(".") << 8 * j for j in range(1, 16)])
    e = np.arange(-_E0, _E0 + 1)
    small = (e >= -4) & (e < 0)
    sci = (e < -4) | (e >= 12)
    zeros = np.where(small, -e, 0).astype(u)
    tables = _G12Tables(
        quads, trailing, pow10, keep_lo, keep_hi, dot_lo, dot_hi,
        point=np.where(sci | small, 1, e + 1),
        shift=np.where(small, 32, 0).astype(u),
        prefix=((u(1) << u(8) * zeros) - u(1)) & u(0x30303030),
        length=np.where(small, 16, 12),
    )
    for table in tables:
        table.flags.writeable = False
    return tables


def _format_g12(block: np.ndarray, seps: np.ndarray, dest: bytearray, columns) -> None:
    """Append to ``dest`` the text ``"%.12g" % v`` of every value of
    ``block[:, columns]``, row by row, each followed by its column's
    separator from ``seps``. Each value of ``block`` is formatted once.

    |v| is scaled by the correctly rounded 10**(11 - e), e = floor(log10
    |v|), and rounded to the 12-digit mantissa M; e moves by one where the
    scaled value leaves [1e11, 1e12) or M rounds up to 1e12. M becomes
    ASCII in three 4-digit groups, its trailing zeros are cut, and sign,
    prefix, digits, point and exponent are laid out on a canvas of
    ``_CANVAS`` entries. One gather of whole entries along the column axis
    lays out the canvas of ``block[:, columns]``. The separators are then
    patched in, and ``bytes.translate`` deletes the padding. A value
    within ``_TIE_GUARD`` of a rounding tie, a non-finite value and one
    with |v| outside [1e-290, 1e290] is marked "%" on the canvas instead,
    and formatted by ``"%.12g" % v``.
    """
    t = _g12_tables()
    u = np.uint64
    v = block.ravel()
    a = np.abs(v)
    zero = a == 0
    inside = (a >= 1e-290) & (a <= 1e290)
    fallback = ~(inside | zero)
    a[~inside] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    s = a * t.pow10[_E0 + 11 - e]
    off = np.flatnonzero((s < 1e11) | (s >= 1e12))
    e[off] += np.where(s[off] < 1e11, -1, 1)
    s[off] = a[off] * t.pow10[_E0 + 11 - e[off]]
    M = np.floor(s)
    s -= M
    M += s > 0.5
    s -= 0.5
    fallback |= (np.abs(s) < _TIE_GUARD) | (M < 1e11) | (M > 1e12)
    carry = np.flatnonzero(M == 1e12)
    M[carry] = 1e11
    e[carry] += 1
    M[zero] = 0.0
    # digit groups of M; (M + 0.5) * 1e-8 is at least 5e-9 from an integer
    q = np.trunc((M + 0.5) * 1e-8)
    M -= q * 1e8
    g0 = q.astype(np.intp)
    q = np.trunc((M + 0.5) * 1e-4)
    M -= q * 1e4
    g1 = q.astype(np.intp)
    g2 = M.astype(np.intp)
    tz = t.trailing[g2]
    more = np.flatnonzero(tz == 4)
    if more.size:
        t1 = t.trailing[g1[more]]
        tz[more] += t1 + (t1 == 4) * t.trailing[g0[more]]
    ie = e + _E0
    k = t.point[ie]
    sh = t.shift[ie]
    n = np.maximum(t.length[ie] - tz, k)
    d0, d1, d2 = t.quads[g0], t.quads[g1], t.quads[g2]
    lo = (d0 | d1 << u(32)) << sh | t.prefix[ie]
    hi = d2 << sh | d1 >> (u(32) - sh)
    lo &= t.keep_lo[n]
    hi &= t.keep_hi[n]
    # the bytes after the first k move up one to make room for the point
    klo = lo & t.keep_lo[k]
    lo ^= klo
    khi = hi & t.keep_hi[k]
    hi ^= khi
    k *= n > k
    b0 = klo | lo << u(8) | t.dot_lo[k]
    b1 = khi | hi << u(8) | lo >> u(56) | t.dot_hi[k]
    out = np.empty(v.size, _CANVAS)
    out["w0"] = (v.view(u) >> u(63)) * u(ord("-")) | b0 << u(8)
    out["w1"] = b0 >> u(56) | b1 << u(8)
    out["w2"] = b1 >> u(56) | hi >> u(56) << u(8)
    sci = np.flatnonzero((e < -4) | (e >= 12))
    if sci.size:
        x = e[sci]
        ax = np.abs(x)
        out["w1"][sci] |= np.where(x < 0, u(0x2D65), u(0x2B65)) << u(48)  # "e-", "e+"
        out["w2"][sci] |= t.quads[ax] >> u(8) & np.where(ax < 100, u(0xFFFF00), u(0xFFFFFF))
    fb = np.flatnonzero(fallback)
    out["w0"][fb] = ord("%")
    out["w1"][fb] = 0
    out["w2"][fb] = 0
    out = out.reshape(block.shape).view("V20").take(columns, axis=1).view(_CANVAS)
    row, col = np.nonzero(fallback.reshape(block.shape)[:, columns])
    values = block[row, columns[col]]
    out["w2"] |= seps.astype(np.uint32) << np.uint32(24)
    text = out.tobytes().translate(None, b"\0")
    at, view = 0, memoryview(text)
    for x in values.tolist():
        cut = text.index(b"%", at)
        dest += view[at:cut]
        dest += b"%.12g" % x
        at = cut + 1
    dest += view[at:]


def _sample(fn, times: np.ndarray, dim: int, name: str) -> np.ndarray:
    """Signal samples at ``times`` as rows; a scalar fills every entry.

    ``fn`` is called once on the column ``times[:, None]``, then at
    ``times[0]``. A result of one row per time whose first row equals the
    value at ``times[0]``, read as a row, is taken as the samples. If the
    column call raises or its result disagrees, ``fn`` is called at each
    remaining time instead, so callables of one scalar t still work, their
    own errors come up from the per-point calls, and a per-point result that
    only broadcasts against the column (an (N, 1) column vector at N times,
    say) is not misread.
    """
    if not len(times):
        return np.zeros((0, dim))

    def rows(values):
        try:
            vals = np.asarray(values, dtype=float)
        except ValueError as exc:
            raise DimensionError(
                f"signal {name} returned unstackable values: {exc}"
            ) from exc
        return vals.reshape(len(values), -1)

    try:
        vals = np.asarray(fn(times[:, None]), dtype=float)
    except Exception:  # not a callable of the time column; retried per point
        vals = None
    points = [fn(times[0])]
    head = rows(points)
    if (
        vals is None
        or vals.shape != (len(times), head.shape[1])
        or not np.array_equal(vals[0], head[0], equal_nan=True)
    ):
        vals = rows(points + [fn(t) for t in times[1:]])
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
    import scipy.linalg  # deferred: importing it would double CLI start-up

    n = A.shape[0]
    M = np.zeros((4 * n, 4 * n))
    M[:n, :n] = A * dt
    M[: 3 * n, n:] += np.eye(3 * n)
    E = scipy.linalg.expm(M)
    Phi = E[:n, :n]
    F0, F1, F2 = E[:n, n : 2 * n], E[:n, 2 * n : 3 * n], E[:n, 3 * n :]
    return Phi, (dt * (F0 - 3 * F1 + 4 * F2), dt * (4 * F1 - 8 * F2), dt * (4 * F2 - F1))


def _propagate(Phi: np.ndarray, x0: np.ndarray, steps: int, terms: list) -> np.ndarray:
    """Rows x_0 = x0 and x_{k+1} = Phi x_k + g_k for k < ``steps``, stepped
    in blocks.

    The forcing g_k is the sum of ``S[k] @ H.T`` over the pairs (S, H) of
    ``terms``, zero without them. It is written straight into the rows that
    are stepped: one product into the rows, then one in-place add per
    further pair.

    The steps are cut into blocks of L. First the zero-start response of
    every block, all blocks stepped together (L products). Then the states
    s_c before each block, in sequence with Phi^L. Last, one product against
    the stacked powers adds Phi^(j+1) s_c to row j of block c. L is at most
    ``_BLOCK`` and small enough that ||Phi||_1^L stays below ``_POWER_MAX``,
    so no power overflows and rows before a divergence are formed from
    finite values; it is 1, the plain recurrence, on strongly unstable loops.
    """
    n = x0.size
    if not steps:
        return x0[None, :].copy()
    norm = np.linalg.norm(Phi, 1)
    L = int(np.log(_POWER_MAX) / np.log(norm)) if norm > 1.0 else _BLOCK
    L = max(1, min(L, _BLOCK, steps))
    C = -(-steps // L)
    X = np.zeros((1 + C * L, n))
    X[0] = x0
    G = X[1 : 1 + steps]
    for i, (samples, weights) in enumerate(terms):
        if i:
            G += samples @ weights.T
        else:
            np.matmul(samples, weights.T, out=G)
    Z = X[1:].reshape(C, L, n)
    PhiT = Phi.T
    for j in range(1, L):
        Z[:, j] += Z[:, j - 1] @ PhiT
    # P[:, j n : (j + 1) n] = (Phi^(j+1))^T
    P = np.empty((n, L * n))
    P[:, :n] = PhiT
    for j in range(1, L):
        P[:, j * n : (j + 1) * n] = P[:, (j - 1) * n : j * n] @ PhiT
    PL = P[:, (L - 1) * n :]
    S = np.empty((C, n))
    S[0] = x0
    for c in range(1, C):
        S[c] = S[c - 1] @ PL + Z[c - 1, -1]
    Z += (S @ P).reshape(C, L, n)
    return X[: 1 + steps]


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
    stacks the given inputs sampled at the step's start, middle and end,
    and ``Hj = Wj B`` with B their B blocks side by side, ``[B_r B_w]`` for
    r and w, say (see ``_step_matrices``). This is exact for zero input;
    otherwise it integrates the quadratic through the three samples
    exactly, for a local error of order dt^5. Discrete models iterate
    ``x_{k+1} = Acl x_k + B s_k`` with t as the step index. The recurrence
    runs in blocks of steps (see ``_propagate``). The given channels are
    sampled side by side into one array, of which the trajectory's given
    channels are column views, and in continuous time into a second one at
    the midpoints; missing channels are zero arrays of their own. The
    forcing is written straight into the rows that ``_propagate`` steps:
    one product of the start samples with ``W0 B`` (in discrete time with B
    alone), then in-place adds for the midpoint and end samples. Without
    signals no product runs.

    Signals are callables of t returning one value per channel entry, or a
    scalar for all of them; missing channels are zero. Each is called once
    on the column of grid times (shape (N, 1)) and once at the first time,
    and in continuous time the same for the midpoints. A result of one row
    per time whose first row equals the first time's value is taken as the
    samples; otherwise, or if the column call raises, it is called at each
    remaining time (see ``_sample``). A stateful or random callable thus
    sees one extra call, on the time column, before its per-point calls,
    and draws differently than if it were only called per point. A state
    that is non-finite or whose norm
    exceeds 1e12 ends the record before it and marks the trajectory as
    diverged instead of raising. A negative or non-finite horizon, in
    continuous time a dt that is not positive and finite, or a grid whose
    trajectory would not fit in the machine's physical memory raises
    ``InvalidInputError`` before anything is allocated.
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
    if not (np.isfinite(horizon) and horizon >= 0):
        raise InvalidInputError(f"horizon must be finite and non-negative, got {horizon}")
    continuous = cl.domain == "continuous"
    if continuous and not (np.isfinite(dt) and dt > 0):
        raise InvalidInputError(f"dt must be positive and finite, got {dt}")
    span = horizon / dt if continuous else horizon
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no POSIX sysconf
        memory = np.iinfo(np.intp).max
    # t, x and the eight signals at each grid point, in doubles
    width = 1 + n + 4 * (p + m)
    if (span + 1.0) * width * 8.0 > memory:
        raise InvalidInputError(
            f"horizon {horizon:g} gives {span + 1.0:.3g} time points of {width} "
            f"values each, more than the {memory:.3g} bytes of memory hold"
        )
    if continuous:
        steps = int(round(span))
        tgrid = np.arange(steps + 1) * dt
    else:
        steps = int(span)
        tgrid = np.arange(steps + 1, dtype=float)
    N = steps + 1
    given = [c for c in _CHANNELS if signals.get(c) is not None]
    # the given channels side by side: sampled on the grid and, in
    # continuous time, at the step midpoints
    edges = np.cumsum([0] + [dims[c] for c in given])
    cols = {c: slice(a, b) for c, a, b in zip(given, edges[:-1], edges[1:])}
    grid = np.empty((N, edges[-1]))
    S = {c: np.zeros((N, dims[c])) for c in _CHANNELS if c not in given}
    for c in given:
        S[c] = grid[:, cols[c]]
        S[c][:] = _sample(signals[c], tgrid, dims[c], c)
    B = np.hstack([np.zeros((n, 0))] + [getattr(cl, "B_" + c) for c in given])
    terms = []
    if continuous:
        Phi, (W0, Wm, W1) = _step_matrices(cl.Acl, dt)
        if given:
            mid = np.empty((steps, edges[-1]))
            for c in given:
                mid[:, cols[c]] = _sample(signals[c], tgrid[:-1] + dt / 2, dims[c], c)
            terms = [(grid[:-1], W0 @ B), (mid, Wm @ B), (grid[1:], W1 @ B)]
    else:
        Phi = cl.Acl
        if given:
            terms = [(grid[:-1], B)]
    with np.errstate(over="ignore", invalid="ignore"):
        X = _propagate(Phi, x0, steps, terms)
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
