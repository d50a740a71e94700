"""Scalar rational functions with real coefficients, plus the
Leverrier-Faddeev recursion used to turn a state-space entry into an explicit
numerator/denominator pair without ever forming symbolic inverses.

Nothing here decides structure: zero entries, minimality and
stabilizability come from the orthogonal staircase in ``linalg``. The
coefficients serve only the normalized form (``srtr.nrf_from_srtr``) and
printed coefficient comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import DimensionError, NonFiniteError

_TRIM_REL = 1e-12


def _trim(coeffs: np.ndarray) -> np.ndarray:
    """Drop trailing (highest-degree) coefficients that are negligible
    relative to the largest one."""
    c = np.asarray(coeffs, dtype=float).ravel()
    if c.size == 0:
        return np.zeros(1)
    scale = np.max(np.abs(c))
    if scale == 0.0:
        return np.zeros(1)
    keep = c.size
    while keep > 1 and abs(c[keep - 1]) <= _TRIM_REL * scale:
        keep -= 1
    return c[:keep].copy()


@dataclass(frozen=True)
class RationalFn:
    """num/den with ascending coefficient arrays: ``num[k]`` multiplies
    ``lam**k``. The denominator is normalized monic on construction."""

    num: np.ndarray
    den: np.ndarray = field(default_factory=lambda: np.array([1.0]))

    def __post_init__(self):
        num = _trim(np.asarray(self.num, dtype=float))
        den = _trim(np.asarray(self.den, dtype=float))
        if not (np.all(np.isfinite(num)) and np.all(np.isfinite(den))):
            raise NonFiniteError("rational coefficients must be finite")
        if den.size == 1 and den[0] == 0.0:
            raise ZeroDivisionError("zero denominator polynomial")
        lead = den[-1]
        den = den / lead
        num = num / lead
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def num_degree(self) -> int:
        return int(self.num.size - 1)

    @property
    def den_degree(self) -> int:
        return int(self.den.size - 1)

    def is_zero(self, tol: float = 0.0) -> bool:
        return bool(np.all(np.abs(self.num) <= tol))

    def is_proper(self) -> bool:
        return self.num_degree <= self.den_degree

    def is_strictly_proper(self) -> bool:
        return self.is_zero() or self.num_degree < self.den_degree

    def __call__(self, lam):
        lam = np.asarray(lam)
        return P.polyval(lam, self.num) / P.polyval(lam, self.den)

    def __add__(self, other: "RationalFn") -> "RationalFn":
        return RationalFn(
            P.polyadd(P.polymul(self.num, other.den), P.polymul(other.num, self.den)),
            P.polymul(self.den, other.den),
        )

    def __sub__(self, other: "RationalFn") -> "RationalFn":
        return self + RationalFn(-other.num, other.den)

    def __mul__(self, other: "RationalFn") -> "RationalFn":
        return RationalFn(P.polymul(self.num, other.num), P.polymul(self.den, other.den))

    def scaled(self, alpha: float) -> "RationalFn":
        return RationalFn(alpha * self.num, self.den)

    def reduce(self, tol: float = 1e-8) -> "RationalFn":
        """Cancel near-common roots of numerator and denominator.

        Root pairing within ``tol`` (absolute, after clustering) removes one
        factor from each side; the result is rebuilt from the surviving roots
        so the reduction is exact by construction.
        """
        if self.is_zero():
            return RationalFn(np.zeros(1), np.ones(1))
        if self.num_degree == 0 or self.den_degree == 0:
            return self
        nroots = list(P.polyroots(self.num))
        droots = list(P.polyroots(self.den))
        lead = self.num[-1]
        kept_n = []
        for r in nroots:
            hit = None
            for j, s in enumerate(droots):
                if abs(r - s) < tol:
                    hit = j
                    break
            if hit is None:
                kept_n.append(r)
            else:
                droots.pop(hit)
        if len(kept_n) == len(nroots):
            # nothing cancelled; keep the original coefficients rather than
            # a root-rebuilt copy, which would only add rounding noise
            return self
        new_num = lead * np.real_if_close(P.polyfromroots(kept_n), tol=1e6)
        new_den = np.real_if_close(P.polyfromroots(droots), tol=1e6)
        return RationalFn(np.real(new_num), np.real(new_den))

    def close_to(self, other: "RationalFn", points, tol: float = 1e-9) -> bool:
        va = self(np.asarray(points, dtype=complex))
        vb = other(np.asarray(points, dtype=complex))
        return bool(np.all(np.abs(va - vb) <= tol * (1.0 + np.abs(vb))))


def constant(c: float) -> RationalFn:
    return RationalFn(np.array([float(c)]), np.array([1.0]))


def faddeev(A) -> tuple[np.ndarray, list[np.ndarray]]:
    """Leverrier-Faddeev recursion.

    Returns the characteristic polynomial of A (ascending coefficients,
    monic: chi[n] == 1) and the matrix sequence ``M_1 .. M_n`` with
    ``(lam I - A)^{-1} = sum_k lam^{n-k} M_k / chi(lam)``.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionError(f"square matrix required, got shape {A.shape}")
    n = A.shape[0]
    if n == 0:
        return np.array([1.0]), []
    coeffs_desc = np.zeros(n + 1)
    coeffs_desc[0] = 1.0
    mats: list[np.ndarray] = []
    M = np.eye(n)
    for k in range(1, n + 1):
        mats.append(M)
        AM = A @ M
        c = -np.trace(AM) / k
        coeffs_desc[k] = c
        M = AM + c * np.eye(n)
    # at this point M should be the zero matrix (Cayley-Hamilton)
    return coeffs_desc[::-1].copy(), mats


def realization_entry_numerators(A, B, C, D) -> tuple[np.ndarray, np.ndarray]:
    """Entrywise numerators of ``C (lam I - A)^{-1} B + D`` over det(lam I - A).

    Returns (chi, num) where chi is ascending of length n+1 and num has shape
    (p, m, n+1) so entry (i, j) of the transfer matrix equals
    ``poly(num[i, j]) / poly(chi)``.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    C = np.asarray(C, dtype=float)
    D = np.asarray(D, dtype=float)
    n = A.shape[0]
    p, m = C.shape[0], B.shape[1]
    chi, mats = faddeev(A)
    num = np.zeros((p, m, n + 1))
    for k, M in enumerate(mats, start=1):
        # contributes at power lam**(n-k)
        num[:, :, n - k] += C @ M @ B
    if D.size:
        num += D[:, :, None] * chi[None, None, :]
    return chi, num


def entry_rational(chi: np.ndarray, num: np.ndarray, i: int, j: int) -> RationalFn:
    return RationalFn(num[i, j], chi)
