"""Scalar rational functions with real coefficients.

``siso_rational`` forms the numerator and denominator of one entry of a
state-space system from two eigenvalue problems. Nothing here decides
structure: zero entries, minimality and stabilizability come from the
orthogonal staircase in ``linalg``, and ``systems.minimal_realization``
prunes an entry with it before its coefficients are formed. The
coefficients serve only the normalized form (``srtr.nrf_from_srtr``) and
printed coefficient comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import NonFiniteError
from .linalg import eigenvalues

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

    def is_zero(self) -> bool:
        return not np.any(self.num)

    def is_proper(self) -> bool:
        return self.num_degree <= self.den_degree

    def is_strictly_proper(self) -> bool:
        return self.is_zero() or self.num_degree < self.den_degree

    def __call__(self, lam):
        lam = np.asarray(lam)
        return P.polyval(lam, self.num) / P.polyval(lam, self.den)


def _charpoly(A: np.ndarray) -> np.ndarray:
    """Ascending monic characteristic polynomial of A, from its spectrum."""
    return np.real(P.polyfromroots(eigenvalues(A)))


def siso_rational(A, b, c, d) -> RationalFn:
    """The entry ``c (lam I - A)^{-1} b + d`` of one input and one output.

    By the determinant lemma, det(lam I - A + b c) equals
    det(lam I - A) (1 + c (lam I - A)^{-1} b), so the strictly proper part
    has numerator charpoly(A - b c) - charpoly(A), whose leading terms
    cancel exactly. Pass a minimal realization
    (``systems.minimal_realization``): the modes of a non-minimal one stay
    behind as common roots of numerator and denominator.
    """
    A = np.asarray(A, dtype=float)
    k = A.shape[0]
    b = np.asarray(b, dtype=float).reshape(k)
    c = np.asarray(c, dtype=float).reshape(k)
    d = float(np.asarray(d).item())
    den = _charpoly(A)
    num = np.append((_charpoly(A - np.outer(b, c)) - den)[:k], 0.0)
    return RationalFn(num + d * den, den)
