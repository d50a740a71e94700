"""Scalar rational functions with real coefficients.

``siso_rational`` forms the numerator and denominator of single-input,
single-output state-space entries from two eigenvalue problems each. It
takes one entry or a stack of entries of one order, so a caller that forms
many entries pays one eigenvalue call per stack. Coefficients are trimmed,
checked and made monic by one routine that works on whole stacks; a
``RationalFn`` built by hand runs it on a stack of one. Nothing here
decides structure: zero entries, minimality and stabilizability come from
the orthogonal staircases in ``linalg``, which prune an entry before its
coefficients are formed. The coefficients are output only: the normalized
form's JSON (``srtr.nrf_from_srtr``) and printed coefficient comparisons
read them, while evaluation and every zero-entry decision work on
state-space rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import NonFiniteError
from .linalg import eigenvalues

_TRIM_REL = 1e-12


def _trimmed_lengths(c: np.ndarray) -> np.ndarray:
    """Per row of a stack of ascending coefficient rows, the length left
    after dropping trailing (highest-degree) coefficients that are
    negligible relative to the largest one in the row; at least 1."""
    big = np.abs(c) > _TRIM_REL * np.max(np.abs(c), axis=1, initial=0.0)[:, None]
    return np.where(big.any(axis=1), c.shape[1] - np.argmax(big[:, ::-1], axis=1), 1)


def _normalized(num, den) -> list[tuple[np.ndarray, np.ndarray]]:
    """Trim, check and scale a stack of coefficient rows: num and den of
    shape (g, *) give g pairs (num, den), each trimmed, finite and with a
    monic denominator. An empty row counts as the zero polynomial."""
    num, den = (np.asarray(c, dtype=float) for c in (num, den))
    if not (np.all(np.isfinite(num)) and np.all(np.isfinite(den))):
        raise NonFiniteError("rational coefficients must be finite")
    num, den = (c if c.shape[1] else np.zeros((c.shape[0], 1)) for c in (num, den))
    num_len, den_len = _trimmed_lengths(num), _trimmed_lengths(den)
    lead = den[np.arange(den.shape[0]), den_len - 1][:, None]
    if np.any(lead == 0.0):
        raise ZeroDivisionError("zero denominator polynomial")
    num, den = num / lead, den / lead
    return [(nu[:a], de[:b]) for nu, de, a, b in zip(num, den, num_len, den_len)]


@dataclass(frozen=True)
class RationalFn:
    """num/den with ascending coefficient arrays: ``num[k]`` multiplies
    ``lam**k``. The denominator is normalized monic on construction."""

    num: np.ndarray
    den: np.ndarray = field(default_factory=lambda: np.array([1.0]))

    def __post_init__(self):
        num, den = (np.asarray(c, dtype=float).reshape(1, -1) for c in (self.num, self.den))
        ((num, den),) = _normalized(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def _wrap(cls, num: np.ndarray, den: np.ndarray) -> "RationalFn":
        """A RationalFn over coefficients that ``_normalized`` already
        returned, without normalizing them again."""
        fn = object.__new__(cls)
        object.__setattr__(fn, "num", num)
        object.__setattr__(fn, "den", den)
        return fn

    @property
    def num_degree(self) -> int:
        return int(self.num.size - 1)

    @property
    def den_degree(self) -> int:
        return int(self.den.size - 1)

    def is_zero(self) -> bool:
        return not np.any(self.num)

    def __call__(self, lam):
        lam = np.asarray(lam)
        return P.polyval(lam, self.num) / P.polyval(lam, self.den)


def _monic_from_roots(roots: np.ndarray) -> np.ndarray:
    """Ascending monic coefficients of prod_j (lam - roots[..., j]) for each
    row of a stack of real-conjugate root sets, one multiply per root."""
    coeffs = np.zeros(roots.shape[:-1] + (roots.shape[-1] + 1,), dtype=complex)
    coeffs[..., 0] = 1.0
    for j in range(roots.shape[-1]):
        r = roots[..., j : j + 1]
        coeffs[..., 1 : j + 2] = coeffs[..., : j + 1] - r * coeffs[..., 1 : j + 2]
        coeffs[..., 0:1] *= -r
    return coeffs.real


def siso_rational(A, b, c, d) -> RationalFn | list[RationalFn]:
    """The entry ``c (lam I - A)^{-1} b + d`` of one input and one output.

    By the determinant lemma, det(lam I - A + b c) equals
    det(lam I - A) (1 + c (lam I - A)^{-1} b), so the strictly proper part
    has numerator charpoly(A - b c) - charpoly(A), whose leading terms
    cancel exactly. Pass a minimal realization, such as the projection onto
    the reachable basis of ``linalg.column_staircases`` of the part that the
    output sees: the modes of a non-minimal one stay behind as common roots
    of numerator and denominator.

    A of shape (k, k) gives one RationalFn. A stack, with A of shape
    (g, k, k), b and c of shape (g, k) and d of shape (g,), gives a list of
    g of them from one eigenvalue call on A and one on A - b c.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim == 2:
        return siso_rational(A[None], [b], [c], [d])[0]
    g, k = A.shape[:2]
    b = np.asarray(b, dtype=float).reshape(g, k)
    c = np.asarray(c, dtype=float).reshape(g, k)
    d = np.asarray(d, dtype=float).reshape(g, 1)
    den = _monic_from_roots(eigenvalues(A))
    num = _monic_from_roots(eigenvalues(A - b[:, :, None] * c[:, None, :])) - den
    num[:, k] = 0.0
    return [RationalFn._wrap(nu, de) for nu, de in _normalized(num + d * den, den)]
