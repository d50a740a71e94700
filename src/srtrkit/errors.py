"""Exception hierarchy shared across the toolkit.

Every concrete error derives from one of three categories: invalid input
(bad or inconsistent data, exit code 2), a failed check (a legitimate
negative verdict, exit code 1) and a numerical failure (exit code 3). Each
category carries its exit code and the stderr prefix with which the
command-line front end reports it.
"""

from __future__ import annotations


class SrtrKitError(Exception):
    """Base class for all toolkit errors."""


class InputError(SrtrKitError):
    """Category: bad or inconsistent input data."""

    exit_code, kind = 2, "invalid input"


class CheckFailedError(SrtrKitError):
    """Category: a verification or feasibility check failed."""

    exit_code, kind = 1, "check failed"


class NumericalError(SrtrKitError):
    """Category: a computation broke down."""

    exit_code, kind = 3, "numerical failure"


class DimensionError(InputError):
    """Matrix shapes do not conform."""


class NonFiniteError(InputError):
    """Input contains NaN or infinite entries."""


class RegularityViolationError(InputError):
    """Output matrix is rank deficient, so no output-normal form exists."""


class UnsupportedFeedthroughError(InputError):
    """Operation requires a strictly proper system (D = 0)."""


class TrivialCaseError(InputError):
    """p == n: full state measurement, nothing to partition."""


class PoleEvaluationError(NumericalError):
    """Evaluation point coincides with a pole of the system."""


class InvalidThetaError(InputError):
    """Stable-factor data violates its constraints (unstable Ax or singular
    Bx / Cx)."""


class KontrollerFormError(InputError):
    """A normalized-factorization precondition failed.

    ``condition`` names the failed requirement: "a" (U invertible),
    "b" (A + F C stable) or "c" ((A, B, C) minimal).
    """

    def __init__(self, condition: str, message: str):
        super().__init__(f"condition ({condition}): {message}")
        self.condition = condition


class PreconditionError(InputError):
    """A documented operation precondition does not hold."""


class NoSolutionError(NumericalError):
    """No suitable invariant subspace (or other solution object) was found.

    ``best_cond`` reports the best conditioning encountered, for diagnostics.
    """

    def __init__(self, message: str, best_cond: float | None = None):
        super().__init__(message)
        self.best_cond = best_cond


class NumericalFailureError(NumericalError):
    """An iteration failed to converge or a residual check failed."""


class AlgebraicLoopError(InputError):
    """Interconnection has direct feedthrough around the loop."""


class InfeasibleError(CheckFailedError):
    """The structured-synthesis solver could not meet the target tolerance.

    Carries the best condition report found so callers can inspect how close
    the search came.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class InexactTruncationError(CheckFailedError):
    """Row-order reduction would discard non-negligible coupling.

    ``residual`` is the offending coupling norm.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class InvalidInputError(InputError):
    """Malformed file, JSON schema violation, or bad CLI argument."""
