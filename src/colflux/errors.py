"""Exception hierarchy for the column-flux library.

Errors fall into four families, mirroring the CLI exit codes: configuration
problems (exit 2), numerical or diagnostic failures (exit 3), capacity limits
(exit 4), and plain argument errors, which stay ordinary ``ValueError``s.
"""

from __future__ import annotations

__all__ = [
    "ColfluxError",
    "ConfigError",
    "AssumptionError",
    "DomainError",
    "DegenerateSeedError",
    "NumericalError",
    "SingularSystemError",
    "StabilityError",
    "NormalizationError",
    "ConditioningError",
    "DiagnosticError",
    "CapacityError",
]


class ColfluxError(Exception):
    """Base class for all library-specific errors."""


class ConfigError(ColfluxError):
    """A configuration document is malformed or inconsistent.

    The message names the JSON path of the offending key where possible.
    """


class AssumptionError(ColfluxError, ValueError):
    """A coefficient profile violates one of the standing model assumptions.

    ``assumption`` is one of ``"A1"`` (smoothness proxy or non-finite data),
    ``"A2"`` (diffusion not strictly positive, or k / dz or k / dz**2 at a
    face without a normal square), ``"A3"`` (velocity not zero at the
    column boundaries), ``"A4"`` (a cell Peclet number of 1 or more, or a
    symmetrizing scaling or the weight mu outside the double range).
    """

    def __init__(self, assumption: str, message: str):
        self.assumption = assumption
        super().__init__(f"[{assumption}] {message}")


class DomainError(ColfluxError, ValueError):
    """A function lies outside the form domain of the prior operator."""


class DegenerateSeedError(ColfluxError, ValueError):
    """The seed supplied to the blind-direction search lies in the
    exponential span, leaving nothing to orthogonalize."""


class NumericalError(ColfluxError):
    """An iterative or factorization-based computation failed to deliver
    a trustworthy result (exit 3 at the CLI)."""


class SingularSystemError(NumericalError):
    """A tridiagonal matrix to factor is not positive definite."""


class StabilityError(NumericalError):
    """The time stepper produced non-finite values.

    ``step`` records the first offending time-step index.
    """

    def __init__(self, step: int, message: str = ""):
        self.step = step
        super().__init__(message or f"non-finite solution at time step {step}")


class NormalizationError(NumericalError):
    """An eigenmode has (numerically) zero surface value, so the surface
    normalization cannot be applied."""


class ConditioningError(NumericalError):
    """Conjugate gradients stagnated before reaching tolerance."""


class DiagnosticError(NumericalError):
    """An empirical diagnostic (e.g. the energy-bound fit) failed, which
    usually signals an unstable or inconsistent solve."""


class CapacityError(ColfluxError):
    """A dense-oracle computation exceeds its documented size cap (exit 4)."""
