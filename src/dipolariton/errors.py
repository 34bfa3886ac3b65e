"""Exception and warning types shared across the package, and the count check.

Everything derives from DipolaritonError so callers can catch the package's
failures with one except clause. Validation-style failures also subclass
ValueError, runtime/numerical failures subclass RuntimeError.
"""

import numpy as np

__all__ = [
    "DipolaritonError",
    "ParameterDomainError",
    "GridMismatchError",
    "GridTooSmallError",
    "OffLatticeError",
    "EmptyInputError",
    "StepSizeError",
    "NonFiniteStateError",
    "FitFailureError",
    "ConfigError",
    "UnitError",
    "GridCoarseWarning",
    "check_count",
]


class DipolaritonError(Exception):
    """Base class for all package errors."""


class ParameterDomainError(DipolaritonError, ValueError):
    """A physical parameter is outside its allowed domain."""


class GridMismatchError(DipolaritonError, ValueError):
    """Two fields or a field and a grid do not share the same lattice."""


class GridTooSmallError(DipolaritonError, ValueError):
    """Grid has too few points per axis for the requested operation."""


class OffLatticeError(DipolaritonError, ValueError):
    """A wavevector does not sit on the grid's reciprocal lattice."""


class EmptyInputError(DipolaritonError, ValueError):
    """An operation received an empty collection."""


class StepSizeError(DipolaritonError, RuntimeError):
    """Requested time step violates the integrator's accuracy or stability bound."""


class NonFiniteStateError(DipolaritonError, RuntimeError):
    """Evolution produced NaN or Inf; message carries diagnostics."""


class FitFailureError(DipolaritonError, RuntimeError):
    """A model fit left residuals above the acceptance threshold."""


class ConfigError(DipolaritonError, ValueError):
    """Malformed or invalid configuration input."""


class UnitError(ConfigError):
    """A config value declared a unit incompatible with its key."""


class GridCoarseWarning(UserWarning):
    """Spectral content near the Nyquist edge; results may be under-resolved."""


def check_count(value, name: str) -> int:
    """value as an int; ParameterDomainError naming name unless it is an integer (no bool) >= 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ParameterDomainError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)
