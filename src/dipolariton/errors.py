"""Exception and warning types shared across the package, and one check per parameter kind.

Everything derives from DipolaritonError so callers can catch the package's
failures with one except clause. Validation-style failures also subclass
ValueError, runtime/numerical failures subclass RuntimeError.

check_count, check_real, check_positive, check_complex and check_vector
return the value they pass (no bool or string passes) and refuse with a
ParameterDomainError whose message begins with the parameter's name, which
config.parse_config reads to name the `medium.*` key a refusal is about.
Any further bound is tested where the parameter is used.
"""

import math

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
    "check_real",
    "check_positive",
    "check_complex",
    "check_vector",
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


_REAL = (int, float, np.integer, np.floating)
_NUMBER = (*_REAL, complex, np.complexfloating)


def check_real(value, name: str) -> float:
    """value as a float; ParameterDomainError naming name unless it is a finite real number."""
    if isinstance(value, bool) or not isinstance(value, _REAL) or not math.isfinite(value):
        raise ParameterDomainError(f"{name} must be a finite real number, got {value!r}")
    return float(value)


def check_positive(value, name: str) -> float:
    """value as a float; ParameterDomainError naming name unless it is a finite real number > 0."""
    if isinstance(value, bool) or not isinstance(value, _REAL) or not math.isfinite(value) or value <= 0:
        raise ParameterDomainError(f"{name} must be positive and finite, got {value!r}")
    return float(value)


def check_complex(value, name: str) -> complex:
    """value as a complex; ParameterDomainError naming name unless it is a finite number."""
    if isinstance(value, bool) or not isinstance(value, _NUMBER) or not np.isfinite(value):
        raise ParameterDomainError(f"{name} must be a finite number, got {value!r}")
    return complex(value)


def check_vector(value, name: str, *, single: bool = False) -> np.ndarray:
    """value as a float array; ParameterDomainError naming name unless it is an array of
    int or float dtype, of shape (3,) if single and (..., 3) otherwise, with finite components."""
    arr = np.asarray(value)
    shaped = arr.shape == (3,) if single else arr.ndim > 0 and arr.shape[-1] == 3
    if not (shaped and arr.dtype.kind in "iuf" and np.isfinite(arr).all()):
        if single:
            raise ParameterDomainError(f"{name} must be a finite real 3-vector, got {value!r}")
        raise ParameterDomainError(f"{name} must hold finite real 3-vectors, got shape {arr.shape} "
                                   f"and dtype {arr.dtype}")
    return arr.astype(float, copy=False)
