"""Exception and warning types shared across the package, and one check per parameter kind.

Everything derives from DipolaritonError so callers can catch the package's
failures with one except clause. Validation-style failures also subclass
ValueError, runtime/numerical failures subclass RuntimeError.

check_count, check_real, check_positive, check_complex, check_vector,
check_unit_vector and check_real_array return the value they pass (no bool
or string passes, nor a ragged nesting of lists) and refuse with a
ParameterDomainError whose message begins with the parameter's name, which
config.parse_config reads to name the `medium.*` key a refusal is about.
Any further bound is tested where the parameter is used. check_shape refuses
an array of another shape than its grid asks for with a GridMismatchError
naming the array and both shapes; it reads no entry, so it costs O(1) for a
grid-sized array.
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
    "check_unit_vector",
    "check_real_array",
    "check_shape",
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


def _array(value, name: str) -> tuple[np.ndarray, bool]:
    """np.asarray(value), and whether it has int or float dtype and finite entries;
    ParameterDomainError naming name for a ragged nesting, which no array holds."""
    try:
        arr = np.asarray(value)
    except ValueError:
        raise ParameterDomainError(f"{name} must be a regular array, got a ragged nesting") from None
    return arr, arr.dtype.kind in "iuf" and bool(np.isfinite(arr).all())


def check_real_array(value, name: str) -> np.ndarray:
    """value as a float array; ParameterDomainError naming name unless it is an array of
    int or float dtype with finite entries."""
    arr, real = _array(value, name)
    if not real:
        raise ParameterDomainError(f"{name} must hold finite real numbers, "
                                   f"got {np.array2string(arr, threshold=6)}")
    return arr.astype(float, copy=False)


def check_vector(value, name: str, *, single: bool = False) -> np.ndarray:
    """value as a float array; ParameterDomainError naming name unless it is an array of
    int or float dtype, of shape (3,) if single and (..., 3) otherwise, with finite components."""
    arr, real = _array(value, name)
    shaped = arr.shape == (3,) if single else arr.ndim > 0 and arr.shape[-1] == 3
    if not (shaped and real):
        if single:
            raise ParameterDomainError(f"{name} must be a finite real 3-vector, got {value!r}")
        raise ParameterDomainError(f"{name} must hold finite real 3-vectors, got shape {arr.shape} "
                                   f"and dtype {arr.dtype}")
    return arr.astype(float, copy=False)


def check_unit_vector(value, name: str, *, single: bool = False, tol: float = 1e-12) -> np.ndarray:
    """check_vector, then ParameterDomainError naming name unless every vector's norm is 1 within tol."""
    arr = check_vector(value, name, single=single)
    off = np.abs(np.linalg.norm(arr, axis=-1) - 1.0)
    if np.any(off > tol):
        raise ParameterDomainError(f"{name} must {'be a unit vector' if single else 'hold unit vectors'} "
                                   f"within {tol:g}, got |norm - 1| = {off.max():.3g}")
    return arr


def check_shape(value, shape: tuple[int, ...], name: str, dtype=None) -> np.ndarray:
    """np.asarray(value, dtype), the same object for an ndarray of that dtype;
    GridMismatchError naming name and both shapes unless its shape is shape."""
    arr = np.asarray(value, dtype=dtype)
    if arr.shape != shape:
        raise GridMismatchError(f"{name} shape {arr.shape} does not match {shape}")
    return arr
