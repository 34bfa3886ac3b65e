"""Uniform periodic grids in one and three dimensions.

All solvers in this package live on periodic rectangular lattices. GridSpec
carries point counts and physical spacings of a 3D grid and hands out the
matching coordinates, minimum-image displacements and reciprocal-lattice
wavenumbers in FFT ordering. Grid1D is the z-only analogue used by the
stationary-light validator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridTooSmallError, ParameterDomainError, check_count, check_positive

__all__ = ["GridSpec", "Grid1D"]


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic 3D grid. Axis order is (x, y, z); z is the last axis."""

    dims: tuple[int, int, int]
    spacings: tuple[float, float, float]

    def __post_init__(self):
        if any(not hasattr(v, "__len__") or len(v) != 3 for v in (self.dims, self.spacings)):
            raise ParameterDomainError("GridSpec takes three dims and three spacings")
        dims = tuple(check_count(n, "a point count in dims") for n in self.dims)
        spacings = tuple(check_positive(d, "a spacing in spacings") for d in self.spacings)
        for n in dims:
            if n < 8:
                raise GridTooSmallError(f"need at least 8 points per axis, got dims={dims}")
            if n % 2:
                raise ParameterDomainError(f"point counts must be even, got dims={dims}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spacings", spacings)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.dims

    @property
    def cell_volume(self) -> float:
        dx, dy, dz = self.spacings
        return dx * dy * dz

    @property
    def box_lengths(self) -> tuple[float, float, float]:
        return tuple(n * d for n, d in zip(self.dims, self.spacings))

    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Real-space coordinates per axis, 0 .. (n-1)*dx."""
        return tuple(np.arange(n) * d for n, d in zip(self.dims, self.spacings))

    def wavenumbers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Angular wavenumbers per axis in FFT ordering."""
        return tuple(
            2.0 * np.pi * np.fft.fftfreq(n, d=d) for n, d in zip(self.dims, self.spacings)
        )

    def displacements(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Minimum-image displacement coordinates per axis in FFT ordering: 0, d, ..., -d."""
        return tuple(np.fft.fftfreq(n) * n * d for n, d in zip(self.dims, self.spacings))


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic 1D grid along z."""

    n: int
    dz: float

    def __post_init__(self):
        n = check_count(self.n, "n")
        if n < 8:
            raise GridTooSmallError(f"need at least 8 points, got n={n}")
        if n % 2:
            raise ParameterDomainError(f"point count must be even, got n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "dz", check_positive(self.dz, "dz"))

    @property
    def length(self) -> float:
        return self.n * self.dz

    def z(self) -> np.ndarray:
        return np.arange(self.n) * self.dz

    def wavenumbers(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dz)
