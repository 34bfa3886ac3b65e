"""Normal-mode algebra of the stationary-light fields and a 1D validator.

The two counterpropagating probe envelopes E_plus, E_minus combine into sum
and difference modes

    sqrt(2) E_S = E_plus + E_minus,    sqrt(2) E_D = E_plus - E_minus.

Adiabatic elimination ties the difference mode to the gradient of the sum
mode. simulate_linear_1d solves the z-only linear equation of the sum
mode,

    d/dt E_S = c L_abs (1 + i delta/gamma) cos^2(theta) d^2/dz^2 E_S,

a diffusion equation with complex coefficient that is exactly solvable per
Fourier mode, at all snapshot times in one array expression; it doubles as
a validator for the derived masses (the real part of the diffusion
coefficient encodes the EIT absorption of the stationary component).

Fields are plain complex arrays along z, paired with a Grid1D; any other
grid is refused with ParameterDomainError. The transforms go through
numpy.fft on the calling thread.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .eit import DerivedQuantities
from .errors import (GridCoarseWarning, ParameterDomainError, check_complex, check_count,
                     check_positive, check_shape)
from .grid import Grid1D

__all__ = [
    "FieldPair",
    "ModePair",
    "to_sum_difference",
    "from_sum_difference",
    "eliminate_difference",
    "diffusion_coefficient",
    "LinearRunConfig",
    "LinearRunResult",
    "simulate_linear_1d",
    "gaussian_profile",
]

_SQRT2 = math.sqrt(2.0)


def _check_grid(grid: Grid1D) -> tuple[int]:
    """The field shape (n,) of grid; ParameterDomainError unless grid is a Grid1D."""
    if not isinstance(grid, Grid1D):
        raise ParameterDomainError(f"grid must be a Grid1D, got {type(grid)!r}")
    return (grid.n,)


def _check_fields(pair, *names: str) -> None:
    """Store the fields names of pair as arrays; GridMismatchError unless each lies on its grid."""
    shape = _check_grid(pair.grid)
    for name in names:
        object.__setattr__(pair, name, check_shape(getattr(pair, name), shape, name))


@dataclass(frozen=True)
class FieldPair:
    """Counterpropagating probe envelopes on one grid."""

    e_plus: np.ndarray
    e_minus: np.ndarray
    grid: Grid1D

    def __post_init__(self):
        _check_fields(self, "e_plus", "e_minus")


@dataclass(frozen=True)
class ModePair:
    """Sum and difference modes on one grid."""

    e_sum: np.ndarray
    e_diff: np.ndarray
    grid: Grid1D

    def __post_init__(self):
        _check_fields(self, "e_sum", "e_diff")


def to_sum_difference(pair: FieldPair) -> ModePair:
    """Unitary change to sum/difference modes: sqrt(2) E_S = E+ + E-."""
    return ModePair(
        e_sum=(pair.e_plus + pair.e_minus) / _SQRT2,
        e_diff=(pair.e_plus - pair.e_minus) / _SQRT2,
        grid=pair.grid,
    )


def from_sum_difference(modes: ModePair) -> FieldPair:
    """Inverse of to_sum_difference."""
    return FieldPair(
        e_plus=(modes.e_sum + modes.e_diff) / _SQRT2,
        e_minus=(modes.e_sum - modes.e_diff) / _SQRT2,
        grid=modes.grid,
    )


def _warn_if_nyquist_heavy(d_spec: np.ndarray):
    # warn when over 1e-6 of the z derivative's spectral energy sits at the Nyquist bin
    energy = np.abs(d_spec) ** 2
    total = float(np.sum(energy))
    if total == 0.0:
        return
    nyq = float(energy[len(energy) // 2])
    if nyq / total > 1e-6:
        warnings.warn(
            f"z derivative carries {nyq / total:.2e} of its energy at the Nyquist bin; "
            "the grid may be too coarse",
            GridCoarseWarning,
            stacklevel=3,
        )


def eliminate_difference(e_sum: np.ndarray, grid: Grid1D, derived: DerivedQuantities) -> np.ndarray:
    """Difference mode slaved to the sum mode: E_D = -L_abs (1 + i delta/gamma) dE_S/dz."""
    e_sum = check_shape(e_sum, _check_grid(grid), "e_sum", dtype=complex)
    d_spec = 1j * grid.wavenumbers() * np.fft.fft(e_sum)
    _warn_if_nyquist_heavy(d_spec)
    chi = 1.0 + 1j * derived.detuning_ratio
    return -derived.l_abs * chi * np.fft.ifft(d_spec)


def diffusion_coefficient(derived: DerivedQuantities) -> complex:
    """Complex diffusion coefficient of the z-only sum-mode equation.

    c L_abs (1 + i delta/gamma) cos^2(theta); the group velocity identity
    v_gr = c cos^2(theta) turns this into L_abs v_gr (1 + i delta/gamma),
    which needs no separate value of c.
    """
    chi = 1.0 + 1j * derived.detuning_ratio
    return derived.l_abs * derived.v_gr * chi


@dataclass(frozen=True)
class LinearRunConfig:
    """Inputs of the 1D linear validator run."""

    grid: Grid1D
    initial: np.ndarray
    diffusion: complex
    dt: float
    n_steps: int
    snapshot_stride: int = 10

    def __post_init__(self):
        check_shape(self.initial, _check_grid(self.grid), "initial")
        object.__setattr__(self, "dt", check_positive(self.dt, "dt"))
        for name in ("n_steps", "snapshot_stride"):
            object.__setattr__(self, name, check_count(getattr(self, name), name))
        d = check_complex(self.diffusion, "diffusion")
        if d.real < 0:
            raise ParameterDomainError(f"diffusion must have Re >= 0, got {d}")
        object.__setattr__(self, "diffusion", d)


@dataclass(frozen=True)
class LinearRunResult:
    times: np.ndarray
    snapshots: np.ndarray
    variances: np.ndarray
    norms: np.ndarray
    variance_rate: float


def simulate_linear_1d(cfg: LinearRunConfig) -> LinearRunResult:
    """Solve the z-only sum-mode diffusion equation and track its spread.

    The snapshots are the exact solution ifft(fft(E0) exp(-D q^2 t)) at
    t = 0, every snapshot_stride steps of dt and t = n_steps dt, all in one
    broadcast; snapshot 0 is the initial profile as given. Returns them,
    the variance of the amplitude |E| (NaN for an all-zero snapshot), the
    norm sum(|E|^2) dz, and the linear-fit growth rate of the variance. For
    a Gaussian profile of variance s0^2 the analytic law is
    s^2(t) = s0^2 + 2 Re(D) t at zero detuning.
    """
    grid = cfg.grid
    psi = np.array(cfg.initial, dtype=complex)
    steps = np.append(np.arange(0, cfg.n_steps, cfg.snapshot_stride), cfg.n_steps)
    times = steps * cfg.dt
    decay = np.exp(np.multiply.outer(times, -cfg.diffusion * grid.wavenumbers() ** 2))
    snapshots = np.fft.ifft(decay * np.fft.fft(psi))
    snapshots[0] = psi
    # the amplitude |E_S| weighs the spread: for the diffusion law the field
    # itself is the spread quantity, so the weight is |E|, not |E|^2
    z, w = grid.z(), np.abs(snapshots)
    with np.errstate(invalid="ignore"):  # an all-zero snapshot has no spread: NaN
        total = np.sum(w, axis=-1)
        mean = np.sum(z * w, axis=-1) / total
        variances = np.sum((z - mean[:, None]) ** 2 * w, axis=-1) / total
    norms = np.sum(w**2, axis=-1) * grid.dz
    # n_steps >= 1 always records the initial and the final state
    rate = float(np.polyfit(times, variances, 1)[0])
    return LinearRunResult(
        times=times, snapshots=snapshots, variances=variances, norms=norms, variance_rate=rate
    )


def gaussian_profile(grid: Grid1D, sigma: float) -> np.ndarray:
    """Real Gaussian amplitude profile of given variance sigma^2, unit peak at the grid's center."""
    sigma = check_positive(sigma, "sigma")
    z = grid.z()
    return np.exp(-((z - 0.5 * grid.length) ** 2) / (2.0 * sigma**2)).astype(complex)
