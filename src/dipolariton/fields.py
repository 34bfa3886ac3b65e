"""Normal-mode algebra of the stationary-light fields and a 1D validator.

The two counterpropagating probe envelopes E_plus, E_minus combine into sum
and difference modes

    sqrt(2) E_S = E_plus + E_minus,    sqrt(2) E_D = E_plus - E_minus.

Adiabatic elimination ties the difference mode to the gradient of the sum
mode. simulate_linear_1d integrates the z-only linear equation of the sum
mode,

    d/dt E_S = c L_abs (1 + i delta/gamma) cos^2(theta) d^2/dz^2 E_S,

a diffusion equation with complex coefficient that is exactly solvable per
Fourier mode; it doubles as a validator for the derived masses (the real part
of the diffusion coefficient encodes the EIT absorption of the stationary
component).

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
                     check_positive, check_real, check_shape)
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

    @property
    def final(self) -> np.ndarray:
        return self.snapshots[-1]


def _amplitude_variance(profile: np.ndarray, z: np.ndarray) -> float:
    # second central moment of the amplitude |E_S|; for the diffusion law the
    # field itself is the spread quantity, so the weight is |E|, not |E|^2
    w = np.abs(profile)
    total = float(np.sum(w))
    if total == 0.0:
        return math.nan
    mean = float(np.sum(z * w)) / total
    return float(np.sum((z - mean) ** 2 * w)) / total


def simulate_linear_1d(cfg: LinearRunConfig) -> LinearRunResult:
    """Integrate the z-only sum-mode diffusion equation and track its spread.

    Each step applies the exact per-mode factor exp(-D q^2 dt). Returns
    snapshots every snapshot_stride steps (plus the initial state), the
    amplitude-weighted variance and norm sum(|E|^2) dz at those times, and
    the linear-fit growth rate of the variance. For a Gaussian profile of
    variance s0^2 the analytic law is s^2(t) = s0^2 + 2 Re(D) t at zero
    detuning.
    """
    grid, d = cfg.grid, cfg.diffusion
    psi = np.array(cfg.initial, dtype=complex)
    z = grid.z()
    q2 = grid.wavenumbers() ** 2
    decay = np.exp(-d * q2 * cfg.dt)
    times = [0.0]
    snaps = [psi]
    for step in range(1, cfg.n_steps + 1):
        psi = np.fft.ifft(decay * np.fft.fft(psi))
        if step % cfg.snapshot_stride == 0 or step == cfg.n_steps:
            times.append(step * cfg.dt)
            snaps.append(psi)
    times = np.asarray(times)
    snapshots = np.asarray(snaps)
    variances = np.asarray([_amplitude_variance(s, z) for s in snapshots])
    norms = np.asarray([float(np.sum(np.abs(s) ** 2)) * grid.dz for s in snapshots])
    # n_steps >= 1 always records the initial and the final state
    rate = float(np.polyfit(times, variances, 1)[0])
    return LinearRunResult(
        times=times, snapshots=snapshots, variances=variances, norms=norms, variance_rate=rate
    )


def gaussian_profile(grid: Grid1D, sigma: float, center: float | None = None) -> np.ndarray:
    """Real Gaussian amplitude profile of given variance sigma^2, unit peak."""
    sigma = check_positive(sigma, "sigma")
    z0 = 0.5 * grid.length if center is None else check_real(center, "center")
    z = grid.z()
    return np.exp(-((z - z0) ** 2) / (2.0 * sigma**2)).astype(complex)
