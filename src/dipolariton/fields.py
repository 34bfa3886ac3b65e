"""Normal-mode algebra of the stationary-light fields and a 1D validator.

The two counterpropagating probe envelopes E_plus, E_minus combine into sum
and difference modes

    sqrt(2) E_S = E_plus + E_minus,    sqrt(2) E_D = E_plus - E_minus,

a unitary change of basis that is its own inverse, so one function,
sum_difference, goes both ways. Adiabatic elimination ties the difference
mode to the gradient of the sum mode. simulate_linear_1d solves the
z-only linear equation of the sum mode,

    d/dt E_S = c L_abs (1 + i delta/gamma) cos^2(theta) d^2/dz^2 E_S,

a diffusion equation with complex coefficient that is exactly solvable per
Fourier mode, at all snapshot times in one array expression; it doubles as
a validator for the derived masses (the real part of the diffusion
coefficient encodes the EIT absorption of the stationary component).

Fields are plain complex arrays along z, passed with a Grid1D; any other
grid is refused with ParameterDomainError, and a field off its grid with
GridMismatchError. The transforms go through numpy.fft on the calling
thread.
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
    "sum_difference",
    "eliminate_difference",
    "diffusion_coefficient",
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


def sum_difference(a: np.ndarray, b: np.ndarray, grid: Grid1D) -> tuple[np.ndarray, np.ndarray]:
    """((a + b) / sqrt(2), (a - b) / sqrt(2)) of two fields on grid.

    The change between the probe envelopes and the sum and difference modes
    is unitary and its own inverse: sum_difference(E_plus, E_minus, grid)
    gives (E_S, E_D), and sum_difference(E_S, E_D, grid) gives them back.
    ParameterDomainError unless grid is a Grid1D, GridMismatchError for a
    field off it.
    """
    shape = _check_grid(grid)
    a, b = check_shape(a, shape, "a"), check_shape(b, shape, "b")
    return (a + b) / _SQRT2, (a - b) / _SQRT2


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
class LinearRunResult:
    times: np.ndarray
    snapshots: np.ndarray
    variances: np.ndarray
    norms: np.ndarray
    variance_rate: float


def simulate_linear_1d(grid: Grid1D, initial: np.ndarray, diffusion: complex, dt: float,
                       n_steps: int, snapshot_stride: int = 10) -> LinearRunResult:
    """Solve the z-only sum-mode diffusion equation and track its spread.

    initial is the profile E0 on grid, diffusion the coefficient D, with
    Re D >= 0, and dt > 0; n_steps and snapshot_stride are integers >= 1.
    They are checked in that order: ParameterDomainError, or
    GridMismatchError for an initial profile off the grid. The snapshots
    are the exact solution ifft(fft(E0) exp(-D q^2 t)) at t = 0, every
    snapshot_stride steps of dt and t = n_steps dt, all in one broadcast;
    snapshot 0 is the initial profile as given. Returns them, the variance
    of the amplitude |E| (NaN for an all-zero snapshot), the norm
    sum(|E|^2) dz, and the linear-fit growth rate of the variance. For a
    Gaussian profile of variance s0^2 the analytic law is
    s^2(t) = s0^2 + 2 Re(D) t at zero detuning.
    """
    check_shape(initial, _check_grid(grid), "initial")
    dt = check_positive(dt, "dt")
    n_steps = check_count(n_steps, "n_steps")
    snapshot_stride = check_count(snapshot_stride, "snapshot_stride")
    diffusion = check_complex(diffusion, "diffusion")
    if diffusion.real < 0:
        raise ParameterDomainError(f"diffusion must have Re >= 0, got {diffusion}")
    psi = np.array(initial, dtype=complex)
    steps = np.append(np.arange(0, n_steps, snapshot_stride), n_steps)
    times = steps * dt
    decay = np.exp(np.multiply.outer(times, -diffusion * grid.wavenumbers() ** 2))
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
