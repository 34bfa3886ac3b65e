"""Normal-mode algebra of the stationary-light fields and a 1D validator.

The two counterpropagating probe envelopes E_plus, E_minus combine into sum
and difference modes

    sqrt(2) E_S = E_plus + E_minus,    sqrt(2) E_D = E_plus - E_minus.

Adiabatic elimination ties the difference mode, the optical polarization and
the ground-Rydberg coherence to the sum mode; compose_polariton assembles the
dark-state field from the sum mode and the coherence. simulate_linear_1d
integrates the z-only linear equation of the sum mode,

    d/dt E_S = c L_abs (1 + i delta/gamma) cos^2(theta) d^2/dz^2 E_S,

a diffusion equation with complex coefficient that is exactly solvable per
Fourier mode; it doubles as a validator for the derived masses (the real part
of the diffusion coefficient encodes the EIT absorption of the stationary
component).

Fields are plain complex arrays paired with a Grid1D or GridSpec; on 3D grids
the z axis is the last one. The spectral helpers and simulate_linear_1d
transform through numpy.fft on the calling thread.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .eit import C_LIGHT, DerivedQuantities, MediumParams
from .errors import (
    GridCoarseWarning,
    GridMismatchError,
    InsufficientHistoryError,
    ParameterDomainError,
    StepSizeError,
)
from .grid import Grid1D, GridSpec

__all__ = [
    "FieldPair",
    "ModePair",
    "to_sum_difference",
    "from_sum_difference",
    "eliminate_difference",
    "sum_polarization",
    "spin_coherence_adiabatic",
    "compose_polariton",
    "diffusion_coefficient",
    "LinearRunConfig",
    "LinearRunResult",
    "simulate_linear_1d",
    "gaussian_profile",
]

_SQRT2 = math.sqrt(2.0)


def _check_same_shape(a: np.ndarray, b: np.ndarray, what: str):
    if a.shape != b.shape:
        raise GridMismatchError(f"{what}: shapes {a.shape} and {b.shape} differ")


def _check_field_on_grid(arr: np.ndarray, grid):
    if isinstance(grid, Grid1D):
        if arr.shape != (grid.n,):
            raise GridMismatchError(f"field shape {arr.shape} does not match 1D grid ({grid.n},)")
    elif isinstance(grid, GridSpec):
        if arr.shape != grid.shape:
            raise GridMismatchError(f"field shape {arr.shape} does not match grid {grid.shape}")
    else:
        raise ParameterDomainError(f"grid must be Grid1D or GridSpec, got {type(grid)!r}")


@dataclass(frozen=True)
class FieldPair:
    """Counterpropagating probe envelopes on one grid."""

    e_plus: np.ndarray
    e_minus: np.ndarray
    grid: Grid1D | GridSpec

    def __post_init__(self):
        _check_same_shape(self.e_plus, self.e_minus, "FieldPair")
        _check_field_on_grid(self.e_plus, self.grid)


@dataclass(frozen=True)
class ModePair:
    """Sum and difference modes on one grid."""

    e_sum: np.ndarray
    e_diff: np.ndarray
    grid: Grid1D | GridSpec

    def __post_init__(self):
        _check_same_shape(self.e_sum, self.e_diff, "ModePair")
        _check_field_on_grid(self.e_sum, self.grid)


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


def _z_wavenumbers(grid) -> np.ndarray:
    if isinstance(grid, Grid1D):
        return grid.wavenumbers()
    qz = grid.wavenumbers()[2]
    return qz.reshape(1, 1, -1)


def _dz_spectral(arr: np.ndarray, grid) -> np.ndarray:
    qz = _z_wavenumbers(grid)
    spec = np.fft.fft(arr, axis=-1)
    return np.fft.ifft(1j * qz * spec, axis=-1)


def _d2z_spectral(arr: np.ndarray, grid) -> np.ndarray:
    qz = _z_wavenumbers(grid)
    spec = np.fft.fft(arr, axis=-1)
    return np.fft.ifft(-(qz**2) * spec, axis=-1)


def _perp_laplacian(arr: np.ndarray, grid) -> np.ndarray:
    if isinstance(grid, Grid1D):
        return np.zeros_like(np.asarray(arr, dtype=complex))
    qx, qy, _ = grid.wavenumber_mesh()
    spec = np.fft.fftn(arr, axes=(-3, -2))
    return np.fft.ifftn(-(qx**2 + qy**2) * spec, axes=(-3, -2))


def _warn_if_nyquist_heavy(arr: np.ndarray, grid, threshold: float = 1e-6):
    # derivative-weighted spectral energy concentrated at the Nyquist bin
    qz = np.ravel(_z_wavenumbers(grid))
    spec = np.fft.fft(np.asarray(arr), axis=-1)
    energy = np.abs(qz * spec) ** 2
    total = float(np.sum(energy))
    if total == 0.0:
        return
    n = arr.shape[-1]
    nyq = float(np.sum(energy[..., n // 2]))
    if nyq / total > threshold:
        warnings.warn(
            f"z derivative carries {nyq / total:.2e} of its energy at the Nyquist bin; "
            "the grid may be too coarse",
            GridCoarseWarning,
            stacklevel=3,
        )


def eliminate_difference(e_sum: np.ndarray, grid, derived: DerivedQuantities) -> np.ndarray:
    """Difference mode slaved to the sum mode: E_D = -L_abs (1 + i delta/gamma) dE_S/dz."""
    e_sum = np.asarray(e_sum, dtype=complex)
    _check_field_on_grid(e_sum, grid)
    _warn_if_nyquist_heavy(e_sum, grid)
    chi = 1.0 + 1j * derived.detuning_ratio
    return -derived.l_abs * chi * _dz_spectral(e_sum, grid)


def sum_polarization(
    e_sum_traj: np.ndarray,
    dt: float,
    grid,
    params: MediumParams,
    derived: DerivedQuantities,
    c: float = C_LIGHT,
) -> np.ndarray:
    """Optical polarization driving the sum mode, from a sampled trajectory.

    Applies -(i / (g N)) (d/dt - c L_abs (1 + i delta/gamma) d^2/dz^2
    - i (c / 2k) lap_perp) to E_S with centered second-order time differences,
    so the result covers the interior slices: input (nt, ...) gives output
    (nt - 2, ...) aligned with e_sum_traj[1:-1].
    """
    traj = np.asarray(e_sum_traj, dtype=complex)
    if traj.ndim < 2 or traj.shape[0] < 3:
        raise InsufficientHistoryError(
            f"need at least 3 time slices for centered differences, got shape {traj.shape}"
        )
    if not (np.isfinite(dt) and dt > 0):
        raise ParameterDomainError(f"dt must be positive, got {dt}")
    _check_field_on_grid(traj[0], grid)
    d_dt = (traj[2:] - traj[:-2]) / (2.0 * dt)
    interior = traj[1:-1]
    chi = 1.0 + 1j * derived.detuning_ratio
    diffusion = c * derived.l_abs * chi
    out = (d_dt
           - diffusion * _d2z_spectral(interior, grid)
           - 1j * (c / (2.0 * params.k)) * _perp_laplacian(interior, grid))
    return -1j / (params.g * params.n_atoms) * out


def _transverse_phase(grid, k_c_perp, sign: float) -> np.ndarray | float:
    kx, ky = float(k_c_perp[0]), float(k_c_perp[1])
    if isinstance(grid, Grid1D) or (kx == 0.0 and ky == 0.0):
        # 1D grids carry no transverse coordinates; the phase is unity
        return 1.0
    xm, ym, _ = grid.meshgrid()
    return np.exp(sign * 1j * (kx * xm + ky * ym))


def spin_coherence_adiabatic(e_sum, grid, g: float, omega: float, k_c_perp=(0.0, 0.0)) -> np.ndarray:
    """Ground-Rydberg coherence slaved to the sum mode.

    sigma_gr = -g E_S exp(-i k_c_perp . r_perp) / (sqrt(2) Omega)
    """
    if not (np.isfinite(omega) and omega > 0):
        raise ParameterDomainError(f"omega must be positive, got {omega}")
    if not (np.isfinite(g) and g > 0):
        raise ParameterDomainError(f"g must be positive, got {g}")
    e_sum = np.asarray(e_sum, dtype=complex)
    _check_field_on_grid(e_sum, grid)
    phase = _transverse_phase(grid, k_c_perp, -1.0)
    return -(g / (_SQRT2 * omega)) * e_sum * phase


def compose_polariton(
    e_sum, sigma_gr, grid, theta: float, n_atoms: float, k_c_perp=(0.0, 0.0)
) -> np.ndarray:
    """Dark-state polariton field from the sum mode and the Rydberg coherence.

    Psi = cos(theta) E_S - sin(theta) sqrt(N) sigma_gr exp(+i k_c_perp . r_perp).
    With the adiabatic coherence this collapses to E_S = cos(theta) Psi.
    """
    if not (0.0 <= theta <= math.pi / 2):
        raise ParameterDomainError(f"theta must lie in [0, pi/2], got {theta}")
    if not (np.isfinite(n_atoms) and n_atoms > 0):
        raise ParameterDomainError(f"n_atoms must be positive, got {n_atoms}")
    e_sum = np.asarray(e_sum, dtype=complex)
    sig = np.asarray(sigma_gr, dtype=complex)
    _check_same_shape(e_sum, sig, "compose_polariton")
    _check_field_on_grid(e_sum, grid)
    phase = _transverse_phase(grid, k_c_perp, +1.0)
    return math.cos(theta) * e_sum - math.sin(theta) * math.sqrt(n_atoms) * sig * phase


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
    """Inputs of the 1D linear validator run.

    integrator "spectral" applies the exact per-mode exponential; "explicit"
    is a forward-difference cross-check with the usual stability bound.
    """

    grid: Grid1D
    initial: np.ndarray
    diffusion: complex
    dt: float
    n_steps: int
    snapshot_stride: int = 10
    integrator: str = "spectral"

    def __post_init__(self):
        _check_field_on_grid(np.asarray(self.initial), self.grid)
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ParameterDomainError(f"dt must be positive, got {self.dt}")
        if self.n_steps < 1:
            raise ParameterDomainError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.snapshot_stride < 1:
            raise ParameterDomainError(f"snapshot_stride must be >= 1, got {self.snapshot_stride}")
        d = complex(self.diffusion)
        if not (np.isfinite(d.real) and np.isfinite(d.imag)) or d.real < 0:
            raise ParameterDomainError(f"diffusion must be finite with Re >= 0, got {d}")
        if self.integrator not in ("spectral", "explicit"):
            raise ParameterDomainError(f"unknown integrator '{self.integrator}'")


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

    Returns snapshots every snapshot_stride steps (plus the initial state),
    the amplitude-weighted variance and norm sum(|E|^2) dz at those times, and
    the linear-fit growth rate of the variance. For a Gaussian profile of
    variance s0^2 the analytic law is s^2(t) = s0^2 + 2 Re(D) t at zero
    detuning.
    """
    grid, d = cfg.grid, complex(cfg.diffusion)
    psi = np.asarray(cfg.initial, dtype=complex).copy()
    z = grid.z()
    if cfg.integrator == "explicit":
        # amplification per mode: 1 - (dt/dz^2) D s, s in [0, 4]; |.| <= 1 needs
        # dt <= dz^2 Re(D) / (2 |D|^2)
        if d != 0:
            bound = grid.dz**2 * d.real / (2.0 * abs(d) ** 2)
            if cfg.dt > bound:
                raise StepSizeError(
                    f"dt = {cfg.dt:.3e} exceeds the explicit stability bound {bound:.3e}"
                )
    q2 = grid.wavenumbers() ** 2
    decay = np.exp(-d * q2 * cfg.dt)
    times = [0.0]
    snaps = [psi.copy()]
    for step in range(1, cfg.n_steps + 1):
        if cfg.integrator == "spectral":
            psi = np.fft.ifft(decay * np.fft.fft(psi))
        else:
            lap = (np.roll(psi, -1) + np.roll(psi, 1) - 2.0 * psi) / grid.dz**2
            psi = psi + cfg.dt * d * lap
        if step % cfg.snapshot_stride == 0 or step == cfg.n_steps:
            times.append(step * cfg.dt)
            snaps.append(psi.copy())
    times = np.asarray(times)
    snapshots = np.asarray(snaps)
    variances = np.asarray([_amplitude_variance(s, z) for s in snapshots])
    norms = np.asarray([float(np.sum(np.abs(s) ** 2)) * grid.dz for s in snapshots])
    rate = float(np.polyfit(times, variances, 1)[0]) if len(times) > 1 else math.nan
    return LinearRunResult(
        times=times, snapshots=snapshots, variances=variances, norms=norms, variance_rate=rate
    )


def gaussian_profile(grid: Grid1D, sigma: float, center: float | None = None) -> np.ndarray:
    """Real Gaussian amplitude profile of given variance sigma^2, unit peak."""
    if not (np.isfinite(sigma) and sigma > 0):
        raise ParameterDomainError(f"sigma must be positive, got {sigma}")
    z0 = 0.5 * grid.length if center is None else float(center)
    z = grid.z()
    return np.exp(-((z - z0) ** 2) / (2.0 * sigma**2)).astype(complex)
