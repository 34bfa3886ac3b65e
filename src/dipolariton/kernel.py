"""Anisotropic dipole-dipole interaction kernel and its Fourier tables.

The interaction between two excited dipoles aligned along a common axis is

    eps(r) = strength * (1 - 3 cos^2 phi) / |r|^3

with phi the angle between the separation r and the dipole axis. The kernel
value is a frequency shift; multiplying a convolved density by hbar gives the
mean-field potential. Its full-space Fourier transform is the bounded
anisotropic function (4 pi / 3) * strength * (3 cos^2 beta - 1), with beta the
angle between the wavevector and the dipole axis.

For periodic grids the kernel is truncated on a sphere of radius R_c (default
half the shortest box edge) so periodic images do not alias the long 1/r^3
tail, and a hard short-distance cutoff removes the self-interaction region.
Two table constructions are provided:

"lattice"  DFT of the minimum-image real-space samples inside the truncation
           sphere. FFT convolution with this table reproduces the direct
           lattice sum exactly (circular convolution theorem), which is what
           the solver's conservation and response checks assume.

"analytic" samples of the spherically-truncated continuum transform on the
           reciprocal lattice. Spectrally accurate for smooth densities, and
           the form that converges to the full-space transform as the box
           grows; it differs from the direct lattice sum at the aliasing
           level. On the Nyquist planes, where +q and -q are one lattice
           mode, it stores the mean of the two samples, which is what a real
           density feels.

Both tables pin the q = 0 coefficient to zero: the angular average of the
kernel vanishes, and a uniform condensate must be exactly stationary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft

from .errors import GridMismatchError, ParameterDomainError
from .grid import GridSpec

__all__ = [
    "KernelSpec",
    "FourierTable",
    "kernel_value",
    "kernel_fourier_analytic",
    "kernel_table_fourier",
    "convolve_density",
    "direct_convolution_reference",
]

FULL_SPACE_PREFACTOR = 4.0 * np.pi / 3.0


@dataclass(frozen=True)
class KernelSpec:
    """Dipole axis, coupling strength and cutoffs of the interaction kernel.

    orientation    unit 3-vector of the dipole axis
    strength       signed coupling U * p_r^2 [rad/s * m^3]
    cutoff_radius  hard short-distance cutoff; kernel is zero below it [m]
    sphere_radius  truncation radius for periodic tables; None means half the
                   shortest box edge at table-build time [m]
    """

    orientation: tuple[float, float, float]
    strength: float
    cutoff_radius: float = 0.0
    sphere_radius: float | None = None

    def __post_init__(self):
        axis = np.asarray(self.orientation, dtype=float)
        if axis.shape != (3,) or not np.all(np.isfinite(axis)):
            raise ParameterDomainError(f"orientation must be a finite 3-vector, got {self.orientation}")
        norm = float(np.linalg.norm(axis))
        if abs(norm - 1.0) > 1e-12:
            raise ParameterDomainError(f"orientation must be a unit vector, |axis| = {norm}")
        if not np.isfinite(self.strength):
            raise ParameterDomainError("strength must be finite")
        if not (np.isfinite(self.cutoff_radius) and self.cutoff_radius >= 0):
            raise ParameterDomainError(f"cutoff_radius must be >= 0, got {self.cutoff_radius}")
        if self.sphere_radius is not None and not (
            np.isfinite(self.sphere_radius) and self.sphere_radius > 0
        ):
            raise ParameterDomainError(f"sphere_radius must be positive, got {self.sphere_radius}")
        object.__setattr__(self, "orientation", tuple(float(v) for v in axis))

    @property
    def axis(self) -> np.ndarray:
        return np.asarray(self.orientation)


def kernel_value(r, spec: KernelSpec) -> np.ndarray:
    """Evaluate the kernel at displacement(s) r, shape (..., 3).

    Points with |r| < cutoff_radius return 0. With a zero cutoff the origin is
    a genuine singularity and raises.
    """
    r = np.asarray(r, dtype=float)
    if r.shape[-1] != 3:
        raise ParameterDomainError(f"displacements must have a trailing axis of 3, got shape {r.shape}")
    rn = np.linalg.norm(r, axis=-1)
    if spec.cutoff_radius == 0.0 and np.any(rn == 0.0):
        raise ParameterDomainError("kernel diverges at r = 0; set a positive cutoff_radius")
    inside = rn >= spec.cutoff_radius if spec.cutoff_radius > 0 else np.ones_like(rn, bool)
    safe = np.where(rn > 0, rn, 1.0)
    cos_phi = (r @ spec.axis) / safe
    out = spec.strength * (1.0 - 3.0 * cos_phi**2) / safe**3
    return np.where(inside & (rn > 0), out, 0.0)


def kernel_fourier_analytic(q, spec: KernelSpec) -> np.ndarray:
    """Full-space Fourier transform of the kernel at wavevector(s) q.

    Returns (4 pi / 3) * strength * (3 cos^2 beta - 1); the q = 0 value is 0
    by the zero-angular-average convention.
    """
    q = np.asarray(q, dtype=float)
    if q.shape[-1] != 3:
        raise ParameterDomainError(f"wavevectors must have a trailing axis of 3, got shape {q.shape}")
    qn = np.linalg.norm(q, axis=-1)
    safe = np.where(qn > 0, qn, 1.0)
    cos_beta = (q @ spec.axis) / safe
    out = FULL_SPACE_PREFACTOR * spec.strength * (3.0 * cos_beta**2 - 1.0)
    return np.where(qn > 0, out, 0.0)


def _truncated_radial_factor(x: np.ndarray) -> np.ndarray:
    """Envelope of the sphere-truncated transform relative to full space.

    f(x) = 1 + 3 cos(x)/x^2 - 3 sin(x)/x^3 for x = q R; f(0) = 0, f(inf) = 1.
    Below x = 0.1 the direct form loses ~x^-2 digits to cancellation, so a
    three-term series takes over there (both branches agree to ~1e-11).
    """
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 0.1
    xs = np.where(small, 1.0, x)
    exact = 1.0 + 3.0 * np.cos(xs) / xs**2 - 3.0 * np.sin(xs) / xs**3
    series = x**2 / 10.0 - x**4 / 280.0 + x**6 / 15120.0
    return np.where(small, series, exact)


@dataclass(frozen=True)
class FourierTable:
    """Kernel Fourier coefficients on a grid's reciprocal lattice.

    coeffs is real and even in the index, coeffs[-k] = coeffs[k] (the
    truncated kernel is even), laid out in FFT ordering, and carries the
    physical convolution normalization: ifftn(fftn(rho) * coeffs)
    approximates the continuum integral of eps against rho.
    """

    grid: GridSpec
    spec: KernelSpec
    coeffs: np.ndarray
    method: str
    sphere_radius: float

    def __post_init__(self):
        if self.coeffs.shape != self.grid.shape:
            raise GridMismatchError(
                f"coefficient shape {self.coeffs.shape} does not match grid {self.grid.shape}"
            )


def _resolve_sphere_radius(grid: GridSpec, spec: KernelSpec) -> float:
    if spec.sphere_radius is not None:
        return float(spec.sphere_radius)
    return 0.5 * min(grid.box_lengths)


def kernel_table_fourier(
    grid: GridSpec, spec: KernelSpec, method: str = "lattice", workers: int = 1
) -> FourierTable:
    """Tabulate the truncated kernel's Fourier coefficients on the grid.

    method="lattice" (default) takes the DFT of the minimum-image real-space
    samples inside the truncation sphere, so FFT convolution matches the
    direct lattice sum to roundoff. method="analytic" samples the truncated
    continuum transform instead. See the module docstring for the trade-off.
    workers is the FFT worker count of the lattice transform.
    """
    r_c = _resolve_sphere_radius(grid, spec)
    if method == "lattice":
        # |r| and r . axis from open per-axis meshes: one full-grid array each
        x, y, z = np.meshgrid(*grid.displacements(), indexing="ij", sparse=True)
        rn = np.sqrt(x**2 + y**2 + z**2)
        # evaluate on the punctured lattice; the origin cell never contributes
        outside = (rn == 0) | (rn > r_c)
        if spec.cutoff_radius > 0:
            outside |= rn < spec.cutoff_radius
        ax, ay, az = spec.orientation
        cos_phi = x * ax + y * ay + z * az
        rn[outside] = 1.0
        cos_phi /= rn
        # kernel_value's strength * (1 - 3 cos^2 phi) / |r|^3, in place
        vals = np.square(cos_phi, out=cos_phi)
        vals *= 3.0
        np.subtract(1.0, vals, out=vals)
        vals *= spec.strength
        rn **= 3
        vals /= rn
        del rn
        vals[outside] = 0.0
        coeffs = scipy.fft.fftn(vals, workers=workers).real * grid.cell_volume
    elif method == "analytic":
        qx, qy, qz = grid.wavenumber_mesh()
        qn = np.sqrt(qx**2 + qy**2 + qz**2)
        safe = np.where(qn > 0, qn, 1.0)
        ax, ay, az = spec.orientation
        cos_beta = (qx * ax + qy * ay + qz * az) / safe
        envelope = _truncated_radial_factor(qn * r_c)
        if spec.cutoff_radius > 0:
            envelope = envelope - _truncated_radial_factor(qn * spec.cutoff_radius)
        coeffs = FULL_SPACE_PREFACTOR * spec.strength * (3.0 * cos_beta**2 - 1.0) * envelope
        coeffs = np.ascontiguousarray(np.broadcast_to(coeffs, grid.shape)).astype(float)
        # the sample at index -k is the one at -q except on Nyquist planes,
        # where fftfreq puts -q_N on both sides; averaging with the mirrored
        # table makes it index-even there too (and leaves the rest unchanged)
        coeffs = 0.5 * (coeffs + np.roll(np.flip(coeffs), 1, axis=(0, 1, 2)))
    else:
        raise ParameterDomainError(f"unknown table method '{method}' (use 'lattice' or 'analytic')")
    coeffs[0, 0, 0] = 0.0
    return FourierTable(grid=grid, spec=spec, coeffs=coeffs, method=method, sphere_radius=r_c)


def convolve_density(table: FourierTable, rho: np.ndarray, workers: int = 1) -> np.ndarray:
    """Convolve a real density with the kernel through the Fourier table.

    Returns the frequency-shift field sum_r' eps(r - r') rho(r') dV. A real
    density times the real, even table gives a Hermitian product spectrum,
    so the real-to-complex transform pair over the half spectrum
    coeffs[..., :nz//2+1] (a view, no copy) equals the full complex route
    real(ifftn(fftn(rho) * coeffs)) at about half the cost.
    """
    rho = np.asarray(rho)
    if rho.shape != table.grid.shape:
        raise GridMismatchError(
            f"density shape {rho.shape} does not match table grid {table.grid.shape}"
        )
    spectrum = scipy.fft.rfftn(rho, workers=workers)
    # a non-finite density gives inf * 0 at the table's zeros; the NaNs that
    # follow are the caller's to report, not numpy's to warn about
    with np.errstate(invalid="ignore"):
        spectrum *= table.coeffs[..., : rho.shape[-1] // 2 + 1]
    return scipy.fft.irfftn(spectrum, s=rho.shape, workers=workers)


def direct_convolution_reference(
    grid: GridSpec, spec: KernelSpec, rho: np.ndarray, sphere_radius: float | None = None
) -> np.ndarray:
    """Brute-force periodic convolution by summation over the truncation sphere.

    O(N^2) reference used by the self-test and the acceptance suite; it shares
    no code path with the FFT route. Shifts the density by every minimum-image
    displacement inside the sphere and accumulates kernel weight times shifted
    density times cell volume.
    """
    rho = np.asarray(rho)
    if rho.shape != grid.shape:
        raise GridMismatchError(f"density shape {rho.shape} does not match grid {grid.shape}")
    r_c = sphere_radius if sphere_radius is not None else _resolve_sphere_radius(grid, spec)
    cutoff = spec.cutoff_radius
    dx, dy, dz = grid.displacements()
    out = np.zeros(grid.shape)
    nx, ny, nz = grid.dims
    weight_sum = 0.0
    for i in range(nx):
        for j in range(ny):
            for l in range(nz):
                d = np.array([dx[i], dy[j], dz[l]])
                rn = float(np.linalg.norm(d))
                if rn == 0.0 or rn > r_c:
                    continue
                if cutoff > 0 and rn < cutoff:
                    continue
                w = float(kernel_value(d, KernelSpec(spec.orientation, spec.strength, 0.0)))
                if w == 0.0:
                    continue
                weight_sum += w
                out += w * np.roll(rho, shift=(i, j, l), axis=(0, 1, 2))
    # the uniform response is zero by convention (the continuum angular
    # average vanishes); subtract the lattice sum's DC artifact, which is
    # zero anyway on cubic lattices by symmetry
    out -= weight_sum * float(np.mean(rho))
    return out * grid.cell_volume
