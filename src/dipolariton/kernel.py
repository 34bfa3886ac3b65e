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

Tables are even, T(-q) = T(q), and keep the half spectrum convolve_density
reads; transforms run in chunked numpy.fft sweeps over `workers` threads
(dipolariton._fft).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import _fft
from .errors import (ParameterDomainError, check_count, check_positive, check_real, check_shape,
                     check_unit_vector, check_vector)
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
        axis = check_unit_vector(self.orientation, "orientation", single=True)
        object.__setattr__(self, "orientation", tuple(float(v) for v in axis))
        object.__setattr__(self, "strength", check_real(self.strength, "strength"))
        cutoff = check_real(self.cutoff_radius, "cutoff_radius")
        if cutoff < 0:
            raise ParameterDomainError(f"cutoff_radius must be >= 0, got {cutoff}")
        object.__setattr__(self, "cutoff_radius", cutoff)
        if self.sphere_radius is not None:
            radius = check_positive(self.sphere_radius, "sphere_radius")
            object.__setattr__(self, "sphere_radius", radius)

    @property
    def axis(self) -> np.ndarray:
        return np.asarray(self.orientation)


def kernel_value(r, spec: KernelSpec) -> np.ndarray:
    """Evaluate the kernel at displacement(s) r, shape (..., 3).

    Points with |r| < cutoff_radius return 0. With a zero cutoff the origin is
    a genuine singularity and raises.
    """
    r = check_vector(r, "r")
    rn = np.linalg.norm(r, axis=-1)
    if spec.cutoff_radius == 0.0 and np.any(rn == 0.0):
        raise ParameterDomainError("kernel diverges at r = 0; set a positive cutoff_radius")
    inside = rn >= spec.cutoff_radius
    safe = np.where(rn > 0, rn, 1.0)
    cos_phi = (r @ spec.axis) / safe
    out = spec.strength * (1.0 - 3.0 * cos_phi**2) / safe**3
    return np.where(inside & (rn > 0), out, 0.0)


def kernel_fourier_analytic(q, spec: KernelSpec) -> np.ndarray:
    """Full-space Fourier transform of the kernel at wavevector(s) q.

    Returns (4 pi / 3) * strength * (3 cos^2 beta - 1); the q = 0 value is 0
    by the zero-angular-average convention.
    """
    q = check_vector(q, "q")
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

    coeffs is the real half spectrum, shape (nx, ny, nz // 2 + 1) in rfftn
    ordering: the truncated kernel is even, so the index (-i, -j, -k) mod n
    holds what (i, j, k) holds. It carries the physical normalization:
    irfftn(rfftn(rho) * coeffs) approximates the continuum integral of eps
    against rho. method is one of the two constructions, and spec carries
    the truncation radius the table was built with, never None, so that a
    kernel table file holds the table whole.
    """

    grid: GridSpec
    spec: KernelSpec
    coeffs: np.ndarray
    method: str

    def __post_init__(self):
        nx, ny, nz = self.grid.dims
        object.__setattr__(self, "coeffs", check_shape(self.coeffs, (nx, ny, nz // 2 + 1), "coeffs"))
        _check_method(self.method)
        if self.spec.sphere_radius is None:
            raise ParameterDomainError("sphere_radius must be set in a table's spec, got None")


def _check_method(method) -> None:
    if method not in ("lattice", "analytic"):
        raise ParameterDomainError(f"unknown table method '{method}' (use 'lattice' or 'analytic')")


def _resolve_sphere_radius(grid: GridSpec, spec: KernelSpec) -> float:
    if spec.sphere_radius is not None:
        return spec.sphere_radius
    return 0.5 * min(grid.box_lengths)


def kernel_table_fourier(
    grid: GridSpec, spec: KernelSpec, method: str = "lattice", workers: int = 1
) -> FourierTable:
    """Tabulate the truncated kernel's Fourier coefficients on the grid.

    method="lattice" (default) takes the DFT of the minimum-image real-space
    samples inside the truncation sphere, so FFT convolution matches the
    direct lattice sum to roundoff. method="analytic" samples the truncated
    continuum transform instead. See the module docstring for the trade-off.
    workers is the FFT worker count of the lattice transform, an integer >= 1.
    """
    workers = check_count(workers, "worker count")
    _check_method(method)
    r_c = _resolve_sphere_radius(grid, spec)
    ax, ay, az = spec.orientation
    if method == "lattice":
        # |r| and r . axis from open per-axis meshes: one full-grid array each
        x, y, z = np.meshgrid(*grid.displacements(), indexing="ij", sparse=True)
        rn = np.sqrt(x**2 + y**2 + z**2)
        # evaluate on the punctured lattice; the origin cell never contributes
        outside = (rn == 0) | (rn > r_c)
        if spec.cutoff_radius > 0:
            outside |= rn < spec.cutoff_radius
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
        # the kernel is real and even, so its spectrum is real
        coeffs = _fft.rfftn(vals, workers).real * grid.cell_volume
    else:
        qx, qy, qz = grid.wavenumbers()
        qx, qy, qz = np.meshgrid(qx, qy, qz[: grid.dims[2] // 2 + 1], indexing="ij", sparse=True)
        qn = np.sqrt(qx**2 + qy**2 + qz**2)
        envelope = _truncated_radial_factor(qn * r_c)
        if spec.cutoff_radius > 0:
            envelope = envelope - _truncated_radial_factor(qn * spec.cutoff_radius)
        samples = []
        for _ in range(2):
            cos_beta = (qx * ax + qy * ay + qz * az) / np.where(qn > 0, qn, 1.0)
            samples.append(FULL_SPACE_PREFACTOR * spec.strength * (3.0 * cos_beta**2 - 1.0) * envelope)
            # the second sample takes +q_N on each Nyquist plane, the mode fftfreq calls -q_N
            for q, n in zip((qx, qy, qz), grid.dims):
                q.flat[n // 2] *= -1.0
        coeffs = 0.5 * (samples[0] + samples[1])
    coeffs[0, 0, 0] = 0.0
    return FourierTable(grid=grid, spec=replace(spec, sphere_radius=r_c), coeffs=coeffs, method=method)


def convolve_density(table: FourierTable, rho: np.ndarray, workers: int = 1, *,
                     buffer: np.ndarray | None = None,
                     scratch: np.ndarray | None = None,
                     peaks: np.ndarray | None = None,
                     mode: tuple[tuple[int, int, int], np.ndarray] | None = None) -> np.ndarray:
    """Convolve a real density with the kernel through the Fourier table.

    Returns the frequency-shift field sum_r' eps(r - r') rho(r') dV,
    irfftn(rfftn(rho) * coeffs), as the padded real view
    buffer.view(float)[:, :, :nz] of a complex buffer of the table's shape
    (a new one if None). The transforms and the product run in place in the
    buffer, and rho may be that view itself. The transforms along x and the
    product are one sweep of axis-1 slabs through scratch (from
    _fft.new_scratch; a new one if None), on workers threads, an integer >= 1.
    peaks, if given, a float array of one entry per x plane, receives the
    largest |convolution| of each plane from the complex-to-real pass, so
    that a guard on the potential needs no pass of its own; a plane with a
    NaN gets NaN.
    mode, if given, a pair (idx, out) of a lattice index 0 <= idx < dims
    and a complex array of one entry, receives fftn(rho)[idx] in out, read
    off the spectrum the sweep holds between the forward x transform and
    the product, so that a density mode costs no pass of its own. Above
    the half spectrum, idx[2] > nz // 2, it is the conjugate of the entry
    at -idx. The product cannot stand in for it: the table vanishes on
    some q, the magic-angle cone among them.
    """
    workers = check_count(workers, "worker count")
    rho = check_shape(rho, table.grid.shape, "rho")
    if buffer is None:
        buffer = np.empty(table.coeffs.shape, dtype=complex)
    check_shape(buffer, table.coeffs.shape, "buffer")
    if peaks is not None:
        check_shape(peaks, rho.shape[:1], "peaks")
    if mode is not None:
        idx, out = mode
        if len(idx) != 3 or not all(0 <= i < n for i, n in zip(idx, rho.shape)):
            raise ParameterDomainError(f"mode index {idx} is not in [0, {rho.shape})")
        if check_shape(out, (1,), "mode output").dtype != complex:
            raise ParameterDomainError(f"mode output must be complex, got {out.dtype}")
        mirrored = idx[2] > rho.shape[2] // 2
        if mirrored:  # rho is real, so fftn(rho)[idx] = conj(fftn(rho)[-idx])
            idx = tuple((-i) % n for i, n in zip(idx, rho.shape))
    _fft.rfft_planes(rho, buffer, workers)

    # a non-finite density gives inf * 0 at the table's zeros; the NaNs that
    # follow are the caller's to report, and the sweep keeps numpy quiet
    def product(block: np.ndarray, s: slice) -> None:
        np.fft.fft(block, axis=0, out=block)
        if mode is not None and s.start <= idx[1] < s.stop:
            entry = block[idx[0], idx[1] - s.start, idx[2]]
            out[0] = entry.conjugate() if mirrored else entry
        block *= table.coeffs[:, s]
        np.fft.ifft(block, axis=0, out=block)
        buffer[:, s] = block

    _fft.x_lines(buffer, product, workers, scratch)
    nz = rho.shape[-1]
    return _fft.irfft_planes(buffer, nz, buffer.view(float)[:, :, :nz], workers, peaks)


def direct_convolution_reference(grid: GridSpec, spec: KernelSpec, rho: np.ndarray) -> np.ndarray:
    """Brute-force periodic convolution by summation over the truncation sphere.

    O(N^2) reference used by the self-test and the acceptance suite; it shares
    no code path with the FFT route. Shifts the density by every minimum-image
    displacement inside the sphere and accumulates kernel weight times shifted
    density times cell volume.
    """
    rho = check_shape(rho, grid.shape, "rho")
    r_c = _resolve_sphere_radius(grid, spec)
    d = np.stack(np.meshgrid(*grid.displacements(), indexing="ij"), axis=-1).reshape(-1, 3)
    rn = np.linalg.norm(d, axis=-1)
    inside = (rn > 0.0) & (rn <= r_c) & (rn >= spec.cutoff_radius)
    weights = kernel_value(d[inside], KernelSpec(spec.orientation, spec.strength, 0.0))
    shifts = np.argwhere(inside.reshape(grid.shape))
    out = np.zeros(grid.shape)
    weight_sum = 0.0
    for shift, w in zip(shifts.tolist(), weights.tolist()):
        if w == 0.0:
            continue
        weight_sum += w
        out += w * np.roll(rho, shift=shift, axis=(0, 1, 2))
    # the uniform response is zero by convention (the continuum angular
    # average vanishes); subtract the lattice sum's DC artifact, which is
    # zero anyway on cubic lattices by symmetry
    out -= weight_sum * float(np.mean(rho))
    return out * grid.cell_volume
