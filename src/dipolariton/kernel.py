"""Anisotropic dipole-dipole interaction kernel and its Fourier tables.

The interaction between two excited dipoles aligned along a common axis is

    eps(r) = strength * (1 - 3 cos^2 phi) / |r|^3

with phi the angle between the separation r and the dipole axis. The kernel
value is a frequency shift; multiplying a convolved density by hbar gives the
mean-field potential. Its full-space Fourier transform is the bounded
anisotropic function (4 pi / 3) * strength * (3 cos^2 beta - 1), with beta the
angle between the wavevector and the dipole axis. Each formula is written once,
in a sampler of broadcastable components that every caller goes through:
_samples for eps, _fourier_samples for its transform. The lattice table and
direct_convolution_reference take eps from one lattice sampler at one
resolved radius, so the reference's weights are the table's own samples.

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
    "FULL_SPACE_PREFACTOR",
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
                   shortest box edge at table-build time [m]; a cutoff at or
                   beyond it, which leaves no interaction, is refused
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
            if cutoff >= radius:
                raise ParameterDomainError(f"cutoff_radius {cutoff} is at or beyond the truncation radius "
                                           f"{radius}: the table would hold no interaction")
            object.__setattr__(self, "sphere_radius", radius)


def _samples(x, y, z, spec: KernelSpec, radius: float) -> np.ndarray:
    """strength (1 - 3 cos^2 phi) / r^3 at broadcast (x, y, z); 0 at 0, below cutoff, beyond radius."""
    ax, ay, az = spec.orientation
    rn = np.asarray(np.sqrt(x**2 + y**2 + z**2))  # an array, also for a single point
    outside = (rn == 0) | (rn > radius) | (rn < spec.cutoff_radius)
    vals = np.asarray(x * ax + y * ay + z * az)
    rn[outside] = 1.0
    vals /= rn  # cos phi
    np.square(vals, out=vals)
    vals *= 3.0
    np.subtract(1.0, vals, out=vals)
    vals *= spec.strength
    rn **= 3
    vals /= rn
    vals[outside] = 0.0
    return vals


def _fourier_samples(qx, qy, qz, spec: KernelSpec, qn: np.ndarray | None = None) -> np.ndarray:
    """(4 pi / 3) strength (3 cos^2 beta - 1) at broadcast q = (qx, qy, qz); 0 at q = 0.

    qn, if given, is |q| at those points, an array that the call overwrites.
    """
    ax, ay, az = spec.orientation
    qn = np.asarray(np.sqrt(qx**2 + qy**2 + qz**2)) if qn is None else qn
    origin = qn == 0
    qn[origin] = 1.0
    cos_beta = (qx * ax + qy * ay + qz * az) / qn
    vals = np.asarray(FULL_SPACE_PREFACTOR * spec.strength * (3.0 * cos_beta**2 - 1.0))
    vals[origin] = 0.0
    return vals


def kernel_value(r, spec: KernelSpec) -> np.ndarray:
    """Evaluate the kernel at displacement(s) r, shape (..., 3).

    Points with |r| < cutoff_radius return 0. With a zero cutoff the origin is
    a genuine singularity and raises.
    """
    r = check_vector(r, "r")
    if spec.cutoff_radius == 0.0 and np.any(np.linalg.norm(r, axis=-1) == 0.0):
        raise ParameterDomainError("kernel diverges at r = 0; set a positive cutoff_radius")
    return _samples(r[..., 0], r[..., 1], r[..., 2], spec, np.inf)


def kernel_fourier_analytic(q, spec: KernelSpec) -> np.ndarray:
    """Full-space Fourier transform of the kernel at wavevector(s) q.

    Returns (4 pi / 3) * strength * (3 cos^2 beta - 1); the q = 0 value is 0
    by the zero-angular-average convention.
    """
    q = check_vector(q, "q")
    return _fourier_samples(q[..., 0], q[..., 1], q[..., 2], spec)


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

    coeffs is the real half spectrum, shape (nx, ny, nz // 2 + 1) in rfftn ordering:
    the truncated kernel is even, so the index (-i, -j, -k) mod n holds what (i, j, k)
    holds. It carries the physical normalization: irfftn(rfftn(rho) * coeffs)
    approximates the continuum integral of eps against rho. method is one of the two
    constructions, and spec carries the truncation radius the table was built with,
    never None, so that a kernel table file holds the table whole; for the same
    reason coeffs of complex dtype are refused.
    """

    grid: GridSpec
    spec: KernelSpec
    coeffs: np.ndarray
    method: str

    def __post_init__(self):
        nx, ny, nz = self.grid.dims
        object.__setattr__(self, "coeffs", check_shape(self.coeffs, (nx, ny, nz // 2 + 1), "coeffs"))
        if self.coeffs.dtype.kind not in "iuf":
            raise ParameterDomainError(f"coeffs must be real, got dtype {self.coeffs.dtype}")
        _check_method(self.method)
        if self.spec.sphere_radius is None:
            raise ParameterDomainError("sphere_radius must be set in a table's spec, got None")


def _check_method(method) -> None:
    if method not in ("lattice", "analytic"):
        raise ParameterDomainError(f"unknown table method '{method}' (use 'lattice' or 'analytic')")


def _resolved(grid: GridSpec, spec: KernelSpec) -> KernelSpec:
    """spec with its truncation radius, half the shortest box edge if None; a
    cutoff at or beyond that radius is refused by KernelSpec itself."""
    radius = spec.sphere_radius if spec.sphere_radius is not None else 0.5 * min(grid.box_lengths)
    return replace(spec, sphere_radius=radius)


def _lattice_samples(grid: GridSpec, spec: KernelSpec) -> np.ndarray:
    """The truncated kernel at every minimum-image displacement, on the grid's
    shape in FFT ordering, for a spec with its radius resolved. A nonzero
    strength whose every sample is zero is refused, since then no displacement
    lies between the two radii."""
    vals = _samples(*np.meshgrid(*grid.displacements(), indexing="ij", sparse=True), spec,
                    spec.sphere_radius)
    if spec.strength != 0.0 and not vals.any():
        raise ParameterDomainError(f"no lattice displacement lies between cutoff_radius {spec.cutoff_radius} "
                                   f"and the truncation radius {spec.sphere_radius}: the table would "
                                   "hold no interaction")
    return vals


def kernel_table_fourier(
    grid: GridSpec, spec: KernelSpec, method: str = "lattice", workers: int = 1
) -> FourierTable:
    """Tabulate the truncated kernel's Fourier coefficients on the grid.

    method="lattice" (default) takes the DFT of the minimum-image real-space
    samples inside the truncation sphere, so FFT convolution matches the
    direct lattice sum to roundoff. method="analytic" samples the truncated
    continuum transform instead. See the module docstring for the trade-off.
    workers is the FFT worker count of the lattice transform, an integer >= 1.
    A cutoff radius at or beyond the truncation radius is refused with
    ParameterDomainError before anything is sampled; so is a lattice table
    with no displacement between the two radii, once sampled.
    """
    workers = check_count(workers, "worker count")
    _check_method(method)
    spec = _resolved(grid, spec)
    if method == "lattice":
        # the kernel is real and even, so its spectrum is real
        coeffs = _fft.rfftn(_lattice_samples(grid, spec), workers).real * grid.cell_volume
    else:
        qx, qy, qz = grid.wavenumbers()
        qx, qy, qz = np.meshgrid(qx, qy, qz[: grid.dims[2] // 2 + 1], indexing="ij", sparse=True)
        qn = np.sqrt(qx**2 + qy**2 + qz**2)
        envelope = _truncated_radial_factor(qn * spec.sphere_radius)
        if spec.cutoff_radius > 0:
            envelope = envelope - _truncated_radial_factor(qn * spec.cutoff_radius)
        coeffs = _fourier_samples(qx, qy, qz, spec, qn) * envelope
        # a Nyquist plane's mode is -q_N, as fftfreq has it, and +q_N: there the
        # table takes the mean of both samples, and off the planes they are one
        q = [qx, qy, qz]
        for f, n in zip(q, grid.dims):
            f.flat[n // 2] *= -1.0
        means = []
        for axis, n in enumerate(grid.dims):
            plane = (slice(None),) * axis + (slice(n // 2, n // 2 + 1),)
            at = [f[plane] if i == axis else f for i, f in enumerate(q)]
            means.append((plane, 0.5 * (coeffs[plane] + _fourier_samples(*at, spec) * envelope[plane])))
        for plane, mean in means:  # after all three, so each averages the first sample
            coeffs[plane] = mean
    coeffs[0, 0, 0] = 0.0
    return FourierTable(grid=grid, spec=spec, coeffs=coeffs, method=method)


def _half_spectrum_index(idx: tuple[int, int, int], dims: tuple[int, int, int]
                         ) -> tuple[tuple[int, int, int], bool]:
    """The index of lattice index idx in the half spectrum and whether it is mirrored.

    An idx above the half spectrum, idx[2] > nz // 2, is replaced by -idx
    modulo dims: T(-q) = T(q) for an even table, and the entry of a real
    field's spectrum there is the conjugate of the one at idx.
    """
    mirrored = idx[2] > dims[2] // 2
    return (tuple((-i) % n for i, n in zip(idx, dims)) if mirrored else idx), mirrored


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
        # rho is real, so fftn(rho)[idx] = conj(fftn(rho)[-idx])
        idx, mirrored = _half_spectrum_index(idx, rho.shape)
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

    O(N^2) reference used by the self-test and the acceptance suite. Its
    weights are the lattice table's own samples, from the same sampler and
    the same radius, refused where the table is; it shifts the density by
    every displacement of nonzero weight, in C order, and sums weight times
    shifted density times cell volume.
    """
    rho = check_shape(rho, grid.shape, "rho")
    vals = _lattice_samples(grid, _resolved(grid, spec))
    shifts = np.nonzero(vals)
    out = np.zeros(grid.shape)
    weight_sum = 0.0
    for shift, w in zip(np.transpose(shifts).tolist(), vals[shifts].tolist()):
        weight_sum += w
        out += w * np.roll(rho, shift=shift, axis=(0, 1, 2))
    # the uniform response is zero by convention (the continuum angular
    # average vanishes); subtract the lattice sum's DC artifact, which is
    # zero anyway on cubic lattices by symmetry
    out -= weight_sum * float(np.mean(rho))
    return out * grid.cell_volume
