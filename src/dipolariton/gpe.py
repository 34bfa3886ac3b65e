"""Split-step Fourier solver for the dipolar polariton mean field.

The condensate field obeys

    i hbar d(phi)/dt = [ -hbar^2/(2 m_perp) lap_perp - hbar^2/(2 m_par) d^2/dz^2
                         + hbar sin^2(theta) (eps conv |phi|^2) ] phi

with the anisotropic dipolar kernel eps applied by FFT convolution through a
FourierTable. There is no contact term. One step is Strang-split:

    half potential phase -> exact kinetic propagator in Fourier space -> half
    potential phase

which is second-order accurate (one-step error O(dt^3)), exactly norm
preserving for real masses, and exactly time reversible because the potential
phase leaves the density unchanged. A complex longitudinal mass with
Im(1/m_par) < 0 makes the kinetic propagator contractive, modeling the
absorptive part of the medium.

SplitStep is the propagator, built once per (params, dt, workers). It holds
the kinetic phase, the kernel factor that turns the convolved density into
the half-step potential angle, and the FFT worker count. It works in two
grids: the field a run steps and one convolution buffer, the complex half
spectrum (nx, ny, nz // 2 + 1) of kernel.convolve_density, allocated when
the propagator is built, together with one chunk scratch per worker that
every sweep shares. |phi|^2 goes into the padded real view of the
convolution buffer, and the real-to-complex transform, the product with
the kernel table and the complex-to-real transform all run in place there,
so the view ends up holding eps conv |phi|^2, unscaled; the
complex-to-real pass also leaves the largest |eps conv |phi|^2| of each x
plane, which the step-size guard reads. SplitStep.run steps its field in
place, and the returned final state takes it over; its docstring states
when that field is the caller's own array (consume). The CLI, the
self-test and linear_response_experiment build their start states for the
run alone and hand them over; init_state writes each in the one field it
returns. Because the potential phase leaves |phi|^2 unchanged, the
convolution at the end of one step is the one the next step opens with: n
steps cost n + 1 density convolutions instead of 2n, and when the run
records nothing between two steps, the closing half of the first and the
opening half of the second are one rotation by twice the angle.

A step is a few sweeps (dipolariton._fft), each of which reads a chunk of
about 1 MiB once and does all its work on it while it is in cache:

    A  per chunk of axis-0 planes: the rotation by the kept angle (once or
       twice), then fftn over axes (1, 2)
    B  per chunk of axis-1 slabs, copied into the scratch: fft over axis 0,
       the kinetic phase, ifft over axis 0, and the copy back
    C  per chunk of axis-0 planes: ifftn over axes (1, 2), then |phi|^2 into
       the convolution buffer's padded real view
    D  kernel.convolve_density, whose x pass is one sweep of axis-1 slabs
       with the product with the table inside

The kinetic propagator is a product of per-axis factors, so its forward
and inverse transforms along axis 0 are one pass (Bao, Jaksch & Markowich,
J. Comput. Phys. 187, 318 (2003)). The chunks of a sweep split over the
propagator's worker threads, elementwise work included, and do not depend
on their number, so results are bit-identical for every worker count.

SplitStep.run returns what it observed: the final state, and with a stride
every the Observables of the start state, of every every-th step and of
the last, each taken while the convolution buffer holds that field's
convolution, so n steps with any number of records cost n + 1
convolutions. observables(state) reads that convolution off the private
state type run hands it; for any other state it convolves in a buffer of
its own, on one FFT worker. It reduces |phi|^2 and the (y, z)
transform of each chunk of axis-0 planes to per-plane rows in one sweep,
and the x transform in one sweep of axis-1 slabs, so the energies, centre
of mass and variances follow without full-grid meshes, a full-grid density
or a full-grid spectrum.

run checks each convolution once, before it records anything: a non-finite
potential raises NonFiniteStateError and a phase per half step past
MAX_POTENTIAL_PHASE = pi/4 StepSizeError, naming step i and its time
state.t + i dt.

linear_response_experiment seeds a weak density wave on the uniform state,
tracks its Fourier amplitude and reads nu off it in closed form (Prony's
method). The amplitude comes off the run's own convolutions: the forward
transform of each holds the spectrum of |phi|^2, and run, given q's
lattice index as its mode, reads the entry there off each
(kernel.convolve_density's mode) and returns the n + 1 amplitudes, so the
run records no Observables and its half-steps fuse. The stepped linear
mode obeys s[n+1] + s[n-1] = 2 c s[n], with c = cos(nu dt) for an
oscillation and cosh(g dt) for growth, so one linear fit serves both laws
without a model, initial guess or iteration. The prediction it is
compared against calibrates the dipolar coupling from the same Fourier
table the stepping uses, closing the loop with the bogoliubov module.
When physical (infinite box) numbers are wanted instead, the box edge
should exceed roughly four times the longest instability wavelength
probed, so the truncated kernel has converged at the probe wavevector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import _fft, bogoliubov
from .eit import HBAR
from .errors import (
    FitFailureError,
    NonFiniteStateError,
    OffLatticeError,
    ParameterDomainError,
    StepSizeError,
    check_count,
    check_positive,
    check_real,
    check_shape,
    check_vector,
)
from .grid import GridSpec
from .kernel import FourierTable, _half_spectrum_index, convolve_density

__all__ = [
    "GpeParams",
    "CondensateState",
    "Observables",
    "EvolveResult",
    "ResponseResult",
    "SplitStep",
    "init_state",
    "evolve",
    "observables",
    "effective_dipolar_coupling",
    "predicted_mode_frequency",
    "linear_response_experiment",
]

# largest potential phase per half step a step may take [rad]
MAX_POTENTIAL_PHASE = math.pi / 4.0


@dataclass(frozen=True)
class GpeParams:
    """Masses, mixing angle and kernel table of the mean-field problem.

    m_perp  transverse mass, > 0
    m_par   longitudinal mass; complex allowed, Im(1/m_par) <= 0 for decay
    sin2_theta  sin^2 of the mixing angle, in [0, 1]
    table   kernel Fourier table; carries the grid
    hbar    Planck constant of the unit system in use

    Steps are guarded by the module constant MAX_POTENTIAL_PHASE.
    """

    m_perp: float
    m_par: complex
    sin2_theta: float
    table: FourierTable
    hbar: float = HBAR

    def __post_init__(self):
        bogoliubov._check_masses(self)
        sin2 = check_real(self.sin2_theta, "sin2_theta")
        if not 0.0 <= sin2 <= 1.0:
            raise ParameterDomainError(f"sin2_theta must lie in [0, 1], got {sin2}")
        object.__setattr__(self, "sin2_theta", sin2)

    @property
    def grid(self) -> GridSpec:
        return self.table.grid


@dataclass(frozen=True)
class CondensateState:
    """Complex field phi on the params' grid at time t."""

    phi: np.ndarray
    t: float
    params: GpeParams

    def __post_init__(self):
        object.__setattr__(self, "phi", check_shape(self.phi, self.params.grid.shape, "phi", complex))
        object.__setattr__(self, "t", check_real(self.t, "t"))


@dataclass(frozen=True)
class _Observed(CondensateState):
    """A state SplitStep.run records, with eps conv |phi|^2 of phi and the run's scratch and workers."""

    conv: np.ndarray
    scratch: np.ndarray
    workers: int


def _plain(q) -> str:
    """The components of q as plain numbers, for a message."""
    return ", ".join(f"{v:.6g}" for v in q)


def _density(phi: np.ndarray, rho: np.ndarray, workers: int) -> None:
    """|phi|^2 into rho, one chunk of axis-0 planes at a time."""
    def square(w: int, s: slice) -> None:
        np.square(np.abs(phi[s], out=rho[s]), out=rho[s])

    _fft.sweep(square, phi.shape[0], phi[0].nbytes, workers)


def _lattice_index(q, grid: GridSpec) -> tuple[tuple[int, int, int], np.ndarray]:
    """Indices of a reciprocal-lattice vector and q as a float vector; OffLatticeError if q is
    off the lattice by 1e-9 relative."""
    qv = check_vector(q, "q", single=True)
    idx = []
    for comp, n, length in zip(qv, grid.dims, grid.box_lengths):
        steps = comp * length / (2.0 * math.pi)
        nearest = round(steps)
        scale = max(abs(steps), 1.0)
        if abs(steps - nearest) > 1e-9 * scale:
            raise OffLatticeError(
                f"q = ({_plain(qv)}) is off the reciprocal lattice (component {comp} is "
                f"{steps} lattice steps)"
            )
        idx.append(int(nearest) % n)
    return tuple(idx), qv


def init_state(
    kind: str,
    params: GpeParams,
    *,
    n0: float | None = None,
    widths=None,
    delta: float | None = None,
    q=None,
) -> CondensateState:
    """Prepare a condensate state at t = 0.

    kind="uniform":  phi = sqrt(n0) everywhere.
    kind="gaussian": density Gaussian, per-axis standard deviations `widths`,
                     centered in the box; unit norm, or lifted to peak near
                     n0 if given (scaled by sqrt(n0 (2 pi)^(3/2) wx wy wz)).
    kind="perturbed_plane_wave": phi = sqrt(n0) (1 + delta cos(q . r)) with
                     delta <= 1e-3 and q on the reciprocal lattice.
    Each is written into the one field returned, from per-axis factors.
    """
    grid = params.grid
    if kind not in ("uniform", "gaussian", "perturbed_plane_wave"):
        raise ParameterDomainError(f"unknown state kind '{kind}'")
    if n0 is not None or kind != "gaussian":
        n0 = check_positive(n0, "n0")
    if kind == "uniform":
        phi = np.full(grid.shape, math.sqrt(n0), dtype=complex)
        return CondensateState(phi, 0.0, params)
    if kind == "gaussian":
        w = check_vector(widths, "widths", single=True)
        if np.any(w <= 0):
            raise ParameterDomainError(f"widths must be positive, got {widths}")
        # one factor per axis; widths are density standard deviations,
        # |phi|^2 ~ exp(-x^2 / (2 w^2)), and the norm is the product of per-axis sums
        fx, fy, fz = (np.exp(-((c - 0.5 * length) ** 2) / (4.0 * wi**2))
                      for c, length, wi in zip(grid.axes(), grid.box_lengths, w))
        norm = float(np.sum(fx**2)) * float(np.sum(fy**2)) * float(np.sum(fz**2)) * grid.cell_volume
        lift = 1.0 / math.sqrt(norm)
        if n0 is not None:
            peak = 1.0 / ((2.0 * math.pi) ** 1.5 * w[0] * w[1] * w[2])
            lift *= math.sqrt(n0 / peak)
        phi = np.zeros(grid.shape, dtype=complex)
        np.multiply(np.multiply.outer(fx * lift, fy)[:, :, None], fz, out=phi.real)
        return CondensateState(phi, 0.0, params)
    delta = check_real(delta, "delta")
    if not 0.0 < delta <= 1e-3:
        raise ParameterDomainError(f"delta must lie in (0, 1e-3], got {delta}")
    qv = _lattice_index(q, grid)[1]
    # e^{i q.r} as the product of one exponential per axis, written into phi
    ex, ey, ez = (np.exp(1j * qi * c) for qi, c in zip(qv, grid.axes()))
    phi = np.empty(grid.shape, dtype=complex)
    np.multiply(np.multiply.outer(ex, ey)[:, :, None], ez, out=phi)
    re = phi.real  # cos(q.r), made sqrt(n0) (1 + delta cos(q.r)) in place
    re *= delta
    re += 1.0
    re *= math.sqrt(n0)
    phi.imag = 0.0
    return CondensateState(phi, 0.0, params)


def _kinetic_factors(params: GpeParams, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """exp(-i dt omega(q)) as a transverse (nx, ny, 1) and a longitudinal (nz,) factor.

    omega is a sum of one term per axis, so the kinetic phase is the product
    of per-axis phases and never needs a full-grid array.
    """
    qx, qy, qz = params.grid.wavenumbers()
    rate = -1j * dt * params.hbar
    fx = np.exp(rate * qx**2 / (2.0 * params.m_perp))
    fy = np.exp(rate * qy**2 / (2.0 * params.m_perp))
    fz = np.exp(rate * qz**2 / (2.0 * params.m_par))
    return np.multiply.outer(fx, fy)[:, :, None], fz


def _kinetic_phase(params: GpeParams, dt: float) -> float:
    """Largest kinetic phase |dt| omega(q) of one step on the grid [rad], reached at
    the Nyquist wavenumbers pi / spacing (an upper bound if Re(1/m_par) < 0)."""
    dx, dy, dz = params.grid.spacings
    return abs(dt) * 0.5 * params.hbar * (
        (math.pi / dx) ** 2 / params.m_perp
        + (math.pi / dy) ** 2 / params.m_perp
        + (math.pi / dz) ** 2 * abs((1.0 / params.m_par).real)
    )


class SplitStep:
    """Strang propagator for one (params, dt, workers).

    Holds the kinetic phase (as per-axis factors), the kernel factor
    -dt sin^2(theta) / 2 that turns eps conv |phi|^2 into the half-step
    angle, and the FFT worker count, an integer >= 1. It owns a
    convolution buffer, the half spectrum of the kernel table's shape, and
    one chunk scratch per worker that every sweep shares, both allocated
    when it is built. _conv is the padded real view of the convolution
    buffer and _peaks holds one entry per x plane; after each convolution
    of a run _conv holds eps conv |phi|^2 of the run's field and _peaks its
    largest |value| in each plane. run steps the field in place and fuses
    the closing half-step of one step with the opening half-step of the
    next into one rotation by twice the angle, except where it records
    Observables or ends: n steps take n + 1 rotation sweeps unrecorded, and
    2n recorded every step. Negative dt steps backwards and exactly inverts
    the corresponding forward step.
    """

    def __init__(self, params: GpeParams, dt: float, workers: int = 1):
        dt = check_real(dt, "dt")
        if dt == 0:
            raise ParameterDomainError(f"dt must be nonzero, got {dt}")
        self.workers = check_count(workers, "worker count")
        self.params = params
        self.dt = dt
        self._kinetic = _kinetic_factors(params, dt)
        self._kernel_factor = -0.5 * dt * params.sin2_theta
        self._buf = np.empty(params.table.coeffs.shape, dtype=complex)
        self._conv = self._buf.view(float)[:, :, : params.grid.dims[2]]
        self._peaks = np.empty(params.grid.dims[0])
        self._scratch = _fft.new_scratch(params.grid.shape, self.workers)

    def _rotate(self, phi: np.ndarray, w: int, s: slice, turns: float) -> None:
        """Multiply the planes s of phi by exp(i turns angle), in scratch row w.

        cos a = 2 / (1 + t^2) - 1 and sin a = 2 t / (1 + t^2) with t = tan(a / 2):
        numpy 2.4 on x86-64 vectorises tan of a contiguous array but not sin
        or cos, and a 128^3 factor took 16 against 34 ms. Both agree with cos
        and sin to 3.3e-16. Each half of the planes' y rows takes the row's
        first half for its factor and its second half for t and 2 / (1 + t^2).
        """
        row, ny = self._scratch[w], phi.shape[1]
        for y in (slice(0, ny // 2), slice(ny // 2, ny)):
            part = phi[s, y]
            f = row[: part.size].reshape(part.shape)
            t, r = row[part.size : 2 * part.size].view(float).reshape(2, *part.shape)
            # turns is 1 or 2, and scaling by a power of two commutes with
            # rounding, so a fused rotation has the bits of twice the angle
            np.tan(np.multiply(self._conv[s, y], 0.5 * turns * self._kernel_factor, out=t), out=t)
            np.divide(2.0, np.add(np.square(t, out=r), 1.0, out=r), out=r)
            np.multiply(t, r, out=f.imag)
            np.subtract(r, 1.0, out=f.real)
            part *= f

    def _advance(self, phi: np.ndarray, turns: float) -> None:
        """Rotate phi by turns times the kept angle, take the exact kinetic step, write the new density.

        Three sweeps of the field: per chunk of axis-0 planes the rotation
        and fftn over axes (1, 2); per chunk of axis-1 slabs fft over axis
        0, the kinetic factor and ifft over axis 0; per chunk of axis-0
        planes ifftn over axes (1, 2) and |phi|^2 into _conv, the
        convolution buffer's padded real view.
        """
        workers, rho = self.workers, self._conv
        kin_perp, kin_z = self._kinetic

        def forward(w: int, s: slice) -> None:
            self._rotate(phi, w, s, turns)
            np.fft.fftn(phi[s], axes=(1, 2), out=phi[s])

        def kinetic(block: np.ndarray, s: slice) -> None:
            np.fft.fft(block, axis=0, out=block)
            block *= kin_perp[:, s]
            block *= kin_z
            np.fft.ifft(block, axis=0, out=block)
            phi[:, s] = block

        def inverse(w: int, s: slice) -> None:
            # ifftn with axes, since ifft2 ignores out= here (numpy 2.4)
            np.fft.ifftn(phi[s], axes=(1, 2), out=phi[s])
            np.square(np.abs(phi[s], out=rho[s]), out=rho[s])

        _fft.sweep(forward, phi.shape[0], phi[0].nbytes, workers)
        _fft.x_lines(phi, kinetic, workers, self._scratch)
        _fft.sweep(inverse, phi.shape[0], phi[0].nbytes, workers)

    def _check(self, i: int, t0: float) -> None:
        """Refuse the convolution after step i of a run from t0 (i = 0: the start state).

        The largest |angle| is |kernel factor| max|eps conv rho|, NaN or inf
        when rho is not finite, since one bad sample spreads to every
        convolved one; numpy's max of _peaks keeps a NaN, where Python's max
        would drop it.
        """
        phase = abs(self._kernel_factor) * float(self._peaks.max())
        if not math.isfinite(phase):
            raise NonFiniteStateError(f"non-finite field at step {i} (t = {t0 + i * self.dt:.6e}): "
                                      f"its potential phase per half step is {phase}")
        if phase > MAX_POTENTIAL_PHASE:
            j = max(i, 1)
            raise StepSizeError(f"step {j} (t = {t0 + (j - 1) * self.dt:.6e} -> {t0 + j * self.dt:.6e}): "
                                f"potential phase per half step {phase:.3f} rad exceeds "
                                f"the accuracy guard {MAX_POTENTIAL_PHASE:.3f} rad; reduce dt")

    def run(self, state: CondensateState, n_steps: int, every: int | None = None, *,
            mode: tuple[int, int, int] | None = None, consume: bool = False) -> EvolveResult:
        """Take n_steps from state; returns the final state, the Observables recorded
        and the density mode read.

        The stepping loop of the module: pass i = 0 ... n_steps convolves (the
        start state, then the field after step i) and checks the convolution
        (_check). With a stride every, an integer >= 1, it records
        observables of the field at state.t + i dt at step 0, every every-th
        step and the last, from the convolution it holds; without one it
        records none. With mode, a lattice index 0 <= idx < dims, convolution
        i reads fftn(|phi|^2)[idx] off its forward transform
        (kernel.convolve_density's mode), and the n_steps + 1 amplitudes are
        the result's modes; without one, modes is None.

        The field stepped is a copy of state.phi, and state is left as it
        was. With consume=True a state.phi that is C-contiguous and
        writable is that field itself, which saves a field-sized copy: it
        ends as the final field, or partly stepped if run raises. Any other
        state.phi is copied as without consume. The final state wraps the
        field.
        """
        n_steps = check_count(n_steps, "n_steps")
        every = None if every is None else check_count(every, "every")
        if state.params is not self.params:
            raise ParameterDomainError("state and propagator were built from different params")
        modes = None if mode is None else np.empty(n_steps + 1, dtype=complex)
        phi = state.phi
        if not (consume and phi.flags.c_contiguous and phi.flags.writeable):
            phi = phi.copy()
        records = []
        _density(phi, self._conv, self.workers)
        for i in range(n_steps + 1):
            if i > 0:
                self._advance(phi, turns)
            convolve_density(self.params.table, self._conv, self.workers, buffer=self._buf,
                             scratch=self._scratch, peaks=self._peaks,
                             mode=None if mode is None else (mode, modes[i : i + 1]))
            self._check(i, state.t)
            turns = 2.0
            if i == 0 or i == n_steps or (every is not None and i % every == 0):
                if i > 0:
                    # the closing half-step
                    _fft.sweep(lambda w, s: self._rotate(phi, w, s, 1.0), phi.shape[0], phi[0].nbytes,
                               self.workers)
                turns = 1.0
                if every is not None:
                    records.append(observables(_Observed(phi, state.t + i * self.dt, self.params,
                                                         self._conv, self._scratch, self.workers)))
        return EvolveResult(CondensateState(phi, state.t + n_steps * self.dt, self.params), tuple(records),
                            modes)


@dataclass(frozen=True)
class Observables:
    """Diagnostics of one state; energies split by origin."""

    t: float
    norm: float
    energy_total: float
    kinetic_perp: float
    kinetic_z: float
    dipolar: float
    peak_density: float
    center_of_mass: tuple[float, float, float]
    variance: tuple[float, float, float]


def observables(state: CondensateState) -> Observables:
    """Norm, energies, peak density, centre of mass and variances of state.

    The dipolar energy is hbar sin^2(theta) / 2 * sum(rho (eps conv rho)) dV,
    against the convolution SplitStep.run holds for a state it records;
    any other state is convolved in a buffer of its own on one FFT worker.
    One sweep of axis-0 planes writes rho = |phi|^2 into the thread's
    scratch row and reduces it to per-plane rows (the peak, the convolution
    sum and the y and z marginals), then transforms the planes over axes
    (1, 2) into the same row. The spectral weight summed over kx is nx
    times the squares of those transforms summed over x, and summed over
    (ky, kz) it is ny nz times the squares of the transforms over axis 0 of
    the axis-1 slabs, by Parseval. The rows are added in plane order, so the
    result is the same for every worker count. |.|^2 is read off (re, im)
    float pairs.
    """
    p = state.params
    grid = p.grid
    dv = grid.cell_volume
    phi = state.phi
    if isinstance(state, _Observed):
        conv, scratch, workers = state.conv, state.scratch, state.workers
    else:
        buf = np.empty(p.table.coeffs.shape, dtype=complex)
        conv, scratch, workers = buf.view(float)[:, :, : grid.dims[2]], _fft.new_scratch(phi.shape, 1), 1
        _density(phi, conv, workers)
        convolve_density(p.table, conv, buffer=buf, scratch=scratch)
    nx, ny, nz = phi.shape
    peaks, conv_sums = np.empty(nx), np.empty(nx)
    rho_y, rho_z = np.empty((nx, ny)), np.empty((nx, nz))
    w_y, w_z, w_x = np.empty((nx, ny)), np.empty((nx, 2 * nz)), np.empty((ny, nx))

    def planes(w: int, s: slice) -> None:
        row, shape = scratch[w, : phi[s].size], phi[s].shape
        rho = row.view(float)[: row.size].reshape(shape)
        np.square(np.abs(phi[s], out=rho), out=rho)
        # numpy reductions, since Python's max drops a NaN; einsum stays on
        # one thread, where a BLAS dot would start a second
        rho.max(axis=(1, 2), out=peaks[s])
        np.einsum("ijk,ijk->i", rho, conv[s], out=conv_sums[s])
        rho.sum(axis=2, out=rho_y[s])
        rho.sum(axis=1, out=rho_z[s])
        pairs = np.fft.fftn(phi[s], axes=(1, 2), out=row.reshape(shape)).view(float)
        w_y[s], w_z[s] = (np.einsum(f"ijk,ijk->i{a}", pairs, pairs) for a in "jk")

    def x(block: np.ndarray, s: slice) -> None:
        pairs = np.fft.fft(block, axis=0, out=block).view(float)
        w_x[s] = np.einsum("ijk,ijk->ji", pairs, pairs)

    _fft.sweep(planes, nx, phi[0].nbytes, workers)
    _fft.x_lines(phi, x, workers, scratch)
    e_dip = 0.5 * p.hbar * p.sin2_theta * float(conv_sums.sum()) * dv
    peak = float(peaks.max())
    rho_axes = (rho_y.sum(axis=1), rho_y.sum(axis=0), rho_z.sum(axis=0))
    norm = float(rho_axes[0].sum()) * dv

    weights = (ny * nz * w_x.sum(axis=0), nx * w_y.sum(axis=0),
               nx * w_z.sum(axis=0).reshape(-1, 2).sum(axis=1))
    # a non-finite field gives 0 * inf at q = 0; the NaNs are reported as they are
    with np.errstate(invalid="ignore"):
        sum_x, sum_y, sum_z = (float(np.sum(q**2 * w)) for q, w in zip(grid.wavenumbers(), weights))
    scale = p.hbar**2 * dv / phi.size
    kin_perp = scale / (2.0 * p.m_perp) * (sum_x + sum_y)
    # kinetic weight along z uses the real part of 1/m_par so it reduces to the
    # usual positive expression for real masses
    kin_z = scale * 0.5 * (1.0 / p.m_par).real * sum_z

    if norm > 0:
        com = tuple(
            float(np.sum(c * m)) * dv / norm for c, m in zip(grid.axes(), rho_axes)
        )
        var = tuple(
            float(np.sum((c - mu) ** 2 * m)) * dv / norm
            for c, m, mu in zip(grid.axes(), rho_axes, com)
        )
    else:
        com = (math.nan,) * 3
        var = (math.nan,) * 3
    return Observables(
        t=state.t,
        norm=norm,
        energy_total=kin_perp + kin_z + e_dip,
        kinetic_perp=kin_perp,
        kinetic_z=kin_z,
        dipolar=e_dip,
        peak_density=peak,
        center_of_mass=com,
        variance=var,
    )


@dataclass(frozen=True)
class EvolveResult:
    """The final state of a run, the Observables it recorded, in step order, and
    the density mode fftn(|phi|^2)[idx] of each of its n_steps + 1
    convolutions (None for a run without a mode)."""

    final: CondensateState
    observables: tuple[Observables, ...]
    modes: np.ndarray | None = None


def _whole_steps(span: float, dt: float, what: str) -> int:
    """Number of steps dt that make up span, which must be a whole positive
    number of them (to 1e-9 relative); otherwise ParameterDomainError."""
    steps = span / dt
    n_steps = round(steps) if np.isfinite(steps) else 0
    if n_steps < 1 or abs(steps - n_steps) > 1e-9 * n_steps:
        raise ParameterDomainError(
            f"{what} is not a whole positive number of steps dt = {dt} ({steps:.12g} steps)"
        )
    return n_steps


def evolve(
    state: CondensateState,
    dt: float,
    t_final: float,
    observer_stride: int = 10,
    *,
    workers: int = 1,
    consume: bool = False,
) -> EvolveResult:
    """Step until t_final, recording observables every observer_stride steps.

    t_final must lie a whole number of steps from state.t (to 1e-9 relative);
    otherwise ParameterDomainError. The final state and the last observables
    are at t_final itself, the earlier ones at state.t + i dt. Aborts with
    StepSizeError or NonFiniteStateError, each carrying the step index and
    time, when the potential-phase guard trips or the field develops NaN or
    Inf (at step 0 for the start state). This is one SplitStep.run of
    workers FFT workers, which records state.t, every observer_stride-th
    step and the last; consume goes to it as well.
    """
    prop = SplitStep(state.params, dt, workers)
    t_final = check_real(t_final, "t_final")
    n_steps = _whole_steps(t_final - state.t, dt, f"t_final = {t_final} (from t = {state.t})")
    run = prop.run(state, n_steps, check_count(observer_stride, "observer_stride"), consume=consume)
    # the run ends at t_final, which n_steps dt may miss by a rounding
    return EvolveResult(replace(run.final, t=t_final),
                        (*run.observables[:-1], replace(run.observables[-1], t=t_final)))


def effective_dipolar_coupling(params: GpeParams, q, n0: float) -> float:
    """Dipolar coupling (energy units) realized by the grid kernel at lattice q.

    The linearization of the discrete dynamics about the uniform state with
    density n0 sees the interaction energy 2 n0 hbar sin^2(theta) T(q), where
    T is the Fourier table. Dividing by the angular factor 3 cos^2(beta) - 1
    gives the coupling to hand to the bogoliubov module; at the magic angle
    (vanishing factor) zero is returned since the interaction decouples.
    """
    n0 = check_positive(n0, "n0")
    idx, qv = _lattice_index(q, params.grid)
    t_q = float(params.table.coeffs[_half_spectrum_index(idx, params.grid.dims)[0]])
    e_int = 2.0 * n0 * params.hbar * params.sin2_theta * t_q
    q2 = float(qv @ qv)
    if q2 == 0.0:
        return 0.0
    cos2 = float(qv @ np.asarray(params.table.spec.orientation)) ** 2 / q2
    ang = 3.0 * cos2 - 1.0
    if abs(ang) < 1e-9:
        return 0.0
    return e_int / ang


def predicted_mode_frequency(params: GpeParams, q, n0: float) -> complex:
    """Bogoliubov frequency at lattice q with the table-calibrated coupling and params' mass."""
    c_dd = effective_dipolar_coupling(params, q, n0)
    cp = bogoliubov.CondensateParams(
        m_perp=params.m_perp,
        m_par=params.m_par,
        c_dd=c_dd,
        orientation=params.table.spec.orientation,
        hbar=params.hbar,
    )
    return bogoliubov.dispersion(q, cp)


@dataclass(frozen=True)
class ResponseResult:
    """Outcome of a linear-response run at one wavevector."""

    q: tuple[float, float, float]
    nu_fit: complex
    residual: float
    nu_predicted: complex
    effective_c_dd: float
    times: np.ndarray
    amplitudes: np.ndarray


def _fit_mode(times: np.ndarray, signal: np.ndarray) -> tuple[complex, float]:
    """nu and relative rms residual of a sampled linear mode (Prony's method).

    c, the least-squares coefficient of s[n+1] + s[n-1] = 2 c s[n], is
    cos(nu dt) for an oscillation and cosh(g dt) for growth (nu = i g). The
    amplitudes are a linear fit on cos and sin of nu t, or on exp(-g t) and
    exp(g (t - t_end)), which span cosh and sinh of g t without overflow.
    A c that is not finite or is below -1 raises FitFailureError.
    """
    dt = float(times[1] - times[0])
    mid = signal[1:-1]
    norm = 2.0 * float(mid @ mid)
    c = float(mid @ (signal[2:] + signal[:-2])) / norm if norm > 0 else math.nan
    if not -1.0 <= c < math.inf:
        raise FitFailureError(f"mode signal follows no oscillation or growth law (c = {c:.6g})")
    if c <= 1.0:
        rate = math.acos(c) / dt
        nu, basis = complex(rate, 0.0), (np.cos(rate * times), np.sin(rate * times))
    else:
        rate = math.acosh(c) / dt
        nu, basis = complex(0.0, rate), (np.exp(-rate * times), np.exp(rate * (times - times[-1])))
    design = np.column_stack(basis)
    fit = design @ np.linalg.lstsq(design, signal, rcond=None)[0]
    # c is finite, so the signal is not all zero
    return nu, float(np.linalg.norm(signal - fit) / np.linalg.norm(signal))


# time steps per oscillation period (or per 1/g of growth) when dt is not given
_POINTS_PER_CYCLE = 48
# fewest steps a response run takes: the fit reads three-term products
_MIN_RESPONSE_STEPS = 8


def linear_response_experiment(
    params: GpeParams,
    q,
    delta: float,
    duration: float | None = None,
    *,
    n0: float = 1.0,
    dt: float | None = None,
    workers: int = 1,
) -> ResponseResult:
    """Measure a Bogoliubov mode by evolving a weakly perturbed uniform state.

    Seeds phi = sqrt(n0) (1 + delta cos(q.r)), tracks the density Fourier
    amplitude at +q and reads nu off the real part of that amplitude in
    closed form: in the linear regime it is a sum of two exponentials, so
    it obeys s[n+1] + s[n-1] = 2 c s[n], and c = cos(nu dt) gives a stable
    mode's frequency while c = cosh(g dt) gives a growing mode's rate
    nu = i g (see _fit_mode). Raises FitFailureError when the residual of
    that law exceeds 10% of the signal. The recurrence models no damping,
    so a complex m_par is refused with ParameterDomainError before stepping,
    and so is a given dt that is not positive and finite.
    The returned prediction uses the table-calibrated coupling at the same
    q. The mode amplitude fftn(|phi|^2)[q] dV is the run's own readout:
    given q's lattice index as its mode, SplitStep.run returns
    fftn(|phi|^2)[q] of each of its n + 1 density convolutions, read
    between their forward transform and the product with the table, and
    they are scaled by dV in place. So the run records no Observables,
    fuses its half-steps and costs what a bare run of as many steps costs;
    workers is the FFT worker count of the stepping.

    Without duration the run lasts one period (0.875 / g for a growing mode).
    A given duration is met exactly: with dt it must be a whole number of at
    least 8 steps, otherwise ParameterDomainError; without dt the run takes
    the fewest steps, at least 8, that end at duration and are no longer than
    the step chosen when dt is not given.
    """
    if params.m_par.imag != 0.0:
        raise ParameterDomainError(
            "the response fit models an undamped mode and needs a real mass; "
            f"got m_par = {params.m_par}"
        )
    dt = None if dt is None else check_positive(dt, "dt")
    duration = None if duration is None else check_positive(duration, "duration")
    grid = params.grid
    idx, qv = _lattice_index(q, grid)
    nu_pred = predicted_mode_frequency(params, q, n0)
    scale = abs(nu_pred)
    if scale == 0.0:
        raise ParameterDomainError("predicted frequency is zero; pick a nonzero lattice q")
    if dt is None:
        cycle = 2.0 * math.pi / scale if nu_pred.imag == 0 else 1.0 / scale
        dt_cap = cycle / _POINTS_PER_CYCLE
        # keep the largest single-step kinetic phase a factor 2 below the
        # pi resonance of the splitting; at resonance the Nyquist-scale
        # modes pump up from round-off and bury the tracked mode
        dt_cap = min(dt_cap, 0.5 * math.pi / _kinetic_phase(params, 1.0))
    if duration is None:
        # one period, or 0.875 / g of growth: Prony's fit reads three-term
        # products, and on the five rays of acceptance criterion 5 one
        # period deviates at worst 1.14e-5 against 1.28e-5 for four, dt's
        # error being the floor of both
        duration = (2.0 * math.pi / scale) if nu_pred.imag == 0 else (0.875 / scale)
        dt = dt_cap if dt is None else dt
        n_steps = max(int(round(duration / dt)), _MIN_RESPONSE_STEPS)
    elif dt is None:
        n_steps = max(math.ceil(duration / dt_cap), _MIN_RESPONSE_STEPS)
        dt = duration / n_steps
    else:
        n_steps = _whole_steps(duration, dt, f"duration = {duration}")
        if n_steps < _MIN_RESPONSE_STEPS:
            raise ParameterDomainError(
                f"duration = {duration} is {n_steps} steps dt = {dt}; "
                f"the response fit needs at least {_MIN_RESPONSE_STEPS}"
            )
    start = init_state("perturbed_plane_wave", params, n0=n0, delta=delta, q=q)
    times = np.arange(n_steps + 1) * dt
    amps = SplitStep(params, dt, workers).run(start, n_steps, mode=idx, consume=True).modes
    amps *= grid.cell_volume
    if amps[0] == 0.0:
        raise FitFailureError("seeded mode has zero initial amplitude")
    nu_fit, rel_resid = _fit_mode(times, np.real(amps))
    if rel_resid > 0.10:
        raise FitFailureError(
            f"fit residual {rel_resid:.1%} exceeds 10% of the signal at "
            f"q = ({_plain(qv)})"
        )
    return ResponseResult(
        q=tuple(qv),
        nu_fit=nu_fit,
        residual=rel_resid,
        nu_predicted=nu_pred,
        effective_c_dd=effective_dipolar_coupling(params, q, n0),
        times=times,
        amplitudes=amps,
    )
