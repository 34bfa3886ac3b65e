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
the half-step potential phase, and the FFT worker count. Because the
potential phase leaves |phi|^2 unchanged, the potential at the end of one
step is exactly the one the next step opens with; the propagator keeps its
phase factor, so n steps cost n + 1 density convolutions instead of 2n. The
convolution is the real-to-complex one of kernel.convolve_density, and the
phase factor is built from cos/sin of a real array. evolve and linear_response_experiment
share its stepping loop (SplitStep.run), which names the step and time at
which a guard trips or the field turns non-finite. The module keeps no FFT
state: the step transforms its field in place through numpy.fft, split into
slabs over the propagator's worker threads (dipolariton._fft), and so does
observables into a buffer of its own.

SplitStep is the only code here that convolves the density: with each
convolution it keeps sum(rho (eps conv rho)), and
observables(state, propagator) takes the dipolar energy from there. evolve
hands it its propagator, so the observation at t = 0 makes the convolution
step 1 opens with, and n steps with any number of observations cost n + 1
convolutions. Called without a propagator,
observables builds a throwaway SplitStep of the state's params. It reduces
|phi|^2 and the spectral weight to per-axis marginals, from which the
kinetic energies, centre of mass and variances follow without full-grid
coordinate or wavenumber meshes.

An accuracy guard rejects steps whose maximal potential phase per half step
exceeds MAX_POTENTIAL_PHASE = pi/4.

linear_response_experiment seeds a weak density wave on the uniform state,
tracks its Fourier amplitude and reads nu off it in closed form (Prony's
method): the stepped linear mode obeys s[n+1] + s[n-1] = 2 c s[n], with
c = cos(nu dt) for an oscillation and cosh(g dt) for growth, so one linear
fit serves both laws without a model, initial guess or iteration. The
prediction it is compared against calibrates the dipolar coupling from the
same Fourier table the stepping uses, closing the loop with the bogoliubov
module. When physical (infinite box) numbers are wanted instead, the box
edge should exceed roughly four times the longest instability wavelength
probed, so the truncated kernel has converged at the probe wavevector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _fft, bogoliubov
from .eit import HBAR
from .errors import (
    FitFailureError,
    GridMismatchError,
    NonFiniteStateError,
    OffLatticeError,
    ParameterDomainError,
    StepSizeError,
)
from .grid import GridSpec
from .kernel import FourierTable, convolve_density

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
        if not (np.isfinite(self.m_perp) and self.m_perp > 0):
            raise ParameterDomainError(f"m_perp must be positive, got {self.m_perp}")
        m_par = complex(self.m_par)
        if m_par == 0 or not (np.isfinite(m_par.real) and np.isfinite(m_par.imag)):
            raise ParameterDomainError(f"m_par must be finite and nonzero, got {m_par}")
        if not (0.0 <= self.sin2_theta <= 1.0):
            raise ParameterDomainError(f"sin2_theta must lie in [0, 1], got {self.sin2_theta}")
        if not (np.isfinite(self.hbar) and self.hbar > 0):
            raise ParameterDomainError(f"hbar must be positive, got {self.hbar}")
        object.__setattr__(self, "m_par", m_par)

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
        phi = np.asarray(self.phi, dtype=complex)
        if phi.shape != self.params.grid.shape:
            raise GridMismatchError(
                f"phi shape {phi.shape} does not match grid {self.params.grid.shape}"
            )
        object.__setattr__(self, "phi", phi)

    @property
    def grid(self) -> GridSpec:
        return self.params.grid


def _lattice_index(q, grid: GridSpec) -> tuple[int, int, int]:
    """Indices of a reciprocal-lattice vector; OffLatticeError if q is off it by 1e-9 relative."""
    qv = np.asarray(q, dtype=float)
    if qv.shape != (3,) or not np.all(np.isfinite(qv)):
        raise ParameterDomainError(f"q must be a finite 3-vector, got {q}")
    idx = []
    for comp, n, length in zip(qv, grid.dims, grid.box_lengths):
        steps = comp * length / (2.0 * math.pi)
        nearest = round(steps)
        scale = max(abs(steps), 1.0)
        if abs(steps - nearest) > 1e-9 * scale:
            raise OffLatticeError(
                f"q = {tuple(qv)} is off the reciprocal lattice (component {comp} is "
                f"{steps} lattice steps)"
            )
        idx.append(int(nearest) % n)
    return tuple(idx)


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
    """
    grid = params.grid
    if kind == "uniform":
        if n0 is None or not (np.isfinite(n0) and n0 > 0):
            raise ParameterDomainError(f"uniform state needs n0 > 0, got {n0}")
        phi = np.full(grid.shape, math.sqrt(n0), dtype=complex)
        return CondensateState(phi, 0.0, params)
    if kind == "gaussian":
        w = np.asarray(widths, dtype=float) if widths is not None else None
        if w is None or w.shape != (3,) or np.any(~np.isfinite(w)) or np.any(w <= 0):
            raise ParameterDomainError(f"gaussian state needs three positive widths, got {widths}")
        if n0 is not None and not (np.isfinite(n0) and n0 > 0):
            raise ParameterDomainError(f"gaussian state needs n0 > 0 when given, got {n0}")
        ctr = 0.5 * np.asarray(grid.box_lengths)
        xm, ym, zm = grid.meshgrid()
        # widths are density standard deviations: |phi|^2 ~ exp(-x^2 / (2 w^2))
        envelope = np.exp(
            -((xm - ctr[0]) ** 2) / (4.0 * w[0] ** 2)
            - ((ym - ctr[1]) ** 2) / (4.0 * w[1] ** 2)
            - ((zm - ctr[2]) ** 2) / (4.0 * w[2] ** 2)
        ).astype(complex)
        norm = np.sum(np.abs(envelope) ** 2) * grid.cell_volume
        phi = envelope / math.sqrt(norm)
        if n0 is not None:
            peak = 1.0 / ((2.0 * math.pi) ** 1.5 * w[0] * w[1] * w[2])
            phi = phi * math.sqrt(n0 / peak)
        return CondensateState(phi, 0.0, params)
    if kind == "perturbed_plane_wave":
        if n0 is None or not (np.isfinite(n0) and n0 > 0):
            raise ParameterDomainError(f"perturbed state needs n0 > 0, got {n0}")
        if delta is None or not (0.0 < delta <= 1e-3):
            raise ParameterDomainError(
                f"perturbation amplitude must lie in (0, 1e-3], got {delta}"
            )
        _lattice_index(q, grid)
        qv = np.asarray(q, dtype=float)
        xm, ym, zm = grid.meshgrid()
        phase = qv[0] * xm + qv[1] * ym + qv[2] * zm
        phi = math.sqrt(n0) * (1.0 + delta * np.cos(phase)).astype(complex)
        return CondensateState(phi, 0.0, params)
    raise ParameterDomainError(f"unknown state kind '{kind}'")


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


class SplitStep:
    """Strang propagator for one (params, dt, workers).

    Holds the kinetic phase (as per-axis factors), the kernel factor
    -dt sin^2(theta) / 2 that turns eps conv |phi|^2 into the angle of the
    half-step potential factor, and the FFT worker count. It keeps what the
    convolution of the field it saw last gives (the half-step angle, or the
    factor once a step has built it, its largest |angle| and
    sum(rho (eps conv rho))) and reuses it when that field is stepped or
    observed next, which is why fields are never modified in place.
    Negative dt steps backwards and exactly inverts the corresponding
    forward step.
    """

    def __init__(self, params: GpeParams, dt: float, workers: int = 1):
        if dt == 0 or not np.isfinite(dt):
            raise ParameterDomainError(f"dt must be nonzero and finite, got {dt}")
        if int(workers) < 1:
            raise ParameterDomainError(f"worker count must be >= 1, got {workers}")
        self.params = params
        self.dt = float(dt)
        self.workers = int(workers)
        self._kinetic = _kinetic_factors(params, self.dt)
        self._kernel_factor = -0.5 * self.dt * params.sin2_theta
        self._field: np.ndarray | None = None
        self._angle: np.ndarray | None = None
        self._factor: np.ndarray | None = None
        self._max_phase = 0.0
        self._conv_sum = 0.0

    def _check_params(self, state: CondensateState) -> None:
        if state.params is not self.params:
            raise ParameterDomainError("state and propagator were built from different params")

    def _convolve(self, phi: np.ndarray) -> None:
        """Convolve rho = |phi|^2 once and keep what steps and observables need of it.

        Keeps the half-step angle, its largest |angle| and
        sum(rho (eps conv rho)). The largest |angle| is NaN or inf when phi
        is not finite, since one bad sample spreads to every convolved one.
        The einsum reduction stays on one thread, where a BLAS dot would
        start a second.
        """
        rho = np.abs(phi) ** 2
        angle = convolve_density(self.params.table, rho, workers=self.workers)
        self._conv_sum = float(np.einsum("ijk,ijk->", rho, angle))
        del rho
        angle *= self._kernel_factor
        self._max_phase = max(float(angle.max()), -float(angle.min()))
        self._field, self._angle, self._factor = phi, angle, None

    def _potential_factor(self) -> np.ndarray:
        """exp(i angle) of the kept angle, built from cos/sin of the real array once."""
        if self._factor is None:
            factor = np.empty(self._angle.shape, dtype=complex)
            np.cos(self._angle, out=factor.real)
            np.sin(self._angle, out=factor.imag)
            self._angle, self._factor = None, factor
        return self._factor

    def _check_guard(self) -> None:
        if self._max_phase > MAX_POTENTIAL_PHASE:
            raise StepSizeError(
                f"potential phase per half step {self._max_phase:.3f} rad exceeds the accuracy "
                f"guard {MAX_POTENTIAL_PHASE:.3f} rad; reduce dt"
            )

    def convolution_sum(self, state: CondensateState) -> float:
        """sum(rho (eps conv rho)) with rho = |phi|^2 of state.

        Read from the kept convolution if it is of state.phi; otherwise the
        convolution is made and kept for the next step of state.
        """
        self._check_params(state)
        if state.phi is not self._field:
            self._convolve(state.phi)
        return self._conv_sum

    def step(self, state: CondensateState) -> CondensateState:
        """One Strang step: half potential, exact kinetic in Fourier, half potential."""
        self._check_params(state)
        if state.phi is not self._field:
            self._convolve(state.phi)
        self._check_guard()
        factor = self._potential_factor()
        self._field = self._factor = None
        # the factor is not needed again, so its buffer takes the product
        phi = np.multiply(state.phi, factor, out=factor)
        del factor
        spec = _fft.fftn(phi, self.workers, out=phi)
        kin_perp, kin_z = self._kinetic
        spec *= kin_perp
        spec *= kin_z
        phi = _fft.ifftn(spec, self.workers, out=spec)
        self._convolve(phi)
        self._check_guard()
        phi *= self._potential_factor()
        new = CondensateState(phi, state.t + self.dt, self.params)
        self._field = new.phi
        return new

    def run(self, state: CondensateState, n_steps: int, visit=None) -> CondensateState:
        """Take n_steps from state, calling visit(i, state) after step i.

        The stepping loop of the module. A tripped potential-phase guard
        (StepSizeError) or a non-finite field (NonFiniteStateError) is
        reported with the step index and time. Finiteness is read from the
        largest |angle| of the closing convolution, so the samples are
        counted only when one is bad.
        """
        for i in range(1, n_steps + 1):
            try:
                new = self.step(state)
            except StepSizeError as exc:
                raise StepSizeError(
                    f"step {i} (t = {state.t:.6e} -> {state.t + self.dt:.6e}): {exc}"
                ) from None
            if not math.isfinite(self._max_phase):
                bad = int(np.count_nonzero(~np.isfinite(new.phi)))
                raise NonFiniteStateError(
                    f"non-finite field after step {i} (t = {new.t:.6e}); "
                    f"{bad} bad samples of {new.phi.size}"
                )
            state = new
            if visit is not None:
                visit(i, state)
        return state


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


def observables(state: CondensateState, propagator: SplitStep | None = None) -> Observables:
    """Norm, energies, peak density, centre of mass and variances of state.

    The dipolar energy is hbar sin^2(theta) / 2 * sum(rho (eps conv rho)) dV.
    Given a propagator built from state.params, the sum comes from it (the
    convolution of the field it stepped or observed last is kept, else it
    makes the one its next step of this field opens with); without one, a
    throwaway SplitStep of state.params makes it on one FFT worker. The
    kinetic energies reduce the spectral weight |fftn(phi)|^2, and the
    centre of mass and variances reduce |phi|^2, to per-axis marginals;
    that transform uses the propagator's worker count, or one worker.
    """
    p = state.params
    grid = p.grid
    dv = grid.cell_volume
    phi = state.phi
    if propagator is None:
        # the sum does not depend on dt, so any step size serves; the
        # throwaway is bound to no name, so its convolution is freed here
        conv_sum, workers = SplitStep(p, 1.0).convolution_sum(state), 1
    else:
        conv_sum, workers = propagator.convolution_sum(state), propagator.workers
    rho = np.abs(phi) ** 2
    e_dip = 0.5 * p.hbar * p.sin2_theta * conv_sum * dv
    peak = float(rho.max())
    rho_xy = rho.sum(axis=2)
    rho_axes = (rho_xy.sum(axis=1), rho_xy.sum(axis=0), rho.sum(axis=(0, 1)))
    del rho
    norm = float(rho_axes[0].sum()) * dv

    # |spec|^2 summed onto (kx, ky) and onto kz, read as (re, im) float
    # pairs so that no full-grid weight array is made
    pairs = _fft.fftn(phi, workers).view(float)
    w_xy = np.einsum("ijk,ijk->ij", pairs, pairs)
    w_z = np.einsum("ijk,ijk->k", pairs, pairs).reshape(-1, 2).sum(axis=1)
    del pairs
    qx, qy, qz = grid.wavenumbers()
    scale = p.hbar**2 * dv / phi.size
    kin_perp = scale / (2.0 * p.m_perp) * float(
        np.sum(qx**2 * w_xy.sum(axis=1)) + np.sum(qy**2 * w_xy.sum(axis=0))
    )
    # kinetic weight along z uses the real part of 1/m_par so it reduces to the
    # usual positive expression for real masses
    kin_z = scale * 0.5 * (1.0 / p.m_par).real * float(np.sum(qz**2 * w_z))

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
    final: CondensateState
    observables: tuple[Observables, ...]


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
) -> EvolveResult:
    """Step until t_final, recording observables every observer_stride steps.

    t_final must lie a whole number of steps from state.t (to 1e-9 relative);
    otherwise ParameterDomainError. Aborts with StepSizeError or
    NonFiniteStateError, each carrying the step index and time, when the
    potential-phase guard trips or the field develops NaN or Inf. workers is
    the FFT worker count of the propagator, whose convolutions and worker
    count the observables use too.
    """
    prop = SplitStep(state.params, dt, workers)
    n_steps = _whole_steps(t_final - state.t, dt, f"t_final = {t_final} (from t = {state.t})")
    if observer_stride < 1:
        raise ParameterDomainError(f"observer_stride must be >= 1, got {observer_stride}")
    # the propagator keeps each convolution it makes, so the t = 0 record
    # makes the one step 1 opens with and later records reuse the last step's
    obs = [observables(state, prop)]

    def record(i: int, current: CondensateState):
        if i % observer_stride == 0 or i == n_steps:
            obs.append(observables(current, prop))

    final = prop.run(state, n_steps, record)
    return EvolveResult(final=final, observables=tuple(obs))


def effective_dipolar_coupling(params: GpeParams, q, n0: float) -> float:
    """Dipolar coupling (energy units) realized by the grid kernel at lattice q.

    The linearization of the discrete dynamics about the uniform state with
    density n0 sees the interaction energy 2 n0 hbar sin^2(theta) T(q), where
    T is the Fourier table. Dividing by the angular factor 3 cos^2(beta) - 1
    gives the coupling to hand to the bogoliubov module; at the magic angle
    (vanishing factor) zero is returned since the interaction decouples.
    """
    if not (np.isfinite(n0) and n0 > 0):
        raise ParameterDomainError(f"n0 must be positive, got {n0}")
    idx = _lattice_index(q, params.grid)
    t_q = float(params.table.coeffs[idx])
    e_int = 2.0 * n0 * params.hbar * params.sin2_theta * t_q
    qv = np.asarray(q, dtype=float)
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


def _plane_waves(idx: tuple[int, int, int], grid: GridSpec) -> tuple[np.ndarray, ...]:
    """Per-axis factors exp(-2 pi i k j / n) of the DFT coefficient at index idx."""
    return tuple(
        np.exp(-2j * math.pi * ((k * np.arange(n)) % n) / n) for k, n in zip(idx, grid.dims)
    )


def _density_mode_amplitude(phi: np.ndarray, waves: tuple[np.ndarray, ...], dv: float) -> complex:
    """fftn(|phi|^2)[idx] * dv as an O(N) projection on the separable plane wave."""
    ex, ey, ez = waves
    rho = np.abs(phi) ** 2
    return complex((rho @ ez) @ ey @ ex * dv)


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
    q. The mode amplitude is read by an O(N) projection on the plane wave at
    q; workers is the FFT worker count of the stepping.

    Without duration the run lasts four periods (3.5 / g for a growing mode).
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
    if dt is not None and not (math.isfinite(dt) and dt > 0):
        raise ParameterDomainError(f"dt must be positive and finite, got {dt}")
    grid = params.grid
    idx = _lattice_index(q, grid)
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
        rate_max = 0.5 * params.hbar * (
            (math.pi / grid.spacings[0]) ** 2 / params.m_perp
            + (math.pi / grid.spacings[1]) ** 2 / params.m_perp
            + (math.pi / grid.spacings[2]) ** 2 * abs((1.0 / params.m_par).real)
        )
        dt_cap = min(dt_cap, 0.5 * math.pi / rate_max)
    if duration is None:
        duration = (2.0 * math.pi * 4.0 / scale) if nu_pred.imag == 0 else (3.5 / scale)
        dt = dt_cap if dt is None else dt
        n_steps = max(int(round(duration / dt)), _MIN_RESPONSE_STEPS)
    elif dt is None:
        if not (math.isfinite(duration) and duration > 0):
            raise ParameterDomainError(f"duration must be positive, got {duration}")
        n_steps = max(math.ceil(duration / dt_cap), _MIN_RESPONSE_STEPS)
        dt = duration / n_steps
    else:
        n_steps = _whole_steps(duration, dt, f"duration = {duration}")
        if n_steps < _MIN_RESPONSE_STEPS:
            raise ParameterDomainError(
                f"duration = {duration} is {n_steps} steps dt = {dt}; "
                f"the response fit needs at least {_MIN_RESPONSE_STEPS}"
            )
    state = init_state("perturbed_plane_wave", params, n0=n0, delta=delta, q=q)
    prop = SplitStep(params, dt, workers)
    waves = _plane_waves(idx, grid)
    dv = grid.cell_volume
    times = np.arange(n_steps + 1) * dt
    amps = np.empty(n_steps + 1, dtype=complex)
    amps[0] = _density_mode_amplitude(state.phi, waves, dv)

    def record(i: int, current: CondensateState):
        amps[i] = _density_mode_amplitude(current.phi, waves, dv)

    prop.run(state, n_steps, record)
    if amps[0] == 0.0:
        raise FitFailureError("seeded mode has zero initial amplitude")
    nu_fit, rel_resid = _fit_mode(times, np.real(amps))
    if rel_resid > 0.10:
        raise FitFailureError(
            f"fit residual {rel_resid:.1%} exceeds 10% of the signal at "
            f"q = ({', '.join(f'{v:.6g}' for v in np.asarray(q, float))})"
        )
    return ResponseResult(
        q=tuple(np.asarray(q, dtype=float)),
        nu_fit=nu_fit,
        residual=rel_resid,
        nu_predicted=nu_pred,
        effective_c_dd=effective_dipolar_coupling(params, q, n0),
        times=times,
        amplitudes=amps,
    )
