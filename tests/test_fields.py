"""Two-branch field algebra, adiabatic elimination and the 1D validator."""

import math

import numpy as np
import pytest

from dipolariton import (
    C_LIGHT,
    Grid1D,
    GridCoarseWarning,
    GridMismatchError,
    GridSpec,
    MediumParams,
    ParameterDomainError,
    derive_eit,
    diffusion_coefficient,
    eliminate_difference,
    gaussian_profile,
    simulate_linear_1d,
    sum_difference,
)
from conftest import random_complex


def medium(delta=2e8):
    return MediumParams(g=2.5e5, n_atoms=1e10, v_t=1e-9, gamma=1e7,
                        delta=delta, omega=1e6, k=1e7)


def test_mode_roundtrip_and_unitarity():
    grid = Grid1D(n=16, dz=0.5)
    e_plus, e_minus = random_complex(16, 1), random_complex(16, 2)
    back = sum_difference(*sum_difference(e_plus, e_minus, grid), grid)
    assert np.allclose(back[0], e_plus, rtol=0, atol=1e-14)
    assert np.allclose(back[1], e_minus, rtol=0, atol=1e-14)
    e_sum, e_diff = sum_difference(e_plus, e_minus, grid)
    power_in = np.sum(np.abs(e_plus) ** 2 + np.abs(e_minus) ** 2)
    power_out = np.sum(np.abs(e_sum) ** 2 + np.abs(e_diff) ** 2)
    assert power_out == pytest.approx(power_in, rel=1e-14)


def test_single_branch_splits_evenly():
    grid = Grid1D(n=8, dz=1.0)
    e_sum, e_diff = sum_difference(np.full(8, 2.0 + 0j), np.zeros(8, complex), grid)
    assert np.allclose(e_sum, math.sqrt(2.0))
    assert np.allclose(e_diff, math.sqrt(2.0))


def test_pair_shape_validation():
    grid = Grid1D(n=16, dz=0.5)
    with pytest.raises(GridMismatchError):
        sum_difference(np.zeros(16, complex), np.zeros(12, complex), grid)
    with pytest.raises(GridMismatchError):
        sum_difference(np.zeros(8, complex), np.zeros(8, complex), grid)
    # the field algebra runs along z only: a 3-D grid is refused
    grid3 = GridSpec(dims=(8, 8, 8), spacings=(0.5, 0.5, 0.5))
    field3 = np.zeros(grid3.shape, complex)
    with pytest.raises(ParameterDomainError):
        sum_difference(field3, field3, grid3)
    with pytest.raises(ParameterDomainError):
        sum_difference(field3, field3, grid3)
    with pytest.raises(ParameterDomainError):
        eliminate_difference(field3, grid3, derive_eit(medium()))


# -------------------------------------------------- difference-mode slaving

def test_eliminate_difference_constant_field():
    grid = Grid1D(n=32, dz=0.1)
    derived = derive_eit(medium())
    out = eliminate_difference(np.ones(32, complex), grid, derived)
    assert np.max(np.abs(out)) <= 1e-13


def test_eliminate_difference_plane_wave():
    grid = Grid1D(n=64, dz=0.1)
    derived = derive_eit(medium())
    q = 2.0 * math.pi * 3.0 / grid.length
    field = np.exp(1j * q * grid.z())
    out = eliminate_difference(field, grid, derived)
    factor = -derived.l_abs * (1.0 + 1j * derived.detuning_ratio) * 1j * q
    assert np.allclose(out, factor * field, rtol=1e-12, atol=0)


def test_eliminate_difference_gaussian_vs_finite_differences():
    """Spectral derivative checked against an 8th-order centered stencil.

    Width 32 dz with the peak 256 dz from the wrap point keeps the periodic
    tail mismatch at the e^-32 level, far below the stencil error.
    """
    derived = derive_eit(medium())
    dz = derived.l_abs / 4.0
    grid = Grid1D(n=512, dz=dz)
    z = grid.z()
    sigma = 32.0 * dz
    field = np.exp(-((z - z[256]) ** 2) / (2.0 * sigma**2)).astype(complex)

    coeffs = (1 / 280.0, -4 / 105.0, 1 / 5.0, -4 / 5.0, 0.0,
              4 / 5.0, -1 / 5.0, 4 / 105.0, -1 / 280.0)
    deriv = np.zeros_like(field)
    for off, c in zip(range(-4, 5), coeffs):
        if c:
            deriv += c * np.roll(field, -off)
    deriv /= dz
    reference = -derived.l_abs * (1.0 + 1j * derived.detuning_ratio) * deriv

    out = eliminate_difference(field, grid, derived)
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(out - reference)) <= 1e-8 * scale


def test_eliminate_difference_warns_on_nyquist_content():
    grid = Grid1D(n=32, dz=0.1)
    derived = derive_eit(medium())
    alternating = ((-1.0) ** np.arange(32)).astype(complex)
    with pytest.warns(GridCoarseWarning):
        eliminate_difference(alternating, grid, derived)


# ------------------------------------------------------- diffusion coefficient

def test_diffusion_coefficient_two_forms_agree():
    derived = derive_eit(medium())
    d = diffusion_coefficient(derived)
    chi = 1.0 + 1j * derived.detuning_ratio
    assert d == pytest.approx(derived.l_abs * derived.v_gr * chi, rel=1e-14)
    cos2 = math.cos(derived.theta) ** 2
    assert d == pytest.approx(C_LIGHT * derived.l_abs * cos2 * chi, rel=1e-14)
    assert d.imag / d.real == pytest.approx(derived.detuning_ratio, rel=1e-14)


# ------------------------------------------------------------- 1D validator

def test_gaussian_variance_spreading_law():
    # sigma^2(t) = sigma0^2 + 2 D t for a real diffusion coefficient; the run
    # doubles the width, staying 8 sigma clear of the wrap point
    grid = Grid1D(n=512, dz=0.05)
    sigma0, d = 0.8, 0.3
    run = simulate_linear_1d(grid, gaussian_profile(grid, sigma0), diffusion=d, dt=0.002,
                             n_steps=1600)
    t_final = 1600 * 0.002
    expected = sigma0**2 + 2.0 * d * t_final
    assert run.variances[-1] == pytest.approx(expected, rel=1e-2)
    assert run.variance_rate == pytest.approx(2.0 * d, rel=1e-2)
    assert run.times[-1] == pytest.approx(t_final, rel=1e-15)


def test_zero_diffusion_keeps_variance():
    grid = Grid1D(n=128, dz=0.1)
    run = simulate_linear_1d(grid, gaussian_profile(grid, 1.0), diffusion=0.0, dt=0.01, n_steps=50)
    assert abs(run.variances[-1] - run.variances[0]) <= 1e-10
    assert abs(run.variance_rate) <= 1e-10


@pytest.mark.parametrize("d", [0.25, 0.3 + 0.2j])
def test_plane_wave_mode_decay_is_exact(d):
    grid = Grid1D(n=64, dz=0.2)
    q = 2.0 * math.pi * 4.0 / grid.length
    initial = np.exp(1j * q * grid.z())
    run = simulate_linear_1d(grid, initial, diffusion=d, dt=0.01, n_steps=40, snapshot_stride=40)
    expected = np.exp(-d * q**2 * 0.4) * initial
    assert np.allclose(run.snapshots[-1], expected, rtol=1e-12, atol=1e-12)


def test_norm_decays_monotonically_under_real_diffusion():
    grid = Grid1D(n=128, dz=0.1)
    run = simulate_linear_1d(grid, gaussian_profile(grid, 0.9), diffusion=0.4, dt=0.005,
                             n_steps=200)
    assert np.all(np.diff(run.norms) <= 1e-15)


def test_snapshot_schedule():
    grid = Grid1D(n=32, dz=0.1)
    run = simulate_linear_1d(grid, gaussian_profile(grid, 0.5), diffusion=0.1, dt=0.001,
                             n_steps=25, snapshot_stride=10)
    assert np.allclose(run.times, [0.0, 0.01, 0.02, 0.025], rtol=1e-15)
    assert run.snapshots.shape == (4, 32)


def _stepped_snapshots(grid, initial, diffusion, dt, n_steps, snapshot_stride):
    # the per-step form: one exact factor exp(-D q^2 dt) per FFT round trip
    decay = np.exp(-complex(diffusion) * grid.wavenumbers() ** 2 * dt)
    psi = np.array(initial, dtype=complex)
    snaps = [psi]
    for step in range(1, n_steps + 1):
        psi = np.fft.ifft(decay * np.fft.fft(psi))
        if step % snapshot_stride == 0 or step == n_steps:
            snaps.append(psi)
    return np.asarray(snaps)


@pytest.mark.parametrize("d", [0.3, 0.3 + 0.2j])
@pytest.mark.parametrize("n_steps, stride", [(30, 10), (25, 10), (7, 20)])
def test_run_matches_the_stepped_exact_factor(d, n_steps, stride):
    grid = Grid1D(n=64, dz=0.1)
    initial = gaussian_profile(grid, 0.5) * np.exp(0.7j * grid.z())
    cfg = dict(grid=grid, initial=initial, diffusion=d, dt=0.002,
               n_steps=n_steps, snapshot_stride=stride)
    run = simulate_linear_1d(**cfg)
    ref = _stepped_snapshots(**cfg)
    assert run.snapshots.shape == ref.shape
    assert run.snapshots[0].tobytes() == initial.tobytes()
    scale = np.max(np.abs(ref), axis=-1, keepdims=True)
    assert np.max(np.abs(run.snapshots - ref) / scale) <= 1e-12
    steps = [*range(0, n_steps, stride), n_steps]
    assert run.times.tolist() == [s * cfg["dt"] for s in steps]
    assert run.norms == pytest.approx(np.sum(np.abs(ref) ** 2, axis=-1) * grid.dz, rel=1e-12)


def test_all_zero_profile_has_no_spread():
    grid = Grid1D(n=32, dz=0.1)
    run = simulate_linear_1d(grid, np.zeros(32), diffusion=0.1, dt=0.01, n_steps=5,
                             snapshot_stride=2)
    assert np.isnan(run.variances).all()
    assert np.all(run.norms == 0.0)


def test_run_config_validation():
    grid = Grid1D(n=32, dz=0.1)
    profile = gaussian_profile(grid, 0.5)
    good = dict(grid=grid, initial=profile, diffusion=0.1, dt=0.001, n_steps=10)
    with pytest.raises(ParameterDomainError):
        simulate_linear_1d(**{**good, "dt": 0.0})
    with pytest.raises(ParameterDomainError):
        simulate_linear_1d(**{**good, "n_steps": 0})
    with pytest.raises(ParameterDomainError):
        simulate_linear_1d(**{**good, "diffusion": -0.1})
    with pytest.raises(GridMismatchError):
        simulate_linear_1d(**{**good, "initial": profile[:-1]})
    with pytest.raises(ParameterDomainError):
        simulate_linear_1d(**{**good, "snapshot_stride": 0})


def test_gaussian_profile_shape():
    grid = Grid1D(n=64, dz=0.25)
    profile = gaussian_profile(grid, 1.5)
    assert profile.dtype == complex
    assert profile[32] == 1.0  # peak sits exactly on the center sample
    with pytest.raises(ParameterDomainError):
        gaussian_profile(grid, 0.0)
