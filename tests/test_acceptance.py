"""Acceptance criteria for the whole package, one test per criterion.

Each test prints a single PASS line with the measured numbers once its
assertions hold (run with -s to see them). Tolerances are the contract;
the prints are for the record.
"""

import math
import time

import numpy as np
import pytest
import scipy.fft

from dipolariton import (
    C_LIGHT,
    CondensateState,
    Grid1D,
    GridSpec,
    KernelSpec,
    LinearRunConfig,
    MediumParams,
    convolve_density,
    derive_eit,
    diffusion_coefficient,
    direct_convolution_reference,
    evolve,
    gaussian_profile,
    init_state,
    kernel_table_fourier,
    linear_response_experiment,
    simulate_linear_1d,
    step,
)
from dipolariton.bogoliubov import CondensateParams, dispersion, stability_map
from conftest import lattice_q, make_params


def test_criterion_1_magic_angle_decoupling():
    # on the cone 3 cos^2(beta) = 1 the interaction drops out of the mode
    # frequency for any coupling strength, over six orders of magnitude
    direction = np.array([math.sqrt(2.0), 0.0, 1.0]) / math.sqrt(3.0)
    q = 0.4 * direction
    e_free = (q[0] ** 2 + q[1] ** 2) / 2.0 + q[2] ** 2 / 2.0  # hbar = m = 1
    nu_free = e_free
    worst = 0.0
    count = 0
    for mag in np.logspace(-3.0, 3.0, 13):
        for sign in (1.0, -1.0):
            p = CondensateParams(m_perp=1.0, m_par=1.0, c_dd=sign * mag, hbar=1.0)
            nu = dispersion(q, p)
            assert nu.imag == 0.0
            worst = max(worst, abs(nu.real - nu_free) / nu_free)
            count += 1
    assert worst <= 1e-12
    print(f"PASS criterion 1: magic-angle modes free for {count} couplings "
          f"across 6 decades, max rel dev {worst:.3e}")


def test_criterion_2_stability_quadrants():
    t0 = time.monotonic()
    dirs = np.eye(3)
    mags = (0.005, 0.5, 2.0)

    def unstable_set(orientation, c_dd):
        p = CondensateParams(m_perp=1.0, m_par=1e-4, c_dd=c_dd,
                             orientation=orientation, hbar=1.0)
        smap = stability_map(p, dirs, mags)
        # (direction, magnitude) index pairs of the unstable modes
        return {(int(i), int(j)) for i, j in np.argwhere(~smap.stable)}

    # soft longitudinal mass: along the axis the interaction wins only at
    # long wavelength; against it the transverse plane destabilizes first
    assert unstable_set((0, 0, 1.0), -0.5) == {(2, 0)}
    assert unstable_set((0, 0, 1.0), +0.5) == {(0, 0), (0, 1), (1, 0), (1, 1)}

    up_y_pos = unstable_set((0, 1.0, 0), +0.5)
    assert {d for d, _ in up_y_pos} >= {0}          # transverse ray destabilized
    assert all(d != 1 for d, _ in up_y_pos)         # axis ray stays stable
    up_y_neg = unstable_set((0, 1.0, 0), -0.5)
    assert {d for d, _ in up_y_neg} == {1}          # only the axis ray collapses
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(f"PASS criterion 2: four orientation/sign quadrants give the "
          f"expected unstable sets in {elapsed:.2f}s")


def test_criterion_3_alpha_magnitude():
    gamma = 1.0e7
    g = 2.5e5
    n_atoms = 1.0e10
    l_abs = gamma * C_LIGHT / (g**2 * n_atoms)
    medium = MediumParams(g=g, n_atoms=n_atoms, v_t=1e-9, gamma=gamma,
                          delta=100.0 * gamma, omega=1e6, k=50.0 / l_abs)
    derived = derive_eit(medium)
    assert derived.l_abs * medium.k == pytest.approx(50.0, rel=1e-12)
    mag = abs(derived.alpha)
    assert 0.5e-4 <= mag <= 2.0e-4
    print(f"PASS criterion 3: |mass ratio| = {mag:.6e} at k l_abs = 50, "
          f"detuning ratio 100")


def test_criterion_4_convolution_against_direct_sum():
    t0 = time.monotonic()
    grid = GridSpec(dims=(16, 16, 16), spacings=(1.0, 1.0, 1.0))
    spec = KernelSpec(orientation=(0.0, 0.0, 1.0), strength=1.0)
    table = kernel_table_fourier(grid, spec)
    rho = np.random.default_rng(0).random(grid.shape)
    fast = convolve_density(table, rho)
    slow = direct_convolution_reference(grid, spec, rho)
    rel = float(np.max(np.abs(fast - slow)) / np.max(np.abs(slow)))
    elapsed = time.monotonic() - t0
    assert rel <= 1e-6
    assert elapsed < 10.0
    print(f"PASS criterion 4: FFT convolution matches the direct sum on 16^3 "
          f"to {rel:.3e} in {elapsed:.2f}s")


def test_criterion_5_linear_response_matches_dispersion():
    grid = GridSpec(dims=(32, 32, 32), spacings=(0.5, 0.5, 0.5))
    params = make_params(grid, 0.5)
    rays = [
        ("axis dq", lattice_q(grid, 0, 0, 1)),
        ("axis 2dq", lattice_q(grid, 0, 0, 2)),
        ("magic diagonal", lattice_q(grid, 5, 5, 5)),
        ("transverse dq", lattice_q(grid, 1, 0, 0)),
        ("transverse 2dq", lattice_q(grid, 2, 0, 0)),
    ]
    stable, unstable, lines = 0, 0, []
    for label, q in rays:
        res = linear_response_experiment(params, q, 1e-4)
        dev = abs(res.nu_fit - res.nu_predicted) / abs(res.nu_predicted)
        assert dev <= 0.05, f"{label}: {dev:.3e}"
        if res.nu_predicted.imag == 0.0:
            stable += 1
        else:
            unstable += 1
        lines.append(f"{label} dev {dev:.2e}")
    assert stable >= 3 and unstable >= 2
    print(f"PASS criterion 5: {stable} stable + {unstable} unstable rays within "
          f"5% of the kernel-calibrated dispersion ({'; '.join(lines)})")


def test_criterion_6_conservation_and_reversibility():
    t0 = time.monotonic()
    grid = GridSpec(dims=(32, 32, 32), spacings=(0.5, 0.5, 0.5))
    p = make_params(grid, 0.5)
    g0 = init_state("gaussian", p, widths=(1.0, 1.2, 0.9))
    st = CondensateState(g0.phi * 3.0, 0.0, p)

    res = evolve(st, 2.5e-3, 2.5, observer_stride=100)
    o0, o1 = res.observables[0], res.observables[-1]
    norm_drift = abs(o1.norm - o0.norm) / o0.norm
    energy_drift = abs(o1.energy_total - o0.energy_total) / abs(o0.energy_total)
    assert norm_drift <= 1e-10
    assert energy_drift <= 1e-6

    fwd = evolve(st, 0.01, 3.0, observer_stride=300)
    back = evolve(fwd.final, -0.01, 0.0, observer_stride=300)
    reversal = float(np.sqrt(np.sum(np.abs(back.final.phi - st.phi) ** 2)
                             / np.sum(np.abs(st.phi) ** 2)))
    assert reversal <= 1e-10
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"PASS criterion 6: 1000-step norm drift {norm_drift:.2e}, energy "
          f"drift {energy_drift:.2e}, reversal {reversal:.2e} in {elapsed:.1f}s")


def test_criterion_7_resonant_diffusive_spreading():
    # on resonance the two-branch diffusion coefficient is purely real,
    # c l_abs cos^2(theta), and a Gaussian obeys var(t) = var0 + 2 D t
    gamma = 1.0e7
    g = 2.5e5
    n_atoms = 1.0e10
    l_abs = gamma * C_LIGHT / (g**2 * n_atoms)
    medium = MediumParams(g=g, n_atoms=n_atoms, v_t=1e-9, gamma=gamma,
                          delta=0.0, omega=1e6, k=50.0 / l_abs)
    derived = derive_eit(medium)
    d = diffusion_coefficient(derived)
    assert d.imag == 0.0
    cos2 = math.cos(derived.theta) ** 2
    assert d.real == pytest.approx(C_LIGHT * derived.l_abs * cos2, rel=1e-14)

    dz = derived.l_abs / 4.0
    grid = Grid1D(n=512, dz=dz)
    sigma0 = 32.0 * dz
    t_final = 3.0 * sigma0**2 / (2.0 * d.real)
    n_steps = 1600
    cfg = LinearRunConfig(grid=grid, initial=gaussian_profile(grid, sigma0),
                          diffusion=d.real, dt=t_final / n_steps, n_steps=n_steps)
    run = simulate_linear_1d(cfg)
    expected = sigma0**2 + 2.0 * d.real * t_final
    dev = abs(run.variances[-1] - expected) / expected
    rate_dev = abs(run.variance_rate - 2.0 * d.real) / (2.0 * d.real)
    assert dev <= 0.01
    assert rate_dev <= 0.01
    print(f"PASS criterion 7: on-resonance spreading follows "
          f"var0 + 2 (c l_abs cos^2 theta) t to {dev:.2e} "
          f"(rate dev {rate_dev:.2e})")


def test_criterion_8_strang_local_error_order():
    grid = GridSpec(dims=(16, 16, 16), spacings=(0.5, 0.5, 0.5))
    p = make_params(grid, 0.5)
    g0 = init_state("gaussian", p, widths=(1.0, 1.0, 1.0))
    st = CondensateState(g0.phi * 20.0, 0.0, p)
    dts = [0.3, 0.15, 0.075, 0.0375, 0.01875]
    errs = []
    for dt in dts:
        one = step(st, dt)
        ref = st
        for _ in range(64):
            ref = step(ref, dt / 64.0)
        errs.append(float(np.sqrt(np.sum(np.abs(one.phi - ref.phi) ** 2)
                                  / np.sum(np.abs(ref.phi) ** 2))))
    slope = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    assert 2.8 <= slope <= 3.2
    print(f"PASS criterion 8: single-step error scales as dt^{slope:.3f} "
          f"(target 3.0 +- 0.2)")
