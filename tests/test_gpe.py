"""Split-step solver: state preparation, conservation laws, linear response."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dipolariton import gpe
from dipolariton import (
    CondensateParams,
    CondensateState,
    FitFailureError,
    GpeParams,
    GridMismatchError,
    GridSpec,
    KernelSpec,
    NonFiniteStateError,
    OffLatticeError,
    ParameterDomainError,
    StepSizeError,
    convolve_density,
    effective_dipolar_coupling,
    evolve,
    init_state,
    kernel_table_fourier,
    linear_response_experiment,
    observables,
    dispersion,
    predicted_mode_frequency,
)
from conftest import lattice_q, make_params, random_complex


def grid16():
    return GridSpec(dims=(16, 16, 16), spacings=(0.5, 0.5, 0.5))


# ----------------------------------------------------------- state factories

def test_uniform_state_norm_and_energy():
    p = make_params(grid16(), 0.5)
    st = init_state("uniform", p, n0=2.5)
    obs = observables(st)
    assert obs.norm == pytest.approx(2.5 * p.grid.box_volume, rel=1e-13)
    assert obs.peak_density == pytest.approx(2.5, rel=1e-15)
    assert abs(obs.energy_total) <= 1e-12


def test_gaussian_state_norm_and_widths():
    grid = GridSpec(dims=(24, 24, 24), spacings=(0.5, 0.5, 0.5))
    p = make_params(grid, 0.0)
    w = (1.0, 1.2, 0.8)
    st = init_state("gaussian", p, widths=w)
    obs = observables(st)
    assert obs.norm == pytest.approx(1.0, abs=1e-10)
    for i in range(3):
        assert obs.variance[i] == pytest.approx(w[i] ** 2, rel=1e-3)
    # box edge sits 5 widths out, so the wrapped tail shifts the center of
    # mass at the 1e-6 level at most
    assert obs.center_of_mass == pytest.approx((6.0, 6.0, 6.0), abs=1e-4)


def test_gaussian_custom_center_peaks_there():
    p = make_params(grid16(), 0.0)
    st = init_state("gaussian", p, widths=(0.8, 0.8, 0.8), center=(2.0, 2.0, 2.0))
    peak = np.unravel_index(np.argmax(np.abs(st.phi)), st.phi.shape)
    assert peak == (4, 4, 4)  # dx = 0.5


def test_perturbed_plane_wave_spectrum():
    grid = grid16()
    p = make_params(grid, 0.5)
    n0, delta = 2.0, 5e-4
    q = lattice_q(grid, 0, 0, 2)
    st = init_state("perturbed_plane_wave", p, n0=n0, delta=delta, q=q)
    spec = np.fft.fftn(st.phi)
    size = st.phi.size
    assert spec[0, 0, 0] == pytest.approx(math.sqrt(n0) * size, rel=1e-12)
    side = math.sqrt(n0) * delta * size / 2.0
    assert spec[0, 0, 2] == pytest.approx(side, rel=1e-12)
    assert spec[0, 0, -2] == pytest.approx(side, rel=1e-12)
    others = np.abs(spec).copy()
    others[0, 0, 0] = others[0, 0, 2] = others[0, 0, -2] = 0.0
    assert np.max(others) <= 1e-9 * side


def test_complex_mass_decay_matches_dispersion():
    # closure of the complex-mass branch: without interaction each plane-wave
    # component evolves as exp(-i nu t) exactly, so an absorptive mass
    # (Im(1/m_par) < 0) must decay at the rate Im(nu) < 0 that dispersion reports
    grid = GridSpec(dims=(16, 16, 16), spacings=(0.5, 0.5, 0.5))
    m_par = 0.8 + 0.3j
    assert (1.0 / m_par).imag < 0.0
    p = GpeParams(m_perp=1.0, m_par=m_par, sin2_theta=0.0,
                  table=make_params(grid, 0.5).table, hbar=1.0)
    q = lattice_q(grid, 1, 0, 2)
    st = init_state("perturbed_plane_wave", p, n0=1.0, delta=1e-3, q=q)
    t_final = 2.0
    final = evolve(st, 0.05, t_final, observer_stride=40).final
    idx = (1, 0, 2)
    ratio = abs(np.fft.fftn(final.phi)[idx]) / abs(np.fft.fftn(st.phi)[idx])
    cp = CondensateParams(m_perp=p.m_perp, m_par=p.m_par, c_dd=0.0, hbar=p.hbar)
    nu = dispersion(q, cp, complex_mass=True)
    assert nu.imag < 0.0
    expected = math.exp(nu.imag * t_final)
    assert ratio == pytest.approx(expected, rel=1e-9)
    assert expected < 0.9  # a decay the test can resolve


@pytest.mark.parametrize("m_par", [1.0 + 0.1j, 1.0 + 0.3j])
def test_complex_mass_growth_matches_dispersion_with_coupling(m_par):
    # closure with the interaction on: an axis mode in the upper half of the
    # unstable band (Re(e_free) > -e_int / 2) of an absorptive condensate.
    # The solver's late growth rate must be Im(nu) from dispersion, which
    # is Im(e_free) plus the growth of the real-mass law at Re(e_free)
    grid = GridSpec(dims=(8, 8, 10), spacings=(0.5, 0.5, 0.5))
    p = make_params(grid, -1.2, m_par=m_par)
    q = lattice_q(grid, 0, 0, 1)
    nu = predicted_mode_frequency(p, q, 1.0, complex_mass=True)
    e_free = q[2] ** 2 / (2.0 * m_par)
    assert 2.0 * e_free.real + 2.0 * effective_dipolar_coupling(p, q, 1.0) > 0.0
    assert nu.real == 0.0 and nu.imag > 0.0
    st = init_state("perturbed_plane_wave", p, n0=1.0, delta=1e-6, q=q)
    mid = evolve(st, 0.02, 10.0, observer_stride=1000).final
    end = evolve(mid, 0.02, 20.0, observer_stride=1000).final
    amp = lambda s: abs(np.fft.fftn(s.phi)[0, 0, 1])
    rate = math.log(amp(end) / amp(mid)) / 10.0
    # Strang splitting error at dt = 0.02 and the decayed branch give about 6e-5
    assert rate == pytest.approx(nu.imag, rel=5e-4)
    # absorption slows the growth the real mass predicts
    assert rate < predicted_mode_frequency(p, q, 1.0).imag


def test_init_state_validation():
    grid = grid16()
    p = make_params(grid, 0.5)
    with pytest.raises(ParameterDomainError):
        init_state("uniform", p)
    with pytest.raises(ParameterDomainError):
        init_state("uniform", p, n0=-1.0)
    with pytest.raises(ParameterDomainError):
        init_state("gaussian", p)
    with pytest.raises(ParameterDomainError):
        init_state("gaussian", p, widths=(1.0, -1.0, 1.0))
    with pytest.raises(ParameterDomainError):
        init_state("perturbed_plane_wave", p, n0=1.0, delta=2e-3,
                   q=lattice_q(grid, 0, 0, 1))
    with pytest.raises(OffLatticeError):
        init_state("perturbed_plane_wave", p, n0=1.0, delta=1e-4,
                   q=(0.0, 0.0, 0.37))
    with pytest.raises(ParameterDomainError):
        init_state("thermal", p, n0=1.0)


def test_state_shape_validation():
    p = make_params(grid16(), 0.5)
    with pytest.raises(GridMismatchError):
        CondensateState(np.zeros((8, 8, 8), complex), 0.0, p)


# ------------------------------------------------------------------ stepping

def test_uniform_state_is_stationary():
    p = make_params(grid16(), 0.7)
    st = init_state("uniform", p, n0=1.3)
    after = gpe.SplitStep(p, 0.05).step(st)
    assert np.max(np.abs(after.phi - st.phi)) <= 1e-13 * math.sqrt(1.3)
    assert after.t == pytest.approx(0.05)


def test_free_gaussian_spreading_anisotropic():
    # free packet obeys var_i(t) = var_i(0) (1 + (hbar t / (2 m_i var_i(0)))^2)
    # per axis; the longitudinal mass is twice the transverse one here
    grid = GridSpec(dims=(24, 24, 24), spacings=(0.5, 0.5, 0.5))
    p = make_params(grid, 0.0, m_par=2.0)
    st = init_state("gaussian", p, widths=(0.9, 0.9, 0.9))
    res = evolve(st, 1e-3, 1.0, observer_stride=1000)
    v = res.observables[-1].variance
    v0 = 0.81
    for axis, mass in ((0, 1.0), (1, 1.0), (2, 2.0)):
        predicted = v0 * (1.0 + (1.0 / (2.0 * mass * v0)) ** 2)
        assert v[axis] == pytest.approx(predicted, rel=1e-5)


def test_norm_and_energy_conservation():
    p = make_params(grid16(), 0.5)
    g0 = init_state("gaussian", p, widths=(1.0, 1.2, 0.9))
    st = CondensateState(g0.phi * 3.0, 0.0, p)
    res = evolve(st, 2.5e-3, 2.5, observer_stride=100)
    o0, o1 = res.observables[0], res.observables[-1]
    assert abs(o1.norm - o0.norm) / o0.norm <= 1e-10
    assert abs(o1.energy_total - o0.energy_total) / abs(o0.energy_total) <= 1e-6


def test_time_reversal_round_trip():
    p = make_params(grid16(), 0.4)
    g0 = init_state("gaussian", p, widths=(1.0, 1.1, 0.9))
    st = CondensateState(g0.phi * 2.0, 0.0, p)
    fwd = evolve(st, 0.01, 3.0, observer_stride=300)
    back = evolve(fwd.final, -0.01, 0.0, observer_stride=300)
    err = np.sqrt(np.sum(np.abs(back.final.phi - st.phi) ** 2)
                  / np.sum(np.abs(st.phi) ** 2))
    assert err <= 1e-10
    assert back.final.t == pytest.approx(0.0, abs=1e-12)


def test_momentum_conservation_with_interaction():
    grid = grid16()
    p = make_params(grid, 0.4)
    g0 = init_state("gaussian", p, widths=(1.0, 1.0, 1.0))
    xm, _, zm = grid.meshgrid()
    kick = lattice_q(grid, 1, 0, 2)
    st = CondensateState(g0.phi * 2.0 * np.exp(1j * (kick[0] * xm + kick[2] * zm)),
                         0.0, p)

    def momentum(phi):
        spec = np.abs(np.fft.fftn(phi)) ** 2 * (grid.cell_volume / phi.size)
        qx, qy, qz = grid.wavenumber_mesh()
        return np.array([np.sum(q * spec) for q in (qx, qy, qz)])

    p0 = momentum(st.phi)
    assert p0[0] == pytest.approx(kick[0] * 4.0, rel=1e-3)  # boosted norm is 4
    assert p0[2] == pytest.approx(kick[2] * 4.0, rel=1e-3)
    res = evolve(st, 5e-3, 1.0, observer_stride=200)
    p1 = momentum(res.final.phi)
    # the potential phase aliases the spectral tail of the packet, so the
    # total momentum is conserved to the tail level, not to round-off;
    # measured drift is 2.5e-7 relative over this run
    assert np.max(np.abs(p1 - p0)) <= 5e-6 * np.linalg.norm(p0)


def test_strang_splitting_is_second_order():
    # local error of one Strang step is O(dt^3); slope fitted against a
    # 64-substep reference over a 16x span of dt
    p = make_params(grid16(), 0.5)
    g0 = init_state("gaussian", p, widths=(1.0, 1.0, 1.0))
    st = CondensateState(g0.phi * 20.0, 0.0, p)
    dts = [0.3, 0.15, 0.075, 0.0375, 0.01875]
    errs = []
    for dt in dts:
        one = gpe.SplitStep(p, dt).step(st)
        ref = gpe.SplitStep(p, dt / 64.0).run(st, 64)
        errs.append(np.sqrt(np.sum(np.abs(one.phi - ref.phi) ** 2)
                            / np.sum(np.abs(ref.phi) ** 2)))
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert 2.8 <= slope <= 3.2


def test_potential_phase_guard():
    grid = grid16()
    p = make_params(grid, 0.5)
    guarded = GpeParams(m_perp=p.m_perp, m_par=p.m_par, sin2_theta=p.sin2_theta,
                        table=p.table, hbar=p.hbar, max_potential_phase=0.01)
    g0 = init_state("gaussian", guarded, widths=(1.0, 1.0, 1.0))
    st = CondensateState(g0.phi * 20.0, 0.0, guarded)
    with pytest.raises(StepSizeError):
        gpe.SplitStep(guarded, 0.3).step(st)
    # the stepping loop names where the guard tripped
    with pytest.raises(StepSizeError, match="step 1"):
        evolve(st, 0.3, 0.6)
    gpe.SplitStep(p, 0.3).step(CondensateState(st.phi, 0.0, p))  # default guard admits this step


def test_non_finite_field_is_reported():
    # one bad sample spreads through the transforms to the whole field; the
    # error names the step, its time and the bad samples of the field after it
    p = make_params(grid16(), 0.5)
    for bad in (np.nan, np.inf):
        st = init_state("uniform", p, n0=1.0)
        st.phi[3, 4, 5] = bad
        with pytest.raises(NonFiniteStateError,
                           match=r"after step 1 \(t = 1\.000000e-02\); 4096 bad samples of 4096"):
            evolve(st, 0.01, 0.1)


def test_evolve_schedule_and_validation():
    p = make_params(grid16(), 0.2)
    st = init_state("gaussian", p, widths=(1.0, 1.0, 1.0))
    res = evolve(st, 0.004, 0.1, observer_stride=10)
    times = [o.t for o in res.observables]
    assert times == pytest.approx([0.0, 0.04, 0.08, 0.1])
    with pytest.raises(ParameterDomainError):
        evolve(st, 0.01, -1.0)
    with pytest.raises(ParameterDomainError):
        evolve(st, 0.0, 1.0)
    with pytest.raises(ParameterDomainError):
        evolve(st, 0.01, 1.0, observer_stride=0)


def test_evolve_refuses_partial_last_step():
    # 1.0 / 0.3 = 3.33 steps: refused instead of stopping at t = 0.9
    st = init_state("uniform", make_params(grid16(), 0.2), n0=1.0)
    with pytest.raises(ParameterDomainError, match="whole"):
        evolve(st, 0.3, 1.0)
    # spans that are whole up to floating-point division still run
    assert evolve(st, 0.1, 0.3).final.t == pytest.approx(0.3)


def test_potential_is_reused_across_steps(monkeypatch):
    # n steps with k observations make n + 1 convolutions in total: the t = 0
    # observation makes the one step 1 opens with, each step one more, and
    # the later observations reuse the convolution of the step before them
    p = make_params(grid16(), 0.5)
    st = init_state("gaussian", p, widths=(1.0, 1.0, 1.0))
    calls = {"step": 0, "observables": 0}
    in_observables = []
    convolve, observe = gpe.convolve_density, gpe.observables

    def counting_convolve(*args, **kwargs):
        calls["observables" if in_observables else "step"] += 1
        return convolve(*args, **kwargs)

    def marked_observables(*args, **kwargs):
        in_observables.append(True)
        try:
            return observe(*args, **kwargs)
        finally:
            in_observables.pop()

    monkeypatch.setattr(gpe, "convolve_density", counting_convolve)
    monkeypatch.setattr(gpe, "observables", marked_observables)
    n = 7
    res = evolve(st, 0.01, n * 0.01, observer_stride=3)
    assert len(res.observables) == 4
    assert calls["observables"] == 1
    assert calls["step"] == n
    assert calls["observables"] + calls["step"] == n + 1


OBSERVABLE_FIELDS = ("norm", "energy_total", "kinetic_perp", "kinetic_z", "dipolar",
                     "peak_density", "center_of_mass", "variance")


def dipolar_potential(state):
    """Mean-field dipolar potential hbar sin^2(theta) (eps conv |phi|^2)."""
    p = state.params
    return p.hbar * p.sin2_theta * convolve_density(p.table, np.abs(state.phi) ** 2)


def observables_oracle(state):
    """The sums over broadcast coordinate and wavenumber meshes observables once made."""
    p = state.params
    grid = p.grid
    dv = grid.cell_volume
    phi = state.phi
    rho = np.abs(phi) ** 2
    norm = float(np.sum(rho)) * dv
    weight = np.abs(np.fft.fftn(phi)) ** 2 * (dv / phi.size)
    qx, qy, qz = grid.wavenumber_mesh()
    kin_perp = float(np.sum(p.hbar**2 * (qx**2 + qy**2) / (2.0 * p.m_perp) * weight))
    kin_z = float(np.sum(p.hbar**2 * qz**2 * 0.5 * (1.0 / p.m_par).real * weight))
    dip = 0.5 * float(np.sum(dipolar_potential(state) * rho)) * dv
    mesh = grid.meshgrid()
    com = tuple(float(np.sum(c * rho)) * dv / norm for c in mesh)
    var = tuple(float(np.sum((c - m) ** 2 * rho)) * dv / norm for c, m in zip(mesh, com))
    return dict(norm=norm, energy_total=kin_perp + kin_z + dip, kinetic_perp=kin_perp,
                kinetic_z=kin_z, dipolar=dip, peak_density=float(np.max(rho)),
                center_of_mass=com, variance=var)


def assert_observables_close(got, expected, rel):
    # energies against the largest energy term, positions against the box
    grid_scale = max(got.variance) + max(abs(c) for c in got.center_of_mass)
    energy_scale = abs(got.kinetic_perp) + abs(got.kinetic_z) + abs(got.dipolar)
    for name in OBSERVABLE_FIELDS:
        a = np.atleast_1d(getattr(got, name))
        b = np.atleast_1d(expected[name] if isinstance(expected, dict) else getattr(expected, name))
        scale = {"center_of_mass": grid_scale, "variance": grid_scale,
                 "energy_total": energy_scale}.get(name, np.max(np.abs(b)))
        assert np.max(np.abs(a - b)) <= rel * scale, name


def _offaxis_cutoff_params():
    grid = grid16()
    spec = KernelSpec(orientation=(1.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0), strength=0.05,
                      cutoff_radius=0.6)
    return GpeParams(m_perp=1.0, m_par=1.0, sin2_theta=0.8,
                     table=kernel_table_fourier(grid, spec), hbar=1.0)


@pytest.mark.parametrize("make", [
    lambda: make_params(grid16(), 0.5),
    lambda: make_params(grid16(), 0.5, m_par=1.0 + 0.2j),
    _offaxis_cutoff_params,
    lambda: make_params(GridSpec(dims=(16, 12, 10), spacings=(0.3, 0.5, 0.7)), -0.4,
                        m_par=1.7),
], ids=["gaussian", "complex-m_par", "off-axis-cutoff", "non-cubic"])
def test_propagator_fed_observables_equal_standalone(make):
    p = make()
    g0 = init_state("gaussian", p, widths=(1.0, 1.2, 0.9), center=(3.0, 2.5, 3.5))
    st = CondensateState(g0.phi * 3.0, 0.0, p)
    prop = gpe.SplitStep(p, 0.01)
    fed = [observables(st, 1, prop)]
    fields = [st]

    def visit(i, current):
        fed.append(observables(current, 1, prop))
        fields.append(current)

    prop.run(st, 4, visit)
    assert len(fed) == 5
    for got, state in zip(fed, fields):
        alone = observables(state)
        assert got.t == alone.t
        assert_observables_close(got, alone, 1e-12)
        # the per-axis marginals reproduce the broadcast-mesh sums
        assert_observables_close(alone, observables_oracle(state), 1e-12)
    # a field the propagator has not convolved is convolved afresh
    other = CondensateState(fields[2].phi * 0.5, 0.0, p)
    assert_observables_close(observables(other, 1, prop), observables(other), 1e-12)


def test_observables_refuse_a_propagator_of_other_params():
    p = make_params(grid16(), 0.5)
    st = init_state("uniform", p, n0=1.0)
    prop = gpe.SplitStep(make_params(grid16(), 0.5), 0.01)
    with pytest.raises(ParameterDomainError, match="different params"):
        observables(st, 1, prop)


def test_reused_potential_matches_fresh_steps():
    # stepping the propagator's own output reuses its end-of-step potential;
    # fresh single steps recompute it; both give the same field
    p = make_params(grid16(), 0.5)
    g0 = init_state("gaussian", p, widths=(1.0, 1.1, 0.9))
    st = CondensateState(g0.phi * 3.0, 0.0, p)
    fused = gpe.SplitStep(p, 0.02).run(st, 5)
    fresh = st
    for _ in range(5):
        fresh = gpe.SplitStep(p, 0.02).step(fresh)
    err = np.max(np.abs(fused.phi - fresh.phi)) / np.max(np.abs(fresh.phi))
    assert err <= 1e-14
    assert fused.t == pytest.approx(fresh.t, rel=1e-15)


# ------------------------------------------------- kernel-calibrated coupling

def test_dipolar_potential_uniform_vanishes():
    p = make_params(grid16(), 0.8)
    st = init_state("uniform", p, n0=2.0)
    v = dipolar_potential(st)
    scale = abs(float(np.max(np.abs(p.table.coeffs)))) * 2.0
    assert np.max(np.abs(v)) <= 1e-12 * scale


def test_dipolar_potential_single_cosine_mode():
    grid = grid16()
    p = make_params(grid, 0.6)
    n0, a = 2.0, 0.01
    q = lattice_q(grid, 0, 0, 3)
    _, _, zm = grid.meshgrid()
    mode = np.cos(q[2] * zm) * np.ones(grid.shape)
    st = CondensateState(np.sqrt(n0 * (1.0 + a * mode)).astype(complex), 0.0, p)
    v = dipolar_potential(st)
    expected = p.hbar * p.sin2_theta * n0 * a * float(p.table.coeffs[0, 0, 3]) * mode
    assert np.max(np.abs(v - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_effective_coupling_values():
    grid = grid16()
    c_dd = 0.5
    p = make_params(grid, c_dd, n0=1.0)
    qz = lattice_q(grid, 0, 0, 2)
    t_q = float(p.table.coeffs[0, 0, 2])
    assert effective_dipolar_coupling(p, qz, 1.0) == pytest.approx(t_q, rel=1e-14)
    # the truncated kernel realizes the continuum coupling only up to the
    # sphere envelope; at q R = 2 pi that correction is about 8%
    assert effective_dipolar_coupling(p, qz, 1.0) == pytest.approx(c_dd, rel=0.15)
    minus = tuple(-c for c in qz)
    assert effective_dipolar_coupling(p, minus, 1.0) == pytest.approx(
        effective_dipolar_coupling(p, qz, 1.0), rel=1e-14)
    magic = lattice_q(grid, 5, 5, 5)  # angular factor vanishes on the diagonal
    assert effective_dipolar_coupling(p, magic, 1.0) == 0.0
    assert effective_dipolar_coupling(p, (0.0, 0.0, 0.0), 1.0) == 0.0
    with pytest.raises(ParameterDomainError):
        effective_dipolar_coupling(p, qz, 0.0)


def test_predicted_frequency_against_closed_form():
    grid = grid16()
    p = make_params(grid, 0.5)
    n0 = 1.5
    q = lattice_q(grid, 0, 0, 3)
    e_free = q[2] ** 2 / 2.0  # hbar = m = 1
    e_int = 2.0 * n0 * p.sin2_theta * float(p.table.coeffs[0, 0, 3])
    expected = math.sqrt(e_free * (e_free + e_int))
    nu = predicted_mode_frequency(p, q, n0)
    assert nu.imag == 0.0
    assert nu.real == pytest.approx(expected, rel=1e-13)

    magic = lattice_q(grid, 5, 5, 5)
    e_magic = 0.5 * (magic[0] ** 2 + magic[1] ** 2 + magic[2] ** 2)
    assert predicted_mode_frequency(p, magic, n0).real == pytest.approx(
        e_magic, rel=1e-13)

    soft = make_params(grid, -0.6)
    nu_soft = predicted_mode_frequency(soft, lattice_q(grid, 0, 0, 1), 1.0)
    assert nu_soft.real == 0.0
    assert nu_soft.imag > 0.0


def test_linear_response_stable_mode():
    grid = grid16()
    p = make_params(grid, 0.5)
    q = lattice_q(grid, 0, 0, 1)
    res = linear_response_experiment(p, q, 1e-4)
    assert res.nu_predicted.imag == 0.0
    dev = abs(res.nu_fit - res.nu_predicted) / abs(res.nu_predicted)
    assert dev <= 0.05
    assert res.residual <= 1e-3
    assert res.effective_c_dd == pytest.approx(
        effective_dipolar_coupling(p, q, 1.0), rel=1e-14)
    assert res.q == pytest.approx(q)
    assert res.times.shape == res.amplitudes.shape
    assert res.times[0] == 0.0


def test_linear_response_unstable_mode():
    grid = grid16()
    p = make_params(grid, -0.5)
    q = lattice_q(grid, 0, 0, 1)
    res = linear_response_experiment(p, q, 1e-4)
    assert res.nu_predicted.real == 0.0 and res.nu_predicted.imag > 0.0
    assert res.nu_fit.real == 0.0
    dev = abs(res.nu_fit.imag - res.nu_predicted.imag) / res.nu_predicted.imag
    assert dev <= 0.05


def test_mode_amplitude_projection_matches_fft():
    grid = GridSpec(dims=(16, 12, 10), spacings=(0.3, 0.5, 0.7))
    phi = random_complex(grid.shape, 3)
    spectrum = np.fft.fftn(np.abs(phi) ** 2)
    dv = grid.cell_volume
    for idx in [(0, 0, 1), (3, 0, 0), (5, 7, 9), (15, 11, 5), (8, 6, 0)]:
        got = gpe._density_mode_amplitude(phi, gpe._plane_waves(idx, grid), dv)
        expected = spectrum[idx] * dv
        assert abs(got - expected) <= 1e-12 * abs(expected)


def test_linear_response_refuses_a_complex_mass(monkeypatch):
    # the fit models an undamped mode; a complex mass is refused before stepping
    p = make_params(grid16(), 0.5, m_par=1.0 + 0.01j)

    def no_stepping(*args, **kwargs):
        raise AssertionError("stepped before refusing")

    monkeypatch.setattr(gpe.SplitStep, "run", no_stepping)
    with pytest.raises(ParameterDomainError, match="needs a real mass"):
        linear_response_experiment(p, lattice_q(grid16(), 0, 0, 1), 1e-4)


def test_fit_failure_names_q_in_plain_floats(monkeypatch):
    import scipy.optimize

    p = make_params(grid16(), 0.5)
    q = lattice_q(grid16(), 0, 0, 1)
    # a fit that returns a zero amplitude leaves the whole signal as residual
    monkeypatch.setattr(scipy.optimize, "curve_fit",
                        lambda model, t, y, p0, **kw: ((0.0, p0[1], 0.0), None))
    with pytest.raises(FitFailureError) as info:
        linear_response_experiment(p, q, 1e-4)
    assert str(info.value) == (
        "fit residual 100.0% exceeds 10% of the signal at q = (0, 0, 0.785398)"
    )


def test_linear_response_rejects_zero_mode():
    p = make_params(grid16(), 0.5)
    with pytest.raises(ParameterDomainError):
        linear_response_experiment(p, (0.0, 0.0, 0.0), 1e-4)


# ------------------------------------------------------------- params plumbing

def test_gpe_params_validation():
    table = make_params(grid16(), 0.5).table
    good = dict(m_perp=1.0, m_par=1.0, sin2_theta=0.5, table=table, hbar=1.0)
    GpeParams(**good)
    for bad in (dict(m_perp=0.0), dict(m_par=0.0), dict(sin2_theta=1.5),
                dict(sin2_theta=-0.1), dict(hbar=0.0),
                dict(max_potential_phase=0.0), dict(max_potential_phase=4.0)):
        with pytest.raises(ParameterDomainError):
            GpeParams(**{**good, **bad})


def test_fft_worker_argument(tmp_path):
    p = make_params(grid16(), 0.5)
    g0 = init_state("gaussian", p, widths=(1.0, 1.1, 0.9))
    st = CondensateState(g0.phi * 3.0, 0.0, p)
    with pytest.raises(ParameterDomainError):
        evolve(st, 0.01, 0.05, workers=0)
    one = evolve(st, 0.01, 0.05, workers=1).final.phi
    two = evolve(st, 0.01, 0.05, workers=2).final.phi
    assert np.max(np.abs(two - one)) <= 1e-14 * np.max(np.abs(one))
    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run(
        [sys.executable, "-m", "dipolariton.cli", "selftest", "--threads", "0",
         "--out", str(tmp_path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
    )
    assert run.returncode == 2
    assert "--threads" in run.stderr
