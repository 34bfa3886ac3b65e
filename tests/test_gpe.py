"""Split-step solver: state preparation, conservation laws, linear response."""

import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dipolariton import _fft, gpe
from dipolariton import (
    CondensateParams,
    CondensateState,
    FitFailureError,
    GpeParams,
    GridMismatchError,
    Grid1D,
    GridSpec,
    KernelSpec,
    LinearRunConfig,
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
    spherical_directions,
)
from conftest import lattice_q, make_params, random_complex


def grid16():
    return GridSpec(dims=(16, 16, 16), spacings=(0.5, 0.5, 0.5))


# ----------------------------------------------------------- state factories

def test_uniform_state_norm_and_energy():
    p = make_params(grid16(), 0.5)
    st = init_state("uniform", p, n0=2.5)
    obs = observables(st)
    assert obs.norm == pytest.approx(2.5 * math.prod(p.grid.box_lengths), rel=1e-13)
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


def test_gaussian_n0_lifts_the_unit_norm_state():
    # lifted to the density n0 at the continuum peak 1/((2 pi)^(3/2) wx wy wz)
    grid = GridSpec(dims=(24, 24, 24), spacings=(0.5, 0.5, 0.5))
    p = make_params(grid, 0.0)
    w = (1.0, 1.2, 0.8)
    unit = init_state("gaussian", p, widths=w)
    lifted = init_state("gaussian", p, widths=w, n0=2.5)
    scale = 2.5 * (2.0 * math.pi) ** 1.5 * w[0] * w[1] * w[2]
    assert np.allclose(lifted.phi, unit.phi * math.sqrt(scale), rtol=1e-14, atol=0.0)
    obs = observables(lifted)
    assert obs.norm == pytest.approx(scale, rel=1e-10)
    assert obs.peak_density == pytest.approx(2.5, rel=1e-2)


@pytest.mark.parametrize("n0", [0.0, -1.0, math.nan, math.inf])
def test_gaussian_n0_must_be_positive_and_finite(n0):
    p = make_params(grid16(), 0.5)
    with pytest.raises(ParameterDomainError, match=rf"^n0 must be positive and finite, got {re.escape(repr(n0))}$"):
        init_state("gaussian", p, widths=(1.0, 1.0, 1.0), n0=n0)


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
    nu = dispersion(q, cp)
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
    nu = predicted_mode_frequency(p, q, 1.0)
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
    assert rate < predicted_mode_frequency(replace(p, m_par=m_par.real), q, 1.0).imag


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
    after = gpe.SplitStep(p, 0.05).run(st, 1)
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
    xm, _, zm = np.meshgrid(*grid.axes(), indexing="ij", sparse=True)
    kick = lattice_q(grid, 1, 0, 2)
    st = CondensateState(g0.phi * 2.0 * np.exp(1j * (kick[0] * xm + kick[2] * zm)),
                         0.0, p)

    def momentum(phi):
        spec = np.abs(np.fft.fftn(phi)) ** 2 * (grid.cell_volume / phi.size)
        qx, qy, qz = np.meshgrid(*grid.wavenumbers(), indexing="ij", sparse=True)
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
        one = gpe.SplitStep(p, dt).run(st, 1)
        ref = gpe.SplitStep(p, dt / 64.0).run(st, 64)
        errs.append(np.sqrt(np.sum(np.abs(one.phi - ref.phi) ** 2)
                            / np.sum(np.abs(ref.phi) ** 2)))
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert 2.8 <= slope <= 3.2


def test_potential_phase_guard():
    # at dt = 0.3, 20 times the unit-norm Gaussian takes 0.41 rad per half
    # step, inside the pi/4 guard; twice the amplitude takes four times that
    p = make_params(grid16(), 0.5)
    g0 = init_state("gaussian", p, widths=(1.0, 1.0, 1.0))
    gpe.SplitStep(p, 0.3).run(CondensateState(g0.phi * 20.0, 0.0, p), 1)
    st = CondensateState(g0.phi * 40.0, 0.0, p)
    with pytest.raises(StepSizeError, match=r"guard 0\.785 rad"):
        gpe.SplitStep(p, 0.3).run(st, 1)
    # the stepping loop names where the guard tripped
    with pytest.raises(StepSizeError, match="step 1"):
        evolve(st, 0.3, 0.6)


def test_non_finite_field_is_reported(monkeypatch):
    # one bad sample spreads through the convolution to the whole potential,
    # so a start state with one is refused at step 0, at its own time, after
    # its one convolution and before any visit
    p = make_params(grid16(), 0.5)
    calls = _counting_convolve(monkeypatch)
    for bad in (np.nan, np.inf):
        st = init_state("uniform", p, n0=1.0)
        st.phi[3, 4, 5] = bad
        calls.clear()
        visited = []
        with pytest.raises(NonFiniteStateError, match=r"^non-finite field at step 0 \(t = 2\.500000e-01\)"):
            gpe.SplitStep(p, 0.01).run(replace(st, t=0.25), 5, lambda i, current: visited.append(i))
        assert len(calls) == 1 and visited == []


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
    # n steps with k observations make n + 1 convolutions in total, all in
    # the run: one of the state it starts from and one per step; every
    # observation, the t = 0 one included, reads the run's convolution
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
    assert [o.t for o in res.observables] == pytest.approx([0.0, 0.03, 0.06, 0.07])
    assert calls["observables"] == 0
    assert calls["step"] == n + 1


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
    qx, qy, qz = np.meshgrid(*grid.wavenumbers(), indexing="ij", sparse=True)
    kin_perp = float(np.sum(p.hbar**2 * (qx**2 + qy**2) / (2.0 * p.m_perp) * weight))
    kin_z = float(np.sum(p.hbar**2 * qz**2 * 0.5 * (1.0 / p.m_par).real * weight))
    dip = 0.5 * float(np.sum(dipolar_potential(state) * rho)) * dv
    mesh = np.meshgrid(*grid.axes(), indexing="ij", sparse=True)
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


def _offaxis_cutoff_params(grid=None):
    grid = grid16() if grid is None else grid
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
    g0 = init_state("gaussian", p, widths=(1.0, 1.2, 0.9))
    # off the box centre by whole cells, so no marginal is symmetric about it
    st = CondensateState(np.roll(g0.phi, (-2, -3, -1), axis=(0, 1, 2)) * 3.0, 0.0, p)
    prop = gpe.SplitStep(p, 0.01)
    fed, fields = [], []

    def visit(i, current):
        fed.append(observables(current, prop))
        # the visitor's state is a view of the propagator's buffer, valid
        # only during the call
        fields.append(CondensateState(current.phi.copy(), current.t, p))

    prop.run(st, 4, visit)
    assert len(fed) == 5
    # step 0 is the start state at its own time
    assert np.array_equal(fields[0].phi, st.phi) and fed[0].t == st.t
    for got, state in zip(fed, fields):
        alone = observables(state)
        assert got.t == alone.t
        assert_observables_close(got, alone, 1e-12)
        # the per-axis marginals reproduce the broadcast-mesh sums
        assert_observables_close(alone, observables_oracle(state), 1e-12)


def test_observables_refuse_a_propagator_of_other_params():
    # a propagator serves only the state its run is visiting: not a state of
    # other params, not a copy of the visited state, not any state between runs
    p = make_params(grid16(), 0.5)
    st = init_state("uniform", p, n0=1.0)
    prop = gpe.SplitStep(make_params(grid16(), 0.5), 0.01)
    with pytest.raises(ParameterDomainError, match="visiting"):
        observables(st, prop)
    with pytest.raises(ParameterDomainError, match="different params"):
        prop.run(st, 1)
    own = init_state("uniform", prop.params, n0=1.0)
    refused = []

    def visit(i, current):
        for other in (st, CondensateState(current.phi.copy(), current.t, prop.params)):
            with pytest.raises(ParameterDomainError, match="visiting"):
                observables(other, prop)
            refused.append(i)

    prop.run(own, 2, visit)
    assert refused == [0, 0, 1, 1, 2, 2]
    with pytest.raises(ParameterDomainError, match="visiting"):
        observables(own, prop)


def test_reused_potential_matches_fresh_steps():
    # a run reuses each end-of-step potential for the next step and fuses the
    # half-steps between them; fresh single steps recompute it and rotate
    # twice; both give the same field
    p = make_params(grid16(), 0.5)
    g0 = init_state("gaussian", p, widths=(1.0, 1.1, 0.9))
    st = CondensateState(g0.phi * 3.0, 0.0, p)
    fused = gpe.SplitStep(p, 0.02).run(st, 5)
    fresh = st
    for _ in range(5):
        fresh = gpe.SplitStep(p, 0.02).run(fresh, 1)
    err = np.max(np.abs(fused.phi - fresh.phi)) / np.max(np.abs(fresh.phi))
    assert err <= 1e-14
    assert fused.t == pytest.approx(fresh.t, rel=1e-15)


def _counting_convolve(monkeypatch):
    calls = []
    convolve = gpe.convolve_density

    def counting(*args, **kwargs):
        calls.append(1)
        return convolve(*args, **kwargs)

    monkeypatch.setattr(gpe, "convolve_density", counting)
    return calls


@pytest.mark.parametrize("every", [1, 3, 7])
def test_run_costs_n_plus_one_convolutions(monkeypatch, every):
    # with or without a visitor, and whatever its stride, a run of n steps
    # convolves once for the state it starts from and once per step; the
    # visitor sees step 0, every every-th step and the last, and observing
    # what it sees costs no convolution
    p = make_params(grid16(), 0.5)
    st = init_state("gaussian", p, widths=(1.0, 1.0, 1.0))
    calls = _counting_convolve(monkeypatch)
    gpe.SplitStep(p, 0.01).run(st, 7)
    assert len(calls) == 8
    prop = gpe.SplitStep(p, 0.01)
    for observe in (False, True):
        calls.clear()
        visited = []

        def visit(i, current):
            visited.append((i, current.t))
            if observe:
                observables(current, prop)

        prop.run(st, 7, visit, every=every)
        assert len(calls) == 8
        assert [i for i, _ in visited] == [0] + [i for i in range(1, 8) if i % every == 0 or i == 7]
        assert [t for _, t in visited] == pytest.approx([0.01 * i for i, _ in visited])


@pytest.mark.parametrize("n_steps, every", [(-3, 1), (0, 1), (2.5, 1), (3, 0)])
def test_run_refuses_step_counts_it_cannot_honour(monkeypatch, n_steps, every):
    # refused before the first convolution, with or without a visitor, by
    # the name and value of the count at fault
    p = make_params(grid16(), 0.5)
    st = init_state("gaussian", p, widths=(1.0, 1.0, 1.0))
    calls = _counting_convolve(monkeypatch)
    name, value = ("every", every) if n_steps == 3 else ("n_steps", n_steps)
    for visit in (None, lambda i, current: None):
        with pytest.raises(ParameterDomainError, match=rf"^{name} must be an integer >= 1, got {value}$"):
            gpe.SplitStep(p, 0.01).run(st, n_steps, visit, every=every)
    assert calls == []


def test_run_times_are_computed_not_summed():
    # 1000 steps of 2.5e-3 summed from 0 end at 2.499999999999958; computed,
    # every visited time is state.t + i dt bit for bit, and so is the final one
    p = make_params(grid16(), 0.5)
    st = replace(init_state("gaussian", p, widths=(1.0, 1.0, 1.0)), t=0.125)
    visited = []
    final = gpe.SplitStep(p, 2.5e-3).run(st, 1000, lambda i, current: visited.append((i, current.t)),
                                         every=7)
    assert final.t == 0.125 + 1000 * 2.5e-3
    assert len(visited) == 144 and all(t == 0.125 + i * 2.5e-3 for i, t in visited)
    assert evolve(replace(st, t=0.0), 2.5e-3, 2.5, observer_stride=500).final.t == 2.5


def test_a_run_from_a_visitor_of_the_same_propagator_is_refused():
    # refused before it touches the field buffer; the outer run fails with
    # that refusal and leaves the propagator as good as a fresh one
    p = make_params(grid16(), 0.5)
    st = CondensateState(init_state("gaussian", p, widths=(1.0, 1.1, 0.9)).phi * 3.0, 0.0, p)
    prop = gpe.SplitStep(p, 0.02)
    inner = []

    def visit(i, current):
        if i == 2:
            prop.run(current, 1)
        inner.append(observables(current, prop))

    with pytest.raises(ParameterDomainError, match="in progress"):
        prop.run(st, 4, visit)
    # a visitor that catches the refusal leaves the outer run unchanged
    seen = []

    def catching(i, current):
        with pytest.raises(ParameterDomainError, match="in progress"):
            prop.run(current, 1)
        seen.append(observables(current, prop))

    got = prop.run(st, 4, catching)
    fresh = gpe.SplitStep(p, 0.02)
    want = []
    assert np.array_equal(got.phi, fresh.run(st, 4, lambda i, c: want.append(observables(c, fresh))).phi)
    assert seen == want and inner == want[:2]
    assert np.array_equal(prop.run(st, 3).phi, gpe.SplitStep(p, 0.02).run(st, 3).phi)


def test_visitor_state_is_read_only_and_the_callers_state_is_kept():
    p = make_params(grid16(), 0.5)
    st = init_state("gaussian", p, widths=(1.0, 1.1, 0.9))
    before = st.phi.copy()

    def visit(i, current):
        with pytest.raises(ValueError, match="read-only"):
            current.phi[0, 0, 0] = 0.0

    final = gpe.SplitStep(p, 0.01).run(st, 3, visit)
    assert np.array_equal(st.phi, before)
    assert final.phi.flags.writeable and not np.shares_memory(final.phi, st.phi)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("every", [1, 5], ids=["unfused", "fused"])
def test_a_consumed_run_steps_in_the_callers_array(workers, every):
    # 32 x 64 x 64 is 2 MiB of field: two chunks per sweep, which 2 threads
    # split; every = 5 fuses the half-steps between visits, every = 1 does not
    p = _offaxis_cutoff_params(GridSpec(dims=(32, 64, 64), spacings=(0.25, 0.25, 0.25)))
    st = CondensateState(random_complex(p.grid.shape, 4) * 0.5, 0.0, p)
    ignore = lambda i, current: None
    want = gpe.SplitStep(p, 0.01, workers).run(st, 10, ignore, every=every)
    phi = st.phi.copy()
    got = gpe.SplitStep(p, 0.01, workers).run(CondensateState(phi, 0.0, p), 10, ignore,
                                              every=every, consume=True)
    assert got.phi is phi
    assert np.array_equal(got.phi, want.phi) and got.t == want.t


@pytest.mark.parametrize("layout", ["fortran", "strided", "visited"])
def test_a_consumed_run_copies_a_field_it_cannot_step_in(layout):
    # only a C-contiguous writable field is stepped in place; any other is
    # copied, as without consume, and left as it was
    p = make_params(grid16(), 0.5)
    g = init_state("gaussian", p, widths=(1.0, 1.1, 0.9)).phi * 3.0
    want = gpe.SplitStep(p, 0.02).run(CondensateState(g, 0.0, p), 4).phi
    got = []

    def consume(state):
        before = state.phi.copy()
        final = gpe.SplitStep(p, 0.02).run(state, 4, consume=True)
        assert np.array_equal(state.phi, before) and not np.shares_memory(final.phi, state.phi)
        got.append(final.phi)

    if layout == "visited":
        # a visitor's current is a read-only view of another run's field buffer
        gpe.SplitStep(p, 0.02).run(CondensateState(g, 0.0, p), 1,
                                   lambda i, current: consume(current) if i == 0 else None)
    elif layout == "fortran":
        consume(CondensateState(np.asfortranarray(g), 0.0, p))
    else:
        wide = np.zeros((16, 16, 32), dtype=complex)
        wide[:, :, ::2] = g
        consume(CondensateState(wide[:, :, ::2], 0.0, p))
    assert len(got) == 1 and np.array_equal(got[0], want)


def test_a_consumed_run_from_a_visitor_of_the_same_propagator_is_refused_before_any_write():
    p = make_params(grid16(), 0.5)
    g = init_state("gaussian", p, widths=(1.0, 1.1, 0.9)).phi * 3.0
    other = init_state("gaussian", p, widths=(0.9, 1.0, 1.1))
    before = other.phi.copy()
    prop = gpe.SplitStep(p, 0.02)

    def visit(i, current):
        with pytest.raises(ParameterDomainError, match="in progress"):
            prop.run(other, 1, consume=True)
        assert np.array_equal(other.phi, before)

    got = prop.run(CondensateState(g.copy(), 0.0, p), 4, visit, consume=True)
    want = gpe.SplitStep(p, 0.02).run(CondensateState(g, 0.0, p), 4, lambda i, current: None)
    assert np.array_equal(got.phi, want.phi)


def test_fused_half_steps_match_visited_steps():
    # every = 5 fuses the half-steps between visits, every = 1 rotates twice
    p = _offaxis_cutoff_params()
    g0 = init_state("gaussian", p, widths=(1.0, 1.2, 0.9))
    st = CondensateState(g0.phi * 3.0, 0.0, p)
    ignore = lambda i, current: None
    fused = gpe.SplitStep(p, 0.02).run(st, 10, ignore, every=5)
    visited = gpe.SplitStep(p, 0.02).run(st, 10, ignore, every=1)
    assert np.max(np.abs(fused.phi - visited.phi)) <= 1e-14 * np.max(np.abs(visited.phi))
    assert fused.t == visited.t


def test_visitor_observing_another_state_leaves_the_run_unchanged():
    # another state is observed on a throwaway propagator of its own, and
    # the run's propagator refuses it, so the run's buffers are never touched
    p = make_params(grid16(), 0.5)
    st = CondensateState(init_state("gaussian", p, widths=(1.0, 1.1, 0.9)).phi * 3.0, 0.0, p)
    other = init_state("uniform", p, n0=1.0)
    prop = gpe.SplitStep(p, 0.02)
    alone = observables(other)

    def visit(i, current):
        assert observables(other) == alone
        with pytest.raises(ParameterDomainError, match="visiting"):
            observables(other, prop)

    got = prop.run(st, 6, visit, every=2)
    want = gpe.SplitStep(p, 0.02).run(st, 6, lambda i, current: None, every=2)
    assert np.array_equal(got.phi, want.phi)


def reference_step(phi, p, dt):
    """One Strang step on whole arrays: np.fft transforms and a full-grid kinetic phase."""
    def half_potential(phi):
        conv = np.fft.irfftn(np.fft.rfftn(np.abs(phi) ** 2) * p.table.coeffs, s=phi.shape, axes=(0, 1, 2))
        return np.exp(-0.5j * dt * p.sin2_theta * conv) * phi

    qx, qy, qz = np.meshgrid(*p.grid.wavenumbers(), indexing="ij", sparse=True)
    omega = p.hbar * ((qx**2 + qy**2) / (2.0 * p.m_perp) + qz**2 / (2.0 * p.m_par))
    phi = half_potential(phi)
    phi = np.fft.ifftn(np.exp(-1j * dt * omega) * np.fft.fftn(phi))
    return half_potential(phi)


@pytest.mark.parametrize("dims, m_par", [((10, 12, 14), 1.7), ((16, 16, 16), 1.0 + 0.2j)],
                         ids=["10x12x14", "16x16x16"])
def test_swept_steps_match_a_whole_array_reference(dims, m_par):
    grid = GridSpec(dims=dims, spacings=(0.3, 0.5, 0.7))
    p = make_params(grid, -0.4, m_perp=1.3, m_par=m_par)
    g0 = init_state("gaussian", p, widths=(1.0, 1.2, 0.9))
    st = CondensateState(np.roll(g0.phi, (-2, -3, -1), axis=(0, 1, 2)) * 3.0, 0.0, p)
    want = st.phi
    for n in (1, 2, 3):
        want = reference_step(want, p, 0.02)
        got = gpe.SplitStep(p, 0.02).run(st, n).phi
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), n


def test_runs_on_one_two_and_three_workers_are_bit_identical():
    # 64^3 is 4 MiB of field: 4 chunks per sweep, which 2 and 3 threads split
    p = _offaxis_cutoff_params(GridSpec(dims=(64, 64, 64), spacings=(0.25, 0.25, 0.25)))
    st = CondensateState(random_complex(p.grid.shape, 8) * 0.5, 0.0, p)
    runs = {}
    for workers in (1, 2, 3):
        prop = gpe.SplitStep(p, 0.01, workers)
        seen = []
        final = prop.run(st, 3, lambda i, current: seen.append(observables(current, prop)), every=2)
        runs[workers] = (final.phi, seen)
    for workers in (2, 3):
        assert np.array_equal(runs[workers][0], runs[1][0]), workers
        assert runs[workers][1] == runs[1][1], workers


# numpy FFT calls per step of the design that ran the c2c pair as two whole-array
# transforms of two calls each, and r2c and c2r as three calls each
_FFT_CALLS_PER_STEP_BEFORE = 10


@pytest.mark.parametrize("n", [12, 16])
def test_a_step_makes_no_more_numpy_fft_calls_than_before(monkeypatch, n):
    p = make_params(GridSpec(dims=(n, n, n), spacings=(0.5, 0.5, 0.5)), 0.5)
    st = init_state("gaussian", p, widths=(1.0, 1.1, 0.9))
    calls = []
    for name in ("fft", "ifft", "fftn", "ifftn", "fft2", "ifft2", "rfft", "irfft", "rfftn", "irfftn"):
        def counting(*args, _f=getattr(np.fft, name), **kwargs):
            calls.append(1)
            return _f(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counting)
    counts = []
    for steps in (1, 3):
        calls.clear()
        gpe.SplitStep(p, 0.01).run(st, steps)
        counts.append(len(calls))
    assert (counts[1] - counts[0]) / 2 <= _FFT_CALLS_PER_STEP_BEFORE


def test_observables_do_not_depend_on_worker_count():
    # 64^3 is 4 MiB of field: 4 chunks per sweep, which 2 and 3 threads
    # split; the step-0 observables equal the standalone ones bit for bit
    p = _offaxis_cutoff_params(GridSpec(dims=(64, 64, 64), spacings=(0.25, 0.25, 0.25)))
    st = CondensateState(random_complex(p.grid.shape, 5), 0.0, p)
    alone = observables(st)
    for workers in (1, 2, 3):
        prop = gpe.SplitStep(p, 0.01, workers)
        seen = []
        prop.run(st, 1, lambda i, current: seen.append(observables(current, prop)), every=1)
        assert seen[0] == alone, workers


def test_observables_of_a_field_with_one_nan_sample_are_nan():
    # the peak and the marginals are reduced plane by plane, in two chunks of
    # 16 planes here; a NaN in the second must reach peak_density and norm.
    # A run never visits such a field: it refuses it at step 0
    p = make_params(GridSpec(dims=(32, 64, 64), spacings=(0.5, 0.5, 0.5)), 0.5)
    st = init_state("gaussian", p, widths=(1.0, 1.1, 0.9))
    phi = st.phi.copy()
    phi[20, 4, 5] = np.nan
    obs = observables(CondensateState(phi, 0.0, p))
    assert math.isnan(obs.peak_density)
    assert math.isnan(obs.norm)


def test_separable_gaussian_matches_the_full_grid_formula():
    grid = GridSpec(dims=(16, 12, 10), spacings=(0.3, 0.5, 0.7))
    p = make_params(grid, 0.5)
    w = (0.9, 1.3, 1.1)
    xm, ym, zm = np.meshgrid(*grid.axes(), indexing="ij", sparse=True)
    ctr = [0.5 * length for length in grid.box_lengths]
    envelope = np.exp(-((xm - ctr[0]) ** 2) / (4.0 * w[0] ** 2)
                      - ((ym - ctr[1]) ** 2) / (4.0 * w[1] ** 2)
                      - ((zm - ctr[2]) ** 2) / (4.0 * w[2] ** 2))
    full = envelope / math.sqrt(np.sum(envelope**2) * grid.cell_volume)
    got = init_state("gaussian", p, widths=w).phi
    assert np.max(np.abs(got - full)) <= 1e-15 * np.max(np.abs(full))
    assert not np.any(got.imag)


@pytest.mark.parametrize("consume, bound", [(False, 2.0), (True, 1.0)], ids=["copy", "consume"])
def test_evolve_peak_memory_above_the_held_state(consume, bound):
    # in field sizes: the propagator's field buffer (1, none when the run
    # consumes the held state) and its padded half spectrum (about 0.51),
    # which holds |phi|^2 and then its convolution, plus chunk-sized
    # temporaries
    grid = GridSpec(dims=(96, 96, 96), spacings=(0.5, 0.5, 0.5))
    p = make_params(grid, 0.5)
    st = init_state("gaussian", p, widths=(4.0, 4.0, 4.0))
    tracemalloc.start()
    try:
        evolve(st, 0.01, 0.04, observer_stride=4, consume=consume)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * st.phi.nbytes


@pytest.mark.parametrize("kind, kw", [
    ("uniform", dict(n0=2.0)),
    ("gaussian", dict(widths=(4.0, 5.0, 6.0))),
    ("gaussian", dict(widths=(4.0, 5.0, 6.0), n0=2.0)),
    ("perturbed_plane_wave", dict(n0=2.0, delta=1e-4, q=(0, 0, 3))),
    ("perturbed_plane_wave", dict(n0=2.0, delta=1e-4, q=(1, 2, 3))),
], ids=["uniform", "gaussian", "gaussian-n0", "plane-wave-axis", "plane-wave-oblique"])
def test_init_state_peak_memory_is_one_field(kind, kw):
    # in field sizes: the returned field (1) and per-axis factors; a
    # full-grid coordinate or phase array would add at least 0.5. q is
    # given by its lattice index
    grid = GridSpec(dims=(64, 64, 64), spacings=(0.5, 0.5, 0.5))
    p = make_params(grid, 0.5)
    if "q" in kw:
        kw = dict(kw, q=lattice_q(grid, *kw["q"]))
    tracemalloc.start()
    try:
        st = init_state(kind, p, **kw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.15 * st.phi.nbytes


def test_response_peak_memory_holds_one_field_and_the_convolution():
    # in field sizes: the run holds the start state, which it steps in (1),
    # the convolution buffer (about 0.51) and a 1 MiB scratch row (0.25),
    # whichever of the state and the propagator is built first. The
    # kernel table is built untraced
    grid = GridSpec(dims=(64, 64, 64), spacings=(0.5, 0.5, 0.5))
    p = make_params(grid, 0.5)
    tracemalloc.start()
    try:
        linear_response_experiment(p, lattice_q(grid, 0, 0, 1), 1e-4, duration=0.08, dt=0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.95 * 64**3 * 16


def test_kinetic_phase_is_the_largest_on_the_grid():
    grid = GridSpec(dims=(16, 12, 10), spacings=(0.3, 0.5, 0.7))
    for m_par in (1.7, 0.4 + 0.3j):
        p = make_params(grid, 0.5, m_perp=1.3, m_par=m_par)
        qx, qy, qz = np.meshgrid(*grid.wavenumbers(), indexing="ij", sparse=True)
        omega = (qx**2 + qy**2) / (2.0 * p.m_perp) + qz**2 * 0.5 * (1.0 / p.m_par).real
        assert gpe._kinetic_phase(p, -0.05) == pytest.approx(0.05 * np.max(omega), rel=1e-14)


def test_response_step_cap_is_half_the_kinetic_resonance():
    # on this grid the kinetic cap binds, so the default step takes pi / 2
    p = make_params(grid16(), 0.5)
    res = linear_response_experiment(p, lattice_q(grid16(), 0, 0, 1), 1e-4)
    assert gpe._kinetic_phase(p, res.times[1]) == pytest.approx(0.5 * math.pi, rel=1e-14)


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
    _, _, zm = np.meshgrid(*grid.axes(), indexing="ij", sparse=True)
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


@pytest.mark.parametrize("method", ["lattice", "analytic"])
def test_effective_coupling_is_even_in_q(method):
    # the table keeps kz = 0 .. nz/2; a q past that plane reads its mirror
    grid = GridSpec(dims=(12, 10, 16), spacings=(0.5, 0.6, 0.4))
    spec = KernelSpec(orientation=(0.6, 0.0, 0.8), strength=0.05, cutoff_radius=0.3)
    p = GpeParams(m_perp=1.0, m_par=1.0, sin2_theta=0.8, hbar=1.0,
                  table=kernel_table_fourier(grid, spec, method=method))
    for i, k in ((0, 3), (2, 5), (5, 7)):
        plus = effective_dipolar_coupling(p, lattice_q(grid, i, 0, k), 1.0)
        assert plus != 0.0
        assert effective_dipolar_coupling(p, lattice_q(grid, -i, 0, -k), 1.0) == plus


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


@pytest.mark.parametrize("workers", [1, 2])
def test_convolution_reads_the_density_mode_off_its_spectrum(workers):
    # the readout the response run takes; (5, 7, 9) lies above the half
    # spectrum (9 > 10 // 2) and is read as the conjugate of (11, 5, 1)
    grid = GridSpec(dims=(16, 12, 10), spacings=(0.3, 0.5, 0.7))
    table = make_params(grid, 0.5).table
    rho = np.abs(random_complex(grid.shape, 3)) ** 2
    spectrum = np.fft.fftn(rho)
    dv = grid.cell_volume
    plain_peaks, peaks, out = np.empty(16), np.empty(16), np.empty(1, dtype=complex)
    plain = convolve_density(table, rho, workers, peaks=plain_peaks).copy()
    for idx in [(0, 0, 1), (3, 0, 0), (5, 7, 9), (15, 11, 5), (8, 6, 0)]:
        got = convolve_density(table, rho, workers, peaks=peaks, mode=(idx, out))
        expected = spectrum[idx] * dv
        assert abs(out[0] * dv - expected) <= 1e-12 * abs(expected), idx
        # reading the mode changes neither the convolution nor its peaks
        assert np.array_equal(got, plain) and np.array_equal(peaks, plain_peaks)
    # the table's zeros do not hide the mode: it is read before the product
    blind = table.coeffs.copy()
    blind[5, 7, 1] = blind[11, 5, 1] = 0.0
    blind_table = replace(table, coeffs=blind)
    for idx in [(5, 7, 1), (11, 5, 9)]:
        convolve_density(blind_table, rho, workers, mode=(idx, out))
        assert abs(out[0] - spectrum[idx]) <= 1e-12 * abs(spectrum[idx]), idx
    with pytest.raises(ParameterDomainError, match="not in"):
        convolve_density(table, rho, mode=((16, 0, 0), out))
    with pytest.raises(ParameterDomainError, match="complex"):
        convolve_density(table, rho, mode=((1, 0, 0), np.empty(1)))


def test_a_response_run_costs_what_a_bare_run_costs(monkeypatch):
    # the mode is read off the run's own convolutions: n + 1 of them, no
    # visitor, so the half-steps fuse into n + 1 rotation sweeps, and not
    # one numpy FFT call more than a bare run of n steps makes
    grid = grid16()
    p = make_params(grid, 0.5)
    q = lattice_q(grid, 0, 0, 1)
    # a 16^3 field is one chunk per sweep, so one _rotate call per rotation sweep
    assert len(_fft.chunks(16, grid.shape[1] * grid.shape[2] * 16)) == 1
    counts = {"convolve": 0, "rotate": 0, "fft": 0}
    visits = []

    def counting(name, f):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(gpe, "convolve_density", counting("convolve", gpe.convolve_density))
    monkeypatch.setattr(gpe.SplitStep, "_rotate", counting("rotate", gpe.SplitStep._rotate))
    for name in ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, counting("fft", getattr(np.fft, name)))
    run = gpe.SplitStep.run

    def spying_run(self, state, n_steps, visit=None, **kwargs):
        visits.append(visit)
        return run(self, state, n_steps, visit, **kwargs)

    monkeypatch.setattr(gpe.SplitStep, "run", spying_run)
    res = linear_response_experiment(p, q, 1e-4)
    n = len(res.times) - 1
    assert visits == [None]
    assert counts["convolve"] == n + 1 and counts["rotate"] == n + 1
    response_ffts = counts["fft"]
    counts["fft"] = 0
    gpe.SplitStep(p, res.times[1]).run(init_state("perturbed_plane_wave", p, n0=1.0, delta=1e-4, q=q), n)
    assert response_ffts == counts["fft"]


def test_response_default_length_is_one_period_or_0_875_over_g():
    grid = grid16()
    q = lattice_q(grid, 0, 0, 1)
    for c_dd, span in ((0.5, lambda nu: 2.0 * math.pi / nu.real), (-0.5, lambda nu: 0.875 / nu.imag)):
        p = make_params(grid, c_dd)
        res = linear_response_experiment(p, q, 1e-4)
        dt = res.times[1]
        assert len(res.times) - 1 == round(span(res.nu_predicted) / dt)


def test_linear_response_refuses_a_complex_mass(monkeypatch):
    # the fit models an undamped mode; a complex mass is refused before stepping
    p = make_params(grid16(), 0.5, m_par=1.0 + 0.01j)

    def no_stepping(*args, **kwargs):
        raise AssertionError("stepped before refusing")

    monkeypatch.setattr(gpe.SplitStep, "run", no_stepping)
    with pytest.raises(ParameterDomainError, match="needs a real mass"):
        linear_response_experiment(p, lattice_q(grid16(), 0, 0, 1), 1e-4)


@pytest.mark.parametrize("dt", [-0.1, 0.0, math.nan, math.inf])
def test_linear_response_refuses_a_dt_that_is_not_positive_and_finite(monkeypatch, dt):
    # refused with or without a duration, before stepping: a negative dt would
    # step backwards and fit a negative frequency, a zero dt makes no steps
    p = make_params(grid16(), 0.5)
    q = lattice_q(grid16(), 0, 0, 1)

    def no_stepping(*args, **kwargs):
        raise AssertionError("stepped before refusing")

    monkeypatch.setattr(gpe.SplitStep, "run", no_stepping)
    for duration in (None, 1.0):
        with pytest.raises(ParameterDomainError, match="dt must be positive and finite"):
            linear_response_experiment(p, q, 1e-4, duration=duration, dt=dt)


@pytest.mark.parametrize("g_times", [1.0, 1.5])
def test_short_growing_run_is_fit_as_growth(g_times):
    # a run shorter than acosh(3) / g never triples its amplitude; the fit must
    # still read it as growth, not as an oscillation with a 98% residual
    grid = grid16()
    p = make_params(grid, -0.5)
    q = lattice_q(grid, 0, 0, 1)
    g = predicted_mode_frequency(p, q, 1.0).imag
    res = linear_response_experiment(p, q, 1e-4, duration=g_times / g)
    assert res.nu_fit.real == 0.0
    assert abs(res.nu_fit.imag - g) / g <= 0.05


def test_response_duration_without_dt_ends_exactly_there():
    # the fewest steps, at least 8, no longer than the default step
    grid = GridSpec(dims=(8, 8, 8), spacings=(0.5, 0.5, 0.5))
    p = make_params(grid, 0.5)
    q = lattice_q(grid, 0, 0, 1)
    cap = linear_response_experiment(p, q, 1e-4).times[1]
    for duration, n_steps in ((10.3 * cap, 11), (3.0 * cap, 8)):
        res = linear_response_experiment(p, q, 1e-4, duration=duration)
        assert len(res.times) == n_steps + 1
        assert res.times[-1] == pytest.approx(duration, rel=1e-15)
        assert res.times[1] <= cap


def test_response_duration_with_dt_is_whole_steps_or_refused(monkeypatch):
    grid = GridSpec(dims=(8, 8, 8), spacings=(0.5, 0.5, 0.5))
    p = make_params(grid, 0.5)
    q = lattice_q(grid, 0, 0, 1)
    res = linear_response_experiment(p, q, 1e-4, duration=1.0, dt=0.025)
    assert len(res.times) == 41
    assert res.times[-1] == pytest.approx(1.0, rel=1e-15)

    def no_stepping(*args, **kwargs):
        raise AssertionError("stepped before refusing")

    monkeypatch.setattr(gpe.SplitStep, "run", no_stepping)
    # 3.33 and 33.3 steps: refused instead of stopping at t = 2.4 or t = 9.9
    for duration in (1.0, 10.0):
        with pytest.raises(ParameterDomainError, match="whole"):
            linear_response_experiment(p, q, 1e-4, duration=duration, dt=0.3)
    with pytest.raises(ParameterDomainError, match="at least 8"):
        linear_response_experiment(p, q, 1e-4, duration=2.1, dt=0.3)
    with pytest.raises(ParameterDomainError, match="positive"):
        linear_response_experiment(p, q, 1e-4, duration=0.0)


def _samples(n=97, dt=0.05):
    return np.arange(n) * dt


@pytest.mark.parametrize("nu, phase", [(0.7, 0.0), (2.3, 1.1), (5.0, -2.0)])
def test_fit_mode_recovers_an_oscillation(nu, phase):
    t = _samples()
    got, resid = gpe._fit_mode(t, 1.7 * np.cos(nu * t + phase))
    assert got.imag == 0.0
    assert got.real == pytest.approx(nu, rel=1e-10)
    assert resid <= 1e-10


@pytest.mark.parametrize("g, a, b", [(0.4, 1.0, 0.0), (1.3, 0.5, -0.2), (3.0, -2.0, 1.0)])
def test_fit_mode_recovers_growth(g, a, b):
    t = _samples()
    got, resid = gpe._fit_mode(t, a * np.cosh(g * t) + b * np.sinh(g * t))
    assert got.real == 0.0
    assert got.imag == pytest.approx(g, rel=1e-10)
    assert resid <= 1e-10


@pytest.mark.parametrize("signal", [
    (-1.2) ** np.arange(97),  # grows while alternating sign: c < -1
    np.zeros(97),  # no signal to fit: c is not finite
], ids=["alternating_growth", "zero"])
def test_fit_mode_refuses_what_no_mode_law_fits(signal):
    with pytest.raises(FitFailureError, match="no oscillation or growth law"):
        gpe._fit_mode(_samples(), signal)


def test_fit_failure_names_q_in_plain_floats(monkeypatch):
    p = make_params(grid16(), 0.5)
    q = lattice_q(grid16(), 0, 0, 1)
    # a readout of noise leaves most of the signal as residual
    noise = iter(np.random.default_rng(7).standard_normal(10_000))
    convolve = gpe.convolve_density

    def noisy_readout(*args, mode=None, **kwargs):
        conv = convolve(*args, mode=mode, **kwargs)
        mode[1][0] = next(noise)
        return conv

    monkeypatch.setattr(gpe, "convolve_density", noisy_readout)
    # the residual of noise is 99.96% of it over four periods (about 1 700
    # samples), but 99.86% over the default one period (427 samples), which
    # the message would print as 99.9%
    four_periods = 8.0 * math.pi / predicted_mode_frequency(p, q, 1.0).real
    with pytest.raises(FitFailureError) as info:
        linear_response_experiment(p, q, 1e-4, duration=four_periods)
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
                dict(sin2_theta=-0.1), dict(hbar=0.0)):
        with pytest.raises(ParameterDomainError):
            GpeParams(**{**good, **bad})


@pytest.mark.parametrize("workers", [0, -1, 1.5, 2.7, 2.0, "2", True, None])
@pytest.mark.parametrize("entry", ["SplitStep", "kernel_table_fourier", "convolve_density"])
def test_worker_count_must_be_an_integer_of_at_least_one(entry, workers):
    # refused with the value named, never rounded to a whole count
    p = make_params(grid16(), 0.5)
    call = {
        "SplitStep": lambda: gpe.SplitStep(p, 0.01, workers),
        "kernel_table_fourier": lambda: kernel_table_fourier(p.grid, p.table.spec, workers=workers),
        "convolve_density": lambda: convolve_density(p.table, np.ones(p.grid.shape), workers),
    }[entry]
    with pytest.raises(ParameterDomainError, match=f"integer >= 1, got {re.escape(repr(workers))}$"):
        call()


@pytest.mark.parametrize("entry, value", [
    ("a point count in dims", 16.7), ("a point count in dims", "16"), ("a point count in dims", True),
    ("n", 64.9), ("n_polar", 2.5), ("n_azimuth", 3.0), ("n_steps", 20.0), ("snapshot_stride", 2.5),
    ("observer_stride", 2.5), ("observer_stride", 0), ("every", np.float64(2.0)),
])
def test_counts_that_are_not_integers_are_refused_by_name(entry, value):
    # refused with the caller's own parameter and value named, never rounded
    p = make_params(grid16(), 0.5)
    st = init_state("gaussian", p, widths=(1.0, 1.0, 1.0))
    line = Grid1D(n=32, dz=0.1)
    run = dict(grid=line, initial=np.ones(32, complex), diffusion=0.1, dt=1e-3, n_steps=10)
    call = {
        "a point count in dims": lambda: GridSpec(dims=(value, 16, 16), spacings=(0.5, 0.5, 0.5)),
        "n": lambda: Grid1D(n=value, dz=0.1),
        "n_polar": lambda: spherical_directions(value, 3),
        "n_azimuth": lambda: spherical_directions(2, value),
        "n_steps": lambda: LinearRunConfig(**{**run, "n_steps": value}),
        "snapshot_stride": lambda: LinearRunConfig(**run, snapshot_stride=value),
        "observer_stride": lambda: evolve(st, 0.01, 0.05, observer_stride=value),
        "every": lambda: gpe.SplitStep(p, 0.01).run(st, 4, lambda i, current: None, every=value),
    }[entry]
    with pytest.raises(ParameterDomainError, match=f"^{entry} must be an integer >= 1, got "
                                                   f"{re.escape(repr(value))}$"):
        call()


def test_fft_worker_argument(tmp_path):
    p = make_params(grid16(), 0.5)
    g0 = init_state("gaussian", p, widths=(1.0, 1.1, 0.9))
    st = CondensateState(g0.phi * 3.0, 0.0, p)
    with pytest.raises(ParameterDomainError):
        evolve(st, 0.01, 0.05, workers=0)
    one = evolve(st, 0.01, 0.05, workers=1).final.phi
    for workers in (2, 3):
        assert np.array_equal(evolve(st, 0.01, 0.05, workers=workers).final.phi, one)
    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run(
        [sys.executable, "-m", "dipolariton.cli", "selftest", "--threads", "0",
         "--out", str(tmp_path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
    )
    assert run.returncode == 2
    assert "--threads" in run.stderr
