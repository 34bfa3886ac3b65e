"""Derived polariton quantities, validity margins and unit scales."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dipolariton import (
    C_LIGHT,
    HBAR,
    MediumParams,
    ParameterDomainError,
    UnitScales,
    adiabaticity_margins,
    derive_eit,
    phase_mismatch,
)


def test_constants_equal_scipy_values():
    import scipy.constants

    assert HBAR == scipy.constants.hbar
    assert C_LIGHT == scipy.constants.c


def medium_kl50_ratio100() -> MediumParams:
    # k l_abs = 50 and delta/gamma = 100, the regime where |alpha| ~ 1e-4
    gamma = 1.0e7
    g = 2.5e5
    n_atoms = 1.0e10
    l_abs = gamma * C_LIGHT / (g**2 * n_atoms)
    return MediumParams(
        g=g, n_atoms=n_atoms, v_t=1.0e-9, gamma=gamma,
        delta=100.0 * gamma, omega=1.0e6, k=50.0 / l_abs,
    )


def test_alpha_against_independent_complex_arithmetic():
    """alpha = 1 / (2 k L (ratio - i)) = (ratio + i) / (2 k L (ratio^2 + 1)).

    At k L = 50, ratio = 100 the components reduce to exact rationals
    100/1000100 and 1/1000100; the literals below are those quotients
    evaluated in plain float arithmetic.
    """
    derived = derive_eit(medium_kl50_ratio100())
    assert derived.alpha.real == pytest.approx(9.999000099990002e-05, rel=1e-12)
    assert derived.alpha.imag == pytest.approx(9.99900009999e-07, rel=1e-12)
    assert 0.5e-4 <= abs(derived.alpha) <= 2.0e-4


def test_strong_drive_group_velocity_approaches_c():
    g, n_atoms = 2.5e5, 1.0e10
    omega = 1.0e6 * g * math.sqrt(n_atoms)  # tan^2 theta ~ 5e-13
    m = MediumParams(g=g, n_atoms=n_atoms, v_t=1e-9, gamma=1e7, delta=0.0, omega=omega, k=1e7)
    derived = derive_eit(m)
    assert derived.v_gr == pytest.approx(C_LIGHT, rel=1e-9)
    assert derived.theta == pytest.approx(0.0, abs=1e-6)


def test_equal_splitting_point():
    # g^2 N = 2 Omega^2 makes tan^2 theta exactly 1: half-speed light
    m = MediumParams(g=1e6, n_atoms=2.0, v_t=1e-9, gamma=1e7, delta=0.0, omega=1e6, k=1e7)
    derived = derive_eit(m)
    assert derived.theta == pytest.approx(math.pi / 4.0, rel=1e-15)
    assert derived.v_gr == pytest.approx(C_LIGHT / 2.0, rel=1e-15)
    assert derived.m_perp == pytest.approx(2.0 * HBAR * m.k / C_LIGHT, rel=1e-15)


def test_zero_detuning_alpha_is_pure_imaginary():
    m = MediumParams(g=2.5e5, n_atoms=1e10, v_t=1e-9, gamma=1e7, delta=0.0, omega=1e6, k=1e7)
    derived = derive_eit(m)
    assert derived.alpha.real == 0.0
    assert derived.alpha.imag == pytest.approx(1.0 / (2.0 * m.k * derived.l_abs), rel=1e-14)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_alpha_sign_follows_detuning(sign):
    m = MediumParams(g=2.5e5, n_atoms=1e10, v_t=1e-9, gamma=1e7,
                     delta=sign * 5e8, omega=1e6, k=1e7)
    derived = derive_eit(m)
    assert math.copysign(1.0, derived.alpha.real) == sign
    assert derived.alpha.imag > 0.0  # decay, never gain


@settings(max_examples=60, deadline=None)
@given(lam=st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
def test_joint_field_rescaling_invariance(lam):
    """g -> lam g with Omega -> lam Omega leaves the mixing angle alone.

    The group velocity and masses only see tan^2 theta, so they are invariant
    too, while the absorption length drops by lam^2.
    """
    base = MediumParams(g=3e5, n_atoms=2e10, v_t=1e-9, gamma=1e7, delta=3e8, omega=2e6, k=9e6)
    scaled = MediumParams(g=lam * base.g, n_atoms=base.n_atoms, v_t=base.v_t,
                          gamma=base.gamma, delta=base.delta,
                          omega=lam * base.omega, k=base.k)
    d0, d1 = derive_eit(base), derive_eit(scaled)
    assert d1.theta == pytest.approx(d0.theta, rel=1e-12)
    assert d1.v_gr == pytest.approx(d0.v_gr, rel=1e-12)
    assert d1.m_perp == pytest.approx(d0.m_perp, rel=1e-12)
    assert d1.l_abs == pytest.approx(d0.l_abs / lam**2, rel=1e-12)


def test_longitudinal_mass_is_alpha_times_transverse():
    derived = derive_eit(medium_kl50_ratio100())
    assert derived.m_par == derived.m_perp * derived.alpha
    assert derived.alpha == derived.m_par / derived.m_perp


def test_real_mass_suggestion_boundary():
    def with_ratio(delta):
        return derive_eit(MediumParams(g=2.5e5, n_atoms=1e10, v_t=1e-9,
                                       gamma=1e7, delta=delta, omega=1e6, k=1e7))

    assert with_ratio(1e8).real_mass_suggested is True       # ratio = 10 exactly
    assert with_ratio(9.9e7).real_mass_suggested is False    # ratio = 9.9
    assert with_ratio(-1e9).real_mass_suggested is False     # red detuning never qualifies


def test_real_mass_copy_drops_imaginary_part_only():
    derived = derive_eit(medium_kl50_ratio100())
    real = derived.real_mass()
    assert real.m_par == complex(derived.m_par.real, 0.0)
    assert real.alpha == derived.alpha
    assert real.l_abs == derived.l_abs
    assert derived.m_par.imag != 0.0  # original untouched


def test_detuning_ratio_property():
    m = medium_kl50_ratio100()
    derived = derive_eit(m)
    assert derived.detuning_ratio == pytest.approx(m.delta / m.gamma, rel=1e-15)


# ------------------------------------------------------------------ margins

def test_margins_all_pass_scenario():
    gamma = 1.0e7
    g, n_atoms = 2.5e5, 1.0e10
    l_abs = gamma * C_LIGHT / (g**2 * n_atoms)
    m = MediumParams(g=g, n_atoms=n_atoms, v_t=1e-9, gamma=gamma,
                     delta=1e9, omega=2e7, k=50.0 / l_abs)
    derived = derive_eit(m)
    report = adiabaticity_margins(m, derived, T=1e-5, l_pulse=1e-3, delta_rr_avg=0.0)
    ratios = {r.name: r for r in report.ratios}
    assert report.all_pass
    assert ratios["drive_vs_shift"].value == math.inf
    assert ratios["drive_vs_shift"].passed
    # the first ratio is plain |gamma + i delta| T
    assert ratios["linewidth_time"].value == abs(complex(gamma, 1e9)) * 1e-5
    for r in report.ratios:
        assert r.value >= report.margin


def test_margin_pulse_length_unit_ratio_fails():
    # on resonance the diffusion scale is sqrt(l_abs / k); a pulse exactly
    # that long gives ratio 1.0 and fails the default margin of 10
    gamma = 1.0e7
    g, n_atoms = 2.5e5, 1.0e10
    l_abs = gamma * C_LIGHT / (g**2 * n_atoms)
    m = MediumParams(g=g, n_atoms=n_atoms, v_t=1e-9, gamma=gamma,
                     delta=0.0, omega=2e7, k=50.0 / l_abs)
    derived = derive_eit(m)
    l_pulse = math.sqrt(1.0 * derived.l_abs / m.k)
    report = adiabaticity_margins(m, derived, T=1e-4, l_pulse=l_pulse)
    (ratio,) = (r for r in report.ratios if r.name == "pulse_length")
    assert ratio.value == 1.0
    assert not ratio.passed
    assert not report.all_pass


def test_margin_threshold_must_be_positive():
    m = medium_kl50_ratio100()
    derived = derive_eit(m)
    with pytest.raises(ParameterDomainError):
        adiabaticity_margins(m, derived, T=1e-5, l_pulse=1e-3, margin=0.0)


def test_pulse_spec_validation():
    m = medium_kl50_ratio100()
    derived = derive_eit(m)
    with pytest.raises(ParameterDomainError):
        adiabaticity_margins(m, derived, T=0.0, l_pulse=1e-3)
    with pytest.raises(ParameterDomainError):
        adiabaticity_margins(m, derived, T=1e-5, l_pulse=-1.0)
    with pytest.raises(ParameterDomainError):
        adiabaticity_margins(m, derived, T=1e-5, l_pulse=1e-3, delta_rr_avg=-1.0)


# ----------------------------------------------------------- phase matching

def test_phase_matching_mirrored_controls():
    k = 8.0e6
    k_plus, k_minus = (0.0, 0.0, k), (0.0, 0.0, -k)
    # each control mirrors the counterpropagating probe
    mismatch = phase_mismatch(k_plus, k_minus, (0.0, 0.0, k), (0.0, 0.0, -k))
    assert np.all(mismatch == 0.0)


def test_phase_mismatch_flipped_control():
    k = 8.0e6
    mismatch = phase_mismatch((0.0, 0.0, k), (0.0, 0.0, -k),
                              (0.0, 0.0, k), (0.0, 0.0, k))
    assert np.allclose(mismatch, (0.0, 0.0, 2.0 * k), rtol=0, atol=0)


def test_phase_mismatch_is_linear_in_first_argument():
    rng = np.random.default_rng(7)
    kp, km, kcp, kcm = rng.standard_normal((4, 3)) * 1e6
    shift = np.array([3e5, -2e5, 1e5])
    base = phase_mismatch(kp, km, kcp, kcm)
    shifted = phase_mismatch(kp + shift, km, kcp, kcm)
    assert np.allclose(shifted - base, shift, rtol=1e-12, atol=1e-6)


def test_phase_mismatch_rejects_bad_vectors():
    with pytest.raises(ParameterDomainError):
        phase_mismatch((1.0, 2.0), (0, 0, 0), (0, 0, 0), (0, 0, 0))
    with pytest.raises(ParameterDomainError):
        phase_mismatch((0, 0, math.nan), (0, 0, 0), (0, 0, 0), (0, 0, 0))


# -------------------------------------------------------------- unit scales

def test_unit_scales_identities():
    m = medium_kl50_ratio100()
    derived = derive_eit(m)
    scales = UnitScales.from_derived(derived)
    assert scales.length == pytest.approx(1.0 / m.k, rel=1e-12)
    assert scales.time == pytest.approx(derived.m_perp * scales.length**2 / HBAR, rel=1e-15)
    assert scales.energy == pytest.approx(HBAR / scales.time, rel=1e-15)
    assert scales.density == pytest.approx(scales.length**-3, rel=1e-15)


def test_unit_scales_rejects_nonpositive():
    with pytest.raises(ParameterDomainError):
        UnitScales(length=0.0, time=1.0)
    with pytest.raises(ParameterDomainError):
        UnitScales(length=1.0, time=-1.0)


# --------------------------------------------------------------- validation

def test_medium_params_validation():
    good = dict(g=1e6, n_atoms=1e10, v_t=1e-9, gamma=1e7, delta=0.0, omega=1e6, k=1e7)
    with pytest.raises(ParameterDomainError):
        MediumParams(**{**good, "gamma": -1.0})
    with pytest.raises(ParameterDomainError):
        MediumParams(**{**good, "g": 0.0})
    with pytest.raises(ParameterDomainError):
        MediumParams(**{**good, "delta": math.inf})
