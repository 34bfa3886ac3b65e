"""Collective-mode dispersion against an exact-rational oracle, critical
wavenumbers and stability scans."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dipolariton import (
    CondensateParams,
    EmptyInputError,
    ParameterDomainError,
    critical_wavenumber,
    dispersion,
    spherical_directions,
    stability_map,
)

Z = (0.0, 0.0, 1.0)
Y = (0.0, 1.0, 0.0)


def params(m_perp=1.0, m_par=1.0, c_dd=0.5, orientation=Z, hbar=1.0):
    return CondensateParams(m_perp=m_perp, m_par=m_par, c_dd=c_dd,
                            orientation=orientation, hbar=hbar)


def bogoliubov_roots(q, p, complex_mass=False):
    # eigenvalues nu of the linearised mean-field equation
    #   i hbar d/dt (u, v) = [[e + g, g], [-g, -(conj(e) + g)]] (u, v)
    # with e the complex free energy at q and 2 g the dipolar energy. Trace
    # and determinant are formed in exact rational arithmetic from the float
    # inputs, complex numbers as (re, im) pairs, and rounded once before
    # cmath's square root, so the roots are accurate to a few ulp
    qx, qy, qz = (Fraction(float(v)) for v in q)
    m_par = complex(p.m_par) if complex_mass else complex(p.m_par.real)
    mr, mi = Fraction(m_par.real), Fraction(m_par.imag)
    h2 = Fraction(p.hbar) ** 2
    kin_par = h2 * qz * qz / (2 * (mr * mr + mi * mi))  # times conj(m_par)
    e_re = h2 * (qx * qx + qy * qy) / (2 * Fraction(p.m_perp)) + kin_par * mr
    e_im = -kin_par * mi
    q2 = qx * qx + qy * qy + qz * qz
    ax, ay, az = (Fraction(v) for v in p.orientation)
    ang = 0 if q2 == 0 else 3 * (qx * ax + qy * ay + qz * az) ** 2 / q2 - 1
    g = Fraction(p.c_dd) * ang / 2

    def mul(a, b):
        return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    m00, m11 = (e_re + g, e_im), (-(e_re + g), e_im)
    half_trace = ((m00[0] + m11[0]) / 2, (m00[1] + m11[1]) / 2)
    det = mul(m00, m11)
    det = (det[0] + g * g, det[1])  # minus m01 m10 = -g (-g)
    ht2 = mul(half_trace, half_trace)
    root = cmath.sqrt(complex(float(ht2[0] - det[0]), float(ht2[1] - det[1])))
    ht = complex(float(half_trace[0]), float(half_trace[1]))
    return (ht + root) / p.hbar, (ht - root) / p.hbar


def nu_oracle(q, p, complex_mass=False):
    # the two roots are i Im(e) +- s with s real or imaginary: the branch with
    # Re >= 0 continues the free particle, and of an imaginary pair the one
    # with the larger Im grows; both are the largest parts over the pair
    roots = bogoliubov_roots(q, p, complex_mass)
    return complex(max(r.real for r in roots), max(r.imag for r in roots))


def bisection_oracle(direction, p, rel_tol=1e-15):
    # sign change of c2 q^2 + a_int along the ray, by bracket expansion and bisection
    d = np.asarray(direction, dtype=float)
    c2 = p.hbar**2 * 0.5 * ((d[0] ** 2 + d[1] ** 2) / p.m_perp + d[2] ** 2 / p.m_par.real)
    a_int = p.c_dd * (3.0 * float(d @ p.axis) ** 2 - 1.0)
    if a_int == 0.0 or c2 == 0.0 or (a_int > 0.0) == (c2 > 0.0):
        return None
    sign = 1.0 if c2 > 0 else -1.0
    f = lambda q: sign * (c2 * q * q + a_int)  # f(0) < 0, monotone increasing in q
    lo, hi = 0.0, 1.0
    while f(hi) <= 0:
        hi *= 2.0
    while (hi - lo) > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if f(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_free_branch_without_coupling():
    p = params(m_perp=2.0, m_par=0.5, c_dd=0.0)
    nu = dispersion((0.3, -0.4, 0.25), p)
    # nu = e_free / hbar = (0.09 + 0.16)/4 + 0.0625/1
    assert nu == pytest.approx(0.125, rel=1e-14)
    assert nu.imag <= 0.0 and nu.imag == 0.0


def test_magic_direction_reduces_to_free_branch():
    d = np.array([math.sqrt(2.0), 0.0, 1.0]) / math.sqrt(3.0)
    q = tuple(d * 0.4)
    free = dispersion(q, params(m_perp=1.0, m_par=0.3, c_dd=0.0))
    for c in np.logspace(-3, 3, 13):  # couplings across six decades
        for sign in (1.0, -1.0):
            p = params(m_perp=1.0, m_par=0.3, c_dd=sign * c)
            assert dispersion(q, p) == pytest.approx(free, rel=1e-12)


def test_dispersion_matches_scalar_recomputation():
    cases = [
        ((0.3, 0.1, 0.7), params(c_dd=0.5), False),
        ((0.3, 0.1, 0.7), params(c_dd=-2.0), False),
        ((0.9, 0.0, 0.05), params(m_par=1e-4, c_dd=0.5), False),
        ((0.1, 0.0, 0.0), params(c_dd=5.0), False),           # unstable
        ((0.2, -0.3, 0.4), params(m_par=1e-4 + 5e-5j, c_dd=0.5), True),
        ((0.2, -0.3, 0.4), params(m_par=1e-4 + 5e-5j, c_dd=0.5), False),
        ((0.0, 0.5, 0.5), params(orientation=Y, c_dd=-1.0), False),
        # unit mass ratio with a negative coupling along z, stable and unstable rays
        ((0.3, 0.1, 0.7), params(c_dd=-0.7), False),
        ((0.0, 0.0, 0.4), params(c_dd=-0.7), False),          # unstable
        ((1.2, -0.5, 0.0), params(c_dd=-0.7), False),
    ]
    for q, p, cm in cases:
        nu = dispersion(q, p, complex_mass=cm)
        assert nu == pytest.approx(nu_oracle(q, p, cm), rel=1e-13)
        # the root continuing the free branch, and of two growth rates the larger
        assert nu.real >= 0.0
        assert nu.imag >= max(r.imag for r in bogoliubov_roots(q, p, cm)) - 1e-13 * abs(nu)


def test_zero_wavevector_mode():
    nu = dispersion((0.0, 0.0, 0.0), params(c_dd=3.0))
    assert nu == 0.0
    assert nu.imag <= 0.0


@settings(max_examples=80, deadline=None)
@given(
    q=st.tuples(*[st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)] * 3),
    phi=st.floats(min_value=0.0, max_value=2.0 * math.pi, allow_nan=False),
)
def test_parity_and_axial_symmetry(q, phi):
    p = params(m_perp=1.0, m_par=0.3, c_dd=-0.8)
    nu = dispersion(q, p)
    mirrored = dispersion(tuple(-v for v in q), p)
    assert mirrored == nu
    # the dipole axis z is a symmetry axis even with anisotropic masses
    cs, sn = math.cos(phi), math.sin(phi)
    rotated = (cs * q[0] - sn * q[1], sn * q[0] + cs * q[1], q[2])
    assert dispersion(rotated, p) == pytest.approx(nu, rel=1e-12, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    q=st.tuples(*[st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)] * 3),
    c=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
)
def test_real_mass_branch_is_real_or_imaginary(q, c):
    nu = dispersion(q, params(m_par=0.7, c_dd=c))
    assert nu.real * nu.imag == 0.0
    # a real mass has no damping: stable (Im <= 0) means Im == 0
    assert (nu.imag <= 0.0) == (nu.imag == 0.0)


# -------------------------------------------------------------- array input

def energy_scale(q, p, complex_mass):
    # bound on |e_free| and |e_free (e_free + e_int)|^(1/2), over hbar, at q
    m_par = abs(p.m_par) if complex_mass else abs(p.m_par.real)
    e = p.hbar**2 * ((q[0] ** 2 + q[1] ** 2) / (2.0 * p.m_perp) + q[2] ** 2 / (2.0 * m_par))
    return max(e, math.sqrt(e * (e + 2.0 * abs(p.c_dd)))) / p.hbar


def assert_matches_oracle(nu, q, p, complex_mass):
    assert nu.shape == q.shape[:-1]
    for qv, got in zip(q.reshape(-1, 3), nu.ravel()):
        ref = nu_oracle(qv, p, complex_mass)
        scale = energy_scale(qv, p, complex_mass)
        if scale == 0.0:
            assert got == 0.0
            continue
        # a rounding-level change of the radicand moves its root by about
        # eps scale^2 / |root|, which grows as the two roots meet (the ratio
        # is formed first so that tiny scales do not underflow)
        plus, minus = bogoliubov_roots(qv, p, complex_mass)
        tol = 1e-13 * scale * (scale / max(0.5 * abs(plus - minus), 1e-6 * scale))
        assert abs(got - ref) <= tol, (qv, got, ref)


# components below 1e-100 are flushed to zero: their squares are subnormal,
# where no floating-point evaluation keeps the relative accuracy checked here
finite_q = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False).map(
    lambda v: 0.0 if abs(v) < 1e-100 else v)
condensates = st.builds(
    params,
    m_perp=st.sampled_from([1.0, 0.4]),
    m_par=st.sampled_from([1.0, 0.3, -0.5, 1e-4 + 5e-5j, 0.3 + 0.1j, -0.5 - 0.2j, 2.0 - 0.5j]),
    c_dd=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    orientation=st.sampled_from([Z, Y, (0.6, 0.0, 0.8)]),
)


@settings(max_examples=60, deadline=None)
@given(q=hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.just(3)), elements=finite_q),
       p=condensates, complex_mass=st.booleans())
def test_dispersion_of_row_array_matches_oracle(q, p, complex_mass):
    assert_matches_oracle(dispersion(q, p, complex_mass=complex_mass), q, p, complex_mass)


@settings(max_examples=60, deadline=None)
@given(q=hnp.arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 4), st.just(3)),
                    elements=finite_q),
       p=condensates, complex_mass=st.booleans())
def test_dispersion_of_stacked_array_matches_oracle(q, p, complex_mass):
    assert_matches_oracle(dispersion(q, p, complex_mass=complex_mass), q, p, complex_mass)


def test_single_wavevector_gives_a_complex_scalar():
    nu = dispersion([0.3, 0.1, 0.7], params())
    assert np.ndim(nu) == 0 and isinstance(nu, complex)
    assert nu == dispersion(np.array([[0.3, 0.1, 0.7]]), params())[0]


def test_dispersion_rejects_bad_wavevectors():
    for bad in (0.5, [0.1, 0.2], np.zeros((4, 2)), [0.1, math.nan, 0.0], [math.inf, 0.0, 0.0]):
        with pytest.raises(ParameterDomainError):
            dispersion(bad, params())


# ----------------------------------------------------------- complex mass

def test_complex_mass_absorption_is_damping():
    # Im(m_par) > 0 as derive_eit gives it: Im(1/m_par) < 0, so without
    # coupling nu = e_free / hbar and every nonzero mode decays
    p = params(m_perp=1.0, m_par=0.3 + 0.1j, c_dd=0.0)
    q = np.array([[0.0, 0.0, 0.5], [0.4, -0.2, 0.3], [1.0, 0.0, 0.0]])
    nu = dispersion(q, p, complex_mass=True)
    e_free = (q[:, 0] ** 2 + q[:, 1] ** 2) / 2.0 + q[:, 2] ** 2 / (2.0 * p.m_par)
    assert np.allclose(nu, e_free, rtol=1e-14, atol=0.0)
    assert np.all(nu.imag[:2] < 0.0) and nu.imag[2] == 0.0


def test_complex_mass_map_without_coupling_is_stable():
    p = params(m_perp=1.0, m_par=0.3 + 0.1j, c_dd=0.0)
    smap = stability_map(p, spherical_directions(9, 18), np.logspace(-2, 1, 10),
                         complex_mass=True)
    assert smap.n_unstable == 0
    assert np.all(smap.stable)
    assert smap.max_growth_rate == 0.0
    assert np.all(smap.nu.real >= 0.0)


def test_complex_mass_growth_keeps_its_sign():
    # a soft transverse ray stays unstable with a small absorptive mass part
    p = params(m_perp=1.0, m_par=1.0 + 1e-3j, c_dd=0.5)
    nu = dispersion((0.3, 0.0, 0.0), p, complex_mass=True)
    assert nu.imag > 0.0
    assert nu == pytest.approx(nu_oracle((0.3, 0.0, 0.0), p, True), rel=1e-13)


def test_complex_mass_axis_mode_in_the_upper_unstable_band_grows():
    # along the axis with c_dd < 0, e = a - i b and e_int = 2 c_dd: the real
    # mass is unstable for 0 < a < -e_int. Absorption shifts the growth rate
    # by -b; it must not flip modes with -e_int / 2 < a < -e_int to damped
    p = params(m_perp=1.0, m_par=1.0 + 0.1j, c_dd=-0.5)
    e = 1.189**2 / (2.0 * p.m_par)
    assert 0.5 < e.real < 1.0
    nu = dispersion((0.0, 0.0, 1.189), p, complex_mass=True)
    assert nu.real == 0.0
    assert nu.imag == pytest.approx(e.imag + math.sqrt(e.real * (1.0 - e.real)), rel=1e-14)
    assert nu.imag == pytest.approx(0.3883, abs=1e-4)


def test_complex_mass_growth_is_continuous_across_the_band():
    # Im(nu) along the axis is continuous in |q| through the whole unstable
    # band and its edges; a branch rule that switches roots makes it jump
    p = params(m_perp=1.0, m_par=1.0 + 0.1j, c_dd=-0.5)
    mags = np.linspace(0.01, 2.0, 4001)
    q = np.zeros((mags.size, 3))
    q[:, 2] = mags
    nu = dispersion(q, p, complex_mass=True)
    assert np.all(nu.real >= 0.0)
    # the square root's slope at the band edges allows steps of about 0.03;
    # switching roots mid-band jumps by twice the growth rate, about 0.9
    assert np.max(np.abs(np.diff(nu.imag))) < 0.1
    unstable = nu.imag > 0.0
    assert unstable.any() and not unstable.all()
    # absorption never destabilises: growth only inside 0 < Re(e) < -e_int = 1
    e_re = mags**2 * (1.0 / (2.0 * p.m_par)).real
    assert np.all(e_re[unstable] < 1.0)


# -------------------------------------------------------- critical wavenumber

def test_critical_wavenumber_transverse_closed_form():
    # along x the angular factor is -1, so the radicand changes sign where
    # hbar^2 q^2 / (2 m_perp) = c_dd: q_c = sqrt(2 m_perp c_dd) / hbar
    p = params(m_perp=1.0, m_par=1.0, c_dd=0.5)
    qc = critical_wavenumber((1.0, 0.0, 0.0), p)
    assert qc == pytest.approx(1.0, rel=1e-9)


def test_critical_wavenumber_longitudinal_closed_form():
    p = params(m_perp=1.0, m_par=1e-4, c_dd=-0.5)
    qc = critical_wavenumber((0.0, 0.0, 1.0), p)
    assert qc == pytest.approx(math.sqrt(2.0e-4), rel=1e-9)


def test_critical_wavenumber_none_when_ray_is_stable():
    assert critical_wavenumber((0.0, 0.0, 1.0), params(c_dd=0.5)) is None
    assert critical_wavenumber((1.0, 0.0, 0.0), params(c_dd=-0.5)) is None
    assert critical_wavenumber((1.0, 0.0, 0.0), params(c_dd=0.0)) is None


def test_critical_wavenumber_scales_with_sqrt_coupling():
    p1 = params(c_dd=0.5)
    p2 = params(c_dd=1.0)
    q1 = critical_wavenumber((1.0, 0.0, 0.0), p1)
    q2 = critical_wavenumber((1.0, 0.0, 0.0), p2)
    assert q2 == pytest.approx(q1 * math.sqrt(2.0), rel=1e-9)


def test_modes_flip_stability_at_the_critical_wavenumber():
    p = params(c_dd=0.5)
    d = np.array([1.0, 0.0, 0.0])
    qc = critical_wavenumber(d, p)
    assert dispersion(tuple(d * (0.99 * qc)), p).imag > 0.0
    assert dispersion(tuple(d * (1.01 * qc)), p).imag <= 0.0


@pytest.mark.parametrize("p", [
    params(c_dd=0.5),
    params(m_perp=1.0, m_par=1e-4, c_dd=-0.5),
    params(m_perp=0.4, m_par=-0.5, c_dd=0.3, orientation=(0.6, 0.0, 0.8)),
    params(m_perp=3.0, m_par=2.0 - 0.5j, c_dd=-2.5, orientation=Y, hbar=0.7),
])
def test_critical_wavenumber_matches_bisection(p):
    checked = 0
    for d in spherical_directions(7, 9):
        qc, ref = critical_wavenumber(d, p), bisection_oracle(d, p)
        assert (qc is None) == (ref is None)
        if qc is not None:
            assert qc == pytest.approx(ref, rel=1e-12)
            checked += 1
    assert checked > 0


def test_critical_wavenumber_rejects_non_unit_direction():
    with pytest.raises(ParameterDomainError):
        critical_wavenumber((2.0, 0.0, 0.0), params())


def test_unstable_growth_small_q_asymptote():
    # growth ~ q sqrt(c2 |c_dd ang|) with c2 = hbar^2/(2 m_perp) as q -> 0
    p = params(m_perp=1.0, m_par=1.0, c_dd=2.0)
    lam = 1e-3
    nu = dispersion((lam, 0.0, 0.0), p)
    expected = lam * math.sqrt(0.5 * 2.0)
    assert nu.imag == pytest.approx(expected, rel=1e-2)


def test_real_branch_requires_nonzero_real_mass():
    p = params(m_par=1j * 1e-4)
    with pytest.raises(ParameterDomainError):
        dispersion((0.1, 0.0, 0.2), p)
    dispersion((0.1, 0.0, 0.2), p, complex_mass=True)  # complex branch works


# ------------------------------------------------------------- stability map

def test_stability_map_ordering_and_argmax():
    p = params(c_dd=0.5)
    smap = stability_map(p, [(0.0, 0.0, 1.0), (1.0, 0.0, 0.0)], [0.5, 2.0])
    assert smap.q.shape == (2, 2, 3) and smap.nu.shape == (2, 2)
    flags = smap.stable.ravel().tolist()
    assert flags == [True, True, False, True]  # direction-major layout
    assert smap.n_unstable == 1
    assert smap.argmax_direction == (1.0, 0.0, 0.0)
    assert smap.argmax_q == (0.5, 0.0, 0.0)
    assert smap.max_growth_rate == pytest.approx(math.sqrt(0.046875), rel=1e-13)


def test_stability_map_tie_resolves_to_first_direction():
    p = params(c_dd=0.5)
    smap = stability_map(p, [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)], [0.5])
    assert smap.n_unstable == 2
    assert smap.argmax_direction == (1.0, 0.0, 0.0)


def test_stability_map_all_stable_without_coupling():
    smap = stability_map(params(c_dd=0.0), spherical_directions(3, 4), [0.5, 1.0])
    assert smap.n_unstable == 0
    assert smap.max_growth_rate == 0.0


def test_stability_map_input_validation():
    p = params()
    with pytest.raises(EmptyInputError):
        stability_map(p, np.empty((0, 3)), [0.5])
    with pytest.raises(EmptyInputError):
        stability_map(p, [(0.0, 0.0, 1.0)], [])
    with pytest.raises(ParameterDomainError):
        stability_map(p, [(0.0, 0.0, 2.0)], [0.5])
    with pytest.raises(ParameterDomainError):
        stability_map(p, [(0.0, 0.0, 1.0)], [-1.0])


def test_stability_map_azimuthal_symmetry():
    # with the axis along z the growth rate depends on the polar angle only
    p = params(m_par=0.3, c_dd=0.8)
    dirs = spherical_directions(6, 8)
    smap = stability_map(p, dirs, [0.7])
    rates = smap.nu.imag.reshape(6, 8)
    for ring in rates:
        assert np.allclose(ring, ring[0], rtol=1e-12, atol=1e-15)


def test_spherical_directions_frozen_two_by_two():
    dirs = spherical_directions(2, 2)
    h = math.sqrt(2.0) / 2.0
    expected = np.array([
        [h, 0.0, h], [-h, 0.0, h],
        [h, 0.0, -h], [-h, 0.0, -h],
    ])
    assert np.allclose(dirs, expected, atol=1e-15)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, rtol=1e-15)


def test_spherical_directions_validation():
    with pytest.raises(ParameterDomainError):
        spherical_directions(0, 4)


# --------------------------------------------------------------- validation

def test_condensate_params_validation():
    with pytest.raises(ParameterDomainError):
        CondensateParams(m_perp=0.0, m_par=1.0, c_dd=0.5)
    with pytest.raises(ParameterDomainError):
        CondensateParams(m_perp=1.0, m_par=0.0, c_dd=0.5)
    with pytest.raises(ParameterDomainError):
        CondensateParams(m_perp=1.0, m_par=1.0, c_dd=math.inf)
    with pytest.raises(ParameterDomainError):
        CondensateParams(m_perp=1.0, m_par=1.0, c_dd=0.5,
                         orientation=(0.0, 0.0, 1.0 + 1e-11))
    p = CondensateParams(m_perp=2.0, m_par=0.5 + 0.25j, c_dd=0.5, hbar=1.0)
    assert p.alpha == (0.5 + 0.25j) / 2.0
