"""Anisotropic interaction kernel: point values, Fourier tables, convolution."""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from dipolariton import (
    FULL_SPACE_PREFACTOR,
    FourierTable,
    GridMismatchError,
    GridSpec,
    KernelSpec,
    ParameterDomainError,
    convolve_density,
    direct_convolution_reference,
    kernel_fourier_analytic,
    kernel_table_fourier,
    kernel_value,
)
from dipolariton.kernel import _truncated_radial_factor

Z_AXIS = (0.0, 0.0, 1.0)


def test_point_values_on_and_off_axis():
    s = 1.7
    spec = KernelSpec(orientation=Z_AXIS, strength=s)
    assert kernel_value((0.0, 0.0, 1.0), spec) == pytest.approx(-2.0 * s, rel=1e-15)
    assert kernel_value((1.0, 0.0, 0.0), spec) == pytest.approx(s, rel=1e-15)
    assert kernel_value((0.0, 0.0, 2.0), spec) == pytest.approx(-2.0 * s / 8.0, rel=1e-15)


def test_vanishes_at_magic_angle():
    # 3 cos^2 = 1 along (sqrt(2), 0, 1): attraction and repulsion balance
    s = 1.7
    spec = KernelSpec(orientation=Z_AXIS, strength=s)
    value = kernel_value((math.sqrt(2.0), 0.0, 1.0), spec)
    assert abs(value) <= 1e-12 * s


@settings(max_examples=80, deadline=None)
@given(
    r=st.tuples(*[st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)] * 3).filter(
        lambda v: sum(x * x for x in v) > 0.01
    ),
    lam=st.floats(min_value=0.2, max_value=5.0, allow_nan=False),
)
def test_inverse_cube_scaling_and_parity(r, lam):
    spec = KernelSpec(orientation=Z_AXIS, strength=0.8)
    base = float(kernel_value(r, spec))
    scaled = float(kernel_value(tuple(lam * x for x in r), spec))
    assert scaled * lam**3 == pytest.approx(base, rel=1e-12, abs=1e-12)
    mirrored = float(kernel_value(tuple(-x for x in r), spec))
    assert mirrored == base


@pytest.mark.parametrize("euler", [(0.3, 0.0, 0.0), (0.0, 1.1, 0.0),
                                   (0.5, -0.7, 1.9), (2.0, 0.4, -0.2)])
def test_rotation_covariance(euler):
    # rotating displacement and dipole axis together changes nothing
    rot = Rotation.from_euler("xyz", euler)
    r = np.array([0.7, -0.4, 1.1])
    axis = np.array([0.0, 0.0, 1.0])
    spec = KernelSpec(orientation=Z_AXIS, strength=1.3)
    spec_rot = KernelSpec(orientation=tuple(rot.apply(axis)), strength=1.3)
    assert float(kernel_value(rot.apply(r), spec_rot)) == pytest.approx(
        float(kernel_value(r, spec)), rel=1e-12
    )


def test_short_distance_cutoff():
    spec = KernelSpec(orientation=Z_AXIS, strength=1.0, cutoff_radius=1.5)
    assert kernel_value((1.0, 0.0, 0.0), spec) == 0.0
    assert kernel_value((0.0, 0.0, 0.0), spec) == 0.0
    assert kernel_value((0.0, 0.0, 2.0), spec) == pytest.approx(-0.25, rel=1e-15)


def test_origin_without_cutoff_raises():
    spec = KernelSpec(orientation=Z_AXIS, strength=1.0)
    with pytest.raises(ParameterDomainError):
        kernel_value((0.0, 0.0, 0.0), spec)


def test_orientation_unit_norm_tolerance():
    KernelSpec(orientation=(0.0, 0.0, 1.0 + 4e-13), strength=1.0)
    with pytest.raises(ParameterDomainError):
        KernelSpec(orientation=(0.0, 0.0, 1.0 + 1e-11), strength=1.0)
    with pytest.raises(ParameterDomainError):
        KernelSpec(orientation=(0.0, 0.0, 0.0), strength=1.0)


def test_angular_average_vanishes():
    """Fixed-radius average over the sphere is zero.

    Midpoint quadrature in u = cos(angle) integrates 1 - 3 u^2 with error
    h^2 / 2, so 200000 panels leave at most 5e-11.
    """
    s = 1.3
    spec = KernelSpec(orientation=Z_AXIS, strength=s)
    n = 200000
    u = (np.arange(n) + 0.5) / n * 2.0 - 1.0
    pts = np.stack([np.sqrt(1.0 - u**2), np.zeros_like(u), u], axis=-1)
    mean = float(np.mean(kernel_value(pts, spec)))
    assert abs(mean) <= 1e-10 * s


def test_full_space_fourier_values():
    s = 0.9
    spec = KernelSpec(orientation=Z_AXIS, strength=s)
    assert kernel_fourier_analytic((0.0, 0.0, 2.4), spec) == pytest.approx(
        2.0 * FULL_SPACE_PREFACTOR * s, rel=1e-14
    )
    assert kernel_fourier_analytic((1.7, 0.0, 0.0), spec) == pytest.approx(
        -FULL_SPACE_PREFACTOR * s, rel=1e-14
    )
    assert kernel_fourier_analytic((0.0, 0.0, 0.0), spec) == 0.0


def test_truncated_transform_against_quadrature():
    """Sphere-truncated Fourier transform checked by direct numerical integration.

    The oracle integrates strength (1 - 3 u^2) / r^3 times the plane-wave
    phase over the ball r <= R in spherical coordinates: Gauss-Legendre in the
    polar cosine, Simpson radially, and a closed-form Bessel J0 for the
    azimuth. Shares no code with the closed-form envelope implementation.
    """
    from scipy.integrate import simpson
    from scipy.special import j0, roots_legendre

    s, radius = 1.7, 6.0
    spec = KernelSpec(orientation=Z_AXIS, strength=s, sphere_radius=radius)
    u_nodes, u_weights = roots_legendre(80)
    r = np.linspace(radius * 1e-6, radius, 20001)

    for q in [(0.5, 0.0, 0.0), (0.0, 0.0, 0.5), (0.3, 0.4, 0.7), (1.2, -0.5, 0.8)]:
        qv = np.asarray(q)
        q_perp = math.hypot(qv[0], qv[1])
        inner = np.zeros_like(r)
        for u, w in zip(u_nodes, u_weights):
            phase = np.exp(-1j * r * qv[2] * u)
            bessel = j0(r * q_perp * math.sqrt(max(1.0 - u * u, 0.0)))
            inner = inner + w * np.real(phase) * bessel * (1.0 - 3.0 * u * u)
        integrand = 2.0 * math.pi * s / r * inner  # r^2 dr against 1/r^3
        oracle = float(simpson(integrand, x=r))

        expected = kernel_fourier_analytic(q, spec) * float(
            _truncated_radial_factor(np.array([np.linalg.norm(qv) * radius]))[0]
        )
        assert oracle == pytest.approx(expected, abs=1e-6 * FULL_SPACE_PREFACTOR * s)


def test_truncation_envelope_roots_and_limits():
    # tan x = x makes 3 cos(x)/x^2 equal 3 sin(x)/x^3: the envelope returns to 1
    for root in (4.4934094579090641, 7.7252518369377068):
        assert abs(float(_truncated_radial_factor(np.array([root]))[0]) - 1.0) <= 1e-12
    assert float(_truncated_radial_factor(np.array([0.0]))[0]) == 0.0


def test_truncation_envelope_branch_seam():
    # the series branch hands over at x = 0.1; compare against the plain
    # closed form evaluated right at the seam
    x = 0.1
    series = x**2 / 10.0 - x**4 / 280.0 + x**6 / 15120.0
    direct = 1.0 + 3.0 * math.cos(x) / x**2 - 3.0 * math.sin(x) / x**3
    lib = float(_truncated_radial_factor(np.array([x]))[0])
    assert lib == pytest.approx(direct, abs=1e-11)
    assert lib == pytest.approx(series, abs=1e-11)


def test_lattice_table_matches_direct_summation_anisotropic():
    grid = GridSpec(dims=(16, 8, 12), spacings=(0.3, 0.5, 0.7))
    spec = KernelSpec(orientation=(1.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0), strength=0.6)
    table = kernel_table_fourier(grid, spec)
    rng = np.random.default_rng(3)
    rho = rng.random(grid.shape)
    fast = convolve_density(table, rho)
    slow = direct_convolution_reference(grid, spec, rho)
    assert np.max(np.abs(fast - slow)) <= 1e-12 * np.max(np.abs(slow))


@pytest.mark.parametrize("method", ["lattice", "analytic"])
def test_convolution_in_a_given_buffer(method):
    # the convolution is the padded real view of the buffer, with the bits
    # of a convolution that allocates its own
    grid = GridSpec(dims=(12, 8, 10), spacings=(0.4, 0.5, 0.6))
    spec = KernelSpec(orientation=(0.0, 0.6, 0.8), strength=0.9, cutoff_radius=0.3)
    table = kernel_table_fourier(grid, spec, method=method)
    rho = np.random.default_rng(11).random(grid.shape)
    buf = np.empty(table.coeffs.shape, dtype=complex)
    got = convolve_density(table, rho, buffer=buf)
    assert np.shares_memory(got, buf) and got.shape == grid.shape
    assert np.array_equal(got, buf.view(float)[:, :, :10])
    assert np.array_equal(got, convolve_density(table, rho))
    # rho may be the buffer's own real view: the whole convolution in place
    want = got.copy()
    buf.view(float)[:, :, :10] = rho
    assert np.array_equal(convolve_density(table, buf.view(float)[:, :, :10], 2, buffer=buf), want)
    if method == "lattice":
        slow = direct_convolution_reference(grid, spec, rho)
        assert np.max(np.abs(want - slow)) <= 1e-12 * np.max(np.abs(slow))
    with pytest.raises(GridMismatchError):
        convolve_density(table, rho, buffer=np.empty(grid.shape, dtype=complex))


@pytest.mark.parametrize("workers", [1, 2])
def test_convolution_reports_the_largest_magnitude_of_each_plane(workers):
    # the complex-to-real pass reduces max |conv| per x plane, over 2 MiB of
    # half spectrum that 2 threads split, and leaves the convolution as it is
    grid = GridSpec(dims=(64, 64, 64), spacings=(0.4, 0.4, 0.4))
    table = kernel_table_fourier(grid, KernelSpec(orientation=Z_AXIS, strength=1.1))
    rho = np.random.default_rng(12).random(grid.shape)
    peaks = np.empty(64)
    got = convolve_density(table, rho, workers, peaks=peaks)
    assert np.array_equal(got, convolve_density(table, rho))
    assert np.array_equal(peaks, np.abs(got).max(axis=(1, 2)))
    # one bad sample spreads to every convolved one, and numpy's max keeps the NaN
    rho[40, 3, 5] = np.nan
    convolve_density(table, rho, workers, peaks=peaks)
    assert np.all(np.isnan(peaks))
    with pytest.raises(GridMismatchError):
        convolve_density(table, rho, peaks=np.empty(63))


def test_lattice_table_matches_direct_summation_with_cutoff():
    grid = GridSpec(dims=(12, 12, 12), spacings=(0.4, 0.4, 0.4))
    spec = KernelSpec(orientation=Z_AXIS, strength=1.1, cutoff_radius=0.6)
    table = kernel_table_fourier(grid, spec)
    rng = np.random.default_rng(4)
    rho = rng.random(grid.shape)
    fast = convolve_density(table, rho)
    slow = direct_convolution_reference(grid, spec, rho)
    assert np.max(np.abs(fast - slow)) <= 1e-12 * np.max(np.abs(slow))


def _per_displacement_direct_sum(grid, spec, rho):
    """The reference's sum with one kernel_value call per displacement."""
    r_c = 0.5 * min(grid.box_lengths)
    dx, dy, dz = grid.displacements()
    out = np.zeros(grid.shape)
    weight_sum = 0.0
    for i, j, l in np.ndindex(grid.shape):
        d = np.array([dx[i], dy[j], dz[l]])
        rn = float(np.linalg.norm(d))
        if rn == 0.0 or rn > r_c or rn < spec.cutoff_radius:
            continue
        w = float(kernel_value(d, KernelSpec(spec.orientation, spec.strength)))
        if w != 0.0:
            weight_sum += w
            out += w * np.roll(rho, shift=(i, j, l), axis=(0, 1, 2))
    out -= weight_sum * float(np.mean(rho))
    return out * grid.cell_volume


@pytest.mark.parametrize("orientation, cutoff", [(Z_AXIS, 0.0), (Z_AXIS, 0.9),
                                                 ((1.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0), 0.0)])
def test_direct_reference_matches_per_displacement_sum(orientation, cutoff):
    # the weights come from one batched kernel_value call; on the z axis the
    # arithmetic is the per-displacement one, off axis the batched r . axis
    # may round differently in the last bits of each weight
    grid = GridSpec(dims=(8, 8, 10), spacings=(0.5, 0.7, 0.4))
    spec = KernelSpec(orientation=orientation, strength=0.8, cutoff_radius=cutoff)
    rho = np.random.default_rng(7).random(grid.shape)
    batched = direct_convolution_reference(grid, spec, rho)
    looped = _per_displacement_direct_sum(grid, spec, rho)
    if orientation == Z_AXIS:
        assert np.array_equal(batched, looped)
    else:
        assert np.max(np.abs(batched - looped)) <= 1e-14 * np.max(np.abs(looped))


@pytest.mark.parametrize("method", ["lattice", "analytic"])
def test_table_zero_mode_is_pinned(method):
    grid = GridSpec(dims=(8, 8, 8), spacings=(0.5, 0.5, 0.5))
    table = kernel_table_fourier(grid, KernelSpec(orientation=Z_AXIS, strength=2.0),
                                 method=method)
    assert table.coeffs[0, 0, 0] == 0.0


@pytest.mark.parametrize("method", ["lattice", "analytic"])
def test_zero_strength_table_is_zero(method):
    grid = GridSpec(dims=(8, 8, 8), spacings=(0.5, 0.5, 0.5))
    table = kernel_table_fourier(grid, KernelSpec(orientation=Z_AXIS, strength=0.0),
                                 method=method)
    assert np.all(table.coeffs == 0.0)


def _is_even(full):
    """Largest |T[k] - T[-k]| over the full grid, relative to max |T|."""
    mirrored = np.roll(np.flip(full), 1, axis=(0, 1, 2))
    return np.max(np.abs(full - mirrored)) / np.max(np.abs(full))


def _half(full):
    return full[..., : full.shape[2] // 2 + 1]


def test_table_coefficients_real_and_even():
    # the stored half table is the kz <= nz/2 part of an even full table
    grid = GridSpec(dims=(16, 8, 12), spacings=(0.3, 0.5, 0.7))
    spec = KernelSpec(orientation=(1.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0), strength=0.6)
    coeffs = kernel_table_fourier(grid, spec).coeffs
    assert not np.iscomplexobj(coeffs)
    assert coeffs.shape == (16, 8, 7)
    reference = stacked_mesh_lattice_coeffs(grid, spec)
    assert _is_even(reference) <= 1e-12
    assert np.max(np.abs(coeffs - _half(reference))) <= 1e-14 * np.max(np.abs(reference))


def analytic_full_coeffs(grid, spec):
    """The analytic table of a spec without cutoff or sphere radius over the full grid,
    each sample averaged with the one at the mirrored index."""
    qx, qy, qz = np.meshgrid(*grid.wavenumbers(), indexing="ij", sparse=True)
    q = np.stack(np.broadcast_arrays(qx, qy, qz), axis=-1)
    envelope = _truncated_radial_factor(np.linalg.norm(q, axis=-1) * 0.5 * min(grid.box_lengths))
    coeffs = kernel_fourier_analytic(q, spec) * envelope
    return 0.5 * (coeffs + np.roll(np.flip(coeffs), 1, axis=(0, 1, 2)))


def test_analytic_table_is_even_on_nyquist_planes():
    # fftfreq samples -q_N on both sides of a Nyquist plane; an off-axis
    # dipole makes the two mirrored samples differ unless the table averages them
    grid = GridSpec(dims=(16, 8, 12), spacings=(0.3, 0.5, 0.7))
    spec = KernelSpec(orientation=(1.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0), strength=0.6)
    table = kernel_table_fourier(grid, spec, method="analytic")
    coeffs = table.coeffs
    assert coeffs.shape == (16, 8, 7)
    reference = analytic_full_coeffs(grid, spec)
    assert _is_even(reference) <= 1e-14
    assert np.max(np.abs(coeffs - _half(reference))) <= 1e-14 * np.max(np.abs(reference))
    # off the Nyquist planes the samples are the continuum transform itself
    qx, qy, qz = np.meshgrid(*grid.wavenumbers(), indexing="ij", sparse=True)
    q = np.stack(np.broadcast_arrays(qx, qy, qz), axis=-1)[1:8, 1:4, 1:6]
    envelope = _truncated_radial_factor(np.linalg.norm(q, axis=-1) * table.spec.sphere_radius)
    expected = kernel_fourier_analytic(q, spec) * envelope
    assert coeffs[1:8, 1:4, 1:6] == pytest.approx(expected, rel=1e-12)


def test_analytic_table_converges_with_truncation_radius():
    """At fixed q the truncated transform approaches the full-space value.

    Envelope deviation |f(qR) - 1| is 1.90% at qR = 4 pi and 0.47% at 8 pi;
    the comparison form below recomputes f from its closed expression.
    """
    q = (0.0, 0.0, math.pi)
    s = 1.0
    grid = GridSpec(dims=(8, 8, 16), spacings=(1.0, 1.0, 0.25))
    idx = 2  # qz = 2 pi * 2 / (16 * 0.25) = pi
    deviations = []
    for radius in (4.0, 8.0):
        spec = KernelSpec(orientation=Z_AXIS, strength=s, sphere_radius=radius)
        table = kernel_table_fourier(grid, spec, method="analytic")
        value = table.coeffs[0, 0, idx]
        x = math.pi * radius
        envelope = 1.0 + 3.0 * math.cos(x) / x**2 - 3.0 * math.sin(x) / x**3
        full = kernel_fourier_analytic(q, spec)
        assert value == pytest.approx(full * envelope, rel=1e-12)
        deviations.append(abs(value / full - 1.0))
    assert deviations[0] <= 0.02
    assert deviations[1] <= 0.005
    assert deviations[1] < deviations[0]


@pytest.mark.parametrize("method", ["lattice", "analytic"])
def test_real_transform_convolution_matches_complex_route(method):
    # the r2c route over the half table equals the c2c product with the full one
    grid = GridSpec(dims=(16, 12, 10), spacings=(0.3, 0.5, 0.7))
    spec = KernelSpec(orientation=(1.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0), strength=0.6)
    table = kernel_table_fourier(grid, spec, method=method)
    full = (stacked_mesh_lattice_coeffs if method == "lattice" else analytic_full_coeffs)(grid, spec)
    assert _is_even(full) <= 1e-12
    assert np.max(np.abs(table.coeffs - _half(full))) <= 1e-14 * np.max(np.abs(full))
    rho = np.random.default_rng(7).random(grid.shape)
    reference = np.real(np.fft.ifftn(np.fft.fftn(rho) * full))
    got = convolve_density(table, rho)
    assert got.dtype == np.float64
    assert np.max(np.abs(got - reference)) <= 1e-13 * np.max(np.abs(reference))


def stacked_mesh_lattice_coeffs(grid, spec):
    """The lattice table as once built, over the full grid: a stacked (N, 3) mesh, norms,
    kernel_value and a complex-to-complex transform."""
    r_c = spec.sphere_radius if spec.sphere_radius is not None else 0.5 * min(grid.box_lengths)
    dmesh = np.stack(np.meshgrid(*grid.displacements(), indexing="ij"), axis=-1)
    rn = np.linalg.norm(dmesh, axis=-1)
    vals = np.zeros(grid.shape)
    mask = (rn > 0) & (rn <= r_c)
    if spec.cutoff_radius > 0:
        mask &= rn >= spec.cutoff_radius
    vals[mask] = kernel_value(dmesh[mask], KernelSpec(spec.orientation, spec.strength, 0.0))
    coeffs = np.real(scipy.fft.fftn(vals)) * grid.cell_volume
    coeffs[0, 0, 0] = 0.0
    return coeffs


@pytest.mark.parametrize("grid, spec", [
    (GridSpec(dims=(16, 12, 10), spacings=(0.3, 0.5, 0.7)),
     KernelSpec(orientation=(1.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0), strength=0.6, cutoff_radius=0.8)),
    (GridSpec(dims=(32, 32, 32), spacings=(0.25, 0.25, 0.25)),
     KernelSpec(orientation=Z_AXIS, strength=-1.3)),
], ids=["16x12x10-off-axis-cutoff", "32^3"])
def test_lattice_table_matches_stacked_mesh_construction(grid, spec):
    reference = stacked_mesh_lattice_coeffs(grid, spec)
    got = kernel_table_fourier(grid, spec).coeffs
    assert np.max(np.abs(got - _half(reference))) <= 1e-14 * np.max(np.abs(reference))


def test_lattice_table_does_not_depend_on_worker_count():
    grid = GridSpec(dims=(32, 24, 16), spacings=(0.3, 0.5, 0.7))
    spec = KernelSpec(orientation=(0.0, 0.6, 0.8), strength=0.9, cutoff_radius=0.4)
    one = kernel_table_fourier(grid, spec, workers=1).coeffs
    two = kernel_table_fourier(grid, spec, workers=2).coeffs
    assert np.array_equal(two, one)


def test_table_shape_mismatch_raises():
    grid = GridSpec(dims=(8, 8, 8), spacings=(0.5, 0.5, 0.5))
    spec = KernelSpec(orientation=Z_AXIS, strength=1.0)
    table = kernel_table_fourier(grid, spec)
    with pytest.raises(GridMismatchError):
        convolve_density(table, np.zeros((8, 8, 10)))
    with pytest.raises(GridMismatchError):
        FourierTable(grid=grid, spec=table.spec, coeffs=np.zeros((4, 4, 4)), method="lattice")


@pytest.mark.parametrize("field, value, reason", [
    ("method", "bogus", "unknown table method 'bogus'"),
    ("sphere_radius", math.nan, "sphere_radius must be positive and finite"),
    ("sphere_radius", -1.0, "sphere_radius must be positive and finite"),
    ("sphere_radius", None, "sphere_radius must be set in a table's spec, got None"),
])
def test_table_refuses_what_its_file_cannot_hold(field, value, reason):
    # read_kernel_table refuses each of these, so a table that held one
    # would write a file that does not read back; the radius lives on the spec
    grid = GridSpec(dims=(8, 8, 8), spacings=(0.5, 0.5, 0.5))
    table = kernel_table_fourier(grid, KernelSpec(orientation=Z_AXIS, strength=1.0))
    with pytest.raises(ParameterDomainError, match=reason):
        if field == "method":
            replace(table, method=value)
        else:
            replace(table, spec=replace(table.spec, sphere_radius=value))


def test_uniform_density_feels_no_mean_field():
    grid = GridSpec(dims=(12, 12, 12), spacings=(0.5, 0.5, 0.5))
    spec = KernelSpec(orientation=Z_AXIS, strength=2.0)
    table = kernel_table_fourier(grid, spec)
    shift = convolve_density(table, np.full(grid.shape, 3.0))
    assert np.max(np.abs(shift)) <= 1e-10 * abs(spec.strength) * 3.0


def test_sphere_radius_default_and_override():
    grid = GridSpec(dims=(16, 8, 12), spacings=(0.3, 0.5, 0.7))
    table = kernel_table_fourier(grid, KernelSpec(orientation=Z_AXIS, strength=1.0))
    assert table.spec.sphere_radius == 0.5 * min(grid.box_lengths)
    custom = kernel_table_fourier(
        grid, KernelSpec(orientation=Z_AXIS, strength=1.0, sphere_radius=1.25)
    )
    assert custom.spec.sphere_radius == 1.25


def test_unknown_table_method_raises():
    grid = GridSpec(dims=(8, 8, 8), spacings=(0.5, 0.5, 0.5))
    with pytest.raises(ParameterDomainError):
        kernel_table_fourier(grid, KernelSpec(orientation=Z_AXIS, strength=1.0),
                             method="mystery")
