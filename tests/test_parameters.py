"""One rule per parameter kind: every scalar, 3-vector and array parameter is refused by name.

Each parameter is tried with a bool, a numeric string, a complex number,
NaN, inf, zero and -1, and every value outside its domain must raise
ParameterDomainError whose message begins with the parameter's name. A bool
is not a number and a string is not parsed, whatever its text. Arrays go
through errors.check_real_array (int or float entries, all finite),
check_unit_vector (check_vector, then unit norm within a tolerance) and
check_shape (a grid's shape, else GridMismatchError; no entry is read), and
a ragged nesting of lists is refused by name wherever an array is due.
"""

import math

import numpy as np
import pytest

from dipolariton import (
    CondensateState,
    GpeParams,
    GridMismatchError,
    GridTooSmallError,
    Grid1D,
    GridSpec,
    KernelSpec,
    LinearRunConfig,
    MediumParams,
    ParameterDomainError,
    PulseSpec,
    SplitStep,
    UnitScales,
    adiabaticity_margins,
    derive_eit,
    dispersion,
    effective_dipolar_coupling,
    evolve,
    gaussian_profile,
    init_state,
    kernel_fourier_analytic,
    kernel_table_fourier,
    kernel_value,
    linear_response_experiment,
    phase_mismatch,
    stability_map,
)
from dipolariton.bogoliubov import CondensateParams, critical_wavenumber
from dipolariton.errors import check_shape, check_unit_vector, check_vector
from conftest import lattice_q

NAN, INF = math.nan, math.inf
# refused for every real parameter, whatever its bound
NOT_REAL = (True, "1", 1 + 1j, NAN, INF)
POSITIVE = NOT_REAL + (0, -1)  # > 0
NON_NEGATIVE = NOT_REAL + (-1,)  # >= 0, and sin2_theta's [0, 1]
NONZERO = NOT_REAL + (0,)  # SplitStep's dt
AMPLITUDE = NOT_REAL + (0, -1)  # init_state's delta, in (0, 1e-3]
NOT_COMPLEX = (True, "1", NAN, INF, complex(1.0, NAN))

MEDIUM = dict(g=2.5e5, n_atoms=1e10, v_t=1e-9, gamma=1e7, delta=2e8, omega=1e6, k=1e7)
GRID = GridSpec(dims=(8, 8, 8), spacings=(0.5, 0.5, 0.5))
TABLE = kernel_table_fourier(GRID, KernelSpec(orientation=(0.0, 0.0, 1.0), strength=0.05))
GPE = dict(m_perp=1.0, m_par=1.0, sin2_theta=1.0, table=TABLE, hbar=1.0)
CONDENSATE = dict(m_perp=1.0, m_par=0.02, c_dd=0.5, hbar=1.0)
Q = lattice_q(GRID, 0, 0, 1)
Z1 = Grid1D(n=16, dz=0.5)


def _pulse(**kw):
    return PulseSpec(**{"T": 1e-5, "l_pulse": 1e-4, "delta_rr_avg": 0.0, **kw})


def _margins(margin):
    medium = MediumParams(**MEDIUM)
    return adiabaticity_margins(medium, derive_eit(medium), _pulse(), margin=margin)


def _kernel(**kw):
    return KernelSpec(**{"orientation": (0.0, 0.0, 1.0), "strength": 1.0, **kw})


def _linear_run(**kw):
    return LinearRunConfig(**{"grid": Z1, "initial": np.ones(16, complex), "diffusion": 0.3,
                              "dt": 0.01, "n_steps": 2, **kw})


def _state(kind, **kw):
    params = GpeParams(**GPE)
    if kind == "gaussian":
        return init_state(kind, params, **{"widths": (1.0, 1.0, 1.0), **kw})
    return init_state(kind, params, **{"n0": 1.0, "delta": 1e-4, "q": Q, **kw})


def _response(**kw):
    return linear_response_experiment(GpeParams(**GPE), Q, kw.pop("delta", 1e-4),
                                      **{"duration": 1.0, **kw})


# (case id, call taking the value, name the message begins with, values refused)
CASES = [
    *((f"MediumParams.{k}", lambda v, k=k: MediumParams(**{**MEDIUM, k: v}), k, POSITIVE)
      for k in ("g", "n_atoms", "v_t", "gamma", "omega", "k")),
    ("MediumParams.delta", lambda v: MediumParams(**{**MEDIUM, "delta": v}), "delta", NOT_REAL),
    ("PulseSpec.T", lambda v: _pulse(T=v), "T", POSITIVE),
    ("PulseSpec.l_pulse", lambda v: _pulse(l_pulse=v), "l_pulse", POSITIVE),
    ("PulseSpec.delta_rr_avg", lambda v: _pulse(delta_rr_avg=v), "delta_rr_avg", NON_NEGATIVE),
    ("adiabaticity_margins.margin", _margins, "margin", POSITIVE),
    ("UnitScales.length", lambda v: UnitScales(length=v, time=1.0), "length", POSITIVE),
    ("UnitScales.time", lambda v: UnitScales(length=1.0, time=v), "time", POSITIVE),
    ("KernelSpec.strength", lambda v: _kernel(strength=v), "strength", NOT_REAL),
    ("KernelSpec.cutoff_radius", lambda v: _kernel(cutoff_radius=v), "cutoff_radius", NON_NEGATIVE),
    ("KernelSpec.sphere_radius", lambda v: _kernel(sphere_radius=v), "sphere_radius", POSITIVE),
    ("GridSpec.spacings", lambda v: GridSpec(dims=(8, 8, 8), spacings=(0.5, v, 0.5)),
     "a spacing in spacings", POSITIVE),
    ("Grid1D.dz", lambda v: Grid1D(n=16, dz=v), "dz", POSITIVE),
    ("GpeParams.m_perp", lambda v: GpeParams(**{**GPE, "m_perp": v}), "m_perp", POSITIVE),
    ("GpeParams.hbar", lambda v: GpeParams(**{**GPE, "hbar": v}), "hbar", POSITIVE),
    ("GpeParams.m_par", lambda v: GpeParams(**{**GPE, "m_par": v}), "m_par", NOT_COMPLEX + (0,)),
    ("GpeParams.sin2_theta", lambda v: GpeParams(**{**GPE, "sin2_theta": v}), "sin2_theta",
     NON_NEGATIVE),
    ("CondensateParams.m_perp", lambda v: CondensateParams(**{**CONDENSATE, "m_perp": v}),
     "m_perp", POSITIVE),
    ("CondensateParams.hbar", lambda v: CondensateParams(**{**CONDENSATE, "hbar": v}),
     "hbar", POSITIVE),
    ("CondensateParams.m_par", lambda v: CondensateParams(**{**CONDENSATE, "m_par": v}),
     "m_par", NOT_COMPLEX + (0,)),
    ("CondensateParams.c_dd", lambda v: CondensateParams(**{**CONDENSATE, "c_dd": v}),
     "c_dd", NOT_REAL),
    ("SplitStep.dt", lambda v: SplitStep(GpeParams(**GPE), v), "dt", NONZERO),
    ("init_state.n0 uniform", lambda v: init_state("uniform", GpeParams(**GPE), n0=v),
     "n0", POSITIVE),
    ("init_state.n0 gaussian", lambda v: _state("gaussian", n0=v), "n0", POSITIVE),
    ("init_state.n0 perturbed", lambda v: _state("perturbed_plane_wave", n0=v), "n0", POSITIVE),
    ("init_state.delta", lambda v: _state("perturbed_plane_wave", delta=v), "delta", AMPLITUDE),
    ("effective_dipolar_coupling.n0", lambda v: effective_dipolar_coupling(GpeParams(**GPE), Q, v),
     "n0", POSITIVE),
    ("evolve.t_final", lambda v: evolve(_state("gaussian"), 0.01, v), "t_final", NOT_REAL),
    ("linear_response_experiment.n0", lambda v: _response(n0=v), "n0", POSITIVE),
    ("linear_response_experiment.dt", lambda v: _response(dt=v), "dt", POSITIVE),
    ("linear_response_experiment.duration", lambda v: _response(duration=v), "duration", POSITIVE),
    ("linear_response_experiment.delta", lambda v: _response(delta=v), "delta", AMPLITUDE),
    ("LinearRunConfig.dt", lambda v: _linear_run(dt=v), "dt", POSITIVE),
    ("LinearRunConfig.diffusion", lambda v: _linear_run(diffusion=v), "diffusion",
     NOT_COMPLEX + (-1,)),
    ("gaussian_profile.sigma", lambda v: gaussian_profile(Z1, v), "sigma", POSITIVE),
]


def _refusals(cases):
    return [pytest.param(call, name, value, id=f"{case}={value!r}")
            for case, call, name, values in cases for value in values]


@pytest.mark.parametrize("call, name, value", _refusals(CASES))
def test_scalar_parameter_is_refused_by_name(call, name, value):
    with pytest.raises(ParameterDomainError) as info:
        call(value)
    assert str(info.value).startswith(f"{name} must ")


def test_signed_and_boundary_values_still_pass():
    for delta in (-2e8, 0):
        MediumParams(**{**MEDIUM, "delta": delta})
    _kernel(strength=-1, cutoff_radius=0)
    _pulse(delta_rr_avg=0)
    GpeParams(**{**GPE, "sin2_theta": 0, "m_par": 1 - 0.5j})
    CondensateParams(**{**CONDENSATE, "c_dd": -0.5, "m_par": -1})
    assert SplitStep(GpeParams(**GPE), -0.25).dt == -0.25
    for diffusion in (0, 0.3 + 1j):
        _linear_run(diffusion=diffusion)
    _state("perturbed_plane_wave", delta=1e-3)


def test_real_parameters_are_stored_as_floats():
    medium = MediumParams(**{**MEDIUM, "n_atoms": 10**10, "delta": np.float32(2e8)})
    assert type(medium.n_atoms) is float and type(medium.delta) is float
    assert type(_kernel(strength=2).strength) is float
    assert GridSpec(dims=(8, 8, 8), spacings=(1, 1, 1)).spacings == (1.0, 1.0, 1.0)
    assert type(GpeParams(**{**GPE, "m_par": 2}).m_par) is complex
    assert type(SplitStep(GpeParams(**GPE), 1).dt) is float


# ------------------------------------------------------------------ vectors

RAGGED_VECTORS = [[0.0, 0.0, 1.0], [0.0, 1.0]]
BAD_VECTORS = [(NAN, 0.0, 0.0), (0.0, INF, 1.0), (True, False, False), ("0", "0", "1"),
               (0.0, 0.0, 1 + 0j), (0.0, 1.0), None, RAGGED_VECTORS]


VECTOR_CASES = [
    ("KernelSpec.orientation", "orientation", lambda v: _kernel(orientation=v)),
    ("CondensateParams.orientation", "orientation",
     lambda v: CondensateParams(**CONDENSATE, orientation=v)),
    ("critical_wavenumber.direction", "direction",
     lambda v: critical_wavenumber(v, CondensateParams(**CONDENSATE))),
    ("phase_mismatch.k_plus", "k_plus", lambda v: phase_mismatch(v, (0, 0, -1), (0, 0, 1), (0, 0, -1))),
    ("phase_mismatch.k_c_minus", "k_c_minus",
     lambda v: phase_mismatch((0, 0, 1), (0, 0, -1), (0, 0, 1), v)),
    ("init_state.widths", "widths", lambda v: _state("gaussian", widths=v)),
    ("init_state.q", "q", lambda v: _state("perturbed_plane_wave", q=v)),
    ("dispersion.q", "q", lambda v: dispersion(v, CondensateParams(**CONDENSATE))),
    ("stability_map.directions", "directions",
     lambda v: stability_map(CondensateParams(**CONDENSATE), v, [1.0])),
    ("kernel_value.r", "r", lambda v: kernel_value(v, _kernel(cutoff_radius=0.1))),
    ("kernel_fourier_analytic.q", "q", lambda v: kernel_fourier_analytic(v, _kernel())),
]


@pytest.mark.parametrize("name, call, vector", [
    pytest.param(name, call, vector, id=f"{case}={vector!r}")
    for case, name, call in VECTOR_CASES for vector in BAD_VECTORS
])
def test_vector_parameter_is_refused_by_name(name, call, vector):
    with pytest.raises(ParameterDomainError) as info:
        call(vector)
    assert str(info.value).startswith(f"{name} must ")


def test_a_nan_axis_is_refused():
    # NaN used to pass the unit-norm test, which compares |norm - 1| > tol
    with pytest.raises(ParameterDomainError, match=r"^orientation must be a finite real 3-vector"):
        CondensateParams(**CONDENSATE, orientation=(NAN, 0.0, 0.0))
    with pytest.raises(ParameterDomainError, match=r"^direction must be a finite real 3-vector"):
        critical_wavenumber((NAN, 0.0, 0.0), CondensateParams(**CONDENSATE))
    with pytest.raises(ParameterDomainError, match=r"^directions must hold finite real 3-vectors"):
        stability_map(CondensateParams(**CONDENSATE), [(0.0, 0.0, 1.0), (NAN, 0.0, 0.0)], [1.0])


def test_an_array_of_vectors_keeps_its_leading_shape():
    q = np.zeros((2, 4, 3), dtype=np.float32)
    assert check_vector(q, "q").dtype == float
    assert dispersion(q, CondensateParams(**CONDENSATE)).shape == (2, 4)
    with pytest.raises(ParameterDomainError, match=r"^q must be a finite real 3-vector"):
        check_vector(q, "q", single=True)


# ------------------------------------------------------------------ arrays

OFF_UNIT = (0.0, 0.0, 1.0 + 1e-8)


def _map(directions=((0.0, 0.0, 1.0),), magnitudes=(1.0,)):
    return stability_map(CondensateParams(**CONDENSATE), directions, magnitudes)


def _condensate_state(t):
    return CondensateState(np.zeros(GRID.shape, complex), t, GpeParams(**GPE))


# (case id, call taking the value, what the message begins with, values refused)
ARRAY_CASES = [
    ("stability_map.magnitudes", lambda v: _map(magnitudes=v), "magnitudes must hold finite real numbers",
     ([True, False], ["1e4"], [1 + 1j], [NAN])),
    ("stability_map.magnitudes", lambda v: _map(magnitudes=v), "magnitudes must be a regular array",
     ([[1.0, 2.0], [3.0]],)),
    ("CondensateState.t", _condensate_state, "t must be a finite real number", (True, NAN, "0", 1j)),
    ("stability_map.directions", lambda v: _map(directions=[v]),
     "directions must hold unit vectors within 1e-09", (OFF_UNIT,)),
    ("critical_wavenumber.direction", lambda v: critical_wavenumber(v, CondensateParams(**CONDENSATE)),
     "direction must be a unit vector within 1e-09", (OFF_UNIT,)),
    ("critical_wavenumber.m_par", lambda v: critical_wavenumber(
        (0.0, 0.0, 1.0), CondensateParams(**{**CONDENSATE, "m_par": v})), "Re(m_par) is zero", (1j,)),
    ("GridSpec.dims", lambda v: GridSpec(dims=v, spacings=(0.5, 0.5, 0.5)),
     "GridSpec takes three dims and three spacings", ((8, 8), 16, None)),
    ("GridSpec.spacings", lambda v: GridSpec(dims=(8, 8, 8), spacings=v),
     "GridSpec takes three dims and three spacings", ((0.5, 0.5), 1.0, None)),
    ("Grid1D.n", lambda v: Grid1D(n=v, dz=0.5), "point count must be even, got n=9", (9,)),
]


@pytest.mark.parametrize("call, message, value", _refusals(ARRAY_CASES))
def test_array_parameter_is_refused_by_name(call, message, value):
    with pytest.raises(ParameterDomainError) as info:
        call(value)
    assert str(info.value).startswith(message)


def test_a_grid1d_below_eight_points_is_refused():
    with pytest.raises(GridTooSmallError, match=r"^need at least 8 points, got n=6$"):
        Grid1D(n=6, dz=0.5)


def test_unit_tolerances_stay_at_their_sites():
    near = (0.0, 0.0, 1.0 + 1e-10)
    assert _map(directions=[near]).nu.shape == (1, 1)
    assert critical_wavenumber(near, CondensateParams(**CONDENSATE)) is None
    for call in (lambda: _kernel(orientation=near), lambda: CondensateParams(**CONDENSATE, orientation=near)):
        with pytest.raises(ParameterDomainError, match=r"^orientation must be a unit vector within 1e-12"):
            call()
    assert check_unit_vector([(0, 0, 1), (0, 1, 0)], "d").dtype == float


def test_int_magnitudes_and_times_are_stored_as_floats():
    smap = _map(magnitudes=[0, 2])
    assert smap.magnitudes.dtype == float and smap.magnitudes.tolist() == [0.0, 2.0]
    assert type(_condensate_state(np.int64(3)).t) is float
    with pytest.raises(ParameterDomainError, match=r"^magnitudes must be finite and non-negative"):
        _map(magnitudes=[1.0, -1.0])


def test_check_shape_hands_back_the_array_it_checks_without_reading_it():
    phi = np.full(GRID.shape, NAN, complex)
    assert check_shape(phi, GRID.shape, "phi", complex) is phi
    assert check_shape(phi[:, :, :4], (8, 8, 4), "phi").base is phi
    with pytest.raises(GridMismatchError, match=r"^phi shape \(8, 8, 4\) does not match \(8, 8, 8\)"):
        check_shape(phi[:, :, :4], GRID.shape, "phi")
