"""Dipolar condensates of stationary-light polaritons.

Library layout:

    eit        medium parameters -> mixing angle, masses, scales, margins
    kernel     anisotropic 1/r^3 interaction and its lattice Fourier table
    fields     two-branch field algebra and the 1D linear validator
    bogoliubov collective-mode dispersion and stability scans
    gpe        split-step nonlinear solver and linear-response experiment
    config     flat text configuration with per-key unit checking
    fileio     deterministic CSV / binary output formats
    cli        `dipolariton` command-line front end
"""

from .bogoliubov import (
    CondensateParams,
    StabilityMap,
    critical_wavenumber,
    dispersion,
    dispersion_rescaled,
    spherical_directions,
    stability_map,
)
from .eit import (
    C_LIGHT,
    HBAR,
    REAL_MASS_RATIO,
    DerivedQuantities,
    MarginReport,
    MediumParams,
    PulseSpec,
    UnitScales,
    adiabaticity_margins,
    derive_eit,
    phase_mismatch,
)
from .errors import (
    CaseMismatchError,
    ConfigError,
    DipolaritonError,
    EmptyInputError,
    FitFailureError,
    GridCoarseWarning,
    GridMismatchError,
    GridTooSmallError,
    InsufficientHistoryError,
    NonFiniteStateError,
    OffLatticeError,
    ParameterDomainError,
    StepSizeError,
    UnitError,
)
from .fields import (
    FieldPair,
    LinearRunConfig,
    LinearRunResult,
    ModePair,
    compose_polariton,
    diffusion_coefficient,
    eliminate_difference,
    from_sum_difference,
    gaussian_profile,
    simulate_linear_1d,
    spin_coherence_adiabatic,
    sum_polarization,
    to_sum_difference,
)
from .config import SimConfig, parse_config
from .gpe import (
    CondensateState,
    EvolveResult,
    GpeParams,
    Observables,
    ResponseResult,
    SplitStep,
    effective_dipolar_coupling,
    evolve,
    init_state,
    linear_response_experiment,
    observables,
    predicted_mode_frequency,
)
from .grid import Grid1D, GridSpec
from .kernel import (
    FULL_SPACE_PREFACTOR,
    FourierTable,
    KernelSpec,
    convolve_density,
    direct_convolution_reference,
    kernel_fourier_analytic,
    kernel_table_fourier,
    kernel_value,
)

__version__ = "0.1.0"
