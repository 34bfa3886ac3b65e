"""Medium parameters of the stationary-light scheme and derived polariton quantities.

A cold atomic ensemble driven by two counterpropagating control fields traps a
pair of probe fields as stationary light. The dark-state polariton that forms
acquires an effective transverse mass from diffraction and a complex effective
longitudinal mass from the EIT absorption profile. This module computes those
quantities from raw medium parameters, checks the validity margins of the
adiabatic treatment for a stored pulse given by its duration, length and
sampled dipolar shift, evaluates four-wave phase matching, and gives the
characteristic scales of the polariton problem.

All inputs and outputs are SI, with hbar and c the CODATA values HBAR and
C_LIGHT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ParameterDomainError, check_positive, check_real, check_vector

__all__ = [
    "HBAR",
    "C_LIGHT",
    "REAL_MASS_RATIO",
    "MediumParams",
    "DerivedQuantities",
    "MarginRatio",
    "MarginReport",
    "UnitScales",
    "derive_eit",
    "phase_mismatch",
    "adiabaticity_margins",
]

# CODATA 2018 values, equal to scipy.constants.hbar and scipy.constants.c
HBAR = 1.0545718176461565e-34  # J s
C_LIGHT = 299792458.0  # m/s

# detuning-to-linewidth ratio above which dropping Im(m_par) is a good approximation
REAL_MASS_RATIO = 10.0


@dataclass(frozen=True)
class MediumParams:
    """Raw parameters of the driven atomic medium, one field per `medium.*` key.

    g            single photon-atom coupling [rad/s]
    n_atoms      number of atoms in the interaction volume
    v_t          interaction volume [m^3]
    gamma        excited-state decay rate [rad/s]
    delta        one-photon detuning, signed [rad/s]
    omega        control Rabi frequency [rad/s]
    k            probe carrier wavenumber [1/m]

    The dipolar coupling is not a medium parameter: it enters only as
    KernelSpec.strength (the config's `kernel.strength`).
    """

    g: float
    n_atoms: float
    v_t: float
    gamma: float
    delta: float
    omega: float
    k: float

    def __post_init__(self):
        for f in fields(self):
            check = check_real if f.name == "delta" else check_positive
            object.__setattr__(self, f.name, check(getattr(self, f.name), f.name))


@dataclass(frozen=True)
class DerivedQuantities:
    """Polariton quantities computed from MediumParams.

    l_abs          resonant absorption length [m]
    theta          mixing angle, tan^2 = g^2 N / (2 Omega^2) [rad]
    v_gr           group velocity c cos^2(theta) [m/s]
    m_perp         transverse effective mass hbar k / v_gr [kg]
    alpha          complex longitudinal-to-transverse mass ratio
    m_par          longitudinal effective mass m_perp * alpha [kg]
    gamma_complex  total complex linewidth gamma + i delta [rad/s]
    real_mass_suggested  True when delta/gamma is large enough to drop Im(m_par)
    """

    l_abs: float
    theta: float
    v_gr: float
    m_perp: float
    alpha: complex
    m_par: complex
    gamma_complex: complex
    real_mass_suggested: bool

    def real_mass(self) -> "DerivedQuantities":
        """Copy with the imaginary part of the longitudinal mass dropped."""
        return replace(self, m_par=complex(self.m_par.real, 0.0))

    @property
    def detuning_ratio(self) -> float:
        return self.gamma_complex.imag / self.gamma_complex.real


def derive_eit(params: MediumParams) -> DerivedQuantities:
    """Derive the polariton quantities from raw medium parameters."""
    g2n = params.g**2 * params.n_atoms
    l_abs = params.gamma * C_LIGHT / g2n
    tan2 = g2n / (2.0 * params.omega**2)
    theta = math.atan(math.sqrt(tan2))
    cos2 = 1.0 / (1.0 + tan2)
    v_gr = C_LIGHT * cos2
    m_perp = HBAR * params.k / v_gr
    ratio = params.delta / params.gamma
    alpha = 1.0 / (2.0 * params.k * l_abs * complex(ratio, -1.0))
    return DerivedQuantities(
        l_abs=l_abs,
        theta=theta,
        v_gr=v_gr,
        m_perp=m_perp,
        alpha=alpha,
        m_par=m_perp * alpha,
        gamma_complex=complex(params.gamma, params.delta),
        real_mass_suggested=ratio >= REAL_MASS_RATIO,
    )


def phase_mismatch(k_plus, k_minus, k_c_plus, k_c_minus) -> np.ndarray:
    """Residual wavevector of the four-wave exchange between the two probe branches.

    Returns k_plus + k_c_minus - (k_minus + k_c_plus). A zero vector means the
    exchange that converts one stationary-light component into the other is
    phase matched.
    """
    kp = check_vector(k_plus, "k_plus", single=True)
    km = check_vector(k_minus, "k_minus", single=True)
    kcp = check_vector(k_c_plus, "k_c_plus", single=True)
    kcm = check_vector(k_c_minus, "k_c_minus", single=True)
    return kp + kcm - (km + kcp)


@dataclass(frozen=True)
class MarginRatio:
    name: str
    value: float
    passed: bool


@dataclass(frozen=True)
class MarginReport:
    ratios: tuple[MarginRatio, ...]
    margin: float

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.ratios)


def adiabaticity_margins(
    params: MediumParams,
    derived: DerivedQuantities,
    T: float,
    l_pulse: float,
    delta_rr_avg: float = 0.0,
    margin: float = 10.0,
) -> MarginReport:
    """Check the four validity ratios of the adiabatic polariton treatment.

    The stored pulse lasts T [s], > 0, and is l_pulse [m] long in the
    medium, > 0; delta_rr_avg >= 0 is the mean dipolar level shift it
    samples [rad/s]. Each ratio must exceed `margin` (default 10) for the
    effective mean-field description to hold:

    linewidth_time        |gamma + i delta| * T
    pulse_length          l_pulse / sqrt(|i delta/gamma + 1| * l_abs / k)
    drive_bandwidth       (Omega^2/gamma) sqrt(l_abs/l_pulse) * T
    drive_vs_shift        (Omega^2/gamma) sqrt(l_abs/l_pulse) / <delta_RR>

    The last ratio is +inf (trivially passing) when the sampled dipolar shift
    is zero.
    """
    T = check_positive(T, "T")
    l_pulse = check_positive(l_pulse, "l_pulse")
    delta_rr_avg = check_real(delta_rr_avg, "delta_rr_avg")
    if delta_rr_avg < 0:
        raise ParameterDomainError(f"delta_rr_avg must be non-negative, got {delta_rr_avg}")
    margin = check_positive(margin, "margin")
    abs_gamma = abs(derived.gamma_complex)
    r1 = abs_gamma * T
    diffusion_scale = math.sqrt((abs_gamma / params.gamma) * derived.l_abs / params.k)
    r2 = l_pulse / diffusion_scale
    drive = (params.omega**2 / params.gamma) * math.sqrt(derived.l_abs / l_pulse)
    r3 = drive * T
    r4 = math.inf if delta_rr_avg == 0 else drive / delta_rr_avg
    ratios = (
        MarginRatio("linewidth_time", r1, r1 >= margin),
        MarginRatio("pulse_length", r2, r2 >= margin),
        MarginRatio("drive_bandwidth", r3, r3 >= margin),
        MarginRatio("drive_vs_shift", r4, r4 >= margin),
    )
    return MarginReport(ratios=ratios, margin=margin)


@dataclass(frozen=True)
class UnitScales:
    """Characteristic scales of the polariton problem.

    length = 1/k and time = m_perp * length^2 / HBAR; measured in them,
    hbar -> 1, m_perp -> 1 and m_par -> alpha. `derive` reports them.
    """

    length: float
    time: float

    def __post_init__(self):
        for name in ("length", "time"):
            object.__setattr__(self, name, check_positive(getattr(self, name), name))

    @classmethod
    def from_derived(cls, derived: DerivedQuantities) -> "UnitScales":
        # m_perp = hbar k / v_gr, so 1/k = hbar / (m_perp v_gr)
        length = HBAR / (derived.m_perp * derived.v_gr)
        return cls(length=length, time=derived.m_perp * length**2 / HBAR)

    @property
    def energy(self) -> float:
        return HBAR / self.time

    @property
    def density(self) -> float:
        return self.length**-3
