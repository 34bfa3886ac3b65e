"""Medium parameters of the stationary-light scheme and derived polariton quantities.

A cold atomic ensemble driven by two counterpropagating control fields traps a
pair of probe fields as stationary light. The dark-state polariton that forms
acquires an effective transverse mass from diffraction and a complex effective
longitudinal mass from the EIT absorption profile. This module computes those
quantities from raw medium parameters, checks the validity margins of the
adiabatic treatment, evaluates four-wave phase matching, and gives the
characteristic scales of the polariton problem.

All inputs and outputs are SI; hbar and c enter explicitly so the formulas can
also be run in scaled units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterDomainError

__all__ = [
    "HBAR",
    "C_LIGHT",
    "MediumParams",
    "DerivedQuantities",
    "PulseSpec",
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
    """Raw parameters of the driven atomic medium.

    g            single photon-atom coupling [rad/s]
    n_atoms      number of atoms in the interaction volume
    v_t          interaction volume [m^3]
    gamma        excited-state decay rate [rad/s]
    delta        one-photon detuning, signed [rad/s]
    omega        control Rabi frequency [rad/s]
    k            probe carrier wavenumber [1/m]
    k_c_perp     shared transverse wavevector of the control fields [1/m]
    u_strength   dipolar coupling per squared transition moment [rad/s * m^3]
    dip_moment_r reduced transition moment of the upper-state pair [dimensionless]
    """

    g: float
    n_atoms: float
    v_t: float
    gamma: float
    delta: float
    omega: float
    k: float
    k_c_perp: tuple[float, float] = (0.0, 0.0)
    u_strength: float = 0.0
    dip_moment_r: float = 1.0

    def __post_init__(self):
        positive = {
            "g": self.g,
            "n_atoms": self.n_atoms,
            "v_t": self.v_t,
            "gamma": self.gamma,
            "omega": self.omega,
            "k": self.k,
        }
        for name, value in positive.items():
            if not (np.isfinite(value) and value > 0):
                raise ParameterDomainError(f"{name} must be positive and finite, got {value}")
        if not np.isfinite(self.delta):
            raise ParameterDomainError(f"delta must be finite, got {self.delta}")
        if len(self.k_c_perp) != 2 or not all(np.isfinite(v) for v in self.k_c_perp):
            raise ParameterDomainError(f"k_c_perp must be a finite 2-vector, got {self.k_c_perp}")
        if not np.isfinite(self.u_strength):
            raise ParameterDomainError("u_strength must be finite")
        if not np.isfinite(self.dip_moment_r):
            raise ParameterDomainError("dip_moment_r must be finite")
        object.__setattr__(self, "k_c_perp", tuple(float(v) for v in self.k_c_perp))

    @property
    def kernel_strength(self) -> float:
        """Dipolar kernel prefactor: coupling times squared transition moment."""
        return self.u_strength * self.dip_moment_r**2


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


def derive_eit(params: MediumParams, hbar: float = HBAR, c: float = C_LIGHT) -> DerivedQuantities:
    """Derive the polariton quantities from raw medium parameters."""
    g2n = params.g**2 * params.n_atoms
    l_abs = params.gamma * c / g2n
    tan2 = g2n / (2.0 * params.omega**2)
    theta = math.atan(math.sqrt(tan2))
    cos2 = 1.0 / (1.0 + tan2)
    v_gr = c * cos2
    m_perp = hbar * params.k / v_gr
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
    vecs = []
    for name, v in (("k_plus", k_plus), ("k_minus", k_minus),
                    ("k_c_plus", k_c_plus), ("k_c_minus", k_c_minus)):
        arr = np.asarray(v, dtype=float)
        if arr.shape != (3,) or not np.all(np.isfinite(arr)):
            raise ParameterDomainError(f"{name} must be a finite 3-vector, got {v}")
        vecs.append(arr)
    kp, km, kcp, kcm = vecs
    return kp + kcm - (km + kcp)


@dataclass(frozen=True)
class PulseSpec:
    """Temporal and spatial extent of the stored pulse.

    T             storage/interaction time [s]
    l_pulse       pulse length in the medium [m]
    delta_rr_avg  mean dipolar level shift sampled by the pulse [rad/s], >= 0
    """

    T: float
    l_pulse: float
    delta_rr_avg: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.T) and self.T > 0):
            raise ParameterDomainError(f"pulse time T must be positive, got {self.T}")
        if not (np.isfinite(self.l_pulse) and self.l_pulse > 0):
            raise ParameterDomainError(f"l_pulse must be positive, got {self.l_pulse}")
        if not (np.isfinite(self.delta_rr_avg) and self.delta_rr_avg >= 0):
            raise ParameterDomainError(
                f"delta_rr_avg must be non-negative, got {self.delta_rr_avg}"
            )


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

    def __getitem__(self, name: str) -> MarginRatio:
        for r in self.ratios:
            if r.name == name:
                return r
        raise KeyError(name)


def adiabaticity_margins(
    params: MediumParams,
    derived: DerivedQuantities,
    pulse: PulseSpec,
    margin: float = 10.0,
    c: float = C_LIGHT,
) -> MarginReport:
    """Check the four validity ratios of the adiabatic polariton treatment.

    Each ratio must exceed `margin` (default 10) for the effective mean-field
    description to hold:

    linewidth_time        |gamma + i delta| * T
    pulse_length          l_pulse / sqrt(|i delta/gamma + 1| * l_abs / k)
    drive_bandwidth       (Omega^2/gamma) sqrt(l_abs/l_pulse) * T
    drive_vs_shift        (Omega^2/gamma) sqrt(l_abs/l_pulse) / <delta_RR>

    The last ratio is +inf (trivially passing) when the sampled dipolar shift
    is zero.
    """
    if not (np.isfinite(margin) and margin > 0):
        raise ParameterDomainError(f"margin must be positive, got {margin}")
    abs_gamma = abs(derived.gamma_complex)
    r1 = abs_gamma * pulse.T
    diffusion_scale = math.sqrt((abs_gamma / params.gamma) * derived.l_abs / params.k)
    r2 = pulse.l_pulse / diffusion_scale
    drive = (params.omega**2 / params.gamma) * math.sqrt(derived.l_abs / pulse.l_pulse)
    r3 = drive * pulse.T
    r4 = math.inf if pulse.delta_rr_avg == 0 else drive / pulse.delta_rr_avg
    ratios = (
        MarginRatio("linewidth_time", r1, r1 >= margin),
        MarginRatio("pulse_length", r2, r2 >= margin),
        MarginRatio("drive_bandwidth", r3, r3 >= margin),
        MarginRatio("drive_vs_shift", r4, r4 >= margin),
    )
    return MarginReport(ratios=ratios, margin=float(margin))


@dataclass(frozen=True)
class UnitScales:
    """Characteristic scales of the polariton problem.

    length = 1/k, time = m_perp * length^2 / hbar, mass = m_perp. Measured in
    them, hbar -> 1, m_perp -> 1 and m_par -> alpha; `derive` reports them.
    """

    length: float
    time: float
    mass: float
    hbar: float = HBAR

    def __post_init__(self):
        for name in ("length", "time", "mass", "hbar"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ParameterDomainError(f"scale {name} must be positive, got {v}")

    @classmethod
    def from_derived(cls, derived: DerivedQuantities, hbar: float = HBAR) -> "UnitScales":
        # m_perp = hbar k / v_gr, so 1/k = hbar / (m_perp v_gr)
        length = hbar / (derived.m_perp * derived.v_gr)
        time = derived.m_perp * length**2 / hbar
        return cls(length=length, time=time, mass=derived.m_perp, hbar=hbar)

    @property
    def frequency(self) -> float:
        return 1.0 / self.time

    @property
    def energy(self) -> float:
        return self.hbar / self.time

    @property
    def density(self) -> float:
        return self.length**-3

    @property
    def kernel_strength(self) -> float:
        # kernel values carry frequency, so strength = frequency * volume
        return self.length**3 / self.time
