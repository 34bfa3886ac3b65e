"""Excitation spectrum and stability analysis of the homogeneous condensate.

The polariton condensate has anisotropic kinetic energy (transverse mass
m_perp, longitudinal mass m_par along z) and a purely dipolar interaction with
no contact term. The excitation frequency at wavevector q is

    nu(q) = sqrt( E_free (E_free + C_dd (3 cos^2 beta - 1)) ) / hbar
    E_free = hbar^2 q_perp^2 / (2 m_perp) + hbar^2 q_z^2 / (2 m_par)

with beta the angle between q and the dipole axis. C_dd is an independently
configurable coupling with energy units; the grid solver calibrates it from
the kernel table it actually uses (see gpe.effective_dipolar_coupling).

With a complex longitudinal mass E_free is complex, and linearising the
mean-field equation about the uniform state gives

    hbar nu(q) = i Im(E_free) + sqrt( Re(E_free) (Re(E_free) + C_dd (3 cos^2 beta - 1)) )

which is the law above for a real mass. Of the two roots, the one with
Re(nu) >= 0 is returned, which continues the free-particle branch
nu = E_free / hbar; where the radicand is negative the root is taken with
Im >= 0, the growing branch. Im(nu) is signed: negative is damping (the
absorption carried by a complex longitudinal mass), positive is exponential
growth, and a mode is unstable exactly when Im(nu) > 0. By default the
longitudinal mass enters through its real part, so nu is real or purely
imaginary; complex-mass evaluation is available behind an explicit flag.

dispersion evaluates nu on any array of wavevectors in one expression,
stability_map scans it over directions (see spherical_directions) and
magnitudes, and critical_wavenumber gives, in closed form, the magnitude at
which a ray turns unstable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eit import HBAR
from .errors import EmptyInputError, ParameterDomainError

__all__ = [
    "CondensateParams",
    "StabilityMap",
    "dispersion",
    "stability_map",
    "critical_wavenumber",
    "spherical_directions",
]


@dataclass(frozen=True)
class CondensateParams:
    """Masses, dipolar coupling and dipole axis of the uniform condensate.

    m_perp       transverse mass [kg], > 0
    m_par        longitudinal mass [kg], complex; Re used unless complex mode
    c_dd         dipolar coupling [J], signed
    orientation  unit 3-vector of the dipole axis
    """

    m_perp: float
    m_par: complex
    c_dd: float
    orientation: tuple[float, float, float] = (0.0, 0.0, 1.0)
    hbar: float = HBAR

    def __post_init__(self):
        if not (np.isfinite(self.m_perp) and self.m_perp > 0):
            raise ParameterDomainError(f"m_perp must be positive, got {self.m_perp}")
        m_par = complex(self.m_par)
        if not (np.isfinite(m_par.real) and np.isfinite(m_par.imag)) or m_par == 0:
            raise ParameterDomainError(f"m_par must be finite and nonzero, got {m_par}")
        if not np.isfinite(self.c_dd):
            raise ParameterDomainError("c_dd must be finite")
        axis = np.asarray(self.orientation, dtype=float)
        if axis.shape != (3,) or abs(float(np.linalg.norm(axis)) - 1.0) > 1e-12:
            raise ParameterDomainError(f"orientation must be a unit 3-vector, got {self.orientation}")
        if not (np.isfinite(self.hbar) and self.hbar > 0):
            raise ParameterDomainError(f"hbar must be positive, got {self.hbar}")
        object.__setattr__(self, "m_par", m_par)
        object.__setattr__(self, "orientation", tuple(float(v) for v in axis))

    @property
    def axis(self) -> np.ndarray:
        return np.asarray(self.orientation)

    @property
    def alpha(self) -> complex:
        """Longitudinal-to-transverse mass ratio."""
        return self.m_par / self.m_perp


def _check_q(q) -> np.ndarray:
    arr = np.asarray(q, dtype=float)
    if arr.ndim == 0 or arr.shape[-1] != 3 or not np.all(np.isfinite(arr)):
        raise ParameterDomainError(f"q must hold finite 3-vectors, got shape {arr.shape}")
    return arr


def _energies(q: np.ndarray, p: CondensateParams, m_par: complex) -> tuple[np.ndarray, np.ndarray]:
    """Free-particle energy E_free and dipolar energy C_dd (3 cos^2 beta - 1) at q."""
    q_perp2 = q[..., 0] ** 2 + q[..., 1] ** 2
    q2 = q_perp2 + q[..., 2] ** 2
    cos2 = (q @ p.axis) ** 2 / np.where(q2 > 0.0, q2, 1.0)
    e_free = p.hbar**2 * (q_perp2 / (2.0 * p.m_perp) + q[..., 2] ** 2 / (2.0 * m_par))
    return e_free, p.c_dd * (3.0 * cos2 - 1.0)


def dispersion(q, p: CondensateParams, complex_mass: bool = False) -> np.ndarray:
    """Excitation frequency nu(q) for wavevectors q of shape (..., 3).

    nu has shape q.shape[:-1], so a single 3-vector gives a complex scalar.
    """
    if not complex_mass and p.m_par.real == 0:
        raise ParameterDomainError("Re(m_par) is zero; use complex_mass=True")
    e_free, e_int = _energies(_check_q(q), p, p.m_par if complex_mass else p.m_par.real)
    e_re = np.real(e_free)
    radicand = e_re * (e_re + e_int)
    re = np.sqrt(np.maximum(radicand, 0.0))
    im = np.imag(e_free) + np.sqrt(np.maximum(-radicand, 0.0))
    # each part is divided by hbar on its own: numpy divides a complex array
    # by multiplying with 1/hbar, which rounds twice
    return re / p.hbar + 1j * (im / p.hbar)


def spherical_directions(n_polar: int, n_azimuth: int) -> np.ndarray:
    """Deterministic unit-vector grid: midpoints in polar angle, uniform azimuth.

    Polar-major: row i * n_azimuth + j has polar index i and azimuth index j.
    """
    if n_polar < 1 or n_azimuth < 1:
        raise ParameterDomainError("need at least one polar and one azimuthal sample")
    thetas = (np.arange(n_polar) + 0.5) / n_polar * np.pi
    phis = np.arange(n_azimuth) / n_azimuth * 2.0 * np.pi
    th, ph = np.meshgrid(thetas, phis, indexing="ij")
    st = np.sin(th)
    return np.stack((st * np.cos(ph), st * np.sin(ph), np.cos(th)), axis=-1).reshape(-1, 3)


@dataclass(frozen=True)
class StabilityMap:
    """Excitation frequencies over a direction x magnitude scan.

    q[i, j] = directions[i] * magnitudes[j] has shape (n_dir, n_mag, 3) and
    nu[i, j] = dispersion(q[i, j]) shape (n_dir, n_mag). The argmax is the
    first mode in scan order (direction-major) with the largest Im(nu).
    """

    directions: np.ndarray
    magnitudes: np.ndarray
    q: np.ndarray
    nu: np.ndarray

    @property
    def stable(self) -> np.ndarray:
        return self.nu.imag <= 0.0

    @property
    def n_unstable(self) -> int:
        return int(np.count_nonzero(self.nu.imag > 0.0))

    @property
    def max_growth_rate(self) -> float:
        return max(float(self.nu.imag.max()), 0.0)

    @property
    def _argmax(self) -> tuple[int, int]:
        return np.unravel_index(np.argmax(self.nu.imag), self.nu.shape)

    @property
    def argmax_direction(self) -> tuple[float, float, float]:
        return tuple(self.directions[self._argmax[0]])

    @property
    def argmax_q(self) -> tuple[float, float, float]:
        return tuple(self.q[self._argmax])


def stability_map(
    p: CondensateParams, directions, magnitudes, complex_mass: bool = False
) -> StabilityMap:
    """Evaluate the dispersion over directions (outer) and magnitudes (inner)."""
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    mags = np.asarray(magnitudes, dtype=float).ravel()
    if dirs.size == 0 or mags.size == 0:
        raise EmptyInputError("directions and magnitudes must be non-empty")
    if dirs.shape[1] != 3:
        raise ParameterDomainError(f"directions must be (n, 3), got {dirs.shape}")
    norms = np.linalg.norm(dirs, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-9):
        raise ParameterDomainError("directions must be unit vectors")
    if np.any(~np.isfinite(mags)) or np.any(mags < 0):
        raise ParameterDomainError("magnitudes must be finite and non-negative")
    q = dirs[:, None, :] * mags[None, :, None]
    nu = dispersion(q, p, complex_mass=complex_mass)
    return StabilityMap(directions=dirs, magnitudes=mags, q=q, nu=nu)


def critical_wavenumber(direction, p: CondensateParams) -> float | None:
    """Wavenumber where the dispersion radicand changes sign along a ray.

    Returns None when the ray is stable at every magnitude. Uses the real part
    of the longitudinal mass.
    """
    d = np.asarray(direction, dtype=float)
    if d.shape != (3,) or abs(float(np.linalg.norm(d)) - 1.0) > 1e-9:
        raise ParameterDomainError(f"direction must be a unit 3-vector, got {direction}")
    if p.m_par.real == 0:
        raise ParameterDomainError("Re(m_par) is zero")
    c2, a_int = (float(v) for v in _energies(d, p, p.m_par.real))
    # E_free(q d) = c2 q^2, so the radicand c2 q^2 (c2 q^2 + a_int) changes
    # sign at q^2 = -a_int / c2, which is positive when c2 and a_int are opposed
    q_c2 = -a_int / c2 if c2 != 0.0 else 0.0
    return math.sqrt(q_c2) if q_c2 > 0.0 else None
