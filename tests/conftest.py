"""Shared helpers for the test suite."""

import math

import numpy as np

from dipolariton import GpeParams, GridSpec, KernelSpec, kernel_table_fourier


def make_params(grid: GridSpec, c_dd: float, *, n0: float = 1.0, sin2_theta: float = 1.0,
                orientation=(0.0, 0.0, 1.0), m_perp: float = 1.0,
                m_par: complex = 1.0) -> GpeParams:
    """Scaled-unit solver params whose full-space dipolar coupling is c_dd.

    The Fourier coefficient of the untruncated kernel along the dipole axis is
    (8 pi / 3) * strength, and the coupling seen by the dispersion relation is
    2 n0 hbar sin^2(theta) times the coefficient divided by the angular factor
    (= 2 there), so strength = 3 c_dd / (8 pi n0 sin^2(theta)) at hbar = 1.
    """
    strength = 3.0 * c_dd / (8.0 * math.pi * n0 * sin2_theta)
    table = kernel_table_fourier(grid, KernelSpec(orientation=orientation, strength=strength))
    return GpeParams(m_perp=m_perp, m_par=m_par, sin2_theta=sin2_theta, table=table, hbar=1.0)


def lattice_q(grid: GridSpec, i: int, j: int, k: int) -> tuple[float, float, float]:
    """Reciprocal-lattice vector at integer index (i, j, k)."""
    lx, ly, lz = grid.box_lengths
    return (2.0 * math.pi * i / lx, 2.0 * math.pi * j / ly, 2.0 * math.pi * k / lz)


def random_complex(shape, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
