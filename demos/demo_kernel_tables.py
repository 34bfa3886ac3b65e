"""Momentum-space dipole-dipole kernel on a finite box.

The long-range interaction enters the solver as a per-grid table of Fourier
coefficients, built from the kernel truncated at a sphere so that periodic
images of the cloud do not talk to each other. This script samples the
real-space kernel along its characteristic directions, checks the lattice
table against the truncated continuum transform, and shows how the
truncation envelope converges to the full-space angular factor.
"""

import math

import numpy as np

from dipolariton import (
    GridSpec,
    KernelSpec,
    kernel_fourier_analytic,
    kernel_table_fourier,
    kernel_value,
)

ORIENTATION = (0.0, 0.0, 1.0)


def main():
    spec = KernelSpec(orientation=ORIENTATION, strength=1.0)

    print("=== 1. real-space kernel, dipoles along z ===")
    magic = math.acos(math.sqrt(1.0 / 3.0))
    rows = [
        ("along the dipoles", (0.0, 0.0, 1.0)),
        ("in the hard plane", (1.0, 0.0, 0.0)),
        ("magic angle", (math.sin(magic), 0.0, math.cos(magic))),
    ]
    for name, r in rows:
        print(f" {name:<18} C(r) = {float(kernel_value(r, spec)):+.6f}  at |r| = 1")
    print(" head-to-tail attraction is twice as strong as the side-by-side")
    print(" repulsion, and the interaction vanishes on the cone between them")

    print()
    print("=== 2. lattice table vs truncated continuum transform ===")
    grid = GridSpec((32, 32, 32), (0.5, 0.5, 0.5))
    lattice = kernel_table_fourier(grid, spec, method="lattice")
    analytic = kernel_table_fourier(grid, spec, method="analytic")
    print(f" grid {grid.dims}, spacing {grid.spacings}, "
          f"truncation radius R = {lattice.spec.sphere_radius:g}")
    diff = np.abs(lattice.coeffs - analytic.coeffs)
    scale = np.abs(analytic.coeffs).max()
    low = max(abs(lattice.coeffs[i] - analytic.coeffs[i]) / scale
              for i in [(0, 0, 1), (1, 0, 0), (0, 1, 1), (1, 1, 1)])
    print(f" smallest modes:  |lattice - analytic| / max|analytic| = {low:.1e}")
    print(f" worst (Nyquist): |lattice - analytic| / max|analytic| = {diff.max() / scale:.1e}")
    print(" the two tables agree where the grid resolves the kernel and part")
    print(" ways near the Nyquist corner; the lattice sum folds that")
    print(" discretization into the table, which is exactly what makes FFT")
    print(" convolution match the direct lattice sum to roundoff")

    print()
    print("=== 3. truncation envelope at one axial mode ===")
    qz = 2.0 * math.pi / 16.0
    full = float(kernel_fourier_analytic((0.0, 0.0, qz), spec))
    print(f" full-space value at q = (0, 0, {qz:.4f}): {full:+.6f}")
    print(" R       table/full   1 + 3cos(qR)/(qR)^2 - 3sin(qR)/(qR)^3")
    for radius in (2.0, 4.0, 8.0, 16.0, 32.0):
        truncated = KernelSpec(orientation=ORIENTATION, strength=1.0,
                               sphere_radius=radius)
        table = kernel_table_fourier(grid, truncated, method="analytic")
        ratio = table.coeffs[0, 0, 1] / full
        x = qz * radius
        envelope = 1.0 + 3.0 * math.cos(x) / x**2 - 3.0 * math.sin(x) / x**3
        print(f" {radius:5.1f}   {ratio:+.6f}    {envelope:+.6f}")
    print(" production tables inherit R = half the shortest box edge, so the")
    print(" smallest modes of a small box carry a visibly softened coupling;")
    print(" the ripple decays like 1/(qR)^2 once qR >> 1")


if __name__ == "__main__":
    main()
