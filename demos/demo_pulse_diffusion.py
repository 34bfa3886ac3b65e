"""Longitudinal pulse spreading of the trapped light component.

Counterpropagating probe envelopes split into a sum mode, which is the
long-lived object, and a difference mode that the medium pins to the sum
mode's gradient. Eliminating the difference mode leaves a single equation
for the sum whose coefficient looks like a diffusion constant. At zero
one-photon detuning that constant is purely real and Gaussian pulses
spread exactly like heat; detuning rotates part of it into a dispersive
imaginary piece. Everything below is SI.
"""

import math

import numpy as np

from dipolariton import (
    Grid1D,
    MediumParams,
    derive_eit,
    diffusion_coefficient,
    eliminate_difference,
    gaussian_profile,
    simulate_linear_1d,
    sum_difference,
)


def medium_with_detuning(delta):
    return MediumParams(g=2.5e5, n_atoms=1e10, v_t=1e-9, gamma=1e7,
                        delta=delta, omega=1e6, k=1e7)


def main():
    print("=== 1. sum and difference modes ===")
    grid = Grid1D(256, 1e-6)
    sigma = 2.0e-5
    fwd = gaussian_profile(grid, sigma)
    bwd = 0.5 * gaussian_profile(grid, sigma)
    e_sum, e_diff = sum_difference(fwd, bwd, grid)
    back_fwd, back_bwd = sum_difference(e_sum, e_diff, grid)
    err = max(np.max(np.abs(back_fwd - fwd)), np.max(np.abs(back_bwd - bwd)))
    power_in = np.sum(np.abs(fwd) ** 2 + np.abs(bwd) ** 2)
    power_out = np.sum(np.abs(e_sum) ** 2 + np.abs(e_diff) ** 2)
    print(f" roundtrip error {err:.2e}, power ratio {power_out / power_in:.15f}")
    print(" the basis change is unitary, so nothing is gained or lost")

    print()
    print("=== 2. the pinned difference mode ===")
    medium = medium_with_detuning(0.0)
    d = derive_eit(medium)
    e_diff = eliminate_difference(e_sum, grid, d)
    ratio = np.max(np.abs(e_diff)) / np.max(np.abs(e_sum))
    print(f" |difference| / |sum| at the peak: {ratio:.3e}")
    print(f" (the medium slaves it to l_abs d/dz of the sum; l_abs ="
          f" {d.l_abs:.3e} m against a {sigma:.0e} m pulse)")

    print()
    print("=== 3. diffusion coefficient vs detuning ===")
    print(" delta/gamma   Re D [m^2/s]    Im D [m^2/s]    Im/Re")
    for ratio_dg in (0.0, 0.5, 2.0, 10.0):
        dd = derive_eit(medium_with_detuning(ratio_dg * 1e7))
        coeff = diffusion_coefficient(dd)
        print(f" {ratio_dg:10.1f}   {coeff.real:.6e}   {coeff.imag:.6e}"
              f"   {coeff.imag / coeff.real:8.3f}")
    print(" at zero detuning the pulse diffuses; detuning adds dispersion")
    print(" at the fixed rate Im/Re = delta/gamma")

    print()
    print("=== 4. the variance law, integrated ===")
    coeff = diffusion_coefficient(d)
    sigma0 = 8.0 * d.l_abs
    run_grid = Grid1D(512, d.l_abs / 4.0)
    initial = gaussian_profile(run_grid, sigma0)
    t_final = 3.0 * sigma0**2 / (2.0 * coeff.real)
    n_steps = 1600
    result = simulate_linear_1d(run_grid, initial, coeff, t_final / n_steps, n_steps,
                                snapshot_stride=400)
    print(f" D = {coeff.real:.4e} m^2/s (real at zero detuning),"
          f" sigma0 = {sigma0:.3e} m")
    print(" t [s]          variance measured   sigma0^2 + 2 D t    rel dev")
    for t, var in zip(result.times, result.variances):
        exact = sigma0**2 + 2.0 * coeff.real * t
        print(f" {t:.4e}     {var:.6e}        {exact:.6e}       "
              f"{abs(var - exact) / exact:.2e}")
    rate_dev = abs(result.variance_rate - 2.0 * coeff.real) / (2.0 * coeff.real)
    print(f" fitted variance growth rate vs 2D: rel dev {rate_dev:.2e}")
    norms = np.asarray(result.norms)
    print(f" norm ratio over the run: {norms[-1] / norms[0]:.6f}"
          f" (a diffusing Gaussian loses power as sigma0/sigma;")
    print("  the variance quadrupled, so the norm halved exactly)")


if __name__ == "__main__":
    main()
