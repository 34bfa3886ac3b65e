"""Where does a uniform dipolar condensate break?

Small-amplitude modes on a uniform background obey an anisotropic
dispersion law. When the dipolar coupling pulls hard enough in some
direction, low-q modes there turn imaginary and the condensate is
dynamically unstable. This script builds the quasiparticle parameters for
a realistic medium, scans mode frequencies over the sphere for both signs
of the coupling, and locates the critical wavenumber along the soft rays.
"""

import math

import numpy as np

from dipolariton import (
    CondensateParams,
    MediumParams,
    critical_wavenumber,
    derive_eit,
    dispersion,
    spherical_directions,
    stability_map,
)

MEDIUM = MediumParams(g=2.5e5, n_atoms=1e10, v_t=1e-9, gamma=1e7,
                      delta=2e8, omega=1e6, k=1e7)
C_DD = 1e-31      # dipolar coupling magnitude, J


def build_params(c_dd):
    d = derive_eit(MEDIUM)
    return CondensateParams(m_perp=d.m_perp, m_par=d.m_par, c_dd=c_dd,
                            orientation=(0.0, 0.0, 1.0))


def main():
    p = build_params(C_DD)
    print(f"masses: m_perp = {p.m_perp:.4g} kg, "
          f"m_par = {p.m_par.real:.4g}{p.m_par.imag:+.2g}j kg")
    print(f"|c_dd| = {C_DD:g} J, dipoles along z")

    print()
    print("=== 1. three rays, both coupling signs ===")
    magic = math.acos(math.sqrt(1.0 / 3.0))
    rays = [
        ("axis  (q || dipoles)", np.array([0.0, 0.0, 1.0])),
        ("plane (q _|_ dipoles)", np.array([1.0, 0.0, 0.0])),
        ("magic angle", np.array([math.sin(magic), 0.0, math.cos(magic)])),
    ]
    qmag = 3e3  # 1/m, below the critical wavenumber of both soft rays
    for sign in (+1.0, -1.0):
        params = build_params(sign * C_DD)
        print(f" c_dd = {sign * C_DD:+.1e} J")
        nus = dispersion(qmag * np.array([direction for _, direction in rays]), params)
        for (name, _), nu in zip(rays, nus):
            tag = "stable" if nu.imag <= 0.0 else f"UNSTABLE, growth {nu.imag:.3g} 1/s"
            print(f"   {name:<22} nu = {nu.real:10.3e} {nu.imag:+.3e}j 1/s  {tag}")
    print(" flipping the sign of the coupling swaps which rays soften, and")
    print(" the magic-angle ray stays at the free-particle frequency for both")

    print()
    print("=== 2. full angular scan ===")
    directions = spherical_directions(9, 16)
    magnitudes = np.array([3e3, 1e4, 3e4, 1e5])
    for sign in (+1.0, -1.0):
        params = build_params(sign * C_DD)
        smap = stability_map(params, directions, magnitudes)
        print(f" c_dd = {sign * C_DD:+.1e} J: {smap.n_unstable}/{smap.nu.size} "
              f"modes unstable, max growth {smap.max_growth_rate:.4g} 1/s")
        if smap.n_unstable:
            d = smap.argmax_direction
            qmax = float(np.linalg.norm(smap.argmax_q))
            print(f"   fastest growth along ({d[0]:+.3f} {d[1]:+.3f} {d[2]:+.3f})"
                  f" at |q| = {qmax:.3g} 1/m")

    print()
    print("=== 3. critical wavenumber along the soft ray ===")
    print(" above q_c the kinetic term wins and the branch is real again")
    for sign, direction, label in [(-1.0, np.array([0.0, 0.0, 1.0]), "axis, c_dd < 0"),
                                   (+1.0, np.array([1.0, 0.0, 0.0]), "plane, c_dd > 0")]:
        params = build_params(sign * C_DD)
        qc = critical_wavenumber(direction, params)
        print(f" {label:<16} q_c = {qc:.6g} 1/m")
        below, above = dispersion(np.outer([0.99 * qc, 1.01 * qc], direction), params)
        print(f"   0.99 q_c: stable = {below.imag <= 0.0},  "
              f"1.01 q_c: stable = {above.imag <= 0.0}")


if __name__ == "__main__":
    main()
