"""Command-line front end.

    dipolariton <command> --config FILE [--out DIR] [--threads N] [--complex-mass]

Commands
    derive         medium parameters -> derived polariton quantities (CSV)
    kernel         tabulate the interaction kernel and its Fourier table
    dispersion     collective-mode frequencies along configured rays
    stability-map  growth-rate scan over a direction/magnitude grid
    evolve         nonlinear split-step evolution, observables time series
    respond        linear-response measurement of one mode vs. prediction
    validate       adiabaticity margins and four-wave phase mismatch
    selftest       run the built-in numerical oracles

Files go to --out, created on the first write; the last stdout line is
`wrote a, b, ...`. Exit codes: 0 success, 1 stdout closed by its reader,
2 validation error (a package ValueError, a missing, unreadable or non-UTF-8
config, an --out that cannot be a directory), 3 numerical failure (a package
RuntimeError). The longitudinal mass is the real part of the EIT mass unless
--complex-mass keeps it whole. Every command runs in the config's SI units,
and so do its files and messages. Outputs are deterministic: no timestamps,
fixed formatting, atomic writes.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import __version__
from .bogoliubov import (
    CondensateParams,
    StabilityMap,
    critical_wavenumber,
    spherical_directions,
    stability_map,
)
from .config import SimConfig, parse_config
from .eit import (
    C_LIGHT,
    DerivedQuantities,
    MediumParams,
    PulseSpec,
    UnitScales,
    adiabaticity_margins,
    derive_eit,
    phase_mismatch,
)
from .errors import ConfigError, DipolaritonError, check_vector
from .fields import (
    LinearRunConfig,
    eliminate_difference,
    gaussian_profile,
    simulate_linear_1d,
)
from .fileio import (
    _g,
    provenance_lines,
    write_field,
    write_kernel_table,
    write_table,
)
from .gpe import (
    CondensateState,
    GpeParams,
    _kinetic_phase,
    evolve,
    init_state,
    linear_response_experiment,
)
from .grid import Grid1D, GridSpec
from .kernel import (
    FourierTable,
    KernelSpec,
    _truncated_radial_factor,
    convolve_density,
    direct_convolution_reference,
    kernel_table_fourier,
    kernel_value,
)

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dipolariton",
        description="Stationary-light polariton condensate toolkit.",
    )
    parser.add_argument("command", choices=tuple(_COMMANDS))
    parser.add_argument("--config", help="path to a section.key = value config file")
    parser.add_argument("--out", default=".", metavar="DIR",
                        help="output directory (created if missing)")
    parser.add_argument("--threads", type=int, default=1, metavar="N",
                        help="FFT worker threads of the kernel table and the split-step "
                             "propagator (default 1)")
    parser.add_argument("--complex-mass", action="store_true",
                        help="keep the complex longitudinal mass (default: its real part)")
    return parser


def _load_config(args) -> SimConfig | None:
    """The parsed --config; None only for selftest, which needs none."""
    if not args.config:
        if args.command == "selftest":
            return None
        raise ConfigError(f"command '{args.command}' requires --config")
    try:
        # newline="" keeps CRLF, so the recorded digest is that of the file's bytes
        with open(args.config, encoding="utf-8", newline="") as fh:
            return parse_config(fh.read())
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {args.config} is not UTF-8 text "
                          f"(byte {exc.start}: {exc.reason})") from None
    except OSError as exc:
        raise ConfigError(f"config {args.config} cannot be read ({exc.strerror})") from None


class _Run:
    """One invocation: the command, its config and options, and the files it writes."""

    def __init__(self, args):
        if args.threads < 1:
            raise ConfigError("--threads must be >= 1")
        self.command = args.command
        self.cfg = _load_config(args)
        self.threads = args.threads
        self.complex_mass = args.complex_mass
        self.out = args.out
        self.written: list[str] = []

    def require(self, key: str):
        return self.cfg.require(key, self.command)

    def path(self, name: str) -> str:
        """Path of output file name in --out, which is created if missing."""
        try:
            os.makedirs(self.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out {self.out} cannot be used as the output directory "
                              f"({exc.strerror})") from None
        path = os.path.join(self.out, name)
        self.written.append(path)
        return path

    def table(self, name: str, header, rows, *extra_comments: str) -> None:
        """CSV name in --out, opened by the provenance lines and extra_comments."""
        cfg = self.cfg
        comments = provenance_lines(__version__, cfg and cfg.sha256, cfg and cfg.effective)
        write_table(self.path(name), header, rows, comments=comments + list(extra_comments))


def _table(run: _Run) -> FourierTable:
    """Kernel Fourier table of the config's grid, which is required before the kernel."""
    cfg = run.cfg
    grid = cfg.require_grid(run.command)
    spec = KernelSpec(orientation=cfg.get("kernel.orientation"),
                      strength=run.require("kernel.strength"),
                      cutoff_radius=cfg.get("kernel.cutoff_radius"),
                      sphere_radius=cfg.get("kernel.sphere_radius"))
    return kernel_table_fourier(grid, spec, method=cfg.get("kernel.method"), workers=run.threads)


def _derived(run: _Run) -> DerivedQuantities:
    """EIT quantities of the medium, with the real mass unless --complex-mass."""
    derived = derive_eit(run.cfg.require_medium(run.command))
    return derived if run.complex_mass else derived.real_mass()


# ---------------------------------------------------------------- commands

def _cmd_derive(run: _Run) -> int:
    derived = derive_eit(run.cfg.require_medium(run.command))
    scales = UnitScales.from_derived(derived)
    rows = [
        ("theta", derived.theta, 0.0),
        ("sin2_theta", math.sin(derived.theta) ** 2, 0.0),
        ("group_velocity", derived.v_gr, 0.0),
        ("absorption_length", derived.l_abs, 0.0),
        ("mass_perp", derived.m_perp, 0.0),
        ("mass_par", derived.m_par.real, derived.m_par.imag),
        ("alpha", derived.alpha.real, derived.alpha.imag),
        ("gamma_complex", derived.gamma_complex.real, derived.gamma_complex.imag),
        ("detuning_ratio", derived.detuning_ratio, 0.0),
        ("real_mass_suggested", 1.0 if derived.real_mass_suggested else 0.0, 0.0),
        ("length_scale", scales.length, 0.0),
        ("time_scale", scales.time, 0.0),
        ("energy_scale", scales.energy, 0.0),
    ]
    run.table("derived.csv", ("quantity", "real", "imag"), rows)
    print(f"group velocity {derived.v_gr:.6g} m/s, "
          f"absorption length {derived.l_abs:.6g} m")
    print(f"masses: perp {derived.m_perp:.6g} kg, "
          f"par {derived.m_par.real:.6g}{derived.m_par.imag:+.6g}j kg "
          f"(|alpha| = {abs(derived.alpha):.6g})")
    print(f"real-mass treatment suggested: {derived.real_mass_suggested}")
    return 0


def _cmd_kernel(run: _Run) -> int:
    """kernel_real.csv holds the bare kernel at every minimum-image displacement, the tables
    only what lies inside the truncation sphere; so the DFT of the CSV is not the table."""
    table = _table(run)
    grid, spec = table.grid, table.spec

    rvec = np.stack(np.meshgrid(*grid.displacements(), indexing="ij"), axis=-1)
    vals = np.zeros(grid.shape)
    mask = np.linalg.norm(rvec, axis=-1) > 0
    vals[mask] = kernel_value(rvec[mask], spec)
    run.table("kernel_real.csv", ("x", "y", "z", "epsilon"),
              np.column_stack((rvec.reshape(-1, 3), vals.ravel())),
              "# origin sample set to 0 (self-interaction excluded)")

    qx, qy, qz = grid.wavenumbers()
    qmesh = np.meshgrid(qx, qy, qz[: table.coeffs.shape[2]], indexing="ij")
    run.table("kernel_fourier.csv", ("qx", "qy", "qz", "coefficient"),
              np.column_stack([*(q.ravel() for q in qmesh), table.coeffs.ravel()]),
              f"# method {table.method}", f"# sphere_radius {_g(spec.sphere_radius)}",
              "# half spectrum, z index 0 .. nz/2 in rfftn order; coefficient(-q) = coefficient(q)")
    write_kernel_table(run.path("kernel_table.bin"), table)
    print(f"tabulated {table.coeffs.size} coefficients (half spectrum, {table.method} method, "
          f"truncation radius {spec.sphere_radius:.6g} m)")
    print(f"coefficient range [{table.coeffs.min():.6g}, {table.coeffs.max():.6g}]")
    return 0


def _ray_directions(run: _Run) -> np.ndarray:
    flat = run.require("run.directions")
    if len(flat) % 3 != 0:
        raise ConfigError(f"run.directions must hold 3 components per direction, "
                          f"got {len(flat)} numbers")
    dirs = check_vector(np.reshape(flat, (-1, 3)), "run.directions")
    norms = np.linalg.norm(dirs, axis=1)
    if np.any(norms == 0):
        raise ConfigError("run.directions contains a zero vector")
    return dirs / norms[:, None]


def _condensate_params(run: _Run) -> CondensateParams:
    derived = _derived(run)
    return CondensateParams(
        m_perp=derived.m_perp,
        m_par=derived.m_par,
        c_dd=run.require("run.c_dd"),
        orientation=run.cfg.get("kernel.orientation"),
    )


def _write_modes(run: _Run, name: str, smap: StabilityMap, *extra_comments: str) -> None:
    """One CSV row per mode: wavevector, Re and signed Im of nu, stable flag."""
    rows = np.column_stack((smap.q.reshape(-1, 3), smap.nu.real.ravel(), smap.nu.imag.ravel(),
                            smap.stable.ravel()))
    run.table(name, ("qx", "qy", "qz", "re_nu", "im_nu", "stable"), rows, *extra_comments)


def _cmd_dispersion(run: _Run) -> int:
    params = _condensate_params(run)
    dirs = _ray_directions(run)
    mags = run.require("run.q_magnitudes")
    smap = stability_map(params, dirs, mags)
    _write_modes(run, "dispersion.csv", smap)
    print(f"evaluated {smap.nu.size} modes on {len(dirs)} rays; {smap.n_unstable} unstable")
    for d in dirs:
        qc = critical_wavenumber(d, params)
        if qc is not None:
            print(f"  critical |q| along ({d[0]:+.3f} {d[1]:+.3f} {d[2]:+.3f}): {qc:.6g} 1/m")
    return 0


def _cmd_stability_map(run: _Run) -> int:
    cfg = run.cfg
    params = _condensate_params(run)
    if cfg.get("run.directions") is not None:
        dirs = _ray_directions(run)
    else:
        dirs = spherical_directions(cfg.get("run.n_polar"), cfg.get("run.n_azimuth"))
    mags = run.require("run.q_magnitudes")
    smap = stability_map(params, dirs, mags)
    _write_modes(run, "stability_map.csv", smap,
                 f"# max_growth_rate {_g(smap.max_growth_rate)}",
                 f"# argmax_direction {_g(smap.argmax_direction)}",
                 f"# argmax_q {_g(smap.argmax_q)}",
                 f"# n_unstable {smap.n_unstable}")
    print(f"{smap.nu.size} modes scanned ({len(dirs)} directions x {len(mags)} magnitudes)")
    print(f"unstable modes: {smap.n_unstable}; max growth rate {smap.max_growth_rate:.6g} 1/s")
    if smap.n_unstable:
        d = smap.argmax_direction
        print(f"fastest growth along ({d[0]:+.4f} {d[1]:+.4f} {d[2]:+.4f})")
    return 0


def _gpe_params(run: _Run) -> GpeParams:
    """Masses, mixing angle and kernel table of the split-step solver, in SI."""
    derived = _derived(run)
    return GpeParams(m_perp=derived.m_perp, m_par=derived.m_par,
                     sin2_theta=math.sin(derived.theta) ** 2, table=_table(run))


def _initial_state(run: _Run, params: GpeParams) -> CondensateState:
    kind = run.cfg.get("run.init")
    if kind == "gaussian":
        return init_state("gaussian", params, widths=run.require("run.gaussian_widths"),
                          n0=run.cfg.get("run.n0"))
    n0 = run.require("run.n0")
    if kind == "uniform":
        return init_state("uniform", params, n0=n0)
    return init_state("perturbed_plane_wave", params, n0=n0,
                      delta=run.require("run.delta_amp"), q=run.require("run.q_perturb"))


def _cmd_evolve(run: _Run) -> int:
    params = _gpe_params(run)
    dt = run.require("run.dt")
    t_final = run.require("run.t_final")
    # the initial state is built for this run alone, so the run steps in it
    result = evolve(_initial_state(run, params), dt, t_final,
                    observer_stride=run.cfg.get("run.observer_stride"), workers=run.threads,
                    consume=True)

    rows = [(o.t, o.norm, o.energy_total, o.kinetic_perp, o.kinetic_z, o.dipolar,
             o.peak_density, *o.center_of_mass, *o.variance) for o in result.observables]
    run.table("observables.csv",
              ("t", "norm", "energy_total", "kinetic_perp", "kinetic_z", "dipolar",
               "peak_density", "com_x", "com_y", "com_z", "var_x", "var_y", "var_z"), rows)
    write_field(run.path("final_field.bin"), result.final.phi, params.grid, t=result.final.t)

    first, last = result.observables[0], result.observables[-1]
    norm_drift = abs(last.norm - first.norm) / first.norm if first.norm else math.nan
    energy_drift = (abs(last.energy_total - first.energy_total) / abs(first.energy_total)
                    if first.energy_total else math.nan)
    print(f"evolved to t = {last.t:.6g} s in {len(result.observables) - 1} records")
    print(f"relative norm drift {norm_drift:.3e}, energy drift {energy_drift:.3e}")
    print(f"kinetic phase per step {_kinetic_phase(params, dt) / math.pi:.3g} pi")
    return 0


def _cmd_respond(run: _Run) -> int:
    params = _gpe_params(run)
    n0 = run.require("run.n0")
    delta = run.require("run.delta_amp")
    q = run.require("run.q_perturb")
    res = linear_response_experiment(params, q, delta, duration=run.cfg.get("run.duration"),
                                     n0=n0, dt=run.cfg.get("run.dt"), workers=run.threads)
    nu_fit, nu_pred = res.nu_fit, res.nu_predicted
    rows = [(t, a.real, a.imag, abs(a)) for t, a in zip(res.times, res.amplitudes)]
    run.table("response.csv", ("t", "re_amplitude", "im_amplitude", "abs_amplitude"), rows,
              f"# q {_g(q)}",
              f"# nu_fit {_g(nu_fit.real)} {_g(nu_fit.imag)}",
              f"# nu_predicted {_g(nu_pred.real)} {_g(nu_pred.imag)}",
              f"# fit_residual {_g(res.residual)}",
              f"# effective_c_dd {_g(res.effective_c_dd)}")
    kind = "growth rate" if nu_fit.imag else "frequency"
    fit_val = nu_fit.imag if nu_fit.imag else nu_fit.real
    pred_val = nu_pred.imag if nu_fit.imag else nu_pred.real
    dev = abs(fit_val - pred_val) / abs(pred_val) if pred_val else math.nan
    print(f"measured {kind} {fit_val:.6g} 1/s, predicted {pred_val:.6g} 1/s "
          f"({dev:.2%} deviation, fit residual {res.residual:.2%})")
    print(f"effective dipolar coupling {res.effective_c_dd:.6g} J")
    return 0


def _cmd_validate(run: _Run) -> int:
    cfg = run.cfg
    medium = run.cfg.require_medium(run.command)
    derived = derive_eit(medium)
    pulse = PulseSpec(T=run.require("run.pulse_t"),
                      l_pulse=run.require("run.pulse_length"),
                      delta_rr_avg=cfg.get("run.delta_rr_avg"))
    report = adiabaticity_margins(medium, derived, pulse, margin=cfg.get("run.margin"))

    k = medium.k
    k_plus = cfg.get("run.k_plus", (0.0, 0.0, k))
    k_minus = cfg.get("run.k_minus", (0.0, 0.0, -k))
    k_c_plus = cfg.get("run.k_c_plus", tuple(-v for v in k_minus))
    k_c_minus = cfg.get("run.k_c_minus", tuple(-v for v in k_plus))
    mismatch = phase_mismatch(k_plus, k_minus, k_c_plus, k_c_minus)
    scale = max(abs(v) for vec in (k_plus, k_minus, k_c_plus, k_c_minus) for v in vec)
    matched = float(np.linalg.norm(mismatch)) <= 1e-12 * max(scale, 1.0)

    rows = []
    for r in report.ratios:
        rows.append((r.name, r.value, "PASS" if r.passed else "FAIL"))
        print(f"{r.name:<16} {r.value:12.6g}  {'PASS' if r.passed else 'FAIL'}")
    rows.append(("margin_threshold", report.margin, ""))
    rows.append(("all_pass", "1" if report.all_pass else "0",
                 "PASS" if report.all_pass else "FAIL"))
    for axis, v in zip("xyz", mismatch):
        rows.append((f"phase_mismatch_{axis}", v, ""))
    rows.append(("phase_matched", "1" if matched else "0",
                 "MATCHED" if matched else "MISMATCHED"))
    run.table("validation.csv", ("quantity", "value", "status"), rows)
    print(f"adiabaticity: {'all margins pass' if report.all_pass else 'margin violated'} "
          f"(threshold {report.margin:g})")
    print(f"phase mismatch ({mismatch[0]:.6g} {mismatch[1]:.6g} {mismatch[2]:.6g}) 1/m "
          f"-> {'matched' if matched else 'NOT matched'}")
    return 0


# ---------------------------------------------------------------- selftest

_FD8 = (1 / 280.0, -4 / 105.0, 1 / 5.0, -4 / 5.0, 0.0,
        4 / 5.0, -1 / 5.0, 4 / 105.0, -1 / 280.0)


def _fd8_dz(arr: np.ndarray, dz: float) -> np.ndarray:
    """8th-order centered first derivative on a periodic 1-d array."""
    out = np.zeros_like(arr, dtype=complex)
    for off, coef in zip(range(-4, 5), _FD8):
        if coef:
            out += coef * np.roll(arr, -off)
    return out / dz


def _selftest_medium() -> MediumParams:
    # k l_abs = 50, delta/gamma = 100: |alpha| must land near 1e-4
    gamma = 1.0e7
    g = 2.5e5
    n_atoms = 1.0e10
    l_abs = gamma * C_LIGHT / (g**2 * n_atoms)
    return MediumParams(
        g=g, n_atoms=n_atoms, v_t=1.0e-9, gamma=gamma,
        delta=100.0 * gamma, omega=1.0e6, k=50.0 / l_abs,
    )


def _check_alpha() -> tuple[str, float, bool]:
    derived = derive_eit(_selftest_medium())
    mag = abs(derived.alpha)
    return "alpha_magnitude", mag, 0.5e-4 <= mag <= 2.0e-4


def _check_convolution(workers: int = 1) -> tuple[str, float, bool]:
    grid = GridSpec(dims=(16, 16, 16), spacings=(1.0, 1.0, 1.0))
    spec = KernelSpec(orientation=(0.0, 0.0, 1.0), strength=1.0)
    table = kernel_table_fourier(grid, spec, workers=workers)
    rng = np.random.default_rng(0)
    rho = rng.random(grid.shape)
    fast = convolve_density(table, rho, workers=workers)
    slow = direct_convolution_reference(grid, spec, rho)
    err = float(np.max(np.abs(fast - slow)) / np.max(np.abs(slow)))
    return "convolution_vs_direct_sum", err, err <= 1e-6


def _check_envelope_root() -> tuple[str, float, bool]:
    # tan x = x root: the sphere-truncation envelope returns to exactly 1
    x1 = 4.4934094579090641
    err = abs(_truncated_radial_factor(np.array([x1]))[0] - 1.0)
    return "truncation_envelope_root", float(err), err <= 1e-12


def _check_critical_wavenumber() -> tuple[str, float, bool]:
    p = CondensateParams(m_perp=1.0, m_par=0.02, c_dd=0.5, hbar=1.0)
    qc = critical_wavenumber((1.0, 0.0, 0.0), p)
    expected = math.sqrt(2.0 * p.m_perp * p.c_dd) / p.hbar
    err = abs(qc - expected) / expected if qc is not None else math.inf
    return "critical_wavenumber_closed_form", err, err <= 1e-8


def _check_free_spreading(workers: int = 1) -> tuple[str, float, bool]:
    grid = GridSpec(dims=(32, 32, 32), spacings=(0.4, 0.4, 0.4))
    spec = KernelSpec(orientation=(0.0, 0.0, 1.0), strength=1.0)
    table = kernel_table_fourier(grid, spec, workers=workers)
    params = GpeParams(m_perp=1.0, m_par=1.0, sin2_theta=0.0, table=table, hbar=1.0)
    t_final = 0.5
    # sin2_theta = 0 leaves only the exact kinetic step, so the measure does
    # not depend on dt: 5 steps of 0.1 read what 50 of 0.01 do, to 1e-16
    result = evolve(init_state("gaussian", params, widths=(1.0, 1.0, 1.0)), 0.1, t_final,
                    observer_stride=5, workers=workers, consume=True)
    measured = result.observables[-1].variance[0]
    expected = 1.0 + (t_final / 2.0) ** 2
    err = abs(measured - expected) / expected
    return "free_gaussian_spreading", err, err <= 1e-3


def _check_linear_diffusion() -> tuple[str, float, bool]:
    grid = Grid1D(n=256, dz=0.05)
    profile = gaussian_profile(grid, sigma=0.8)
    cfg = LinearRunConfig(grid=grid, initial=profile, diffusion=0.3,
                          dt=0.002, n_steps=200)
    run = simulate_linear_1d(cfg)
    err = abs(run.variance_rate - 0.6) / 0.6
    return "linear_diffusion_spreading", err, err <= 1e-2


def _check_longitudinal_elimination() -> tuple[str, float, bool]:
    medium = _selftest_medium()
    derived = derive_eit(medium)
    dz = derived.l_abs / 4.0
    # 8 sigma to the wrap point keeps the periodic-tail mismatch ~ e^-32
    grid = Grid1D(n=512, dz=dz)
    z = grid.z()
    sigma = 32.0 * dz
    e_sum = np.exp(-((z - z[256]) ** 2) / (2.0 * sigma**2)).astype(complex)
    spectral = eliminate_difference(e_sum, grid, derived)
    factor = -derived.l_abs * complex(1.0, derived.detuning_ratio)
    reference = factor * _fd8_dz(e_sum, dz)
    err = float(np.max(np.abs(spectral - reference)) / np.max(np.abs(reference)))
    return "longitudinal_elimination_fd8", err, err <= 1e-8


def _cmd_selftest(run: _Run) -> int:
    checks = (
        _check_alpha,
        lambda: _check_convolution(run.threads),
        _check_envelope_root,
        _check_critical_wavenumber,
        lambda: _check_free_spreading(run.threads),
        _check_linear_diffusion,
        _check_longitudinal_elimination,
    )
    rows = []
    for check in checks:
        name, err, ok = check()
        rows.append((name, err, "PASS" if ok else "FAIL"))
        print(f"{'ok  ' if ok else 'FAIL'} {name} (measure = {err:.3e})")
    failed = sum(status == "FAIL" for _, _, status in rows)
    run.table("selftest.csv", ("check", "measure", "status"), rows)
    print(f"{len(checks) - failed} of {len(checks)} oracle checks passed")
    return 0 if failed == 0 else 3


# ---------------------------------------------------------------- dispatch

_COMMANDS = {
    "derive": _cmd_derive,
    "kernel": _cmd_kernel,
    "dispersion": _cmd_dispersion,
    "stability-map": _cmd_stability_map,
    "evolve": _cmd_evolve,
    "respond": _cmd_respond,
    "validate": _cmd_validate,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        run = _Run(args)
        rc = _COMMANDS[run.command](run)
        print(f"wrote {', '.join(run.written)}")
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # the reader of stdout went away (`| head`); send what is left,
        # including the flush at interpreter exit, to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except DipolaritonError as exc:
        if isinstance(exc, RuntimeError):
            print(f"numerical failure: {exc}", file=sys.stderr)
            return 3
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
