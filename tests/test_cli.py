"""End-to-end checks of the command-line front end (in process)."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dipolariton import (
    MediumParams,
    UnitScales,
    adiabaticity_margins,
    derive_eit,
    kernel_table_fourier,
    kernel_value,
    KernelSpec,
    GridSpec,
    PulseSpec,
)
import dipolariton
from dipolariton import cli, errors, gpe
from dipolariton.bogoliubov import CondensateParams, dispersion
from dipolariton.cli import main
from dipolariton.config import GRID_KEYS, MEDIUM_KEYS, parse_config
from dipolariton.fileio import read_field, read_kernel_table

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

MEDIUM_BLOCK = """\
medium.g = 2.5e5
medium.n_atoms = 1e10
medium.v_t = 1e-9
medium.gamma = 1e7
medium.delta = 2e8
medium.omega = 1e6
medium.k = 1e7
"""


def medium_params():
    return MediumParams(g=2.5e5, n_atoms=1e10, v_t=1e-9, gamma=1e7,
                        delta=2e8, omega=1e6, k=1e7)


def fmt(x):
    return f"{x:.17g}"


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_rows(path):
    """CSV body as float rows, plus the comment lines."""
    comments, header, rows = [], None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line)
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return comments, header, rows


# ------------------------------------------------------------------- derive

def test_derive_matches_library_and_is_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, MEDIUM_BLOCK)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b" / "nested")
    assert main(["derive", "--config", cfg, "--out", out1]) == 0
    assert main(["derive", "--config", cfg, "--out", out2]) == 0
    with open(out1 + "/derived.csv", "rb") as fh:
        bytes1 = fh.read()
    with open(out2 + "/derived.csv", "rb") as fh:
        bytes2 = fh.read()
    assert bytes1 == bytes2

    _, header, rows = read_rows(out1 + "/derived.csv")
    assert header == ["quantity", "real", "imag"]
    table = {r[0]: (float(r[1]), float(r[2])) for r in rows}
    d = derive_eit(medium_params())
    scales = UnitScales.from_derived(d)
    assert table["group_velocity"] == (d.v_gr, 0.0)
    assert table["absorption_length"] == (d.l_abs, 0.0)
    assert table["mass_perp"] == (d.m_perp, 0.0)
    assert table["mass_par"] == (d.m_par.real, d.m_par.imag)
    assert table["alpha"] == (d.alpha.real, d.alpha.imag)
    assert table["detuning_ratio"] == (d.detuning_ratio, 0.0)
    assert table["sin2_theta"] == (math.sin(d.theta) ** 2, 0.0)
    assert table["length_scale"] == (scales.length, 0.0)
    assert table["time_scale"] == (scales.time, 0.0)
    assert table["real_mass_suggested"][0] in (0.0, 1.0)


def test_derive_prints_summary(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MEDIUM_BLOCK)
    main(["derive", "--config", cfg, "--out", str(tmp_path / "o")])
    captured = capsys.readouterr().out
    assert "group velocity" in captured
    assert "real-mass treatment suggested" in captured


# ------------------------------------------------------------------- kernel

def test_kernel_outputs(tmp_path):
    cfg = write_cfg(tmp_path, (
        "grid.dims = 8 8 8\n"
        "grid.spacings = 0.5 0.5 0.5\n"
        "kernel.strength = 1.25\n"
        "kernel.method = lattice\n"
    ))
    out = str(tmp_path / "o")
    assert main(["kernel", "--config", cfg, "--out", out]) == 0

    _, header, rows = read_rows(out + "/kernel_fourier.csv")
    assert header == ["qx", "qy", "qz", "coefficient"]
    assert len(rows) == 512
    assert [float(c) for c in rows[0]] == [0.0, 0.0, 0.0, 0.0]  # pinned q = 0

    _, header2, rows2 = read_rows(out + "/kernel_real.csv")
    assert header2 == ["x", "y", "z", "epsilon"]
    assert len(rows2) == 512
    assert float(rows2[0][3]) == 0.0  # origin sample excluded

    grid = GridSpec(dims=(8, 8, 8), spacings=(0.5, 0.5, 0.5))
    fresh = kernel_table_fourier(grid, KernelSpec(orientation=(0, 0, 1.0), strength=1.25))
    stored = read_kernel_table(out + "/kernel_table.bin")
    assert np.array_equal(stored.coeffs, fresh.coeffs)
    assert stored.method == "lattice"


def test_kernel_outputs_do_not_depend_on_threads(tmp_path):
    # --threads reaches the table's transform; the files stay byte-identical
    src = Path(__file__).resolve().parents[1] / "src"
    text = _shipped("kernel").replace("kernel.orientation = 0 0 1",
                                      "kernel.orientation = 0 0.6 0.8")
    assert "0 0.6 0.8" in text
    cfg = write_cfg(tmp_path, text)
    outputs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        run = subprocess.run(
            [sys.executable, "-m", "dipolariton.cli", "kernel", "--config", cfg,
             "--out", str(out), "--threads", threads],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
            timeout=120,
        )
        assert run.returncode == 0, run.stderr
        outputs[threads] = {name: (out / name).read_bytes() for name in
                            ("kernel_real.csv", "kernel_fourier.csv", "kernel_table.bin")}
    assert outputs["2"] == outputs["1"]


def test_threads_reach_every_kernel_table_build(tmp_path, monkeypatch):
    seen = []
    build = cli.kernel_table_fourier

    def recording(*args, **kwargs):
        seen.append(kwargs.get("workers", 1))
        return build(*args, **kwargs)

    monkeypatch.setattr(cli, "kernel_table_fourier", recording)
    for command, cfg in (("kernel", "kernel"), ("evolve", "evolve"), ("selftest", None)):
        argv = [command, "--out", str(tmp_path / command), "--threads", "2"]
        if cfg:
            argv += ["--config", str(CONFIGS / f"{cfg}.cfg")]
        assert main(argv) == 0
    # kernel and evolve build one table each, the selftest two
    assert seen == [2, 2, 2, 2]


def test_kernel_csv_rows_in_index_order(tmp_path):
    # one %.17g row per grid index in C order, exactly as a per-index loop writes it
    cfg = write_cfg(tmp_path, (
        "grid.dims = 12 10 8\n"
        "grid.spacings = 0.5 0.7 0.9\n"
        "kernel.orientation = 0.6 0 0.8\n"
        "kernel.strength = 1.25\n"
    ))
    out = str(tmp_path / "o")
    assert main(["kernel", "--config", cfg, "--out", out]) == 0
    grid = GridSpec(dims=(12, 10, 8), spacings=(0.5, 0.7, 0.9))
    spec = KernelSpec(orientation=(0.6, 0.0, 0.8), strength=1.25)
    xs, ys, zs = grid.displacements()
    qx, qy, qz = grid.wavenumber_mesh()
    coeffs = kernel_table_fourier(grid, spec).coeffs
    real_rows, fourier_rows = [], []
    for i, j, k in np.ndindex(grid.shape):
        r = np.array([xs[i], ys[j], zs[k]])
        eps = kernel_value(r[None, :], spec)[0] if (i, j, k) != (0, 0, 0) else 0.0
        real_rows.append(",".join(fmt(v) for v in (*r, eps)))
        fourier_rows.append(",".join(fmt(v) for v in (qx[i, 0, 0], qy[0, j, 0], qz[0, 0, k],
                                                      coeffs[i, j, k])))
    for name, expected in (("kernel_real.csv", real_rows), ("kernel_fourier.csv", fourier_rows)):
        body = [ln for ln in open(os.path.join(out, name)).read().splitlines()
                if not ln.startswith("#")][1:]
        assert body == expected, name


# --------------------------------------------------------------- dispersion

def disp_cfg(c_dd):
    return (MEDIUM_BLOCK
            + f"run.c_dd = {fmt(c_dd)}\n"
            + "run.directions = 1 0 0 0 0 1\n"
            + "run.q_magnitudes = 1e4 1e5 1e6\n")


def test_dispersion_rows_match_library(tmp_path, capsys):
    c_dd = 1e-15
    cfg = write_cfg(tmp_path, disp_cfg(c_dd))
    out = str(tmp_path / "o")
    assert main(["dispersion", "--config", cfg, "--out", out]) == 0
    _, header, rows = read_rows(out + "/dispersion.csv")
    assert header == ["qx", "qy", "qz", "re_nu", "im_nu", "stable"]
    assert len(rows) == 6  # 2 directions x 3 magnitudes

    d = derive_eit(medium_params())
    params = CondensateParams(m_perp=d.m_perp, m_par=complex(d.m_par.real, 0.0),
                              c_dd=c_dd, orientation=(0.0, 0.0, 1.0))
    for row in rows:
        q = tuple(float(c) for c in row[:3])
        ref = dispersion(q, params)
        assert float(row[3]) == pytest.approx(ref.real, rel=1e-12, abs=1e-300)
        assert float(row[4]) == pytest.approx(ref.imag, rel=1e-12, abs=1e-300)
        assert float(row[5]) == (1.0 if ref.imag <= 0.0 else 0.0)

    printed = capsys.readouterr().out
    # positive coupling destabilizes the transverse ray, so a finite critical
    # wavenumber is reported for it
    assert "critical |q| along" in printed
    assert "unstable" in printed


@pytest.mark.parametrize("mass_flag", ["--real-mass", "--complex-mass"])
def test_shipped_dispersion_has_three_unstable_modes(tmp_path, capsys, mass_flag):
    # absorption through the complex mass damps modes; it does not make them grow
    out = str(tmp_path / "o")
    assert main(["dispersion", "--config", str(CONFIGS / "dispersion.cfg"), "--out", out,
                 mass_flag]) == 0
    assert "evaluated 10 modes on 2 rays; 3 unstable" in capsys.readouterr().out
    _, _, rows = read_rows(out + "/dispersion.csv")
    assert sum(1 for r in rows if float(r[5]) == 0.0) == 3
    assert all((float(r[4]) > 0.0) == (float(r[5]) == 0.0) for r in rows)


def test_dispersion_needs_ray_keys(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MEDIUM_BLOCK + "run.c_dd = 1e-15\n")
    assert main(["dispersion", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "run.directions" in capsys.readouterr().err


def test_dispersion_rejects_negative_magnitudes_like_the_map(tmp_path, capsys):
    cfg = write_cfg(tmp_path, disp_cfg(1e-15).replace("1e4 1e5 1e6", "1e4 -1e5 1e6"))
    for command in ("dispersion", "stability-map"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 2
        assert "magnitudes must be finite and non-negative" in capsys.readouterr().err


# ------------------------------------------------------------ stability-map

def test_stability_map_scan(tmp_path, capsys):
    cfg = write_cfg(tmp_path, (
        MEDIUM_BLOCK
        + "run.c_dd = 1e-15\n"
        + "run.n_polar = 3\n"
        + "run.n_azimuth = 4\n"
        + "run.q_magnitudes = 1e4 1e6\n"
    ))
    out = str(tmp_path / "o")
    assert main(["stability-map", "--config", cfg, "--out", out]) == 0
    comments, header, rows = read_rows(out + "/stability_map.csv")
    assert len(rows) == 3 * 4 * 2
    tags = [c.split()[1] for c in comments]
    for want in ("max_growth_rate", "argmax_direction", "argmax_q", "n_unstable"):
        assert want in tags
    growth = float(next(c.split()[2] for c in comments if "max_growth_rate" in c))
    n_unstable = int(next(c.split()[2] for c in comments if "n_unstable" in c))
    unstable_rows = sum(1 for r in rows if float(r[5]) == 0.0)
    assert n_unstable == unstable_rows
    assert growth >= 0.0
    assert "modes scanned" in capsys.readouterr().out


def test_complex_mass_map_without_coupling_has_no_unstable_mode(tmp_path, capsys):
    cfg = write_cfg(tmp_path, (
        MEDIUM_BLOCK
        + "run.c_dd = 0\n"
        + "run.n_polar = 6\n"
        + "run.n_azimuth = 12\n"
        + "run.q_magnitudes = 3e3 1e4 1e5\n"
    ))
    out = str(tmp_path / "o")
    assert main(["stability-map", "--config", cfg, "--out", out, "--complex-mass"]) == 0
    comments, _, rows = read_rows(out + "/stability_map.csv")
    assert "# n_unstable 0" in comments
    assert "# max_growth_rate 0" in comments
    assert all(float(r[5]) == 1.0 and float(r[4]) < 0.0 for r in rows)  # damped
    assert "unstable modes: 0;" in capsys.readouterr().out


# ------------------------------------------------------------------- evolve

def evolve_cfg(scales, strength_scaled=0.05, dt_scaled=0.01, tf_scaled=0.25,
               extra=""):
    ell, tau = scales.length, scales.time
    dx = 0.5 * ell
    w = 0.8 * ell
    return (MEDIUM_BLOCK
            + "grid.dims = 12 12 12\n"
            + f"grid.spacings = {fmt(dx)} {fmt(dx)} {fmt(dx)}\n"
            + f"kernel.strength = {fmt(strength_scaled * scales.kernel_strength)}\n"
            + "run.init = gaussian\n"
            + f"run.gaussian_widths = {fmt(w)} {fmt(w)} {fmt(w)}\n"
            + f"run.dt = {fmt(dt_scaled * tau)}\n"
            + f"run.t_final = {fmt(tf_scaled * tau)}\n"
            + extra)


def test_evolve_writes_observables_and_field(tmp_path, capsys):
    scales = UnitScales.from_derived(derive_eit(medium_params()))
    cfg = write_cfg(tmp_path, evolve_cfg(scales))
    out = str(tmp_path / "o")
    assert main(["evolve", "--config", cfg, "--out", out]) == 0

    _, header, rows = read_rows(out + "/observables.csv")
    assert header == ["t", "norm", "energy_total", "kinetic_perp", "kinetic_z",
                      "dipolar", "peak_density", "com_x", "com_y", "com_z",
                      "var_x", "var_y", "var_z"]
    assert len(rows) == 4  # records at steps 0, 10, 20, 25
    t_final = 0.25 * scales.time
    assert float(rows[-1][0]) == pytest.approx(t_final, rel=1e-12)
    norms = [float(r[1]) for r in rows]
    assert norms[0] == pytest.approx(1.0, rel=1e-9)  # unit-norm Gaussian
    assert norms[-1] == pytest.approx(norms[0], rel=1e-10)

    field, grid, t = read_field(out + "/final_field.bin")
    assert grid.dims == (12, 12, 12)
    assert grid.spacings == pytest.approx((0.5 * scales.length,) * 3, rel=1e-15)
    assert t == pytest.approx(t_final, rel=1e-12)
    assert np.all(np.isfinite(field))
    assert "relative norm drift" in capsys.readouterr().out


def test_evolve_rejects_oversized_step(tmp_path, capsys):
    scales = UnitScales.from_derived(derive_eit(medium_params()))
    dens = fmt(5.0 * scales.density)
    cfg = write_cfg(tmp_path, evolve_cfg(
        scales, strength_scaled=50.0, dt_scaled=0.5, tf_scaled=5.0,
        extra=f"run.n0 = {dens}\n"))
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err
    # the guard names step i by the config's times (i - 1) dt -> i dt, in seconds
    dt = float(fmt(0.5 * scales.time))
    i, t0, t1 = re.search(r"step (\d+) \(t = (\S+) -> (\S+)\)", err).groups()
    assert (t0, t1) == (f"{(int(i) - 1) * dt:.6e}", f"{int(i) * dt:.6e}")


def test_evolve_refuses_a_t_final_it_cannot_meet(tmp_path, capsys):
    # 25.5 steps: a usage error that quotes the config's own numbers
    shipped = (CONFIGS / "evolve.cfg").read_text()
    text = shipped.replace("run.t_final = 2.5e-8 s", "run.t_final = 2.55e-8 s")
    assert text != shipped
    out = tmp_path / "o"
    assert main(["evolve", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: t_final = 2.55e-08 ")
    assert "not a whole positive number of steps dt = 1e-09 (25.5 steps)" in err
    assert not (out / "observables.csv").exists()


def si_gpe_params(cfg, command):
    """GpeParams of a config as the library takes it: SI masses on the config's grid."""
    derived = derive_eit(cfg.medium).real_mass()
    spec = KernelSpec(orientation=cfg.get("kernel.orientation"),
                      strength=cfg.get("kernel.strength"),
                      cutoff_radius=cfg.get("kernel.cutoff_radius"),
                      sphere_radius=cfg.get("kernel.sphere_radius"))
    table = kernel_table_fourier(cfg.require_grid(command), spec, method=cfg.get("kernel.method"))
    return gpe.GpeParams(m_perp=derived.m_perp, m_par=derived.m_par,
                         sin2_theta=math.sin(derived.theta) ** 2, table=table)


@pytest.mark.parametrize("extra", ["", "run.n0 = 1e21\n"], ids=["unit-norm", "lifted-to-n0"])
def test_evolve_records_the_library_observables_of_the_config_as_given(tmp_path, extra):
    text = (CONFIGS / "evolve.cfg").read_text() + extra
    out = tmp_path / "o"
    assert main(["evolve", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 0
    _, _, rows = read_rows(out / "observables.csv")

    cfg = parse_config(text)
    params = si_gpe_params(cfg, "evolve")
    w = cfg.get("run.gaussian_widths")
    state = gpe.init_state("gaussian", params, widths=w)
    if extra:
        peak = 1.0 / ((2.0 * math.pi) ** 1.5 * w[0] * w[1] * w[2])
        state = gpe.CondensateState(state.phi * math.sqrt(cfg.get("run.n0") / peak), 0.0, params)
    o = gpe.observables(state)
    expected = (o.t, o.norm, o.energy_total, o.kinetic_perp, o.kinetic_z, o.dipolar,
                o.peak_density, *o.center_of_mass, *o.variance)
    assert rows[0] == [fmt(v) for v in expected]


# ------------------------------------------------------------------ respond

def test_respond_measures_predicted_mode(tmp_path, capsys):
    scales = UnitScales.from_derived(derive_eit(medium_params()))
    ell = scales.length
    dx = 0.5 * ell
    qz = 2.0 * math.pi / (12.0 * dx)
    strength = (3.0 * 0.5 / (8.0 * math.pi)) * scales.kernel_strength
    cfg = write_cfg(tmp_path, (
        MEDIUM_BLOCK
        + "grid.dims = 12 12 12\n"
        + f"grid.spacings = {fmt(dx)} {fmt(dx)} {fmt(dx)}\n"
        + f"kernel.strength = {fmt(strength)}\n"
        + f"run.n0 = {fmt(scales.density)}\n"
        + "run.delta_amp = 1e-4\n"
        + f"run.q_perturb = 0 0 {fmt(qz)}\n"
    ))
    out = str(tmp_path / "o")
    assert main(["respond", "--config", cfg, "--out", out]) == 0

    comments, header, rows = read_rows(out + "/response.csv")
    assert header == ["t", "re_amplitude", "im_amplitude", "abs_amplitude"]
    assert len(rows) > 100
    meta = {}
    for c in comments:
        parts = c[2:].split()
        if parts and parts[0] in ("nu_fit", "nu_predicted", "fit_residual",
                                  "effective_c_dd"):
            meta[parts[0]] = [float(v) for v in parts[1:]]
    nu_fit, nu_pred = meta["nu_fit"], meta["nu_predicted"]
    assert nu_pred[1] == 0.0  # stable coupling: purely real prediction
    assert abs(nu_fit[0] - nu_pred[0]) <= 0.05 * abs(nu_pred[0])
    assert meta["fit_residual"][0] <= 0.01
    assert meta["effective_c_dd"][0] > 0.0
    assert "measured frequency" in capsys.readouterr().out


@pytest.mark.parametrize("duration,dt,reason", [
    ("1e-9", "3e-12", "not a whole positive number of steps"),
    ("1.4e-11", "2e-12", "the response fit needs at least 8"),
], ids=["partial-step", "too-few-steps"])
def test_respond_refuses_a_duration_it_cannot_meet(tmp_path, capsys, duration, dt, reason):
    # 333.3 steps, and 7 steps: usage errors, not a silently rounded run
    text = (CONFIGS / "respond.cfg").read_text() + f"run.duration = {duration}\nrun.dt = {dt}\n"
    out = tmp_path / "o"
    assert main(["respond", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    # the config's numbers, in seconds
    assert err.startswith(f"error: duration = {float(duration)!r} ")
    assert re.search(rf"dt = {re.escape(repr(float(dt)))}\b", err)
    assert reason in err
    assert not (out / "response.csv").exists()


def test_respond_writes_the_library_prediction_for_the_config_as_given(tmp_path):
    out = tmp_path / "o"
    assert main(["respond", "--config", str(CONFIGS / "respond.cfg"), "--out", str(out)]) == 0
    comments, _, _ = read_rows(out / "response.csv")

    cfg = parse_config((CONFIGS / "respond.cfg").read_text())
    params = si_gpe_params(cfg, "respond")
    q, n0 = cfg.get("run.q_perturb"), cfg.get("run.n0")
    nu = gpe.predicted_mode_frequency(params, q, n0)
    assert f"# nu_predicted {fmt(nu.real)} {fmt(nu.imag)}" in comments
    assert f"# effective_c_dd {fmt(gpe.effective_dipolar_coupling(params, q, n0))}" in comments


def test_respond_refuses_complex_mass_before_stepping(tmp_path, capsys):
    out = tmp_path / "o"
    rc = main(["respond", "--config", str(CONFIGS / "respond.cfg"), "--out", str(out),
               "--complex-mass"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "response fit models an undamped mode and needs a real mass" in err
    assert not (out / "response.csv").exists()


# ----------------------------------------------------------------- validate

def test_validate_reports_margins_and_matching(tmp_path, capsys):
    cfg = write_cfg(tmp_path, (
        MEDIUM_BLOCK
        + "run.pulse_t = 1e-5\n"
        + "run.pulse_length = 1e-3\n"
    ))
    out = str(tmp_path / "o")
    assert main(["validate", "--config", cfg, "--out", out]) == 0  # 0 even on FAIL rows

    _, header, rows = read_rows(out + "/validation.csv")
    assert header == ["quantity", "value", "status"]
    table = {r[0]: r[1:] for r in rows}

    medium = medium_params()
    derived = derive_eit(medium)
    report = adiabaticity_margins(medium, derived,
                                  PulseSpec(T=1e-5, l_pulse=1e-3), margin=10.0)
    for ratio in report.ratios:
        value, status = table[ratio.name]
        if math.isfinite(ratio.value):
            assert float(value) == pytest.approx(ratio.value, rel=1e-15)
        assert status == ("PASS" if ratio.passed else "FAIL")
    assert table["all_pass"][1] == ("PASS" if report.all_pass else "FAIL")
    # default beams are constructed mirrored, so the mismatch vanishes
    assert table["phase_matched"] == ["1", "MATCHED"]
    assert float(table["phase_mismatch_x"][0]) == 0.0
    out_text = capsys.readouterr().out
    assert "adiabaticity" in out_text and "phase mismatch" in out_text


# ----------------------------------------------------------------- selftest

def test_selftest_runs_all_checks(tmp_path, capsys):
    out = str(tmp_path / "o")
    assert main(["selftest", "--out", out]) == 0
    printed = capsys.readouterr().out
    assert printed.count("ok  ") == 7
    assert "FAIL" not in printed
    assert "7 of 7 oracle checks passed" in printed
    _, header, rows = read_rows(out + "/selftest.csv")
    assert header == ["check", "measure", "status"]
    assert len(rows) == 7
    assert all(r[2] == "PASS" for r in rows)


# ------------------------------------------------------------ error handling

def test_missing_config_is_a_usage_error(tmp_path, capsys):
    assert main(["derive", "--out", str(tmp_path)]) == 2
    assert "requires --config" in capsys.readouterr().err


def test_nonexistent_config_file(tmp_path, capsys):
    missing = str(tmp_path / "nope.cfg")
    assert main(["derive", "--config", missing, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    # a directory (IsADirectoryError) is a usage error too
    assert main(["derive", "--config", str(tmp_path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_invalid_config_content(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "medium.gamma = 1e7 um\n")
    assert main(["derive", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "not a frequency unit" in capsys.readouterr().err


def test_bad_thread_count(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MEDIUM_BLOCK)
    assert main(["derive", "--config", cfg, "--threads", "0"]) == 2
    assert "--threads" in capsys.readouterr().err


def test_out_that_cannot_be_a_directory_is_a_usage_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MEDIUM_BLOCK)
    afile = write_cfg(tmp_path, "not a directory\n", name="plain.txt")
    for out in (afile, os.path.join(afile, "sub")):
        assert main(["derive", "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --out {out} cannot be used as the output directory")
    assert open(afile).read() == "not a directory\n"


def test_config_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(MEDIUM_BLOCK.encode() + b"# caf\xe9\n")
    out = tmp_path / "o"
    assert main(["derive", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {cfg} is not UTF-8 text")
    assert not out.exists()


def test_crlf_config_records_the_digest_of_its_own_bytes(tmp_path):
    lf = CONFIGS / "derive.cfg"
    crlf = tmp_path / "derive_crlf.cfg"
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    tables = {}
    for cfg in (lf, crlf):
        out = tmp_path / cfg.stem
        assert main(["derive", "--config", str(cfg), "--out", str(out)]) == 0
        tables[cfg] = read_rows(out / "derived.csv")
    comments, header, rows = tables[crlf]
    assert f"# config sha256 {hashlib.sha256(crlf.read_bytes()).hexdigest()}" in comments
    lf_comments, lf_header, lf_rows = tables[lf]
    params = [c for c in comments if c.startswith("# param ")]
    assert params and params == [c for c in lf_comments if c.startswith("# param ")]
    assert (header, rows) == (lf_header, lf_rows)


# (command, shipped config or None) for every command
_SHIPPED = [("derive", "derive"), ("kernel", "kernel"), ("dispersion", "dispersion"),
            ("stability-map", "stability"), ("evolve", "evolve"), ("respond", "respond"),
            ("validate", "validate"), ("selftest", None)]


@pytest.mark.parametrize("command,cfg_name", _SHIPPED, ids=[c for c, _ in _SHIPPED])
def test_every_command_lists_its_files_and_opens_each_csv_alike(tmp_path, capsys,
                                                                 command, cfg_name):
    out = tmp_path / "o"
    argv = [command, "--out", str(out)]
    block = [f"# dipolariton {dipolariton.__version__}"]
    if cfg_name:
        cfg = CONFIGS / f"{cfg_name}.cfg"
        argv += ["--config", str(cfg)]
        block.append(f"# config sha256 {hashlib.sha256(cfg.read_bytes()).hexdigest()}")
        block += [f"# param {key} = {value}"
                  for key, value in sorted(parse_config(cfg.read_text()).effective.items())]
    assert main(argv) == 0

    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith("wrote ")
    listed = last[len("wrote "):].split(", ")
    assert len(set(listed)) == len(listed)
    assert sorted(listed) == sorted(str(out / name) for name in os.listdir(out))
    csvs = [path for path in listed if path.endswith(".csv")]
    assert csvs
    for path in csvs:
        with open(path) as fh:
            head = [fh.readline().rstrip("\n") for _ in range(len(block) + 1)]
        assert head[:-1] == block, path
        # the block ends there: what follows is a command's own comment or the header
        assert not head[-1].startswith(("# param ", "# config ", "# dipolariton ")), path


def test_closed_stdout_ends_without_traceback(tmp_path):
    # the reader closes the pipe before anything is written, as `| head` may
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "dipolariton.cli", "selftest", "--out", str(tmp_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert "BrokenPipeError" not in err and "Traceback" not in err


def _shipped(name):
    return (CONFIGS / f"{name}.cfg").read_text()


def _evolve_with_init(init, extra):
    return _shipped("evolve").replace("run.init = gaussian", f"run.init = {init}") + extra


_PLANE_WAVE = "run.n0 = 1e21\nrun.delta_amp = 1e-4\nrun.q_perturb = 0 0 10471975.511965977\n"

# (command, working config, the keys it cannot run without)
_REQUIRED = {
    "derive": ("derive", _shipped("derive"), MEDIUM_KEYS),
    "kernel": ("kernel", _shipped("kernel"), GRID_KEYS + ("kernel.strength",)),
    "dispersion": ("dispersion", _shipped("dispersion"),
                   MEDIUM_KEYS + ("run.c_dd", "run.directions", "run.q_magnitudes")),
    "stability-map": ("stability-map", _shipped("stability"),
                      MEDIUM_KEYS + ("run.c_dd", "run.q_magnitudes")),
    "evolve": ("evolve", _shipped("evolve"),
               MEDIUM_KEYS + GRID_KEYS
               + ("kernel.strength", "run.dt", "run.t_final", "run.gaussian_widths")),
    "evolve-uniform": ("evolve", _evolve_with_init("uniform", "run.n0 = 1e21\n"), ("run.n0",)),
    "evolve-plane-wave": ("evolve", _evolve_with_init("perturbed_plane_wave", _PLANE_WAVE),
                          ("run.n0", "run.delta_amp", "run.q_perturb")),
    "respond": ("respond", _shipped("respond"),
                MEDIUM_KEYS + GRID_KEYS
                + ("kernel.strength", "run.n0", "run.delta_amp", "run.q_perturb")),
    "validate": ("validate", _shipped("validate"),
                 MEDIUM_KEYS + ("run.pulse_t", "run.pulse_length")),
}


@pytest.mark.parametrize("case", list(_REQUIRED))
def test_required_key_matrix_base_configs_run(tmp_path, case):
    command, text, _ = _REQUIRED[case]
    assert main([command, "--config", write_cfg(tmp_path, text), "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("case,key", [(case, key) for case, (_, _, keys) in _REQUIRED.items()
                                      for key in keys])
def test_missing_required_key_is_named(tmp_path, capsys, case, key):
    command, text, _ = _REQUIRED[case]
    kept = [ln for ln in text.splitlines() if ln.split("=")[0].strip() != key]
    assert len(kept) == len(text.splitlines()) - 1
    cfg = write_cfg(tmp_path, "\n".join(kept) + "\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"command '{command}' needs config key '{key}'" in err
    if key == "kernel.strength":
        assert "medium.u_strength" in err
    assert not os.path.exists(tmp_path / "o")


_PACKAGE_ERRORS = [cls for cls in (getattr(errors, name) for name in errors.__all__)
                   if isinstance(cls, type) and issubclass(cls, errors.DipolaritonError)
                   and cls is not errors.DipolaritonError]


def test_every_package_error_is_either_validation_or_numerical():
    # the CLI's exit code is chosen by this split
    assert len(_PACKAGE_ERRORS) == 10
    for cls in _PACKAGE_ERRORS:
        assert issubclass(cls, ValueError) != issubclass(cls, RuntimeError), cls.__name__


@pytest.mark.parametrize("cls", _PACKAGE_ERRORS, ids=lambda cls: cls.__name__)
def test_exit_code_follows_the_error_hierarchy(tmp_path, capsys, monkeypatch, cls):
    def fail(run):
        raise cls("boom")

    monkeypatch.setitem(cli._COMMANDS, "derive", fail)
    cfg = write_cfg(tmp_path, MEDIUM_BLOCK)
    numerical = issubclass(cls, RuntimeError)
    assert main(["derive", "--config", cfg, "--out", str(tmp_path)]) == (3 if numerical else 2)
    err = capsys.readouterr().err
    assert err == ("numerical failure: boom\n" if numerical else "error: boom\n")


_SCIPY_AFTER_EACH_STAGE = """
import json, sys
loaded = lambda: sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
import dipolariton
report = {"import": loaded()}
from dipolariton.cli import main
configs, out = sys.argv[1], sys.argv[2]
for command, cfg in (("derive", "derive"), ("validate", "validate"),
                     ("dispersion", "dispersion"), ("stability-map", "stability"),
                     ("respond", "respond"), ("kernel", "kernel"), ("evolve", "evolve"),
                     ("selftest", None)):
    argv = [command, "--out", out] + (["--config", f"{configs}/{cfg}.cfg"] if cfg else [])
    assert main(argv) == 0
    report[command] = loaded()
print(json.dumps(report))
"""


def test_no_command_loads_scipy(tmp_path):
    # one fresh process, so nothing else has imported scipy: the package and
    # every shipped command transform through numpy.fft and leave scipy unloaded
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_AFTER_EACH_STAGE, str(CONFIGS), str(tmp_path)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        stage: [] for stage in ("import", "derive", "validate", "dispersion", "stability-map",
                                "respond", "kernel", "evolve", "selftest")
    }


def test_argparse_rejections():
    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit):
        main(["transmogrify"])
    with pytest.raises(SystemExit):
        main(["derive", "--real-mass", "--complex-mass"])
