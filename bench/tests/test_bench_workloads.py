"""Seed -> config generation and the output checks, against real program output."""

import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads as wl
from dipolariton import derive_eit, parse_config
from dipolariton.cli import main as cli_main

ROOT = Path(__file__).resolve().parents[2]
CONFIGS = ROOT / "configs"


def configs_of(name, seed):
    return [c.config for c in wl.build(name, seed, CONFIGS).commands]


@pytest.mark.parametrize("name", wl.NAMES)
def test_same_seed_gives_same_inputs_and_another_seed_others(name):
    assert configs_of(name, 7) == configs_of(name, 7)
    assert configs_of(name, 7) != configs_of(name, 8)


@pytest.mark.parametrize("seed", range(6))
def test_seed_leaves_the_operation_count_fixed(seed):
    evolve = parse_config(wl.build("evolve-128", seed, CONFIGS).commands[0].config)
    assert evolve.grid.dims == (128, 128, 128)
    assert round(evolve.get("run.t_final") / evolve.get("run.dt")) == 10
    assert evolve.get("run.observer_stride") == 5

    shipped = wl.build("cli-shipped", seed, CONFIGS).commands
    assert [c.name for c in shipped] == ["derive", "kernel", "dispersion", "stability-map",
                                         "evolve", "respond", "validate", "selftest"]
    assert shipped[5].check is wl.check_respond
    smap = parse_config(shipped[3].config)
    assert shipped[3].check.func is wl.check_stability_map
    assert shipped[3].check.keywords["c_dd"] == smap.get("run.c_dd")
    assert shipped[3].check.keywords["magnitudes"] == tuple(smap.get("run.q_magnitudes"))
    for cmd, name in zip(shipped, wl.SHIPPED):
        cfg = parse_config(cmd.config)
        original = parse_config((CONFIGS / f"{name}.cfg").read_text())
        assert cfg.grid == original.grid
        assert set(cfg.values) == set(original.values)


def test_coupling_takes_both_signs_over_seeds():
    signs = {math.copysign(1.0, wl.build("cli-shipped", s, CONFIGS).params["stability.c_dd"])
             for s in range(20)}
    assert signs == {1.0, -1.0}


def test_set_key_replaces_exactly_one_line():
    text = "a.b = 1\na.c = 2 J  # note\n"
    assert wl.set_key(text, "a.c", "3.5 J") == "a.b = 1\na.c = 3.5 J\n"
    with pytest.raises(ValueError):
        wl.set_key(text, "a.d", 1.0)


def test_scale_key_scales_numbers_and_keeps_units():
    text = "a.b = 1\na.c = 2 -4 J  # note\n"
    assert wl.scale_key(text, "a.c", -0.5) == "a.b = 1\na.c = -1.0 2.0 J\n"
    assert wl.config_numbers(text, "a.c") == [2.0, -4.0]
    with pytest.raises(ValueError):
        wl.scale_key(text, "a.d", 2.0)


def test_independent_masses_match_the_package():
    derived = derive_eit(parse_config(wl.render_config(wl.MEDIUM)).medium)
    m_perp, m_par = wl.eit_masses(wl.MEDIUM)
    assert m_perp == pytest.approx(derived.m_perp, rel=1e-12)
    assert m_par == pytest.approx(derived.m_par.real, rel=1e-12)


def run_cli(tmp_path, command, config_text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_text)
    out = tmp_path / "out"
    assert cli_main([command, "--config", str(cfg), "--out", str(out)]) == 0
    return out


def test_evolve_check_accepts_real_output_and_rejects_corruption(tmp_path):
    out = run_cli(tmp_path, "evolve", (CONFIGS / "evolve.cfg").read_text())
    check = {"dims": (12, 12, 12), "spacings": (5e-8,) * 3, "t_final": 2.5e-8}
    assert wl.check_evolve(out, "", **check) == []
    assert wl.check_evolve(out, "", **{**check, "dims": (12, 12, 13)})

    field = out / "final_field.bin"
    data = field.read_bytes()
    field.write_bytes(data[:-16])
    assert any("bytes" in p for p in wl.check_evolve(out, "", **check))
    field.write_bytes(data.replace(b"dipolariton-field-v1", b"dipolariton-field-v0", 1))
    assert any("header" in p for p in wl.check_evolve(out, "", **check))
    field.write_bytes(data)

    obs = out / "observables.csv"
    lines = obs.read_text().splitlines()
    cells = lines[-1].split(",")
    cells[1] = repr(float(cells[1]) * (1 + 1e-8))
    obs.write_text("\n".join(lines[:-1] + [",".join(cells)]) + "\n")
    assert any("norm drift" in p for p in wl.check_evolve(out, "", **check))


def test_respond_check_accepts_real_output_and_rejects_corruption(tmp_path):
    out = run_cli(tmp_path, "respond", (CONFIGS / "respond.cfg").read_text())
    assert wl.check_respond(out, "") == []
    path = out / "response.csv"
    text = path.read_text()
    fit = wl.comment_values(text.splitlines(), "nu_fit")
    path.write_text(text.replace(f"# nu_fit {fit[0]!r}", f"# nu_fit {fit[0] * 1.1!r}"))
    assert any("deviates" in p for p in wl.check_respond(out, ""))
    resid = wl.comment_values(text.splitlines(), "fit_residual")[0]
    path.write_text(text.replace(f"# fit_residual {resid!r}", "# fit_residual 0.2"))
    assert any("residual" in p for p in wl.check_respond(out, ""))
    path.unlink()
    assert wl.check_respond(out, "")


@pytest.mark.parametrize("c_dd", [-1e-31, 1.5e-31])
def test_stability_check_accepts_real_output_and_rejects_corruption(tmp_path, c_dd):
    mags = (1e3, 1e4, 1e5, 1e6, 1e7)
    values = dict(wl.MEDIUM, **{"run.c_dd": c_dd, "run.n_polar": 6, "run.n_azimuth": 12,
                                "run.q_magnitudes": mags})
    out = run_cli(tmp_path, "stability-map", wl.render_config(values))
    params = {"medium": wl.MEDIUM, "c_dd": c_dd, "n_polar": 6, "n_azimuth": 12, "magnitudes": mags}
    assert wl.check_stability_map(out, "", **params) == []

    path = out / "stability_map.csv"
    text = path.read_text()
    (n_unstable,) = wl.comment_values(text.splitlines(), "n_unstable")
    assert n_unstable > 0
    path.write_text(text.replace(f"# n_unstable {n_unstable:.0f}", f"# n_unstable {n_unstable + 1:.0f}"))
    assert any("dispersion law" in p for p in wl.check_stability_map(out, "", **params))
    path.write_text(text.rstrip("\n").rsplit("\n", 1)[0] + "\n")
    assert any("rows" in p for p in wl.check_stability_map(out, "", **params))
    path.write_text(text.replace(",1\n", ",0\n", 1))
    assert any("stable column" in p for p in wl.check_stability_map(out, "", **params))


def test_selftest_check_needs_every_oracle():
    assert wl.check_selftest(Path("."), "7 of 7 oracle checks passed\n") == []
    assert wl.check_selftest(Path("."), "6 of 7 oracle checks passed\n")


def test_benchmark_refuses_a_tree_without_the_package(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "evolve-128", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
