"""Benchmark workloads: seed -> config files, command lines and output checks.

The seed varies only inputs that leave the operation count unchanged
(Gaussian widths, perturbation amplitude, size and sign of the coupling).
Grid sizes, step counts and mode counts are fixed per workload. The Gaussian
centre is not varied: the CLI has no config key for it.

Every check takes the command's output directory and its captured stdout and
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

# CODATA values, as scipy.constants gives them; used by the independent
# stability check so it does not lean on the package under test.
HBAR = 1.054571817e-34
C_LIGHT = 299792458.0

# The medium of the shipped configs.
MEDIUM = {
    "medium.g": 2.5e5,
    "medium.n_atoms": 1e10,
    "medium.v_t": 1e-9,
    "medium.gamma": 1e7,
    "medium.delta": 2e8,
    "medium.omega": 1e6,
    "medium.k": 1e7,
}

EVOLVE_N = 128
EVOLVE_SPACING = 5e-8
EVOLVE_DT = 1e-9
EVOLVE_STEPS = 10
EVOLVE_STRIDE = 5
# One FFT worker: interleaved on the 2-vCPU reference machine, 2 workers
# varied twice as much from command to command as 1 (coefficient of
# variation 10.5% against 6.9%).
EVOLVE_THREADS = 1

SELFTEST_CHECKS = 7

Check = Callable[[Path, str], "list[str]"]


@dataclass(frozen=True)
class Command:
    """One `python -m dipolariton.cli` invocation of a workload.

    argv    command name and options, without --config and --out
    config  config file text, or None for commands that take none
    check   output check, called as check(out_dir, stdout)
    """

    argv: tuple[str, ...]
    config: str | None
    check: Check
    threads: int = 1

    @property
    def name(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple[Command, ...]
    params: dict  # the seeded values, for the record


def _fmt(value) -> str:
    """Config text of a value: strings verbatim, floats at full precision."""
    if isinstance(value, str):
        return value
    if isinstance(value, (tuple, list)):
        return " ".join(_fmt(v) for v in value)
    return repr(value)


def render_config(values: dict) -> str:
    return "".join(f"{key} = {_fmt(val)}\n" for key, val in values.items())


def set_key(text: str, key: str, value) -> str:
    """Replace the value of one `key = value` line; the key must be present."""
    pattern = re.compile(rf"^{re.escape(key)}\s*=.*$", re.MULTILINE)
    new, count = pattern.subn(f"{key} = {_fmt(value)}", text)
    if count != 1:
        raise ValueError(f"config has {count} lines for key {key}")
    return new


def _tokens(text: str, key: str) -> list[str]:
    """The value tokens of one `key = value` line, comment stripped."""
    match = re.search(rf"^{re.escape(key)}\s*=([^#\n]*)", text, re.MULTILINE)
    if match is None:
        raise ValueError(f"config has no line for key {key}")
    return match.group(1).split()


def config_numbers(text: str, key: str) -> list[float]:
    """The numbers of one `key = value` line; units are dropped."""
    return [float(t) for t in _tokens(text, key) if _is_number(t)]


def scale_key(text: str, key: str, factor: float) -> str:
    """Multiply every number of one `key = value` line by factor; units stay."""
    tokens = [repr(float(t) * factor) if _is_number(t) else t for t in _tokens(text, key)]
    return set_key(text, key, " ".join(tokens))


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _signed(rng: random.Random, lo: float, hi: float) -> float:
    """Log-uniform magnitude in [lo, hi] with a random sign."""
    mag = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    return mag if rng.random() < 0.5 else -mag


# ---------------------------------------------------------------- file readers

def read_table(path: Path) -> tuple[list[str], list[str], np.ndarray]:
    """CSV written by fileio.write_table: (comment lines, header, data)."""
    comments, header, rows = [], None, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line)
            elif header is None:
                header = line.split(",")
            elif line:
                rows.append(line)
    if header is None:
        raise ValueError(f"{path.name}: no header row")
    data = np.loadtxt(rows, delimiter=",", ndmin=2) if rows else np.empty((0, len(header)))
    return comments, header, data


def comment_values(comments: list[str], key: str) -> list[float]:
    for line in comments:
        parts = line[1:].split()
        if parts and parts[0] == key:
            return [float(v) for v in parts[1:]]
    raise ValueError(f"no '# {key}' line")


# ---------------------------------------------------------------- checks

def check_exit_only(out: Path, stdout: str) -> list[str]:
    return []


def check_selftest(out: Path, stdout: str, *, n_checks: int = SELFTEST_CHECKS) -> list[str]:
    want = f"{n_checks} of {n_checks} oracle checks passed"
    return [] if want in stdout else [f"selftest did not report '{want}'"]


def check_evolve(out: Path, stdout: str, *, dims, spacings, t_final,
                 norm_tol: float = 1e-10) -> list[str]:
    problems = []
    try:
        _, header, data = read_table(out / "observables.csv")
        norms = data[:, header.index("norm")]
        drift = abs(norms[-1] - norms[0]) / abs(norms[0])
        if not drift <= norm_tol:
            problems.append(f"norm drift {drift:.3e} exceeds {norm_tol:g}")
    except (OSError, ValueError, IndexError) as exc:
        problems.append(f"observables.csv unreadable: {exc}")
    path = out / "final_field.bin"
    try:
        with open(path, "rb") as fh:
            first = fh.readline()
        parts = first.decode().split()
        ok = (
            len(parts) == 8
            and parts[0] == "dipolariton-field-v1"
            and tuple(int(p) for p in parts[1:4]) == tuple(dims)
            and all(math.isclose(float(p), s, rel_tol=1e-12) for p, s in zip(parts[4:7], spacings))
            and math.isclose(float(parts[7]), t_final, rel_tol=1e-9)
        )
        if not ok:
            problems.append(f"final_field.bin header {first[:120]!r} is not the expected one")
        expected = len(first) + 16 * math.prod(dims)
        size = path.stat().st_size
        if size != expected:
            problems.append(f"final_field.bin has {size} bytes, expected {expected}")
    except (OSError, ValueError, UnicodeDecodeError) as exc:
        problems.append(f"final_field.bin unreadable: {exc}")
    return problems


def check_respond(out: Path, stdout: str, *, nu_tol: float = 0.05,
                  residual_tol: float = 0.10) -> list[str]:
    try:
        comments, _, _ = read_table(out / "response.csv")
        fit = complex(*comment_values(comments, "nu_fit"))
        pred = complex(*comment_values(comments, "nu_predicted"))
        (residual,) = comment_values(comments, "fit_residual")
    except (OSError, ValueError, TypeError) as exc:
        return [f"response.csv unreadable: {exc}"]
    problems = []
    dev = abs(fit - pred) / abs(pred) if pred else math.inf
    if not dev <= nu_tol:
        problems.append(f"nu_fit {fit} deviates {dev:.2%} from nu_predicted {pred}")
    if not residual <= residual_tol:
        problems.append(f"fit residual {residual:.2%} exceeds {residual_tol:.0%}")
    return problems


def eit_masses(medium: dict) -> tuple[float, float]:
    """Transverse mass and the real part of the longitudinal mass [kg]."""
    g2n = medium["medium.g"] ** 2 * medium["medium.n_atoms"]
    l_abs = medium["medium.gamma"] * C_LIGHT / g2n
    cos2 = 1.0 / (1.0 + g2n / (2.0 * medium["medium.omega"] ** 2))
    k = medium["medium.k"]
    m_perp = HBAR * k / (C_LIGHT * cos2)
    ratio = medium["medium.delta"] / medium["medium.gamma"]
    alpha = 1.0 / (2.0 * k * l_abs * complex(ratio, -1.0))
    return m_perp, (m_perp * alpha).real


def sphere_directions(n_polar: int, n_azimuth: int) -> np.ndarray:
    theta = (np.arange(n_polar) + 0.5) / n_polar * np.pi
    phi = np.arange(n_azimuth) / n_azimuth * 2.0 * np.pi
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    dirs = np.stack((np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)), axis=-1)
    return dirs.reshape(-1, 3)


def unstable_modes(q: np.ndarray, m_perp: float, m_par: float, c_dd: float,
                   axis=(0.0, 0.0, 1.0)) -> int:
    """Number of wavevectors (rows of q) whose Bogoliubov radicand is negative."""
    q2 = np.sum(q * q, axis=1)
    safe = np.where(q2 > 0, q2, 1.0)
    ang = np.where(q2 > 0, 3.0 * (q @ np.asarray(axis)) ** 2 / safe - 1.0, 0.0)
    e_free = HBAR**2 * ((q[:, 0] ** 2 + q[:, 1] ** 2) / (2.0 * m_perp) + q[:, 2] ** 2 / (2.0 * m_par))
    return int(np.count_nonzero(e_free * (e_free + c_dd * ang) < 0.0))


def check_stability_map(out: Path, stdout: str, *, medium: dict, c_dd: float,
                        n_polar: int, n_azimuth: int, magnitudes) -> list[str]:
    try:
        comments, header, data = read_table(out / "stability_map.csv")
        (reported,) = comment_values(comments, "n_unstable")
        stable = data[:, header.index("stable")]
    except (OSError, ValueError, IndexError) as exc:
        return [f"stability_map.csv unreadable: {exc}"]
    problems = []
    n_rows = n_polar * n_azimuth * len(magnitudes)
    if data.shape[0] != n_rows:
        problems.append(f"{data.shape[0]} rows, expected {n_rows}")
    q = (sphere_directions(n_polar, n_azimuth)[:, None, :]
         * np.asarray(magnitudes)[None, :, None]).reshape(-1, 3)
    expected = unstable_modes(q, *eit_masses(medium), c_dd)
    if reported != expected:
        problems.append(f"n_unstable {reported:g} in the file, {expected} from the dispersion law")
    if int(np.count_nonzero(stable == 0.0)) != reported:
        problems.append("stable column disagrees with the n_unstable comment")
    return problems


# ---------------------------------------------------------------- workloads

def evolve_128(seed: int) -> Workload:
    rng = _rng("evolve-128", seed)
    widths = tuple(rng.uniform(3e-7, 5e-7) for _ in range(3))
    strength = _signed(rng, 2e-16, 8e-16)
    dims = (EVOLVE_N,) * 3
    spacings = (EVOLVE_SPACING,) * 3
    t_final = EVOLVE_STEPS * EVOLVE_DT
    values = dict(MEDIUM)
    values.update({
        "grid.dims": dims,
        "grid.spacings": spacings,
        "kernel.strength": strength,
        "run.init": "gaussian",
        "run.gaussian_widths": widths,
        "run.dt": EVOLVE_DT,
        "run.t_final": t_final,
        "run.observer_stride": EVOLVE_STRIDE,
    })
    check = partial(check_evolve, dims=dims, spacings=spacings, t_final=t_final)
    cmd = Command(("evolve", "--threads", str(EVOLVE_THREADS)), render_config(values),
                  check, threads=EVOLVE_THREADS)
    return Workload("evolve-128", WHY["evolve-128"], (cmd,),
                    {"widths": widths, "kernel.strength": strength})


SHIPPED = ("derive", "kernel", "dispersion", "stability", "evolve", "respond", "validate")


def cli_shipped(seed: int, configs_dir: Path) -> Workload:
    """The shipped configs, each with its seeded values, plus selftest."""
    rng = _rng("cli-shipped", seed)
    text = {name: (configs_dir / f"{name}.cfg").read_text(encoding="utf-8") for name in SHIPPED}
    scale = rng.uniform(1.0, 1.25)  # wider only: a narrower packet can trip the phase guard
    text["evolve"] = scale_key(text["evolve"], "run.gaussian_widths", scale)
    text["respond"] = scale_key(text["respond"], "run.delta_amp", rng.uniform(0.5, 2.0))
    text["kernel"] = scale_key(text["kernel"], "kernel.strength", _signed(rng, 0.5, 2.0))
    for name in ("dispersion", "stability"):
        text[name] = scale_key(text[name], "run.c_dd", _signed(rng, 0.5, 2.0))
    smap = text["stability"]
    (c_dd,) = config_numbers(smap, "run.c_dd")
    checks = {
        "respond": check_respond,
        "stability": partial(
            check_stability_map,
            medium={key: config_numbers(smap, key)[0] for key in MEDIUM},
            c_dd=c_dd,
            n_polar=int(config_numbers(smap, "run.n_polar")[0]),
            n_azimuth=int(config_numbers(smap, "run.n_azimuth")[0]),
            magnitudes=tuple(config_numbers(smap, "run.q_magnitudes")),
        ),
    }
    commands = tuple(
        Command(("stability-map" if name == "stability" else name, "--threads", "1"),
                text[name], checks.get(name, check_exit_only))
        for name in SHIPPED
    ) + (Command(("selftest", "--threads", "1"), None, check_selftest),)
    return Workload("cli-shipped", WHY["cli-shipped"], commands,
                    {"evolve_width_scale": scale, "stability.c_dd": c_dd})


WHY = {
    "evolve-128": "evolve on 128^3 for 10 steps at 1 FFT thread: the step-bound path, "
                  "with a working set far above L2 and above L3",
    "cli-shipped": "the 7 shipped configs plus selftest, each a fresh process: import and "
                   "start-up dominate; small grids, so a stepping change barely moves it",
}

NAMES = tuple(WHY)


def build(name: str, seed: int, configs_dir: Path) -> Workload:
    if name == "cli-shipped":
        return cli_shipped(seed, configs_dir)
    return {"evolve-128": evolve_128}[name](seed)
