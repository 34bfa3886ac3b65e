"""Flat `section.key = value` configuration files for the command-line tools.

One assignment per line; `#` starts a comment. Values are numbers, vectors
(whitespace-separated components) or words, optionally followed by one unit
token. Every key carries a dimension from the table below; a bare number
means the canonical SI unit of that dimension, and any other accepted unit of
the same dimension converts on read. A unit token outside the key's dimension
is a hard error naming the key, as are unknown keys (with a nearest-key
suggestion), duplicate keys and malformed lines, all reported with line
numbers.

Sections: medium (raw medium parameters), kernel (dipole axis and cutoffs),
grid (lattice), run (per-command numbers). parse_config returns the typed
values plus an echo of every effective value, defaults included, so outputs
can embed the exact parameter set they were produced from.
"""

from __future__ import annotations

import difflib
import hashlib
from dataclasses import dataclass
from typing import Any

from .eit import MediumParams
from .errors import ConfigError, GridTooSmallError, ParameterDomainError, UnitError
from .grid import GridSpec

__all__ = ["SimConfig", "parse_config", "KEY_TABLE", "UNIT_TABLE", "MEDIUM_KEYS", "GRID_KEYS"]

# accepted units per dimension; value = factor to the canonical SI unit (first entry)
UNIT_TABLE: dict[str, dict[str, float]] = {
    "frequency": {"rad/s": 1.0, "1/s": 1.0},
    "length": {"m": 1.0, "mm": 1e-3, "um": 1e-6, "nm": 1e-9},
    "inv_length": {"1/m": 1.0, "1/cm": 1e2, "1/mm": 1e3, "1/um": 1e6},
    "time": {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9},
    "volume": {"m^3": 1.0, "cm^3": 1e-6, "um^3": 1e-18},
    "density": {"1/m^3": 1.0, "1/cm^3": 1e6, "1/um^3": 1e18},
    "energy": {"J": 1.0},
    "coupling": {"rad/s*m^3": 1.0, "1/s*m^3": 1.0},
    "none": {},
}


@dataclass(frozen=True)
class _Key:
    kind: str  # float | int | word | vec2 | vec3 | ivec3 | floats
    dimension: str = "none"
    default: Any = None  # None: the key has no default
    choices: tuple[str, ...] | None = None


KEY_TABLE: dict[str, _Key] = {
    "medium.g": _Key("float", "frequency"),
    "medium.n_atoms": _Key("float"),
    "medium.v_t": _Key("float", "volume"),
    "medium.gamma": _Key("float", "frequency"),
    "medium.delta": _Key("float", "frequency"),
    "medium.omega": _Key("float", "frequency"),
    "medium.k": _Key("float", "inv_length"),
    "medium.k_c_perp": _Key("vec2", "inv_length", (0.0, 0.0)),
    "medium.u_strength": _Key("float", "coupling", 0.0),
    "medium.dip_moment_r": _Key("float", "none", 1.0),
    "kernel.orientation": _Key("vec3", "none", (0.0, 0.0, 1.0)),
    "kernel.strength": _Key("float", "coupling"),
    "kernel.cutoff_radius": _Key("float", "length", 0.0),
    "kernel.sphere_radius": _Key("float", "length"),
    "kernel.method": _Key("word", "none", "lattice", ("lattice", "analytic")),
    "grid.dims": _Key("ivec3"),
    "grid.spacings": _Key("vec3", "length"),
    "run.dt": _Key("float", "time"),
    "run.t_final": _Key("float", "time"),
    "run.duration": _Key("float", "time"),
    "run.observer_stride": _Key("int", "none", 10),
    "run.init": _Key("word", "none", "gaussian",
                     ("uniform", "gaussian", "perturbed_plane_wave")),
    "run.n0": _Key("float", "density"),
    "run.gaussian_widths": _Key("vec3", "length"),
    "run.delta_amp": _Key("float"),
    "run.q_perturb": _Key("vec3", "inv_length"),
    "run.margin": _Key("float", "none", 10.0),
    "run.pulse_t": _Key("float", "time"),
    "run.pulse_length": _Key("float", "length"),
    "run.delta_rr_avg": _Key("float", "frequency", 0.0),
    "run.c_dd": _Key("float", "energy"),
    "run.directions": _Key("floats"),
    "run.q_magnitudes": _Key("floats", "inv_length"),
    "run.n_polar": _Key("int", "none", 12),
    "run.n_azimuth": _Key("int", "none", 24),
    "run.k_plus": _Key("vec3", "inv_length"),
    "run.k_minus": _Key("vec3", "inv_length"),
    "run.k_c_plus": _Key("vec3", "inv_length"),
    "run.k_c_minus": _Key("vec3", "inv_length"),
}

# keys without a default that SimConfig.medium and SimConfig.grid are built from
MEDIUM_KEYS = tuple(f"medium.{f}" for f in ("g", "n_atoms", "v_t", "gamma", "delta", "omega", "k"))
GRID_KEYS = ("grid.dims", "grid.spacings")

# what a missing-key error adds for a key that another setting can stand in for
_STAND_INS = {"kernel.strength": "or medium.u_strength with medium.dip_moment_r"}


def _is_number(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def _convert(key: str, info: _Key, tokens: list[str], line_no: int) -> Any:
    unit_factor = 1.0
    if tokens and not _is_number(tokens[-1]) and info.kind not in ("word",):
        unit = tokens.pop()
        allowed = UNIT_TABLE[info.dimension]
        if unit not in allowed:
            options = ", ".join(sorted(allowed)) if allowed else "no unit"
            raise UnitError(
                f"line {line_no}: {key}: unit '{unit}' is not a {info.dimension} unit "
                f"(accepted: {options})"
            )
        unit_factor = allowed[unit]
    if not tokens:
        raise ConfigError(f"line {line_no}: {key}: missing value")

    def as_float(tok: str) -> float:
        try:
            return float(tok) * unit_factor
        except ValueError:
            raise ConfigError(f"line {line_no}: {key}: '{tok}' is not a number") from None

    def as_int(tok: str) -> int:
        try:
            return int(tok)
        except ValueError:
            raise ConfigError(f"line {line_no}: {key}: '{tok}' is not an integer") from None

    if info.kind == "float":
        if len(tokens) != 1:
            raise ConfigError(f"line {line_no}: {key}: expected one number, got {len(tokens)}")
        return as_float(tokens[0])
    if info.kind == "int":
        if len(tokens) != 1:
            raise ConfigError(f"line {line_no}: {key}: expected one integer")
        return as_int(tokens[0])
    if info.kind == "word":
        if len(tokens) != 1:
            raise ConfigError(f"line {line_no}: {key}: expected one word")
        word = tokens[0]
        if info.choices and word not in info.choices:
            raise ConfigError(
                f"line {line_no}: {key}: '{word}' is not one of {', '.join(info.choices)}"
            )
        return word
    if info.kind in ("vec2", "vec3", "ivec3"):
        want = 2 if info.kind == "vec2" else 3
        if len(tokens) != want:
            raise ConfigError(
                f"line {line_no}: {key}: expected {want} components, got {len(tokens)}"
            )
        if info.kind == "ivec3":
            return tuple(as_int(t) for t in tokens)
        return tuple(as_float(t) for t in tokens)
    if info.kind == "floats":
        return tuple(as_float(t) for t in tokens)
    raise ConfigError(f"line {line_no}: {key}: unhandled kind {info.kind}")


@dataclass(frozen=True)
class SimConfig:
    """Typed configuration: raw values per key plus assembled objects."""

    values: dict[str, Any]
    effective: dict[str, str]
    sha256: str
    medium: MediumParams | None = None
    grid: GridSpec | None = None

    def get(self, key: str, default: Any = None) -> Any:
        return self.values.get(key, default)

    def require(self, key: str, command: str) -> Any:
        """Value of key; ConfigError naming command and key when it is unset."""
        if key not in self.values:
            stand_in = f" ({_STAND_INS[key]})" if key in _STAND_INS else ""
            raise ConfigError(f"command '{command}' needs config key '{key}'{stand_in}")
        return self.values[key]

    def require_medium(self, command: str) -> MediumParams:
        """The medium; ConfigError naming the first of MEDIUM_KEYS that is unset."""
        for key in MEDIUM_KEYS:
            self.require(key, command)
        return self.medium

    def require_grid(self, command: str) -> GridSpec:
        """The grid; ConfigError naming the first of GRID_KEYS that is unset."""
        for key in GRID_KEYS:
            self.require(key, command)
        return self.grid


def _render(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, tuple):
        return " ".join(_render(v) for v in value)
    return str(value)


def parse_config(text: str) -> SimConfig:
    """Parse config text; see the module docstring for the format."""
    values: dict[str, Any] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'section.key = value', got '{raw.strip()}'")
        key, _, rhs = line.partition("=")
        key = key.strip()
        if key not in KEY_TABLE:
            near = difflib.get_close_matches(key, KEY_TABLE.keys(), n=1)
            hint = f" (did you mean '{near[0]}'?)" if near else ""
            raise ConfigError(f"line {line_no}: unknown key '{key}'{hint}")
        if key in values:
            raise ConfigError(f"line {line_no}: duplicate key '{key}'")
        tokens = rhs.strip().split()
        values[key] = _convert(key, KEY_TABLE[key], tokens, line_no)

    for key, info in KEY_TABLE.items():
        if info.default is not None and key not in values:
            values[key] = info.default

    medium = None
    if all(key in values for key in MEDIUM_KEYS):
        try:
            medium = MediumParams(
                g=values["medium.g"],
                n_atoms=values["medium.n_atoms"],
                v_t=values["medium.v_t"],
                gamma=values["medium.gamma"],
                delta=values["medium.delta"],
                omega=values["medium.omega"],
                k=values["medium.k"],
                k_c_perp=values["medium.k_c_perp"],
                u_strength=values["medium.u_strength"],
                dip_moment_r=values["medium.dip_moment_r"],
            )
        except ParameterDomainError as exc:
            bad = str(exc).split(" ", 1)[0]
            raise ConfigError(f"medium.{bad}: {exc}") from exc

    grid = None
    if all(key in values for key in GRID_KEYS):
        try:
            grid = GridSpec(dims=values["grid.dims"], spacings=values["grid.spacings"])
        except (ParameterDomainError, GridTooSmallError) as exc:
            raise ConfigError(f"grid: {exc}") from exc

    effective = {k: _render(values[k]) for k in sorted(values)}
    digest = hashlib.sha256(text.encode()).hexdigest()
    return SimConfig(values=values, effective=effective, sha256=digest, medium=medium, grid=grid)
