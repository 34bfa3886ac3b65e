"""Flat `section.key = value` configuration files for the command-line tools.

One assignment per line; `#` starts a comment. Values are numbers, vectors
(whitespace-separated components) or words, optionally followed by one unit
token. Every key carries a dimension from the table below; a bare number
means the canonical SI unit of that dimension, and any other accepted unit of
the same dimension converts on read. Every key also has a value kind, and
one rule reads all kinds from a table of token count and token type: a
unit outside the key's dimension (or any unit on a key that takes none), a
missing value, a wrong count, a word outside the key's choices and a token
of the wrong type are each a hard error naming the key, as are unknown keys
(with a nearest-key suggestion), duplicate keys and malformed lines, all
reported with line numbers.

Sections: medium (the EIT parameters, one key per MediumParams field),
kernel (dipole axis, coupling strength and cutoffs), grid (lattice), run
(per-command numbers). parse_config returns the typed values plus an echo
of every effective value, defaults included, so outputs can embed the exact
parameter set they were produced from. SimConfig.sha256 is the SHA-256 of
the UTF-8 text as given, line ends included; it is taken with CPython's
built-in _sha2 (3.12+) or _sha256 (3.10-3.11) module, and with hashlib only
where neither exists, so that no command loads OpenSSL for one digest. The
nearest-key suggestion loads difflib only when a key is unknown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

try:  # the built-in module first, as random.py does: hashlib maps OpenSSL's libcrypto
    from _sha2 import sha256 as _sha256  # 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # 3.10 and 3.11
    except ImportError:
        from hashlib import sha256 as _sha256

from .eit import MediumParams
from .errors import ConfigError, GridTooSmallError, ParameterDomainError, UnitError
from .fileio import _g
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
# what the unknown-unit refusal calls a unit of each dimension but "none"
_UNIT_NOUN = {"frequency": "a frequency", "length": "a length", "inv_length": "an inverse-length",
              "time": "a time", "volume": "a volume", "density": "a density",
              "energy": "an energy", "coupling": "a coupling"}
# every unit of any dimension: a lone token is read as a unit only if it is one
_UNITS = frozenset(unit for units in UNIT_TABLE.values() for unit in units)


@dataclass(frozen=True)
class _Key:
    kind: str  # a key of _KINDS
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

# the keys SimConfig.medium and SimConfig.grid are built from; medium.* is
# exactly MEDIUM_KEYS, one per MediumParams field
MEDIUM_KEYS = tuple(f"medium.{f}" for f in ("g", "n_atoms", "v_t", "gamma", "delta", "omega", "k"))
GRID_KEYS = ("grid.dims", "grid.spacings")


def _is_number(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


# per kind: token count (None: any), what the count refusal calls that count, token type
_KINDS: dict[str, tuple[int | None, str, type]] = {
    "float": (1, "one number", float),
    "int": (1, "one integer", int),
    "word": (1, "one word", str),
    "vec3": (3, "3 components", float),
    "ivec3": (3, "3 components", int),
    "floats": (None, "", float),
}
_TOKEN_NOUN = {float: "a number", int: "an integer"}


def _convert(key: str, info: _Key, tokens: list[str], line_no: int) -> Any:
    count, counted, kind = _KINDS[info.kind]
    where = f"line {line_no}: {key}"
    unit_factor = 1.0
    # a lone token that names no unit is a value, and is refused as one below
    if (kind is not str and tokens and not _is_number(tokens[-1])
            and (len(tokens) > 1 or tokens[0] in _UNITS)):
        unit = tokens.pop()
        allowed = UNIT_TABLE[info.dimension]
        if not allowed:
            raise UnitError(f"{where}: takes no unit, got '{unit}'")
        if unit not in allowed:
            raise UnitError(f"{where}: unit '{unit}' is not {_UNIT_NOUN[info.dimension]} unit "
                            f"(accepted: {', '.join(sorted(allowed))})")
        unit_factor = allowed[unit]
    if not tokens:
        raise ConfigError(f"{where}: missing value")
    if count is not None and len(tokens) != count:
        raise ConfigError(f"{where}: expected {counted}, got {len(tokens)}")
    if info.choices and tokens[0] not in info.choices:
        raise ConfigError(f"{where}: '{tokens[0]}' is not one of {', '.join(info.choices)}")
    values = []
    for tok in tokens:
        try:
            values.append(kind(tok) * unit_factor if kind is float else kind(tok))
        except ValueError:
            raise ConfigError(f"{where}: '{tok}' is not {_TOKEN_NOUN[kind]}") from None
    return values[0] if count == 1 else tuple(values)


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
            raise ConfigError(f"command '{command}' needs config key '{key}'")
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
            import difflib  # only a refusal needs it

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
            medium = MediumParams(**{key[len("medium."):]: values[key] for key in MEDIUM_KEYS})
        except ParameterDomainError as exc:
            bad = str(exc).split(" ", 1)[0]
            raise ConfigError(f"medium.{bad}: {exc}") from exc

    grid = None
    if all(key in values for key in GRID_KEYS):
        try:
            grid = GridSpec(dims=values["grid.dims"], spacings=values["grid.spacings"])
        except (ParameterDomainError, GridTooSmallError) as exc:
            raise ConfigError(f"grid: {exc}") from exc

    effective = {k: _g(values[k]) for k in sorted(values)}
    digest = _sha256(text.encode()).hexdigest()
    return SimConfig(values=values, effective=effective, sha256=digest, medium=medium, grid=grid)
