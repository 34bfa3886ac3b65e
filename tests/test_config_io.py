"""Config parsing, unit handling and the deterministic file formats."""

import hashlib
import math
import os
import re
import stat

import numpy as np
import pytest

from dipolariton import (
    ConfigError,
    GridSpec,
    KernelSpec,
    MediumParams,
    UnitError,
    kernel_table_fourier,
    parse_config,
)
from dipolariton.fileio import (
    provenance_lines,
    read_field,
    read_kernel_table,
    write_field,
    write_kernel_table,
    write_table,
    write_text,
)
from conftest import random_complex

FULL = """\
# medium of the worked example; comments and blank lines are ignored

medium.g = 2.5e5
medium.n_atoms = 1e10          # bare numbers are canonical SI
medium.v_t = 1e-9
medium.gamma = 1e7 1/s
medium.delta = 2e8 rad/s
medium.omega = 1e6
medium.k = 10 1/mm

grid.dims = 16 8 12
grid.spacings = 0.5 0.25 0.125 um

kernel.strength = 3e-20
kernel.method = analytic
kernel.sphere_radius = 1.5 um

run.init = uniform
run.n0 = 2 1/um^3
run.dt = 10 ns
run.n_polar = 7
"""


def test_parse_full_config():
    cfg = parse_config(FULL)
    v = cfg.values
    assert v["medium.g"] == 2.5e5
    assert v["medium.gamma"] == 1e7
    assert v["medium.k"] == pytest.approx(1e4, rel=1e-15)
    assert v["grid.dims"] == (16, 8, 12)
    assert v["grid.spacings"] == pytest.approx((0.5e-6, 0.25e-6, 0.125e-6), rel=1e-15)
    assert v["kernel.sphere_radius"] == pytest.approx(1.5e-6, rel=1e-15)
    assert v["run.n0"] == pytest.approx(2e18, rel=1e-15)
    assert v["run.dt"] == pytest.approx(1e-8, rel=1e-15)
    assert v["run.init"] == "uniform"
    assert v["run.n_polar"] == 7
    # defaults fill in for keys the file does not set
    assert v["run.observer_stride"] == 10
    assert v["run.margin"] == 10.0
    assert v["medium.k_c_perp"] == (0.0, 0.0)
    assert v["medium.dip_moment_r"] == 1.0
    assert v["kernel.orientation"] == (0.0, 0.0, 1.0)
    assert "run.t_final" not in v  # no default for per-command numbers

    assert isinstance(cfg.medium, MediumParams)
    assert cfg.medium.delta == 2e8
    assert isinstance(cfg.grid, GridSpec)
    assert cfg.grid.dims == (16, 8, 12)
    assert cfg.sha256 == hashlib.sha256(FULL.encode()).hexdigest()


def test_empty_config_holds_exactly_the_defaults():
    cfg = parse_config("")
    assert cfg.values == {
        "medium.k_c_perp": (0.0, 0.0),
        "medium.u_strength": 0.0,
        "medium.dip_moment_r": 1.0,
        "kernel.orientation": (0.0, 0.0, 1.0),
        "kernel.cutoff_radius": 0.0,
        "kernel.method": "lattice",
        "run.observer_stride": 10,
        "run.init": "gaussian",
        "run.margin": 10.0,
        "run.delta_rr_avg": 0.0,
        "run.n_polar": 12,
        "run.n_azimuth": 24,
    }
    assert cfg.effective == {
        "kernel.cutoff_radius": "0", "kernel.method": "lattice", "kernel.orientation": "0 0 1",
        "medium.dip_moment_r": "1", "medium.k_c_perp": "0 0", "medium.u_strength": "0",
        "run.delta_rr_avg": "0", "run.init": "gaussian", "run.margin": "10",
        "run.n_azimuth": "24", "run.n_polar": "12", "run.observer_stride": "10",
    }


def test_effective_echo_round_trips():
    cfg = parse_config(FULL)
    assert list(cfg.effective) == sorted(cfg.effective)
    assert cfg.effective["grid.dims"] == "16 8 12"
    rebuilt = "\n".join(f"{k} = {val}" for k, val in cfg.effective.items())
    again = parse_config(rebuilt)
    for key, value in cfg.values.items():
        assert again.values[key] == value, key


def test_partial_config_builds_no_objects():
    cfg = parse_config("run.dt = 0.5\n")
    assert cfg.medium is None
    assert cfg.grid is None
    assert cfg.get("run.dt") == 0.5
    assert cfg.get("run.t_final", 3.0) == 3.0


def test_require_names_command_and_key():
    cfg = parse_config("run.dt = 0.5\n")
    assert cfg.require("run.dt", "evolve") == 0.5
    with pytest.raises(ConfigError, match="command 'evolve' needs config key 'run.t_final'"):
        cfg.require("run.t_final", "evolve")
    with pytest.raises(ConfigError, match=r"'kernel.strength' \(or medium.u_strength"):
        cfg.require("kernel.strength", "kernel")


def test_wrong_unit_names_key_and_line():
    with pytest.raises(UnitError, match="line 2: medium.gamma: unit 'um' is not a frequency unit"):
        parse_config("# header\nmedium.gamma = 1e7 um\n")


def test_unknown_key_suggests_nearest():
    with pytest.raises(ConfigError, match="did you mean 'medium.gamma'"):
        parse_config("medium.gamm = 1e7\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="line 2: duplicate key 'run.dt'"):
        parse_config("run.dt = 0.5\nrun.dt = 0.25\n")


def test_malformed_lines_rejected():
    with pytest.raises(ConfigError, match="expected 'section.key = value'"):
        parse_config("run.dt 0.5\n")
    with pytest.raises(ConfigError, match="missing value"):
        parse_config("run.dt =\n")
    with pytest.raises(ConfigError, match="expected 3 components, got 2"):
        parse_config("grid.dims = 16 16\n")
    with pytest.raises(ConfigError, match="'aa' is not an integer"):
        parse_config("grid.dims = aa 16 16\n")
    with pytest.raises(ConfigError, match="'aa' is not a number"):
        parse_config("grid.spacings = aa 0.5 0.5\n")
    with pytest.raises(ConfigError, match="is not one of uniform, gaussian"):
        parse_config("run.init = vortex\n")


def test_domain_errors_carry_config_context():
    bad_medium = FULL.replace("medium.gamma = 1e7 1/s", "medium.gamma = -1e7")
    with pytest.raises(ConfigError, match="^medium.gamma"):
        parse_config(bad_medium)
    bad_grid = FULL.replace("grid.dims = 16 8 12", "grid.dims = 15 8 12")
    with pytest.raises(ConfigError, match="^grid:"):
        parse_config(bad_grid)


# ------------------------------------------------------------------ file IO

def test_write_table_layout(tmp_path):
    path = str(tmp_path / "t.csv")
    write_table(path, ["x", "re_v", "im_v", "tag"],
                [[0.1, 0.1 + 0.2j, "PASS"], [2.0, -1.0 + 0j, "FAIL"]],
                comments=["# provenance"])
    with open(path, "rb") as fh:
        raw = fh.read()
    assert b"\r" not in raw and raw.endswith(b"\n")
    lines = raw.decode().splitlines()
    assert lines[0] == "# provenance"
    assert lines[1] == "x,re_v,im_v,tag"
    cells = lines[2].split(",")
    assert len(cells) == 4  # complex spread over two cells, string passed through
    assert float(cells[0]) == 0.1
    assert float(cells[1]) == 0.1 and float(cells[2]) == 0.2
    assert cells[3] == "PASS"
    assert lines[3] == "2,-1,0,FAIL"


def test_seventeen_digit_floats_are_lossless(tmp_path):
    path = str(tmp_path / "t.csv")
    values = [math.pi, 1.0 / 3.0, 6.626e-34, -2.5e17]
    write_table(path, ["v"], [[v] for v in values])
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert [float(s) for s in lines[1:]] == values


def _per_cell_table(header, rows, comments=()):
    """The byte reference: each cell formatted on its own, kind by kind."""
    lines = list(comments)
    lines.append(",".join(header))
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, str):
                cells.append(cell)
            elif isinstance(cell, complex) or np.iscomplexobj(cell):
                c = complex(cell)
                cells.append(f"{c.real:.17g}")
                cells.append(f"{c.imag:.17g}")
            else:
                cells.append(f"{float(cell):.17g}")
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode()


SPECIAL = [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, 1.5e-310,
           2.2250738585072014e-308, 1.7976931348623157e308, 0.1, -1.0 / 3.0, 1e16, 12.0]
# the same cases in single precision, where 1e-45 is subnormal
SPECIAL32 = [math.inf, -math.inf, math.nan, -0.0, 0.0, 1e-45, 1e-40,
             1.1754943508222875e-38, 3.4028234663852886e38, 0.1, -1.0 / 3.0, 1e16, 12.0]


def _mixed_rows():
    rows = []
    for i, x in enumerate(SPECIAL):
        y = SPECIAL[-1 - i]
        rows.append((
            f"row{i}", x, complex(x, y), np.float64(y), np.float32(SPECIAL32[i]),
            [3, -7, 2**60 + 1][i % 3],  # ints, in a column that also holds a float
            bool(i % 2), np.int64(-i), np.bool_(i % 2 == 0),
            np.complex64(complex(SPECIAL32[-1 - i], SPECIAL32[i])), np.complex128(complex(x, -y)),
            np.array(y), np.array(complex(y, x)),
        ))
    rows[1] = rows[1][:5] + (2.5,) + rows[1][6:]
    return rows


@pytest.mark.parametrize("rows", [
    _mixed_rows(),
    np.array(SPECIAL).reshape(-1, 1) * np.array([1.0, -1.0, 1e-300, 0.5]),
    np.array([complex(a, b) for a, b in zip(SPECIAL[:12], SPECIAL[1:])]).reshape(4, 3),
    np.arange(-6, 6).reshape(4, 3),
    np.array([[True, False], [False, True]]),
    np.array(SPECIAL32, dtype=np.float32).reshape(-1, 1),
    [],
], ids=["mixed-cells", "float-array", "complex-array", "int-array", "bool-array",
        "float32-array", "no-rows"])
def test_write_table_bytes_match_the_per_cell_formatter(tmp_path, rows):
    header = [f"c{i}" for i in range(3)]
    comments = ["# provenance", "# param a = 1"]
    path = tmp_path / "t.csv"
    write_table(str(path), header, rows, comments=comments)
    assert path.read_bytes() == _per_cell_table(header, rows, comments)


@pytest.mark.parametrize("rows", [
    [(1.0, "a"), ("b", 2.0)],
    [("a",), (1.0,)],
    [(1.0,), (1.0 + 2j,)],
    [(1.0 + 2j,), (1.0,)],
    [(1.0,), (np.complex128(1.0),)],
    [(np.array(1.0),), (np.array(1j),)],
    [(1.0, 2.0), (1.0,)],
])
def test_write_table_refuses_a_row_of_other_cell_kinds(tmp_path, rows):
    path = tmp_path / "t.csv"
    with pytest.raises(ConfigError, match="row 2"):
        write_table(str(path), ["a", "b"], rows)
    assert not path.exists()


def test_write_text_uses_lf(tmp_path):
    path = str(tmp_path / "lines.txt")
    write_text(path, ["alpha", "beta"])
    with open(path, "rb") as fh:
        assert fh.read() == b"alpha\nbeta\n"


def test_field_round_trip_is_bit_exact(tmp_path):
    grid = GridSpec(dims=(8, 10, 12), spacings=(0.5, 0.25, 0.125))
    field = random_complex(grid.shape, 11)
    path = str(tmp_path / "f.bin")
    write_field(path, field, grid, t=0.625)
    back, grid2, t = read_field(path)
    assert np.array_equal(back, field)
    assert grid2.dims == grid.dims
    assert grid2.spacings == grid.spacings
    assert t == 0.625


@pytest.mark.parametrize("layout", ["c_order", "strided", "complex64", "big_endian"])
def test_field_bytes_equal_the_copying_writer(tmp_path, layout):
    # header, then the '<c16' bytes a copy through astype(...).tobytes() gives
    grid = GridSpec(dims=(8, 10, 12), spacings=(0.5, 0.25, 0.125))
    base = random_complex((8, 10, 24), 5)
    field = {
        "c_order": np.ascontiguousarray(base[:, :, :12]),
        "strided": base[:, :, ::2],
        "complex64": base[:, :, :12].astype(np.complex64),
        "big_endian": base[:, :, :12].astype(">c16"),
    }[layout]
    path = str(tmp_path / "f.bin")
    write_field(path, field, grid, t=0.625)
    with open(path, "rb") as fh:
        raw = fh.read()
    header = b"dipolariton-field-v1 8 10 12 0.5 0.25 0.125 0.625\n"
    assert raw == header + np.asarray(field).astype("<c16").tobytes()
    back, _, t = read_field(path)
    assert np.array_equal(back, field.astype(complex))
    assert t == 0.625


def test_kernel_table_bytes_equal_the_copying_writer(tmp_path):
    grid = GridSpec(dims=(8, 8, 10), spacings=(0.4, 0.4, 0.3))
    table = kernel_table_fourier(grid, KernelSpec(orientation=(0.0, 0.6, 0.8), strength=1.7))
    path = str(tmp_path / "k.bin")
    write_kernel_table(path, table)
    with open(path, "rb") as fh:
        header = fh.readline()
        payload = fh.read()
    assert header.startswith(b"dipolariton-kernel-v1 8 8 10 ")
    assert payload == table.coeffs.astype("<f8").tobytes()


def test_field_header_time_defaults_to_zero(tmp_path):
    grid = GridSpec(dims=(8, 8, 8), spacings=(1.0, 1.0, 1.0))
    field = np.zeros(grid.shape, complex)
    path = str(tmp_path / "f.bin")
    write_field(path, field, grid)
    _, _, t = read_field(path)
    assert t == 0.0


def test_field_shape_mismatch_rejected(tmp_path):
    grid = GridSpec(dims=(8, 8, 8), spacings=(1.0, 1.0, 1.0))
    with pytest.raises(ConfigError):
        write_field(str(tmp_path / "f.bin"), np.zeros((8, 8, 10), complex), grid)


def test_magic_mismatch_rejected(tmp_path):
    bogus = str(tmp_path / "junk.bin")
    with open(bogus, "wb") as fh:
        fh.write(b"something-else 8 8 8\n" + b"\x00" * 64)
    with pytest.raises(ConfigError, match="not a field file"):
        read_field(bogus)
    with pytest.raises(ConfigError, match="not a kernel table file"):
        read_kernel_table(bogus)


def _written(tmp_path, kind):
    grid = GridSpec(dims=(8, 8, 10), spacings=(0.5, 0.5, 0.25))
    path = str(tmp_path / f"{kind}.bin")
    if kind == "field":
        write_field(path, random_complex(grid.shape, 2), grid, t=0.5)
    else:
        write_kernel_table(path, kernel_table_fourier(grid, KernelSpec((0.0, 0.0, 1.0), 1.0)))
    with open(path, "rb") as fh:
        header = fh.readline()
        payload = fh.read()
    return path, header, payload


_READERS = {"field": read_field, "kernel": read_kernel_table}
_WHAT = {"field": "field", "kernel": "kernel table"}


@pytest.mark.parametrize("kind, size", [("field", 640 * 16), ("kernel", 640 * 8)])
@pytest.mark.parametrize("change", [-5, 8])
def test_payload_of_the_wrong_size_rejected(tmp_path, kind, size, change):
    # a truncated payload, or one with trailing bytes, names both byte counts
    path, header, payload = _written(tmp_path, kind)
    assert len(payload) == size
    with open(path, "wb") as fh:
        fh.write(header + (payload[:change] if change < 0 else payload + b"\x00" * change))
    with pytest.raises(ConfigError, match=rf"payload is {size + change} bytes, expected {size} "):
        _READERS[kind](path)


@pytest.mark.parametrize("kind, keep, missing", [
    ("field", 4, "dx, dy, dz"),
    ("kernel", 10, "strength, cutoff_radius, sphere_radius, method"),
    ("kernel", 13, "method"),
])
def test_header_missing_fields_rejected(tmp_path, kind, keep, missing):
    path, header, payload = _written(tmp_path, kind)
    with open(path, "wb") as fh:
        fh.write(b" ".join(header.split()[:keep]) + b"\n" + payload)
    with pytest.raises(ConfigError, match=f"header lacks {missing}$"):
        _READERS[kind](path)


@pytest.mark.parametrize("kind", ["field", "kernel"])
@pytest.mark.parametrize("word, value, reason", [
    (3, b"x", r"invalid literal for int\(\) with base 10: 'x'"),
    (5, b"0.5m", r"could not convert string to float: '0.5m'"),
])
def test_header_non_numeric_grid_rejected(tmp_path, kind, word, value, reason):
    path, header, payload = _written(tmp_path, kind)
    words = header.split()
    words[word] = value
    with open(path, "wb") as fh:
        fh.write(b" ".join(words) + b"\n" + payload)
    with pytest.raises(ConfigError, match=rf"^{re.escape(path)}: bad {_WHAT[kind]} grid in header: {reason}$"):
        _READERS[kind](path)


@pytest.mark.parametrize("word, value, reason", [
    (10, b"x", r"could not convert string to float: 'x'"),
    (7, b"2", r"orientation must be a unit vector"),
])
def test_header_bad_kernel_spec_rejected(tmp_path, word, value, reason):
    path, header, payload = _written(tmp_path, "kernel")
    words = header.split()
    words[word] = value
    with open(path, "wb") as fh:
        fh.write(b" ".join(words) + b"\n" + payload)
    with pytest.raises(ConfigError, match=rf"^{re.escape(path)}: bad kernel spec in header: {reason}"):
        read_kernel_table(path)


def test_header_bad_field_time_rejected(tmp_path):
    path, header, payload = _written(tmp_path, "field")
    words = header.split()
    words[7] = b"0.5s"
    with open(path, "wb") as fh:
        fh.write(b" ".join(words) + b"\n" + payload)
    with pytest.raises(ConfigError, match=rf"^{re.escape(path)}: bad field time in header: "
                                          r"could not convert string to float: '0.5s'$"):
        read_field(path)


@pytest.mark.parametrize("kind", ["field", "kernel"])
def test_header_grid_below_eight_points_rejected(tmp_path, kind):
    path, header, payload = _written(tmp_path, kind)
    words = header.split()
    words[1] = b"4"
    with open(path, "wb") as fh:
        fh.write(b" ".join(words) + b"\n" + payload)
    with pytest.raises(ConfigError, match=rf"^{re.escape(path)}: bad {_WHAT[kind]} grid in header: "
                                          r"need at least 8 points per axis"):
        _READERS[kind](path)


@pytest.mark.parametrize("kind", ["field", "kernel"])
def test_header_not_utf8_rejected(tmp_path, kind):
    path, header, payload = _written(tmp_path, kind)
    with open(path, "wb") as fh:
        fh.write(header.rstrip(b"\n") + b" \xff\xfe\n" + payload)
    with pytest.raises(ConfigError, match=rf"^{re.escape(path)}: {_WHAT[kind]} header is not UTF-8 text$"):
        _READERS[kind](path)


def test_kernel_table_round_trip(tmp_path):
    grid = GridSpec(dims=(8, 8, 8), spacings=(0.4, 0.4, 0.4))
    spec = KernelSpec(orientation=(1.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0),
                      strength=1.7, cutoff_radius=0.3, sphere_radius=1.25)
    table = kernel_table_fourier(grid, spec, method="lattice")
    path = str(tmp_path / "k.bin")
    write_kernel_table(path, table)
    back = read_kernel_table(path)
    assert np.array_equal(back.coeffs, table.coeffs)
    assert back.grid.dims == grid.dims
    assert back.spec.orientation == pytest.approx(spec.orientation, rel=1e-16)
    assert back.spec.strength == 1.7
    assert back.spec.cutoff_radius == 0.3
    assert back.sphere_radius == 1.25
    assert back.method == "lattice"


def test_provenance_lines_layout():
    lines = provenance_lines("1.2.3", "deadbeef", {"b.key": "2", "a.key": "1"})
    assert lines == [
        "# dipolariton 1.2.3",
        "# config sha256 deadbeef",
        "# param a.key = 1",
        "# param b.key = 2",
    ]
    assert provenance_lines("1.2.3", None, None) == ["# dipolariton 1.2.3"]


def test_writes_leave_no_temp_files(tmp_path):
    grid = GridSpec(dims=(8, 8, 8), spacings=(1.0, 1.0, 1.0))
    write_field(str(tmp_path / "f.bin"), np.zeros(grid.shape, complex), grid)
    write_text(str(tmp_path / "t.txt"), ["x"])
    write_table(str(tmp_path / "t.csv"), ["a"], [[1.0]])
    leftovers = [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]
    assert leftovers == []


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_written_files_respect_the_umask(tmp_path, umask):
    # the atomic temp file starts 0600; the output gets the mode open() would give it
    path = tmp_path / "t.txt"
    old = os.umask(umask)
    try:
        write_text(str(path), ["x"])
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o666 & ~umask
