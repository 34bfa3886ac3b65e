"""Deterministic file formats for tables, fields and kernel coefficients.

Text outputs are CSV with LF line endings and %.17g floats (lossless for
float64), preceded by '#' provenance comments: tool version, config digest,
effective parameter echo. No timestamps anywhere, so identical inputs give
byte-identical files. Writes go through a temp file in the target directory
plus os.replace, so readers never observe a half-written file.

Complex 3-d fields use a one-line text header followed by little-endian
complex128; kernel coefficient tables the same with float64.
"""

from __future__ import annotations

import math
import os
import tempfile
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError
from .grid import GridSpec
from .kernel import FourierTable, KernelSpec

__all__ = [
    "write_text",
    "write_table",
    "write_field",
    "read_field",
    "write_kernel_table",
    "read_kernel_table",
]

_FIELD_MAGIC = "dipolariton-field-v1"
_KERNEL_MAGIC = "dipolariton-kernel-v1"


def _atomic_write(path: str, *chunks) -> None:
    """Write the bytes-like chunks in order to a temp file, then move it to path."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        # mkstemp creates the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _g(x: float) -> str:
    return f"{x:.17g}"


def provenance_lines(version: str, config_sha: str | None,
                     effective: dict[str, str] | None) -> list[str]:
    lines = [f"# dipolariton {version}"]
    if config_sha:
        lines.append(f"# config sha256 {config_sha}")
    if effective:
        for key in sorted(effective):
            lines.append(f"# param {key} = {effective[key]}")
    return lines


def write_text(path: str, lines: Iterable[str]) -> None:
    body = "\n".join(lines) + "\n"
    _atomic_write(path, body.encode())


def _cell_format(cell) -> str:
    if isinstance(cell, str):
        return "%s"
    return "%.17g,%.17g" if isinstance(cell, complex) or np.iscomplexobj(cell) else "%.17g"


def write_table(path: str, header: Sequence[str], rows: Iterable[Sequence[float]],
                comments: Sequence[str] = ()) -> None:
    """CSV table: comment block, one header row, %.17g data rows.

    Cells are strings, reals or complexes (two cells). The first row's cell kinds
    give one format string for all rows, and other kinds raise ConfigError.
    """
    lines = [*comments, ",".join(header)]
    kinds, known = None, set()  # known: cell type tuples with the first row's kinds
    # an array is read a row at a time: a whole .tolist() would hold every cell at once
    for row in map(tuple, map(np.ndarray.tolist, rows) if isinstance(rows, np.ndarray) else rows):
        types = tuple(map(type, row))
        if types not in known:
            if kinds is None:
                kinds = tuple(map(_cell_format, row))
                fmt, split = ",".join(kinds), "%.17g,%.17g" in kinds
            elif tuple(map(_cell_format, row)) != kinds:
                raise ConfigError(f"table row {len(lines) - len(comments)}: cell kinds differ from row 1")
            if np.ndarray not in types:  # an array cell's kind is its dtype's
                known.add(types)
        if split:
            row = tuple(x for kind, cell in zip(kinds, row) for x in
                        ((complex(cell).real, complex(cell).imag) if kind == "%.17g,%.17g" else (cell,)))
        lines.append(fmt % row)
    write_text(path, lines)


def _read_binary(path: str, magic: str, what: str, dtype: str,
                 fields: Sequence[str] = ()) -> tuple[list[str], GridSpec, np.ndarray]:
    """Header words (magic first), grid and payload array of a binary file.

    The header is the magic, nx ny nz dx dy dz and then fields. A header that
    is not UTF-8, a wrong magic, a missing header field, a grid that does not
    parse or that GridSpec refuses, or a payload that is not exactly the
    grid's size raises ConfigError naming the path.
    """
    with open(path, "rb") as fh:
        header = fh.readline()
        payload = fh.read()
    try:
        parts = header.decode().split()
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: {what} header is not UTF-8 text") from None
    if not parts or parts[0] != magic:
        raise ConfigError(f"{path}: not a {what} file (missing '{magic}' header)")
    fields = ("nx", "ny", "nz", "dx", "dy", "dz", *fields)
    if len(parts) <= len(fields):
        raise ConfigError(f"{path}: {what} header lacks {', '.join(fields[len(parts) - 1:])}")
    try:
        grid = GridSpec(dims=tuple(map(int, parts[1:4])), spacings=tuple(map(float, parts[4:7])))
    except ValueError as exc:  # a word that is not a number, or a grid GridSpec refuses
        raise ConfigError(f"{path}: bad {what} grid in header: {exc}") from None
    expected = math.prod(grid.dims) * np.dtype(dtype).itemsize
    if len(payload) != expected:
        raise ConfigError(f"{path}: payload is {len(payload)} bytes, expected {expected} "
                          f"for a {'x'.join(map(str, grid.dims))} grid of '{dtype}'")
    return parts, grid, np.frombuffer(payload, dtype=dtype).reshape(grid.shape).copy()


def write_field(path: str, field: np.ndarray, grid: GridSpec, t: float = 0.0) -> None:
    """Binary complex field: text header line, then '<c16' in C order.

    A C-ordered little-endian complex128 field is written from its own
    buffer, without a copy.
    """
    arr = np.ascontiguousarray(field, dtype="<c16")
    if arr.shape != grid.shape:
        raise ConfigError(f"field shape {arr.shape} does not match grid {grid.shape}")
    nx, ny, nz = grid.dims
    dx, dy, dz = grid.spacings
    header = (f"{_FIELD_MAGIC} {nx} {ny} {nz} "
              f"{_g(dx)} {_g(dy)} {_g(dz)} {_g(t)}\n")
    _atomic_write(path, header.encode(), arr)


def read_field(path: str) -> tuple[np.ndarray, GridSpec, float]:
    parts, grid, field = _read_binary(path, _FIELD_MAGIC, "field", "<c16")
    try:
        return field, grid, float(parts[7]) if len(parts) > 7 else 0.0
    except ValueError as exc:
        raise ConfigError(f"{path}: bad field time in header: {exc}") from None


def write_kernel_table(path: str, table: FourierTable) -> None:
    """Binary kernel coefficients: text header line, then '<f8' in C order."""
    grid = table.grid
    spec = table.spec
    nx, ny, nz = grid.dims
    dx, dy, dz = grid.spacings
    ox, oy, oz = spec.orientation
    header = (f"{_KERNEL_MAGIC} {nx} {ny} {nz} "
              f"{_g(dx)} {_g(dy)} {_g(dz)} "
              f"{_g(ox)} {_g(oy)} {_g(oz)} "
              f"{_g(spec.strength)} {_g(spec.cutoff_radius)} "
              f"{_g(table.sphere_radius)} {table.method}\n")
    _atomic_write(path, header.encode(), np.ascontiguousarray(table.coeffs, dtype="<f8"))


def read_kernel_table(path: str) -> FourierTable:
    parts, grid, coeffs = _read_binary(
        path, _KERNEL_MAGIC, "kernel table", "<f8",
        ("ox", "oy", "oz", "strength", "cutoff_radius", "sphere_radius", "method"))
    try:
        strength, cutoff, sphere = map(float, parts[10:13])
        spec = KernelSpec(orientation=tuple(map(float, parts[7:10])), strength=strength,
                          cutoff_radius=cutoff, sphere_radius=sphere)
    except ValueError as exc:  # as for the grid: not a number, or a spec KernelSpec refuses
        raise ConfigError(f"{path}: bad kernel spec in header: {exc}") from None
    return FourierTable(grid=grid, spec=spec, coeffs=coeffs, method=parts[13], sphere_radius=sphere)
