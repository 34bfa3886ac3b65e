"""Deterministic file formats for tables, fields and kernel coefficients.

Text outputs are CSV with LF line endings and %.17g floats (lossless for
float64), preceded by '#' provenance comments: tool version, config digest,
effective parameter echo. No timestamps anywhere, so identical inputs give
byte-identical files. Each line goes to disk as it is formatted, so no copy
of a file is held in memory. Writes go through a temp file in the target
directory, created as open() would create it (the umask sets its mode),
plus os.replace, so readers never observe a half-written file.

Complex 3-d fields use a one-line text header followed by little-endian
complex128; kernel coefficient tables the same with their float64 half spectrum.
One writer and one reader handle that header for both: the magic word, the
grid, then the format's own words.
"""

from __future__ import annotations

import math
import os
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, check_shape
from .grid import GridSpec
from .kernel import FourierTable, KernelSpec

__all__ = [
    "write_table",
    "write_field",
    "read_field",
    "write_kernel_table",
    "read_kernel_table",
]

_FIELD_MAGIC = "dipolariton-field-v1"
_KERNEL_MAGIC = "dipolariton-kernel-v2"
# rows of an array table formatted by one % and written by one write(); a
# block holds its numbers, its text and its bytes at once, which peaks at
# 0.44 MB under tracemalloc for 1 024 x 4 floats
_BLOCK_ROWS = 1024


def _atomic_write(path: str, chunks: Iterable) -> None:
    """Write each bytes-like chunk to a temp file as it arrives, then move the file to path."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f"{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "xb")  # O_CREAT | O_EXCL, mode 0o666 less the umask
    try:
        with fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _g(value) -> str:
    """A float as %.17g, a tuple space-joined, anything else through str."""
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, tuple):
        return " ".join(map(_g, value))
    return str(value)


def provenance_lines(version: str, config_sha: str | None,
                     effective: dict[str, str] | None) -> list[str]:
    lines = [f"# dipolariton {version}"]
    if config_sha:
        lines.append(f"# config sha256 {config_sha}")
    if effective:
        for key in sorted(effective):
            lines.append(f"# param {key} = {effective[key]}")
    return lines


def _cell(c) -> str:
    """A str as is, a real as %.17g; a complex cell, numpy's too, raises TypeError."""
    if isinstance(c, (complex, np.complexfloating)):
        raise TypeError(f"table cell {c!r} is complex; write its real and imaginary parts")
    return c if isinstance(c, str) else "%.17g" % c


def write_table(path: str, header: Sequence[str], rows, comments: Sequence[str] = ()) -> None:
    """CSV table: comment block, one header row, then the rows.

    rows is a 2-D real array, or an iterable of rows of str and real cells;
    reals are written as %.17g, and a complex cell raises TypeError. Each
    line is written as it is formatted, an array's a block of _BLOCK_ROWS
    rows at a time, so the table is never held as text.
    """
    head = (f"{line}\n" for line in chain(comments, [",".join(header)]))
    if isinstance(rows, np.ndarray):
        fmt = ",".join(["%.17g"] * rows.shape[1]) + "\n"
        blocks = (rows[i : i + _BLOCK_ROWS] for i in range(0, len(rows), _BLOCK_ROWS))
        body = ((fmt * len(block)) % tuple(block.ravel().tolist()) for block in blocks)
    else:
        body = (",".join(map(_cell, row)) + "\n" for row in rows)
    _atomic_write(path, (text.encode() for text in chain(head, body)))


def _read_binary(path: str, magic: str, what: str, dtype: str, fields: Sequence[str] = (),
                 half: bool = False) -> tuple[list[str], GridSpec, np.ndarray]:
    """Header words (magic first), grid and payload array of a binary file.

    The header is the magic, nx ny nz dx dy dz, then fields; the payload has the
    grid's shape, or (nx, ny, nz // 2 + 1) if half. A non-UTF-8 header, a wrong
    magic, a missing field, a grid that does not parse or that GridSpec refuses,
    or a payload of another size raises ConfigError naming the path.
    """
    with open(path, "rb") as fh:
        header = fh.readline()
        size = os.fstat(fh.fileno()).st_size - fh.tell()
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
        shape = (*grid.dims[:2], grid.dims[2] // 2 + 1) if half else grid.shape
        expected = math.prod(shape) * np.dtype(dtype).itemsize
        payload = np.empty(shape, dtype=dtype) if size == expected else None
        if payload is None or fh.readinto(payload) != size:
            raise ConfigError(f"{path}: payload is {size} bytes, expected {expected} "
                              f"for {'x'.join(map(str, shape))} values of '{dtype}'")
    return parts, grid, payload


def _write_binary(path: str, magic: str, grid: GridSpec, words: Sequence, payload) -> None:
    """Header line magic, nx ny nz dx dy dz, words (each through _g), as _read_binary reads; payload."""
    header = _g((magic, *grid.dims, *grid.spacings, *words)) + "\n"
    _atomic_write(path, (header.encode(), payload))


def write_field(path: str, field: np.ndarray, grid: GridSpec, t: float = 0.0) -> None:
    """Binary complex field: text header line, then '<c16' in C order.

    A C-ordered little-endian complex128 field is written from its own
    buffer, without a copy; a field of another shape than the grid raises
    GridMismatchError.
    """
    arr = np.ascontiguousarray(check_shape(field, grid.shape, "field", "<c16"))
    _write_binary(path, _FIELD_MAGIC, grid, (t,), arr)


def read_field(path: str) -> tuple[np.ndarray, GridSpec, float]:
    parts, grid, field = _read_binary(path, _FIELD_MAGIC, "field", "<c16", ("t",))
    try:
        return field, grid, float(parts[7])
    except ValueError as exc:
        raise ConfigError(f"{path}: bad field time in header: {exc}") from None


def write_kernel_table(path: str, table: FourierTable) -> None:
    """Binary kernel coefficients: text header line, then the half spectrum as '<f8' in C order."""
    spec = table.spec
    words = (*spec.orientation, spec.strength, spec.cutoff_radius, spec.sphere_radius, table.method)
    _write_binary(path, _KERNEL_MAGIC, table.grid, words,
                  np.ascontiguousarray(table.coeffs, dtype="<f8"))


def read_kernel_table(path: str) -> FourierTable:
    parts, grid, coeffs = _read_binary(
        path, _KERNEL_MAGIC, "kernel table", "<f8",
        ("ox", "oy", "oz", "strength", "cutoff_radius", "sphere_radius", "method"), half=True)
    try:
        strength, cutoff, sphere = map(float, parts[10:13])
        spec = KernelSpec(orientation=tuple(map(float, parts[7:10])), strength=strength,
                          cutoff_radius=cutoff, sphere_radius=sphere)
        return FourierTable(grid=grid, spec=spec, coeffs=coeffs, method=parts[13])
    except ValueError as exc:  # not a number, or what KernelSpec or FourierTable refuses
        raise ConfigError(f"{path}: bad kernel spec in header: {exc}") from None
