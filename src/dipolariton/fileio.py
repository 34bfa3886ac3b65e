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


def write_table(path: str, header: Sequence[str], rows: Iterable[Sequence[float]],
                comments: Sequence[str] = ()) -> None:
    """CSV table: comment block, one header row, %.17g data rows."""
    lines = list(comments)
    lines.append(",".join(header))
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, str):
                cells.append(cell)
            elif isinstance(cell, complex) or np.iscomplexobj(cell):
                c = complex(cell)
                cells.append(_g(c.real))
                cells.append(_g(c.imag))
            else:
                cells.append(_g(float(cell)))
        lines.append(",".join(cells))
    write_text(path, lines)


def _header_floats(parts: list[str], start: int, count: int) -> tuple[float, ...]:
    return tuple(float(p) for p in parts[start:start + count])


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
    with open(path, "rb") as fh:
        header = fh.readline().decode()
        payload = fh.read()
    parts = header.split()
    if not parts or parts[0] != _FIELD_MAGIC:
        raise ConfigError(f"{path}: not a field file (missing '{_FIELD_MAGIC}' header)")
    dims = tuple(int(p) for p in parts[1:4])
    spacings = _header_floats(parts, 4, 3)
    t = float(parts[7]) if len(parts) > 7 else 0.0
    grid = GridSpec(dims=dims, spacings=spacings)
    n = dims[0] * dims[1] * dims[2]
    arr = np.frombuffer(payload, dtype="<c16", count=n).reshape(dims).copy()
    return arr, grid, t


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
    with open(path, "rb") as fh:
        header = fh.readline().decode()
        payload = fh.read()
    parts = header.split()
    if not parts or parts[0] != _KERNEL_MAGIC:
        raise ConfigError(f"{path}: not a kernel table file (missing '{_KERNEL_MAGIC}' header)")
    dims = tuple(int(p) for p in parts[1:4])
    spacings = _header_floats(parts, 4, 3)
    orientation = _header_floats(parts, 7, 3)
    strength, cutoff, sphere = _header_floats(parts, 10, 3)
    method = parts[13]
    grid = GridSpec(dims=dims, spacings=spacings)
    spec = KernelSpec(orientation=orientation, strength=strength,
                      cutoff_radius=cutoff, sphere_radius=sphere)
    n = dims[0] * dims[1] * dims[2]
    coeffs = np.frombuffer(payload, dtype="<f8", count=n).reshape(dims).copy()
    return FourierTable(grid=grid, spec=spec, coeffs=coeffs,
                        method=method, sphere_radius=sphere)
