"""Three-dimensional transforms through numpy.fft, as chunked sweeps on a thread pool.

numpy.fft transforms one line at a time on the calling thread and releases
the GIL while it does. A line along axis 0 of a large array is strided:
each of its samples lies in another cache line, so a pass of such lines
over a whole array moves far more memory than it transforms. The module
works in sweeps instead. A sweep reads a chunk of about CHUNK_BYTES once
and does all its work on the chunk while it is in cache:

    sweep         task(w, c) per chunk c of axis-0 planes, in place; lines
                  along axes 1 and 2 of the chunk are contiguous or short
    x_lines       task(block, s) per chunk s of axis-1 slabs, block a
                  contiguous copy of a[:, s] in the thread's row of a scratch
                  array, where lines along axis 0 transform in cache; the
                  task writes back what it keeps
    rfft_planes   rfft over axis 2 and fft over axis 1 per chunk of planes
    irfft_planes  ifft over axis 1 and irfft over axis 2 per chunk of planes
    rfftn         rfft_planes, then fft over axis 0 in x_lines

kernel.convolve_density is rfft_planes, one x_lines sweep that transforms
forward, multiplies by the table and transforms back, and irfft_planes.
Between the forward transform and the product the sweep's slab holds
rfftn of the density, which is where a caller's density mode is read, and
irfft_planes reduces the peaks of each plane, so neither takes a pass of
its own. gpe composes the Strang step and observables from sweep and
x_lines the same way.

The chunks depend on the array's shape only, never on the worker count:
the calling thread and a persistent pool of workers - 1 threads each take a
contiguous run of them. Every line goes through the same call whichever
chunk holds it, so results are bit-identical for every worker count, and
rfftn takes numpy's own axis order and equals numpy.fft.rfftn bit for bit.
A sweep of fewer than CHUNK_BYTES runs whole on the calling thread, where
waking a second thread costs more than it gains. One pool per worker
count is kept for the life of the process, and only the sweeps of at
least CHUNK_BYTES at 2 or more workers reach it. concurrent.futures, and
the logging it imports, load at the first such sweep, so a process that
never reaches a pool never loads them.

The plane passes also run in place in FFTW's padded layout: a complex half
spectrum buf of shape (nx, ny, nz // 2 + 1) holds the real array in its
view buf.view(float)[:, :, :nz], each (x, y) row inside the row of the
spectrum it becomes. numpy copies an input that out= overlaps without
being the same array, so the plane passes take chunks of at most
_PADDED_CHUNK_BYTES, and each copy is one chunk.

numpy checks floating-point flags: a non-finite field would warn
("invalid value encountered in fft") and a field that overflows would warn
("overflow encountered in fft", "... in square") before the caller reports
it. The NaNs and infinities that follow are the caller's to report, so
each thread runs its chunks under np.errstate(invalid="ignore",
over="ignore"), set in its own thread, since threads do not inherit
numpy's error state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

_POOLS: dict[int, ThreadPoolExecutor] = {}

# bytes of array one sweep task takes at once, and the smallest sweep split
# over threads: with every sweep split, a Strang step at 2 workers took
# 0.97-1.02 of the 1-worker time from 16^3 to 40^3 (under 1 MiB of field)
# and 0.69 at 48^3 (1.7 MiB), on a 2-vCPU x86-64 host
CHUNK_BYTES = 1 << 20
# most bytes of spectrum one call of a plane pass takes, which bounds
# numpy's copy of an overlapping input in the padded layout
_PADDED_CHUNK_BYTES = 1 << 18


def chunks(n: int, unit_bytes: int, chunk_bytes: int = CHUNK_BYTES) -> list[slice]:
    """Consecutive slices of range(n), each about chunk_bytes of units of unit_bytes, at least one unit."""
    step = max(1, chunk_bytes // unit_bytes)
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


def sweep(task, n: int, unit_bytes: int, workers: int, chunk_bytes: int = CHUNK_BYTES) -> None:
    """Call task(w, c) for the chunks c of range(n), each about chunk_bytes of units of unit_bytes.

    w < workers is the slot of the thread that runs the chunk. Chunks are
    consecutive and the same for every worker count; each thread takes a
    contiguous run of them, in order.
    """
    cs = chunks(n, unit_bytes, chunk_bytes)
    count = min(workers if n * unit_bytes >= CHUNK_BYTES else 1, len(cs))
    edges = [len(cs) * i // count for i in range(count + 1)]

    def run(w: int) -> None:
        with np.errstate(invalid="ignore", over="ignore"):
            for c in cs[edges[w] : edges[w + 1]]:
                task(w, c)

    if count == 1:
        run(0)
        return
    from concurrent.futures import ThreadPoolExecutor, wait

    pool = _POOLS.get(workers)
    if pool is None:
        # setdefault is atomic: a pool that loses a race is never submitted
        # to, so it never starts a thread
        pool = _POOLS.setdefault(
            workers, ThreadPoolExecutor(workers - 1, thread_name_prefix="dipolariton-fft")
        )
    futures = [pool.submit(run, w) for w in range(1, count)]
    try:
        run(0)
    finally:
        wait(futures)
    for future in futures:
        future.result()


def new_scratch(shape: tuple[int, int, int], workers: int) -> np.ndarray:
    """Complex scratch, one row per thread slot, for the sweeps of a complex array of shape.

    A row holds the largest chunk of axis-0 planes or axis-1 slabs of that
    array, or of its half spectrum.
    """
    nx, ny, nz = shape
    row = min(nx * ny * nz, max(CHUNK_BYTES // 16, ny * nz, nx * nz))
    return np.empty((workers, row), dtype=complex)


def x_lines(a: np.ndarray, task, workers: int, scratch: np.ndarray | None = None) -> None:
    """Call task(block, s) for the chunks s of axis-1 slabs of the complex 3-D array a.

    block is a contiguous copy of a[:, s] in the running thread's row of
    scratch (from new_scratch; a new one if None), so transforms along
    axis 0 of block run in cache. a is not written unless task copies block
    back.
    """
    nx, ny, nz = a.shape
    scratch = new_scratch(a.shape, workers) if scratch is None else scratch

    def copy(w: int, s: slice) -> None:
        block = scratch[w, : nx * (s.stop - s.start) * nz].reshape(nx, -1, nz)
        np.copyto(block, a[:, s])
        task(block, s)

    sweep(copy, ny, a[:, 0].nbytes, workers)


def rfft_planes(a: np.ndarray, out: np.ndarray, workers: int) -> np.ndarray:
    """rfft over axis 2 and fft over axis 1 of the real 3-D array a, into the half spectrum out.

    a may be out's padded real view out.view(float)[:, :, :nz], which makes
    the pass in place.
    """
    def planes(w: int, s: slice) -> None:
        np.fft.rfft(a[s], axis=2, out=out[s])
        np.fft.fft(out[s], axis=1, out=out[s])

    sweep(planes, out.shape[0], out[0].nbytes, workers, _PADDED_CHUNK_BYTES)
    return out


def irfft_planes(spec: np.ndarray, n: int, out: np.ndarray, workers: int,
                 peaks: np.ndarray | None = None) -> np.ndarray:
    """ifft over axis 1 and irfft to last-axis length n of spec, into the real out; overwrites spec.

    out may be spec's padded real view spec.view(float)[:, :, :n], which
    makes the pass in place. peaks, if given, a float array of one entry
    per axis-0 plane, receives max |out| of each plane, reduced while the
    chunk is in cache; a plane with a NaN gets NaN.
    """
    def planes(w: int, s: slice) -> None:
        np.fft.ifft(spec[s], axis=1, out=spec[s])
        np.fft.irfft(spec[s], n=n, axis=2, out=out[s])
        if peaks is not None:
            np.abs(out[s]).max(axis=(1, 2), out=peaks[s])

    sweep(planes, spec.shape[0], spec[0].nbytes, workers, _PADDED_CHUNK_BYTES)
    return out


def rfftn(a: np.ndarray, workers: int = 1) -> np.ndarray:
    """Half spectrum, shape (nx, ny, nz // 2 + 1), of the real 3-D array a."""
    nx, ny, nz = a.shape
    out = rfft_planes(a, np.empty((nx, ny, nz // 2 + 1), dtype=complex), workers)

    def forward(block: np.ndarray, s: slice) -> None:
        np.fft.fft(block, axis=0, out=block)
        out[:, s] = block

    x_lines(out, forward, workers)
    return out
