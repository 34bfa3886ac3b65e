"""Three-dimensional transforms through numpy.fft, run in slabs on a thread pool.

numpy.fft transforms one line at a time on the calling thread and releases
the GIL while it does. A 3-D transform here is two passes, and each pass
splits the array into slabs that the calling thread and a persistent pool
of workers - 1 threads transform at once:

    c2c  fftn over axes (1, 2) per axis-0 slab, then fft over axis 0 per axis-1 slab
    r2c  rfft over axis 2 and fft over axis 1 per axis-0 slab, then fft over
         axis 0 per axis-1 slab
    c2r  the mirror of r2c: ifft over axis 0 per axis-1 slab, then ifft over
         axis 1 and irfft over axis 2 per axis-0 slab

Every line goes through the same call whichever slab holds it, so results
are bit-identical for every worker count; c2c and r2c take numpy's own axis
order and equal numpy.fft.fftn, ifftn and rfftn bit for bit. Each pass
writes through out=, in place where the caller allows it, so the passes
make no full-grid temporaries. There are no threads at workers=1, never
more slabs than the axis has planes, and one pool per worker count, kept
for the life of the process, so the many steps of a small grid do not
start threads on every call.

r2c and c2r also run in place in FFTW's padded layout: a complex half
spectrum buf of shape (nx, ny, nz // 2 + 1) holds the real array in its
view buf.view(float)[:, :, :nz], each (x, y) row inside the row of the
spectrum it becomes. numpy copies an input that out= overlaps without
being the same array, so the passes between the two layouts run on chunks
of axis-0 planes, at every worker count, and each copy is one chunk.

numpy's FFT checks floating-point flags: a non-finite field would warn
("invalid value encountered in fft") before the caller reports it. The
NaNs that follow are the caller's to report, so each slab is transformed
under np.errstate(invalid="ignore"), set in its own thread, since threads
do not inherit numpy's error state.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

_POOLS: dict[int, ThreadPoolExecutor] = {}

# most bytes of spectrum one call of a padded r2c or c2r pass takes, which
# bounds numpy's copy of an overlapping input
_PADDED_CHUNK_BYTES = 1 << 18


def in_slabs(task, n: int, workers: int) -> None:
    """Call task(s) for min(workers, n) contiguous slices s of range(n) at once."""
    count = min(workers, n)
    if count == 1:
        with np.errstate(invalid="ignore"):
            task(slice(None))
        return
    edges = [n * i // count for i in range(count + 1)]
    slabs = [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]

    def quiet(s: slice) -> None:
        with np.errstate(invalid="ignore"):
            task(s)

    pool = _POOLS.get(workers)
    if pool is None:
        # setdefault is atomic: a pool that loses a race is never submitted
        # to, so it never starts a thread
        pool = _POOLS.setdefault(
            workers, ThreadPoolExecutor(workers - 1, thread_name_prefix="dipolariton-fft")
        )
    futures = [pool.submit(quiet, s) for s in slabs[1:]]
    try:
        quiet(slabs[0])
    finally:
        wait(futures)
    for future in futures:
        future.result()


def _axis0(a: np.ndarray, transform, workers: int) -> None:
    """transform a in place along axis 0, in axis-1 slabs."""
    in_slabs(lambda s: transform(a[:, s], axis=0, out=a[:, s]), a.shape[1], workers)


def _c2c(a, workers, out, transform_nd, transform) -> np.ndarray:
    if out is None:
        out = np.empty(a.shape, dtype=complex)
    in_slabs(lambda s: transform_nd(a[s], axes=(1, 2), out=out[s]), a.shape[0], workers)
    _axis0(out, transform, workers)
    return out


def fftn(a: np.ndarray, workers: int = 1, out: np.ndarray | None = None) -> np.ndarray:
    """Forward 3-D DFT of a into out (a new complex array if None; may be a itself)."""
    return _c2c(a, workers, out, np.fft.fftn, np.fft.fft)


def ifftn(a: np.ndarray, workers: int = 1, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse 3-D DFT of a, normalised by 1/a.size, into out as for fftn."""
    return _c2c(a, workers, out, np.fft.ifftn, np.fft.ifft)


def _padded_planes(task, spec: np.ndarray, workers: int) -> None:
    """task(c) for chunks c of at most _PADDED_CHUNK_BYTES of each axis-0 slab of spec."""
    step = max(1, _PADDED_CHUNK_BYTES // spec[0].nbytes)

    def run(s: slice) -> None:
        lo, hi, _ = s.indices(spec.shape[0])
        for c in range(lo, hi, step):
            task(slice(c, min(c + step, hi)))

    in_slabs(run, spec.shape[0], workers)


def rfftn(a: np.ndarray, workers: int = 1, out: np.ndarray | None = None) -> np.ndarray:
    """Half spectrum, shape (nx, ny, nz // 2 + 1), of the real 3-D array a, into out.

    a may be out's padded real view out.view(float)[:, :, :nz], which makes
    the transform in place.
    """
    nx, ny, nz = a.shape
    out = np.empty((nx, ny, nz // 2 + 1), dtype=complex) if out is None else out

    def planes(s: slice) -> None:
        np.fft.rfft(a[s], axis=2, out=out[s])
        np.fft.fft(out[s], axis=1, out=out[s])

    _padded_planes(planes, out, workers)
    _axis0(out, np.fft.fft, workers)
    return out


def irfftn(spec: np.ndarray, n: int, workers: int = 1, out: np.ndarray | None = None) -> np.ndarray:
    """Real 3-D array of last-axis length n from its half spectrum, into out; overwrites spec.

    out may be spec's padded real view spec.view(float)[:, :, :n], which
    makes the transform in place.
    """
    nx, ny, _ = spec.shape
    out = np.empty((nx, ny, n)) if out is None else out
    _axis0(spec, np.fft.ifft, workers)

    def planes(s: slice) -> None:
        np.fft.ifft(spec[s], axis=1, out=spec[s])
        np.fft.irfft(spec[s], n=n, axis=2, out=out[s])

    _padded_planes(planes, spec, workers)
    return out
