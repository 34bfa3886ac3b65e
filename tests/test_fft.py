"""Chunked numpy.fft sweeps, checked against scipy.fft as an independent oracle."""

import re
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.fft

from dipolariton import (GpeParams, GridSpec, KernelSpec, NonFiniteStateError, evolve, init_state,
                         kernel_table_fourier)
from dipolariton import _fft
from conftest import make_params, random_complex

SHAPES = [(16, 12, 10), (9, 7, 10), (5, 3, 4)]


def rel_err(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def sweep_fftn(a, workers, inverse=False, out=None):
    """The Strang step's c2c pair as sweeps in place on out (a copy of a if None): (y, z) per
    chunk of x planes, x per chunk of y slabs."""
    out = a.copy() if out is None else out
    planes, line = (np.fft.ifftn, np.fft.ifft) if inverse else (np.fft.fftn, np.fft.fft)

    def yz(w, s):
        planes(out[s], axes=(1, 2), out=out[s])

    def x(block, s):
        line(block, axis=0, out=block)
        out[:, s] = block

    unit = out[0].nbytes
    if inverse:
        _fft.x_lines(out, x, workers)
        _fft.sweep(yz, out.shape[0], unit, workers)
    else:
        _fft.sweep(yz, out.shape[0], unit, workers)
        _fft.x_lines(out, x, workers)
    return out


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_complex_pair_matches_scipy(shape, workers):
    # the Strang step's c2c pair, as plane and slab sweeps
    a = random_complex(shape, 1)
    forward = sweep_fftn(a, workers)
    inverse = sweep_fftn(a, workers, inverse=True)
    assert rel_err(forward, scipy.fft.fftn(a)) <= 1e-15
    assert rel_err(inverse, scipy.fft.ifftn(a)) <= 1e-15
    # numpy's own axis order going forward, so numpy's own bits
    assert np.array_equal(forward, np.fft.fftn(a))


@pytest.mark.parametrize("shape", [*SHAPES, (64, 40, 48)], ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_slab_sweep_transforms_x_lines_in_cache(shape, workers):
    # 64 x 40 x 48 is 1.9 MiB in 2 chunks of y slabs, so two workers run it
    a = random_complex(shape, 2)
    a.flags.writeable = False
    factor = random_complex(shape, 3)
    out = np.full(shape, np.nan, dtype=complex)
    seen = []

    def task(block, s):
        assert block.flags.c_contiguous and block.shape == (shape[0], s.stop - s.start, shape[2])
        np.fft.fft(block, axis=0, out=block)
        block *= factor[:, s]
        np.fft.ifft(block, axis=0, out=block)
        out[:, s] = block
        seen.append(s)

    _fft.x_lines(a, task, workers)
    want = np.fft.ifft(np.fft.fft(a, axis=0) * factor, axis=0)
    assert np.array_equal(out, want)
    assert rel_err(out, scipy.fft.ifft(scipy.fft.fft(a, axis=0) * factor, axis=0)) <= 1e-15
    assert sorted(s.start for s in seen) == [s.start for s in _fft.chunks(shape[1], a[:, 0].nbytes)]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("workers", [1, 2])
def test_slab_sweep_of_non_finite_input_is_quiet(bad, workers):
    # numpy's FFT warns "invalid value encountered" on a non-finite line;
    # each thread of a sweep runs under errstate(invalid="ignore")
    a = np.ones((64, 40, 48), complex)
    a[3, 30, 5] = bad
    out = np.empty_like(a)

    def task(block, s):
        np.fft.fft(block, axis=0, out=block)
        block *= 0.0
        np.fft.ifft(block, axis=0, out=block)
        out[:, s] = block

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _fft.x_lines(a, task, workers)
    assert np.isnan(out[:, 30, 5]).all()
    assert np.array_equal(out[:, :30], np.zeros((64, 30, 48), complex))


@pytest.mark.parametrize("n, unit, workers", [(7, 1 << 18, 2), (130, 1 << 14, 3), (3, 1 << 22, 2)])
def test_sweep_chunks_by_bytes_whatever_the_worker_count(n, unit, workers):
    calls = []
    lock = threading.Lock()

    def task(w, c):
        with lock:
            calls.append((w, c))

    _fft.sweep(task, n, unit, workers)
    chunks = sorted((c.start, c.stop) for _, c in calls)
    assert chunks == [(c.start, c.stop) for c in _fft.chunks(n, unit)]
    # consecutive, covering range(n) once, about CHUNK_BYTES each, one unit at least
    assert chunks[0][0] == 0 and chunks[-1][1] == n
    assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
    assert all(hi - lo == max(1, _fft.CHUNK_BYTES // unit) for lo, hi in chunks[:-1])
    assert {w for w, _ in calls} <= set(range(workers))


def test_small_sweep_runs_on_the_calling_thread():
    threads = set()
    record = lambda w, c: threads.add((w, threading.get_ident()))
    # 8 chunks of one unit, under CHUNK_BYTES in all
    unit = _fft.CHUNK_BYTES // 8 - 1
    _fft.sweep(record, 8, unit, 2, chunk_bytes=unit)
    assert threads == {(0, threading.get_ident())}
    threads.clear()
    _fft.sweep(record, 8, unit + 1, 2, chunk_bytes=unit + 1)
    assert len(threads) == 2


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_real_pair_matches_scipy(shape, workers):
    rho = random_complex(shape, 2).real
    half = _fft.rfftn(rho, workers)
    assert half.shape == (*shape[:2], shape[2] // 2 + 1)
    assert rel_err(half, scipy.fft.rfftn(rho)) <= 1e-15
    assert np.array_equal(half, np.fft.rfftn(rho))
    spec = np.fft.ifft(scipy.fft.rfftn(rho), axis=0)
    back = _fft.irfft_planes(spec, shape[2], np.empty(shape), workers)
    assert rel_err(back, scipy.fft.irfftn(scipy.fft.rfftn(rho), s=shape)) <= 1e-15
    assert rel_err(back, rho) <= 1e-15


@pytest.mark.parametrize("shape", [*SHAPES, (64, 40, 48)], ids=lambda s: "x".join(map(str, s)))
def test_results_do_not_depend_on_worker_count(shape):
    a = random_complex(shape, 3)
    half = np.fft.rfftn(a.real)

    def transforms(workers):
        return (sweep_fftn(a, workers), sweep_fftn(a, workers, inverse=True),
                _fft.rfftn(a.real, workers),
                _fft.irfft_planes(half.copy(), shape[2], np.empty(shape), workers))

    one = transforms(1)
    for workers in (2, 3, 4):
        assert all(np.array_equal(g, o) for g, o in zip(transforms(workers), one)), workers


def test_in_place_transform_keeps_the_buffer():
    a = random_complex((8, 6, 10), 4)
    buf = a.copy()
    assert sweep_fftn(buf, 2, out=buf) is buf
    assert np.array_equal(buf, np.fft.fftn(a))
    assert sweep_fftn(buf, 2, inverse=True, out=buf) is buf
    assert rel_err(buf, a) <= 1e-15


def padded(rho):
    """A complex half-spectrum buffer whose real view [:, :, :nz] holds rho."""
    nx, ny, nz = rho.shape
    buf = np.full((nx, ny, nz // 2 + 1), np.nan, dtype=complex)
    buf.view(float)[:, :, :nz] = rho
    return buf


@pytest.mark.parametrize("shape", [*SHAPES, (6, 5, 7)], ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_padded_in_place_pair_equals_out_of_place(shape, workers):
    # the real array lives in the padded view of the spectrum it becomes;
    # the padding starts as NaN, so a pass that read it would show
    rho = random_complex(shape, 6).real
    nz = shape[2]
    buf = padded(rho)
    assert _fft.rfft_planes(buf.view(float)[:, :, :nz], buf, workers) is buf
    assert np.array_equal(buf, _fft.rfft_planes(rho, np.empty_like(buf), workers))
    spec = buf.copy()
    back = _fft.irfft_planes(buf, nz, buf.view(float)[:, :, :nz], workers)
    assert np.shares_memory(back, buf)
    assert np.array_equal(back, _fft.irfft_planes(spec, nz, np.empty(shape), workers))


@pytest.mark.parametrize("direction", ["r2c", "c2r"])
def test_padded_in_place_pass_copies_no_full_grid(direction):
    # numpy copies an input that out= overlaps; the padded passes keep that
    # copy to one chunk of planes, even at one worker
    rho = random_complex((64, 64, 64), 7).real
    buf = padded(rho)
    real = buf.view(float)[:, :, :64]
    if direction == "c2r":
        _fft.rfft_planes(real, buf, 1)
    tracemalloc.start()
    try:
        if direction == "r2c":
            _fft.rfft_planes(real, buf, 1)
        else:
            _fft.irfft_planes(buf, 64, real, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * rho.nbytes


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_transforms_without_warning(bad):
    a = np.ones((16, 16, 16), complex)
    a[3, 4, 5] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = sweep_fftn(a, 2)
        sweep_fftn(spec, 2, inverse=True)
        _fft.irfft_planes(_fft.rfftn(a.real, 2), 16, np.empty(a.shape), 2)
    assert not np.all(np.isfinite(spec))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_field_at_two_workers_is_reported_without_warning(bad):
    # the start state's one convolution reads the bad sample: refused at step 0
    p = make_params(GridSpec(dims=(16, 16, 16), spacings=(0.5, 0.5, 0.5)), 0.5)
    st = init_state("uniform", p, n0=1.0)
    st.phi[3, 4, 5] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteStateError, match=r"at step 0 \(t = 0\.000000e\+00\)"):
            evolve(st, 0.01, 0.1, workers=2)


def test_non_finite_field_on_two_threads_is_reported_without_warning():
    # 48^3 is 1.7 MiB of field, so its sweeps run on two threads, not one
    p = make_params(GridSpec(dims=(48, 48, 48), spacings=(0.5, 0.5, 0.5)), 0.5)
    st = init_state("uniform", p, n0=1.0)
    st.phi[30, 4, 5] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteStateError, match=r"at step 0 \(t = 0\.000000e\+00\)"):
            evolve(st, 0.01, 0.02, workers=2)


@pytest.mark.parametrize("n, step", [(16, 74), (48, 80)])
@pytest.mark.parametrize("workers", [1, 2])
def test_overflow_mid_run_is_reported_without_warning(n, step, workers):
    # Im(1/m_par) > 0 grows the kinetic factor until the field overflows in
    # the step sweeps; sin^2(theta) = 0 keeps the guard from tripping first.
    # 48^3 sweeps run on two threads at 2 workers
    grid = GridSpec(dims=(n, n, n), spacings=(0.5, 0.5, 0.5))
    table = kernel_table_fourier(grid, KernelSpec(orientation=(0.0, 0.0, 1.0), strength=0.1))
    p = GpeParams(m_perp=1.0, m_par=1.0 / (1.0 + 0.5j), sin2_theta=0.0, table=table, hbar=1.0)
    st = init_state("gaussian", p, widths=(1.0, 1.0, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteStateError, match=re.escape(f"at step {step} (t = {step * 0.5:.6e})")):
            evolve(st, 0.5, 50.0, workers=workers)
