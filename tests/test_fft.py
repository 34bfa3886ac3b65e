"""Slab-threaded numpy.fft transforms, checked against scipy.fft as an independent oracle."""

import warnings

import numpy as np
import pytest
import scipy.fft

from dipolariton import GridSpec, NonFiniteStateError, evolve, init_state
from dipolariton import _fft
from conftest import make_params, random_complex

SHAPES = [(16, 12, 10), (9, 7, 10), (5, 3, 4)]


def rel_err(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_complex_pair_matches_scipy(shape, workers):
    # at 4 workers the slab count is capped by axes of 3, 4, 5 and 7 planes
    a = random_complex(shape, 1)
    forward = _fft.fftn(a, workers)
    inverse = _fft.ifftn(a, workers)
    assert rel_err(forward, scipy.fft.fftn(a)) <= 1e-15
    assert rel_err(inverse, scipy.fft.ifftn(a)) <= 1e-15
    # numpy's own axis order, so numpy's own bits
    assert np.array_equal(forward, np.fft.fftn(a))
    assert np.array_equal(inverse, np.fft.ifftn(a))


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_real_pair_matches_scipy(shape, workers):
    rho = random_complex(shape, 2).real
    half = _fft.rfftn(rho, workers)
    assert half.shape == (*shape[:2], shape[2] // 2 + 1)
    assert rel_err(half, scipy.fft.rfftn(rho)) <= 1e-15
    assert np.array_equal(half, np.fft.rfftn(rho))
    back = _fft.irfftn(scipy.fft.rfftn(rho), shape[2], workers)
    assert rel_err(back, scipy.fft.irfftn(scipy.fft.rfftn(rho), s=shape)) <= 1e-15
    assert rel_err(back, rho) <= 1e-15


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_results_do_not_depend_on_worker_count(shape):
    a = random_complex(shape, 3)
    half = np.fft.rfftn(a.real)
    one = (_fft.fftn(a), _fft.ifftn(a), _fft.rfftn(a.real), _fft.irfftn(half.copy(), shape[2]))
    for workers in (2, 3, 4):
        got = (_fft.fftn(a, workers), _fft.ifftn(a, workers), _fft.rfftn(a.real, workers),
               _fft.irfftn(half.copy(), shape[2], workers))
        assert all(np.array_equal(g, o) for g, o in zip(got, one)), workers


def test_in_place_transform_keeps_the_buffer():
    a = random_complex((8, 6, 10), 4)
    buf = a.copy()
    assert _fft.fftn(buf, 2, out=buf) is buf
    assert np.array_equal(buf, np.fft.fftn(a))
    assert _fft.ifftn(buf, 2, out=buf) is buf
    assert rel_err(buf, a) <= 1e-15


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_transforms_without_warning(bad):
    a = np.ones((16, 16, 16), complex)
    a[3, 4, 5] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = _fft.fftn(a, 2)
        _fft.ifftn(spec, 2, out=spec)
        _fft.irfftn(_fft.rfftn(a.real, 2), 16, 2)
    assert not np.all(np.isfinite(spec))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_field_at_two_workers_is_reported_without_warning(bad):
    p = make_params(GridSpec(dims=(16, 16, 16), spacings=(0.5, 0.5, 0.5)), 0.5)
    st = init_state("uniform", p, n0=1.0)
    st.phi[3, 4, 5] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteStateError, match=r"after step 1 .* 4096 bad samples"):
            evolve(st, 0.01, 0.1, workers=2)
