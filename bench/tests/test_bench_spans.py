"""Span recording, self-time arithmetic and the per-layer figures."""

import json
from pathlib import Path

import numpy as np
import pytest

import run
import spans
from spans import Tracer, covered, layer_metrics, merge, outermost_sum, percentile, self_times
from traced_cli import fft_attrs, install

ROOT = Path(__file__).resolve().parents[2]


def span(name, start, end, parent=-1, attrs=None):
    return [name, start, end, parent, attrs]


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered(0.0, 10.0, [(-1.0, 2.0), (1.0, 3.0), (8.0, 12.0)]) == pytest.approx(5.0)
    assert covered(0.0, 10.0, []) == 0.0


def test_self_time_subtracts_direct_children_only():
    s = [
        span("a", 0.0, 10.0),
        span("b", 1.0, 4.0, 0),
        span("c", 2.0, 3.0, 1),  # grandchild of a: already inside b
        span("d", 5.0, 6.0, 0),
    ]
    assert self_times(s) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_tracer_nests_spans_and_closes_them_on_error():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def inner(x):
        now[0] += 1.0
        if x < 0:
            raise ValueError(x)
        return x

    wrapped_inner = tracer.wrap("m.inner", inner)

    def outer(x):
        now[0] += 2.0
        return wrapped_inner(x) + wrapped_inner(x)

    wrapped_outer = tracer.wrap("m.outer", outer)
    assert wrapped_outer(3) == 6
    with pytest.raises(ValueError):
        wrapped_outer(-1)
    assert [(n, p) for n, _, _, p, _ in tracer.spans] == [
        ("m.outer", -1), ("m.inner", 0), ("m.inner", 0), ("m.outer", -1), ("m.inner", 3)]
    assert self_times(tracer.spans) == pytest.approx([2.0, 1.0, 1.0, 2.0, 1.0])
    assert wrapped_outer.__wrapped__ is outer


def test_attribute_errors_are_counted_not_raised():
    tracer = Tracer()
    wrapped = tracer.wrap("m.f", lambda: 1, attrs=lambda a, k, r: {"n": 1 / 0})
    assert wrapped() == 1
    assert tracer.attr_errors == 1 and tracer.spans[0][4] is None


def test_outermost_sum_counts_each_nested_family_once():
    s = [
        span("bogoliubov.stability_map", 0, 10, -1, {"modes": 6}),
        span("bogoliubov.dispersion", 1, 2, 0, {"modes": 1}),
        span("bogoliubov.dispersion", 3, 4, 0, {"modes": 1}),
        span("bogoliubov.dispersion", 11, 12, -1, {"modes": 1}),
    ]
    assert outermost_sum(s, "modes") == 7
    assert outermost_sum(s, "bytes") == 0


def test_step_ffts_exclude_observables_and_work_outside_the_loop():
    s = [
        span("fft.fftn", 0, 1),                      # table build, outside the loop
        span("gpe.evolve", 1, 20),
        span("gpe.observables", 2, 3, 1),
        span("fft.fftn", 2, 3, 2),                   # observables: not step work
        span("gpe.step", 4, 8, 1),
        span("fft.fftn", 5, 6, 4),
        span("kernel.convolve_density", 6, 7, 4),
        span("fft.ifftn", 6, 7, 6),
        span("fft.fftn", 9, 10, 1),                  # per-step readout in the loop
    ]
    summary = spans.summarize(s)
    assert summary["sums"]["gpe.step_fft_calls"] == 3
    m = layer_metrics(summary, import_s=0.5, cpu_s=1.0, overhead_frac=0.1)
    assert m["gpe.steps"] == 1 and m["gpe.fft_per_step"] == 3
    assert m["fft.calls"] == 5 and m["kernel.convolve_calls"] == 1
    assert m["gpe.step_self_s"] == pytest.approx(2.0)


def test_percentile_interpolates_between_order_statistics():
    assert percentile([4.0, 1.0, 3.0, 2.0], 50) == pytest.approx(2.5)
    values = [float(v) for v in range(10)]
    assert percentile(values, 99) == pytest.approx(np.percentile(values, 99))
    assert percentile([], 50) == 0.0


def test_merge_adds_counts_and_pools_samples():
    a = spans.summarize([span("gpe.step", 0, 1), span("gpe.step", 1, 3)])
    b = spans.summarize([span("gpe.step", 0, 3), span("cli.main", 0, 5)])
    m = merge([a, b])
    assert m["names"]["gpe.step"][:2] == [3, pytest.approx(6.0)]
    assert sorted(m["samples"]["gpe.step"]) == pytest.approx([1.0, 2.0, 3.0])
    metrics = layer_metrics(m, import_s=0.0, cpu_s=0.0, overhead_frac=0.0)
    assert metrics["gpe.step_p50_s"] == pytest.approx(2.0)


def test_unfired_spans_are_reported_missing_with_zero_counts():
    summary = spans.summarize([span("cli.main", 0, 1)])
    gone = spans.missing(summary)
    assert "gpe.step" in gone and "fft.*" in gone and "cli.main" not in gone
    m = layer_metrics(summary, import_s=0.0, cpu_s=0.0, overhead_frac=0.0)
    assert m["gpe.steps"] == 0 and m["gpe.fft_per_step"] == 0.0 and m["cli.self_s"] == 1


@pytest.mark.parametrize("name, real, axes, shape, kwargs, points, flops", [
    ("fftn", False, None, (4, 4, 4), {}, 64, 5.0 * 64 * 6),
    ("fft", False, 1, (4, 8), {"axis": -1}, 32, 5.0 * 32 * 3),
    ("fftn", False, None, (4, 8), {"axes": (0,)}, 32, 5.0 * 32 * 2),
    ("rfftn", True, None, (4, 4, 4), {}, 64, 2.5 * 64 * 6),
])
def test_fft_points_and_computed_flops(name, real, axes, shape, kwargs, points, flops):
    got = fft_attrs(name, real, axes)((np.zeros(shape),), kwargs, None)
    assert got == {"points": points, "flops": pytest.approx(flops)}


def test_inverse_real_transform_counts_its_real_output():
    got = fft_attrs("irfftn", True, None)((np.zeros((4, 4, 3)),), {}, np.zeros((4, 4, 4)))
    assert got["points"] == 64


def test_install_wraps_every_namespace_and_restores():
    import scipy.fft
    import dipolariton.cli as cli
    from dipolariton import GridSpec, KernelSpec, bogoliubov, gpe, kernel, kernel_table_fourier

    original_fftn = scipy.fft.fftn
    original_map = bogoliubov.stability_map
    table = kernel_table_fourier(GridSpec(dims=(8, 8, 8), spacings=(1.0, 1.0, 1.0)),
                                 KernelSpec(orientation=(0.0, 0.0, 1.0), strength=1.0))
    tracer = Tracer()
    restore = install(tracer)
    try:
        assert cli.stability_map is bogoliubov.stability_map
        assert cli.stability_map.__wrapped__ is original_map
        assert gpe.convolve_density is kernel.convolve_density
        assert scipy.fft.fftn.__wrapped__ is original_fftn
        gpe.convolve_density(table, np.ones((8, 8, 8)))
    finally:
        restore()
    assert scipy.fft.fftn is original_fftn and cli.stability_map is original_map
    assert [(n, p) for n, _, _, p, _ in tracer.spans] == [
        ("kernel.convolve_density", -1), ("fft.fftn", 0), ("fft.ifftn", 0)]


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == spans.PER_LAYER
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert tuple(w["name"] for w in spec["workloads"]) == run.workloads.NAMES
