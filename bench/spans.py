"""In-memory spans and the arithmetic that turns them into per-layer figures.

A span is a list [name, start, end, parent, attrs]: parent is the index of
the enclosing span (-1 at the top) and attrs a dict or None. A traced
command records one span per wrapped call, summarizes its spans with
`summarize`, and the benchmark merges the summaries of a workload's commands
with `merge` before `layer_metrics` names the per-layer figures.
"""

from __future__ import annotations

import functools
import math
import time

# Spans whose durations are kept for percentiles.
SAMPLED = ("gpe.step", "kernel.convolve_density")
# Spans that drive the time steps; FFTs under them (outside observables)
# are the per-step transforms.
STEP_DRIVERS = ("gpe.evolve", "gpe.linear_response_experiment")
NOT_STEP_WORK = ("gpe.observables",)
# Span each per-layer figure reads; a span that never fires is reported missing.
TRACKED = (
    "cli.main", "config.parse_config", "eit.derive_eit", "kernel.kernel_table_fourier",
    "kernel.convolve_density", "gpe.step", "gpe.observables", "optimize.curve_fit",
    "bogoliubov.stability_map", "bogoliubov.dispersion", "fileio.write_table",
    "fileio.write_field", "fields.simulate_linear_1d",
)

# Per-layer metrics: name -> (unit, better).
PER_LAYER = {
    "cli.import_s": ("s", "lower"),
    "config.parse_s": ("s", "lower"),
    "eit.derive_s": ("s", "lower"),
    "kernel.table_build_s": ("s", "lower"),
    "kernel.convolve_s": ("s", "lower"),
    "kernel.convolve_calls": ("count", "lower"),
    "fft.calls": ("count", "lower"),
    "fft.points": ("count", "lower"),
    "fft.s": ("s", "lower"),
    "fft.flops_computed": ("flop", "lower"),
    "gpe.fft_per_step": ("count", "lower"),
    "gpe.steps": ("count", "higher"),
    "gpe.step_p50_s": ("s", "lower"),
    "gpe.step_p99_s": ("s", "lower"),
    "gpe.step_self_s": ("s", "lower"),
    "gpe.observables_s": ("s", "lower"),
    "gpe.observables_calls": ("count", "lower"),
    "gpe.fit_s": ("s", "lower"),
    "bogoliubov.stability_map_s": ("s", "lower"),
    "bogoliubov.dispersion_calls": ("count", "lower"),
    "bogoliubov.modes": ("count", "higher"),
    "fileio.write_table_s": ("s", "lower"),
    "fileio.rows": ("count", "higher"),
    "fileio.bytes": ("B", "lower"),
    "fileio.write_field_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "fields.simulate_linear_1d_s": ("s", "lower"),
    "proc.cpu_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


class Tracer:
    """Records a span around every call of the functions it wraps."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.attr_errors = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn, attrs=None):
        """fn with a span named `name`; attrs(args, kwargs, result) -> dict."""
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attrs is not None:
                try:
                    span[4] = attrs(args, kwargs, result)
                except Exception:  # a changed signature must not fail the run
                    self.attr_errors += 1
            return result

        return functools.update_wrapper(traced, fn)


# ---------------------------------------------------------------- arithmetic

def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - covered(start, end, children.get(i, ()))
        for i, (name, start, end, parent, _) in enumerate(spans)
    ]


def _has_ancestor(spans, i: int, pred) -> bool:
    parent = spans[i][3]
    while parent >= 0:
        if pred(spans[parent]):
            return True
        parent = spans[parent][3]
    return False


def outermost_sum(spans, key: str) -> float:
    """Sum of attrs[key] over spans carrying it with no ancestor carrying it."""
    def carries(span):
        return span[4] is not None and key in span[4]
    return sum(s[4][key] for i, s in enumerate(spans)
               if carries(s) and not _has_ancestor(spans, i, carries))


def step_fft_calls(spans) -> int:
    """FFT calls made under a step driver but not under observables."""
    n = 0
    for i, span in enumerate(spans):
        if span[0].startswith("fft.") and \
                _has_ancestor(spans, i, lambda s: s[0] in STEP_DRIVERS) and \
                not _has_ancestor(spans, i, lambda s: s[0] in NOT_STEP_WORK):
            n += 1
    return n


def summarize(spans) -> dict:
    """Compact per-command summary: per-name totals, samples and sums."""
    selfs = self_times(spans)
    names: dict[str, list] = {}
    samples: dict[str, list[float]] = {name: [] for name in SAMPLED}
    points = flops = 0.0
    for (name, start, end, _, attrs), self_s in zip(spans, selfs):
        entry = names.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += self_s
        if name in samples:
            samples[name].append(end - start)
        if name.startswith("fft.") and attrs:
            points += attrs["points"]
            flops += attrs["flops"]
    return {
        "names": names,
        "samples": samples,
        "sums": {
            "fft.points": points,
            "fft.flops": flops,
            "fileio.bytes": outermost_sum(spans, "bytes"),
            "fileio.rows": outermost_sum(spans, "rows"),
            "bogoliubov.modes": outermost_sum(spans, "modes"),
            "gpe.step_fft_calls": step_fft_calls(spans),
        },
    }


def merge(summaries) -> dict:
    """One summary for several commands: counts and times add, samples pool."""
    out = {"names": {}, "samples": {name: [] for name in SAMPLED}, "sums": {}}
    for s in summaries:
        for name, (count, total, self_s) in s["names"].items():
            entry = out["names"].setdefault(name, [0, 0.0, 0.0])
            entry[0] += count
            entry[1] += total
            entry[2] += self_s
        for name, values in s["samples"].items():
            out["samples"].setdefault(name, []).extend(values)
        for key, value in s["sums"].items():
            out["sums"][key] = out["sums"].get(key, 0) + value
    return out


def percentile(values, q: float) -> float:
    """q-th percentile with linear interpolation between order statistics; 0 if empty."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def missing(summary) -> list[str]:
    """Tracked spans that never fired, plus 'fft.*' when no transform ran."""
    names = summary["names"]
    out = [name for name in TRACKED if names.get(name, (0,))[0] == 0]
    if not any(n.startswith("fft.") for n in names):
        out.append("fft.*")
    return out


def layer_metrics(summary, *, import_s: float, cpu_s: float, overhead_frac: float) -> dict:
    """Per-layer figures by name, in the units of PER_LAYER."""
    names, sums = summary["names"], summary["sums"]

    def count(name):
        return names.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return names.get(name, (0, 0.0, 0.0))[1]

    def self_of(name):
        return names.get(name, (0, 0.0, 0.0))[2]

    ffts = [v for n, v in names.items() if n.startswith("fft.")]
    steps = count("gpe.step")
    return {
        "cli.import_s": import_s,
        "config.parse_s": total("config.parse_config"),
        "eit.derive_s": total("eit.derive_eit"),
        "kernel.table_build_s": total("kernel.kernel_table_fourier"),
        "kernel.convolve_s": percentile(summary["samples"].get("kernel.convolve_density", []), 50),
        "kernel.convolve_calls": count("kernel.convolve_density"),
        "fft.calls": sum(v[0] for v in ffts),
        "fft.points": sums.get("fft.points", 0),
        "fft.s": sum(v[1] for v in ffts),
        "fft.flops_computed": sums.get("fft.flops", 0),
        "gpe.fft_per_step": sums.get("gpe.step_fft_calls", 0) / steps if steps else 0.0,
        "gpe.steps": steps,
        "gpe.step_p50_s": percentile(summary["samples"].get("gpe.step", []), 50),
        "gpe.step_p99_s": percentile(summary["samples"].get("gpe.step", []), 99),
        "gpe.step_self_s": self_of("gpe.step"),
        "gpe.observables_s": total("gpe.observables"),
        "gpe.observables_calls": count("gpe.observables"),
        "gpe.fit_s": total("optimize.curve_fit"),
        "bogoliubov.stability_map_s": total("bogoliubov.stability_map"),
        "bogoliubov.dispersion_calls": count("bogoliubov.dispersion"),
        "bogoliubov.modes": sums.get("bogoliubov.modes", 0),
        "fileio.write_table_s": total("fileio.write_table"),
        "fileio.rows": sums.get("fileio.rows", 0),
        "fileio.bytes": sums.get("fileio.bytes", 0),
        "fileio.write_field_s": total("fileio.write_field"),
        "cli.self_s": self_of("cli.main"),
        "fields.simulate_linear_1d_s": total("fields.simulate_linear_1d"),
        "proc.cpu_s": cpu_s,
        "trace.overhead_frac": overhead_frac,
    }
