"""Run one dipolariton command with a span around every public function.

    python bench/traced_cli.py SUMMARY.json <command> [cli options...]

The package must be importable (PYTHONPATH=src). After `import
dipolariton.cli` is timed, every public function of the modules in MODULES,
the scipy.fft transforms and scipy.optimize.curve_fit are wrapped on every
namespace that holds them, so calls through `from x import f` names are
caught as well. The command then runs through `cli.main`; its spans are
summarized into SUMMARY.json and the command's exit code is returned.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import os
import sys
import time

from spans import Tracer, summarize

MODULES = ("config", "eit", "kernel", "gpe", "bogoliubov", "fileio", "fields", "cli")
# (name, real-input or real-output transform, default number of axes; None = all)
FFTS = (
    ("fft", False, 1), ("ifft", False, 1), ("fft2", False, 2), ("ifft2", False, 2),
    ("fftn", False, None), ("ifftn", False, None),
    ("rfft", True, 1), ("irfft", True, 1), ("rfft2", True, 2), ("irfft2", True, 2),
    ("rfftn", True, None), ("irfftn", True, None),
)


def _arg(args, kwargs, pos: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def fft_attrs(name: str, real: bool, n_axes):
    """Points and computed flops of one transform call.

    Points are the samples of the real-space array (the input, or the output
    of an inverse real transform). Flops are 5 N log2 N per complex transform
    of length N, and half that for real-input or real-output transforms.
    """
    inverse_real = real and name.startswith("i")
    factor = 2.5 if real else 5.0

    def attrs(args, kwargs, result):
        space = result if inverse_real else args[0]
        shape = space.shape if hasattr(space, "shape") else (len(space),)
        if n_axes == 1:
            axes = (_arg(args, kwargs, 2, "axis", -1),)
        else:
            axes = _arg(args, kwargs, 2, "axes", None)
            if axes is None:
                axes = range(-(n_axes or len(shape)), 0)
        length = math.prod(shape[a] for a in axes)
        points = math.prod(shape)
        return {"points": points, "flops": factor * points * math.log2(length) if length > 1 else 0.0}

    return attrs


def _modes_of_dispersion(args, kwargs, result):
    return {"modes": _size(_arg(args, kwargs, 0, "q")) // 3}


def _modes_of_map(args, kwargs, result):
    dirs = _arg(args, kwargs, 1, "directions")
    mags = _arg(args, kwargs, 2, "magnitudes")
    return {"modes": (_size(dirs) // 3) * _size(mags)}


def _size(x) -> int:
    """Element count of an array or a (nested) sequence of numbers."""
    if hasattr(x, "size"):
        return x.size
    if isinstance(x, (list, tuple)):
        return sum(_size(v) for v in x)
    return 1


def _written_path(args, kwargs, result):
    return {"path": os.fspath(_arg(args, kwargs, 0, "path"))}


ATTRS = {
    "bogoliubov.dispersion": _modes_of_dispersion,
    "bogoliubov.stability_map": _modes_of_map,
    "fileio.write_table": _written_path,
    "fileio.write_text": _written_path,
    "fileio.write_field": _written_path,
    "fileio.write_kernel_table": _written_path,
}


def install(tracer: Tracer):
    """Wrap the targets on every namespace that holds them; returns an undo function."""
    import scipy.fft
    import scipy.optimize

    wrappers = {}
    for short in MODULES:
        mod = importlib.import_module(f"dipolariton.{short}")
        for name, obj in vars(mod).items():
            if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                span = f"{short}.{name}"
                wrappers[id(obj)] = (obj, tracer.wrap(span, obj, ATTRS.get(span)))
    for name, real, n_axes in FFTS:
        fn = getattr(scipy.fft, name)
        wrappers[id(fn)] = (fn, tracer.wrap(f"fft.{name}", fn, fft_attrs(name, real, n_axes)))
    fit = scipy.optimize.curve_fit
    wrappers[id(fit)] = (fit, tracer.wrap("optimize.curve_fit", fit))

    namespaces = [m for n, m in list(sys.modules.items())
                  if m is not None and (n == "dipolariton" or n.startswith("dipolariton."))]
    namespaces += [scipy.fft, scipy.optimize]
    undo = []
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(ns, attr, hit[1])
                undo.append((ns, attr, value))

    def restore():
        for ns, attr, value in undo:
            setattr(ns, attr, value)

    return restore


def resolve_paths(spans) -> None:
    """Replace the recorded output path of each write span by bytes (and rows)."""
    for span in spans:
        attrs = span[4]
        if not attrs or "path" not in attrs:
            continue
        path = attrs.pop("path")
        try:
            attrs["bytes"] = os.path.getsize(path)
            if span[0] == "fileio.write_table":
                with open(path, "rb") as fh:
                    data = fh.read()
                comments = data.count(b"\n#") + data.startswith(b"#")
                attrs["rows"] = data.count(b"\n") - comments - 1
        except OSError:
            continue


def main(argv) -> int:
    summary_path, cli_argv = argv[0], argv[1:]
    t0 = time.perf_counter()
    import dipolariton.cli as cli
    import_s = time.perf_counter() - t0

    tracer = Tracer()
    install(tracer)
    try:
        rc = cli.main(cli_argv)
    finally:
        resolve_paths(tracer.spans)
        summary = summarize(tracer.spans)
        summary.update(import_s=import_s, attr_errors=tracer.attr_errors,
                       module_file=sys.modules["dipolariton"].__file__)
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
