"""Compare the outputs of two commits of the package, file by file.

    python tools/parity.py BASE [HEAD]

Both commits (HEAD by default) are exported with `git archive`, so only
committed files take part. Each tree runs, at --threads 1 and 2:

    the 7 shipped configs, each through its command;
    the shipped evolve and respond configs once more with --complex-mass;
    selftest;
    the shipped kernel config once more with kernel.orientation = 0 0.6 0.8,
    since no shipped config points its dipoles off the z axis;
    the evolve-128 benchmark config at seed 3, rendered by the tree's own
    bench/workloads.py, which is read and never changed.

The 6 demos take no thread count and run once per tree. Every run's stdout,
with the paths of its tree and its output directory replaced, is kept as a
file `stdout` beside its outputs; a run that writes to stderr or exits
non-zero has that appended. Then each file of BASE is compared with the same
file of HEAD, and the report says per file one of:

    identical;
    per column of a CSV, per number of a text line, or per binary payload,
    the largest difference relative to that column's largest |value|, with
    the row where it is largest;
    the lines added or dropped.

Last, it says whether HEAD's outputs are identical between --threads 1 and
2. The exit status is 0 when everything is identical, 1 otherwise, and 2
when a commit cannot be exported.
"""

from __future__ import annotations

import argparse
import difflib
import io
import math
import os
import re
import shutil
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
# (config file stem, command)
SHIPPED = (("derive", "derive"), ("kernel", "kernel"), ("dispersion", "dispersion"),
           ("stability", "stability-map"), ("evolve", "evolve"), ("respond", "respond"),
           ("validate", "validate"))
# the shipped configs that also run with --complex-mass
COMPLEX_MASS = ("evolve", "respond")
THREADS = (1, 2)
EVOLVE_128_SEED = 3
# the dipole axis of the off-axis kernel run
OFF_AXIS = "0 0.6 0.8"
# binary outputs: a text header line whose first word names the payload's dtype
PAYLOADS = {"dipolariton-field": "<c16", "dipolariton-kernel": "<f8"}
# most added or dropped lines shown per block
SHOWN_LINES = 5
# runs at once, one per vCPU of a 2-vCPU host
JOBS = 2

_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf)(?!\w)")


# ------------------------------------------------------------------ compare

def _text_lines(text: str, csv: bool) -> list[tuple]:
    """(key, numbers, labels, name, line) per line of text.

    key is what lines are aligned on: the line with its numbers taken out.
    labels name each number's column; name names the row in a report. In a
    CSV the first line that is not a '#' comment is the header, and each row
    splits on commas, so its numbers are labelled by the header.
    """
    out, header, rows = [], None, 0
    for line in text.splitlines():
        if csv and not line.startswith("#"):
            cells = line.split(",")
            if header is None:
                header = cells
                out.append((("header", line), [], [], line, line))
                continue
            numeric = [bool(_NUMBER.fullmatch(c)) for c in cells]
            key = ("row", tuple(None if n else c for c, n in zip(cells, numeric)))
            labels = [f"column {header[j] if j < len(header) else j}"
                      for j, n in enumerate(numeric) if n]
            rows += 1
            name = cells[0] if not numeric[0] else f"row {rows}"
            out.append((key, [c for c, n in zip(cells, numeric) if n], labels, name, line))
            continue
        skeleton = _NUMBER.sub("{}", line)
        numbers = _NUMBER.findall(line)
        labels = [f"'{skeleton}' number {k + 1}" if len(numbers) > 1 else f"'{skeleton}'"
                  for k in range(len(numbers))]
        out.append((("text", skeleton), numbers, labels, line, line))
    return out


def _difference(old: str, new: str) -> float:
    a, b = float(old), float(new)
    return abs(a - b) if math.isfinite(a) and math.isfinite(b) else math.inf


def _relative(diff: float, scale: float) -> str:
    if scale > 0 and math.isfinite(scale):
        return f"{diff / scale:.3g} of max |value|"
    return f"{diff:.3g} absolute"


def _shown(sign: str, lines: list[str]) -> list[str]:
    shown = [f"{sign} {line}" for line in lines[:SHOWN_LINES]]
    if len(lines) > SHOWN_LINES:
        shown.append(f"{sign} ... and {len(lines) - SHOWN_LINES} more lines "
                     f"{'added' if sign == '+' else 'dropped'}")
    return shown


def compare_text(old: str, new: str, csv: bool = False) -> list[str]:
    """What differs between two texts; [] when they are equal.

    Lines are aligned on their text with the numbers taken out. Aligned
    lines whose numbers differ count towards their column; the rest are
    reported as added or dropped lines.
    """
    if old == new:
        return []
    a, b = _text_lines(old, csv), _text_lines(new, csv)
    matcher = difflib.SequenceMatcher(None, [line[0] for line in a], [line[0] for line in b],
                                      autojunk=False)
    scale: dict[str, float] = {}
    worst: dict[str, tuple] = {}
    count: dict[str, list[int]] = {}
    report = []
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag != "equal":
            report += _shown("-", [line[4] for line in a[i1:i2]])
            report += _shown("+", [line[4] for line in b[j1:j2]])
            continue
        for (_, xs, labels, name, _), (_, ys, *_) in zip(a[i1:i2], b[j1:j2]):
            for label, x, y in zip(labels, xs, ys):
                value = abs(float(x))
                scale[label] = max(scale.get(label, 0.0), value if math.isfinite(value) else math.inf)
                tally = count.setdefault(label, [0, 0])
                tally[1] += 1
                if x == y:
                    continue
                tally[0] += 1
                diff = _difference(x, y)
                if label not in worst or diff > worst[label][0]:
                    worst[label] = (diff, name, x, y)
    for label, (diff, name, x, y) in worst.items():
        differ, total = count[label]
        where = "" if label.startswith("'") else f" at {name}"
        report.append(f"{label}: largest difference {_relative(diff, scale[label])}{where}, "
                      f"{x} -> {y} ({differ} of {total} values differ)")
    return report


def compare_binary(old: bytes, new: bytes) -> list[str]:
    """What differs between two binary outputs: a text header line, then the payload."""
    if old == new:
        return []
    (head_a, _, body_a), (head_b, _, body_b) = old.partition(b"\n"), new.partition(b"\n")
    head_a, head_b = head_a.decode(errors="replace"), head_b.decode(errors="replace")
    report = compare_text(head_a, head_b)
    if body_a == body_b:
        return report
    magic = (head_a.split() or [""])[0]
    dtype = next((dt for prefix, dt in PAYLOADS.items() if magic.startswith(prefix)), None)
    if len(body_a) != len(body_b):
        return report + [f"payload: {len(body_a)} bytes -> {len(body_b)} bytes"]
    if dtype is None or len(body_a) % np.dtype(dtype).itemsize:
        return report + ["payload differs"]
    x, y = np.frombuffer(body_a, dtype=dtype), np.frombuffer(body_b, dtype=dtype)
    with np.errstate(invalid="ignore"):
        diff = np.abs(x - y)
    differ = int(np.count_nonzero(x != y))
    largest = float(np.max(diff)) if np.all(np.isfinite(diff)) else math.inf
    return report + [f"payload: largest difference {_relative(largest, float(np.max(np.abs(x))))} "
                     f"({differ} of {x.size} values differ)"]


def compare_file(name: str, old: bytes, new: bytes) -> list[str]:
    """What differs between two versions of the output file name; [] when identical."""
    if old == new:
        return []
    try:
        texts = old.decode(), new.decode()
    except UnicodeDecodeError:
        return compare_binary(old, new)
    if "\0" in texts[0] + texts[1]:
        return compare_binary(old, new)
    return compare_text(*texts, csv=name.endswith(".csv"))


def compare_dirs(old: Path, new: Path) -> dict[str, list[str]]:
    """compare_file for every file under either directory, by path relative to it."""
    names = sorted({str(p.relative_to(root)) for root in (old, new) if root.is_dir()
                    for p in root.rglob("*") if p.is_file()})
    report = {}
    for name in names:
        a, b = old / name, new / name
        if not b.is_file():
            report[name] = ["dropped"]
        elif not a.is_file():
            report[name] = ["added"]
        else:
            report[name] = compare_file(name, a.read_bytes(), b.read_bytes())
    return report


def print_report(title: str, report: dict[str, list[str]]) -> bool:
    """Print one comparison; True when every file is identical."""
    same = sum(not lines for lines in report.values())
    print(f"{title}: {same} of {len(report)} files identical")
    for name, lines in report.items():
        print(f"  {name}:" + ("" if lines else " identical"))
        for line in lines:
            print(f"    {line}")
    return same == len(report)


# ---------------------------------------------------------------------- run

def stdout_record(stdout: str, stderr: str, returncode: int, paths: dict[str, str]) -> str:
    """stdout, then any stderr lines and a non-zero exit status, each path in paths replaced by
    its placeholder."""
    text = stdout + "".join(f"stderr: {line}\n" for line in stderr.splitlines())
    if returncode:
        text += f"exit {returncode}\n"
    for path, placeholder in paths.items():
        text = text.replace(path, placeholder)
    return text


def _run(argv: list[str], tree: Path, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env,
                          cwd=out)
    paths = {str(out): "<out>", str(tree): "<tree>"}
    (out / "stdout").write_text(stdout_record(proc.stdout, proc.stderr, proc.returncode, paths))


def _evolve_128(tree: Path) -> str | None:
    """Config text of the tree's evolve-128 workload at EVOLVE_128_SEED, None if it has none."""
    if not (tree / "bench" / "workloads.py").is_file():
        return None
    render = ("import sys, workloads; "
              f"sys.stdout.write(workloads.evolve_128({EVOLVE_128_SEED}).commands[0].config)")
    return subprocess.run([sys.executable, "-c", render], cwd=tree / "bench", capture_output=True,
                          text=True, check=True).stdout


def _kernel_off_axis(tree: Path) -> str | None:
    """The tree's kernel config text with its dipoles along OFF_AXIS; None if it has none."""
    path = tree / "configs" / "kernel.cfg"
    if not path.is_file():
        return None
    line = f"kernel.orientation = {OFF_AXIS}"
    text, n = re.subn(r"^kernel\.orientation\s*=.*$", line, path.read_text(), flags=re.M)
    return text if n else f"{text}\n{line}\n"


def runs(tree: Path, out: Path) -> list[tuple[list[str], Path]]:
    """(argv after the interpreter, output directory) of every run of tree, into out, where the
    off-axis kernel and evolve-128 configs are written."""
    todo = []
    cfgs = [(stem, command, tree / "configs" / f"{stem}.cfg", []) for stem, command in SHIPPED]
    cfgs += [(f"{stem}-complex-mass", stem, tree / "configs" / f"{stem}.cfg", ["--complex-mass"])
             for stem in COMPLEX_MASS]
    for name, command, text in (("kernel-off-axis", "kernel", _kernel_off_axis(tree)),
                                ("evolve-128", "evolve", _evolve_128(tree))):
        if text is not None:
            cfgs.append((name, command, out / f"{name}.cfg", []))
            out.mkdir(parents=True, exist_ok=True)
            (out / f"{name}.cfg").write_text(text)
    for threads in THREADS:
        base = out / f"threads-{threads}"
        for name, command, cfg, options in [*cfgs, ("selftest", "selftest", None, [])]:
            argv = ["-m", "dipolariton.cli", command, "--out", str(base / name),
                    "--threads", str(threads), *options]
            todo.append((argv + (["--config", str(cfg)] if cfg else []), base / name))
    for demo in sorted((tree / "demos").glob("*.py")):
        todo.append(([str(demo)], out / "demos" / demo.stem))
    return todo


def export(rev: str, dest: Path) -> str:
    """Extract commit rev of the repository into dest; returns its short hash."""
    sha = subprocess.run(["git", "-C", str(REPO), "rev-parse", "--short", f"{rev}^{{commit}}"],
                         capture_output=True, text=True, check=True).stdout.strip()
    data = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", sha],
                          capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")
    return sha


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("head", nargs="?", default="HEAD")
    args = parser.parse_args(argv)
    work = Path(tempfile.mkdtemp(prefix="parity-"))
    try:
        trees = {}
        for side, rev in (("base", args.base), ("head", args.head)):
            try:
                trees[side] = (work / side, export(rev, work / side / "tree"))
            except subprocess.CalledProcessError as exc:
                print(f"cannot export {rev}: {os.fsdecode(exc.stderr).strip()}", file=sys.stderr)
                return 2
        todo = [(argv, root / "tree", out) for root, _ in trees.values()
                for argv, out in runs(root / "tree", root / "out")]
        with ThreadPoolExecutor(JOBS) as pool:
            list(pool.map(lambda job: _run(*job), todo))

        (base, base_sha), (head, head_sha) = trees["base"], trees["head"]
        print(f"parity {args.base} ({base_sha}) -> {args.head} ({head_sha})")
        same = True
        for group in [f"threads-{t}" for t in THREADS] + ["demos"]:
            same &= print_report(group, compare_dirs(base / "out" / group, head / "out" / group))
        first, second = (head / "out" / f"threads-{t}" for t in THREADS)
        same &= print_report(f"{args.head} threads-{THREADS[0]} -> threads-{THREADS[1]}",
                             compare_dirs(first, second))
        print("every file identical" if same else "outputs differ")
        return 0 if same else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
