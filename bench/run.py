"""dipolariton benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

Runs each command of a workload as a fresh `python -m dipolariton.cli`
subprocess with PYTHONPATH=src, repeating the workload until --seconds are
used up (at least once), and checks every output. With --trace 0 it reports
the end-to-end metrics, with --trace 1 the per-layer metrics of separate
traced runs. The last line of stdout is one JSON object; the lines before it
give every metric by name, unit and sample count, and the environment. See
bench/README.md for the metrics, the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
DEADLINE_S = 170.0  # every run must end within 180 s
MIN_SETUP_ROUNDS = 3  # set-up is short: average it over at least this many rounds

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "output_mb": "MB",
}


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Deadline(Exception):
    pass


class Runner:
    """Starts the child processes of one benchmark run and stops them in time."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def spawn(self, argv, log: Path) -> dict:
        """Run argv to completion; wall time from spawn, child rusage, output text."""
        timeout = self.deadline - now()
        if timeout <= 0:
            raise Deadline
        with open(log, "w+b") as fh:
            t0 = now()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=fh,
                                    stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                timer.join()
            wall = now() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            fh.seek(0)
            text = fh.read().decode(errors="replace")
        if wall >= timeout:
            raise Deadline
        return {
            "t0": t0,
            "rc": proc.returncode,
            "wall": wall,
            "rss_mb": usage.ru_maxrss * 1024 / 1e6,
            "cpu": usage.ru_utime + usage.ru_stime,
            "stdout": text,
        }


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def cli_argv(cmd: workloads.Command, cfg: Path | None, out: Path) -> list[str]:
    argv = list(cmd.argv)
    if cfg is not None:
        argv += ["--config", str(cfg)]
    return argv + ["--out", str(out)]


class WorkloadRun:
    """One workload at one seed: its configs, counters and samples."""

    def __init__(self, workload: workloads.Workload, runner: Runner, tmp: Path):
        self.wl = workload
        self.runner = runner
        self.tmp = tmp
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.module_files: set[str] = set()
        self.configs = []
        for i, cmd in enumerate(workload.commands):
            path = None
            if cmd.config is not None:
                path = tmp / f"{i}-{cmd.name}.cfg"
                path.write_text(cmd.config, encoding="utf-8")
            self.configs.append(path)

    def fail(self, what: str):
        self.failed += 1
        self.problems.append(what)

    def probe(self, i: int) -> float:
        """Set-up time of command i in a fresh process."""
        cmd, cfg = self.wl.commands[i], self.configs[i]
        argv = [sys.executable, str(BENCH / "setup_probe.py"), cmd.name]
        if cfg is not None:
            argv.append(str(cfg))
        self.attempted += 1
        res = self.runner.spawn(argv, self.tmp / "probe.log")
        try:
            line = json.loads(res["stdout"].strip().splitlines()[-1])
            self.module_files.add(line["module_file"])
            return line["ready"] - res["t0"]
        except (ValueError, IndexError, KeyError, TypeError):
            self.fail(f"set-up probe of {cmd.name} failed (exit {res['rc']}): "
                       f"{res['stdout'][-300:]}")
            return res["wall"]

    def setup_round(self) -> float:
        """Set-up time of the workload: one probe per command, summed."""
        return sum(self.probe(i) for i in range(len(self.wl.commands)))

    def command(self, i: int, traced: bool = False) -> dict:
        """Run command i once, check its output, and return its measurements."""
        cmd, cfg = self.wl.commands[i], self.configs[i]
        out = self.tmp / f"out-{i}"
        summary_path = self.tmp / "summary.json"
        if traced:
            argv = [sys.executable, str(BENCH / "traced_cli.py"), str(summary_path)]
        else:
            argv = [sys.executable, "-m", "dipolariton.cli"]
        summary_path.unlink(missing_ok=True)
        self.attempted += 1
        res = self.runner.spawn(argv + cli_argv(cmd, cfg, out), self.tmp / "cmd.log")
        res["out_bytes"] = dir_bytes(out) if out.exists() else 0
        kind = "traced " if traced else ""
        if res["rc"] != 0:
            self.fail(f"{kind}{cmd.name} exited {res['rc']}: {res['stdout'][-300:]}")
        else:
            bad = cmd.check(out, res["stdout"])
            if bad:
                self.fail(f"{kind}{cmd.name}: " + "; ".join(bad))
        if traced:
            try:
                res["summary"] = json.loads(summary_path.read_text(encoding="utf-8"))
                self.module_files.add(res["summary"]["module_file"])
            except (OSError, ValueError, KeyError):
                res["summary"] = None
                self.problems.append(f"traced {cmd.name} wrote no span summary")
        shutil.rmtree(out, ignore_errors=True)
        return res

    def iteration(self, trace: bool) -> dict:
        n = len(self.wl.commands)
        if not trace:
            runs = [self.command(i) for i in range(n)]
            return {
                "wall_s": sum(r["wall"] for r in runs),
                "peak_rss_mb": max(r["rss_mb"] for r in runs),
                "output_mb": sum(r["out_bytes"] for r in runs) / 1e6,
            }
        plain, traced = [], []
        for i in range(n):
            plain.append(self.command(i))
            traced.append(self.command(i, traced=True))
        summaries = [r["summary"] for r in traced if r["summary"] is not None]
        merged = spans.merge(summaries)
        metrics = spans.layer_metrics(
            merged,
            import_s=sum(s["import_s"] for s in summaries),
            cpu_s=sum(r["cpu"] for r in traced),
            overhead_frac=sum(r["wall"] for r in traced) / sum(r["wall"] for r in plain) - 1.0,
        )
        return {"metrics": metrics, "missing": spans.missing(merged),
                "names": merged["names"],
                "attr_errors": sum(s.get("attr_errors", 0) for s in summaries)}


# ---------------------------------------------------------------- environment

def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _git_sha() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _caches() -> dict:
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(Path(base).glob("index*")) if Path(base).exists() else ():
        level, kind, size = (_read(str(index / f)) for f in ("level", "type", "size"))
        if level and kind != "Instruction":
            out[f"L{level}"] = size
    return out


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return None


def environment(wl: workloads.Workload) -> dict:
    import scipy

    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "fft_workers": {cmd.name: cmd.threads for cmd in wl.commands},
        "loadavg_before": _read("/proc/loadavg"),
    }


# ---------------------------------------------------------------- one workload

def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    wl = workloads.build(name, seed, ROOT / "configs")
    env = environment(wl)
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    runner = Runner(deadline)
    run = WorkloadRun(wl, runner, tmp)
    samples, setups = [], []
    try:
        # users run byte-compiled modules; compile any that are stale, untimed
        compileall.compile_dir(SRC, quiet=1)
        end = now() + seconds
        reserve = 0.0
        if not trace:
            # one set-up round first; its length reserves time for the rest
            t_round = now()
            setups.append(run.setup_round())
            reserve = (MIN_SETUP_ROUNDS - 1) * (now() - t_round)
        while True:
            t_iter = now()
            samples.append(run.iteration(trace))
            if now() + (now() - t_iter) + reserve > end:
                break
        if not trace:
            # set-up rounds fill the rest of the run
            while True:
                t_round = now()
                setups.append(run.setup_round())
                if len(setups) >= MIN_SETUP_ROUNDS and now() + (now() - t_round) > end:
                    break
    except Deadline:
        run.fail("run stopped at the deadline")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    env["loadavg_after"] = _read("/proc/loadavg")
    src_root = str(SRC.resolve()) + os.sep
    stray = sorted(f for f in run.module_files if not os.path.realpath(f).startswith(src_root))
    if stray:
        run.fail(f"dipolariton was imported from outside {SRC}: {stray}")
    env["dipolariton_file"] = sorted(run.module_files)

    if trace:
        units = {k: spans.PER_LAYER[k][0] for k in spans.PER_LAYER}
        series = {k: [s["metrics"][k] for s in samples] for k in units}
        stat, stat_name = statistics.median, "median"
    else:
        units = END_TO_END
        series = {k: [s[k] for s in samples] for k in units if k != "setup_s"}
        series["setup_s"] = setups
        # The host alternates between a fast and a slow state every few
        # seconds, so command times are bimodal; over the few samples a run
        # holds, the median jumps between the modes and the mean does not.
        stat, stat_name = statistics.fmean, "mean"
    metrics = {
        key: {"value": stat(series[key]), "unit": unit, "n": len(series[key]), "stat": stat_name}
        for key, unit in units.items()
    } if samples else {}
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "why": wl.why, "params": wl.params, "env": env,
        "attempted": run.attempted, "failed": run.failed, "problems": run.problems,
        "metrics": metrics, "samples": samples, "setup_s": setups,
    }
    records = WORK / "records"
    records.mkdir(exist_ok=True)
    with open(records / f"{name}-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, default=str)
    return result


def report(result: dict) -> None:
    name = result["workload"]
    failed_frac = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"== {name} (seed {result['seed']}, trace {result['trace']}): {result['why']}")
    for key, value in result["env"].items():
        print(f"   env.{key}: {value}")
    for key, m in result["metrics"].items():
        print(f"   {key:<30} {m['value']:.6g} {m['unit']} ({m['stat']} of {m['n']})")
    print(f"   {'failed_frac':<30} {failed_frac:.6g} ratio "
          f"({result['failed']} of {result['attempted']} runs)")
    if result["trace"] and result["samples"]:
        last = result["samples"][-1]
        print(f"   missing spans: {', '.join(last['missing']) or 'none'}")
        if last["attr_errors"]:
            print(f"   attribute errors: {last['attr_errors']}")
    for problem in result["problems"]:
        print(f"   FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dipolariton" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    deadline = now() + DEADLINE_S * len(names)
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
        report(result)
        results.append(result)
    ok = all(r["metrics"] for r in results)
    if len(results) == 1:
        metrics = {k: {"value": m["value"], "unit": m["unit"]}
                   for k, m in results[0]["metrics"].items()}
    else:
        metrics = {f"{r['workload']}.{k}": {"value": m["value"], "unit": m["unit"]}
                   for r in results for k, m in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": ok and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
