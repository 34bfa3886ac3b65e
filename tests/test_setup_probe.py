"""The benchmark's set-up probe still runs against the package.

bench/setup_probe.py builds GpeParams and calls init_state by keyword, so a
change to either signature shows here instead of only in a benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("command", ["kernel", "evolve", "respond"])
def test_setup_probe_runs_on_the_shipped_config(command):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "setup_probe.py"), command,
         str(ROOT / "configs" / f"{command}.cfg")],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert set(report) == {"ready", "module_file"}
    assert Path(report["module_file"]).resolve().is_relative_to(ROOT / "src")
