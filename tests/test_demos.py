"""Smoke test: every script in demos/ runs to completion without a word on stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_cleanly(script, tmp_path):
    # a fresh process on the source tree, run from a scratch directory
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=300,
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
