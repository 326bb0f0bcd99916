"""Each demo script runs to completion against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SLOW = {"04_train_and_diagnose.py"}


@pytest.mark.parametrize("demo", [
    pytest.param(path, id=path.stem, marks=[pytest.mark.slow] if path.name in SLOW else [])
    for path in DEMOS
])
def test_demo_runs(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr
