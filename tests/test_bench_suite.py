"""The benchmark's own tests (bench/tests) pass against the package in src/.

They run in a subprocess: collecting tests/ and bench/tests in one pytest run
fails, because both directories have a conftest module of the same name.
bench/tests/conftest.py puts bench/ and src/ first on the path.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_suite_passes():
    result = subprocess.run([sys.executable, "-m", "pytest", "-q", "bench/tests"],
                            cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stdout + result.stderr
