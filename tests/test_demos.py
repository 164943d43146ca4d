"""Smoke tests: every demo runs to the end.

01 builds exponent sequences and Gram matrices, 02 measures the dual
drift, 03 runs project, projection_residual and recovered_coefficients on
black-box functions, 04 builds the synthesis certificate, 05 sweeps the
mixed systems and 06 runs the closure criterion of the gap Hardy space.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", sorted(p.stem for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
