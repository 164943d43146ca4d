"""Smoke test for the demo that drives the black-box quadrature end to end.

demos/03_series_and_projection.py is the only demo that runs project,
projection_residual and recovered_coefficients on black-box functions.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_series_and_projection_demo_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "03_series_and_projection.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
