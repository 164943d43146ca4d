"""Smoke tests for the demos that reach the exact Gram-form kernel and the
black-box quadrature end to end.

02 measures the dual drift, 03 runs project, projection_residual and
recovered_coefficients on black-box functions, 04 builds the synthesis
certificate and 06 runs the closure criterion of the gap Hardy space.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["02_biorthogonal_duals", "03_series_and_projection",
                                  "04_spectral_synthesis_certificate", "06_gap_hardy_space"])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
