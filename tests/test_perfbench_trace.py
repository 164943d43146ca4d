"""The traced benchmark run must be able to install its span recorder.

perfbench/trace.py wraps muntzlab functions by name (among them
linalg.LUFactors.solve), so deleting a name it reaches for breaks
``perfbench/run.py --trace 1`` before any job runs.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    proc = subprocess.run(
        [sys.executable, "-c", "from perfbench.trace import Tracer; Tracer().install()"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
