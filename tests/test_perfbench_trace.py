"""The benchmark must be able to install its span recorder and run its checks.

perfbench/trace.py wraps muntzlab functions by name (among them
linalg.LUFactors.solve), so deleting a name it reaches for breaks
``perfbench/run.py --trace 1`` before any job runs.  The duals workload's
family check reads ``BiorthogonalFamily.coeffs`` as an mpmath.matrix.
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


def test_benchmark_family_check_passes():
    # the duals workload digests a family through fam.coeffs[i, j], so the
    # family must keep that view for the benchmark's own check to run
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from mpmath import mp

    from muntzlab import dual_family, generate_exponents
    from perfbench import oracle, workloads

    lam = generate_exponents("power", {"p": 1.5}, 8)
    for bits in (64, 256):
        fam = dual_family(lam, 8, bits)
        det_d = oracle.det_distances(lam.values, workloads._oracle_prec(fam.precision_bits))
        with mp.workprec(workloads.VERIFY_PREC):
            assert workloads.family_failures(workloads.family_digest(fam), bits, det_d) == []
