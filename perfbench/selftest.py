"""Self-tests for the benchmark's checks: no check may be vacuous.

    python3 perfbench/selftest.py [WORKLOAD ...]

For every job of the named workloads (all four by default) the test runs
the job once, confirms that its check passes (the quadrature radial jobs
may show only their known fault), then hands the check deliberately
perturbed results and requires each to raise a failure the unperturbed
result did not. It also confirms that the repeat check catches one changed
byte in a CLI artifact, and that BENCHMARK.json lists exactly the metrics
run.py prints. Exits 1 if any of this does not hold.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

import muntzlab as M  # noqa: E402
from mpmath import mp, mpf  # noqa: E402

from perfbench import run, trace, workloads  # noqa: E402
from perfbench.workloads import KNOWN_FAULT, VERIFY_PREC  # noqa: E402


def scale(x, rel):
    return x * (1 + mpf(rel))


def first_scaled(seq, rel):
    return (scale(seq[0], rel),) + tuple(seq[1:])


def flip_digit(data, marker, nth):
    """Change the nth digit after ``marker`` by one: a one-byte edit."""
    pos = data.index(marker) + len(marker)
    seen = 0
    for i in range(pos, len(data)):
        if chr(data[i]).isdigit():
            seen += 1
            if seen == nth:
                return data[:i] + str((int(chr(data[i])) + 1) % 10).encode() + data[i + 1:]
    raise ValueError(f"no digit {nth} after {marker!r}")


def dual_coeff(d, job):
    # one coefficient scaled by 1 + 10^(-bits/8 + 2), e.g. 1 + 1e-30 at 256 bits
    bits = int(re.search(r"bits=(\d+)", job.tag).group(1))
    used, lams, coeffs, norms, deficits = d
    rows = (first_scaled(coeffs[0], mpf(10) ** (2 - mpf(bits) / 8)),) + coeffs[1:]
    return used, lams, rows, norms, deficits


def dual_deficit(d, job):
    used, lams, coeffs, norms, deficits = d
    return used, lams, coeffs, norms, deficits[:-1] + (scale(deficits[-1], 1e-6),)


def sigma_20th_digit(d, job):
    n1, n2, sigma, ok = d[0]
    return ((n1, n2, scale(sigma, 1e-19), ok),) + d[1:]


def cli_flip(marker, nth):
    return lambda d, job: (d[0], flip_digit(d[1], marker, nth))


PERTURB = {
    "dual_family": [dual_coeff, dual_deficit],
    "norm_growth_check": [lambda d, j: (d[0], scale(d[1], 1e-40)),
                          lambda d, j: (first_scaled(d[0], 1e-40), d[1])],
    "distance_lower_bound_check": [
        lambda d, j: (((scale(d[0][0][0], 1e-25), d[0][0][1]),) + d[0][1:], d[1]),
        lambda d, j: (d[0], scale(d[1], 1e-25))],
    "truncation_convergence": [lambda d, j: scale(d, 1e-20)],
    "project": [lambda d, j: first_scaled(d, 1e-25)],
    "projection_residual": [lambda d, j: scale(d, 1e-20)],
    "l2_norm": [lambda d, j: scale(d, 1e-30)],
    "series_inner_product": [lambda d, j: scale(d, 1e-30)],
    "evaluate": [lambda d, j: d + mpf(10) ** -25],
    "synthesis_certificate_sq10": [lambda d, j: ("fail",) + d[1:],
                                   lambda d, j: (d[0], first_scaled(d[1], 1e-40), d[2])],
    "synthesis_certificate_custom8": [lambda d, j: ("inconclusive",) + d[1:],
                                      lambda d, j: (d[0], d[1], d[2][:1] + first_scaled(d[2][1:], 1e-10))],
    "mixed_sweep_n8": [sigma_20th_digit],
    "mixed_sample_n12": [sigma_20th_digit],
    "mixed_reconstruction_residual": [lambda d, j: scale(d, 1e-25)],
    "project_blackbox": [lambda d, j: (first_scaled(d[0], 1e-10), d[1]),
                         lambda d, j: (d[0], scale(d[1], 1e-10))],
    "recovered_coefficients_blackbox": [lambda d, j: first_scaled(d, 1e-10)],
    "closure_membership_blackbox": [lambda d, j: (first_scaled(d[0], 1e-10), d[1]),
                                    lambda d, j: (d[0], d[1][:-1] + ((d[1][-1][0], scale(d[1][-1][1], 1e-10)),))],
    "radial_l2_bound_theta0": [lambda d, j: (scale(d[0], 1e-6),) + d[1:],
                               lambda d, j: (d[0], d[1] + 1) + d[2:]],
    "radial_l2_bound_theta90": [lambda d, j: (scale(d[0], 1e-6),) + d[1:]],
    "h2_membership": [lambda d, j: ("inconclusive", d[1]),
                      lambda d, j: (d[0], ((d[1][0][0], scale(d[1][0][1], 1e-9)),) + d[1][1:])],
    "quadratic_form_partial_sums": [lambda d, j: ((d[0][0], d[0][1] * (1 + 1e-6)),) + d[1:]],
    "cli_gen_exponents": [cli_flip(b'"values"', 2)],
    "cli_gram_csv": [cli_flip(b"g10\n", 5)],
    "cli_gram_json": [cli_flip(b'"entries"', 6), cli_flip(b'"determinant"', 8)],
    "cli_distance": [cli_flip(b'"distance"', 6)],
    "cli_biorthogonal": [cli_flip(b'"coefficients"', 6)],
    "cli_project": [cli_flip(b'"coefficients"', 4)],
    "cli_recover": [cli_flip(b'"coefficient"', 4)],
    "cli_eval": [cli_flip(b'"value"', 6)],
    "cli_operator_certify": [cli_flip(b'"spectrum": [', 6),
                             lambda d, j: (d[0], d[1].replace(b'"status": "pass"', b'"status": "fail"'))],
    "cli_hereditary": [cli_flip(b"invertible\n", 8)],
    "cli_hardy": [lambda d, j: (d[0], d[1].replace(b'"member": "yes"', b'"member": "no"')),
                  lambda d, j: (1, d[1])],
}


def labels(fails):
    return {f.split(":", 1)[0] for f in fails}


def check_workload(name, problems):
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(ROOT, ".perfbench"))
    try:
        check_jobs(name, workdir, problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_jobs(name, workdir, problems):
    rng = random.Random(7)
    if name == "cli":
        wl = workloads.build_cli(M, rng, ROOT, workdir, None)
    else:
        wl = getattr(workloads, f"build_{name}")(M, rng)
    for i, job in enumerate(wl.jobs):
        where = f"{name}/{job.kind}#{i}"
        digest = job.extract(job.run())
        base = labels(workloads.verify(job, digest))
        if base - {KNOWN_FAULT}:
            problems.append(f"{where}: unperturbed result fails {sorted(base)}")
        perturbations = PERTURB.get(job.kind)
        if not perturbations:
            problems.append(f"{where}: no perturbation defined")
            continue
        for k, perturb in enumerate(perturbations):
            with mp.workprec(VERIFY_PREC):
                bad = perturb(digest, job)
            if not labels(workloads.verify(job, bad)) - base:
                problems.append(f"{where}: perturbation {k} passed the check")
    print(f"selftest {name}: {len(wl.jobs)} jobs checked", flush=True)


def check_repeat_rule(problems):
    """One changed byte in an artifact is caught by the repeat check alone."""
    job = workloads.Job("artifact", lambda: None, lambda r: r, lambda d: [])
    checker = run.Checker([job], workloads.verify)
    checker.check(0, (0, b"g1\n0.3333,0.2\n"), None)
    if not checker.check(0, (0, b"g1\n0.3334,0.2\n"), None):
        problems.append("repeat check missed a changed byte")


def check_metric_names(problems):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    layer = trace.layer_metrics({}, {}, {}, {}, 1, workloads.ALL_KINDS, {"quad.integrand_evals": 0})
    listed = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    printed = [(n, v["unit"]) for n, v in layer.items()]
    if listed != printed:
        problems.append("BENCHMARK.json per_layer differs from the traced run's metrics")
    e2e = run.end_to_end({"setup_s": 1.0, "completed": 1, "busy": 1.0,
                          "latency": {"k": [1.0]}}, 1024)
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != [(n, v["unit"]) for n, v in e2e.items()]:
        problems.append("BENCHMARK.json end_to_end differs from the untraced run's metrics")
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py's")


def main(argv):
    names = argv or list(run.WORKLOADS)
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    problems = []
    check_metric_names(problems)
    check_repeat_rule(problems)
    for name in names:
        check_workload(name, problems)
    for p in problems:
        print("FAIL", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
