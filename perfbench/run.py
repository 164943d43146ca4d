"""Run one muntzlab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload duals --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` (nothing needs installing). The loop is closed, one client on one
thread. After set-up (imports, input generation from the seed, and one
untimed warm-up pass over the job list) the job list is repeated in whole
rounds until the jobs have been busy for ``--seconds``. Every result is
checked against a computation made apart from the program. All times are
single-process wall times.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics (per timed round) with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

_T0 = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("duals", "certify", "quadrature", "cli")
CLI_SETUP_REPEATS = 9
# set-ups per run of the in-process workloads (this process counts as one):
# each extra one is a fresh child repeating imports, inputs and the cold
# warm-up pass; quadrature's takes ~15 s, so it is measured once per run
SETUP_REPEATS = {"duals": 5, "certify": 3, "quadrature": 1}


def since_start():
    """Seconds since this script began, before its first import."""
    return time.perf_counter() - _T0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Import muntzlab from this checkout's src/, never from site-packages."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "muntzlab", "__init__.py")):
        raise SystemExit(f"error: no muntzlab sources under {src}")
    sys.path.insert(0, src)
    import muntzlab
    if not os.path.abspath(muntzlab.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: muntzlab imported from {muntzlab.__file__}, not {src}")
    return muntzlab


def repeated_setup_seconds(args, own):
    """Median of this process's set-up and those of fresh children."""
    times = [own]
    for _ in range(SETUP_REPEATS[args.workload] - 1):
        out = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                              "--seed", str(args.seed), "--seconds", str(args.seconds),
                              "--setup-only"], capture_output=True, text=True, check=True,
                             timeout=120)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def cli_setup_seconds(workdir, env):
    """Median wall time of a bare child that imports muntzlab.cli and exits."""
    times = []
    for _ in range(CLI_SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import muntzlab.cli"], cwd=workdir,
                       env=env, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Checker:
    """Verifies each job's digest; memoised, since the program is deterministic.

    The first digest of each job (from the warm-up pass) is the reference
    for every later round: a digest that differs is a failure on its own.
    """

    def __init__(self, jobs, verify):
        self.jobs = jobs
        self.verify = verify
        self.first = {}
        self.memo = {}
        self.labels = {}

    def check(self, i, result, error):
        if error is not None:
            fails = [f"exception: {type(error).__name__}: {error}"]
        else:
            job = self.jobs[i]
            digest = job.extract(result)
            fails = []
            if i not in self.first:
                self.first[i] = digest
            elif digest != self.first[i]:
                fails.append("not_repeatable: output differs from the warm-up pass")
            key = (i, digest)
            if key not in self.memo:
                self.memo[key] = self.verify(job, digest)
            fails += self.memo[key]
        for f in fails:
            label = (self.jobs[i].kind, f.split(":", 1)[0])
            self.labels[label] = self.labels.get(label, 0) + 1
        return fails


def run_job(job):
    t0 = time.perf_counter()
    try:
        result, error = job.run(), None
    except Exception as exc:  # a failing job is counted, the run goes on
        result, error = None, exc
    return result, error, time.perf_counter() - t0


def run_workload(wl, seconds, tracer, verify, setup_only=False):
    warm = [run_job(job) for job in wl.jobs]
    setup_s = since_start()
    if setup_only:
        return {"setup_s": setup_s}
    checker = Checker(wl.jobs, verify)
    for i, (result, error, _) in enumerate(warm):
        checker.check(i, result, error)

    counts0 = {name: read() for name, read in wl.counters.items()}
    tracer.recording = True
    rounds = attempted = failed = completed = 0
    busy = 0.0
    latency = {kind: [] for kind in wl.kinds}
    while rounds == 0 or busy < seconds:
        for i, job in enumerate(wl.jobs):
            with tracer.job(job.kind, f"{rounds}.{i}"):
                result, error, dt = run_job(job)
            busy += dt
            attempted += 1
            if error is None:
                completed += 1
                latency[job.kind].append(dt)
            if checker.check(i, result, error):
                failed += 1
        rounds += 1
    tracer.recording = False
    counts = {name: read() - counts0[name] for name, read in wl.counters.items()}
    return {
        "setup_s": setup_s, "rounds": rounds, "attempted": attempted, "failed": failed,
        "completed": completed, "busy": busy, "latency": latency, "labels": checker.labels,
        "counts": counts,
    }


def end_to_end(res, peak_rss_kb):
    medians = [statistics.median(v) for v in res["latency"].values() if v]
    geomean = math.exp(sum(math.log(m) for m in medians) / len(medians))

    def metric(value, unit):
        return {"value": value, "unit": unit}

    return {
        "setup_s": metric(res["setup_s"], "s"),
        "jobs_per_s": metric(res["completed"] / res["busy"], "1/s"),
        "job_geomean_ms": metric(1000 * geomean, "ms"),
        "peak_rss_mb": metric(peak_rss_kb / 1024, "MB"),
    }


def main(argv=None):
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")
    M = import_program()
    sys.path.insert(0, ROOT)
    import mpmath
    import numpy
    from perfbench import trace as trace_mod
    from perfbench import workloads
    from perfbench.workloads import KNOWN_FAULT

    tracer = trace_mod.Tracer()
    if args.trace:
        tracer.install()
    rng = random.Random(args.seed)
    outdir = os.path.join(ROOT, ".perfbench")
    os.makedirs(outdir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=outdir)
    try:
        if args.workload == "cli":
            wl = workloads.build_cli(M, rng, ROOT, workdir, tracer if args.trace else None)
            cli_setup = cli_setup_seconds(workdir, workloads.child_env(ROOT))
        else:
            builder = {"duals": workloads.build_duals, "certify": workloads.build_certify,
                       "quadrature": workloads.build_quadrature}[args.workload]
            wl = builder(M, rng)
        res = run_workload(wl, args.seconds, tracer, workloads.verify, args.setup_only)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.setup_only:
        print(res["setup_s"])
        return 0

    if args.workload == "cli":
        res["setup_s"] = cli_setup
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if not args.trace:
            res["setup_s"] = repeated_setup_seconds(args, res["setup_s"])

    unexpected = {k: n for k, n in res["labels"].items() if k[1] != KNOWN_FAULT}
    correct = not unexpected
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# python={platform.python_version()} mpmath={mpmath.__version__} "
          f"numpy={numpy.__version__} mpmath_backend={mpmath.libmp.BACKEND} nproc={os.cpu_count()}")
    print(f"# {args.workload}: rounds={res['rounds']} attempted={res['attempted']} "
          f"failed={res['failed']} busy_s={res['busy']:.3f} "
          f"(single-process wall times, one client, closed loop)")
    print("# p50_ms " + " ".join(f"{kind}={1000 * statistics.median(v):.1f}"
                                  for kind, v in res["latency"].items() if v))
    for (kind, label), n in sorted(res["labels"].items()):
        tag = "known fault" if label == KNOWN_FAULT else "UNEXPECTED"
        print(f"# check failed ({tag}): {kind} {label} x{n}")

    if args.trace:
        rows = tracer.rows()
        trace_path = os.path.join(outdir, f"trace-{args.workload}-seed{args.seed}.jsonl")
        trace_mod.dump(rows, trace_path)
        calls, self_s, errors, job_times = trace_mod.aggregate(rows)
        counts = {"quad.integrand_evals": res["counts"].get("quad.integrand_evals", 0)}
        metrics = trace_mod.layer_metrics(calls, self_s, errors, job_times, res["rounds"],
                                          workloads.ALL_KINDS, counts)
        print(f"# traced jobs_per_s={res['completed'] / res['busy']:.6g} spans={len(rows)} "
              f"written to {os.path.relpath(trace_path, ROOT)}")
    else:
        metrics = end_to_end(res, peak_kb)
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
