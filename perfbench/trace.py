"""Span recorder that wraps muntzlab's public functions from outside.

``Tracer.install`` replaces each public module-level function of the
layer modules (and ``LUFactors.solve``) by a wrapper that records a span:
name, start, end, parent span and job id. Modules import kernels by name
(``operators`` holds its own reference to ``linalg.sigma_min``), so every
muntzlab module namespace that holds the original function object gets
the wrapper, not only the defining module. ``src/`` is not modified.

Spans are kept in memory and written out when the run ends. A span's
self time is its duration minus the durations of its direct children;
calls nest strictly on the single benchmark thread, so the children never
overlap.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("exponents", "gram", "linalg", "biorthogonal", "muntz_space",
          "operators", "completeness", "hardy", "reports", "cli")

# kernels reported one by one, as "<module>.<function>"
KERNELS = (
    "gram.cauchy_inverse", "gram.identity_residual", "gram.distance",
    "biorthogonal.dual_family", "biorthogonal.norm_growth_check",
    "linalg.sigma_min", "linalg.sigma_max", "linalg.LUFactors.solve",
    "linalg.lower_triangular_inverse",
    "muntz_space.quad_unit_interval", "muntz_space.monomial_moments",
    "muntz_space.evaluate", "muntz_space.l2_norm", "muntz_space.series_inner_product",
    "operators.finite_rank_error",
    "completeness.mixed_completeness_check",
    "hardy.radial_l2_bound",
    "reports.decimal_str",
)

# a call of this span that raises this error is one precision escalation
ESCALATION = ("gram.cauchy_inverse", "PrecisionInsufficientError")


class Tracer:
    """In-memory span list; spans are recorded only while ``recording``."""

    def __init__(self):
        self.recording = False
        self.job_id = None
        self.spans = []          # [name, start, end, parent, job, error]
        self._stack = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.job_id, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def job(self, kind, job_id):
        """Root span of one timed job."""
        if not self.recording:
            yield
            return
        self.job_id = job_id
        idx = self._open("job." + kind)
        try:
            yield
        finally:
            self._close(idx)
            self.job_id = None

    def wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                self.spans[idx][5] = type(exc).__name__
                raise
            finally:
                self._close(idx)
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every public layer function in every namespace holding it."""
        modules = {m: importlib.import_module("muntzlab." + m) for m in LAYERS}
        replaced = {}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__ or inspect.isgeneratorfunction(obj)):
                    continue
                replaced[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        lu = modules["linalg"].LUFactors
        lu.solve = self.wrap("linalg.LUFactors.solve", lu.solve)
        holders = [m for name, m in sys.modules.items()
                   if m is not None and (name == "muntzlab" or name.startswith("muntzlab."))]
        for mod in holders:
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def adopt(self, path):
        """Append the spans a traced child process wrote, under the current job."""
        with open(path) as fh:
            rows = [json.loads(line) for line in fh]
        os.remove(path)
        if not self.recording:
            return
        base = len(self.spans)
        for r in rows:
            parent = None if r["parent"] is None else r["parent"] + base
            self.spans.append([r["name"], r["start"], r["end"], parent, self.job_id, r["error"]])

    def rows(self):
        """Spans as JSON-ready dicts (times in seconds, perf_counter base)."""
        return [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "job": s[4],
                 "error": s[5]} for s in self.spans]


def aggregate(rows):
    """Per span name: calls, self seconds, and error counts by type."""
    child = defaultdict(float)
    for r in rows:
        if r["parent"] is not None:
            child[r["parent"]] += r["end"] - r["start"]
    calls = defaultdict(int)
    self_s = defaultdict(float)
    errors = defaultdict(int)
    job_times = defaultdict(list)
    for i, r in enumerate(rows):
        dur = r["end"] - r["start"]
        calls[r["name"]] += 1
        self_s[r["name"]] += dur - child[i]
        if r["error"]:
            errors[(r["name"], r["error"])] += 1
        if r["name"].startswith("job."):
            job_times[r["name"][4:]].append(dur)
    return calls, self_s, errors, job_times


def layer_metrics(calls, self_s, errors, job_times, rounds, kinds, extra_counts):
    """Per-layer metrics per timed round, in the order BENCHMARK.json lists them."""
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for layer in LAYERS:
        names = [n for n in calls if n.split(".", 1)[0] == layer]
        put(f"{layer}.calls", sum(calls[n] for n in names) / rounds, "count")
        put(f"{layer}.self_ms", 1000 * sum(self_s[n] for n in names) / rounds, "ms")
    for k in KERNELS:
        put(f"{k}.calls", calls.get(k, 0) / rounds, "count")
        put(f"{k}.self_ms", 1000 * self_s.get(k, 0.0) / rounds, "ms")
    put("gram.escalations", errors.get(ESCALATION, 0) / rounds, "count")
    for name, value in extra_counts.items():
        put(name, value / rounds, "count")
    for kind in kinds:
        times = job_times.get(kind)
        put(f"job.{kind}.p50_ms", 1000 * statistics.median(times) if times else 0.0, "ms")
    return out


def dump(rows, path):
    with open(path, "w") as fh:
        for r in rows:
            fh.write(json.dumps(r, sort_keys=True) + "\n")
