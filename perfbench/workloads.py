"""The four workloads: fixed job lists whose input values come from the seed.

A job is one user-level computation. ``run`` calls the public API through
the ``muntzlab`` package namespace at call time (so a traced run sees the
wrapped functions), ``extract`` pulls out the numbers the check looks at,
and ``verify`` compares them with ``oracle`` computations. ``verify``
returns failure labels; an empty list is a pass. The seed changes input
values only, never the shape or size of the work, so every seed costs
about the same.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable

import numpy as np
from mpmath import mp, mpc, mpf

from . import oracle

# the failure label of the fault the quadrature workload counts on every run
KNOWN_FAULT = "radial_quad_error"

DUALS_KINDS = ("dual_family", "norm_growth_check", "distance_lower_bound_check",
               "truncation_convergence", "project", "projection_residual", "l2_norm",
               "series_inner_product", "evaluate")
CERTIFY_KINDS = ("synthesis_certificate_sq10", "synthesis_certificate_custom8", "mixed_sweep_n8",
                 "mixed_sample_n12", "mixed_reconstruction_residual")
QUADRATURE_KINDS = ("project_blackbox", "recovered_coefficients_blackbox",
                    "closure_membership_blackbox",
                    "radial_l2_bound_theta0", "radial_l2_bound_theta90", "h2_membership",
                    "quadratic_form_partial_sums")
CLI_KINDS = ("cli_gen_exponents", "cli_gram_csv", "cli_gram_json", "cli_distance",
             "cli_biorthogonal", "cli_project", "cli_recover", "cli_eval",
             "cli_operator_certify", "cli_hereditary", "cli_hardy")
ALL_KINDS = DUALS_KINDS + CERTIFY_KINDS + QUADRATURE_KINDS + CLI_KINDS


@dataclass
class Job:
    kind: str
    run: Callable[[], Any]
    extract: Callable[[Any], Any]
    verify: Callable[[Any], list]
    tag: str = ""


@dataclass
class Workload:
    name: str
    jobs: list
    kinds: tuple
    counters: dict = field(default_factory=dict)   # name -> zero-argument reader


# a value that went through a double on its way out is checked to this
DOUBLE_REL = mpf(2) ** -50

VERIFY_PREC = 1280    # above every oracle precision, so checks add no rounding


def verify(job, digest):
    """Run a job's check at a precision no result or oracle value exceeds."""
    with mp.workprec(VERIFY_PREC):
        return job.verify(digest)


def _rel_ok(got, want, tol):
    return abs(mpc(got) - mpc(want)) <= mpf(tol) * max(abs(mpc(want)), mpf(10) ** -300)


def _fail(label, detail=""):
    return f"{label}: {detail}" if detail else label


def _oracle_prec(bits):
    """Precision of a reference value: 64 bits above what it is checked against."""
    return max(bits, 128) + 64


def _tol(bits):
    """The 10^(-bits/8) target the program's own closed forms promise."""
    return mpf(10) ** (-mpf(bits) / 8)


# ---------------------------------------------------------------------------
# seeded inputs


def custom_exponents(M, rng, n=16):
    """Non-integer, squares-like set with one gap near 1e-3 (between 10 and 11).

    The near-gap sits past index 10, so N = 8 and N = 10 prefixes are well
    spaced and N = 12 and 16 prefixes hold the gap.
    """
    vals = [1 + 0.3 * rng.random()] + [(k + 0.3 * rng.random() - 0.15) ** 2 for k in range(2, n + 1)]
    vals[10] = vals[9] + 1e-3 * (1 + 0.5 * rng.random())
    return M.generate_exponents("custom", {"values": vals}, n)


def _coeffs(rng, count):
    return [mpf(rng.uniform(-1.0, 1.0)) for _ in range(count)]


def _slit_point(rng, r):
    """A point of modulus r off the slit; the modulus fixes the series length."""
    phi = rng.uniform(-0.95, 0.95) * float(mp.pi)
    return mpc(mp.cos(phi), mp.sin(phi)) * r


class CountedIntegrand:
    """A black-box callable that counts its own evaluations."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, t):
        self.calls += 1
        return self.fn(t)


# ---------------------------------------------------------------------------
# digests (what each check looks at)


def _matrix_rows(A, n):
    return tuple(tuple(A[i, j] for j in range(n)) for i in range(n))


def family_digest(fam):
    return (fam.precision_bits, fam.lam.values, _matrix_rows(fam.coeffs, fam.truncation),
            fam.norms, fam.projection_deficit)


def family_failures(digest, bits, det_d):
    """Checks shared by every dual family: G C - I, D = det ratio, D ||r|| = 1."""
    used, lams, coeffs, norms, deficits = digest
    out = []
    resid = oracle.identity_residual(lams, coeffs, _oracle_prec(used))
    if not resid <= _tol(bits):
        out.append(_fail("gram_identity", f"|GC-I| = {mp.nstr(resid, 5)}"))
    with mp.workprec(_oracle_prec(used)):
        for n, (nrm, dn) in enumerate(zip(norms, deficits)):
            if not _rel_ok(dn, det_d[n], _tol(bits)):
                out.append(_fail("distance_det_ratio", f"n={n + 1}"))
            if not abs(nrm * dn - 1) <= _tol(bits):
                out.append(_fail("duality", f"n={n + 1}"))
    return out


# ---------------------------------------------------------------------------
# duals


def build_duals(M, rng):
    """Closed-form algebra: Gram inverse, duals, distances, exact series."""
    lams = {
        "squares": M.generate_exponents("power", {"p": 2}, 16),
        "power1.5": M.generate_exponents("power", {"p": 1.5}, 16),
        "lacunary2": M.generate_exponents("lacunary", {"q": 2}, 16),
        "custom": custom_exponents(M, rng),
    }
    state = {}

    @lru_cache(maxsize=None)
    def det_d(name, N, bits):
        return oracle.det_distances(lams[name].values[:N], _oracle_prec(bits))

    jobs = []

    def dual_job(name, N, bits):
        def run():
            fam = M.dual_family(lams[name], N, bits)
            state[(name, N, bits)] = fam
            return fam
        return Job("dual_family", run, family_digest,
                   lambda d: family_failures(d, bits, det_d(name, N, d[0])),
                   f"{name} N={N} bits={bits}")

    for name in lams:
        for N in (8, 12, 16):
            for bits in (64, 256, 512):
                jobs.append(dual_job(name, N, bits))

    eps_growth, eps_dist = 0.05, 0.5
    for name, lam in lams.items():
        def growth_run(name=name):
            return M.norm_growth_check(state[(name, 12, 512)], eps_growth)

        def growth_verify(d, name=name):
            ratios, m_fit = d
            D = det_d(name, 12, 512)
            out = []
            with mp.workprec(_oracle_prec(512)):
                x = [mpf(v) for v in lams[name].values[:12]]
                want = [mp.log(1 / Dn) / xn for Dn, xn in zip(D, x)]
                want_m = max((1 / Dn) / (1 + mpf(eps_growth)) ** xn for Dn, xn in zip(D, x))
                if not all(abs(r - w) <= _tol(512) * max(1, abs(w)) for r, w in zip(ratios, want)):
                    out.append(_fail("growth_ratios"))
                if not _rel_ok(m_fit, want_m, _tol(512)):
                    out.append(_fail("growth_m_fit"))
            return out

        jobs.append(Job("norm_growth_check", growth_run,
                        lambda r: (r.ratios, r.m_fit), growth_verify))

        def dist_run(lam=lam):
            return M.distance_lower_bound_check(lam, 12, eps_dist, 256)

        def dist_verify(d, name=name):
            reps, m_fit = d
            D = det_d(name, 12, 256)
            out = []
            with mp.workprec(_oracle_prec(256)):
                x = [mpf(v) for v in lams[name].values[:12]]
                for (dist, dual), Dn in zip(reps, D):
                    if not _rel_ok(dist, Dn, _tol(256)) or not abs(dist * dual - 1) <= _tol(256):
                        out.append(_fail("distance_det_ratio"))
                want_m = min(Dn / (1 - mpf(eps_dist)) ** xn for Dn, xn in zip(D, x))
                if not _rel_ok(m_fit, want_m, _tol(256)):
                    out.append(_fail("distance_m_fit"))
            return out

        jobs.append(Job("distance_lower_bound_check", dist_run,
                        lambda r: (tuple((p.distance, p.dual_norm) for p in r[0]), r[1]),
                        dist_verify))

        def drift_run(lam=lam):
            return M.truncation_convergence(lam, 3, 8, 12, 256)

        def drift_verify(drift, name=name):
            # r^(N1) lies in the larger span and <r^(N1), r^(N2)> = ||r^(N1)||^2,
            # so the squared drift is ||r^(N2)||^2 - ||r^(N1)||^2
            x = lams[name].values
            prec = _oracle_prec(256)
            with mp.workprec(prec):
                d12 = oracle.monomial_distance(x[2], x[:2] + x[3:12], prec)
                d8 = oracle.monomial_distance(x[2], x[:2] + x[3:8], prec)
                want = 1 / d12 ** 2 - 1 / d8 ** 2
                if not abs(drift ** 2 - want) <= _tol(256) / d12 ** 2:
                    return [_fail("drift_norm_identity")]
            return []

        jobs.append(Job("truncation_convergence", drift_run, lambda r: r, drift_verify))

    # exact-series jobs
    mu = M.generate_exponents("custom", {"values": [j + 0.5 + 0.4 * rng.random() for j in range(5)]}, 5)
    f = M.finite_series(mu, _coeffs(rng, 5))
    for name in ("squares", "custom"):
        def proj_run(name=name):
            return M.project(f, state[(name, 12, 256)])

        @lru_cache(maxsize=None)
        def proj_moments(name):
            x = lams[name].values[:12]
            prec = _oracle_prec(256)
            b = oracle.series_moments(mu.values, f.coeffs, x, prec)
            return x, b, oracle.normal_equations(x, b, prec)

        def proj_verify(coeffs, name=name):
            x, b, want = proj_moments(name)
            # coefficient n is sum_k C_kn b_k: allow 2^-bits of the sum of its term sizes
            with mp.workprec(_oracle_prec(256)):
                Ginv = mp.inverse(oracle.gram(x, _oracle_prec(256)))
                sizes = [sum(abs(Ginv[k, n] * b[k]) for k in range(12)) for n in range(12)]
            if not all(abs(c - w) <= mpf(2) ** -256 * s for c, w, s in zip(coeffs, want, sizes)):
                return [_fail("normal_equations")]
            return []

        def res_run(name=name):
            return M.projection_residual(f, state[(name, 12, 256)])

        def res_verify(res, name=name):
            _, b, a = proj_moments(name)
            prec = _oracle_prec(256)
            with mp.workprec(prec):
                norm2 = oracle.gram_form(mu.values, f.coeffs, mu.values, f.coeffs, prec).real
                want = norm2 - sum(ai * bi for ai, bi in zip(a, b))
                if not abs(res ** 2 - want) <= _tol(256) * norm2:
                    return [_fail("projection_residual")]
            return []

        jobs.append(Job("project", proj_run, lambda s: s.coeffs, proj_verify))
        jobs.append(Job("projection_residual", res_run, lambda r: r, res_verify))

    p15 = M.generate_exponents("power", {"p": 1.5}, 96)
    nu = M.generate_exponents("custom", {"values": [0.3 + 1.1 * j + 0.2 * rng.random()
                                                    for j in range(40)]}, 40)
    g = M.finite_series(p15.prefix(40), _coeffs(rng, 40))
    h = M.finite_series(nu, [mpc(a, b) for a, b in zip(_coeffs(rng, 40), _coeffs(rng, 40))])
    for bits in (256, 512):
        def norm_verify(v, bits=bits):
            prec = _oracle_prec(bits)
            with mp.workprec(prec):
                want = mp.sqrt(oracle.gram_form(g.lam.values, g.coeffs, g.lam.values, g.coeffs, prec).real)
            return [] if _rel_ok(v, want, _tol(bits)) else [_fail("l2_norm")]

        def inner_verify(v, bits=bits):
            want = oracle.gram_form(g.lam.values, g.coeffs, nu.values, h.coeffs, _oracle_prec(bits))
            return [] if _rel_ok(v, want, _tol(bits)) else [_fail("series_inner_product")]

        jobs.append(Job("l2_norm", lambda bits=bits: M.l2_norm(g, bits), lambda v: v, norm_verify))
        jobs.append(Job("series_inner_product", lambda bits=bits: M.series_inner_product(g, h, bits),
                        lambda v: v, inner_verify))

    integers = M.generate_exponents("integers", {"values": list(range(1, 257))}, 256)
    log_series = M.MuntzSeries(integers, (), M.rule_from_name("inv_n"))
    geo = M.MuntzSeries(p15, (), M.geometric_rule(rng.uniform(0.3, 0.7)))
    for _ in range(2):
        z = _slit_point(rng, 0.6)

        def log_verify(v, z=z):
            # the named rules hand out double-precision coefficients, so the
            # series matches -log(1 - z) to 1e-14 and its own coefficients to 1e-28
            coeffs = [log_series.rule.coefficient(n) for n in range(1, 257)]
            out = []
            if not abs(v - oracle.direct_series_value(range(1, 257), coeffs, z, 320)) <= mpf(10) ** -28:
                out.append(_fail("evaluate_partial_sum"))
            with mp.workprec(256):
                if not abs(v + mp.log(1 - z)) <= mpf(10) ** -14:
                    out.append(_fail("evaluate_log"))
            return out

        jobs.append(Job("evaluate", lambda z=z: M.evaluate(log_series, z), lambda v: v, log_verify))
    for _ in range(2):
        z = _slit_point(rng, 0.8)

        def geo_verify(v, z=z):
            coeffs = [geo.rule.coefficient(n) for n in range(1, len(p15) + 1)]
            want = oracle.direct_series_value(p15.values, coeffs, z, 320)
            return [] if abs(v - want) <= mpf(10) ** -28 else [_fail("evaluate_slit")]

        jobs.append(Job("evaluate", lambda z=z: M.evaluate(geo, z), lambda v: v, geo_verify))

    return Workload("duals", jobs, DUALS_KINDS)


# ---------------------------------------------------------------------------
# certify


def build_certify(M, rng):
    """Operator certificates and mixed monomial/dual systems."""
    sq = M.generate_exponents("power", {"p": 2}, 16)
    custom = custom_exponents(M, rng)
    jobs = []

    def cert_job(kind, lam, N, bits, rho):
        def run():
            fam = M.dual_family(lam, N, bits)
            op = M.dilation_operator(fam.lam, rho, N)
            return M.synthesis_certificate(op, fam)

        def extract(cert):
            return (cert.status, tuple(cert.item("spectrum").value), tuple(cert.spectrum))

        def verify(d):
            status, diag, spectrum = d
            out = [] if status == "pass" else [_fail("certificate_status", status)]
            with mp.workprec(_oracle_prec(bits)):
                want = [mpf(rho) ** mpf(v) for v in lam.values[:N]]
                # the certificate's own floor 10^(-bits/4), capped at the 256 bits
                # dilation_operator makes the eigenvalues at
                floor = mpf(10) ** (-mpf(min(bits, 256)) / 4)
                if len(diag) != N or not all(abs(e - w) <= floor for e, w in zip(diag, want)):
                    out.append(_fail("spectrum_diagonal"))
                # the reported spectrum is rounded to double precision (see CHANGES.md)
                if (len(spectrum) != N + 1 or spectrum[0] != 0
                        or not all(_rel_ok(s, w, DOUBLE_REL) for s, w in zip(spectrum[1:], want))):
                    out.append(_fail("spectrum_report"))
            return out

        return Job(kind, run, extract, verify)

    for rho in (0.3, 0.5):
        jobs.append(cert_job("synthesis_certificate_sq10", sq, 10, 512, rho))
    jobs.append(cert_job("synthesis_certificate_custom8", custom, 8, 256, 0.2))

    def sigma_job(kind, N, parts_fn):
        bits = 256

        def run():
            fam = M.dual_family(sq, N, bits)
            return [M.mixed_completeness_check(p, fam) for p in parts_fn()]

        def extract(checks):
            return tuple((tuple(sorted(c.partition.n1)), tuple(sorted(c.partition.n2)),
                          c.min_singular, c.invertible) for c in checks)

        systems = lru_cache(maxsize=None)(lambda: oracle.MixedSystems(sq.values[:N], _oracle_prec(bits)))

        def verify(d):
            out = []
            for n1, n2, sigma, invertible in d:
                want = systems().sigma_min(n1, n2)
                if not _rel_ok(sigma, want, 1e-20):
                    out.append(_fail("block_identity_sigma_min", f"N1={list(n1)}"))
                if not invertible:
                    out.append(_fail("invertible", f"N1={list(n1)}"))
            return out

        return Job(kind, run, extract, verify)

    jobs.append(sigma_job("mixed_sweep_n8", 8, lambda: list(M.all_partitions(8))))
    sample_seed = rng.randrange(2 ** 31)
    jobs.append(sigma_job("mixed_sample_n12", 12, lambda: M.sample_partitions(12, 32, seed=sample_seed)))

    t3 = M.finite_series(M.generate_exponents("custom", {"values": [3]}, 1), [1])
    want_t3 = oracle.monomial_distance(3, sq.values[:10], 512)
    for part in M.sample_partitions(10, 8, seed=rng.randrange(2 ** 31)):
        def recon_run(part=part):
            fam = M.dual_family(sq, 10, 256)
            return M.mixed_reconstruction_residual(t3, part, fam)

        def recon_verify(r):
            return [] if abs(r - want_t3) <= _tol(256) else [_fail("reconstruction_distance")]

        jobs.append(Job("mixed_reconstruction_residual", recon_run, lambda r: r, recon_verify))

    return Workload("certify", jobs, CERTIFY_KINDS)


# ---------------------------------------------------------------------------
# quadrature


QUAD_TOL = mpf(10) ** -30     # QuadratureSpec's default target per integral


def build_quadrature(M, rng):
    """Black-box integrands through panelled tanh-sinh, and the Hardy layer."""
    sq100 = M.generate_exponents("power", {"p": 2}, 100)
    a = mpf(rng.uniform(1.2, 3.8))
    b = mpf(rng.uniform(1.2, 3.8))
    power_f = CountedIntegrand(lambda t: mpf(t) ** a)
    log_f = CountedIntegrand(lambda t: mpf(t) ** b * mp.log(t))
    N, bits = 10, 256
    lam = sq100.values[:N]
    prec = _oracle_prec(bits)

    @lru_cache(maxsize=None)
    def reference(which, n):
        """Closed-form moments, projection coefficients and squared distance."""
        x = lam[:n]
        with mp.workprec(prec):
            if which == "power":
                moments = [1 / (a + mpf(v) + 1) for v in x]
                norm2 = 1 / (2 * a + 1)
            else:
                moments = [-1 / (b + mpf(v) + 1) ** 2 for v in x]
                norm2 = 2 / (2 * b + 1) ** 3
            coeffs = oracle.normal_equations(x, moments, prec)
            Ginv = mp.inverse(oracle.gram(x, prec))
            # a moment error of QUAD_TOL moves coefficient n by at most this much
            spread = [sum(abs(Ginv[i, k]) for k in range(n)) for i in range(n)]
            dist2 = norm2 - sum(c * m for c, m in zip(coeffs, moments))
            return coeffs, spread, dist2, sum(abs(c) for c in coeffs)

    def coeff_failures(coeffs, which):
        want, spread, _, _ = reference(which, N)
        ok = all(abs(c - w) <= 100 * QUAD_TOL * s for c, w, s in zip(coeffs, want, spread))
        return [] if ok else [_fail("closed_form_moments", which)]

    def dist_ok(res, which, n):
        _, _, want, l1 = reference(which, n)
        return abs(res ** 2 - want) <= 100 * QUAD_TOL * (1 + 2 * l1)

    def fam():
        return M.dual_family(sq100, N, bits)

    def project_run():
        family = fam()
        f_star = M.project(power_f, family)
        return f_star, M.projection_residual(power_f, family, f_star)

    jobs = [
        Job("project_blackbox", project_run, lambda r: (r[0].coeffs, r[1]),
            lambda d: coeff_failures(d[0], "power") + (
                [] if dist_ok(d[1], "power", N) else [_fail("closed_form_distance")])),
        Job("recovered_coefficients_blackbox", lambda: M.recovered_coefficients(log_f, fam()),
            tuple, lambda d: coeff_failures(d, "log")),
        Job("closure_membership_blackbox", lambda: M.closure_membership_via_frame(log_f, fam()),
            lambda rep: (rep.recovered, rep.residual_trend),
            lambda d: coeff_failures(d[0], "log") + [
                _fail("closed_form_distance", f"N={n}") for n, r in d[1] if not dist_ok(r, "log", n)]),
    ]

    inv_n = M.MuntzSeries(sq100, (), M.rule_from_name("inv_n"))
    K, cut = 100, 1e-3

    @lru_cache(maxsize=None)
    def radial_reference(theta):
        with mp.workprec(192):
            coeff_sum = sum(mpf(1) / n ** 2 for n in range(1, K + 1)) + mpf(1) / K
            recip_sum = sum(1 / (2 * mpf(n) ** 2 + 1) for n in range(1, K + 1)) + mpf(1) / (2 * K)
            terms = range(1, 321)    # (1 - cut)^(n^2) < 1e-44 past n = 320
            closed = oracle.radial_closed_form([mpf(1) / n for n in terms], [n * n for n in terms],
                                               theta, 1 - mpf(cut), 192)
            return coeff_sum * recip_sum, closed

    def radial_job(kind, theta):
        def verify(d):
            bound_m, integral, remainder, boundary_cut, quad_error = d
            want_m, closed = radial_reference(theta)
            out = []
            if not _rel_ok(bound_m, want_m, 1e-12):
                out.append(_fail("theta_free_bound"))
            if not integral + remainder <= bound_m:
                out.append(_fail("radial_inequality"))
            if boundary_cut != cut:
                out.append(_fail("boundary_cut"))
            if not abs(integral - closed) <= quad_error:
                out.append(_fail(KNOWN_FAULT, f"|integral - closed form| = "
                                 f"{mp.nstr(abs(integral - closed), 3)} > quad_error "
                                 f"{mp.nstr(quad_error, 3)}"))
            return out

        return Job(kind, lambda: M.radial_l2_bound(inv_n, theta, K=K, precision_bits=128),
                   lambda r: (r.bound_M, r.numeric_integral, r.remainder_bound, r.boundary_cut,
                              r.quad_error),
                   verify)

    jobs.append(radial_job("radial_l2_bound_theta0", 0.0))
    jobs.append(radial_job("radial_l2_bound_theta90", float(mp.pi / 2)))

    # the Hardy-layer jobs take milliseconds, so each runs on 8 inputs a round
    # to give its median as many samples as its noise needs
    checkpoints = (125, 250, 500, 1000)
    for _ in range(8):
        alpha = rng.uniform(0.6, 1.5)
        h2_series = M.MuntzSeries(sq100, (), M.power_rule(alpha))

        def h2_verify(d, alpha=alpha):
            member, sums = d
            out = [] if member == "yes" else [_fail("h2_member", member)]
            with mp.workprec(192):
                s = 2 * mpf(alpha)
                for k, v in sums:
                    if not _rel_ok(v, mp.zeta(s) - mp.zeta(s, k + 1), 1e-12):
                        out.append(_fail("partial_sum_zeta", f"K={k}"))
            return out

        jobs.append(Job("h2_membership", lambda f=h2_series: M.h2_membership(f, K=1000),
                        lambda r: (r.member, r.l2_coeff_sums), h2_verify))

        qf_rule = M.power_rule(rng.uniform(0.3, 0.6))

        def qf_verify(d, rule=qf_rule):
            x = np.arange(1, 1001, dtype=float) ** 2
            c = np.array([rule.coefficient(n) for n in range(1, 1001)], dtype=float)
            H = 1.0 / (x[:, None] + x[None, :] + 1.0)
            out = []
            for k, v in d:
                want = float(c[:k] @ H[:k, :k] @ c[:k])
                if not abs(v - want) <= 1e-9 * abs(want):
                    out.append(_fail("quadratic_form", f"K={k}"))
            return out if [k for k, _ in d] == list(checkpoints) else out + [_fail("checkpoints")]

        jobs.append(Job("quadratic_form_partial_sums",
                        lambda rule=qf_rule: M.quadratic_form_partial_sums(rule, sq100, checkpoints),
                        lambda r: tuple(r), qf_verify))

    counters = {"quad.integrand_evals": lambda: power_f.calls + log_f.calls}
    return Workload("quadrature", jobs, QUADRATURE_KINDS, counters)


# ---------------------------------------------------------------------------
# cli


def child_env(root):
    """Environment of a `muntz` child: this checkout's src/, the default precision."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("MUNTZ_PRECISION_BITS", None)
    return env


def _csv_rows(text, fields=-1):
    """Rows after the config comment and the header; ``fields`` splits from the right."""
    return [line.rsplit(",", fields - 1) if fields > 0 else line.split(",")
            for line in text.splitlines()[2:]]


def build_cli(M, rng, root, workdir, tracer):
    """One `python -m muntzlab.cli` child per subcommand of the README workload."""
    env = child_env(root)
    child_script = os.path.join(root, "perfbench", "cli_child.py")
    sq = [k * k for k in range(1, 13)]
    # dyadic values: load_series and --z parse decimals at 53 bits (see CHANGES.md)
    coeffs = [str(rng.randrange(-1024, 1025) / 1024) for _ in range(12)]
    with open(os.path.join(workdir, "series.json"), "w") as fh:
        json.dump({"lambda_ref": "lambda.json", "coeffs": [[c, 0] for c in coeffs]}, fh)
    zr, zi = (rng.randrange(-600, 601) / 1024 for _ in range(2))
    zarg = f"{zr}{zi:+}i"
    seed = rng.randrange(2 ** 31)

    spans = os.path.join(workdir, "spans.jsonl")

    def child(argv):
        if tracer is None:
            cmd = [sys.executable, "-m", "muntzlab.cli", *argv]
        else:
            cmd = [sys.executable, child_script, spans, *argv]
        proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, timeout=120)
        if tracer is not None:
            tracer.adopt(spans)
        return proc.returncode, proc.stdout, proc.stderr

    def artifact(out):
        def extract(res):
            rc, stdout, _ = res
            if out is None:
                return rc, stdout
            try:
                with open(os.path.join(workdir, out), "rb") as fh:
                    return rc, fh.read()
            except OSError:
                return rc, b""
        return extract

    bits = 256
    prec = _oracle_prec(bits)
    G10 = oracle.gram(sq[:10], prec)

    def exit_ok(fn):
        def verify(d):
            rc, data = d
            if rc != 0:
                return [_fail("exit_code", str(rc))]
            try:
                return fn(data.decode())
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                return [_fail("artifact_parse", f"{type(exc).__name__}: {exc}")]
        return verify

    def gen_verify(text):
        return [] if json.loads(text)["values"] == sq else [_fail("exponents")]

    def gram_entries_ok(rows):
        return all(_rel_ok(mpf(rows[i][j]), G10[i, j], 1e-70) for i in range(10) for j in range(10))

    def gram_csv_verify(text):
        return [] if gram_entries_ok(_csv_rows(text)) else [_fail("gram_entries")]

    def gram_json_verify(text):
        data = json.loads(text)
        out = [] if gram_entries_ok(data["entries"]) else [_fail("gram_entries")]
        with mp.workprec(prec):
            if not _rel_ok(mpf(data["determinant"]), mp.det(G10), 1e-60):
                out.append(_fail("determinant"))
        return out

    D10 = oracle.det_distances(sq[:10], prec)

    def distance_verify(text):
        rows = [json.loads(line) for line in text.splitlines()]
        out = []
        with mp.workprec(prec):
            for r, Dn in zip(rows, D10):
                if not _rel_ok(mpf(r["distance"]), Dn, 1e-60):
                    out.append(_fail("distance_det_ratio", f"n={r['n']}"))
                if not abs(mpf(r["distance"]) * mpf(r["dual_norm"]) - 1) <= _tol(bits):
                    out.append(_fail("duality", f"n={r['n']}"))
        return out if len(rows) == 10 else out + [_fail("row_count")]

    def duals_verify(text):
        data = json.loads(text)
        C = [[mpf(v) for v in row] for row in data["coefficients"]]
        resid = oracle.identity_residual(sq[:10], C, prec)
        return [] if resid <= _tol(bits) else [_fail("gram_identity", mp.nstr(resid, 5))]

    proj_want = oracle.normal_equations(
        sq[:10], oracle.series_moments(sq, [mpf(c) for c in coeffs], sq[:10], prec), prec)

    def coeffs_ok(values):
        # complex_pair writes these fields from a double (see CHANGES.md)
        scale = max(abs(w) for w in proj_want)
        return len(values) == 10 and all(
            abs(mpf(v) - w) <= DOUBLE_REL * scale for v, w in zip(values, proj_want))

    def project_verify(text):
        data = json.loads(text)
        ok = coeffs_ok([re for re, im in data["coefficients"]])
        return [] if ok else [_fail("normal_equations")]

    def recover_verify(text):
        rows = [json.loads(line) for line in text.splitlines()]
        ok = coeffs_ok([r["coefficient"][0] for r in rows])
        return [] if ok else [_fail("normal_equations")]

    def eval_verify(text):
        data = json.loads(text)
        point = mpc(zr, zi)
        want = oracle.direct_series_value(sq, [mpf(c) for c in coeffs], point, prec)
        got = mpc(mpf(data["value"][0]), mpf(data["value"][1]))
        return [] if _rel_ok(got, want, DOUBLE_REL) else [_fail("series_value")]

    def certify_verify(text):
        data = json.loads(text)
        out = [] if data["status"] == "pass" else [_fail("certificate_status", data["status"])]
        with mp.workprec(prec):
            want = [mpf("0.5") ** v for v in sq[:8]]
            got = [mpf(re) for re, im in data["spectrum"][1:]]
            if len(got) != 8 or not all(_rel_ok(g, w, DOUBLE_REL) for g, w in zip(got, want)):
                out.append(_fail("spectrum_report"))
        return out

    def hereditary_verify(text):
        out = []
        # the first column lists indices with unquoted commas
        rows = _csv_rows(text, fields=4)
        for key, _, sigma, invertible in rows:
            n1 = tuple(int(i) for i in key.split(",")) if key != "-" else ()
            n2 = tuple(i for i in range(1, 9) if i not in n1)
            want = systems8.sigma_min(n1, n2)
            if not _rel_ok(mpf(sigma), want, 1e-20) or invertible != "1":
                out.append(_fail("block_identity_sigma_min", key))
        return out if len(rows) == 32 else out + [_fail("row_count")]

    systems8 = oracle.MixedSystems(sq[:8], prec)

    def hardy_verify(text):
        return [] if json.loads(text)["member"] == "yes" else [_fail("h2_member")]

    common = ["--bits", str(bits)]
    specs = [
        ("cli_gen_exponents", ["gen-exponents", "--kind", "power", "--p", "2", "--n", "12",
                               "--out", "lambda.json"], "lambda.json", gen_verify),
        ("cli_gram_csv", ["gram", "--lambda", "lambda.json", "--n", "10", *common, "--format", "csv",
                          "--out", "gram.csv"], "gram.csv", gram_csv_verify),
        ("cli_gram_json", ["gram", "--lambda", "lambda.json", "--n", "10", *common,
                           "--out", "gram.json"], "gram.json", gram_json_verify),
        ("cli_distance", ["distance", "--lambda", "lambda.json", "--n", "10", "--all", "--eps", "0.5",
                          *common, "--out", "dist.jsonl"], "dist.jsonl", distance_verify),
        ("cli_biorthogonal", ["biorthogonal", "--lambda", "lambda.json", "--n", "10", *common,
                              "--out", "duals.json"], "duals.json", duals_verify),
        ("cli_project", ["project", "--f", "series.json", "--n", "10", *common, "--out", "proj.json"],
         "proj.json", project_verify),
        ("cli_recover", ["recover", "--f", "series.json", "--n", "10", "--all", *common,
                         "--out", "rec.jsonl"], "rec.jsonl", recover_verify),
        ("cli_eval", ["eval", "--f", "series.json", f"--z={zarg}", *common], None, eval_verify),
        ("cli_operator_certify", ["operator", "certify", "--lambda", "lambda.json", "--rho", "0.5",
                                  "--n", "8", *common, "--out", "cert.json"], "cert.json",
         certify_verify),
        ("cli_hereditary", ["hereditary", "--lambda", "lambda.json", "--n", "8", "--partitions",
                            "sample:32", "--seed", str(seed), *common, "--out", "mixed.csv"],
         "mixed.csv", hereditary_verify),
        ("cli_hardy", ["hardy", "--lambda", "lambda.json", "--rule", "inv_n", "--k", "1000",
                       *common, "--out", "hardy.json"], "hardy.json", hardy_verify),
    ]
    jobs = [Job(kind, lambda argv=argv: child(argv), artifact(out), exit_ok(fn))
            for kind, argv, out, fn in specs]
    return Workload("cli", jobs, CLI_KINDS)
