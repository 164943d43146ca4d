"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see every verdict line.
Criterion 9 checks the dual norm growth: 9a the trend of the ratios
log||r_n|| / lambda_n, 9b the bound in the constant form the theory states,
||r_n|| <= m (1+eps)^lambda_n with a constant m.  9b fits m, refits it
from the Cauchy product formula for the distances D_{n,N} = 1/||r_n||, and
checks it against the Cauchy-Schwarz floor sqrt(3)/(1+eps)^lambda_1 that
1 = <e_1, r_1> <= ||e_1|| ||r_1|| imposes.  The reading m = 1, i.e.
max_n log||r_n|| / lambda_n <= log(1+eps), cannot hold for any correct dual
family.
"""

import random
import time

import mpmath
import pytest
from mpmath import log, matrix, mpf, pi, sqrt

from muntzlab import (
    MuntzSeries,
    Partition,
    all_partitions,
    cauchy_determinant,
    cauchy_inverse,
    distance,
    dual_family,
    dilation_operator,
    finite_rank_error,
    finite_series,
    generate_exponents,
    gram_matrix,
    h2_membership,
    mixed_completeness_check,
    mixed_reconstruction_residual,
    norm_growth_check,
    project,
    projection_residual,
    quadratic_form_partial_sums,
    radial_l2_bound,
    recovered_coefficients,
    rule_from_name,
    sample_partitions,
    synthesis_certificate,
    working_precision,
)
from muntzlab.biorthogonal import biorthogonality_residual

LAM_SQ = generate_exponents("power", {"p": 2}, 12)
LAM_12 = generate_exponents("integers", {"values": [1, 2]}, 2)


def verdict(num, ok, detail):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_biorthogonality():
    t0 = time.perf_counter()
    fam = dual_family(LAM_SQ, 10, 256)
    residual = biorthogonality_residual(fam)
    elapsed = time.perf_counter() - t0
    verdict(1, residual < mpf("1e-40") and elapsed < 10.0,
            f"max biorthogonality residual {mpmath.nstr(residual, 3)} "
            f"(< 1e-40) in {elapsed:.2f}s (< 10s)")


def test_criterion_2_closed_form_vs_oracle():
    worst_det = mpf(0)
    worst_inv = mpf(0)
    with working_precision(256):
        for N in range(1, 9):
            G = gram_matrix(LAM_SQ.prefix(N), 256)
            det = cauchy_determinant(G)
            lu_det = mpmath.det(matrix(G.entries))
            worst_det = max(worst_det, abs(det - lu_det) / abs(lu_det))
            M, _ = cauchy_inverse(G)
            for j in range(N):
                e = matrix([1 if i == j else 0 for i in range(N)])
                col = mpmath.lu_solve(matrix(G.entries), e)
                for i in range(N):
                    worst_inv = max(worst_inv, abs(M[i][j] - col[i]) / abs(col[i]))
    verdict(2, worst_det < mpf("1e-25") and worst_inv < mpf("1e-25"),
            f"N<=8 rel err vs oracles: det {mpmath.nstr(worst_det, 3)}, "
            f"inverse {mpmath.nstr(worst_inv, 3)} (< 1e-25)")


def test_criterion_3_distance_duality():
    worst = mpf(0)
    for n in range(1, 11):
        rep = distance(LAM_SQ, n, 10, 256)
        worst = max(worst, abs(rep.distance * rep.dual_norm - 1))
    d1 = distance(LAM_12, 1, 2, 256).distance
    d2 = distance(LAM_12, 2, 2, 256).distance
    with working_precision(256):
        hand_ok = (abs(d1 - 1 / (4 * sqrt(mpf(3)))) < mpf("1e-20")
                   and abs(d2 - 1 / (4 * sqrt(mpf(5)))) < mpf("1e-20"))
    verdict(3, worst < mpf("1e-25") and hand_ok,
            f"max |D_n * ||r_n|| - 1| = {mpmath.nstr(worst, 3)} (< 1e-25); "
            "hand values 1/(4*sqrt(3)), 1/(4*sqrt(5)) reproduced to 1e-20")


def test_criterion_4_representation_round_trip():
    fam = dual_family(LAM_SQ, 10, 256)
    expected = [0, 3, 0, 0, 0, 0, -5, 0, 0, 0]
    lam_sub = generate_exponents("integers", {"values": [4, 49]}, 2)
    analytic = recovered_coefficients(finite_series(lam_sub, [3, -5]), fam)
    err_analytic = max(abs(a - e) for a, e in zip(analytic, expected))
    quad = recovered_coefficients(lambda t: 3 * t ** 4 - 5 * t ** 49, fam)
    err_quad = max(abs(a - e) for a, e in zip(quad, expected))
    verdict(4, err_analytic < mpf("1e-40") and err_quad < mpf("1e-8"),
            f"recovered (0,3,0,...,-5,...): analytic err {mpmath.nstr(err_analytic, 3)} "
            f"(machine-exact at 256 bits), quadrature err {mpmath.nstr(err_quad, 3)} (< 1e-8)")


def test_criterion_5_projection():
    fam2 = dual_family(LAM_12, 2, 256)
    f_star = project(lambda t: t ** 3, fam2)
    coeff_ok = (abs(f_star.coeffs[0] + mpf(2) / 5) < mpf("1e-20")
                and abs(f_star.coeffs[1] - mpf(4) / 3) < mpf("1e-20"))
    residual = projection_residual(lambda t: t ** 3, fam2, f_star)
    residual_ok = abs(residual - mpf("0.02520")) < mpf("1e-4")

    fam10 = dual_family(LAM_SQ, 10, 256)
    rng = random.Random(11)
    lam_targets = generate_exponents("integers", {"values": [2, 3, 5, 7, 11]}, 5)
    worst_idem = mpf(0)
    worst_ls = mpf(0)
    with working_precision(256):
        G = matrix(fam10.gram.entries)
        for _ in range(20):
            f = finite_series(lam_targets, [mpf(rng.uniform(-2, 2)) for _ in range(5)])
            once = project(f, fam10)
            twice = project(once, fam10)
            worst_idem = max(worst_idem, max(abs(a - b) for a, b in zip(once.coeffs, twice.coeffs)))
            b = matrix([sum(c / (mpf(mu) + lv + 1) for mu, c in f.term_items())
                        for lv in fam10.lam.values[:10]])
            a = mpmath.lu_solve(G, b)
            worst_ls = max(worst_ls, max(abs(a[n] - once.coeffs[n]) for n in range(10)))
    verdict(5, coeff_ok and residual_ok and worst_idem < mpf("1e-20") and worst_ls < mpf("1e-20"),
            f"f* = -(2/5)t + (4/3)t^2; residual {mpmath.nstr(residual, 5)} = 0.02520 +- 1e-4; "
            f"idempotence {mpmath.nstr(worst_idem, 3)}, normal-equations agreement "
            f"{mpmath.nstr(worst_ls, 3)} over 20 random series (< 1e-20)")


def test_criterion_6_operator_certificate():
    fam2 = dual_family(LAM_12, 2, 256)
    op2 = dilation_operator(LAM_12, 0.5, 2)
    cert2 = synthesis_certificate(op2, fam2)
    eigs = sorted(abs(s) for s in cert2.spectrum)
    hand_ok = (cert2.status == "pass"
               and [float(e) for e in eigs] == pytest.approx([0.0, 0.25, 0.5])
               and abs(float(cert2.normality_defect) - 1.36931) < 1e-4)
    fr1, _ = finite_rank_error(op2, fam2, 1)
    hand_ok = hand_ok and abs(fr1 - 1) < mpf("1e-6")

    t0 = time.perf_counter()
    fam10 = dual_family(LAM_SQ, 10, 512)
    op10 = dilation_operator(LAM_SQ, 0.5, 10)
    cert10 = synthesis_certificate(op10, fam10)
    elapsed = time.perf_counter() - t0
    fr = cert10.finite_rank_errors
    decreasing = all(fr[m + 1][1] < fr[m][1] for m in range(1, 10))
    under = all(c <= b for _, c, b in fr)
    big_ok = (cert10.status == "pass" and cert10.eigen_residual < mpf("1e-40")
              and decreasing and under and elapsed < 60.0)
    verdict(6, hand_ok and big_ok,
            "2x2: eigenvalues {0.5, 0.25}, defect 1.36931 +- 1e-4, ||T-T_1|| = 1 +- 1e-6; "
            f"N=10 @512 bits: all seven items pass, eigen residual "
            f"{mpmath.nstr(cert10.eigen_residual, 3)} (< 1e-40), finite-rank errors "
            f"strictly decreasing under the envelope, in {elapsed:.1f}s (< 60s)")


def test_criterion_7_hereditary_completeness():
    fam10 = dual_family(LAM_SQ, 10, 256)
    invertible = 0
    for part in all_partitions(10):
        if mixed_completeness_check(part, fam10).invertible:
            invertible += 1
    t3 = finite_series(generate_exponents("integers", {"values": [3]}, 1), [1])
    residuals = [mixed_reconstruction_residual(t3, part, fam10)
                 for part in sample_partitions(10, 64, seed=0)]
    spread = max(residuals) - min(residuals)
    trend = []
    for N in (4, 6, 8, 10):
        famN = dual_family(LAM_SQ, N, 256)
        part = Partition.from_monomial_set(range(1, N + 1, 2), N)
        trend.append(mixed_reconstruction_residual(t3, part, famN))
    monotone = all(trend[i + 1] <= trend[i] for i in range(len(trend) - 1))
    verdict(7, invertible == 1024 and spread < mpf("1e-20") and monotone,
            f"all 1024 partitions invertible; t^3 residual spread over 64 sampled "
            f"partitions {mpmath.nstr(spread, 3)} (< 1e-20); residual non-increasing "
            f"over N=4,6,8,10: {[float(mpmath.nstr(r, 5)) for r in trend]}")


def test_criterion_8_hardy():
    f_yes = MuntzSeries(LAM_SQ, (), rule_from_name("inv_n"))
    f_no = MuntzSeries(LAM_SQ, (), rule_from_name("inv_sqrt_n"))
    member_yes = h2_membership(f_yes, K=1000).member == "yes"
    member_no = h2_membership(f_no, K=1000).member == "no"

    sums = dict(quadratic_form_partial_sums(rule_from_name("inv_sqrt_n"), LAM_SQ,
                                            [125, 250, 500, 1000]))
    bounded = sums[1000] < 1.5
    cauchy = (sums[250] - sums[125] > sums[500] - sums[250] > sums[1000] - sums[500]
              and sums[1000] - sums[500] < 0.005)

    radial_ok = True
    angles = [0.0, float(pi) / 4, float(pi) / 2, 3 * float(pi) / 4, float(pi)]
    bounds = []
    for theta in angles:
        rep = radial_l2_bound(f_yes, theta, K=100, precision_bits=128)
        radial_ok = radial_ok and (rep.numeric_integral + rep.remainder_bound <= rep.bound_M)
        bounds.append(rep.bound_M)
    theta_free = all(b == bounds[0] for b in bounds)
    verdict(8, member_yes and member_no and bounded and cauchy and radial_ok and theta_free,
            "c_n=1/n member=yes; c_n=n^(-1/2) member=no with quadratic-form sums "
            f"bounded ({sums[1000]:.6f} < 1.5) and Cauchy; radial integral + sliver "
            "bound <= M at theta in {0, pi/4, pi/2, 3pi/4, pi}, M theta-independent")


def test_criterion_9a_norm_growth_trend():
    fam = dual_family(LAM_SQ, 12, 512)
    report = norm_growth_check(fam, 0.05)
    verdict("9a", report.trailing_nonincreasing_from(4),
            "per-n ratio log||r_n||/lambda_n non-increasing for n >= 4 "
            f"(ratios n=4..12: {[round(float(r), 4) for r in report.ratios[3:]]})")


def test_criterion_9b_norm_growth_bound():
    epsilon, N, bits = 0.05, 12, 512
    fam = dual_family(LAM_SQ, N, bits)
    report = norm_growth_check(fam, epsilon)
    rel_tol = mpf("1e-40")
    with working_precision(bits):
        eps = mpf(epsilon)  # the binary 0.05 that norm_growth_check fits with
        growth = [(1 + eps) ** mpf(v) for v in LAM_SQ.values[:N]]
        # the constant again from the Cauchy product formula for D_{n,N},
        # independent of the Gram inverse behind fam.norms
        fits = [1 / (distance(LAM_SQ, n, N, bits).distance * g)
                for n, g in enumerate(growth, start=1)]
        m_ind = max(fits)
        argmax = fits.index(m_ind) + 1
        agreement = abs(report.m_fit - m_ind) / m_ind
        # relative slack for the rounding of m_fit * (1+eps)^lambda_n at the argmax
        bounded = all(nrm <= report.m_fit * g * (1 + rel_tol)
                      for nrm, g in zip(fam.norms, growth))
        above_floor = report.m_fit >= sqrt(mpf(3)) / growth[0]
        floor = log(sqrt(mpf(3)))
    verdict("9b", agreement < rel_tol and bounded and above_floor,
            f"m_fit = {mpmath.nstr(report.m_fit, 9)} at n = {argmax} (Cauchy-product "
            f"refit agrees to rel {mpmath.nstr(agreement, 3)} (< 1e-40)); "
            f"||r_n^({N})|| <= m_fit (1+{epsilon})^lambda_n for n <= {N}; "
            f"m_fit >= sqrt(3)/(1+{epsilon})^lambda_1, the Cauchy-Schwarz floor behind "
            f"max_ratio = {mpmath.nstr(report.max_ratio, 6)} >= log(sqrt(3)) = "
            f"{mpmath.nstr(floor, 6)}; m_fit is fitted on the N={N} truncation, a lower "
            "bound for the full system's constant since D_{n,N} decreases in N")
