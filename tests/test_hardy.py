import pytest
from mpmath import cos, exp, log, mpf, pi, sin

from muntzlab import (
    CoefficientRule,
    DomainError,
    InputError,
    MuntzSeries,
    closure_membership_via_frame,
    dual_family,
    finite_series,
    generate_exponents,
    h2_membership,
    quadratic_form_partial_sums,
    radial_l2_bound,
    rule_from_name,
    working_precision,
)

LAM_SQ = generate_exponents("power", {"p": 2}, 12)


def series(rule_name):
    return MuntzSeries(LAM_SQ, (), rule_from_name(rule_name))


# ---------------------------------------------------------------------------
# coefficient square-sum membership


def test_inv_n_is_member():
    report = h2_membership(series("inv_n"), K=1000)
    assert report.member == "yes"
    # partial sums approach pi^2/6 from below
    ks, sums = zip(*report.l2_coeff_sums)
    assert all(sums[i] < sums[i + 1] for i in range(len(sums) - 1))
    assert sums[-1] < pi ** 2 / 6


def test_inv_sqrt_n_is_not_member():
    report = h2_membership(series("inv_sqrt_n"), K=1000)
    assert report.member == "no"
    assert report.coefficient_certificate == "divergent"


def test_finite_series_always_member():
    f = finite_series(LAM_SQ.prefix(5), [1, 2, 3, 4, 5])
    assert h2_membership(f).member == "yes"


def test_partial_sums_read_the_stored_prefix_before_the_rule():
    # c_1..c_3 = 5 are stored and the rule 1/n supplies the rest
    lam = generate_exponents("integers", {"values": list(range(1, 21))}, 20)
    report = h2_membership(MuntzSeries(lam, (5, 5, 5), rule_from_name("inv_n")), K=8)
    assert report.member == "yes"
    with working_precision(128):
        tail = sum(mpf(1) / n ** 2 for n in range(4, 9))
        want = [(1, 25), (2, 50), (4, 75 + mpf(1) / 16), (8, 75 + tail)]
        for (k, got), (k_want, value) in zip(report.l2_coeff_sums, want):
            assert k == k_want and abs(got - value) <= mpf(2) ** -120 * value
    assert len(report.l2_coeff_sums) == len(want)


def test_membership_requires_integer_exponents():
    lam = generate_exponents("custom", {"values": [0.5, 1.5, 3.5]}, 3)
    with pytest.raises(DomainError):
        h2_membership(MuntzSeries(lam, (), rule_from_name("inv_n")))


def test_uncertified_rule_is_inconclusive():
    rule = CoefficientRule("mystery", {}, lambda n: 1.0 / (n * log(n + 1)), None)
    report = h2_membership(MuntzSeries(LAM_SQ, (), rule), K=200)
    assert report.member == "inconclusive"


# ---------------------------------------------------------------------------
# the counterexample family: divergent square-sum, bounded quadratic form


def test_counterexample_quadratic_form_bounded_and_cauchy():
    sums = quadratic_form_partial_sums(rule_from_name("inv_sqrt_n"), LAM_SQ,
                                       [125, 250, 500, 1000])
    values = dict(sums)
    # frozen from the float oracle
    assert values[125] == pytest.approx(1.4561812224, abs=1e-6)
    assert values[250] == pytest.approx(1.4690755676, abs=1e-6)
    assert values[500] == pytest.approx(1.4756732999, abs=1e-6)
    assert values[1000] == pytest.approx(1.4790236182, abs=1e-6)
    seq = [v for _, v in sums]
    assert all(seq[i] < seq[i + 1] for i in range(len(seq) - 1))   # monotone
    assert seq[-1] < 1.5                                           # bounded
    assert seq[-1] - values[500] < 0.005                           # Cauchy increments
    # while the coefficient square-sum keeps growing without a bound in sight
    report = h2_membership(series("inv_sqrt_n"), K=1000)
    ks, csums = zip(*report.l2_coeff_sums)
    assert csums[-1] > 0.9 * log(1000)


# ---------------------------------------------------------------------------
# closure membership via projections + recovered coefficients


def test_frame_finite_series_yes(fam_squares_12):
    f = finite_series(fam_squares_12.lam.prefix(3), [1, -2, 3])
    report = closure_membership_via_frame(f, fam_squares_12)
    assert report.member == "yes"
    assert report.closure_flag == "yes"
    got = report.recovered
    assert abs(got[0] - 1) < 1e-40 and abs(got[1] + 2) < 1e-40 and abs(got[2] - 3) < 1e-40
    assert max(abs(c) for c in got[3:]) < 1e-40


def test_frame_black_box_truncated_series(fam_squares_12):
    cs = [1 / mpf(n) for n in range(1, 13)]

    def f(t):
        t = mpf(t)
        return sum(c * t ** (n * n) for n, c in enumerate(cs, start=1))

    report = closure_membership_via_frame(f, fam_squares_12)
    assert report.member == "yes"
    assert max(abs(report.recovered[n] - cs[n]) for n in range(12)) < 1e-8


def test_frame_monomial_outside_the_span(fam_squares_12):
    # mu = 5 is an integer not among the squares; the residual stagnates
    # at the positive distance predicted by the closed product formula
    t5 = finite_series(generate_exponents("integers", {"values": [5]}, 1), [1])
    report = closure_membership_via_frame(t5, fam_squares_12)
    assert report.member == "no"
    assert report.closure_flag == "no"
    with working_precision(256):
        mu = mpf(5)
        for N, residual in report.residual_trend:
            # independent oracle: distance product for a foreign exponent
            acc = -log(2 * mu + 1) / 2
            for k in range(1, N + 1):
                acc += log(abs(mu - k * k)) - log(mu + k * k + 1)
            floor = exp(acc)
            assert abs(residual - floor) <= 1e-78 * floor
    ns = [N for N, _ in report.residual_trend]
    rs = [r for _, r in report.residual_trend]
    assert ns == sorted(ns)
    assert all(rs[i + 1] <= rs[i] for i in range(len(rs) - 1))


def test_frame_requires_integer_exponents():
    lam = generate_exponents("custom", {"values": [0.5, 1.5, 3.5, 7.5]}, 4)
    fam = dual_family(lam, 4, 256)
    with pytest.raises(DomainError):
        closure_membership_via_frame(lambda t: t, fam)


# ---------------------------------------------------------------------------
# radial integral bound


def test_radial_single_term_equality():
    lam1 = generate_exponents("integers", {"values": [1]}, 1)
    f = finite_series(lam1, [1])
    rep = radial_l2_bound(f, 0.0)
    assert abs(rep.bound_M - mpf(1) / 3) < 1e-40
    assert abs(rep.numeric_integral - mpf(1) / 3) < 1e-20
    assert rep.remainder_bound == 0


def test_radial_zero_series():
    lam1 = generate_exponents("integers", {"values": [1]}, 1)
    rep = radial_l2_bound(finite_series(lam1, [0]), 0.0)
    assert rep.bound_M == 0 and rep.numeric_integral == 0


def test_radial_bound_inv_n_all_angles():
    f = series("inv_n")
    angles = [0.0, float(pi) / 4, float(pi) / 2, 3 * float(pi) / 4, float(pi)]
    bounds = []
    for theta in angles:
        rep = radial_l2_bound(f, theta, K=100, precision_bits=128)
        assert rep.numeric_integral + rep.remainder_bound <= rep.bound_M
        bounds.append(rep.bound_M)
    # M never involves theta
    assert all(b == bounds[0] for b in bounds)
    # and matches the two-factor closed form within the tail allowances
    with working_precision(128):
        first = sum(mpf(1) / (n * n) for n in range(1, 101))
        second = sum(mpf(1) / (2 * n * n + 1) for n in range(1, 101))
        assert first * second < bounds[0] < (first + mpf("0.02")) * (second + mpf("0.02"))


def test_radial_bound_requires_certificates():
    with pytest.raises(InputError):
        radial_l2_bound(series("inv_sqrt_n"), 0.0, K=50, precision_bits=128)
    lam = generate_exponents("integers", {"values": [1, 4, 9, 16]}, 4)
    rule = rule_from_name("inv_n")
    with pytest.raises(InputError):
        # integers kind carries no reciprocal-tail certificate
        radial_l2_bound(MuntzSeries(lam, (), rule), 0.0, K=50, precision_bits=128)
    with pytest.raises(DomainError):
        lam_frac = generate_exponents("custom", {"values": [0.5, 1.5]}, 2)
        radial_l2_bound(MuntzSeries(lam_frac, (), rule), 0.0)


def test_radial_closed_form_phase_on_cross_terms():
    # |z + z^4|^2 = t^2 + t^8 + 2 t^5 cos(3 theta) on z = t e^(i theta)
    lam = generate_exponents("integers", {"values": [1, 4]}, 2)
    theta = float(pi) / 3
    rep = radial_l2_bound(finite_series(lam, [1, 1]), theta)
    with working_precision(512):
        exact = mpf(1) / 3 + mpf(1) / 9 + 2 * cos(3 * mpf(theta)) / 6
        assert abs(rep.numeric_integral - exact) <= rep.quad_error
    assert 0 < rep.quad_error < 1e-60
    assert rep.boundary_cut == 0.0 and rep.remainder_bound == 0


@pytest.mark.parametrize("theta", [0.0, float(pi) / 2])
def test_radial_inv_n_within_quad_error_of_longer_form(theta):
    rep = radial_l2_bound(series("inv_n"), theta, K=100, precision_bits=128)
    # the same integral over [0, 1 - cut] from 320 terms at 192 bits; past
    # n = 320 every term carries (1 - cut)^(n^2) < 1e-44
    with working_precision(192):
        a = 1 - mpf(rep.boundary_cut)
        x = [n * n for n in range(1, 321)]
        w = [a ** (v + mpf(1) / 2) / n for n, v in enumerate(x, start=1)]
        cw = [wn * cos(mpf(theta) * v) for wn, v in zip(w, x)]
        sw = [wn * sin(mpf(theta) * v) for wn, v in zip(w, x)]
        ref = mpf(0)
        for n in range(len(x)):
            ref += w[n] ** 2 / (2 * x[n] + 1)
            for m in range(n + 1, len(x)):
                ref += 2 * (cw[n] * cw[m] + sw[n] * sw[m]) / (x[n] + x[m] + 1)
        assert abs(rep.numeric_integral - ref) <= rep.quad_error
    assert rep.quad_error < 1e-25
