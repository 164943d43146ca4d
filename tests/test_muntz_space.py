import random

import mpmath
import pytest
from mpmath import matrix, mp, mpc, mpf, sqrt

from muntzlab import (
    ConvergenceError,
    DomainError,
    InputError,
    MuntzSeries,
    NonMemberSignal,
    ParameterError,
    QuadratureError,
    approximate_in_span,
    coefficient_recover,
    dual_family,
    evaluate,
    finite_series,
    generate_exponents,
    l2_norm,
    power_rule,
    project,
    projection_residual,
    quadrature_inner_product,
    recovered_coefficients,
    rule_from_name,
    series_inner_product,
    working_precision,
)
from muntzlab import muntz_space
from muntzlab.gram import gram_form
from muntzlab.muntz_space import (
    _quad_form,
    _rule_series_tail_product_bound,
    moments_and_norm2,
    monomial_moments,
    quad_unit_interval,
)

LAM_12 = generate_exponents("integers", {"values": [1, 2]}, 2)
LAM_SQ = generate_exponents("power", {"p": 2}, 12)


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_monomial():
    f = finite_series(generate_exponents("integers", {"values": [1]}, 1), [1])
    assert abs(evaluate(f, mpf("0.5")) - mpf("0.5")) < 1e-70


def test_evaluate_principal_branch():
    f = finite_series(generate_exponents("custom", {"values": [0.5]}, 1), [1])
    got = evaluate(f, mpc(0, 1))
    want = mp.e ** (mpc(0, 1) * mp.pi / 4)
    assert abs(got - want) < 1e-70


def test_evaluate_rule_series_matches_partial_sum_oracle():
    f = MuntzSeries(LAM_SQ, (), rule_from_name("inv_n"))
    got = evaluate(f, mpf("0.5"), tol=1e-12)
    brute = sum(mpf("0.5") ** (n * n) / n for n in range(1, 51))
    assert abs(got - brute) < 1e-12


@pytest.mark.parametrize("z", [mpf("0.9"), mpc("0.5", "0.6"), mpc("-0.4", "0.8"), mpc(0, "0.9")])
def test_evaluate_agrees_with_partial_sums_inside_radius_09(z):
    lam = generate_exponents("power", {"p": 2}, 40)
    f = MuntzSeries(lam, (), rule_from_name("inv_n"))
    got = evaluate(f, z, tol=1e-15)
    brute = sum(mpc(z) ** (n * n) / n for n in range(1, 41))
    assert abs(got - brute) < 1e-13


def test_evaluate_at_zero_and_domain_errors():
    f = MuntzSeries(LAM_SQ, (), rule_from_name("inv_n"))
    assert evaluate(f, 0) == 0
    with pytest.raises(DomainError):
        evaluate(f, mpf("1.5"))
    with pytest.raises(DomainError):
        evaluate(f, mpc(1, 0))  # boundary rejected for rule-backed series
    g = finite_series(generate_exponents("custom", {"values": [0.5]}, 1), [1])
    with pytest.raises(DomainError):
        evaluate(g, mpf("-0.5"))  # slit point, non-integer exponent
    h = finite_series(LAM_12, [1, 1])
    assert abs(evaluate(h, mpf("-0.5")) - (-mpf("0.25"))) < 1e-60  # integer exponents allow it


def test_evaluate_short_prefix_raises():
    lam4 = generate_exponents("power", {"p": 2}, 4)
    f = MuntzSeries(lam4, (), rule_from_name("inv_n"))
    with pytest.raises(ConvergenceError):
        evaluate(f, mpf("0.99"), tol=1e-30)


# ---------------------------------------------------------------------------
# exact inner products


def test_l2_norm_hand_values():
    t = finite_series(generate_exponents("integers", {"values": [1]}, 1), [1])
    assert abs(l2_norm(t) - 1 / sqrt(mpf(3))) < 1e-70
    f = finite_series(LAM_12, [1, -1])
    assert abs(l2_norm(f) - sqrt(mpf(1) / 30)) < 1e-70
    z = finite_series(LAM_12, [0, 0])
    assert l2_norm(z) == 0


def test_gram_form_hand_values_and_error_bound():
    # ||t - t^2||^2 = 1/3 - 2/4 + 1/5 and ||t + i t^2||^2 = 1/3 + 1/5
    with working_precision(256):
        value, err = gram_form([1, 2], [1, -1])
        assert abs(value - mpf(1) / 30) <= err < 1e-70
        value, err = gram_form([1, 2], [1, mpc(0, 1)])
        assert abs(value - (mpf(1) / 3 + mpf(1) / 5)) <= err < 1e-70
        assert gram_form([1, 2], [0, 0]) == (0, 0)
        # non-integer exponents: ||t^(1/2) - t^(3/2)||^2 = 1/2 - 2/3 + 1/4 and
        # <t^(1/2), t^(3/2)> = 1/3, both dyadic exponents summed exactly
        half, three_halves = mpf(1) / 2, mpf(3) / 2
        value, err = gram_form([half, three_halves], [1, -1])
        assert abs(value - mpf(1) / 12) <= err < 1e-70
        value, err = gram_form([half], [1], other=([three_halves], [1]))
        assert abs(value - mpf(1) / 3) <= err < 1e-70


def test_series_inner_product_cross_exponents():
    f = finite_series(generate_exponents("integers", {"values": [3]}, 1), [1])
    g = finite_series(LAM_12, [48, -60])
    # <t^3, 48t - 60t^2> = 48/5 - 60/6
    assert abs(series_inner_product(f, g) - (mpf(48) / 5 - 10)) < 1e-60


# ---------------------------------------------------------------------------
# quadrature


def test_quadrature_basic_values():
    t_series = finite_series(generate_exponents("integers", {"values": [1]}, 1), [1])
    v, err = quadrature_inner_product(lambda t: t, t_series)
    assert abs(v - mpf(1) / 3) < 1e-12 and err < 1e-12
    v, _ = quadrature_inner_product(lambda t: 1, t_series)
    assert abs(v - mpf(1) / 2) < 1e-12


def test_quadrature_against_dual(fam_12):
    r1 = finite_series(LAM_12, fam_12.dual_coefficients(1))
    v, _ = quadrature_inner_product(lambda t: t ** 3, r1)
    assert abs(v - (-mpf(2) / 5)) < 1e-10


def test_quadrature_failure_reports_achieved(monkeypatch):
    monkeypatch.setattr(muntz_space, "_QUAD_MAXDEGREE", 3)
    monkeypatch.setattr(muntz_space, "_QUAD_ROUNDS", 0)
    with pytest.raises(QuadratureError) as info:
        quad_unit_interval(lambda t: mp.sin(1 / (t + mpf("1e-30"))), 64)
    assert info.value.achieved is not None


def test_monomial_moments_rejects_more_moments_than_exponents():
    for f in (lambda t: t, finite_series(LAM_12, [1, 1])):
        with pytest.raises(InputError):
            monomial_moments(f, LAM_12, 3)


# ---------------------------------------------------------------------------
# coefficient recovery


def test_recover_round_trip_exact(fam_squares_10):
    coeffs = tuple(mpf(k + 1) * (-1) ** k for k in range(10))
    f = MuntzSeries(fam_squares_10.lam, coeffs)
    got = recovered_coefficients(f, fam_squares_10)
    assert max(abs(g - c) for g, c in zip(got, coeffs)) < 1e-40


def test_recover_is_biorthogonal_delta(fam_squares_10):
    e2 = finite_series(fam_squares_10.lam.prefix(2), [0, 1])
    got = recovered_coefficients(e2, fam_squares_10)
    assert abs(got[1] - 1) < 1e-40
    assert max(abs(got[n]) for n in range(10) if n != 1) < 1e-40


def test_recover_sparse_combination(fam_squares_10):
    lam_sub = generate_exponents("integers", {"values": [4, 49]}, 2)
    f = finite_series(lam_sub, [3, -5])
    got = recovered_coefficients(f, fam_squares_10)
    expected = [0, 3, 0, 0, 0, 0, -5, 0, 0, 0]
    assert max(abs(g - c) for g, c in zip(got, expected)) < 1e-40


def test_recover_black_box(fam_12):
    got = coefficient_recover(lambda t: t ** 3, fam_12, 1)
    assert abs(got - (-mpf(2) / 5)) < 1e-10
    with pytest.raises(InputError):
        coefficient_recover(lambda t: t, fam_12, 3)


# ---------------------------------------------------------------------------
# projection


def test_project_hand_example(fam_12):
    f_star = project(lambda t: t ** 3, fam_12)
    assert abs(f_star.coeffs[0] - (-mpf(2) / 5)) < 1e-20
    assert abs(f_star.coeffs[1] - mpf(4) / 3) < 1e-20
    res = projection_residual(lambda t: t ** 3, fam_12, f_star)
    assert abs(res - sqrt(mpf(1) / 1575)) < 1e-10
    assert abs(res - mpf("0.02520")) < 1e-4


def _counted(fn):
    def f(t):
        f.calls += 1
        return fn(t)
    f.calls = 0
    return f


def test_projection_residual_takes_one_pass(fam_12):
    # without f_star, moments and ||f||^2 come from one pass of the black box
    f, g = _counted(lambda t: t ** 3), _counted(lambda t: t ** 3)
    res = projection_residual(f, fam_12)
    moments_and_norm2(g, fam_12.lam, 2, precision_bits=fam_12.precision_bits)
    assert f.calls == g.calls > 0
    assert abs(res - sqrt(mpf(1) / 1575)) < 1e-20


def _bare(f_star):
    """The same series without the quadrature pass project attached to it."""
    return MuntzSeries(f_star.lam, f_star.coeffs)


def test_project_and_residual_take_one_pass(fam_12):
    f, g = _counted(lambda t: t ** mpf("2.3")), _counted(lambda t: t ** mpf("2.3"))
    f_star = project(f, fam_12)
    res = projection_residual(f, fam_12, f_star)
    moments_and_norm2(g, fam_12.lam, 2, precision_bits=fam_12.precision_bits)
    assert f.calls == g.calls > 0
    # the carried pass takes no part in comparisons; without it the residual
    # makes a second pass and gives the same bits
    assert _bare(f_star) == f_star and repr(_bare(f_star)) == repr(f_star)
    assert repr(projection_residual(f, fam_12, _bare(f_star))) == repr(res)
    assert f.calls == 2 * g.calls


def test_residual_integrates_an_equal_but_different_black_box(fam_12):
    f_star = project(lambda t: t ** 3, fam_12)
    g = _counted(lambda t: t ** 3)
    res = projection_residual(g, fam_12, f_star)
    assert g.calls > 0
    assert repr(res) == repr(projection_residual(lambda t: t ** 3, fam_12, _bare(f_star)))


def test_residual_integrates_for_another_bit_count(fam_12, lam_12):
    f = _counted(lambda t: t ** 3)
    f_star = project(f, fam_12)
    fam = dual_family(lam_12, 2, 128)
    calls = f.calls
    res = projection_residual(f, fam, f_star)
    assert f.calls > calls
    assert repr(res) == repr(projection_residual(f, fam, _bare(f_star)))


def test_black_box_projection_at_64_bits_matches_256_bits(lam_squares):
    # the quadrature target follows the bits (10^-8 at 64), so a 64-bit
    # black-box projection runs and agrees with the 256-bit one to it
    f = lambda t: t ** 3
    runs = []
    for bits in (64, 256):
        fam = dual_family(lam_squares, 6, bits)
        f_star = project(f, fam)
        runs.append((f_star.coeffs, projection_residual(f, fam, f_star)))
    (coeffs_64, res_64), (coeffs_256, res_256) = runs
    assert max(abs(a - b) for a, b in zip(coeffs_64, coeffs_256)) < 1e-8
    assert abs(res_64 - res_256) < 1e-8


def test_unsettled_norm_does_not_fail_project(fam_12):
    # ||t^(-1/2)||^2 is the divergent integral of 1/t; the moments converge
    f = lambda t: 1 / sqrt(t)
    with pytest.raises(QuadratureError):
        moments_and_norm2(f, fam_12.lam, 2, precision_bits=fam_12.precision_bits)
    f_star = project(f, fam_12)
    assert [repr(c) for c in f_star.coeffs] == [repr(c) for c in recovered_coefficients(f, fam_12)]
    assert abs(f_star.coeffs[0] - 8) < 1e-20 and abs(f_star.coeffs[1] + 8) < 1e-20
    with pytest.raises(QuadratureError):
        projection_residual(f, fam_12, f_star)


def test_project_idempotent(fam_squares_10):
    f = MuntzSeries(fam_squares_10.lam, tuple(mpf(1) / (k + 1) for k in range(10)))
    once = project(f, fam_squares_10)
    twice = project(once, fam_squares_10)
    assert max(abs(a - b) for a, b in zip(once.coeffs, twice.coeffs)) < 1e-20
    assert projection_residual(f, fam_squares_10, once) < 1e-20


def test_project_matches_normal_equations_oracle(fam_squares_10):
    # oracle route: solve G a = b by LU, never touching the dual family
    lam_sub = generate_exponents("integers", {"values": [3, 7]}, 2)
    f = finite_series(lam_sub, [2, -1])
    f_star = project(f, fam_squares_10)
    with working_precision(fam_squares_10.precision_bits):
        G = matrix(fam_squares_10.gram.entries)
        b = matrix([sum(c / (mpf(mu) + lv + 1) for mu, c in f.term_items())
                    for lv in fam_squares_10.lam.values[:10]])
        a = mpmath.lu_solve(G, b)
        assert max(abs(a[n] - f_star.coeffs[n]) for n in range(10)) < 1e-20


def test_projection_optimality_randomized(fam_12):
    rng = random.Random(7)
    f = lambda t: t ** 3
    f_star = project(f, fam_12)
    best = projection_residual(f, fam_12, f_star)
    for _ in range(100):
        g = finite_series(LAM_12, [f_star.coeffs[0] + rng.uniform(-1, 1),
                                   f_star.coeffs[1] + rng.uniform(-1, 1)])
        diff = finite_series(LAM_12, [f_star.coeffs[0] - g.coeffs[0],
                                      f_star.coeffs[1] - g.coeffs[1]])
        # ||f - g||^2 = ||f - f*||^2 + ||f* - g||^2 by orthogonality
        other = sqrt(best ** 2 + l2_norm(diff) ** 2)
        assert best <= other + 1e-30


# ---------------------------------------------------------------------------
# dilation approximation


def test_approximate_finite_short_circuit():
    f = finite_series(LAM_12, [1, -1])
    ap = approximate_in_span(f, 1e-4)
    assert ap.rho == 1.0
    assert ap.certified_error == 0.0
    assert ap.polynomial is f
    assert ap.tail_certified


def test_approximate_inv_n_certified():
    f = MuntzSeries(LAM_SQ, (), rule_from_name("inv_n"))
    eps = 1e-3
    ap = approximate_in_span(f, eps)
    assert 0 < ap.rho < 1
    assert ap.certified_error < 2 * eps
    assert ap.tail_certified
    assert ap.dilation_error <= eps
    assert ap.n_terms <= ap.prefix_terms
    # deterministic
    ap2 = approximate_in_span(f, eps)
    assert ap2.rho == ap.rho and ap2.n_terms == ap.n_terms


def test_approximate_sqrt_rule_succeeds_with_uncertified_tail():
    f = MuntzSeries(LAM_SQ, (), rule_from_name("inv_sqrt_n"))
    ap = approximate_in_span(f, 1e-2)
    assert ap.certified_error < 2e-2
    assert not ap.tail_certified  # the analytic tail bound needs ~8e4 terms
    assert ap.tail_bound is not None


@pytest.mark.parametrize("K", [5, 600])
def test_blocked_complex_quadratic_form_matches_the_whole_product(K):
    np = pytest.importorskip("numpy")
    rng = np.random.default_rng(K)
    lams = np.arange(1, K + 1, dtype=float) ** 2
    A = 1.0 / (lams[:, None] + lams[None, :] + 1.0)
    d = rng.standard_normal(K) + 1j * rng.standard_normal(K)
    assert _quad_form(d, A) == float((d.conj() @ A @ d).real)
    assert _quad_form(d.real, A) == float((d.real @ A @ d.real).real)


@pytest.mark.parametrize("eps", [0.1, 1.0, 10.0])
def test_approximate_slowly_settling_member_is_not_signalled(eps):
    # c_n = n^-0.3 on lambda_n = n^1.5: the tail bound (10.72 at K = 256,
    # 9.33 at 4096) proves membership, while the prefix norm increments
    # decay too slowly for the heuristic that serves rules without a bound
    lam = generate_exponents("power", {"p": 1.5}, 16)
    f = MuntzSeries(lam, (), power_rule(0.3))
    ap = approximate_in_span(f, eps)
    assert ap.tail_bound is not None
    assert ap.certified_error < 2 * eps


def test_approximate_divergent_rule_raises():
    f = MuntzSeries(LAM_SQ, (), rule_from_name("unit"))
    with pytest.raises(NonMemberSignal):
        approximate_in_span(f, 1e-3)


@pytest.mark.parametrize("rule, eps", [("inv_n", 1e-6), ("inv_sqrt_n", 1e-4)])
def test_approximate_budget_runs_out_on_a_member(rule, eps):
    # a finite tail bound proves membership, so running out of terms or of
    # rho is a budget failure, not a non-membership signal
    f = MuntzSeries(LAM_SQ, (), rule_from_name(rule))
    assert _rule_series_tail_product_bound(f.rule, f.lam, 4096) is not None
    with pytest.raises(ConvergenceError, match="budget"):
        approximate_in_span(f, eps)


def test_approximate_dilation_without_tail_bound_signals():
    # custom exponents carry no tail bound, so a dilation error above eps
    # at rho_cap stays a non-membership signal; squares get the budget error
    custom = generate_exponents("custom", {"values": [k * k + 0.5 for k in range(1, 13)]}, 12)
    f = MuntzSeries(custom, (), rule_from_name("inv_n"))
    with pytest.raises(NonMemberSignal):
        approximate_in_span(f, 1e-6, rho_cap=0.9)
    with pytest.raises(ConvergenceError):
        approximate_in_span(MuntzSeries(LAM_SQ, (), rule_from_name("inv_n")), 1e-6, rho_cap=0.9)


def test_approximate_eps_domain():
    f = MuntzSeries(LAM_SQ, (), rule_from_name("inv_n"))
    with pytest.raises(ParameterError):
        approximate_in_span(f, 0.0)


# ---------------------------------------------------------------------------
# series construction


def test_series_validation():
    with pytest.raises(InputError):
        MuntzSeries(LAM_12, (1, 2, 3))
    with pytest.raises(InputError):
        MuntzSeries(LAM_12, ())
    f = MuntzSeries(LAM_SQ, (mpf(9),), rule_from_name("inv_n"))
    assert f.coefficient(1) == 9          # stored prefix wins
    assert abs(f.coefficient(2) - mpf(1) / 2) < 1e-60
    fin = finite_series(LAM_12, [1])
    assert fin.coefficient(2) == 0
