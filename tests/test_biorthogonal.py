import mpmath
import pytest
from mpmath import log, matrix, mpf, sqrt

from muntzlab import (
    InputError,
    ParameterError,
    dual_family,
    generate_exponents,
    norm_growth_check,
    truncation_convergence,
    working_precision,
)
from muntzlab.biorthogonal import biorthogonality_residual
from muntzlab.gram import log_distance

LAM_1 = generate_exponents("integers", {"values": [1]}, 1)


def test_dual_coefficients_hand_values(fam_12):
    # r_1 = 48 t - 60 t^2, r_2 = -60 t + 80 t^2
    r1 = fam_12.dual_coefficients(1)
    r2 = fam_12.dual_coefficients(2)
    assert abs(r1[0] - 48) < 1e-60 and abs(r1[1] + 60) < 1e-60
    assert abs(r2[0] + 60) < 1e-60 and abs(r2[1] - 80) < 1e-60
    with pytest.raises(InputError):
        fam_12.dual_coefficients(3)


def test_pairing_with_monomial_is_one(fam_12):
    # <t, r_1> = 48/3 - 60/4 = 1, via the exact per-monomial integrals
    r1 = fam_12.dual_coefficients(1)
    pairing = r1[0] / (1 + 1 + 1) + r1[1] / (2 + 1 + 1)
    assert abs(pairing - 1) < 1e-60


def test_singleton_dual():
    fam = dual_family(LAM_1, 1, 256)
    assert abs(fam.dual_coefficients(1)[0] - 3) < 1e-70
    assert abs(fam.norms[0] - sqrt(mpf(3))) < 1e-70


def test_biorthogonality_residual_squares(fam_squares_10):
    assert fam_squares_10.biorthogonality_residual < mpf("1e-40")
    # recomputed from scratch, not the constructor's cached number
    assert biorthogonality_residual(fam_squares_10) < mpf("1e-40")


def test_norm_deficit_duality(fam_squares_10):
    for n in range(10):
        assert abs(fam_squares_10.norms[n] * fam_squares_10.projection_deficit[n] - 1) < 1e-25


def test_norms_match_inverse_diagonal(fam_12):
    assert abs(fam_12.norms[0] - sqrt(mpf(48))) < 1e-60
    assert abs(fam_12.norms[1] - sqrt(mpf(80))) < 1e-60


def test_uniqueness_against_linear_solve_oracle(fam_squares_10):
    # any element of the truncated span biorthogonal to all e_j solves
    # G x = e_n; lu_solve is the independent route to the same columns
    G = matrix(fam_squares_10.gram.entries)
    with working_precision(fam_squares_10.precision_bits):
        for n in (1, 5, 10):
            e = matrix([1 if i == n - 1 else 0 for i in range(10)])
            x = mpmath.lu_solve(G, e)
            col = fam_squares_10.dual_coefficients(n)
            for i in range(10):
                assert abs(x[i] - col[i]) / abs(col[i]) < 1e-25


def test_dual_callable_evaluates(fam_12):
    r1 = fam_12.dual_callable(1)
    t = mpf(1) / 2
    assert abs(r1(t) - (48 * t - 60 * t ** 2)) < 1e-60


def test_family_input_validation(lam_squares):
    with pytest.raises(ParameterError):
        dual_family(lam_squares, 0, 256)
    with pytest.raises(InputError):
        dual_family(lam_squares.prefix(3), 4, 256)


def test_truncation_drift_zero_at_equal_levels(lam_squares):
    assert truncation_convergence(lam_squares, 1, 4, 4, 256) == 0


@pytest.mark.parametrize("p", [2, 1.5], ids=["squares", "power1.5"])
def test_truncation_drift_via_norm_identity(p):
    # biorthogonality forces <r_n^(N2), r_n^(N1)> = ||r_n^(N1)||^2 and
    # ||r_n^(N)|| = 1/D_{n,N}, so the drift is sqrt(1/D_{n,N2}^2 - 1/D_{n,N1}^2):
    # an independent oracle from the closed-form distances, held to the bits
    lam = generate_exponents("power", {"p": p}, 12)
    drift = truncation_convergence(lam, 1, 6, 10, 256)
    with mpmath.workprec(512):
        want = sqrt(mpmath.exp(-2 * log_distance(lam, 1, 10)) - mpmath.exp(-2 * log_distance(lam, 1, 6)))
        assert abs(drift - want) <= mpf(2) ** -250 * want
    assert drift > 0


def test_truncation_drift_decreases_as_head_grows(lam_squares):
    drifts = [truncation_convergence(lam_squares, 1, N1, 10, 256) for N1 in (4, 6, 8)]
    assert drifts[0] > drifts[1] > drifts[2] > 0


def test_truncation_drift_lacunary_vs_squares(lam_squares, lam_lacunary):
    # absolute drift is larger for the lacunary family at these sizes;
    # relative to the final dual norm the lacunary family drifts less
    d_sq = truncation_convergence(lam_squares, 1, 4, 8, 256)
    d_lac = truncation_convergence(lam_lacunary, 1, 4, 8, 256)
    n_sq = dual_family(lam_squares, 8, 256).norms[0]
    n_lac = dual_family(lam_lacunary, 8, 256).norms[0]
    assert d_lac > d_sq
    assert d_lac / n_lac < d_sq / n_sq


def test_truncation_drift_index_validation(lam_squares):
    with pytest.raises(InputError):
        truncation_convergence(lam_squares, 5, 4, 8, 256)
    with pytest.raises(InputError):
        truncation_convergence(lam_squares, 1, 8, 4, 256)


def test_norm_growth_singleton():
    fam = dual_family(LAM_1, 1, 256)
    report = norm_growth_check(fam, 0.5)
    assert abs(report.ratios[0] - log(sqrt(mpf(3)))) < 1e-50
    assert abs(float(report.ratios[0]) - 0.5493) < 1e-3
    assert report.m_fit > 0 and mpmath.isfinite(report.m_fit)


def test_norm_growth_squares_trend():
    lam = generate_exponents("power", {"p": 2}, 12)
    fam = dual_family(lam, 12, 512)
    report = norm_growth_check(fam, 0.05)
    assert report.trailing_nonincreasing_from(4)
    assert report.trailing_nonincreasing_from(1)
    # the first ratio dominates; its value is pinned by <e_1, r_1> = 1
    # (Cauchy-Schwarz gives ||r_1|| >= sqrt(3)) and measured at 2.1625
    assert report.max_ratio == report.ratios[0]
    assert report.max_ratio >= log(sqrt(mpf(3)))
    assert abs(float(report.max_ratio) - 2.16252) < 1e-3
    assert report.m_fit > 0


def test_norm_growth_epsilon_domain(fam_12):
    with pytest.raises(ParameterError):
        norm_growth_check(fam_12, 0.0)
    with pytest.raises(ParameterError):
        norm_growth_check(fam_12, 1.5)
