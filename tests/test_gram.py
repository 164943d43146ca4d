import hashlib
import sys
from fractions import Fraction
from random import Random

import mpmath
import pytest
from hypothesis import given, strategies as st
from mpmath import matrix, mp, mpc, mpf, sqrt
from mpmath.libmp import fone, from_man_exp, from_rational, mpf_exp, mpf_log, mpf_sqrt, round_nearest

from muntzlab import (
    DegenerateInputError,
    InputError,
    ParameterError,
    Partition,
    PrecisionInsufficientError,
    cauchy_determinant,
    cauchy_inverse,
    distance,
    distance_lower_bound_check,
    dual_family,
    generate_exponents,
    gram_matrix,
    working_precision,
)
from muntzlab import gram
from muntzlab.completeness import _mixed_scales, _perron_block, _trace_up
from muntzlab.config import inverse_residual_tolerance
from muntzlab.exponents import ExponentSequence
from muntzlab.gram import _cauchy_factors, _identity_bound, gram_form, inverse_with_escalation

from conftest import exponent_sets, gram_product, identity_residual

LAM_12 = generate_exponents("integers", {"values": [1, 2]}, 2)
LAM_1 = generate_exponents("integers", {"values": [1]}, 1)


def test_entries_hand_values():
    G = gram_matrix(LAM_12, 256)
    assert abs(G.entry(1, 1) - mpf(1) / 3) < 1e-70
    assert abs(G.entry(1, 2) - mpf(1) / 4) < 1e-70
    assert abs(G.entry(2, 2) - mpf(1) / 5) < 1e-70
    assert abs(gram_matrix(LAM_1, 256).entry(1, 1) - mpf(1) / 3) < 1e-70

    lam149 = generate_exponents("integers", {"values": [1, 4, 9]}, 3)
    assert abs(gram_matrix(lam149, 256).entry(1, 3) - mpf(1) / 11) < 1e-70


@pytest.mark.parametrize("j,k", [(0, 1), (1, 0), (3, 1), (1, 3), (-1, 2)])
def test_entry_outside_the_matrix_is_refused(j, k):
    # on rows, index 0 would wrap to G_{N,1}
    with pytest.raises(InputError):
        gram_matrix(LAM_12, 256).entry(j, k)


def test_entries_range_and_symmetry():
    lam = generate_exponents("power", {"p": 2}, 8)
    G = gram_matrix(lam, 256)
    hi = 1 / (2 * mpf(lam.values[0]) + 1)
    for i in range(8):
        for j in range(8):
            assert G.entries[i][j] == G.entries[j][i]
            assert 0 < G.entries[i][j] <= hi * (1 + mpf(10) ** -70)


@pytest.mark.parametrize("kind,params,n", [
    ("power", {"p": 2}, 8),
    ("lacunary", {"q": 2}, 8),
    ("custom", {"values": [0.5, 1.25, 3.75, 4.5, 7.25, 9.5, 12.0, 15.5]}, 8),
])
def test_positive_definite_via_cholesky(kind, params, n):
    lam = generate_exponents(kind, params, n)
    G = gram_matrix(lam, 256)
    with working_precision(256):
        L = mpmath.cholesky(matrix(G.entries))  # raises if not positive definite
        assert all(L[i, i] > 0 for i in range(n))


def test_precision_floor():
    with pytest.raises(ParameterError):
        gram_matrix(LAM_12, 32)


def test_determinant_hand_values():
    with working_precision(256):
        assert abs(cauchy_determinant(gram_matrix(LAM_12, 256)) - mpf(1) / 240) < 1e-70
        assert abs(cauchy_determinant(gram_matrix(LAM_1, 256)) - mpf(1) / 3) < 1e-70


@pytest.mark.parametrize("kind,params", [
    ("power", {"p": 2}),
    ("lacunary", {"q": 2}),
    ("custom", {"values": [0.5, 1.25, 3.75, 4.5, 7.25, 9.5, 12.0, 15.5]}),
])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_determinant_matches_lu_oracle(kind, params, n):
    lam = generate_exponents(kind, params, n)
    G = gram_matrix(lam, 256)
    det = cauchy_determinant(G)
    with working_precision(256):
        lu_det = mpmath.det(matrix(G.entries))
        assert abs(det - lu_det) / abs(lu_det) < 1e-30


@pytest.mark.parametrize("kind,params", [
    ("power", {"p": 2}),
    ("lacunary", {"q": 2}),
    ("custom", {"values": [0.5, 1.25, 3.75, 4.5, 7.25, 9.5, 12.0, 15.5]}),
])
@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_inverse_matches_columnwise_solve_oracle(kind, params, n):
    lam = generate_exponents(kind, params, n)
    G = gram_matrix(lam, 256)
    M, residual = cauchy_inverse(G)
    assert residual < mpf(10) ** (-256 / 8)
    with working_precision(256):
        for j in range(n):
            e = matrix([1 if i == j else 0 for i in range(n)])
            col = mpmath.lu_solve(matrix(G.entries), e)
            for i in range(n):
                assert abs(M[i][j] - col[i]) / abs(col[i]) < 1e-25


def test_inverse_hand_values():
    M, _ = cauchy_inverse(gram_matrix(LAM_12, 256))
    with working_precision(256):
        assert abs(M[0][0] - 48) < 1e-60
        assert abs(M[0][1] + 60) < 1e-60
        assert abs(M[1][1] - 80) < 1e-60
    M1, _ = cauchy_inverse(gram_matrix(LAM_1, 256))
    assert abs(M1[0][0] - 3) < 1e-70


def test_duplicate_exponents_rejected():
    lam = generate_exponents("custom", {"values": [1.0, 2.0]}, 2)
    bad = type(lam)(values=(mpf(1), mpf(1)), gap=mpf(0), kind="custom", params={})
    with pytest.raises(DegenerateInputError):
        cauchy_determinant(gram_matrix(bad, 256))
    with pytest.raises(DegenerateInputError):
        cauchy_inverse(gram_matrix(bad, 256))
    # a repeat that is not next to its twin is refused on every path
    apart = ExponentSequence((1, 2, 1), mpf(0))
    # the check lives in the nodes, so gram_matrix itself refuses the repeat
    for call in (lambda: gram_matrix(apart, 64),
                 lambda: cauchy_inverse(gram_matrix(apart, 64)),
                 lambda: dual_family(apart, 3, 64),
                 lambda: distance(apart, 1, 3, 64),
                 lambda: distance(apart, 2, 3, 64),
                 lambda: distance_lower_bound_check(apart, 3, 0.5, 64),
                 lambda: cauchy_determinant(gram_matrix(apart, 64))):
        with pytest.raises(DegenerateInputError, match="positions 1, 3"):
            call()
    # distinct nodes out of order stay valid
    fam = dual_family(ExponentSequence((3, 1, 2), mpf(0)), 3, 64)
    assert fam.precision_bits == 64
    assert fam.biorthogonality_residual <= mpf(inverse_residual_tolerance(64))


def test_insufficient_precision_raises_and_escalation_recovers(monkeypatch):
    lam = generate_exponents("power", {"p": 2}, 8)
    G = gram_matrix(lam, 64)
    with pytest.raises(PrecisionInsufficientError) as info:
        cauchy_inverse(G, residual_tol=1e-60)
    assert info.value.residual is not None
    # a target far below 64 bits' reach forces the escalation
    monkeypatch.setattr(gram, "inverse_residual_tolerance", lambda bits: 1e-60)
    G2, M, residual = inverse_with_escalation(lam, 64)
    assert residual < mpf("1e-60")
    assert G2.precision_bits > 64


def test_thresholds_never_underflow():
    # 10^(-bits/8) as a double reads 0.0 from about 2590 bits, where no
    # bound could pass; at 1024 bits and below it is the double, bit for bit
    for bits in (64, 128, 192, 256, 512, 768, 1024):
        assert inverse_residual_tolerance(bits) == 10.0 ** -(bits / 8)
    assert inverse_residual_tolerance(4096) > 0
    assert dual_family(generate_exponents("power", {"p": 2}, 2), 2, 2600).precision_bits == 2600


def test_distance_hand_values():
    d1 = distance(LAM_12, 1, 2)
    d2 = distance(LAM_12, 2, 2)
    with working_precision(256):
        assert abs(d1.distance - 1 / (4 * sqrt(mpf(3)))) < 1e-60
        assert abs(d2.distance - 1 / (4 * sqrt(mpf(5)))) < 1e-60
        assert abs(d1.distance - 1 / sqrt(mpf(48))) < 1e-60
        assert abs(d2.distance - 1 / sqrt(mpf(80))) < 1e-60
    # singleton: empty competitor product, distance is the norm of t itself
    d = distance(LAM_1, 1, 1)
    with working_precision(256):
        assert abs(d.distance - 1 / sqrt(mpf(3))) < 1e-70


def test_distance_duality_and_range():
    lam = generate_exponents("power", {"p": 2}, 10)
    for n in range(1, 11):
        rep = distance(lam, n, 10)
        assert abs(rep.distance * rep.dual_norm - 1) < 1e-25
    with pytest.raises(InputError):
        distance(lam, 0, 10)
    with pytest.raises(InputError):
        distance(lam, 11, 10)


def test_distance_nonincreasing_in_truncation():
    lam = generate_exponents("power", {"p": 2}, 10)
    for n in range(1, 5):
        values = [distance(lam, n, N).distance for N in range(max(n, 4), 11)]
        assert all(values[i + 1] <= values[i] for i in range(len(values) - 1))


def test_lower_bound_fit_hand_value():
    reports, m_fit = distance_lower_bound_check(LAM_12, 2, 0.5)
    with working_precision(256):
        # min(D_1/0.5, D_2/0.25) = D_1/0.5 = 1/(2 sqrt(3))
        assert abs(m_fit - 1 / (2 * sqrt(mpf(3)))) < 1e-60
    assert all(r.m_fit == m_fit and r.epsilon == 0.5 for r in reports)


def test_lower_bound_single_term():
    for eps in (0.1, 0.5, 0.9):
        _, m_fit = distance_lower_bound_check(LAM_1, 1, eps)
        with working_precision(256):
            expected = (1 / sqrt(mpf(3))) / (1 - mpf(eps))
            assert abs(m_fit - expected) < 1e-55


def test_lower_bound_trend_nonincreasing_in_truncation():
    lam = generate_exponents("power", {"p": 2}, 10)
    fits = [distance_lower_bound_check(lam, N, 0.5)[1] for N in range(2, 11)]
    assert all(f > 0 for f in fits)
    assert all(fits[i + 1] <= fits[i] for i in range(len(fits) - 1))


def test_lower_bound_epsilon_domain():
    with pytest.raises(ParameterError):
        distance_lower_bound_check(LAM_12, 2, 0.0)
    with pytest.raises(ParameterError):
        distance_lower_bound_check(LAM_12, 2, 1.0)


@pytest.mark.parametrize("N", [0, 3])
def test_lower_bound_truncation_domain(N):
    with pytest.raises(InputError):
        distance_lower_bound_check(LAM_12, N, 0.5)


# ---------------------------------------------------------------------------
# the exact Gram-form kernel against a plain double sum at 256 more bits


@st.composite
def _exponent_values(draw, bits):
    """Admissible exponents as the package stores them: ints, 53-bit mpf from
    a JSON file (from_dict) or working-precision mpf from generate_exponents."""
    kind = draw(st.sampled_from(["integers", "doubles", "power", "lacunary"]))
    n = draw(st.integers(1, 10))
    if kind == "integers":
        values = sorted(draw(st.sets(st.integers(1, 400), min_size=n, max_size=n)))
        return generate_exponents("integers", {"values": values}, n).values
    if kind == "doubles":
        steps = draw(st.lists(st.floats(1e-3, 40), min_size=n, max_size=n))
        values = [sum(steps[:k + 1]) for k in range(n)]
        return ExponentSequence.from_dict({"kind": "custom", "values": values}).values
    if kind == "power":
        p = draw(st.sampled_from([1.25, 1.5, 2.5, 3.3]))
        return generate_exponents("power", {"p": p}, n, bits).values
    q = draw(st.sampled_from([1.5, 2.7]))
    return generate_exponents("lacunary", {"q": q}, n, bits).values


@st.composite
def _coefficients(draw, n, bits):
    """Real or complex doubles at a common power-of-two scale, optionally
    divided by 3 at the working precision to fill every bit."""
    scale = draw(st.integers(-60, 60))
    re = draw(st.lists(st.floats(-1, 1), min_size=n, max_size=n))
    im = draw(st.lists(st.floats(-1, 1), min_size=n, max_size=n)) if draw(st.booleans()) else [0] * n
    thirds = draw(st.booleans())
    with working_precision(bits):
        vs = [mpc(mp.ldexp(x, scale), mp.ldexp(y, scale)) for x, y in zip(re, im)]
        return [v / 3 for v in vs] if thirds else vs


def _double_sum(lams, vs, mus, ws, prec):
    with mp.workprec(prec):
        return mp.fsum(mpc(a) * mp.conj(mpc(b)) / (mpf(lam) + mpf(mu) + 1)
                       for lam, a in zip(lams, vs) for mu, b in zip(mus, ws))


@st.composite
def _gram_form_case(draw):
    bits = draw(st.sampled_from([64, 256, 512]))
    lams = draw(_exponent_values(bits))
    mus = draw(_exponent_values(bits))
    return bits, lams, draw(_coefficients(len(lams), bits)), mus, draw(_coefficients(len(mus), bits))


@given(_gram_form_case())
def test_gram_form_within_its_error_bound(case):
    bits, lams, vs, mus, ws = case
    with working_precision(bits):
        norm2, err = gram_form(lams, vs)
        pairing, err2 = gram_form(lams, vs, other=(mus, ws))
    want = _double_sum(lams, vs, lams, vs, bits + 256)
    assert abs(norm2 - want.real) <= err
    assert abs(pairing - _double_sum(lams, vs, mus, ws, bits + 256)) <= err2


# ---------------------------------------------------------------------------
# the Cauchy product formulas against per-pair evaluation in exact rationals
#
# The oracle takes the exponents as the kernels round them at the working
# precision, adds the half, and forms A_i = prod_k (x_i+x_k) / prod_{k!=i}
# (x_i-x_k) and every product per pair in fractions.Fraction.  Each value is
# then rounded where the kernel contract rounds it: A_i at 32 bits above the
# working precision, each inverse entry A_i A_j / (x_i+x_j) once, (2 x_i)^(1/2)
# at the 32 bits and each quotient |A_i| / (2 x_i)^(1/2) and its reciprocal
# once, and det G once.  The kernels must give those bits, and every value
# must lie within one unit of 2^-prec relative of the exact rational (for the
# roots, of the exact root).


def _exact(v):
    """The rational an int or mpf holds."""
    if isinstance(v, int):
        return Fraction(v)
    sign, man, exp, _ = v._mpf_
    q = Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
    return -q if sign else q


def _rounded(q, prec):
    """The rational q rounded to nearest at prec bits, as raw mpf."""
    return from_rational(q.numerator, q.denominator, prec, round_nearest)


class _CauchyOracle:
    """Exact nodes, row factors and determinant of a prefix at bits, with the
    values the kernel contract rounds from them.  A_i is accumulated as a
    numerator and a denominator and reduced once; the one-unit checks
    cross-multiply, so no large fraction is reduced twice."""

    def __init__(self, values, bits):
        with working_precision(bits):
            self.prec = prec = mp.prec
            self.x = x = [_exact(mpf(v)) + Fraction(1, 2) for v in values]
        self.A, det_num, det_den = [], 1, 1
        for i, a in enumerate(x):
            num = den = 1
            for k, b in enumerate(x):
                s = a + b
                num, den = num * s.numerator, den * s.denominator
                if k != i:
                    d = a - b
                    num, den = num * d.denominator, den * d.numerator
            self.A.append(Fraction(num, den))
            det_num, det_den = det_num * abs(den), det_den * abs(num)
        self.det = Fraction(det_num, det_den)
        self.a = [_exact(mp.make_mpf(_rounded(A, prec + 32))) for A in self.A]
        # 2 x_i is dyadic, so it enters the root exactly
        roots = [mpf_sqrt(from_man_exp(v.numerator, 2 - v.denominator.bit_length()), prec + 32,
                          round_nearest) for v in x]
        self.roots = [_exact(mp.make_mpf(r)) for r in roots]

    def inverse(self):
        x, a, prec = self.x, self.a, self.prec
        return [[mp.make_mpf(_rounded(a[i] * a[j] / (x[i] + x[j]), prec)) for j in range(len(x))]
                for i in range(len(x))]

    def norms_and_distances(self):
        out = []
        for a, r in zip(self.a, self.roots):
            out.append((mp.make_mpf(_rounded(abs(a) / r, self.prec)),
                        mp.make_mpf(_rounded(r / abs(a), self.prec))))
        return out

    def determinant(self):
        return mp.make_mpf(_rounded(self.det, self.prec))

    def assert_within_one_ulp(self, v, num, den):
        """|v - num/den| <= |num/den| 2^-prec, for den > 0."""
        q = _exact(v)
        m, d = q.numerator, q.denominator
        assert abs(m * den - num * d) << self.prec <= abs(num) * d, (v, num, den)

    def assert_root_within_one_ulp(self, v, num, den):
        """|v - r| <= r 2^-prec for r = (num/den)^(1/2) and v > 0, that is
        (2^prec - 1)^2 <= 2^(2 prec) v^2 den / num <= (2^prec + 1)^2."""
        q, one = _exact(v), 1 << self.prec
        assert q > 0
        lhs, rhs = q.numerator ** 2 * den * one * one, num * q.denominator ** 2
        assert (one - 1) ** 2 * rhs <= lhs <= (one + 1) ** 2 * rhs, (v, num, den)

    def assert_exact_values(self, M=None, pairs=None, det=None):
        """Every given value within one unit of 2^-prec of its exact value."""
        x, A = self.x, self.A
        for i, row in enumerate(M or []):
            for j, v in enumerate(row):
                s = x[i] + x[j]
                self.assert_within_one_ulp(v, A[i].numerator * A[j].numerator * s.denominator,
                                           A[i].denominator * A[j].denominator * s.numerator)
        for i, (nrm, d) in enumerate(pairs or []):
            # ||r_i||^2 = A_i^2 / (2 x_i) and D_i^2 is its reciprocal
            a2n, a2d = A[i].numerator ** 2, A[i].denominator ** 2
            xn, xd = 2 * x[i].numerator, x[i].denominator
            self.assert_root_within_one_ulp(nrm, a2n * xd, a2d * xn)
            self.assert_root_within_one_ulp(d, a2d * xn, a2n * xd)
        if det is not None:
            self.assert_within_one_ulp(det, self.det.numerator, self.det.denominator)


def _check_cauchy_formulas(lam, N, bits):
    """Inverse, residual, determinant, distances, dual norms and the fit
    against the oracle at bits; the dual family against the oracle at the
    bits it was built with."""
    G = gram_matrix(lam.prefix(N), bits)
    oracle = _CauchyOracle(lam.values[:N], bits)
    want_M = oracle.inverse()
    with working_precision(bits):
        bound = _identity_bound(G)
        assert identity_residual(G.entries, want_M) <= bound
    if bound <= mpf(inverse_residual_tolerance(bits)):
        M, res = cauchy_inverse(G)
        assert repr(res) == repr(bound)
    else:
        with pytest.raises(PrecisionInsufficientError) as info:
            cauchy_inverse(G)
        assert repr(info.value.residual) == repr(bound)
        M, _ = cauchy_inverse(G, residual_tol=mp.inf)
    assert repr(M) == repr(want_M)
    det = cauchy_determinant(G)
    assert repr(det) == repr(oracle.determinant())

    want = oracle.norms_and_distances()
    reports, m_fit = distance_lower_bound_check(lam, N, 0.5, bits)
    for n, (rep, (dual, d)) in enumerate(zip(reports, want), 1):
        assert (repr(rep.distance), repr(rep.dual_norm)) == (repr(d), repr(dual))
        single = distance(lam, n, N, bits)
        assert (repr(single.distance), repr(single.dual_norm)) == (repr(d), repr(dual))
    with working_precision(bits):
        want_fit = min(d / (1 - mpf(0.5)) ** mpf(v) for (_, d), v in zip(want, lam.values))
    assert repr(m_fit) == repr(want_fit)
    oracle.assert_exact_values(want_M, want, det)

    fam = dual_family(lam, N, bits)
    if fam.precision_bits != bits:
        oracle = _CauchyOracle(lam.values[:N], fam.precision_bits)
    assert repr(fam.inverse_rows) == repr(oracle.inverse())
    want = oracle.norms_and_distances()
    assert repr(list(zip(fam.norms, fam.projection_deficit))) == repr(want)
    oracle.assert_exact_values(fam.inverse_rows, want)
    return fam


CAUCHY_SETS = {
    "squares": ("power", {"p": 2}),
    "power1.5": ("power", {"p": 1.5}),
    "lacunary2": ("lacunary", {"q": 2}),
    "custom": ("custom", {"values": [0.3 + 1.37 * k + 0.01 * k * k for k in range(16)]}),
}


def _cauchy_set(name, bits):
    kind, params = CAUCHY_SETS[name]
    return generate_exponents(kind, params, 16, bits)


@pytest.mark.parametrize("bits", [64, 256, 512])
@pytest.mark.parametrize("N", [1, 2, 8, 16])
@pytest.mark.parametrize("name", sorted(CAUCHY_SETS))
def test_cauchy_formulas_bit_identical_to_per_pair(name, N, bits):
    _check_cauchy_formulas(_cauchy_set(name, bits), N, bits)


@given(lam=exponent_sets(max_n=16), bits=st.sampled_from([64, 128, 256, 512]))
def test_cauchy_formulas_within_one_ulp_property(lam, bits):
    # exponents generated at the default precision, read at 64 to 512 bits
    _check_cauchy_formulas(lam, len(lam), bits)


def test_escalated_inverse_bit_identical_to_per_pair():
    # p = 1.5 at N = 16 misses the 64-bit residual target and escalates once
    lam = _cauchy_set("power1.5", 64)
    G, M, res = inverse_with_escalation(lam, 64)
    assert G.precision_bits == 128
    with pytest.raises(PrecisionInsufficientError):
        cauchy_inverse(gram_matrix(lam, 64))
    want_M = _CauchyOracle(lam.values, 128).inverse()
    assert repr(M) == repr(want_M)
    with working_precision(128):
        assert repr(res) == repr(_identity_bound(G))
        assert identity_residual(G.entries, want_M) <= res


@pytest.mark.parametrize("name, N", [("squares", 16), ("custom", 12)])
def test_accurate_inverse_meets_the_64_bit_target_without_escalating(name, N):
    # an inverse within one unit of 2^-80 of the exact one meets 10^-8 at
    # 64 bits; both of these escalated when each entry took N logarithms
    fam = _check_cauchy_formulas(_cauchy_set(name, 64), N, 64)
    assert fam.precision_bits == 64
    assert fam.biorthogonality_residual <= mpf(inverse_residual_tolerance(64))


# ---------------------------------------------------------------------------
# the oracles' exact G*M kernel is fdot's, bit for bit, and the certified
# bound lies above it


def _fdot_residual(G, M):
    """max|G*M - I| with each entry summed by fdot, row i of G against column j of M."""
    worst = mpf(0)
    for i, row in enumerate(G):
        for j, col in enumerate(zip(*M)):
            worst = max(worst, abs(mp.fdot(row, col) - (1 if i == j else 0)))
    return worst


@given(lam=exponent_sets(max_n=16), bits=st.sampled_from([64, 128, 256, 512]))
def test_identity_residual_is_fdot_bit_for_bit(lam, bits):
    # N = 1, tight gaps, and with no residual target the 64-bit sets that
    # miss it (and escalate in dual_family) are compared too; gram_product
    # is held to mpmath's matrix product on the same draws.  The inverse
    # keeps every bit, and its reported bound lies above the oracle
    G = gram_matrix(lam, bits)
    M, res = cauchy_inverse(G, residual_tol=mp.inf)
    assert repr(M) == repr(_CauchyOracle(lam.values, bits).inverse())
    with working_precision(bits):
        want = _fdot_residual(G.entries, M)
        assert repr(identity_residual(G.entries, M)) == repr(want)
        _assert_product_is_mpmaths(G, M)
    assert want <= res


def _exact_gram_residual(G, M):
    """max|G M - I| for the exact Gram on G's nodes at three times the
    working precision, far below the rounding the bound covers."""
    X, t = G.nodes
    with mp.workprec(3 * mp.prec):
        exact = [[mp.ldexp(1, t) / (a + b) for b in X] for a in X]
        return max(abs(mp.fdot(row, col) - (i == j)) for i, row in enumerate(exact)
                   for j, col in enumerate(zip(*M)))


@given(lam=exponent_sets(max_n=16), bits=st.sampled_from([64, 128, 256, 512]))
def test_certified_bound_covers_both_residuals_property(lam, bits):
    # the bound covers G~ M - I for the stored Gram (the oracle, rounded as
    # fdot rounds) and G M - I for the exact one, and so escalates whenever
    # the oracle would
    G = gram_matrix(lam, bits)
    M, bound = cauchy_inverse(G, residual_tol=mp.inf)
    tol = mpf(inverse_residual_tolerance(bits))
    with working_precision(bits):
        oracle = identity_residual(G.entries, M)
        assert oracle <= bound
        assert _exact_gram_residual(G, M) <= bound
    if oracle > tol:
        with pytest.raises(PrecisionInsufficientError):
            cauchy_inverse(gram_matrix(lam, bits))


def test_gram_entries_are_formed_on_first_read():
    # the rows a lazy read builds are the eager _cauchy_rows rows, at the
    # Gram's precision whatever the ambient one; dual_family never reads them
    lam = _cauchy_set("power1.5", 256).prefix(12)
    fam = dual_family(lam, 12, 256)
    assert "entries" not in fam.gram.__dict__
    G = gram_matrix(lam, 256)
    X, t = G.nodes
    with working_precision(256):
        eager = gram._cauchy_rows(X, t, [fone] * 12, range(12))
    with mp.workprec(53):
        lazy = G.entries
    assert repr(lazy) == repr(eager)
    assert G.entries is lazy and repr(fam.gram.entries) == repr(eager)


def test_failed_attempt_forms_no_matrix(monkeypatch):
    # p = 1.5 at N = 16 misses the 64-bit target: the bound decides before
    # any row of G or of the inverse is formed
    calls = []
    rows = gram._cauchy_rows

    def counting(*args):
        calls.append(args)
        return rows(*args)

    monkeypatch.setattr(gram, "_cauchy_rows", counting)
    with pytest.raises(PrecisionInsufficientError):
        cauchy_inverse(gram_matrix(_cauchy_set("power1.5", 64), 64))
    assert calls == []
    G, _, _ = inverse_with_escalation(_cauchy_set("power1.5", 64), 64)
    assert G.precision_bits == 128 and len(calls) == 1


def _assert_product_is_mpmaths(G, M):
    want = (matrix(G.entries) * matrix(M)).tolist()
    assert repr(gram_product(G.entries, M)) == repr(want)


@pytest.mark.parametrize("name", sorted(CAUCHY_SETS))
def test_gram_product_is_the_matrix_product_bit_for_bit(name):
    for bits in (64, 256, 512):
        lam = _cauchy_set(name, bits)
        for N in (8, 12, 16):
            G = gram_matrix(lam.prefix(N), bits)
            M, _ = cauchy_inverse(G, residual_tol=mp.inf)
            with working_precision(bits):
                _assert_product_is_mpmaths(G, M)


def test_exact_product_keeps_the_term_fdot_drops(monkeypatch):
    # G*M - I is exactly 2^-(prec+64) at (0, 1) and 0 elsewhere, but fdot
    # sums that entry's terms 2^-(prec+64), 2^(prec+64), -2^(prec+64) in
    # that order, drops the first and returns 0.  The exact integer product
    # keeps it in both kernels, and neither calls fdot.  An unsymmetric M of
    # a real family gives fdot's residual, bit for bit.
    family = gram_matrix(_cauchy_set("squares", 256).prefix(8), 256)
    B = cauchy_inverse(family)[0]
    B[0][1] = 2 * B[0][1]
    calls = []
    fdot = mp.fdot

    def counting(ctx, *args):
        calls.append(args)
        return fdot(*args)

    with working_precision(256):
        a, H = mp.ldexp(1, -(mp.prec + 64)), mp.ldexp(1, mp.prec + 64)
        G = [[mpf(v) for v in row] for row in ([a, H, -H], [1, 0, 0], [-1, 0, 1])]
        M = [[mpf(v) for v in row] for row in ([0, 1, 0], [1 / H, 1, 1], [0, 1, 1])]
        assert _fdot_residual(G, M) == 0
        want = _fdot_residual(family.entries, B)
        monkeypatch.setattr(type(mp), "fdot", counting)
        assert identity_residual(G, M) == a
        assert gram_product(G, M) == [[1, a, 0], [0, 1, 0], [0, 0, 1]]
        assert repr(identity_residual(family.entries, B)) == repr(want)
        assert calls == []


# every family the duals benchmark builds, pinned when the Cauchy algebra
# moved to exact integer row products: repr at 1024 bits shows every bit.
# Pinned again when the residual became the a-priori certified bound: the
# duals, norms, deficits and bits kept every bit, only the residual moved,
# and it lies above the oracle's G*M - I for every family
FAMILY_DIGESTS = {
    "custom": "b07ec5793e7e2fc4efb3a65dbc00f838ceaa2ec56311672c544f499061a5664d",
    "lacunary2": "b6b44512e8651842b0d226f5d42ef75eaf987279b60f567cdfade6b93e1ecfc7",
    "power1.5": "26bb6a1d65fdd9dff9c437300827d9ac5df50e826e232a5b57b4c03c69d8bb11",
    "squares": "b6cc7506300d13b2518af83275c7eaf10b854f203269cf8df0620615efeebee2",
}
# (name, N) whose 64-bit request escalates to 128 bits
ESCALATED = {("power1.5", 16), ("custom", 16)}


@pytest.mark.parametrize("name", sorted(CAUCHY_SETS))
def test_dual_families_are_pinned(name):
    digest = hashlib.sha256()
    for N in (8, 12, 16):
        for bits in (64, 256, 512):
            fam = dual_family(_cauchy_set(name, bits), N, bits)
            assert fam.precision_bits == (128 if bits == 64 and (name, N) in ESCALATED else bits)
            with working_precision(fam.precision_bits):
                assert identity_residual(fam.gram.entries, fam.inverse_rows) <= \
                    fam.biorthogonality_residual
            with mp.workprec(1024):
                text = repr((fam.inverse_rows, fam.norms, fam.projection_deficit,
                             fam.biorthogonality_residual, fam.precision_bits))
            digest.update(text.encode())
    assert digest.hexdigest() == FAMILY_DIGESTS[name]


# ---------------------------------------------------------------------------
# the one Cauchy kernel: G, every mixed scale, block entry and trace bound
# against exact rationals on the Gram's own nodes


def _node_fractions(G):
    X, t = G.nodes
    return [Fraction(v, 1 << t) for v in X]


def _subset_factor(x, S, i):
    """The exact scale _cauchy_factors rounds: for i in S the subset's Cauchy
    factor prod_{k in S} (x_i + x_k) / prod_{k in S, k!=i} (x_i - x_k), else
    prod_{k in S} (x_i - x_k) / (x_i + x_k)."""
    q = Fraction(1)
    for k in S:
        if k == i:
            q *= 2 * x[i]
        elif i in S:
            q *= (x[i] + x[k]) / (x[i] - x[k])
        else:
            q *= (x[i] - x[k]) / (x[i] + x[k])
    return q


@pytest.mark.parametrize("name", sorted(CAUCHY_SETS))
def test_cauchy_kernel_against_exact_rationals(name):
    # G's entries are 1/(x_j + x_k) rounded once; each mixed scale is its
    # exact value rounded once at 32 bits above the working precision, so
    # within one unit of 2^-prec; each block entry is within the two
    # roundings perron_lambda_max is told of, and the trace's upper end
    # lies above the exact trace, by under 32 units of 2^(1-prec)
    rng = Random(name)
    N = 12
    for bits in (64, 256):
        fam = dual_family(_cauchy_set(name, bits), N, bits)
        G = fam.gram
        x = _node_fractions(G)
        with working_precision(fam.precision_bits):
            prec = mp.prec
        u = Fraction(2, 1 << prec)
        for j in range(N):
            assert [v._mpf_ for v in G.entries[j]] == [_rounded(1 / (x[j] + b), prec) for b in x]
        subsets = [set(), set(range(N))] + [{k for k in range(N) if rng.random() < 0.5}
                                             for _ in range(6)]
        for S in subsets:
            n1, n2, d, e = _mixed_scales(Partition.from_monomial_set({k + 1 for k in S}, N), fam)
            for idx, s in ((n1, d), (n2, e)):
                exact = [_subset_factor(x, S, i) for i in idx]
                assert s == [_rounded(q, prec + 32) for q in exact]
                for v, q in zip(s, exact):
                    assert abs(_exact(mp.make_mpf(v)) - q) * (1 << prec) <= abs(q)
                if not idx:
                    continue
                with working_precision(fam.precision_bits):
                    block = _perron_block(*G.nodes, idx, s)
                    trace = _exact(_trace_up(*G.nodes, idx, s))
                for a, i in enumerate(idx):
                    for b, j in enumerate(idx):
                        want = abs(exact[a] * exact[b]) / (x[i] + x[j])
                        got = _exact(block[a][b])
                        assert want * (1 - u) ** 2 <= got and got * (1 - u) ** 2 <= want
                want = sum(q * q / (2 * x[i]) for q, i in zip(exact, idx))
                assert want <= trace <= want * (1 + 32 * u)


@pytest.mark.parametrize("name", sorted(CAUCHY_SETS))
def test_cauchy_factors_keep_their_bits_in_any_order(name):
    # the products are exact integers, so no order of the subset moves a bit
    rng = Random(name)
    G = gram_matrix(_cauchy_set(name, 256), 256)
    X, t = G.nodes
    with working_precision(256):
        for _ in range(4):
            S = [k for k in range(16) if rng.random() < 0.5]
            want = _cauchy_factors(X, t, S, range(16))
            for _ in range(3):
                rng.shuffle(S)
                assert _cauchy_factors(X, t, S, range(16)) == want


# ---------------------------------------------------------------------------
# regression guard: how many logarithms each formula takes (none; counts, no timing)


@pytest.fixture()
def log_calls():
    """Every mpf_log and mpf_exp call, however it is reached (the mpmath
    wrappers hold their own references, so the calls are caught by code
    object rather than by name)."""
    calls = []
    codes = {mpf_log.__code__: "mpf_log", mpf_exp.__code__: "mpf_exp"}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls.append(codes[frame.f_code])

    old = sys.getprofile()
    sys.setprofile(profile)
    yield calls
    sys.setprofile(old)


def test_log_counts_per_formula(log_calls):
    # integer exponents, so the fit's (1 - eps)^lambda_n is an integer power
    # and takes no logarithm either
    N = 12
    lam = generate_exponents("power", {"p": 2}, N)
    dual_family(lam, N, 256)
    distance(lam, 5, N)
    distance_lower_bound_check(lam, N, 0.5)
    cauchy_determinant(gram_matrix(lam, 256))
    dual_family(_cauchy_set("power1.5", 64), 16, 64)  # escalates to 128 bits
    assert log_calls == []


# ---------------------------------------------------------------------------
# property: duality and the check's reports over random admissible sets


@st.composite
def _admissible_set(draw):
    N = draw(st.integers(1, 10))
    first = draw(st.floats(1e-3, 5))
    gaps = draw(st.lists(st.one_of(st.floats(2e-6, 1e-3), st.floats(1e-3, 30)),
                         min_size=N - 1, max_size=N - 1))
    values = [first]
    for g in gaps:
        values.append(values[-1] + g)
    return generate_exponents("custom", {"values": values}, N)


@given(_admissible_set())
def test_distance_duality_and_check_agree(lam):
    bits, N = 256, len(lam)
    reports, _ = distance_lower_bound_check(lam, N, 0.5, bits)
    for n in range(1, N + 1):
        rep = distance(lam, n, N, bits)
        with working_precision(bits):
            assert abs(rep.distance * rep.dual_norm - 1) <= mpf(10) ** (-bits / 8)
        assert (repr(rep.distance), repr(rep.dual_norm)) == \
            (repr(reports[n - 1].distance), repr(reports[n - 1].dual_norm))
