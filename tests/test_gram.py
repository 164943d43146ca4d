import hashlib

import mpmath
import pytest
from hypothesis import given, strategies as st
from mpmath import exp, log, matrix, mp, mpc, mpf, sqrt

from muntzlab import (
    DegenerateInputError,
    InputError,
    ParameterError,
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
from muntzlab.config import inverse_residual_tolerance
from muntzlab.exponents import ExponentSequence
from muntzlab.gram import gram_form, identity_residual, inverse_with_escalation, log_distance

from conftest import exponent_sets

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


def test_entries_range_and_symmetry():
    lam = generate_exponents("power", {"p": 2}, 8)
    G = gram_matrix(lam, 256)
    hi = 1 / (2 * mpf(lam.values[0]) + 1)
    for i in range(8):
        for j in range(8):
            assert G.entries[i, j] == G.entries[j, i]
            assert 0 < G.entries[i, j] <= hi * (1 + mpf(10) ** -70)


@pytest.mark.parametrize("kind,params,n", [
    ("power", {"p": 2}, 8),
    ("lacunary", {"q": 2}, 8),
    ("custom", {"values": [0.5, 1.25, 3.75, 4.5, 7.25, 9.5, 12.0, 15.5]}, 8),
])
def test_positive_definite_via_cholesky(kind, params, n):
    lam = generate_exponents(kind, params, n)
    G = gram_matrix(lam, 256)
    with working_precision(256):
        L = mpmath.cholesky(G.entries)  # raises if not positive definite
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
        lu_det = mpmath.det(G.entries)
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
            col = mpmath.lu_solve(G.entries, e)
            for i in range(n):
                assert abs(M[i, j] - col[i]) / abs(col[i]) < 1e-25


def test_inverse_hand_values():
    M, _ = cauchy_inverse(gram_matrix(LAM_12, 256))
    with working_precision(256):
        assert abs(M[0, 0] - 48) < 1e-60
        assert abs(M[0, 1] + 60) < 1e-60
        assert abs(M[1, 1] - 80) < 1e-60
    M1, _ = cauchy_inverse(gram_matrix(LAM_1, 256))
    assert abs(M1[0, 0] - 3) < 1e-70


def test_duplicate_exponents_rejected():
    lam = generate_exponents("custom", {"values": [1.0, 2.0]}, 2)
    bad = type(lam)(values=(mpf(1), mpf(1)), gap=mpf(0), kind="custom", params={})
    with pytest.raises(DegenerateInputError):
        cauchy_determinant(gram_matrix(bad, 256))
    with pytest.raises(DegenerateInputError):
        cauchy_inverse(gram_matrix(bad, 256))


def test_insufficient_precision_raises_and_escalation_recovers():
    lam = generate_exponents("power", {"p": 2}, 8)
    G = gram_matrix(lam, 64)
    with pytest.raises(PrecisionInsufficientError) as info:
        cauchy_inverse(G, residual_tol=1e-60)
    assert info.value.residual is not None
    G2, M, residual = inverse_with_escalation(lam, 64, residual_tol=1e-60)
    assert residual < mpf("1e-60")
    assert G2.precision_bits > 64


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
# the Cauchy product formulas against per-pair evaluation, bit for bit
#
# The oracle takes every logarithm where the formula names it: log(x_i+x_k)
# and log|x_i-x_k| once per ordered pair, log(x_i+x_j) again inside the
# inverse's exp, and the identity residual from mpmath's matrix product.


def _pair_log_row_factors(x):
    N = len(x)
    logs, signs = [], []
    for i in range(N):
        s = mpf(0)
        for k in range(N):
            s += log(x[i] + x[k])
        sign = 1
        for k in range(N):
            if k == i:
                continue
            d = x[i] - x[k]
            if d < 0:
                sign = -sign
            s -= log(abs(d))
        logs.append(s)
        signs.append(sign)
    return logs, signs


def _pair_nodes(lam):
    return [mpf(v) + mpf(1) / 2 for v in lam.values]


def _pair_inverse(G):
    """(M, residual) by the per-pair formulas, without the residual test."""
    with working_precision(G.precision_bits):
        x = _pair_nodes(G.lam)
        N = len(x)
        logs, signs = _pair_log_row_factors(x)
        M = matrix(N, N)
        for i in range(N):
            for j in range(i, N):
                M[i, j] = M[j, i] = signs[i] * signs[j] * exp(logs[i] + logs[j] - log(x[i] + x[j]))
        P = G.entries * M
        worst = mpf(0)
        for i in range(N):
            for j in range(N):
                worst = max(worst, abs(P[i, j] - (1 if i == j else 0)))
    return M, worst


def _pair_determinant(G):
    with working_precision(G.precision_bits):
        x = _pair_nodes(G.lam)
        N = len(x)
        acc = mpf(0)
        for j in range(N):
            for k in range(j + 1, N):
                acc += 2 * log(x[k] - x[j])
        for j in range(N):
            for k in range(N):
                acc -= log(x[j] + x[k])
        return exp(acc)


def _pair_distances(lam, N, bits):
    """[(D_{n,N}, dual norm)] for n = 1..N; each row factor is deterministic,
    so the rows are built once and row n read for each n."""
    with working_precision(bits):
        x = _pair_nodes(lam.prefix(N))
        logs, _ = _pair_log_row_factors(x)
        return [(exp(log_distance(lam, n, N)), exp(logs[n - 1] - log(2 * x[n - 1]) / 2))
                for n in range(1, N + 1)]


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
    lam = _cauchy_set(name, bits)
    G = gram_matrix(lam.prefix(N), bits)
    want_M, want_res = _pair_inverse(G)
    if want_res <= mpf(inverse_residual_tolerance(bits)):
        M, res = cauchy_inverse(G)
        assert repr(M.tolist()) == repr(want_M.tolist())
        assert repr(res) == repr(want_res)
    else:
        with pytest.raises(PrecisionInsufficientError) as info:
            cauchy_inverse(G)
        assert repr(info.value.residual) == repr(want_res)
    assert repr(cauchy_determinant(G)) == repr(_pair_determinant(G))

    want = _pair_distances(lam, N, bits)
    reports, m_fit = distance_lower_bound_check(lam, N, 0.5, bits)
    for n, (rep, (d, dual)) in enumerate(zip(reports, want), 1):
        assert (repr(rep.distance), repr(rep.dual_norm)) == (repr(d), repr(dual))
        single = distance(lam, n, N, bits)
        assert (repr(single.distance), repr(single.dual_norm)) == (repr(d), repr(dual))
    with working_precision(bits):
        want_fit = min(d / (1 - mpf(0.5)) ** mpf(v) for (d, _), v in zip(want, lam.values))
    assert repr(m_fit) == repr(want_fit)


def test_escalated_inverse_bit_identical_to_per_pair():
    # squares at N = 16 miss the 64-bit residual target and escalate once
    lam = _cauchy_set("squares", 64)
    G, M, res = inverse_with_escalation(lam, 64)
    assert G.precision_bits == 128
    assert _pair_inverse(gram_matrix(lam, 64))[1] > mpf(inverse_residual_tolerance(64))
    want_M, want_res = _pair_inverse(gram_matrix(lam, 128))
    assert repr(M.tolist()) == repr(want_M.tolist())
    assert repr(res) == repr(want_res)


# ---------------------------------------------------------------------------
# the exact identity residual is fdot's, bit for bit


def _fdot_residual(G, M):
    """max|G*M - I| with each entry summed by fdot, row i of G against column j of M."""
    rows, cols = G.tolist(), M.T.tolist()
    worst = mpf(0)
    for i, row in enumerate(rows):
        for j, col in enumerate(cols):
            worst = max(worst, abs(mp.fdot(row, col) - (1 if i == j else 0)))
    return worst


@given(lam=exponent_sets(max_n=16), bits=st.sampled_from([64, 128, 256, 512]))
def test_identity_residual_is_fdot_bit_for_bit(lam, bits):
    # N = 1, tight gaps, and with no residual target the 64-bit sets that
    # miss it (and escalate in dual_family) are compared too
    G = gram_matrix(lam, bits)
    M, res = cauchy_inverse(G, residual_tol=mp.inf)
    with working_precision(bits):
        want = _fdot_residual(G.entries, M)
        assert repr(identity_residual(G.entries, M)) == repr(want)
    assert repr(res) == repr(want)


def test_identity_residual_guard_keeps_fdot(monkeypatch):
    # G*M - I is exactly 2^-(prec+64) at (0, 1) and 0 elsewhere, but fdot
    # sums that entry's terms 2^-(prec+64), 2^(prec+64), -2^(prec+64) in
    # that order, drops the first and returns 0: the exponent spread of
    # G's first row exceeds 2 prec, so fdot itself must form the sums.
    # An unsymmetric M of a real family stays on the integers.
    family = gram_matrix(_cauchy_set("squares", 256).prefix(8), 256)
    B = cauchy_inverse(family)[0].copy()
    B[0, 1] = 2 * B[0, 1]
    calls = []
    fdot = mp.fdot

    def counting(ctx, *args):
        calls.append(args)
        return fdot(*args)

    with working_precision(256):
        a, H = mp.ldexp(1, -(mp.prec + 64)), mp.ldexp(1, mp.prec + 64)
        G = matrix([[a, H, -H], [1, 0, 0], [-1, 0, 1]])
        M = matrix([[0, 1, 0], [1 / H, 1, 1], [0, 1, 1]])
        assert _fdot_residual(G, M) == 0
        want = _fdot_residual(family.entries, B)
        monkeypatch.setattr(type(mp), "fdot", counting)
        assert identity_residual(G, M) == 0
        assert len(calls) == 9
        assert repr(identity_residual(family.entries, B)) == repr(want)
        assert len(calls) == 9


# every family the duals benchmark builds, pinned before the residual and the
# log/exp assembly moved to raw mantissas: repr at 1024 bits shows every bit
FAMILY_DIGESTS = {
    "custom": "704aeea7fdebb1b215bceb145a8f488f7b81367be68b77a14b5962790b235886",
    "lacunary2": "306c229bc7349dd81fe6c0205a318e5fd8035a08c1f105a396255dc837023ce2",
    "power1.5": "5e1aa11d941adebaad07f4cb020743f6ec52acf71833940521d53fe9e2772ed7",
    "squares": "ea7cfa0b14a22347eaf0f2a02eb5b0863b1ecfdec642bd857ae4410952b0346d",
}
# (name, N) whose 64-bit request escalates to 128 bits
ESCALATED = {("squares", 16), ("power1.5", 16), ("custom", 12), ("custom", 16)}


@pytest.mark.parametrize("name", sorted(CAUCHY_SETS))
def test_dual_families_are_pinned(name):
    digest = hashlib.sha256()
    for N in (8, 12, 16):
        for bits in (64, 256, 512):
            fam = dual_family(_cauchy_set(name, bits), N, bits)
            assert fam.precision_bits == (128 if bits == 64 and (name, N) in ESCALATED else bits)
            with mp.workprec(1024):
                text = repr((fam.coeffs.tolist(), fam.norms, fam.projection_deficit,
                             fam.biorthogonality_residual, fam.precision_bits))
            digest.update(text.encode())
    assert digest.hexdigest() == FAMILY_DIGESTS[name]


# ---------------------------------------------------------------------------
# regression guard: how many logarithms each formula takes (counts, no timing)


@pytest.fixture()
def log_calls(monkeypatch):
    calls = []
    real = gram.mpf_log

    def counting(v, *args):
        calls.append(v)
        return real(v, *args)

    monkeypatch.setattr(gram, "mpf_log", counting)
    return calls


def test_log_counts_per_formula(log_calls):
    N = 12
    lam = generate_exponents("power", {"p": 2}, N)
    G = gram_matrix(lam, 256)
    cauchy_inverse(G)
    assert len(log_calls) == N * N
    del log_calls[:]
    distance(lam, 5, N)
    assert len(log_calls) <= 4 * N
    del log_calls[:]
    distance_lower_bound_check(lam, N, 0.5)
    assert len(log_calls) == 2 * N * N


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
