"""linalg's certified eigenvalue kernels and the checks built on them.

block_diagonal_lambda_min under the mixed-system checks, and
pencil_lambda_max under the operator norms of the synthesis certificate
(the lambda_max tests below run it on the standard problem, B = I).  The
property tests draw admissible exponent sets and hold each certified
enclosure against an independent oracle.  For the mixed systems that is
the Gram matrix and its inverse rebuilt at twice the bits, with
mpmath.eigsy on both principal blocks of
X^H X = diag(G[N1,N1], G^-1[N2,N2]).  For the operator norms it is the
orthonormal matrix M_w = L^T diag(w) L^-T built from mpmath.cholesky at
twice the bits: mpmath.eigsy on M_w^H M_w as the kernel receives it, and
mpmath.eighe on it for the pencil the certificate solves.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath import matrix, mp, mpf, sqrt

from muntzlab import (
    InputError,
    MuntzOperator,
    Partition,
    PrecisionInsufficientError,
    dilation_operator,
    dual_family,
    generate_exponents,
    mixed_completeness_check,
    normality_defect,
    working_precision,
)
from muntzlab import linalg
from muntzlab.completeness import all_partitions
from muntzlab.exponents import DEFAULT_DELTA_MIN
from muntzlab.linalg import _start_vector, block_diagonal_lambda_min, pencil_lambda_max
from muntzlab.operators import _norm_enclosure

from conftest import commutator_norm, operator_norm, orthonormal_matrix

BITS = 256


def standard_lambda_max(H, bits):
    """The standard problem: the pencil (H, I) with I as its own inverse."""
    eye = [[mpf(int(i == j)) for j in range(len(H))] for i in range(len(H))]
    return pencil_lambda_max(H, eye, eye, bits)


def test_unit_block_is_certified():
    # x = (1), theta = 1 and r = 0 exactly: only the rounding margin keeps
    # the shifted factorization off a zero pivot
    theta, s, iterations = block_diagonal_lambda_min([[[mpf(1)]]], BITS)
    assert theta == 1
    assert 1 - mpf(2) ** -200 < s < 1
    assert iterations == 2


def test_diagonal_blocks_give_the_smaller_minimum():
    blocks = [[[mpf(3), mpf(1)], [mpf(1), mpf(3)]], [[mpf(5)]]]
    theta, s, _ = block_diagonal_lambda_min(blocks, BITS)
    with working_precision(BITS):
        assert s < 2 <= theta * (1 + mpf(10) ** -60)
        assert abs(theta - 2) < mpf(10) ** -20
        assert 2 - s < mpf(10) ** -8


def test_start_vector_eigenvector_is_refused():
    # B = I + 4 v v^T/|v|^2 with v the fixed start vector: v is an eigenvector
    # for 5, so the iteration stalls there at once although lambda_min = 1;
    # only the shifted Cholesky can tell
    with working_precision(BITS):
        v = _start_vector(2)
        vv = sum(c * c for c in v)
        B = [[(1 if i == j else 0) + 4 * v[i] * v[j] / vv for j in range(2)] for i in range(2)]
    with pytest.raises(PrecisionInsufficientError):
        block_diagonal_lambda_min([B], BITS)


def test_indefinite_block_is_refused():
    with pytest.raises(PrecisionInsufficientError):
        block_diagonal_lambda_min([[[mpf(1), mpf(2)], [mpf(2), mpf(1)]]], BITS)


def test_no_block_is_an_input_error():
    with pytest.raises(InputError):
        block_diagonal_lambda_min([[], []], BITS)


def test_lambda_max_of_a_scalar_is_certified():
    # theta = h and r = 0 exactly: only the rounding margin lifts the shift
    lo, theta, hi = standard_lambda_max([[mpf(3)]], BITS)
    assert theta == 3
    assert 3 - mpf(2) ** -200 < lo < 3 < hi < 3 + mpf(2) ** -200


def test_lambda_max_start_vector_eigenvector_is_refused():
    # H = 5I - 4 v v^T/|v|^2: the start vector v is an eigenvector for 1, so
    # power iteration stays there although lambda_max = 5; only the shifted
    # Cholesky can tell
    with working_precision(BITS):
        v = _start_vector(2)
        vv = sum(c * c for c in v)
        H = [[(5 if i == j else 0) - 4 * v[i] * v[j] / vv for j in range(2)] for i in range(2)]
    with pytest.raises(PrecisionInsufficientError):
        standard_lambda_max(H, BITS)


def test_lambda_max_zero_matrix_is_refused():
    with pytest.raises(PrecisionInsufficientError):
        standard_lambda_max([[mpf(0)] * 2] * 2, BITS)
    with pytest.raises(InputError):
        pencil_lambda_max([], [], [], BITS)


def _misleading_seed(monkeypatch, vector):
    # the float pre-phase hands over an eigenvector of a non-extreme eigenvalue
    calls = []

    def seed(mats, step):
        calls.append(len(mats[0]))
        return [mpf(v) for v in vector]

    monkeypatch.setattr(linalg, "_float_seed", seed)
    return calls


def test_misleading_seed_is_refused(monkeypatch):
    # spectrum {2, 4} + {5}: (1, 1, 0) is the eigenvector for 4, so the mpmath
    # loop settles on 4 at once; the shifted Cholesky must refuse it
    calls = _misleading_seed(monkeypatch, [1, 1, 0])
    blocks = [[[mpf(3), mpf(1)], [mpf(1), mpf(3)]], [[mpf(5)]]]
    with pytest.raises(PrecisionInsufficientError):
        block_diagonal_lambda_min(blocks, BITS)
    assert calls == [3]


def test_lambda_max_misleading_seed_is_refused(monkeypatch):
    # spectrum {2, 4} + {1}: (1, -1, 0) is the eigenvector for 2
    calls = _misleading_seed(monkeypatch, [1, -1, 0])
    H = [[mpf(3), mpf(1), mpf(0)], [mpf(1), mpf(3), mpf(0)], [mpf(0), mpf(0), mpf(1)]]
    with pytest.raises(PrecisionInsufficientError):
        standard_lambda_max(H, BITS)
    assert calls == [3]


@pytest.mark.parametrize("k", [1500, -1500])
def test_entries_beyond_double_range_are_certified(fam_squares_10, k):
    # one common power-of-two scale brings the seed's data back into double
    # range, so the scaled run repeats the unscaled one to the bit
    part = Partition.from_monomial_set({1, 3, 5, 7, 9}, 10)
    G, Ginv = fam_squares_10.gram_rows, fam_squares_10.inverse_rows
    blocks = [[[A[i - 1][j - 1] for j in idx] for i in idx]
              for A, idx in ((G, sorted(part.n1)), (Ginv, sorted(part.n2)))]
    scaled = [[[mp.ldexp(v, k) for v in row] for row in B] for B in blocks]
    theta, s, iterations = block_diagonal_lambda_min(blocks, BITS)
    assert block_diagonal_lambda_min(scaled, BITS) == (mp.ldexp(theta, k), mp.ldexp(s, k),
                                                       iterations)
    assert iterations <= 3

    H = blocks[0]
    lo, theta, hi = standard_lambda_max(H, BITS)
    assert standard_lambda_max([[mp.ldexp(v, k) for v in row] for row in H], BITS) == (
        mp.ldexp(lo, k), mp.ldexp(theta, k), mp.ldexp(hi, k))


def test_seeded_sweep_takes_few_steps(lam_squares):
    # the float pre-phase leaves the mpmath loop about two steps on the
    # N = 8 sweep (mean 9.65, max 19 from the fixed start vector alone)
    fam = dual_family(lam_squares, 8, BITS)
    steps = [mixed_completeness_check(part, fam).iterations for part in all_partitions(8)]
    assert sum(steps) / len(steps) <= 3
    assert max(steps) <= 8


def test_invertible_rests_on_the_certified_bound(fam_squares_10):
    part = Partition.from_monomial_set({1, 3, 5, 7, 9}, 10)
    check = mixed_completeness_check(part, fam_squares_10)
    assert check.iterations >= 2
    # the enclosure is narrower than one double ulp: keep the midpoint an mpf
    with working_precision(BITS):
        between = (check.sigma_lower + check.min_singular) / 2
    assert check.sigma_lower < between < check.min_singular
    assert not mixed_completeness_check(part, fam_squares_10, threshold=between).invertible


# ---------------------------------------------------------------------------
# properties


def _oracle_sigma_min(values, n1, n2, prec):
    """sqrt of the smallest eigenvalue over the two blocks, rebuilt independently."""
    with mp.workprec(prec):
        N = len(values)
        G = matrix(N, N)
        for j in range(N):
            for k in range(N):
                G[j, k] = 1 / (mpf(values[j]) + mpf(values[k]) + 1)
        Ginv = mp.inverse(G)
        mins = []
        for idx, A in ((sorted(n1), G), (sorted(n2), Ginv)):
            if idx:
                B = matrix([[A[i - 1, j - 1] for j in idx] for i in idx])
                mins.append(min(mp.eigsy(B, eigvals_only=True)))
        return sqrt(min(mins))


@st.composite
def exponent_sets(draw, max_n=10):
    """Admissible prefixes: power, lacunary, or custom non-integer with a tight gap."""
    N = draw(st.integers(1, max_n))
    kind = draw(st.sampled_from(("power", "lacunary", "custom")))
    if kind == "power":
        return generate_exponents("power", {"p": draw(st.floats(1.5, 3.0))}, N)
    if kind == "lacunary":
        return generate_exponents("lacunary", {"q": draw(st.floats(1.25, 3.0))}, N)
    gaps = draw(st.lists(st.floats(0.5, 3.0), min_size=N - 1, max_size=N - 1))
    if gaps:
        # one gap close to delta_min (10^-5.8 = 1.6 delta_min at the low end)
        gaps[draw(st.integers(0, N - 2))] = 10 ** -draw(st.floats(2.0, 5.8))
    values = [draw(st.floats(0.25, 2.0))]
    for g in gaps:
        values.append(values[-1] + g)
    assume(all(v != int(v) for v in values))
    assume(all(b - a >= DEFAULT_DELTA_MIN for a, b in zip(values, values[1:])))
    return generate_exponents("custom", {"values": values}, N)


@given(lam=exponent_sets(), data=st.data())
def test_certified_enclosure_property(lam, data):
    N = len(lam)
    fam = dual_family(lam, N, BITS)
    bits = fam.precision_bits
    n1 = data.draw(st.sets(st.integers(1, N)))
    monomial_sets = {frozenset(n1), frozenset(), frozenset(range(1, N + 1))}
    for ns in monomial_sets:
        part = Partition.from_monomial_set(ns, N)
        check = mixed_completeness_check(part, fam)
        want = _oracle_sigma_min(lam.values, part.n1, part.n2, 2 * bits)
        with mp.workprec(2 * bits):
            assert check.sigma_lower <= want <= check.min_singular * (1 + mpf(2) ** (-bits // 2))
            assert abs(check.min_singular - want) <= mpf(10) ** -20 * want
        assert check.invertible


@given(lam=exponent_sets(), data=st.data())
def test_lambda_max_enclosure_property(lam, data):
    # the tail M_w of a dilation operator beyond a drawn head m, and
    # M^-1 (w = 1/u), whose top eigenvalue dwarfs the rest
    N = len(lam)
    fam = dual_family(lam, N, BITS)
    bits = fam.precision_bits
    m = data.draw(st.integers(0, N - 1))
    op = dilation_operator(lam, data.draw(st.floats(0.2, 0.6)), N)
    with working_precision(bits):
        weights = ([0] * m + list(op.u[m:]), [1 / u for u in op.u])
    for w in weights:
        M = orthonormal_matrix(fam, w)
        with working_precision(bits):
            H = [[mp.fdot(M.column(j), M.column(i)) for j in range(N)] for i in range(N)]
        lo, theta, hi = standard_lambda_max(H, bits)
        with mp.workprec(2 * bits):
            want = max(mp.eigsy(matrix(H), eigvals_only=True))
            assert lo <= want <= hi
            assert lo <= theta <= hi
            assert hi - lo <= mpf(10) ** -9 * want


@pytest.mark.parametrize("value", [1, 0.37, 2.5, 7])
def test_single_exponent_is_certified(value):
    # N = 1: the block is the scalar 1/(2 lambda + 1) or its inverse, r is
    # zero up to rounding, and the margin alone puts the shift below it
    lam = generate_exponents("custom", {"values": [value]}, 1)
    fam = dual_family(lam, 1, BITS)
    for ns in ((), (1,)):
        check = mixed_completeness_check(Partition.from_monomial_set(ns, 1), fam)
        with mp.workprec(2 * BITS):
            g = 1 / (2 * mpf(value) + 1)
            want = sqrt(g) if ns else 1 / sqrt(g)
            assert check.sigma_lower < want <= check.min_singular * (1 + mpf(2) ** -(BITS // 2))
            assert want - check.sigma_lower < mpf(2) ** -(BITS // 2) * want


@settings(max_examples=12)
@given(lam=exponent_sets(max_n=8), data=st.data())
def test_pencil_enclosure_property(lam, data):
    # a complex u under the decay bound: every tail and the kernel norm
    # against the orthonormal matrix of the Gram as stored, the trace-identity
    # defect against that of the exact Gram (a tight gap makes kappa(G) reach
    # 1e21, and the stored Gram's rounding then moves the commutator by 2e-64)
    N = len(lam)
    fam = dual_family(lam, N, BITS)
    bits = fam.precision_bits
    rho = data.draw(st.floats(0.2, 0.9))
    moduli = data.draw(st.lists(st.floats(0.05, 1.0), min_size=N, max_size=N))
    phases = data.draw(st.lists(st.floats(0.0, 6.28), min_size=N, max_size=N))
    with working_precision(bits):
        u = tuple(mpf(rho) ** mpf(v) * mpf(s) * mp.expjpi(mpf(t) / mp.pi)
                  for v, s, t in zip(lam.values, moduli, phases))
        assume(len(set(u)) == N)
        weights = [[0] * m + list(u[m:]) for m in range(N)] + [[1 / v for v in u]]
    op = MuntzOperator(lam, u, rho, N)
    for w in weights:
        lo, est, hi = _norm_enclosure(w, fam)
        want = operator_norm(orthonormal_matrix(fam, w), 2 * bits)
        with mp.workprec(2 * bits):
            assert lo <= want <= hi and lo <= est <= hi
            assert hi - lo <= mpf(10) ** -9 * want
    want = commutator_norm(orthonormal_matrix(fam, u, exact=True), 2 * bits)
    with mp.workprec(2 * bits):
        assert abs(normality_defect(op, fam) - want) <= mpf(10) ** (-mpf(bits) / 4) * want
