"""linalg's certified eigenvalue kernels and the checks built on them.

perron_lambda_max under the mixed-system checks, and pencil_lambda_max
under the operator norms of the synthesis certificate (the lambda_max
tests below run it on the standard problem, B = I).  The property tests
draw admissible exponent sets and hold each certified enclosure against an
independent oracle.  For the mixed systems that is the Gram matrix and its
inverse rebuilt at twice the bits, with mpmath.eigsy on both principal
blocks of X^H X = diag(G[N1,N1], G^-1[N2,N2]), and the same exact matrices
for the closed-form block inverses.  For the operator norms it is the
orthonormal matrix M_w = L^T diag(w) L^-T built from mpmath.cholesky at
twice the bits: mpmath.eigsy on M_w^H M_w as the kernel receives it, and
mpmath.eighe on it for the pencil the certificate solves.
"""

import hashlib

import pytest
from hypothesis import assume, event, given, settings, strategies as st
from mpmath import matrix, mp, mpf, sqrt

from muntzlab import (
    InputError,
    MuntzOperator,
    Partition,
    PrecisionInsufficientError,
    dilation_operator,
    dual_family,
    finite_series,
    generate_exponents,
    mixed_completeness_check,
    mixed_reconstruction_residual,
    normality_defect,
    sample_partitions,
    working_precision,
)
from muntzlab import completeness, linalg
from muntzlab.completeness import (_mixed_scales, _perron_block, _sigma_ends, all_partitions,
                                   mixed_system_floor)
from muntzlab.linalg import _start_vector, pencil_lambda_max, perron_lambda_max
from muntzlab.operators import _norm_enclosure

from conftest import (commutator_norm, exponent_sets, mixed_sigma_oracle, operator_norm,
                      orthonormal_matrix)

BITS = 256


def standard_lambda_max(H, bits):
    """The standard problem: the pencil (H, I) with I as its own inverse."""
    eye = [[mpf(int(i == j)) for j in range(len(H))] for i in range(len(H))]
    return pencil_lambda_max(H, eye, eye, bits)


def test_unit_block_is_certified():
    # x = (1), theta = 1 and y = x exactly: only the rounding factor lifts
    # the upper end
    theta, upper, iterations = perron_lambda_max([[[mpf(1)]]], 0, BITS)
    assert theta == 1
    assert 1 < upper < 1 + mpf(2) ** -200
    assert iterations == 2


def test_diagonal_blocks_give_the_smaller_minimum():
    # lambda_min(diag(B_1, B_2)) = 1 / lambda_max(diag(B_1^-1, B_2^-1)):
    # B_1 = [[3, 1], [1, 3]] (lambda_min 2, its inverse similar to the
    # positive [[3, 1], [1, 3]] / 8) and B_2 = (5), in either order
    pair = [[mpf(3) / 8, mpf(1) / 8], [mpf(1) / 8, mpf(3) / 8]]
    single = [[mpf(1) / 5]]
    for blocks in ([pair, single], [single, pair]):
        theta, upper, _ = perron_lambda_max(blocks, 0, BITS)
        with working_precision(BITS):
            assert 1 / upper < 2 <= (1 / theta) * (1 + mpf(10) ** -60)
            assert abs(1 / theta - 2) < mpf(10) ** -20
            assert 2 - 1 / upper < mpf(10) ** -8


def test_negative_entry_is_refused():
    # Collatz-Wielandt needs P >= 0; an indefinite block with positive
    # entries, [[1, 2], [2, 1]], is fine (lambda_max 3)
    with pytest.raises(InputError):
        perron_lambda_max([[[mpf(1), mpf(-2)], [mpf(-2), mpf(1)]]], 0, BITS)
    # below double range the entry's double is -0.0 and still carries the sign
    tiny = -mp.ldexp(mpf(1), -3000)
    with pytest.raises(InputError):
        perron_lambda_max([[[mpf(1), tiny], [tiny, mpf(1)]]], 0, BITS)
    theta, upper, _ = perron_lambda_max([[[mpf(1), mpf(2)], [mpf(2), mpf(1)]]], 0, BITS)
    assert theta <= 3 * (1 + mpf(2) ** -200) and 3 < upper


def test_no_block_is_an_input_error():
    with pytest.raises(InputError):
        perron_lambda_max([[], []], 0, BITS)
    with pytest.raises(InputError):
        perron_lambda_max([[[mpf(0)] * 2] * 2], 0, BITS)


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
    # spectrum {2, 4}: (1, -1) is the eigenvector for 2, so the mpmath loop
    # settles on 2 at once; Collatz-Wielandt needs a positive vector and
    # refuses it
    calls = _misleading_seed(monkeypatch, [1, -1])
    with pytest.raises(PrecisionInsufficientError):
        perron_lambda_max([[[mpf(3), mpf(1)], [mpf(1), mpf(3)]]], 0, BITS)
    assert calls == [2]


def test_lambda_max_misleading_seed_is_refused(monkeypatch):
    # spectrum {2, 4} + {1}: (1, -1, 0) is the eigenvector for 2
    calls = _misleading_seed(monkeypatch, [1, -1, 0])
    H = [[mpf(3), mpf(1), mpf(0)], [mpf(1), mpf(3), mpf(0)], [mpf(0), mpf(0), mpf(1)]]
    with pytest.raises(PrecisionInsufficientError):
        standard_lambda_max(H, BITS)
    assert calls == [3]


@pytest.mark.parametrize("k", [1500, -1500])
def test_entries_beyond_double_range_are_certified(fam_squares_10, k):
    # each block's own power-of-two scale brings the seed's data back into
    # double range, so the scaled run repeats the unscaled one to the bit
    part = Partition.from_monomial_set({1, 3, 5, 7, 9}, 10)
    n1, n2, d, e = _mixed_scales(part, fam_squares_10)
    G = fam_squares_10.gram.entries
    with working_precision(BITS):
        blocks = [_perron_block(G, n1, d), _perron_block(G, n2, e)]
    scaled = [[[mp.ldexp(v, k) for v in row] for row in B] for B in blocks]
    theta, upper, iterations = perron_lambda_max(blocks, 0, BITS)
    assert perron_lambda_max(scaled, 0, BITS) == (mp.ldexp(theta, k), mp.ldexp(upper, k),
                                                  iterations)
    assert iterations <= 3

    H = [[G[i - 1][j - 1] for j in n1] for i in n1]
    lo, theta, hi = standard_lambda_max(H, BITS)
    assert standard_lambda_max([[mp.ldexp(v, k) for v in row] for row in H], BITS) == (
        mp.ldexp(lo, k), mp.ldexp(theta, k), mp.ldexp(hi, k))


def test_seeded_sweep_takes_few_steps(lam_squares):
    # the float pre-phase leaves the mpmath loop about two steps per block
    # on the N = 8 sweep
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


@given(lam=exponent_sets(), data=st.data())
def test_certified_enclosure_property(lam, data):
    # a drawn partition, the all-monomial and all-dual ones, and the floor
    # over every partition, which the last two attain
    N = len(lam)
    fam = dual_family(lam, N, BITS)
    bits = fam.precision_bits
    oracle = mixed_sigma_oracle(lam.values, 2 * bits)
    n1 = data.draw(st.sets(st.integers(1, N)))
    monomial_sets = {frozenset(n1), frozenset(), frozenset(range(1, N + 1))}
    ends = []
    for ns in monomial_sets:
        part = Partition.from_monomial_set(ns, N)
        check = mixed_completeness_check(part, fam)
        ends.append((check.min_singular, check.sigma_lower, oracle(part.n1, part.n2)))
        assert check.invertible
    sigma, lower, _ = mixed_system_floor(fam)
    everything = range(1, N + 1)
    ends.append((sigma, lower, min(oracle(everything, ()), oracle((), everything))))
    with mp.workprec(2 * bits):
        for estimate, certified, want in ends:
            assert certified <= want <= estimate * (1 + mpf(2) ** (-bits // 2))
            assert abs(estimate - want) <= mpf(10) ** -20 * want


@given(lam=exponent_sets(), data=st.data())
def test_closed_form_block_inverses_property(lam, data):
    # (D G[N1,N1] D) G[N1,N1] = I and (E G[N2,N2] E) G^-1[N2,N2] = I with the
    # scales as the checks take them and G, G^-1 exact at twice the bits.
    # Each scale is within 4N + 1 roundings of its exact value, so every
    # entry of the product is within (8N + 10) 2^(1-p) of the identity,
    # relative to the same product of absolute values
    N = len(lam)
    fam = dual_family(lam, N, BITS)
    bits = fam.precision_bits
    part = Partition.from_monomial_set(data.draw(st.sets(st.integers(1, N))), N)
    n1, n2, d, e = _mixed_scales(part, fam)
    with mp.workprec(2 * bits):
        x = [mpf(v) for v in lam.values]
        G = matrix([[1 / (a + b + 1) for b in x] for a in x])
        blocks = ((n1, d, G), (n2, e, mp.inverse(G)))
        tol = (8 * N + 10) * mpf(2) ** (1 - bits)
        for idx, s, B in blocks:
            inv = [[s[a] * G[i - 1, j - 1] * s[b] for b, j in enumerate(idx)]
                   for a, i in enumerate(idx)]
            Bs = [[B[i - 1, j - 1] for j in idx] for i in idx]
            for a, row in enumerate(inv):
                for b in range(len(idx)):
                    col = [r[b] for r in Bs]
                    got = mp.fdot(row, col) - (a == b)
                    assert abs(got) <= tol * mp.fdot([abs(v) for v in row], [abs(v) for v in col])


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


# ---------------------------------------------------------------------------
# the dominant block alone

# sha256 of repr([(key, min_singular, sigma_lower, invertible), ...]) with the
# mpf values as raw (sign, man, exp, bc) tuples, computed before the checks
# iterated only the dominant block: every partition at N = 8 on squares and
# on power p = 1.5 (nodes wider than the working precision), 32 sampled
# partitions at N = 12, the floor at N = 10 and 8 reconstruction residuals
MIXED_DIGEST = "df6faffed031e5a9e06ee5e0438b360b48ef920f04386f431ff9704bda4875c9"


def test_mixed_checks_keep_their_bits(lam_squares):
    power = generate_exponents("power", {"p": 1.5}, 8)
    rows = []
    for lam in (lam_squares, power):
        fam = dual_family(lam, 8, BITS)
        rows += [(part, mixed_completeness_check(part, fam)) for part in all_partitions(8)]
    fam = dual_family(lam_squares, 12, BITS)
    rows += [(part, mixed_completeness_check(part, fam))
             for part in sample_partitions(12, 32, seed=5)]
    rows = [(part.key(), c.min_singular._mpf_, c.sigma_lower._mpf_, c.invertible)
            for part, c in rows]
    sigma, lower, _ = mixed_system_floor(dual_family(lam_squares, 10, BITS))
    rows.append(("floor", sigma._mpf_, lower._mpf_))
    t3 = finite_series(generate_exponents("integers", {"values": [3]}, 1), [1])
    fam = dual_family(power, 8, BITS)
    rows += [(part.key(), mixed_reconstruction_residual(t3, part, fam)._mpf_)
             for part in sample_partitions(8, 8, seed=2)]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == MIXED_DIGEST


def _recording_kernel(monkeypatch):
    # (number of blocks, result) of every perron_lambda_max call of the checks
    calls = []

    def kernel(blocks, roundings, bits):
        calls.append((len(blocks), perron_lambda_max(blocks, roundings, bits)))
        return calls[-1][1]

    monkeypatch.setattr(completeness, "perron_lambda_max", kernel)
    return calls


def test_equal_blocks_take_the_two_block_call(fam_squares_10, monkeypatch):
    # each trace lies above the other block's theta, so the skip cannot fire
    fam = fam_squares_10
    n1, _, d, _ = _mixed_scales(Partition.from_monomial_set({2, 5, 6}, 10), fam)
    calls = _recording_kernel(monkeypatch)
    got = _sigma_ends([(n1, d), (n1, d)], fam)
    assert [n for n, _ in calls] == [1, 2]
    with working_precision(BITS):
        block = _perron_block(fam.gram.entries, n1, d)
        theta, upper, iterations = perron_lambda_max([block, block], 8 * 10 + 10, BITS)
        assert got == (sqrt(1 / theta), sqrt(1 / upper), iterations)


def test_skip_fires_on_every_two_block_partition(lam_squares, monkeypatch):
    # the smaller block's lambda_max is at most 3.5 % of the larger's on this
    # sweep, so one call on one block decides every partition (with one
    # empty block there is only one to iterate)
    fam = dual_family(lam_squares, 8, BITS)
    calls = _recording_kernel(monkeypatch)
    for part in all_partitions(8):
        del calls[:]
        mixed_completeness_check(part, fam)
        assert [n for n, _ in calls] == [1]


@given(lam=exponent_sets(), data=st.data())
def test_skip_keeps_the_two_block_ends_property(lam, data):
    # whenever one call on one block decides, its theta and upper are those
    # of the kernel on both blocks, bit for bit
    N = len(lam)
    fam = dual_family(lam, N, BITS)
    part = Partition.from_monomial_set(data.draw(st.sets(st.integers(1, N))), N)
    with pytest.MonkeyPatch.context() as patch:
        calls = _recording_kernel(patch)
        mixed_completeness_check(part, fam)
    n1, n2, d, e = _mixed_scales(part, fam)
    with working_precision(BITS):
        G = fam.gram.entries
        blocks = [_perron_block(G, n1, d), _perron_block(G, n2, e)]
    theta, upper, _ = perron_lambda_max(blocks, 8 * N + 10, BITS)
    event("one block decides" if len(calls) == 1 else "two-block call")
    if len(calls) == 1:
        assert [v._mpf_ for v in calls[0][1][:2]] == [theta._mpf_, upper._mpf_]
