import mpmath
import pytest
from mpmath import exp, log, matrix, mp, mpf

from muntzlab import (
    InputError,
    Partition,
    all_partitions,
    distance,
    dual_family,
    finite_series,
    generate_exponents,
    mixed_completeness_check,
    mixed_reconstruction_residual,
    mixed_reconstruction_residuals,
    mixed_system_floor,
    projection_residual,
    sample_partitions,
    working_precision,
)
from muntzlab.linalg import LUFactors

from conftest import cholesky_oracle

LAM_12 = generate_exponents("integers", {"values": [1, 2]}, 2)
T3 = finite_series(generate_exponents("integers", {"values": [3]}, 1), [1])


def mixed_matrix(partition, family):
    """Oracle X: column n is column n of L^T (n in N1) or of L^-1 (n in N2)."""
    N = family.truncation
    L, Linv = cholesky_oracle(family)
    with working_precision(family.precision_bits):
        Lt = L.T
        X = matrix(N, N)
        for j in range(N):
            src = Lt if j + 1 in partition.n1 else Linv
            for i in range(N):
                X[i, j] = src[i, j]
        return X


def product_distance(mu, N):
    """Closed-form distance from t^mu to span{t^(k^2): k <= N}, for mu not a square."""
    acc = -log(2 * mpf(mu) + 1) / 2
    for k in range(1, N + 1):
        acc += log(abs(mu - k * k)) - log(mu + k * k + 1)
    return exp(acc)


def test_partition_validation():
    Partition(frozenset({1}), frozenset({2}), 2)
    with pytest.raises(InputError):
        Partition(frozenset({1, 2}), frozenset({2}), 2)
    with pytest.raises(InputError):
        Partition(frozenset({1}), frozenset(), 2)
    with pytest.raises(InputError):
        Partition(frozenset({1}), frozenset({3}), 2)


def test_all_partitions_enumeration():
    parts = list(all_partitions(4))
    assert len(parts) == 16
    keys = [p.key() for p in parts]
    assert len(set(keys)) == 16


def test_sample_partitions_deterministic():
    a = [p.key() for p in sample_partitions(12, 20, seed=3)]
    b = [p.key() for p in sample_partitions(12, 20, seed=3)]
    c = [p.key() for p in sample_partitions(12, 20, seed=4)]
    assert a == b
    assert a != c


def test_mixed_matrix_columns(fam_12):
    part = Partition.from_monomial_set({1}, 2)
    X = mixed_matrix(part, fam_12)
    with working_precision(256):
        Lt = cholesky_oracle(fam_12)[0].T
        # column 1: monomial coordinates L^T e_1; column 2: L^T (-60, 80)
        assert abs(X[0, 0] - Lt[0, 0]) < 1e-60 and abs(X[1, 0] - Lt[1, 0]) < 1e-60
        want = (Lt[0, 0] * -60 + Lt[0, 1] * 80, Lt[1, 0] * -60 + Lt[1, 1] * 80)
        assert abs(X[0, 1] - want[0]) < 1e-55 and abs(X[1, 1] - want[1]) < 1e-55


def test_mixed_pair_gram_is_diagonal(fam_12):
    # Gram of {e_1, r_2} = [[1/3, 0], [0, 80]] by biorthogonality
    part = Partition.from_monomial_set({1}, 2)
    X = mixed_matrix(part, fam_12)
    with working_precision(256):
        P = X.T * X
        assert abs(P[0, 0] - mpf(1) / 3) < 1e-55
        assert abs(P[0, 1]) < 1e-55
        assert abs(P[1, 0]) < 1e-55
        assert abs(P[1, 1] - 80) < 1e-50
        det = P[0, 0] * P[1, 1] - P[0, 1] * P[1, 0]
        assert abs(det - mpf(80) / 3) < 1e-50


def test_extreme_partitions(fam_squares_10):
    # the block identity X^T X = diag(G[N1,N1], G^-1[N2,N2]) at both extremes
    # and in between, on the oracle X
    N = 10
    G, C = fam_squares_10.gram_rows, fam_squares_10.inverse_rows
    for n1 in (range(1, N + 1), (), (2, 4, 6, 8, 10)):
        part = Partition.from_monomial_set(n1, N)
        X = mixed_matrix(part, fam_squares_10)
        with working_precision(fam_squares_10.precision_bits):
            P = X.T * X
            for i in range(N):
                for j in range(N):
                    if i + 1 in part.n1 and j + 1 in part.n1:
                        want = G[i][j]
                    elif i + 1 in part.n2 and j + 1 in part.n2:
                        want = C[i][j]
                    else:
                        want = 0
                    assert abs(P[i, j] - want) <= 1e-50 * (1 + abs(want))
        assert mixed_completeness_check(part, fam_squares_10).invertible


def test_exhaustive_small_truncation():
    lam = generate_exponents("power", {"p": 2}, 4)
    fam = dual_family(lam, 4, 256)
    for part in all_partitions(4):
        check = mixed_completeness_check(part, fam)
        assert check.invertible
        assert check.min_singular > 0


def test_sampled_larger_truncation(fam_squares_12):
    for part in sample_partitions(12, 100, seed=0):
        assert mixed_completeness_check(part, fam_squares_12).invertible


def test_threshold_controls_flag(fam_12):
    part = Partition.from_monomial_set({1}, 2)
    strict = mixed_completeness_check(part, fam_12, threshold=1e6)
    assert not strict.invertible
    assert mixed_completeness_check(part, fam_12).invertible


def test_singleton_partition_trivially_invertible():
    lam1 = generate_exponents("integers", {"values": [1]}, 1)
    fam = dual_family(lam1, 1, 256)
    for part in all_partitions(1):
        assert mixed_completeness_check(part, fam).invertible


@pytest.mark.parametrize("p", [2, 1.5], ids=["squares", "power1.5"])
def test_floor_is_the_minimum_over_all_partitions(p):
    # interlacing: every partition's sigma_min is at least the floor, and the
    # all-monomial or the all-dual partition attains it
    fam = dual_family(generate_exponents("power", {"p": p}, 8), 8, 256)
    sigma, lower, iterations = mixed_system_floor(fam)
    checks = [mixed_completeness_check(part, fam) for part in all_partitions(8)]
    smallest = min(c.min_singular for c in checks)
    assert abs(sigma - smallest) <= mpf("1e-30") * smallest
    assert all(lower < c.min_singular for c in checks)
    assert 0 < lower < sigma and iterations >= 1


def test_floor_against_eigsy_oracle(lam_squares):
    # lambda_min(diag(G, G^-1)) = min(lambda_min(G), 1/lambda_max(G)), with G
    # built from 1/(lambda_j + lambda_k + 1) and diagonalised at twice the bits
    fam = dual_family(lam_squares, 10, 256)
    sigma, lower, _ = mixed_system_floor(fam)
    with mp.workprec(512):
        lams = [mpf(v) for v in lam_squares.values[:10]]
        G = matrix([[1 / (a + b + 1) for b in lams] for a in lams])
        eigs = mpmath.eigsy(G, eigvals_only=True)
        want = min(min(eigs), 1 / max(eigs))
        assert want == min(eigs)
        assert lower ** 2 <= want
        assert abs(sigma ** 2 - want) <= mpf("1e-30") * want


@pytest.mark.parametrize("kind, params, n", [
    ("power", {"p": 2}, 12),
    ("lacunary", {"q": 2}, 10),
    ("custom", {"values": [0.3, 1.7, 1.700003, 2.9, 4.4, 5.1, 6.8, 7.3]}, 8),
], ids=["squares", "lacunary", "custom"])
def test_lambda_min_lies_below_every_squared_distance(kind, params, n):
    # D_{n,N}^2 = 1/(G^-1)_nn and (G^-1)_nn <= lambda_max(G^-1) = 1/lambda_min(G),
    # with lambda_min(G) read off the all-monomial check (equality at N = 1)
    lam = generate_exponents(kind, params, n)
    for N in range(1, n + 1):
        fam = dual_family(lam, N, 256)
        check = mixed_completeness_check(Partition.from_monomial_set(range(1, N + 1), N), fam)
        floor = min(distance(lam, k, N).distance for k in range(1, N + 1)) ** 2
        assert check.sigma_lower ** 2 <= floor
        assert check.min_singular ** 2 <= floor * (1 + mpf(2) ** -128)


def test_residual_in_span_target(fam_12):
    e1 = finite_series(LAM_12, [1, 0])
    for part in all_partitions(2):
        assert mixed_reconstruction_residual(e1, part, fam_12) < 1e-30


def test_residual_outside_target_matches_projection(fam_12):
    want = projection_residual(T3, fam_12)
    values = [mixed_reconstruction_residual(T3, part, fam_12) for part in all_partitions(2)]
    for v in values:
        assert abs(v - want) < 1e-25
        assert abs(v - mpf("0.02520")) < 1e-4
    spread = max(values) - min(values)
    assert spread < 1e-20


def test_residual_zero_once_exponent_joins_span():
    lam123 = generate_exponents("integers", {"values": [1, 2, 3]}, 3)
    fam = dual_family(lam123, 3, 256)
    part = Partition.from_monomial_set({1, 3}, 3)
    assert mixed_reconstruction_residual(T3, part, fam) < 1e-30


def test_residual_partition_invariance_squares(fam_squares_10):
    values = [mixed_reconstruction_residual(T3, part, fam_squares_10)
              for part in sample_partitions(10, 16, seed=1)]
    assert max(values) - min(values) < 1e-20


def test_residual_matches_product_distance_squares(fam_squares_10):
    want = product_distance(3, 10)
    for part in sample_partitions(10, 16, seed=1):
        got = mixed_reconstruction_residual(T3, part, fam_squares_10)
        assert abs(got - want) <= 1e-78 * want


def test_residual_black_box_every_partition(lam_squares):
    # t^2.3 log t reaches the residual only through its quadrature moments
    # and ||f||^2; every partition's residual must be the distance to the span
    fam = dual_family(lam_squares, 6, 256)
    calls = [0]

    def f(t):
        calls[0] += 1
        return t ** mpf("2.3") * log(t)

    want = projection_residual(f, fam)
    assert want > 1e-6
    calls[0] = 0
    first = mixed_reconstruction_residual(f, Partition.from_monomial_set({1, 4}, 6), fam)
    one_pass, calls[0] = calls[0], 0
    parts = list(all_partitions(6))
    values = mixed_reconstruction_residuals(f, parts, fam)
    # the moments and ||f||^2 do not depend on the partition: one pass serves all 64
    assert calls[0] == one_pass > 0
    assert len(values) == 64
    for part, got in zip(parts, values):
        assert abs(got - want) <= 1e-70 * want
        if part.n1 == {1, 4}:
            assert repr(got) == repr(first)


def test_residual_sweep_matches_single_partition_calls(fam_squares_10):
    parts = sample_partitions(10, 16, seed=1)
    single = [mixed_reconstruction_residual(T3, part, fam_squares_10) for part in parts]
    assert [repr(v) for v in mixed_reconstruction_residuals(T3, parts, fam_squares_10)] == \
        [repr(v) for v in single]
    assert mixed_reconstruction_residuals(T3, [], fam_squares_10) == []


def test_residual_monotone_in_truncation(lam_squares):
    res = []
    for N in (4, 6, 8, 10):
        fam = dual_family(lam_squares, N, 256)
        part = Partition.from_monomial_set(range(1, N + 1, 2), N)
        res.append(mixed_reconstruction_residual(T3, part, fam))
    assert all(res[i + 1] <= res[i] for i in range(len(res) - 1))
    # frozen from the Gram/normal-equations oracle at 320 bits
    expected = [0.0056694671, 0.0035483044, 0.0027626366, 0.0023644919]
    for got, want in zip(res, expected):
        assert abs(float(got) - want) < 1e-9


def test_mixed_truncation_mismatch(fam_12, fam_squares_10):
    part = Partition.from_monomial_set({1}, 2)
    with pytest.raises(InputError):
        mixed_reconstruction_residual(T3, part, fam_squares_10)
    with pytest.raises(InputError):
        mixed_reconstruction_residuals(T3, [Partition.from_monomial_set({1}, 10), part],
                                       fam_squares_10)
    with pytest.raises(InputError):
        mixed_completeness_check(part, fam_squares_10)


def test_lu_solver_roundtrip(fam_squares_10):
    # LUFactors stays as a reference solver; check it on an oracle mixed system
    X = mixed_matrix(Partition.from_monomial_set({2, 4, 6, 8, 10}, 10), fam_squares_10)
    with working_precision(256):
        lu = LUFactors(X)
        b = [mpf(k + 1) for k in range(10)]
        x = lu.solve(b)
        for i in range(10):
            ri = b[i] - sum(X[i, j] * x[j] for j in range(10))
            assert abs(ri) < 1e-50
