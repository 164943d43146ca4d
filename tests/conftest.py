import random
import sys
from operator import mul
from pathlib import Path

import pytest
from hypothesis import assume, settings, strategies as st
from mpmath import cholesky, diag, matrix, mp, mpf
from mpmath.libmp import fone, from_man_exp, mpf_abs, mpf_sub, round_nearest

import muntzlab
from muntzlab import dual_family, generate_exponents
from muntzlab.exponents import DEFAULT_DELTA_MIN

ROOT = Path(__file__).resolve().parents[1]

# property tests run a fixed example sequence for a given set of collected
# test modules (Hypothesis mixes literal constants from every loaded module
# into its draws, so a partial run can draw other examples than the full
# suite), with no example database, no timing-based failures and a bounded
# number of examples
settings.register_profile("muntzlab", derandomize=True, database=None, deadline=None,
                          max_examples=40)
settings.load_profile("muntzlab")


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


def _one_scale(rows):
    """(A, e) for rows of finite mpf: integers A_ik with A_ik 2^e the entries."""
    raw = [[v._mpf_ for v in row] for row in rows]
    e = min((ex for row in raw for _, man, ex, _ in row if man), default=0)
    A = [[0 if not man else -(man << (ex - e)) if sign else man << (ex - e)
          for sign, man, ex, _ in row] for row in raw]
    return A, e


def _exact_product(G, M):
    """(S, e): integers S_ij with S_ij 2^e exactly (G M)_ij, for rows of finite real mpf."""
    (A, ea), (B, eb) = _one_scale(G), _one_scale(zip(*M))
    return [[sum(map(mul, row, col)) for col in B] for row in A], ea + eb


def gram_product(G, M):
    """Oracle G*M as rows of mpf: each exact entry rounded once at working
    precision, the value mp.fdot (and mpmath's matrix product) gives wherever
    its own sum keeps every term."""
    S, e = _exact_product(G, M)
    return [[mp.make_mpf(from_man_exp(s, e, mp.prec, round_nearest)) for s in row] for row in S]


def identity_residual(G, M):
    """Oracle max|G*M - I| at working precision, for rows of finite real mpf:
    the exact product, each diagonal entry rounded and 1 subtracted as
    fdot(...) - 1 rounds, the largest off-diagonal entry rounded once (the
    value of gram_product(G, M) - I)."""
    prec = mp.prec
    S, e = _exact_product(G, M)
    top = max((abs(s) for i, row in enumerate(S) for s in row[:i] + row[i + 1:]), default=0)
    diag_ = [mpf_sub(from_man_exp(S[i][i], e, prec, round_nearest), fone, prec, round_nearest)
             for i in range(len(S))]
    return max(mp.make_mpf(mpf_abs(v)) for v in diag_ + [from_man_exp(top, e, prec, round_nearest)])


def cholesky_oracle(family, exact=False):
    """(L, L^-1) with G = L L^T: mpmath.cholesky at twice the family's bits.

    G is the family's Gram as stored, the data the certified enclosures are
    for; with exact=True it is rebuilt from the exponents at twice the
    bits, the reference for numbers computed from the closed-form inverse,
    which holds the exact inverse to far below the stored Gram's rounding.
    """
    with mp.workprec(2 * family.precision_bits):
        if exact:
            x = [mpf(v) for v in family.lam.values[:family.truncation]]
            G = matrix([[1 / (a + b + 1) for b in x] for a in x])
        else:
            G = matrix(family.gram.entries)
        L = cholesky(G)
        return L, L ** -1


def orthonormal_matrix(family, w, exact=False):
    """M_w = L^T diag(w) L^-T at twice the family's bits: the operator with
    weights w on the span in orthonormal coordinates, upper triangular with
    diagonal w (L from cholesky_oracle)."""
    L, Linv = cholesky_oracle(family, exact)
    with mp.workprec(2 * family.precision_bits):
        return L.T * diag(list(w)) * Linv.T


def mixed_sigma_oracle(values, prec):
    """sigma_min(n1, n2) of the mixed systems on the exponents: the smaller
    of the two blocks' least eigenvalues in diag(G[N1,N1], G^-1[N2,N2]),
    from mpmath.eigsy, with G rebuilt from the exponents and inverted at
    prec bits (1-based index sets)."""
    with mp.workprec(prec):
        x = [mpf(v) for v in values]
        G = matrix([[1 / (a + b + 1) for b in x] for a in x])
        Ginv = mp.inverse(G)

    def sigma_min(n1, n2):
        with mp.workprec(prec):
            mins = [min(mp.eigsy(matrix([[A[i - 1, j - 1] for j in idx] for i in idx]),
                                 eigvals_only=True))
                    for idx, A in ((sorted(n1), G), (sorted(n2), Ginv)) if idx]
            return mp.sqrt(min(mins))

    return sigma_min


def operator_norm(M, prec):
    """||M|| from mpmath.eighe on M^H M at prec bits."""
    with mp.workprec(prec):
        return mp.sqrt(max(mp.eighe(M.H * M, eigvals_only=True)))


def commutator_norm(M, prec):
    """||M M^H - M^H M||_F at prec bits: the normality defect of M."""
    with mp.workprec(prec):
        X = M * M.H - M.H * M
        return mp.sqrt(mp.fsum(abs(X[i, j]) ** 2 for i in range(X.rows) for j in range(X.cols)))


@pytest.fixture(autouse=True, scope="session")
def _test_side_precision():
    # expected-value arithmetic in the tests themselves runs at 320 bits;
    # library calls manage their own working precision internally
    old = mp.prec
    mp.prec = 320
    yield
    mp.prec = old


@pytest.fixture(scope="session")
def lam_12():
    """The two-element integer sequence {1, 2} used by the hand examples."""
    return generate_exponents("integers", {"values": [1, 2]}, 2)


@pytest.fixture(scope="session")
def lam_squares():
    return generate_exponents("power", {"p": 2}, 12)


@pytest.fixture(scope="session")
def lam_lacunary():
    return generate_exponents("lacunary", {"q": 2}, 10)


@pytest.fixture(scope="session")
def fam_12(lam_12):
    return dual_family(lam_12, 2, 256)


@pytest.fixture(scope="session")
def fam_squares_10(lam_squares):
    return dual_family(lam_squares, 10, 256)


@pytest.fixture(scope="session")
def fam_squares_10_512(lam_squares):
    return dual_family(lam_squares, 10, 512)


@pytest.fixture(scope="session")
def fam_squares_12(lam_squares):
    return dual_family(lam_squares, 12, 256)


@pytest.fixture(scope="session")
def custom_set():
    """The benchmark's non-integer squares-like set for a seed.

    perfbench.workloads.custom_exponents with random.Random(seed), so a
    seed names the same exponents as in a benchmark run.
    """
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from perfbench.workloads import custom_exponents

    return lambda seed: custom_exponents(muntzlab, random.Random(seed))
