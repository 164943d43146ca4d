import random
import sys
from pathlib import Path

import pytest
from hypothesis import assume, settings, strategies as st
from mpmath import cholesky, diag, matrix, mp, mpf

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
