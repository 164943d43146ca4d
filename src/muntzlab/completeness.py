"""Mixed monomial/dual systems over index partitions at finite truncation.

For a partition {1..N} = N1 (disjoint union) N2 the mixed system keeps the
monomial e_n for n in N1 and swaps in the dual r_n^(N) for n in N2.  In
orthonormal coordinates (G = L L^T) the monomial column is column n of
L^T and the dual column is column n of L^(-1); mixed_system_matrix builds
that square matrix X, which the reconstruction residual solves with.

Its Gram matrix needs no X: monomials pair to G, duals to G^-1, and a
monomial e_j (j in N1) meets a dual r_k (k in N2) with j != k, where
<e_j, r_k> = delta_jk = 0.  So, up to a permutation,
X^H X = diag(G[N1,N1], G^-1[N2,N2]) and
sigma_min(X)^2 = min(lambda_min(G[N1,N1]), lambda_min(G^-1[N2,N2])).
mixed_completeness_check reads both blocks off the family and encloses
that eigenvalue with linalg.block_diagonal_lambda_min; its invertibility
verdict rests on the certified lower bound, not on the estimate.
At finite truncation invertibility always holds (principal submatrices
of positive definite matrices); the sigma_min trend over N is the
reported desk-scale evidence, with no uniform-conditioning claim attached.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from random import Random
from typing import Optional

from mpmath import matrix, mpf, sqrt

from .biorthogonal import BiorthogonalFamily
from .config import rank_collapse_threshold, working_precision
from .errors import InputError
from .linalg import LUFactors, block_diagonal_lambda_min
from .muntz_space import (
    QuadratureSpec,
    SeriesOrCallable,
    moments_and_norm2,
)


@dataclass(frozen=True)
class Partition:
    """Disjoint cover {1..N} = n1 | n2 (1-based indices)."""

    n1: frozenset
    n2: frozenset
    truncation: int

    def __post_init__(self):
        full = set(range(1, self.truncation + 1))
        if self.n1 & self.n2:
            raise InputError(f"index sets overlap: {sorted(self.n1 & self.n2)}")
        if self.n1 | self.n2 != full:
            raise InputError("index sets do not cover 1..N")

    @classmethod
    def from_monomial_set(cls, n1, N: int) -> "Partition":
        n1 = frozenset(n1)
        return cls(n1, frozenset(range(1, N + 1)) - n1, N)

    def key(self) -> str:
        """Stable text key: which indices kept their monomial."""
        return ",".join(str(i) for i in sorted(self.n1)) or "-"


def all_partitions(N: int):
    """All 2^N partitions, in a deterministic order."""
    for size in range(N + 1):
        for combo in combinations(range(1, N + 1), size):
            yield Partition.from_monomial_set(combo, N)


def sample_partition(N: int, rng: Random) -> Partition:
    n1 = frozenset(i for i in range(1, N + 1) if rng.random() < 0.5)
    return Partition.from_monomial_set(n1, N)


def sample_partitions(N: int, count: int, seed: int = 0):
    rng = Random(seed)
    return [sample_partition(N, rng) for _ in range(count)]


@dataclass(frozen=True)
class MixedCheck:
    """Smallest singular value of one mixed system, estimated and bounded.

    min_singular is the inverse-iteration estimate sqrt(theta);
    sigma_lower is certified, sigma_lower < sigma_min <= min_singular up to
    the rounding of theta.  invertible is sigma_lower > threshold.
    iterations counts the mpmath inverse-iteration steps after the float
    pre-phase that seeds them (linalg._float_seed).
    """

    partition: Partition
    min_singular: object
    invertible: bool
    threshold: float
    sigma_lower: object
    iterations: int


def mixed_system_matrix(partition: Partition, family: BiorthogonalFamily) -> matrix:
    """Orthonormal coordinates of the mixed system, one column per index."""
    N = family.truncation
    if partition.truncation != N:
        raise InputError("partition truncation differs from the family's")
    with working_precision(family.precision_bits):
        Lt = family.cholesky_factor.T
        Linv = family.cholesky_inverse_factor
        X = matrix(N, N)
        for j in range(1, N + 1):
            src = Lt if j in partition.n1 else Linv
            for i in range(N):
                X[i, j - 1] = src[i, j - 1]
        return X


def mixed_completeness_check(partition: Partition, family: BiorthogonalFamily,
                             threshold: Optional[float] = None) -> MixedCheck:
    """Smallest singular value of the mixed system and the invertibility flag.

    sigma_min^2 is the smallest eigenvalue of diag(G[N1,N1], G^-1[N2,N2]),
    principal blocks of family.gram and family.coeffs; X is never formed.
    block_diagonal_lambda_min encloses it as s < lambda_min <= theta.
    min_singular is sqrt(theta), sigma_lower is sqrt(s), and the system
    counts as invertible when sigma_lower > threshold (default
    rank_collapse_threshold(bits)).  PrecisionInsufficientError when no
    positive lower bound can be certified at the family's precision.
    """
    N = family.truncation
    if partition.truncation != N:
        raise InputError("partition truncation differs from the family's")
    if threshold is None:
        threshold = rank_collapse_threshold(family.precision_bits)
    n1, n2 = sorted(partition.n1), sorted(partition.n2)
    G, Ginv = family.gram_rows, family.inverse_rows
    blocks = ([[G[i - 1][j - 1] for j in n1] for i in n1],
              [[Ginv[i - 1][j - 1] for j in n2] for i in n2])
    theta, s, iterations = block_diagonal_lambda_min(blocks, family.precision_bits)
    with working_precision(family.precision_bits):
        sigma, lower = sqrt(theta), sqrt(s)
    return MixedCheck(partition, sigma, bool(lower > mpf(threshold)), threshold, lower, iterations)


def mixed_reconstruction_residual(target: SeriesOrCallable, partition: Partition,
                                  family: BiorthogonalFamily,
                                  quad: QuadratureSpec = QuadratureSpec()):
    """Least-squares residual of the target against the mixed system.

    Split into the distance from the target to the truncated span (shared
    by every partition) and the in-span solve residual of the square mixed
    system (rounding-level when the system is invertible); the total is
    the root of the sum of squares.  Partition dependence can only enter
    through the solve, which is what the invariance tests exercise.
    """
    N = family.truncation
    bits = family.precision_bits
    with working_precision(bits):
        b, norm2 = moments_and_norm2(target, family.lam, N, quad, bits)
        # coefficients of the in-span part and its orthonormal coordinates
        a = [sum(family.coeffs[k, n] * b[k] for k in range(N)) for n in range(N)]
        Lt = family.cholesky_factor.T
        y = [sum(Lt[i, j] * a[j] for j in range(N)) for i in range(N)]
        inside2 = sum(abs(v) ** 2 for v in y)
        dist2 = norm2 - inside2
        if dist2 < 0:
            dist2 = mpf(0)

        X = mixed_system_matrix(partition, family)
        beta = LUFactors(X).solve(y)
        solve_res2 = mpf(0)
        for i in range(N):
            ri = y[i] - sum(X[i, j] * beta[j] for j in range(N))
            solve_res2 += abs(ri) ** 2
        return sqrt(dist2 + solve_res2)
