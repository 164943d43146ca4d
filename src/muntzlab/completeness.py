"""Mixed monomial/dual systems over index partitions at finite truncation.

For a partition {1..N} = N1 (disjoint union) N2 the mixed system keeps the
monomial e_n for n in N1 and swaps in the dual r_n^(N) for n in N2.  In
orthonormal coordinates (G = L L^T) the monomial column is column n of
L^T and the dual column is column n of L^(-1); call that square matrix X.

No code forms X.  Monomials pair to G, duals to G^-1, and a monomial e_j
(j in N1) meets a dual r_k (k in N2) with j != k, where
<e_j, r_k> = delta_jk = 0.  So, up to a permutation,
X^H X = diag(G[N1,N1], G^-1[N2,N2]) and
sigma_min(X)^2 = min(lambda_min(G[N1,N1]), lambda_min(G^-1[N2,N2])).
mixed_completeness_check reads both blocks off the family and encloses
that eigenvalue with linalg.block_diagonal_lambda_min; its invertibility
verdict rests on the certified lower bound, not on the estimate.  The
reconstruction residual solves its normal equations block by block with
the same two blocks.

One floor covers all 2^N partitions.  By Cauchy interlacing (Horn and
Johnson, Matrix Analysis, Thm 4.3.28) lambda_min(A[S,S]) >= lambda_min(A)
for every principal block of a symmetric A, so for every partition
sigma_min(X)^2 >= min(lambda_min(G), lambda_min(G^-1)) =
lambda_min(diag(G, G^-1)), and the all-monomial or the all-dual partition
attains it.  mixed_system_floor encloses that eigenvalue with one kernel
call.  As for a single partition, the blocks are taken as given (the
kernel reads their lower triangles): the index sets are sorted, so each
block's lower triangle is read off the full matrix's, and interlacing
holds between the symmetric matrices those triangles define.

At finite truncation invertibility always holds (principal submatrices
of positive definite matrices); the sigma_min trend over N is the
reported desk-scale evidence, with no uniform-conditioning claim attached.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from random import Random
from typing import Optional

from mpmath import mp, mpf, sqrt

from .biorthogonal import BiorthogonalFamily
from .config import rank_collapse_threshold, working_precision
from .errors import InputError, PrecisionInsufficientError
from .linalg import _cholesky_rows, _cholesky_solve, block_diagonal_lambda_min
from .muntz_space import (
    QuadratureSpec,
    SeriesOrCallable,
    distance_to,
    dual_pairings,
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


def sample_partitions(N: int, count: int, seed: int = 0):
    """count partitions, each index kept as a monomial with probability 1/2."""
    rng = Random(seed)
    return [Partition.from_monomial_set((i for i in range(1, N + 1) if rng.random() < 0.5), N)
            for _ in range(count)]


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


def _mixed_blocks(partition: Partition, family: BiorthogonalFamily):
    """(N1, N2, G[N1,N1], G^-1[N2,N2]): the blocks of X^H X, as row lists."""
    if partition.truncation != family.truncation:
        raise InputError("partition truncation differs from the family's")
    n1, n2 = sorted(partition.n1), sorted(partition.n2)
    G, C = family.gram_rows, family.inverse_rows
    return (n1, n2, [[G[i - 1][j - 1] for j in n1] for i in n1],
            [[C[i - 1][j - 1] for j in n2] for i in n2])


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
    _, _, *blocks = _mixed_blocks(partition, family)
    if threshold is None:
        threshold = rank_collapse_threshold(family.precision_bits)
    theta, s, iterations = block_diagonal_lambda_min(blocks, family.precision_bits)
    with working_precision(family.precision_bits):
        sigma, lower = sqrt(theta), sqrt(s)
    return MixedCheck(partition, sigma, bool(lower > mpf(threshold)), threshold, lower, iterations)


def mixed_system_floor(family: BiorthogonalFamily):
    """(estimate, certified lower end, iterations) for the smallest sigma_min
    over all 2^N mixed systems of the family.

    sigma_min^2 over every partition is at least lambda_min(diag(G, G^-1))
    (interlacing), and the all-monomial or all-dual partition attains it.
    block_diagonal_lambda_min encloses it as s < lambda_min <= theta;
    the estimate is sqrt(theta) and the lower end sqrt(s), which lies below
    every partition's sigma_min.  PrecisionInsufficientError when no
    positive lower bound can be certified at the family's precision.
    """
    bits = family.precision_bits
    theta, s, iterations = block_diagonal_lambda_min(
        [family.gram_rows, family.inverse_rows], bits)
    with working_precision(bits):
        return sqrt(theta), sqrt(s), iterations


def _block_solve(B, rhs, bits):
    """B^-1 rhs for a symmetric positive definite row-list block (may be empty)."""
    factor = _cholesky_rows(B)
    if factor is None:
        raise PrecisionInsufficientError(
            "mixed block is not numerically positive definite", precision_bits=bits)
    return _cholesky_solve(factor, rhs)


def mixed_reconstruction_residual(target: SeriesOrCallable, partition: Partition,
                                  family: BiorthogonalFamily,
                                  quad: QuadratureSpec = QuadratureSpec()):
    """Least-squares residual of the target against one mixed system
    (mixed_reconstruction_residuals for a single partition)."""
    return mixed_reconstruction_residuals(target, [partition], family, quad)[0]


def mixed_reconstruction_residuals(target: SeriesOrCallable, partitions,
                                   family: BiorthogonalFamily,
                                   quad: QuadratureSpec = QuadratureSpec()):
    """Least-squares residuals of the target against each partition's mixed system.

    The normal equations split by the block identity: the monomial block
    solves G[N1,N1] beta = b[N1] and the dual block G^-1[N2,N2] beta = a[N2],
    with b the target's moments and a = dual_pairings(family, b).  The
    least-squares element sum_j beta_j e_j + sum_k beta_k r_k is the
    projection onto the span of the system, so by Pythagoras its
    distance_to the target is the whole residual.  b, ||f||^2 and a do not
    depend on the partition: one quadrature pass of a black box serves the
    whole list.
    PrecisionInsufficientError when a block is not numerically positive
    definite.
    """
    blocks = [_mixed_blocks(part, family) for part in partitions]
    N, bits = family.truncation, family.precision_bits
    b, norm2 = moments_and_norm2(target, family.lam, N, quad, bits)
    a = dual_pairings(family, b)
    C = family.inverse_rows
    lams = family.lam.values[:N]
    out = []
    with working_precision(bits):
        for n1, n2, B1, B2 in blocks:
            beta1 = _block_solve(B1, [b[j - 1] for j in n1], bits)
            beta2 = _block_solve(B2, [a[k - 1] for k in n2], bits)
            c = [mpf(0)] * N
            for j, v in zip(n1, beta1):
                c[j - 1] = v
            # r_k = sum_m C_mk e_m
            c = [c[m] + mp.fdot([C[m][k - 1] for k in n2], beta2) for m in range(N)]
            out.append(distance_to(target, lams, c, b, norm2))
    return out
