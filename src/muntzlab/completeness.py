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

Both blocks have closed-form inverses.  With nodes x = lambda + 1/2,
G[N1,N1] is the Gram matrix of the subset N1, so G[N1,N1]^-1 = D G[N1,N1] D
with D_i = 2 x_i prod_{k in N1, k != i} (x_i + x_k)/(x_i - x_k), and
G^-1 = D_A G D_A (D_A over the prefix) gives (G^-1[N2,N2])^-1 = E G[N2,N2] E
with E_i = prod_{k in N1} (x_i - x_k)/(x_i + x_k).  Up to signs these are
the positive |d| G[U,U] |d|, so sigma_min^2 is 1 over the Perron root of
their direct sum, which linalg.perron_lambda_max encloses for the exact
blocks at the family's nodes.  A positive certified lower bound proves
a system invertible, and the reconstruction residual applies the same
inverses to its normal equations.

Scales, blocks and traces come from gram's one Cauchy kernel on the
family's integer nodes (_cauchy_factors of the subset N1, _cauchy_rows):
exact products rounded once, so the rounding count handed to
perron_lambda_max is a constant and no bit depends on the order of N1.

Only the block with the larger trace is iterated.  A PSD block has
lambda_max <= trace (Horn and Johnson, Matrix Analysis), an O(N) sum.
When the other block's trace, rounded up (its entries' roundings and the
sum's, inflated as perron_lambda_max inflates its end), lies below the
iterated block's theta, then lambda_other <= trace_up < theta <= upper,
and the other block is never formed.  min_singular keeps the bits of a
two-block call, whose theta is the larger Rayleigh quotient: the other
block's lies within a few roundings of its lambda_max, below trace_up.

One floor covers all 2^N partitions.  By Cauchy interlacing (Horn and
Johnson, Matrix Analysis, Thm 4.3.28) lambda_min(A[S,S]) >= lambda_min(A)
for every principal block of a symmetric A, so for every partition
sigma_min(X)^2 >= min(lambda_min(G), lambda_min(G^-1)), and the
all-monomial (D = D_A) or the all-dual (E = I) partition attains it.
mixed_system_floor encloses it from those two blocks.

At finite truncation invertibility always holds (principal submatrices
of positive definite matrices); the sigma_min trend over N is the
reported desk-scale evidence, with no uniform-conditioning claim attached.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from random import Random

from mpmath import mp, mpf, sqrt
from mpmath.libmp import fone, mpf_abs, mpf_sum, round_nearest as RND

from .biorthogonal import BiorthogonalFamily
from .config import working_precision
from .errors import InputError
from .gram import _cauchy_factors, _cauchy_rows
from .linalg import _grow, perron_lambda_max
from .muntz_space import SeriesOrCallable, distance_to, dual_pairings, moments_and_norm2

# two roundings per block entry and three in sqrt(1/upper): see _sigma_ends
_ROUNDINGS = 5


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

    min_singular is the power-iteration estimate sqrt(1/theta);
    sigma_lower is certified, sigma_lower < sigma_min <= min_singular up to
    the rounding of theta.  invertible is sigma_lower > 0: a positive lower
    end proves the system invertible.
    iterations counts the mpmath power-iteration steps of the dominant
    block (or the most of either, when both ran), after the float
    pre-phase that seeds them (linalg._float_seed).
    """

    partition: Partition
    min_singular: object
    invertible: bool
    sigma_lower: object
    iterations: int


def _mixed_scales(partition: Partition, family: BiorthogonalFamily):
    """(N1, N2, d, e) with 0-based index lists: G[N1,N1]^-1 = D G[N1,N1] D and
    (G^-1[N2,N2])^-1 = E G[N2,N2] E, where d and e are the raw
    gram._cauchy_factors of the subset N1 at the family's nodes, each within
    one unit of 2^-(prec + 32) of its exact value whatever the order of N1."""
    if partition.truncation != family.truncation:
        raise InputError("partition truncation differs from the family's")
    n1, n2 = [i - 1 for i in sorted(partition.n1)], [i - 1 for i in sorted(partition.n2)]
    X, t = family.gram.nodes
    with working_precision(family.precision_bits):
        return n1, n2, _cauchy_factors(X, t, n1, n1), _cauchy_factors(X, t, n1, n2)


def _perron_block(X, t, idx, d):
    """|d| G[idx,idx] |d| as rows of mpf: one _cauchy_rows call."""
    return _cauchy_rows(X, t, [mpf_abs(v) for v in d], idx)


def _trace_up(X, t, idx, d):
    """Upper end of the exact tr |d| G[idx,idx] |d|: the mpf_sum of the
    diagonal entries d_i^2 / (2 x_i) of _cauchy_rows, times _grow."""
    diag = [_cauchy_rows(X, t, [v], [i])[0][0]._mpf_ for i, v in zip(idx, d)]
    return mp.make_mpf(mpf_sum(diag, mp.prec, RND)) * _grow(_ROUNDINGS)


def _sigma_ends(scaled, family: BiorthogonalFamily):
    """(sqrt(1/theta), sqrt(1/upper), iterations) for the two blocks
    |d| G[U,U] |d|, (U, d) in scaled, at the family's nodes.  Each entry is
    within two roundings of its exact value: the scales carry _GUARD bits
    above the working precision, their product is exact and the quotient
    rounds once.  Three more cover sqrt(1/upper), so _ROUNDINGS does not
    depend on N.  The block with the larger trace runs alone unless the
    other's _trace_up fails to lie below its theta; then both run."""
    (X, t), bits = family.gram.nodes, family.precision_bits
    with working_precision(bits):
        traces = [_trace_up(X, t, idx, d) for idx, d in scaled]
        top = int(traces[1] > traces[0])
        ends = perron_lambda_max([_perron_block(X, t, *scaled[top])], _ROUNDINGS, bits)
        if not traces[1 - top] < ends[0]:
            ends = perron_lambda_max([_perron_block(X, t, *s) for s in scaled], _ROUNDINGS, bits)
        theta, upper, iterations = ends
        return sqrt(1 / theta), sqrt(1 / upper), iterations


def mixed_completeness_check(partition: Partition, family: BiorthogonalFamily) -> MixedCheck:
    """Smallest singular value of the mixed system and the invertibility flag.

    sigma_min^2 is 1 over lambda_max of the blocks' closed-form inverses
    |d| G[N1,N1] |d| and |e| G[N2,N2] |e|; X is never formed.
    perron_lambda_max encloses it as theta <= lambda_max <= upper (theta up
    to rounding): min_singular is sqrt(1/theta), sigma_lower is
    sqrt(1/upper), and the system is invertible when sigma_lower > 0.
    """
    n1, n2, d, e = _mixed_scales(partition, family)
    sigma, lower, iterations = _sigma_ends([(n1, d), (n2, e)], family)
    return MixedCheck(partition, sigma, bool(lower > 0), lower, iterations)


def mixed_system_floor(family: BiorthogonalFamily):
    """(estimate, certified lower end, iterations) for the smallest sigma_min
    over all 2^N mixed systems of the family.

    That is the smaller sigma_min of the all-monomial and the all-dual
    partition (interlacing), whose inverses are |A| G |A| and G (unit
    scales): _sigma_ends on both gives the estimate sqrt(1/theta) and the
    lower end sqrt(1/upper), below every partition's sigma_min.
    """
    every = list(range(family.truncation))
    return _sigma_ends([(every, family.gram.row_factors), (every, [fone] * len(every))], family)


def _inverse_apply(G, idx, d, v):
    """D G[idx,idx] D v on the stored G, raw d: a mixed block's inverse applied to v."""
    d = [mp.make_mpf(s) for s in d]
    dv = [s * t for s, t in zip(d, v)]
    return [s * mp.fdot([G[i][j] for j in idx], dv) for i, s in zip(idx, d)]


def mixed_reconstruction_residual(target: SeriesOrCallable, partition: Partition,
                                  family: BiorthogonalFamily):
    """Least-squares residual of the target against one mixed system
    (mixed_reconstruction_residuals for a single partition)."""
    return mixed_reconstruction_residuals(target, [partition], family)[0]


def mixed_reconstruction_residuals(target: SeriesOrCallable, partitions,
                                   family: BiorthogonalFamily):
    """Least-squares residuals of the target against each partition's mixed system.

    The normal equations split by the block identity: the monomial block
    solves G[N1,N1] beta = b[N1] and the dual block G^-1[N2,N2] beta = a[N2],
    with b the target's moments and a = dual_pairings(family, b).  Both
    inverses are closed forms, so beta = D G[N1,N1] D b[N1] and
    beta = E G[N2,N2] E a[N2] are matrix-vector products.  The
    least-squares element sum_j beta_j e_j + sum_k beta_k r_k is the
    projection onto the span of the system, so by Pythagoras its
    distance_to the target is the whole residual.  b, ||f||^2 and a do not
    depend on the partition: one quadrature pass of a black box serves the
    whole list.
    """
    scales = [_mixed_scales(part, family) for part in partitions]
    N, bits = family.truncation, family.precision_bits
    b, norm2 = moments_and_norm2(target, family.lam, N, bits)
    a = dual_pairings(family, b)
    G, C = family.gram.entries, family.inverse_rows
    lams = family.lam.values[:N]
    out = []
    with working_precision(bits):
        for n1, n2, d, e in scales:
            beta1 = _inverse_apply(G, n1, d, [b[j] for j in n1])
            beta2 = _inverse_apply(G, n2, e, [a[k] for k in n2])
            c = [mpf(0)] * N
            for j, v in zip(n1, beta1):
                c[j] = v
            # r_k = sum_m C_mk e_m
            c = [c[m] + mp.fdot([C[m][k] for k in n2], beta2) for m in range(N)]
            out.append(distance_to(target, lams, c, b, norm2))
    return out
