"""Truncated biorthogonal duals of a Muntz monomial system.

The dual of {e_1 .. e_N} inside its own span is determined by the Gram
inverse: column n of G_N^-1 lists the monomial coefficients of r_n^(N),
the unique element of span{e_1..e_N} with <e_j, r_n^(N)> = delta_jn.
These truncated duals are computable proxies for the duals of the full
system; their drift under growing N is measured, never assumed away.

All inner products among monomials use the exact formula
<t^a, t^b> = 1/(a+b+1), and norms of coefficient vectors go through the
exact kernel gram.gram_form; no quadrature enters any check in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from mpmath import log, matrix, mp, mpf, sqrt

from .config import working_precision
from .errors import InputError, ParameterError
from .exponents import ExponentSequence
from .gram import GramMatrix, gram_form, identity_residual, inverse_with_escalation
from .linalg import _doubles


@dataclass
class BiorthogonalFamily:
    """Truncated dual family r_n^(N), with norms and projection deficits.

    inverse_rows is G^-1 as rows of mpf, as gram.cauchy_inverse built it:
    r_n^(N) = sum_k inverse_rows[k][n-1] * t^lambda_k.
    norms[n-1]^2 = (G^-1)_nn and norms[n-1] * projection_deficit[n-1] = 1:
    the deficit is the distance D_{n,N} from e_n to the span of the others.
    """

    lam: ExponentSequence
    truncation: int
    inverse_rows: list
    norms: tuple
    projection_deficit: tuple
    gram: GramMatrix
    precision_bits: int
    biorthogonality_residual: object

    @property
    def size(self) -> int:
        return self.truncation

    @property
    def coeffs(self) -> matrix:
        """inverse_rows as a new mpmath.matrix on every read (not cached, so no
        family holds both copies).

        No path in the package reads it.  It stays for the benchmark's
        family digest (perfbench/workloads.py, _matrix_rows), which indexes
        coeffs[i, j]; a list there raises TypeError in every duals check.
        """
        return matrix(self.inverse_rows)

    @cached_property
    def inverse_doubles(self) -> list:
        """inverse_rows through linalg._doubles, once for every float seed."""
        return _doubles(self.inverse_rows)

    @cached_property
    def ratio_rows(self) -> list:
        """R_ik = (x_i + x_k)/(x_i - x_k) for k != i and R_ii = 2 x_i, with
        x_i = lambda_i + 1/2 added exactly (the stored Gram's nodes), each
        within three roundings of its exact value.  prod_k R_ik over a subset
        of k holding i is that subset's Cauchy factor A_i (G^-1 = D_A G D_A)."""
        with working_precision(self.precision_bits):
            x = [mp.fadd(mpf(v), 0.5, exact=True) for v in self.lam.values]
            return [[2 * a if i == k else (a + b) / (a - b) for k, b in enumerate(x)]
                    for i, a in enumerate(x)]

    def dual_coefficients(self, n: int):
        """Monomial coefficients of r_n^(N), 1-based n."""
        if not 1 <= n <= self.truncation:
            raise InputError(f"n={n} outside 1..{self.truncation}")
        return [row[n - 1] for row in self.inverse_rows]

    def dual_callable(self, n: int):
        """r_n^(N) as a plain function on (0,1)."""
        cs = self.dual_coefficients(n)
        lams = [mpf(v) for v in self.lam.values[: self.truncation]]

        def rn(t):
            t = mpf(t)
            return sum(c * t ** l for c, l in zip(cs, lams))

        return rn


@dataclass(frozen=True)
class NormGrowthReport:
    """Per-n growth diagnostics log||r_n|| / lambda_n and the fitted constant.

    The growth bound has a constant: for every eps > 0 there is an m with
    ||r_n|| <= m * (1+eps)^lambda_n for all n, that is,
    limsup log||r_n|| / lambda_n <= 0.  (The form m_eps * e^(eps lambda_n)
    is the same bound with eps replaced by log(1+eps).)
    m_fit = max_n ||r_n|| / (1+eps)^lambda_n is the smallest constant that
    makes the bound hold over the prefix; the truncated norms grow with N,
    so it is a lower bound for the constant of the full system.

    max_ratio = max_n log||r_n|| / lambda_n is not bounded by eps: since
    1 = <e_1, r_1> <= ||e_1|| ||r_1|| and ||e_1|| = (2 lambda_1 + 1)^(-1/2),
    its first term is at least log sqrt(2 lambda_1 + 1) / lambda_1.  The
    ratio sequence is the trend to watch: bounded, eventually decreasing.
    """

    epsilon: float
    ratios: tuple
    m_fit: object
    max_ratio: object

    def trailing_nonincreasing_from(self, start: int = 1) -> bool:
        """True if ratios are non-increasing from 1-based index ``start``."""
        seq = self.ratios[start - 1:]
        return all(seq[i + 1] <= seq[i] for i in range(len(seq) - 1))


def dual_family(lam: ExponentSequence, N: int, precision_bits: int = 256) -> BiorthogonalFamily:
    """Construct the truncated dual family via the closed-form Gram inverse.

    Escalates precision (doubling) if the inverse residual misses the
    10^(-bits/8) target at the requested precision; the reported
    biorthogonality residual max_{j,n} |<e_j, r_n> - delta_jn| is exactly
    the Gram identity residual because the inner products are analytic.
    """
    if N < 1:
        raise ParameterError(f"N must be >= 1, got {N}")
    if len(lam) < N:
        raise InputError(f"exponent prefix has {len(lam)} terms, need {N}")
    prefix = lam.prefix(N)
    G, Minv, residual = inverse_with_escalation(prefix, precision_bits)
    with working_precision(G.precision_bits):
        norms = tuple(sqrt(Minv[n][n]) for n in range(N))
        deficits = tuple(1 / v for v in norms)
    return BiorthogonalFamily(
        lam=prefix,
        truncation=N,
        inverse_rows=Minv,
        norms=norms,
        projection_deficit=deficits,
        gram=G,
        precision_bits=G.precision_bits,
        biorthogonality_residual=residual,
    )


def biorthogonality_residual(family: BiorthogonalFamily):
    """Recompute max_{j,n} |<e_j, r_n^(N)> - delta_jn| from scratch."""
    with working_precision(family.precision_bits):
        return identity_residual(family.gram.entries, family.inverse_rows)


def norm_growth_check(family: BiorthogonalFamily, epsilon: float) -> NormGrowthReport:
    """Fit m in ||r_n|| <= m (1+eps)^lambda_n and report the ratio trend.

    The bound constrains the constant m_fit, not max_ratio:
    max_ratio <= log(1+eps) is the bound read with m = 1, which no dual
    family meets for small eps (see NormGrowthReport).
    """
    if not 0 < epsilon < 1:
        raise ParameterError(f"epsilon must lie in (0,1), got {epsilon}")
    with working_precision(family.precision_bits):
        eps = mpf(epsilon)
        lams = [mpf(v) for v in family.lam.values[: family.truncation]]
        ratios = tuple(log(nrm) / l for nrm, l in zip(family.norms, lams))
        m_fit = max(nrm / (1 + eps) ** l for nrm, l in zip(family.norms, lams))
        max_ratio = max(ratios)
    return NormGrowthReport(epsilon=epsilon, ratios=ratios, m_fit=m_fit, max_ratio=max_ratio)


def truncation_convergence(lam: ExponentSequence, n: int, N1: int, N2: int,
                           precision_bits: int = 256):
    """L2 drift ||r_n^(N2) - r_n^(N1)|| between truncation levels.

    The N1 coefficient vector is zero-padded to length N2 and the
    difference is measured by the exact Gram form at size N2.
    """
    if not 1 <= n <= N1 <= N2 <= len(lam):
        raise InputError(f"need 1 <= n <= N1 <= N2 <= {len(lam)}, got n={n}, N1={N1}, N2={N2}")
    if N1 == N2:
        return mpf(0)
    fam1 = dual_family(lam, N1, precision_bits)
    fam2 = dual_family(lam, N2, precision_bits)
    bits = max(fam1.precision_bits, fam2.precision_bits)
    with working_precision(bits):
        C1, C2 = fam1.inverse_rows, fam2.inverse_rows
        d = [C2[k][n - 1] - (C1[k][n - 1] if k < N1 else 0) for k in range(N2)]
        q, _ = gram_form(fam2.lam.values, d)
        return sqrt(abs(q))
