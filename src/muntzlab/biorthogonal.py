"""Truncated biorthogonal duals of a Muntz monomial system.

The dual of {e_1 .. e_N} inside its own span is determined by the Gram
inverse: column n of G_N^-1 lists the monomial coefficients of r_n^(N),
the unique element of span{e_1..e_N} with <e_j, r_n^(N)> = delta_jn.
These truncated duals are computable proxies for the duals of the full
system; their drift under growing N is measured, never assumed away.

All inner products among monomials use the exact formula
<t^a, t^b> = 1/(a+b+1), and the truncation drift is Pythagoras on the
exact integer row products of gram (gram._row_products); no quadrature
enters any check in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from mpmath import log, matrix, mp, mpf, sqrt
from mpmath.libmp import from_man_exp, mpf_div, round_nearest as RND

from .config import working_precision
from .errors import InputError, ParameterError
from .exponents import ExponentSequence
from .gram import (GramMatrix, _identity_bound, _nodes, _norms_and_distances, _row_products,
                   inverse_with_escalation)
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

    Escalates precision (doubling) if the inverse's certified bound misses
    the 10^(-bits/8) target at the requested precision; the reported
    biorthogonality_residual is that certified bound on max_{j,n}
    |<e_j, r_n> - delta_jn| = max|G C - I|, the inner products being
    analytic, and G itself is not formed.  The norms ((G^-1)_nn)^(1/2) and
    the deficits, their reciprocals, come from the row factors the inverse
    was built from (G.row_factors), not from its rounded diagonal.
    """
    if N < 1:
        raise ParameterError(f"N must be >= 1, got {N}")
    if len(lam) < N:
        raise InputError(f"exponent prefix has {len(lam)} terms, need {N}")
    prefix = lam.prefix(N)
    G, Minv, residual = inverse_with_escalation(prefix, precision_bits)
    with working_precision(G.precision_bits):
        norms, deficits = zip(*_norms_and_distances(range(N), *G.nodes, G.row_factors))
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
    """Recompute the certified bound on max_{j,n} |<e_j, r_n^(N)> - delta_jn|
    from the family's Gram nodes and row factors (gram._identity_bound)."""
    with working_precision(family.precision_bits):
        return _identity_bound(family.gram)


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

    r_n^(N1) is the projection of r_n^(N2) onto the smaller span, so by
    Pythagoras the squared drift is ||r_n^(N2)||^2 - ||r_n^(N1)||^2 =
    (A_{n,N2}^2 - A_{n,N1}^2) / (2 x_n), with A_{n,N} = P / (Q 2^t) from
    gram._row_products: one exact integer quotient, rounded once before the root.
    """
    if not 1 <= n <= N1 <= N2 <= len(lam):
        raise InputError(f"need 1 <= n <= N1 <= N2 <= {len(lam)}, got n={n}, N1={N1}, N2={N2}")
    with working_precision(precision_bits):
        X, t = _nodes(lam.prefix(N2))
        # (P, Q) over the prefix N2 is (p rp, q rq)
        p, q = _row_products(X, n - 1, range(N1))
        rp, rq = _row_products(X, n - 1, range(N1, N2))
        num = from_man_exp(p * p * (rp * rp - rq * rq), -t - 1)
        den = from_man_exp(q * q * rq * rq * X[n - 1], 0)
        return sqrt(mp.make_mpf(mpf_div(num, den, mp.prec, RND)))
