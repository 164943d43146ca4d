"""Gram matrix of {t^lambda_n} in L2(0,1) and its closed-form Cauchy algebra.

With nodes x_i = lambda_i + 1/2 the Gram matrix is the symmetric Cauchy
matrix G_jk = 1/(x_j + x_k), so its determinant, inverse, and the distance
from each monomial to the span of the others all have product formulas
(Schechter 1959; Demmel 1999).  _nodes is the one place the nodes are
formed: lambda_i is taken at working precision, the half is added exactly,
and one power of two (_dyadic) makes every node an integer X_i.  Two
kernels on those integers give every Cauchy-like value, with no logarithm:

- _cauchy_factors: for a subset S, A_i = prod_{k in S} (x_i + x_k) /
  prod_{k in S, k!=i} (x_i - x_k) (i in S) or prod_{k in S} (x_i - x_k) /
  (x_i + x_k) (i not in S), exact integer products rounded once at _GUARD
  bits above the working precision, whatever the order of S;
- _cauchy_rows: the rows of s_a s_b / (x_i + x_j), each entry rounded once.
  G (s = 1), the inverse A_i A_j / (x_i + x_j) (s = A over the prefix) and
  the mixed systems' block inverses (completeness) are its rows;
- the dual norm ||r_n|| = ((G^-1)_nn)^(1/2) = |A_n| / (2 x_n)^(1/2) and the
  distance D_n = 1/||r_n|| round the root at the guard bits, then each
  quotient once, and det G = prod_i |Q_i| / prod_i P_i rounds once.

So each is within one unit of 2^-prec relative of the exact value for the
rounded exponents.  A repeated node is a DegenerateInputError from _nodes.

G and its inverse are rows of mpf; G is formed on the first read of
GramMatrix.entries.  No G*M product is formed: since G G^-1 = I exactly,
_identity_bound certifies max|G M - I| a priori in O(N^2) from the nodes
and the row factors, and cauchy_inverse checks that bound before it forms M.

gram_form is the one exact kernel for the norm of a Muntz polynomial and
the pairing of two, for any int or mpf exponents: one power-of-two scale
makes every denominator an integer, so the sum is exact in Python integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import mul
from typing import Optional, Sequence

from mpmath import mp, mpc, mpf, sqrt
from mpmath.libmp import (fone, from_man_exp, mpf_abs, mpf_div, mpf_mul, mpf_sqrt,
                          round_nearest as RND)

from .config import inverse_residual_tolerance, working_precision
from .errors import DegenerateInputError, InputError, ParameterError, PrecisionInsufficientError
from .exponents import ExponentSequence

# bits above the working precision at which the Cauchy factors and (2 x_i)^(1/2) are rounded
_GUARD = 32
_MAX_DOUBLINGS = 6


@dataclass
class GramMatrix:
    """Gram matrix of a Muntz monomial prefix at a stated precision, held as
    the integer nodes (X, t) of _nodes; its rows of mpf are formed on first
    read of entries."""

    lam: ExponentSequence
    precision_bits: int
    nodes: tuple

    @property
    def size(self) -> int:
        return len(self.nodes[0])

    @cached_property
    def entries(self) -> list:
        """G as rows of mpf, each 1/(x_j + x_k) rounded once at the Gram's
        precision, built on first use and kept."""
        X, t = self.nodes
        with working_precision(self.precision_bits):
            return _cauchy_rows(X, t, [fone] * len(X), range(len(X)))

    def entry(self, j: int, k: int):
        """G_jk with 1-based indices."""
        N = self.size
        if not (1 <= j <= N and 1 <= k <= N):
            raise InputError(f"index ({j}, {k}) outside 1..{N}")
        return self.entries[j - 1][k - 1]

    @cached_property
    def row_factors(self):
        """Raw A_i of _cauchy_factors over the whole prefix, built on first use
        and kept: the inverse, the dual norms and the mixed-system floor share
        them."""
        X, t = self.nodes
        with working_precision(self.precision_bits):
            return _cauchy_factors(X, t, range(len(X)), range(len(X)))


@dataclass(frozen=True)
class DistanceReport:
    """Distance from e_n to the span of the other monomials at truncation N.

    distance * dual_norm = 1 is the defining duality (dual_norm is the
    norm of the n-th biorthogonal element of the truncated system).
    epsilon and m_fit are filled by distance_lower_bound_check.
    """

    n: int
    truncation: int
    distance: object
    dual_norm: object
    epsilon: Optional[float] = None
    m_fit: Optional[object] = None


def _nodes(lam: ExponentSequence):
    """(X, t): integers X_i = x_i 2^t for the nodes x_i = lambda_i + 1/2 (lambda_i
    at working precision, the half added exactly).  A repeat: DegenerateInputError."""
    L, s = _dyadic([mpf(v) for v in lam.values])
    X = [(v << 1) + (1 << s) for v in L]
    first = {}
    for k, v in enumerate(X):
        if v in first:
            raise DegenerateInputError(f"duplicate exponent {lam.values[k]} at positions "
                                       f"{first[v] + 1}, {k + 1}")
        first[v] = k
    return X, s + 1


def _row_products(X, i, S):
    """(P, Q) = (prod_{k in S} (X_i + X_k), prod_{k in S, k!=i} (X_i - X_k)), exact."""
    a, p, q = X[i], 1, 1
    for k in S:
        p *= a + X[k]
        if k != i:
            q *= a - X[k]
    return p, q


def _cauchy_factors(X, t, S, rows):
    """Raw mpf for each i in rows from _row_products over the subset S (indices
    into X), rounded once at _GUARD bits above the working precision: for i in
    S the subset's Cauchy factor P / (Q 2^t), else Q / P (module docstring)."""
    wp, S = mp.prec + _GUARD, list(S)
    out = []
    for i in rows:
        p, q = _row_products(X, i, S)
        num, den = (from_man_exp(p, -t), q) if i in S else (from_man_exp(q, 0), p)
        out.append(mpf_div(num, from_man_exp(den, 0), wp, RND))
    return out


def _cauchy_rows(X, t, s, idx):
    """Rows of mpf s_a s_b / (x_i + x_j), i = idx[a] and j = idx[b], for raw
    mpf scales s: the product is exact and the quotient rounds once at
    working precision, so the block is symmetric to the bit."""
    prec, n = mp.prec, len(idx)
    rows = [[None] * n for _ in range(n)]
    for a, i in enumerate(idx):
        for b in range(a, n):
            v = mpf_div(mpf_mul(s[a], s[b]), from_man_exp(X[i] + X[idx[b]], -t), prec, RND)
            rows[a][b] = rows[b][a] = mp.make_mpf(v)
    return rows


def gram_matrix(lam: ExponentSequence, precision_bits: int = 256) -> GramMatrix:
    """G_jk = 1/(lambda_j + lambda_k + 1) = 1/(x_j + x_k) at the given
    precision: the exact nodes now, the entries (each rounded once from
    them) on first read of GramMatrix.entries."""
    with working_precision(precision_bits):
        nodes = _nodes(lam)
    return GramMatrix(lam, precision_bits, nodes)


def cauchy_determinant(G: GramMatrix):
    """det G = prod_{j<k} (x_j - x_k)^2 / prod_{j,k} (x_j + x_k), from the
    row products: prod_i |Q_i| 2^(tN) / prod_i P_i, rounded once."""
    with working_precision(G.precision_bits):
        X, t = G.nodes
        N = len(X)
        num = den = 1
        for i in range(N):
            p, q = _row_products(X, i, range(N))
            num *= abs(q)
            den *= p
        return mp.make_mpf(mpf_div(from_man_exp(num, t * N), from_man_exp(den, 0), mp.prec, RND))


def _identity_bound(G: GramMatrix):
    """Certified e >= |(G~ M - I)_ij| and |(G M - I)_ij| for all i, j, at
    working precision, in O(N^2) and before M is formed.

    G is exact, G~ its stored rounding and M the _cauchy_rows of
    G.row_factors.  With u = 2^-prec, G~_ij = G_ij (1 + d) and M_ij =
    C_ij (1 + d_i)(1 + d_j)(1 + d) for the exact inverse C_ij = a_i a_j /
    (x_i + x_j), where |d| <= u and |d_i| <= 2^-_GUARD u (the row factors).
    As G C = I, both residuals are at most (2u + 2^(2-_GUARD) u) s with
    s = max_i sum_k G_ik max_j |C_kj|, and max_j |C_kj| = |a_k| max_j |a_j| /
    (x_k + x_j).  Every row has s_i >= (G C)_ii = 1, so e = c s with c = 4u
    also covers rounding G~ M - I to working precision entry by entry.

    s is summed in doubles on one power-of-two scale: |a_k| 2^-Q <= 1 with
    2^Q above the largest |a_k|, and 1/(x_i + x_k) < 1, each correctly
    rounded from integers.  It is then raised by (N + 16) 2^-52 relative,
    above the N + 6 roundings of 2^-53 that each term and the sum take, and
    by N 2^-1050 for terms under the double range.
    """
    X, t = G.nodes
    N, T = len(X), 1 << t
    H = [[0.0] * N for _ in range(N)]
    for i in range(N):
        for k in range(i, N):
            H[i][k] = H[k][i] = T / (X[i] + X[k])
    raw = G.row_factors
    Q = max(ex + bc for _, _, ex, bc in raw)
    a = [math.ldexp(man / (1 << bc), ex + bc - Q) for _, man, ex, bc in raw]
    b = [ak * max(map(mul, a, row)) for ak, row in zip(a, H)]
    s = max(sum(map(mul, b, row)) for row in H)
    s = (s + N * 2.0 ** -1050) * (1 + (N + 16) * 2.0 ** -52)
    return mp.ldexp(mpf(s), 2 * Q + 2 - mp.prec)


def cauchy_inverse(G: GramMatrix, residual_tol: Optional[float] = None):
    """Closed-form inverse of the Gram matrix, with its certified bound.

    Returns
    -------
    (M, bound)
        M is the symmetric inverse as rows of mpf, M_ij = A_i A_j / (x_i + x_j),
        the _cauchy_rows of G.row_factors, each entry rounded once at working
        precision; bound is _identity_bound(G), at least max|G*M - I| for the
        exact G and for its stored rounding.

    Raises
    ------
    PrecisionInsufficientError
        If the bound exceeds ``residual_tol`` (default 10^(-bits/8)), before
        any row of M is formed; the caller must raise precision_bits and
        rebuild.
    """
    if residual_tol is None:
        residual_tol = inverse_residual_tolerance(G.precision_bits)
    with working_precision(G.precision_bits):
        bound = _identity_bound(G)
        if not bound <= mpf(residual_tol):
            raise PrecisionInsufficientError(
                f"G*M - I bound {mp.nstr(bound, 5)} exceeds {residual_tol} "
                f"at {G.precision_bits} bits; raise precision_bits",
                residual=bound,
                precision_bits=G.precision_bits,
            )
        X, t = G.nodes
        M = _cauchy_rows(X, t, G.row_factors, range(len(X)))
    return M, bound


def inverse_with_escalation(lam: ExponentSequence, precision_bits: int = 256,
                            residual_tol: Optional[float] = None):
    """gram_matrix + cauchy_inverse, doubling precision (at most _MAX_DOUBLINGS
    times) until the certified bound passes.

    The target stays pinned to the *requested* precision, so escalation
    refines the arithmetic without moving the goalposts.  A failed attempt
    forms the nodes, the row factors and the bound, never a matrix.
    Returns (GramMatrix, inverse, bound); the GramMatrix carries the
    precision that finally succeeded.
    """
    if residual_tol is None:
        residual_tol = inverse_residual_tolerance(precision_bits)
    bits = precision_bits
    last_exc = None
    for _ in range(_MAX_DOUBLINGS + 1):
        G = gram_matrix(lam, bits)
        try:
            M, bound = cauchy_inverse(G, residual_tol=residual_tol)
            return G, M, bound
        except PrecisionInsufficientError as exc:
            last_exc = exc
            bits *= 2
    raise last_exc


def _norms_and_distances(rows, X, t, A):
    """[(||r_i||, D_i)] for each i in rows, from the nodes and the prefix's
    _cauchy_factors A over those rows: |A_i| / (2 x_i)^(1/2) and its
    reciprocal.  The root is rounded at _GUARD bits above the working
    precision, then each quotient once at working precision."""
    prec = mp.prec
    out = []
    for i, a in zip(rows, A):
        a, r = mpf_abs(a), mpf_sqrt(from_man_exp(X[i], 1 - t), prec + _GUARD, RND)
        out.append((mp.make_mpf(mpf_div(a, r, prec, RND)), mp.make_mpf(mpf_div(r, a, prec, RND))))
    return out


def distance(lam: ExponentSequence, n: int, N: int, precision_bits: int = 256) -> DistanceReport:
    """Distance from e_n to the span of the remaining N-1 monomials.

    D_{n,N} = (2 lambda_n + 1)^(-1/2) * prod_{k<=N, k!=n}
    |lambda_n - lambda_k| / (lambda_n + lambda_k + 1) = (2 x_n)^(1/2) / |A_n|,
    from row n's products alone; the dual norm is ((G_N^-1)_nn)^(1/2) =
    |A_n| / (2 x_n)^(1/2), and the two satisfy distance * dual_norm = 1.
    """
    if not 1 <= n <= N <= len(lam):
        raise InputError(f"need 1 <= n <= N <= {len(lam)}, got n={n}, N={N}")
    with working_precision(precision_bits):
        X, t = _nodes(lam.prefix(N))
        [(dual, d)] = _norms_and_distances([n - 1], X, t, _cauchy_factors(X, t, range(N), [n - 1]))
    return DistanceReport(n=n, truncation=N, distance=d, dual_norm=dual)


def distance_lower_bound_check(lam: ExponentSequence, N: int, epsilon: float,
                               precision_bits: int = 256):
    """Fit the constant in the lower bound D_n >= m * (1-eps)^lambda_n.

    Returns (reports, m_fit) where m_fit = min_n D_{n,N} / (1-eps)^lambda_n
    over n <= N.  m_fit is positive whenever the exponents are distinct;
    its trend over N is the quantity worth watching, so each report
    carries the shared fit.  One pass of row products over the nodes gives
    every distance and dual norm: lambda_n - lambda_k, lambda_n + lambda_k + 1
    and 2 lambda_n + 1 are exactly x_n - x_k, x_n + x_k and 2 x_n.
    """
    if not 0 < epsilon < 1:
        raise ParameterError(f"epsilon must lie in (0,1), got {epsilon}")
    with working_precision(precision_bits):
        eps = mpf(epsilon)
        rows = range(N)
        X, t = _nodes(lam.prefix(N))
        pairs = _norms_and_distances(rows, X, t, _cauchy_factors(X, t, rows, rows))
        m_fit = min(d / (1 - eps) ** mpf(v) for (_, d), v in zip(pairs, lam.values))
    reports = [DistanceReport(i + 1, N, d, dual, epsilon, m_fit)
               for i, (dual, d) in enumerate(pairs)]
    return reports, m_fit


def _dyadic(lams):
    """(L, s): integers L_n = lambda_n 2^s for the least s >= 0.  An int or
    mpf exponent is m 2^e exactly, so s = max(0, -min e)."""
    s = max([0] + [-mp.mpmathify(v).exp for v in lams if not isinstance(v, int)])
    return [v << s if isinstance(v, int) else int(mp.ldexp(v, s)) for v in lams], s


def _fixed_point(lams, vs, rel_err):
    """(F, X, Y, s, e) for a nonzero list, else None.  X, Y are the parts of
    vs rounded to integers at scale 2^F, F the working precision above the
    largest |v|; s = sum |v_n| w_n with w_n = (2 lambda_n + 1)^(-1/2), and e
    the same sum over the entry errors, rel_err |v_n| plus 2^(-F) of rounding."""
    top = max((abs(v) for v in vs), default=0)
    if top == 0:
        return None
    F = mp.prec - mp.mag(top)
    X = [int(mp.nint(mp.ldexp(v.real, F))) for v in vs]
    Y = [int(mp.nint(mp.ldexp(v.imag, F))) for v in vs]
    w = [1 / sqrt(2 * mpf(v) + 1) for v in lams]
    s = sum(abs(v) * wn for v, wn in zip(vs, w))
    return F, X, Y, s, rel_err * s + mp.ldexp(sum(w), -F)


def gram_form(lams: Sequence, vs: Sequence, rel_err=0, other=None):
    """Exact Gram form of Muntz coefficient lists, with a certified error.

    One list: Re sum_{n,m} v_n conj(v_m) / (lambda_n + lambda_m + 1), that is
    ||sum_n v_n t^lambda_n||^2 on (0, 1), summed once over the upper triangle.
    With other = (mus, ws): the pairing sum_{n,m} v_n conj(w_m) /
    (lambda_n + mu_m + 1), that is <sum_n v_n t^lambda_n, sum_m w_m t^mu_m>.
    Exponents are ints or mpf, so 1/(lambda_n + mu_m + 1) = 2^s / (L_n + M_m
    + 2^s) with the integers of _dyadic over both lists (s = 0 for integer
    exponents).  Each pair adds the floor of its fixed-point numerator over
    that integer denominator to an exact integer sum.

    Returns (value, err), value an mpf for one list and an mpc for two; err
    bounds |value - form| when each coefficient lies within rel_err of its
    modulus from its exact value.  AM-GM gives 1/(lambda_n + mu_m + 1) <=
    w_n w_m, so moving the coefficients moves the pairing by at most
    e s' + s e' + e e' and the squared norm by at most 2 e s + 3 e^2 (s, e
    from _fixed_point, primes for the second list); each floor loses under
    one unit of the last scale and the final rounding one ulp.
    """
    mus, ws = other or ((), ())
    ls, sh = _dyadic(list(lams) + list(mus))
    one = 1 << sh
    a = _fixed_point(lams, [mpc(v) for v in vs], rel_err)
    if other is None:
        if a is None:
            return mpf(0), mpf(0)
        F, X, Y, s, e = a
        P = len(X)
        total = 0
        for n in range(P):
            xn, yn, ln = X[n] << sh, Y[n] << sh, ls[n] + one
            row = sum((xn * X[m] + yn * Y[m]) // (ln + ls[m]) for m in range(n + 1, P))
            total += 2 * row + (xn * X[n] + yn * Y[n]) // (ln + ls[n])
        value = mp.ldexp(mpf(total), -2 * F)
        err = 2 * e * s + 3 * e ** 2 + mp.ldexp(mpf(P * P), -2 * F) + abs(value) * mp.eps
        # doubled for the rounding in the bound's own arithmetic
        return value, 2 * err
    b = _fixed_point(mus, [mpc(w) for w in ws], rel_err)
    if a is None or b is None:
        return mpc(0), mpf(0)
    (F, X, Y, s, e), (Fb, U, V, s2, e2) = a, b
    ms = ls[len(X):]
    re = im = 0
    for xn, yn, ln in zip(X, Y, ls):
        xn, yn, ln = xn << sh, yn << sh, ln + one
        for um, vm, mm in zip(U, V, ms):
            re += (xn * um + yn * vm) // (ln + mm)
            im += (yn * um - xn * vm) // (ln + mm)
    F += Fb
    value = mpc(mp.ldexp(mpf(re), -F), mp.ldexp(mpf(im), -F))
    err = e * s2 + s * e2 + e * e2 + mp.ldexp(mpf(2 * len(X) * len(U)), -F) + abs(value) * mp.eps
    return value, 2 * err
