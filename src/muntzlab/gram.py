"""Gram matrix of {t^lambda_n} in L2(0,1) and its closed-form Cauchy algebra.

With nodes x_i = lambda_i + 1/2 the Gram matrix is the symmetric Cauchy
matrix G_jk = 1/(x_j + x_k), so its determinant, inverse, and the distance
from each monomial to the span of the others all have product formulas.
Products are assembled in log-space with sign tracking.  mpf has an
unbounded exponent, so nothing would overflow in direct products; the
log-space values are kept because they are the values every artifact
pins (the inverse, the dual norms, the distances and the determinant).
Each call fills one table of log(x_i + x_k) and log|x_i - x_k| over its
prefix, so each logarithm is taken once (O(N^2), distance's single row
O(N)); under round-to-nearest x_i - x_k rounds to exactly -(x_k - x_i), so
every table entry is the value a per-pair evaluation would give, and the
sums keep their order.  distance_lower_bound_check fills the same tables
over the exponents themselves, log(lambda_i + lambda_k + 1) and
log|lambda_i - lambda_k|, for all its distances.

The kernel runs on raw mpf values (mpmath.libmp's (sign, man, exp, bc)
tuples): mpf_log, mpf_add, mpf_sub and mpf_exp at working precision and
round-to-nearest, the operations and order the mpf wrappers would apply,
so every value is the same bits without the wrappers' per-call cost.
G and its inverse are rows of mpf.  _exact_product, the one G*M kernel,
forms every entry as an exact integer dot product at one power of two;
identity_residual and gram_product round its entries as fdot rounds them.

gram_form is the one exact kernel for the norm of a Muntz polynomial and
the pairing of two, for any int or mpf exponents: one power-of-two scale
makes every denominator an integer, so the sum is exact in Python integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Optional, Sequence

from mpmath import exp, mp, mpc, mpf, sqrt
from mpmath.libmp import (fone, from_man_exp, fzero, mpf_abs, mpf_add, mpf_exp, mpf_log, mpf_lt,
                          mpf_neg, mpf_rdiv_int, mpf_shift, mpf_sub, round_nearest as RND)

from .config import inverse_residual_tolerance, working_precision
from .errors import DegenerateInputError, InputError, ParameterError, PrecisionInsufficientError
from .exponents import ExponentSequence

_HALF = from_man_exp(1, -1)


@dataclass
class GramMatrix:
    """Gram matrix of a Muntz monomial prefix at a stated precision, as rows of mpf."""

    lam: ExponentSequence
    entries: list
    precision_bits: int

    @property
    def size(self) -> int:
        return len(self.entries)

    def entry(self, j: int, k: int):
        """G_jk with 1-based indices."""
        N = self.size
        if not (1 <= j <= N and 1 <= k <= N):
            raise InputError(f"index ({j}, {k}) outside 1..{N}")
        return self.entries[j - 1][k - 1]


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


def _lambdas(lam: ExponentSequence):
    """Exponents lambda_i, raw, at working precision."""
    return [mpf(v)._mpf_ for v in lam.values]


def _nodes(lam: ExponentSequence):
    """Nodes x_i = lambda_i + 1/2, raw, at working precision."""
    prec = mp.prec
    return [mpf_add(v, _HALF, prec, RND) for v in _lambdas(lam)]


def _check_distinct(lam: ExponentSequence):
    for i in range(len(lam) - 1):
        if lam.values[i + 1] == lam.values[i]:
            raise DegenerateInputError(f"duplicate exponent {lam.values[i]} at positions {i + 1}, {i + 2}")


def gram_matrix(lam: ExponentSequence, precision_bits: int = 256) -> GramMatrix:
    """Build G_jk = 1/(lambda_j + lambda_k + 1) at the given precision."""
    if precision_bits < 64:
        raise ParameterError(f"precision_bits must be >= 64, got {precision_bits}")
    with working_precision(precision_bits):
        prec = mp.prec
        N = len(lam)
        vals = _lambdas(lam)
        G = [[None] * N for _ in range(N)]
        for j in range(N):
            for k in range(j, N):
                d = mpf_add(mpf_add(vals[j], vals[k], prec, RND), fone, prec, RND)
                G[j][k] = G[k][j] = mp.make_mpf(mpf_rdiv_int(1, d, prec, RND))
    return GramMatrix(lam, G, precision_bits)


def cauchy_determinant(G: GramMatrix):
    """det G via the Cauchy product formula, assembled in log-space.

    Every factor is positive for a strictly increasing node set, so no
    sign tracking is needed here; the result is exp of a sum of logs.
    """
    _check_distinct(G.lam)
    with working_precision(G.precision_bits):
        prec = mp.prec
        N = len(G.lam)
        Lp, Lm = _log_tables(_nodes(G.lam))
        acc = fzero
        for j in range(N):
            for k in range(j + 1, N):
                acc = mpf_add(acc, mpf_shift(Lm[j][k], 1), prec, RND)
        for j in range(N):
            for k in range(N):
                acc = mpf_sub(acc, Lp[j][k], prec, RND)
        return mp.make_mpf(mpf_exp(acc, prec, RND))


def _log_sum(a, b, one, prec):
    """log(a + b), or log(a + b + 1) with the sum rounded before the 1 is added."""
    s = mpf_add(a, b, prec, RND)
    if one:
        s = mpf_add(s, fone, prec, RND)
    return mpf_log(s, prec, RND)


def _log_gap(a, b, prec):
    """log|a - b|."""
    return mpf_log(mpf_abs(mpf_sub(a, b, prec, RND)), prec, RND)


def _log_tables(x, one=False):
    """(Lp, Lm) with Lp[i][k] = log(x_i + x_k) and Lm[i][k] = log|x_i - x_k|
    (Lm[i][i] is None): the upper triangle is computed and mirrored.  With
    one, Lp[i][k] = log(x_i + x_k + 1), so over the exponents themselves the
    tables hold the factors of log_distance."""
    prec = mp.prec
    N = len(x)
    Lp = [[None] * N for _ in range(N)]
    Lm = [[None] * N for _ in range(N)]
    for i, a in enumerate(x):
        for k in range(i, N):
            Lp[i][k] = Lp[k][i] = _log_sum(a, x[k], one, prec)
        for k in range(i + 1, N):
            Lm[i][k] = Lm[k][i] = _log_gap(a, x[k], prec)
    return Lp, Lm


def _log_table_row(x, i, one=False):
    """Row i of _log_tables(x, one), from its own 2N - 1 logarithms."""
    prec = mp.prec
    a = x[i]
    return ([_log_sum(a, b, one, prec) for b in x],
            [None if k == i else _log_gap(a, b, prec) for k, b in enumerate(x)])


def _log_row(x, i, lp, lm):
    """log|A_i| and sign(A_i) for A_i = prod_k (x_i+x_k) / prod_{k!=i} (x_i-x_k),
    from row i of the log tables."""
    prec = mp.prec
    s = fzero
    for v in lp:
        s = mpf_add(s, v, prec, RND)
    sign = 1
    for k, v in enumerate(lm):
        if k == i:
            continue
        if mpf_lt(x[i], x[k]):
            sign = -sign
        s = mpf_sub(s, v, prec, RND)
    return s, sign


def _log_row_factors(x, Lp, Lm):
    """(log|A_i|, ...), (sign(A_i), ...) over every row i."""
    return zip(*(_log_row(x, i, Lp[i], Lm[i]) for i in range(len(x))))


def _dual_norm(log_a, log_2x):
    """((G^-1)_nn)^(1/2) = |A_n| / (2 x_n)^(1/2) from the logs of both."""
    prec = mp.prec
    return mp.make_mpf(mpf_exp(mpf_sub(log_a, mpf_shift(log_2x, -1), prec, RND), prec, RND))


def cauchy_inverse(G: GramMatrix, residual_tol: Optional[float] = None):
    """Closed-form inverse of the Gram matrix, with its identity residual.

    Returns
    -------
    (M, residual)
        M is the symmetric inverse as rows of mpf, M_ij = A_i A_j / (x_i + x_j);
        residual is max|G*M - I| computed at working precision.

    Raises
    ------
    PrecisionInsufficientError
        If the residual exceeds ``residual_tol`` (default 10^(-bits/8));
        the caller must raise precision_bits and rebuild.
    """
    _check_distinct(G.lam)
    if residual_tol is None:
        residual_tol = inverse_residual_tolerance(G.precision_bits)
    with working_precision(G.precision_bits):
        prec = mp.prec
        x = _nodes(G.lam)
        N = len(x)
        Lp, Lm = _log_tables(x)
        logs, signs = _log_row_factors(x, Lp, Lm)
        M = [[None] * N for _ in range(N)]
        for i in range(N):
            for j in range(i, N):
                v = mpf_exp(mpf_sub(mpf_add(logs[i], logs[j], prec, RND), Lp[i][j], prec, RND),
                            prec, RND)
                M[i][j] = M[j][i] = mp.make_mpf(v if signs[i] == signs[j] else mpf_neg(v))
        residual = identity_residual(G.entries, M)
    if not residual <= mpf(residual_tol):
        raise PrecisionInsufficientError(
            f"G*M - I residual {mp.nstr(residual, 5)} exceeds {residual_tol} "
            f"at {G.precision_bits} bits; raise precision_bits",
            residual=residual,
            precision_bits=G.precision_bits,
        )
    return M, residual


def _one_scale(rows):
    """(A, e) for rows of finite mpf: integers A_ik with A_ik 2^e the entries."""
    raw = [[v._mpf_ for v in row] for row in rows]
    e = min((ex for row in raw for _, man, ex, _ in row if man), default=0)
    A = [[0 if not man else -(man << (ex - e)) if sign else man << (ex - e)
          for sign, man, ex, _ in row] for row in raw]
    return A, e


def _exact_product(G, M):
    """(S, e) for rows of finite real mpf: integers S_ij with S_ij 2^e exactly
    (G M)_ij, each an integer dot product of G and M scaled by _one_scale."""
    (A, ea), (B, eb) = _one_scale(G), _one_scale(zip(*M))
    return [[sum(map(mul, row, col)) for col in B] for row in A], ea + eb


def gram_product(G, M):
    """G*M as rows of mpf, each exact entry rounded once at working precision:
    the value fdot gives wherever its own sum keeps every term, and so the
    value of mpmath's matrix product."""
    prec = mp.prec
    S, e = _exact_product(G, M)
    return [[mp.make_mpf(from_man_exp(s, e, prec, RND)) for s in row] for row in S]


def identity_residual(G, M):
    """max-norm of G*M - I at working precision, for rows of finite real mpf.

    Each diagonal entry of _exact_product is rounded, then 1 is subtracted,
    as fdot(...) - 1 rounds; the off-diagonal sums are compared as integers
    and only the largest is rounded, since rounding to nearest is monotone
    and symmetric.  The result is that of gram_product(G, M) - I.
    """
    prec = mp.prec
    S, e = _exact_product(G, M)
    top = max((abs(s) for i, row in enumerate(S) for s in row[:i] + row[i + 1:]), default=0)
    diag = [mpf_sub(from_man_exp(S[i][i], e, prec, RND), fone, prec, RND) for i in range(len(S))]
    return max(mp.make_mpf(mpf_abs(v)) for v in diag + [from_man_exp(top, e, prec, RND)])


def inverse_with_escalation(lam: ExponentSequence, precision_bits: int = 256,
                            residual_tol: Optional[float] = None, max_doublings: int = 6):
    """gram_matrix + cauchy_inverse, doubling precision until the residual passes.

    The residual target stays pinned to the *requested* precision, so
    escalation refines the arithmetic without moving the goalposts.
    Returns (GramMatrix, inverse, residual); the GramMatrix carries the
    precision that finally succeeded.
    """
    if residual_tol is None:
        residual_tol = inverse_residual_tolerance(precision_bits)
    bits = precision_bits
    last_exc = None
    for _ in range(max_doublings + 1):
        G = gram_matrix(lam, bits)
        try:
            M, residual = cauchy_inverse(G, residual_tol=residual_tol)
            return G, M, residual
        except PrecisionInsufficientError as exc:
            last_exc = exc
            bits *= 2
    raise last_exc


def _log_distance(tp, tm, i):
    """Raw log D from row i of the exponent tables _log_tables(lambda, one=True):
    -log(2 lambda_i + 1)/2 + sum_{k!=i} (log|lambda_i - lambda_k|
    - log(lambda_i + lambda_k + 1)), summed in k order."""
    prec = mp.prec
    acc = mpf_shift(mpf_neg(tp[i]), -1)
    for k, (p, m) in enumerate(zip(tp, tm)):
        if k != i:
            acc = mpf_add(acc, mpf_sub(m, p, prec, RND), prec, RND)
    return acc


def log_distance(lam: ExponentSequence, n: int, N: int):
    """log of the closed-form distance D_{n,N}; exact up to rounding."""
    if not 1 <= n <= N <= len(lam):
        raise InputError(f"need 1 <= n <= N <= {len(lam)}, got n={n}, N={N}")
    prefix = lam.prefix(N)
    _check_distinct(prefix)
    tp, tm = _log_table_row(_lambdas(prefix), n - 1, one=True)
    return mp.make_mpf(_log_distance(tp, tm, n - 1))


def distance(lam: ExponentSequence, n: int, N: int, precision_bits: int = 256) -> DistanceReport:
    """Distance from e_n to the span of the remaining N-1 monomials.

    D_{n,N} = (2 lambda_n + 1)^(-1/2) * prod_{k<=N, k!=n}
    |lambda_n - lambda_k| / (lambda_n + lambda_k + 1), evaluated in
    log-space; the dual norm is ((G_N^-1)_nn)^(1/2) and the two satisfy
    distance * dual_norm = 1.
    """
    with working_precision(precision_bits):
        d = exp(log_distance(lam, n, N))
        x = _nodes(lam.prefix(N))
        i = n - 1
        # (G^-1)_nn = A_n^2 / (2 x_n), so the dual norm needs only row n
        lp, lm = _log_table_row(x, i)
        log_a, _ = _log_row(x, i, lp, lm)
        dual = _dual_norm(log_a, lp[i])
    return DistanceReport(n=n, truncation=N, distance=d, dual_norm=dual)


def distance_lower_bound_check(lam: ExponentSequence, N: int, epsilon: float,
                               precision_bits: int = 256):
    """Fit the constant in the lower bound D_n >= m * (1-eps)^lambda_n.

    Returns (reports, m_fit) where m_fit = min_n D_{n,N} / (1-eps)^lambda_n
    over n <= N.  m_fit is positive whenever the exponents are distinct;
    its trend over N is the quantity worth watching, so each report
    carries the shared fit.  One table over the nodes gives every dual
    norm and one over the exponents every distance, each logarithm taken
    once.
    """
    if not 0 < epsilon < 1:
        raise ParameterError(f"epsilon must lie in (0,1), got {epsilon}")
    with working_precision(precision_bits):
        prec = mp.prec
        eps = mpf(epsilon)
        prefix = lam.prefix(N)
        _check_distinct(prefix)
        x = _nodes(prefix)
        Lp, Lm = _log_tables(x)
        logs, _ = _log_row_factors(x, Lp, Lm)
        Tp, Tm = _log_tables(_lambdas(prefix), one=True)
        base = []
        for i in range(N):
            d = mp.make_mpf(mpf_exp(_log_distance(Tp[i], Tm[i], i), prec, RND))
            rep = DistanceReport(n=i + 1, truncation=N, distance=d,
                                 dual_norm=_dual_norm(logs[i], Lp[i][i]))
            ratio = rep.distance / (1 - eps) ** mpf(lam.values[i])
            base.append((rep, ratio))
        m_fit = min(r for _, r in base)
    reports = [
        DistanceReport(rep.n, rep.truncation, rep.distance, rep.dual_norm, epsilon, m_fit)
        for rep, _ in base
    ]
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
