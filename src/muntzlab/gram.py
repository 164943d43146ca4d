"""Gram matrix of {t^lambda_n} in L2(0,1) and its closed-form Cauchy algebra.

With nodes x_i = lambda_i + 1/2 the Gram matrix is the symmetric Cauchy
matrix G_jk = 1/(x_j + x_k), so its determinant, inverse, and the distance
from each monomial to the span of the others all have product formulas.
Products are accumulated in log-space with sign tracking: already for
lambda = {n^2} and N around 12 they span more than thirty orders of
magnitude, which would overflow any fixed-exponent representation of the
intermediate factors.  Each call fills one table of log(x_i + x_k) and
log|x_i - x_k| over its prefix, so each logarithm is taken once (O(N^2),
distance's single row O(N)); under round-to-nearest x_i - x_k rounds to
exactly -(x_k - x_i), so every table entry is the value a per-pair
evaluation would give, and the sums keep their order.

gram_form is the one exact kernel for the norm of a Muntz polynomial and
the pairing of two, for any int or mpf exponents: one power-of-two scale
makes every denominator an integer, so the sum is exact in Python integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from mpmath import exp, log, matrix, mp, mpc, mpf, sqrt

from .config import inverse_residual_tolerance, working_precision
from .errors import DegenerateInputError, InputError, ParameterError, PrecisionInsufficientError
from .exponents import ExponentSequence


@dataclass
class GramMatrix:
    """Gram matrix of a Muntz monomial prefix at a stated precision."""

    lam: ExponentSequence
    entries: matrix
    precision_bits: int

    @property
    def size(self) -> int:
        return self.entries.rows

    def entry(self, j: int, k: int):
        """G_jk with 1-based indices."""
        return self.entries[j - 1, k - 1]


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
    return [mpf(v) + mpf(1) / 2 for v in lam.values]


def _check_distinct(lam: ExponentSequence):
    for i in range(len(lam) - 1):
        if lam.values[i + 1] == lam.values[i]:
            raise DegenerateInputError(f"duplicate exponent {lam.values[i]} at positions {i + 1}, {i + 2}")


def gram_matrix(lam: ExponentSequence, precision_bits: int = 256) -> GramMatrix:
    """Build G_jk = 1/(lambda_j + lambda_k + 1) at the given precision."""
    if precision_bits < 64:
        raise ParameterError(f"precision_bits must be >= 64, got {precision_bits}")
    with working_precision(precision_bits):
        N = len(lam)
        G = matrix(N, N)
        for j in range(N):
            for k in range(j, N):
                G[j, k] = G[k, j] = 1 / (mpf(lam.values[j]) + mpf(lam.values[k]) + 1)
    return GramMatrix(lam, G, precision_bits)


def cauchy_determinant(G: GramMatrix):
    """det G via the Cauchy product formula, assembled in log-space.

    Every factor is positive for a strictly increasing node set, so no
    sign tracking is needed here; the result is exp of a sum of logs.
    """
    _check_distinct(G.lam)
    with working_precision(G.precision_bits):
        x = _nodes(G.lam)
        N = len(x)
        Lp, Lm = _log_tables(x)
        acc = mpf(0)
        for j in range(N):
            for k in range(j + 1, N):
                acc += 2 * Lm[j][k]
        for j in range(N):
            for k in range(N):
                acc -= Lp[j][k]
        return exp(acc)


def _log_tables(x):
    """(Lp, Lm) with Lp[i][k] = log(x_i + x_k) and Lm[i][k] = log|x_i - x_k|
    (Lm[i][i] is None): the upper triangle is computed and mirrored."""
    N = len(x)
    Lp = [[None] * N for _ in range(N)]
    Lm = [[None] * N for _ in range(N)]
    for i in range(N):
        for k in range(i, N):
            Lp[i][k] = Lp[k][i] = log(x[i] + x[k])
        for k in range(i + 1, N):
            Lm[i][k] = Lm[k][i] = log(abs(x[i] - x[k]))
    return Lp, Lm


def _log_row(x, i, lp, lm):
    """log|A_i| and sign(A_i) for A_i = prod_k (x_i+x_k) / prod_{k!=i} (x_i-x_k),
    from row i of the log tables."""
    s = mpf(0)
    for v in lp:
        s += v
    sign = 1
    for k, v in enumerate(lm):
        if k == i:
            continue
        if x[i] < x[k]:
            sign = -sign
        s -= v
    return s, sign


def _log_row_factors(x, Lp, Lm):
    """(log|A_i|, ...), (sign(A_i), ...) over every row i."""
    return zip(*(_log_row(x, i, Lp[i], Lm[i]) for i in range(len(x))))


def _dual_norm(log_a, log_2x):
    """((G^-1)_nn)^(1/2) = |A_n| / (2 x_n)^(1/2) from the logs of both."""
    return exp(log_a - log_2x / 2)


def cauchy_inverse(G: GramMatrix, residual_tol: Optional[float] = None):
    """Closed-form inverse of the Gram matrix, with its identity residual.

    Returns
    -------
    (M, residual)
        M is the symmetric inverse with (M)_ij = A_i A_j / (x_i + x_j);
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
        x = _nodes(G.lam)
        N = len(x)
        Lp, Lm = _log_tables(x)
        logs, signs = _log_row_factors(x, Lp, Lm)
        M = matrix(N, N)
        for i in range(N):
            for j in range(i, N):
                val = signs[i] * signs[j] * exp(logs[i] + logs[j] - Lp[i][j])
                M[i, j] = M[j, i] = val
        residual = identity_residual(G.entries, M)
    if not residual <= mpf(residual_tol):
        raise PrecisionInsufficientError(
            f"G*M - I residual {mp.nstr(residual, 5)} exceeds {residual_tol} "
            f"at {G.precision_bits} bits; raise precision_bits",
            residual=residual,
            precision_bits=G.precision_bits,
        )
    return M, residual


def identity_residual(G: matrix, M: matrix):
    """max-norm of G*M - I.

    Row i of G against column j of M, summed by fdot in k order: the sum
    mpmath's matrix product forms, read from row lists.
    """
    rows, cols = G.tolist(), M.T.tolist()
    worst = mpf(0)
    for i, row in enumerate(rows):
        for j, col in enumerate(cols):
            target = 1 if i == j else 0
            worst = max(worst, abs(mp.fdot(row, col) - target))
    return worst


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


def log_distance(lam: ExponentSequence, n: int, N: int):
    """log of the closed-form distance D_{n,N}; exact up to rounding."""
    if not 1 <= n <= N <= len(lam):
        raise InputError(f"need 1 <= n <= N <= {len(lam)}, got n={n}, N={N}")
    _check_distinct(lam.prefix(N))
    ln = mpf(lam.values[n - 1])
    acc = -log(2 * ln + 1) / 2
    for k in range(N):
        if k == n - 1:
            continue
        lk = mpf(lam.values[k])
        acc += log(abs(ln - lk)) - log(ln + lk + 1)
    return acc


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
        lp = [log(x[i] + xk) for xk in x]
        lm = [None if k == i else log(abs(x[i] - xk)) for k, xk in enumerate(x)]
        log_a, _ = _log_row(x, i, lp, lm)
        dual = _dual_norm(log_a, lp[i])
    return DistanceReport(n=n, truncation=N, distance=d, dual_norm=dual)


def distance_lower_bound_check(lam: ExponentSequence, N: int, epsilon: float,
                               precision_bits: int = 256):
    """Fit the constant in the lower bound D_n >= m * (1-eps)^lambda_n.

    Returns (reports, m_fit) where m_fit = min_n D_{n,N} / (1-eps)^lambda_n
    over n <= N.  m_fit is positive whenever the exponents are distinct;
    its trend over N is the quantity worth watching, so each report
    carries the shared fit.
    """
    if not 0 < epsilon < 1:
        raise ParameterError(f"epsilon must lie in (0,1), got {epsilon}")
    with working_precision(precision_bits):
        eps = mpf(epsilon)
        prefix = lam.prefix(N)
        _check_distinct(prefix)
        x = _nodes(prefix)
        Lp, Lm = _log_tables(x)
        logs, _ = _log_row_factors(x, Lp, Lm)
        base = []
        for n in range(1, N + 1):
            rep = DistanceReport(n=n, truncation=N, distance=exp(log_distance(lam, n, N)),
                                 dual_norm=_dual_norm(logs[n - 1], Lp[n - 1][n - 1]))
            ratio = rep.distance / (1 - eps) ** mpf(lam.values[n - 1])
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
