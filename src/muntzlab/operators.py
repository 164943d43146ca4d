"""Diagonal-on-monomials compact operators and their synthesis certificate.

The operator class acts as T f = sum_n <f, r_n> u_n t^lambda_n for a
sequence of distinct non-zero eigenvalues u_n dominated by rho^lambda_n.
In the orthonormal coordinates produced by the Cholesky factor of the
Gram matrix (G = L L^T) the truncated operator is M = L^T diag(u) L^(-T),
an upper-triangular matrix similar to diag(u); every certificate item is
a statement about M or about exact inner-product identities.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Optional, Sequence

from mpmath import conj, matrix, mp, mpc, mpf, sqrt

from .biorthogonal import BiorthogonalFamily
from .config import RunConfig, rank_collapse_threshold, working_precision
from .errors import ConvergenceError, InputError, ParameterError, PrecisionInsufficientError
from .exponents import ExponentSequence
from . import completeness as _completeness
from .linalg import conj_transpose, frobenius_norm, max_abs, sigma_max, sigma_min
from .muntz_space import (
    MuntzSeries,
    QuadratureSpec,
    SeriesOrCallable,
    recovered_coefficients,
)


@dataclass(frozen=True)
class MuntzOperator:
    """Eigenvalue data (u_n) with its decay certificate rho.

    Invariants: all u_n distinct and non-zero, |u_n| <= rho^lambda_n.
    ``_unchecked`` exists for tests that need to construct invalid data on
    purpose; the certificate re-checks distinctness independently.
    """

    lam: ExponentSequence
    u: tuple
    rho: float
    truncation: int

    def __post_init__(self):
        if not 0 < self.rho < 1:
            raise ParameterError(f"rho must lie in (0,1), got {self.rho}")
        if len(self.u) != self.truncation or len(self.lam) < self.truncation:
            raise InputError("need one eigenvalue per exponent up to the truncation")
        # validate at a pinned precision: ambient precision may be far below
        # the precision the eigenvalues were produced at
        with working_precision(256):
            seen = set()
            for n, un in enumerate(self.u, start=1):
                if un == 0:
                    raise ParameterError(f"u_{n} is zero")
                key = mpc(un)
                if key in seen:
                    raise ParameterError(f"u_{n} duplicates an earlier eigenvalue")
                seen.add(key)
                bound = mpf(self.rho) ** mpf(self.lam.values[n - 1])
                if not abs(mpc(un)) <= bound * (1 + mpf(10) ** -30):
                    raise ParameterError(
                        f"|u_{n}| = {mp.nstr(abs(mpc(un)), 8)} exceeds rho^lambda_n = {mp.nstr(bound, 8)}")

    @classmethod
    def _unchecked(cls, lam, u, rho, truncation) -> "MuntzOperator":
        op = object.__new__(cls)
        object.__setattr__(op, "lam", lam)
        object.__setattr__(op, "u", tuple(u))
        object.__setattr__(op, "rho", rho)
        object.__setattr__(op, "truncation", truncation)
        return op


def dilation_operator(lam: ExponentSequence, rho: float, N: int) -> MuntzOperator:
    """T_rho f = f(rho x): eigenvalues u_n = rho^lambda_n, saturating the decay bound."""
    if not 0 < rho < 1:
        raise ParameterError(f"rho must lie in (0,1), got {rho}")
    with working_precision(256):
        u = tuple(mpf(rho) ** mpf(lam.values[n]) for n in range(N))
    return MuntzOperator(lam=lam.prefix(N), u=u, rho=rho, truncation=N)


def apply_operator(op: MuntzOperator, f: SeriesOrCallable, family: BiorthogonalFamily,
                   quad: QuadratureSpec = QuadratureSpec()) -> MuntzSeries:
    """T f = sum_{n<=N} <f, r_n> u_n t^lambda_n as a finite series."""
    if family.truncation != op.truncation:
        raise InputError("operator and family truncations differ")
    coeffs = recovered_coefficients(f, family, quad)
    with working_precision(family.precision_bits):
        scaled = tuple(c * u for c, u in zip(coeffs, op.u))
    return MuntzSeries(family.lam.prefix(op.truncation), scaled)


def _orthonormal_matrix(u: Sequence, L: matrix, precision_bits: int) -> matrix:
    """M = L^T diag(u) L^(-T): upper triangular with diagonal u."""
    from .linalg import lower_triangular_inverse

    with working_precision(precision_bits):
        N = L.rows
        Lt = L.T
        Linv_t = lower_triangular_inverse(L).T
        D = matrix(N, N)
        for n in range(N):
            D[n, n] = u[n]
        return Lt * D * Linv_t


def matrix_representation(op: MuntzOperator, family: BiorthogonalFamily) -> matrix:
    """Truncated operator in orthonormal coordinates (similar to diag(u))."""
    if family.truncation != op.truncation:
        raise InputError("operator and family truncations differ")
    return _orthonormal_matrix(op.u, family.cholesky_factor, family.precision_bits)


def spectrum_from_matrix(M: matrix, precision_bits: int):
    """Eigenvalues read off the structurally upper-triangular representation.

    The strict lower triangle must vanish to rounding; anything larger is
    a precision failure, not a math statement.
    """
    with working_precision(precision_bits):
        N = M.rows
        floor = mpf(10) ** (-(precision_bits // 2))
        scale = max(max_abs(M), mpf(1))
        for i in range(N):
            for j in range(i):
                if abs(M[i, j]) > floor * scale:
                    raise PrecisionInsufficientError(
                        f"lower-triangle leak {mp.nstr(abs(M[i, j]), 5)} in the orthonormal "
                        "representation", residual=abs(M[i, j]), precision_bits=precision_bits)
        return [M[i, i] for i in range(N)]


def normality_defect(op: MuntzOperator, family: BiorthogonalFamily):
    """Frobenius norm of M M* - M* M; zero iff the representation is normal."""
    M = matrix_representation(op, family)
    return normality_defect_from_matrix(M, family.precision_bits)


def normality_defect_from_matrix(M: matrix, precision_bits: int):
    with working_precision(precision_bits):
        MH = conj_transpose(M)
        return frobenius_norm(M * MH - MH * M)


def finite_rank_error(op: MuntzOperator, family: BiorthogonalFamily, m: int,
                      growth_epsilon: Optional[float] = None):
    """(computed, bound) for ||T - T_m||, the tail beyond the m-term head.

    computed is the largest singular value of L^T diag(0..0, u_{m+1}..u_N) L^(-T).
    bound is the envelope m_fit * sum_{n>m} ((rho+1)/2)^lambda_n with m_fit
    fitted at eps = (1-rho)/(2 rho), the choice that turns (1+eps) rho into
    exactly (rho+1)/2.
    """
    from .biorthogonal import norm_growth_check

    N = op.truncation
    if not 0 <= m <= N:
        raise InputError(f"m={m} outside 0..{N}")
    bits = family.precision_bits
    with working_precision(bits):
        tail_u = [mpf(0)] * m + list(op.u[m:])
        if m == N:
            computed = mpf(0)
        else:
            Mtail = _orthonormal_matrix(tail_u, family.cholesky_factor, bits)
            computed = sigma_max(Mtail)
        if growth_epsilon is None:
            growth_epsilon = (1 - op.rho) / (2 * op.rho)
        growth = norm_growth_check(family, min(growth_epsilon, 1 - 1e-12))
        envelope_base = (mpf(op.rho) + 1) / 2
        bound = growth.m_fit * sum(envelope_base ** mpf(op.lam.values[n]) for n in range(m, N))
        return computed, bound


# ---------------------------------------------------------------------------
# certificate


@dataclass(frozen=True)
class CertificateItem:
    name: str
    passed: Optional[bool]         # None marks an inconclusive sub-check
    value: object
    tolerance: Optional[float] = None
    detail: str = ""


@dataclass(frozen=True)
class SynthesisCertificate:
    """Aggregated pass/fail record for the seven operator properties.

    status is "pass" only when every item passed; "inconclusive" when a
    sub-check ran out of precision or its iteration stopped at the step
    limit (never conflated with a mathematical failure); "fail" otherwise.  The mixed-system (hereditary) sample is
    item 8: the structural input that makes synthesis equivalent to the
    spectral data in the first seven.
    """

    items: tuple
    status: str
    spectrum: tuple
    eigen_residual: object
    adjoint_residual: object
    kernel_min_singular: object
    normality_defect: object
    finite_rank_errors: tuple
    simplicity_flag: bool

    def item(self, name: str) -> CertificateItem:
        for it in self.items:
            if it.name == name:
                return it
        raise KeyError(name)


def _eigen_relation_residual(op, family):
    """max_k ||T e_k - u_k e_k|| via the exact-coefficient path."""
    bits = family.precision_bits
    N = op.truncation
    with working_precision(bits):
        G = family.gram.entries
        worst = mpf(0)
        for k in range(N):
            # coefficients of T e_k: (G^-1 G)_nk * u_n, target u_k at slot k
            d = matrix(N, 1)
            for n in range(N):
                acc = mpc(0)
                for j in range(N):
                    acc += family.coeffs[j, n] * G[j, k]
                d[n] = acc * op.u[n] - (op.u[k] if n == k else 0)
            q = mpc(0)
            for i in range(N):
                for j in range(N):
                    q += d[i] * conj(d[j]) * G[i, j]
            worst = max(worst, sqrt(abs(q)))
        return worst


def _adjoint_relation_residual(op, family):
    """max_{j,k} |<T e_j, r_k> - u_k delta_jk| over the basis."""
    bits = family.precision_bits
    N = op.truncation
    with working_precision(bits):
        # B_jn = <e_j, r_n> = (G * G^-1)_jn, the biorthogonality matrix
        B = family.gram.entries * family.coeffs
        worst = mpf(0)
        for j in range(N):
            for k in range(N):
                # <T e_j, r_k> = sum_n u_n B_jn <e_n, r_k> = sum_n u_n B_jn B_nk
                acc = mpc(0)
                for n in range(N):
                    acc += op.u[n] * B[j, n] * conj(B[n, k])
                target = op.u[k] if j == k else 0
                worst = max(worst, abs(acc - target))
        return worst


def synthesis_certificate(op: MuntzOperator, family: BiorthogonalFamily,
                          config: Optional[RunConfig] = None,
                          hereditary_samples: int = 64) -> SynthesisCertificate:
    """Evaluate the seven certificate items plus the mixed-system sample.

    Items: (1) finite-rank approximation errors decay under the envelope,
    (2) T e_k = u_k e_k, (3) the adjoint identities <T e_j, r_k> = u_k
    delta_jk, (4) kernel triviality via the smallest singular value of the
    orthonormal representation, (5) spectrum report {0} union {u_k},
    (6) simplicity (distinct eigenvalues), (7) positive normality defect,
    (8) sampled mixed-system invertibility at this truncation.
    """
    config = config or RunConfig(precision_bits=family.precision_bits)
    N = op.truncation
    bits = family.precision_bits
    items = []
    inconclusive = False

    def add(name, passed, value, tol=None, detail=""):
        items.append(CertificateItem(name, passed, value, tol, detail))

    # 1. finite-rank errors
    try:
        fr = []
        for m in range(N + 1):
            computed, bound = finite_rank_error(op, family, m)
            fr.append((m, computed, bound))
        # monotonicity holds from m=1 on; dropping the first rank-one piece
        # of a non-normal operator can raise the norm (observed at N=10)
        decreasing = all(fr[i + 1][1] < fr[i][1] for i in range(1, N))
        under = all(c <= b * (1 + mpf(10) ** -20) for _, c, b in fr)
        add("finite_rank_decay", decreasing and under and fr[N][1] == 0,
            tuple((m, c, b) for m, c, b in fr),
            detail="strictly decreasing for m >= 1, zero at m=N, under the envelope")
    except (PrecisionInsufficientError, ConvergenceError) as exc:
        # sigma_max's power iteration can stall (squares, N=10, rho=0.8 at m=0)
        inconclusive = True
        add("finite_rank_decay", None, str(exc))
        fr = ()

    # 2. eigen relations
    tol_eig = config.tolerance("eigen_residual")
    try:
        eig_res = _eigen_relation_residual(op, family)
        add("eigen_relations", eig_res < mpf(tol_eig), eig_res, tol_eig)
    except PrecisionInsufficientError as exc:
        inconclusive, eig_res = True, None
        add("eigen_relations", None, str(exc))

    # 3. adjoint relations
    tol_adj = config.tolerance("adjoint_residual")
    try:
        adj_res = _adjoint_relation_residual(op, family)
        add("adjoint_relations", adj_res < mpf(tol_adj), adj_res, tol_adj)
    except PrecisionInsufficientError as exc:
        inconclusive, adj_res = True, None
        add("adjoint_relations", None, str(exc))

    # 4-7 need the orthonormal representation
    spectrum = ()
    kernel_sigma = None
    defect = None
    simple = None
    try:
        M = matrix_representation(op, family)
        kernel_tol = rank_collapse_threshold(bits)
        kernel_sigma = sigma_min(M)
        add("kernel_trivial", kernel_sigma > mpf(kernel_tol), kernel_sigma, kernel_tol)

        eigs = spectrum_from_matrix(M, bits)
        with working_precision(bits):
            spectrum = tuple([mpc(0)] + [mpc(u) for u in op.u])
            match = max(abs(eigs[n] - mpc(op.u[n])) for n in range(N))
        add("spectrum", match < mpf(10) ** (-(bits // 4)), tuple(eigs), None,
            detail="diagonal of the orthonormal representation matches u")

        dist = min(abs(mpc(op.u[i]) - mpc(op.u[j]))
                   for i in range(N) for j in range(i + 1, N)) if N > 1 else mpf(1)
        simple = bool(dist > 0) and all(mpc(u) != 0 for u in op.u)
        add("simple_eigenvalues", simple, dist)

        defect = normality_defect_from_matrix(M, bits)
        tol_defect = config.tolerance("normality_defect_min")
        add("not_normal", defect > mpf(tol_defect) if N >= 2 else None, defect, tol_defect,
            detail="non-orthogonal eigenvectors force a positive commutator norm")
        if N < 2:
            inconclusive = True
    except PrecisionInsufficientError as exc:
        inconclusive = True
        add("kernel_trivial", None, str(exc))
        add("spectrum", None, str(exc))
        add("simple_eigenvalues", None, str(exc))
        add("not_normal", None, str(exc))

    # 8. mixed-system sample (hereditary completeness input)
    try:
        rng = Random(config.seed)
        if N <= 10 and 2 ** N <= hereditary_samples:
            parts = list(_completeness.all_partitions(N))
        else:
            parts = [_completeness.sample_partition(N, rng) for _ in range(hereditary_samples)]
        worst_sigma = None
        ok = True
        for part in parts:
            check = _completeness.mixed_completeness_check(part, family)
            if worst_sigma is None or check.min_singular < worst_sigma:
                worst_sigma = check.min_singular
            ok = ok and check.invertible
        add("mixed_system_sample", ok, worst_sigma, rank_collapse_threshold(bits),
            detail=f"{len(parts)} partitions, smallest sigma_min reported")
    except PrecisionInsufficientError as exc:
        inconclusive = True
        add("mixed_system_sample", None, str(exc))

    if inconclusive or any(it.passed is None for it in items):
        status = "inconclusive" if all(it.passed is not False for it in items) else "fail"
    else:
        status = "pass" if all(it.passed for it in items) else "fail"

    return SynthesisCertificate(
        items=tuple(items),
        status=status,
        spectrum=spectrum,
        eigen_residual=eig_res,
        adjoint_residual=adj_res,
        kernel_min_singular=kernel_sigma,
        normality_defect=defect,
        finite_rank_errors=tuple(fr),
        simplicity_flag=bool(simple),
    )
