"""Diagonal-on-monomials compact operators and their synthesis certificate.

The operator class acts as T f = sum_n <f, r_n> u_n t^lambda_n for a
sequence of distinct non-zero eigenvalues u_n dominated by rho^lambda_n.
Everything the certificate needs is held by the family: the Gram matrix
G and the dual coefficients C = G^-1, rows of mpf.  For f = sum_n a_n t^lambda_n,
||T_w f||^2 = (Wa)^H G (Wa) with W = diag(w), so the norm of the operator
with weights w on the span is ||M_w||^2 = lambda_max of the definite
pencil (W^H G W, G), enclosed by linalg.pencil_lambda_max with C placing
the iterate.  (M_w = L^T W L^(-T) for G = L L^T is that operator in
orthonormal coordinates; no factor L is formed.)  Certificate items 1
and 4 use these norms: the tails ||T - T_m|| (w = (0..0, u_{m+1}..u_N))
and sigma_min(M) = 1/||M_{1/u}||.  The normality defect is a trace
identity in G, C and u.  An item passes on a certified end that proves
its property and fails only on one that proves the negation.  A step
limit never makes an item inconclusive; a failed certificate does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from mpmath import conj, mp, mpc, mpf, sqrt

from .biorthogonal import BiorthogonalFamily, norm_growth_check
from .config import inverse_residual_tolerance, working_precision
from .errors import InputError, ParameterError, PrecisionInsufficientError
from .exponents import ExponentSequence
from . import completeness as _completeness
from .linalg import pencil_lambda_max
from .muntz_space import (
    MuntzSeries,
    SeriesOrCallable,
    recovered_coefficients,
)

# certificate item 7: a normality defect above this certifies "not normal"
_NORMALITY_DEFECT_MIN = 1e-12


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
    prefix = lam.prefix(N)
    with working_precision(256):
        u = tuple(mpf(rho) ** mpf(v) for v in prefix.values)
    return MuntzOperator(lam=prefix, u=u, rho=rho, truncation=N)


def apply_operator(op: MuntzOperator, f: SeriesOrCallable,
                   family: BiorthogonalFamily) -> MuntzSeries:
    """T f = sum_{n<=N} <f, r_n> u_n t^lambda_n as a finite series."""
    if family.truncation != op.truncation:
        raise InputError("operator and family truncations differ")
    coeffs = recovered_coefficients(f, family)
    with working_precision(family.precision_bits):
        scaled = tuple(c * u for c, u in zip(coeffs, op.u))
    return MuntzSeries(family.lam.prefix(op.truncation), scaled)


def _norm_enclosure(w: Sequence, family: BiorthogonalFamily):
    """(lower, estimate, upper) for ||M_w||: the root of lambda_max of (W^H G W, G)."""
    bits = family.precision_bits
    G = family.gram.entries
    with working_precision(bits):
        A = [[conj(a) * g * b for g, b in zip(row, w)] for a, row in zip(w, G)]
        return tuple(sqrt(v) for v in pencil_lambda_max(A, G, family.inverse_rows, bits,
                                                        family.inverse_doubles))


def normality_defect(op: MuntzOperator, family: BiorthogonalFamily):
    """Frobenius norm of M M* - M* M for M = M_u; zero iff M is normal.

    With M = L^T U L^(-T), M M* = L^T U C U* L and M* M = L^-1 U* G U L^-T,
    so ||[M, M*]||_F^2 = 2 tr((C U* G U)^2) - 2 tr(U^2 C U*^2 G) from G,
    C and u alone.  A 1 x 1 matrix commutes with its adjoint.
    """
    N = op.truncation
    if family.truncation != N:
        raise InputError("operator and family truncations differ")
    if N < 2:
        return mpf(0)
    G, C = family.gram.entries, family.inverse_rows
    with working_precision(family.precision_bits):
        u = [mp.mpmathify(v) for v in op.u]
        ub = [conj(v) for v in u]
        CU = [[c * v for c, v in zip(row, ub)] for row in C]
        GU_cols = [[G[k][j] * u[j] for k in range(N)] for j in range(N)]
        K = [[mp.fdot(row, col) for col in GU_cols] for row in CU]
        t1 = mp.fsum(K[i][j] * K[j][i] for i in range(N) for j in range(N))
        t2 = mp.fsum(u[i] ** 2 * C[i][j] * ub[j] ** 2 * G[j][i] for i in range(N) for j in range(N))
        return sqrt(max(2 * mp.re(t1 - t2), 0))


def _tail_enclosure(op: MuntzOperator, family: BiorthogonalFamily, m: int):
    """(lower, estimate, upper) for ||T - T_m||, zero at m = N."""
    N = op.truncation
    if not 0 <= m <= N:
        raise InputError(f"m={m} outside 0..{N}")
    if m == N:
        return (mpf(0),) * 3
    return _norm_enclosure([0] * m + list(op.u[m:]), family)


def _envelope_bounds(op: MuntzOperator, family: BiorthogonalFamily):
    """m_fit * sum_{n>m} ((rho+1)/2)^lambda_n for m = 0..N, m_fit fitted at
    eps = (1-rho)/(2 rho), the choice that turns (1+eps) rho into (rho+1)/2."""
    N = op.truncation
    with working_precision(family.precision_bits):
        growth = norm_growth_check(family, min((1 - op.rho) / (2 * op.rho), 1 - 1e-12))
        envelope_base = (mpf(op.rho) + 1) / 2
        terms = [envelope_base ** mpf(v) for v in op.lam.values[:N]]
        return [growth.m_fit * sum(terms[m:]) for m in range(N + 1)]


def finite_rank_error(op: MuntzOperator, family: BiorthogonalFamily, m: int):
    """(computed, bound) for ||T - T_m||: the estimate inside the certified
    enclosure of the tail M_w, w = (0..0, u_{m+1}..u_N), and its envelope."""
    _, computed, _ = _tail_enclosure(op, family, m)
    return computed, _envelope_bounds(op, family)[m]


# ---------------------------------------------------------------------------
# certificate


@dataclass(frozen=True)
class CertificateItem:
    name: str
    passed: Optional[bool]         # None marks an inconclusive sub-check
    value: object
    tolerance: object = None       # the threshold the value is held to
    detail: str = ""


@dataclass(frozen=True)
class SynthesisCertificate:
    """Aggregated pass/fail record for the seven operator properties.

    status is "pass" when every item passed, "fail" when one failed, and
    otherwise "inconclusive": a sub-check could not be certified at the
    family's precision (a step limit alone never does that).  Item 8, the
    certified floor of sigma_min over all 2^N mixed systems (hereditary
    completeness), is the structural input that makes synthesis equivalent
    to the spectral data in the first seven.
    """

    items: tuple
    status: str
    spectrum: tuple
    eigen_residual: object
    adjoint_residual: object
    kernel_min_singular: object
    normality_defect: object
    finite_rank_errors: tuple
    finite_rank_enclosures: tuple
    simplicity_flag: bool

    def item(self, name: str) -> CertificateItem:
        for it in self.items:
            if it.name == name:
                return it
        raise KeyError(name)


def _verdict(proved: bool, refuted: bool) -> Optional[bool]:
    """True when certified, False when certified false, None (inconclusive) otherwise."""
    return True if proved else (False if refuted else None)


def synthesis_certificate(op: MuntzOperator, family: BiorthogonalFamily) -> SynthesisCertificate:
    """Evaluate the seven certificate items plus the mixed-system floor.

    Items: (1) finite-rank approximation errors decay under the envelope,
    (2) T e_k = u_k e_k, (3) the adjoint identities <T e_j, r_k> = u_k
    delta_jk, (4) kernel triviality via the smallest singular value of the
    orthonormal representation, (5) spectrum report {0} union {u_k},
    (6) simplicity (distinct eigenvalues), (7) positive normality defect,
    (8) invertibility of every mixed system at this truncation.

    Items 1 and 4 decide on certified ends (finite_rank_enclosures).  Item 1
    passes when every tail's upper end is at most its envelope, a closed
    form that falls to 0 at m = N, and fails when a lower end lies above
    it; whether the tails decrease is read from the enclosures, not
    judged.  M is similar to diag(u) with no u_n zero, so item 4 passes
    when the lower end of sigma_min(M), the item value, is positive: it
    never fails, and is open only when the pencil certificate raises.
    Items 2 and 3 are certified bounds (eigen_residual, adjoint_residual)
    from the family's biorthogonality bound, in O(N): each item passes
    below inverse_residual_tolerance(bits) = 10^(-bits/8), the target
    dual_family certifies G*M - I against, and is open above it, never
    failed by rounding.  Item 7 passes when the normality defect exceeds
    1e-12.
    Item 8 (named mixed_system_sample) covers all 2^N partitions with one
    completeness.mixed_system_floor call: by interlacing, sigma_min of
    every mixed system is at least sqrt(lambda_min(diag(G, G^-1))), and the
    item passes when the certified lower end of that floor, the item value,
    is positive.
    """
    N = op.truncation
    bits = family.precision_bits
    items = []

    def add(name, passed, value, tol=None, detail=""):
        items.append(CertificateItem(name, passed, value, tol, detail))

    # 1. finite-rank errors, each norm enclosed; the tail at m = N is zero
    try:
        bounds = _envelope_bounds(op, family)
        lo, est, hi = zip(*(_tail_enclosure(op, family, m) for m in range(N + 1)))
        fr = tuple(zip(range(N + 1), est, bounds))
        fr_enclosures = tuple(zip(range(N + 1), lo, hi))
        # the envelope falls to 0 at m = N, so tails under it decay; they need
        # not decrease (at rho = 0.8 on squares, N = 10, they grow from m = 0
        # to m = 3), and compactness does not ask them to
        add("finite_rank_decay", _verdict(all(h <= b for h, b in zip(hi, bounds)),
                                          any(v > b for v, b in zip(lo, bounds))), fr,
            detail="every tail under the envelope, which is zero at m=N")
    except PrecisionInsufficientError as exc:
        add("finite_rank_decay", None, str(exc))
        fr = fr_enclosures = ()

    # 2 and 3 from the family's certified bound e on B - I, B_jn = <e_j, r_n>
    # = (G C)_jn, and ||e_n|| = w_n = (2 lambda_n + 1)^(-1/2):
    # ||T e_k - u_k e_k|| = ||sum_n (B - I)_kn u_n e_n|| <= e sum_n |u_n| w_n and
    # |<T e_j, r_k> - u_k delta_jk| = |sum_n u_n B_jn B_nk - u_k delta_jk|
    # <= (2e + N e^2) max|u|; each raised by (N + 8) eps for its own rounding.
    # An item passes when its bound is below tolerance and is open otherwise:
    # the relations hold for the exact family, so rounding never fails one
    with working_precision(bits):
        e, up = family.biorthogonality_residual, 1 + (N + 8) * mp.eps
        us = [abs(mp.mpmathify(u)) for u in op.u]
        w = [1 / sqrt(2 * mpf(v) + 1) for v in family.lam.values[:N]]
        eig_res = e * mp.fsum(a * b for a, b in zip(us, w)) * up
        adj_res = (2 * e + N * e * e) * max(us) * up
    relation_tol = inverse_residual_tolerance(bits)
    add("eigen_relations", _verdict(eig_res < relation_tol, False), eig_res, relation_tol)
    add("adjoint_relations", _verdict(adj_res < relation_tol, False), adj_res, relation_tol)

    # 4. kernel triviality: sigma_min(M) = 1/||M^-1||, M^-1 = M_w for w = 1/u.
    # M is similar to diag(u) with every u_n non-zero, so a positive lower
    # end proves the kernel trivial; however small, it is conditioning
    try:
        with working_precision(bits):
            inverse_u = [1 / mp.mpmathify(u) for u in op.u]
            _, inverse_est, inverse_upper = _norm_enclosure(inverse_u, family)
            sigma_lower, kernel_sigma = 1 / inverse_upper, 1 / inverse_est
        add("kernel_trivial", _verdict(sigma_lower > 0, False), sigma_lower, 0)
    except PrecisionInsufficientError as exc:
        kernel_sigma = None
        add("kernel_trivial", None, str(exc))

    # 5. item 2's relations T e_k = u_k e_k on the N monomials that span the
    # truncation leave no room for another eigenvalue.  6. simplicity
    with working_precision(bits):
        us = [mpc(u) for u in op.u]
        spectrum = tuple([mpc(0)] + us)
        dist = min(abs(a - b) for i, a in enumerate(us) for b in us[i + 1:]) if N > 1 else mpf(1)
        simple = bool(dist > 0) and all(v != 0 for v in us)
    add("spectrum", items[1].passed, tuple(op.u),
        detail="the eigen relations of item 2 on an N-dimensional span give the eigenvalues u")
    add("simple_eigenvalues", simple, dist)

    # 7. non-normality
    defect = normality_defect(op, family)
    add("not_normal", defect > _NORMALITY_DEFECT_MIN if N >= 2 else None, defect,
        _NORMALITY_DEFECT_MIN,
        detail="non-orthogonal eigenvectors force a positive commutator norm")

    # 8. every mixed system at once (hereditary completeness input): the
    # interlacing floor sigma_min >= sqrt(lambda_min(diag(G, G^-1)))
    try:
        _, floor_lower, _ = _completeness.mixed_system_floor(family)
        add("mixed_system_sample", _verdict(floor_lower > 0, False), floor_lower, 0,
            detail=f"all {2 ** N} partitions, certified lower end of the interlacing "
                   "floor on sigma_min reported")
    except PrecisionInsufficientError as exc:
        add("mixed_system_sample", None, str(exc))

    verdicts = [it.passed for it in items]
    status = "fail" if False in verdicts else "inconclusive" if None in verdicts else "pass"

    return SynthesisCertificate(
        items=tuple(items),
        status=status,
        spectrum=spectrum,
        eigen_residual=eig_res,
        adjoint_residual=adj_res,
        kernel_min_singular=kernel_sigma,
        normality_defect=defect,
        finite_rank_errors=fr,
        finite_rank_enclosures=fr_enclosures,
        simplicity_flag=bool(simple),
    )
