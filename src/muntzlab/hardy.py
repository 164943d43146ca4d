"""Membership tests for the gap Hardy subspace over integer exponents.

For integer exponent sets the monomials are entire, the series is an
ordinary power series with gaps, and membership in the Hardy subspace is
equivalent to square-summable coefficients together with membership in
the closed monomial span.  Numerical evidence alone cannot certify an
infinite sum's convergence or divergence, so yes/no verdicts require a
comparison certificate carried by the coefficient rule (p-series or
geometric); everything else is reported as inconclusive with the partial
sums attached.

The built-in counterexample family c_n = n^(-1/2) on lambda = n^2 has a
divergent coefficient square-sum while its L2(0,1) quadratic form stays
bounded; the latter is certified only empirically (bounded, Cauchy
partial sums), which is exactly what quadratic_form_partial_sums reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from mpmath import mp, mpc, mpf, sqrt

from .biorthogonal import BiorthogonalFamily, dual_family
from .config import working_precision
from .errors import DomainError, InputError
from .exponents import ExponentSequence
from .gram import gram_form
from .muntz_space import (MuntzSeries, SeriesOrCallable, _coefficient_at, distance_to,
                          dual_pairings, moments_and_norm2)

# closure_membership_via_frame: a final projection residual at most this
# (relative to the coefficients' size) counts as in the span, and a
# trailing residual ratio at least _STAGNATION_RATIO as stagnant
_CLOSURE_RESIDUAL = 1e-10
_STAGNATION_RATIO = 0.8


@dataclass(frozen=True)
class HardyReport:
    """Tri-state membership verdict with the evidence that produced it."""

    member: str                                  # yes | no | inconclusive
    l2_coeff_sums: tuple = ()                    # ((K, partial sum), ...)
    coefficient_certificate: Optional[str] = None
    closure_flag: Optional[str] = None           # yes | no | inconclusive
    residual_trend: tuple = ()                   # ((N, residual), ...)
    recovered: tuple = ()
    notes: str = ""


def _require_integer_lambda(lam: ExponentSequence):
    if not lam.all_integer:
        raise DomainError("gap Hardy membership is defined for integer exponents only")


def checkpoints(K: int) -> list:
    """The reported prefix lengths K/8, K/4, K/2 and K, each at least 1."""
    return sorted({max(1, K // 8), max(1, K // 4), max(1, K // 2), K})


def _coefficient_partial_sums(f: MuntzSeries, K: int):
    """((k, sum_{n<=k} |c_n|^2), ...) at the checkpoints of K: the stored
    coefficients of f first, then its rule."""
    ks = checkpoints(K)
    sums = []
    acc = mpf(0)
    for n in range(1, K + 1):
        acc += abs(mpc(_coefficient_at(f, n))) ** 2
        if n in ks:
            sums.append((n, acc))
    return tuple(sums)


def h2_membership(f: MuntzSeries, K: int = 1000) -> HardyReport:
    """Decide square-summability of the coefficients at term budget K.

    Finite series are members outright.  Rule-based series are decided by
    the rule's comparison certificate; without one the verdict is
    inconclusive and the partial sums are the whole report.
    """
    _require_integer_lambda(f.lam)
    budget = K if f.rule is not None and f.lam.extendable else min(K, f.n_terms)
    with working_precision(128):
        sums = _coefficient_partial_sums(f, budget)
    if f.finite:
        return HardyReport(member="yes", l2_coeff_sums=sums,
                           coefficient_certificate="finite sum")
    cert = f.rule.l2_class
    member = {"convergent": "yes", "divergent": "no"}.get(cert, "inconclusive")
    if member == "inconclusive":
        note = "no comparison certificate on the rule; partial sums only"
    else:
        note = f"rule {f.rule.name}{f.rule.params} certifies a {cert} square-sum"
    return HardyReport(member=member, l2_coeff_sums=sums,
                       coefficient_certificate=cert, notes=note)


def closure_membership_via_frame(f: SeriesOrCallable, family: BiorthogonalFamily) -> HardyReport:
    """Desk-scale realization of the two-sided membership criterion.

    (a) projection residuals over growing truncations decide closeness to
    the span; (b) the recovered dual pairings supply the coefficient
    square-sums.  "yes" needs the final residual at most _CLOSURE_RESIDUAL
    times max(1, sqrt of the coefficient square-sum) and decaying
    square-sum increments; a stagnating residual (trailing ratio at or
    above _STAGNATION_RATIO) is the desk signature of a positive distance
    and yields "no"; anything in between stays inconclusive.
    """
    _require_integer_lambda(family.lam)
    N = family.truncation
    bits = family.precision_bits

    # moments and the target norm are computed once; each sub-truncation
    # pairs the prefix of the moment vector with its own Gram inverse, and
    # the last step (Ns = N) leaves the family's pairings in coeffs
    b, norm2 = moments_and_norm2(f, family.lam, N, bits)
    trend = []
    steps = sorted({max(2, N - 6), max(2, N - 4), max(2, N - 2), N})
    for Ns in steps:
        fam_s = family if Ns == N else dual_family(family.lam, Ns, bits)
        coeffs = dual_pairings(fam_s, b)
        with working_precision(bits):
            trend.append((Ns, distance_to(f, fam_s.lam.values, coeffs, b, norm2)))

    with working_precision(bits):
        sums = []
        acc = mpf(0)
        for n, c in enumerate(coeffs, start=1):
            acc += abs(mpc(c)) ** 2
            sums.append((n, acc))
        scale = max(mpf(1), sqrt(acc))

    res_final = trend[-1][1]
    if res_final <= mpf(_CLOSURE_RESIDUAL) * scale:
        closure = "yes"
    elif (len(trend) >= 2 and trend[-2][1] > 0
          and res_final / trend[-2][1] >= mpf(_STAGNATION_RATIO)):
        closure = "no"
    else:
        closure = "inconclusive"

    if closure == "yes":
        # decaying square-sum increments are the desk evidence for (b)
        half = sums[len(sums) // 2][1]
        tail_growth = acc - half
        member = "yes" if tail_growth <= max(half, mpf(1)) else "inconclusive"
    elif closure == "no":
        member = "no"
    else:
        member = "inconclusive"

    return HardyReport(member=member, l2_coeff_sums=tuple(sums[-4:]),
                       closure_flag=closure, residual_trend=tuple(trend),
                       recovered=tuple(coeffs))


@dataclass(frozen=True)
class RadialBoundReport:
    """bound_M is theta-independent by construction.  numeric_integral is the
    closed-form integral of |f(t e^(i theta))|^2 over [0, 1 - boundary_cut]
    and quad_error its certified truncation-plus-rounding bound, so the full
    integral over [0, 1] is at most numeric_integral + quad_error +
    remainder_bound (the Cauchy-Schwarz sliver bound); the radial inequality
    says this never exceeds bound_M."""

    bound_M: object
    numeric_integral: object
    remainder_bound: object
    boundary_cut: float
    quad_error: object


def _sliver_integral_bound(lam: ExponentSequence, h):
    """Bound on the integral over (1-h, 1) of sum_n t^(2 lambda_n) dt.

    power kind: the exponent sum is below 1 + Gamma(1+1/p) (2 ln(1/t))^(-1/p)
    and ln(1/t) >= 1-t gives an integrable envelope; lacunary kind: at most
    log_q(1/(2(1-t))) + 1.582 terms matter.  None for other kinds.
    """
    if lam.kind == "power":
        p = mpf(lam.params["p"])
        return h + mp.gamma(1 + 1 / p) * 2 ** (-1 / p) * h ** (1 - 1 / p) / (1 - 1 / p)
    if lam.kind == "lacunary":
        q = mpf(lam.params["q"])
        return h * (mp.log(1 / (2 * h)) / mp.log(q) + 1 / mp.log(q) + mpf("1.582"))
    return None


# h: the closed-form radial integral stops at t = 1 - h, and the sliver bound covers the rest
_BOUNDARY_CUT = 1e-3


def radial_l2_bound(f: MuntzSeries, theta: float, K: int = 200,
                    precision_bits: int = 256) -> RadialBoundReport:
    """Certified bound M and the closed-form radial L2 integral.

    M = (sum_{n<=K} |c_n|^2 + coefficient tail) * (sum_{n<=K} 1/(2 lambda_n+1)
    + reciprocal tail); both tails must be certified (rule comparison and
    exponent-kind bound), and M does not involve theta.

    With a = 1 - _BOUNDARY_CUT and v_n = c_n e^(i theta lambda_n) a^(lambda_n+1/2),
    the integral of |sum_{n<=P} c_n (t e^(i theta))^lambda_n|^2 over [0, a]
    is the Gram form sum_{n,m<=P} v_n conj(v_m) / (lambda_n + lambda_m + 1),
    over a prefix long enough that t^lambda at the cut is ~ exp(-60).
    quad_error bounds its distance to the integral of the whole series over
    [0, a]: the form's rounding at the working precision, plus
    2 sqrt(I) ||T|| + ||T||^2 for the dropped tail T, where Minkowski and
    Cauchy-Schwarz give ||T||^2 <= sum_{n>P} |c_n|^2 *
    sum_{n>P} a^(2 lambda_n+1) / (2 lambda_n+1) and the second sum is
    bounded geometrically through the exponent gap.  The sliver up to
    t = 1 is covered by the closed-form remainder bound.  Finite series
    are plain sums, so they integrate over the whole interval with no tail
    and zero remainder.
    """
    _require_integer_lambda(f.lam)
    if f.finite and not any(c != 0 for c in f.coeffs):
        return RadialBoundReport(mpf(0), mpf(0), mpf(0), 0.0, mpf(0))

    with working_precision(precision_bits):
        if f.finite:
            Kc = f.n_terms
            coeff_tail = mpf(0)
        else:
            Kc = K
            coeff_tail = f.rule.l2_tail_bound(K)
            if coeff_tail is None:
                raise InputError(
                    "rule carries no convergent-tail certificate; the radial bound "
                    "needs established membership")
            if not f.lam.extendable:
                raise InputError(
                    f"exponent kind {f.lam.kind!r} has no reciprocal-tail bound")
        h = mpf(_BOUNDARY_CUT)
        # prefix long enough that t^lambda at the cut is ~ exp(-60)
        if f.finite:
            need = Kc
        else:
            need = max(Kc, K)
            if f.lam.kind == "power":
                p = float(f.lam.params["p"])
                need = max(need, min(4096, int((60 / float(h)) ** (1 / p)) + 2))
            elif f.lam.kind == "lacunary":
                q = float(f.lam.params["q"])
                need = max(need, int(float(mp.log(60 / h) / mp.log(q))) + 2)
        lam = f.lam if len(f.lam) >= need else f.lam.extended(need)
        f_eval = f if lam is f.lam else MuntzSeries(lam, f.coeffs, f.rule)
        K_recip = min(K, len(lam))
        coeff_sum = sum(abs(mpc(f_eval.coefficient(n))) ** 2 for n in range(1, Kc + 1))
        recip_sum = sum(1 / (2 * mpf(lam.values[n - 1]) + 1) for n in range(1, K_recip + 1))
        recip_tail = lam.tail_reciprocal_bound(K_recip)
        if recip_tail is None:
            if f.finite and f.n_terms <= K_recip:
                recip_tail = mpf(0)
            else:
                raise InputError(
                    f"exponent kind {lam.kind!r} has no reciprocal-tail bound")
        bound_M = (coeff_sum + coeff_tail) * (recip_sum + recip_tail)

        if f.finite:
            a = mpf(1)
            remainder = mpf(0)
        else:
            a = 1 - h
            sliver = _sliver_integral_bound(lam, h)
            remainder = None if sliver is None else (coeff_sum + coeff_tail) * sliver

        P = max(need, len(f.coeffs))
        lams = lam.values[:P]
        th, root_a = mpf(theta), sqrt(a)
        vs = [mpc(f_eval.coefficient(n)) * mp.expj(th * v) * a ** v * root_a
              for n, v in enumerate(lams, start=1)]
        # c_n, a^(lambda_n + 1/2) and the phase take a few roundings each, and
        # the phase argument theta * lambda_n is off by at most |theta| lambda_n ulps
        rel_err = mp.eps * (16 + abs(th) * lams[-1])
        integral, err = gram_form(lams, vs, rel_err)
        if not f.finite:
            # lambda_n >= lambda_P + (n - P) gap: the gaps of both kinds grow
            lam_next = mpf(lams[-1]) + lam.gap
            mono_tail = a ** (2 * lam_next + 1) / ((2 * lam_next + 1) * (1 - a ** (2 * lam.gap)))
            tail = sqrt(f.rule.l2_tail_bound(P) * mono_tail)
            err += 2 * sqrt(integral + err) * tail + tail ** 2
        return RadialBoundReport(bound_M, integral, remainder,
                                 0.0 if f.finite else _BOUNDARY_CUT, err)


def quadratic_form_partial_sums(rule, lam: ExponentSequence, checkpoints: Sequence[int]):
    """Float64 oracle for the L2 quadratic form of a rule-generated prefix.

    Returns [(K, S_K), ...] with S_K = sum_{n,m<=K} c_n c_m / (lambda_n +
    lambda_m + 1), computed incrementally.  Used to exhibit bounded Cauchy
    partial sums for series (like c_n = n^(-1/2) on squares) whose
    coefficient square-sum diverges.
    """
    import numpy as np

    checkpoints = sorted(set(int(k) for k in checkpoints))
    K = checkpoints[-1]
    if len(lam) < K:
        lam = lam.extended(K)
    lams = np.array([float(v) for v in lam.values[:K]])
    cs = np.array([float(np.real(rule.coefficient(n))) for n in range(1, K + 1)])
    out = []
    S = 0.0
    for k in range(1, K + 1):
        lk, ck = lams[k - 1], cs[k - 1]
        if k > 1:
            S += 2.0 * ck * float(np.sum(cs[: k - 1] / (lams[: k - 1] + lk + 1.0)))
        S += ck * ck / (2.0 * lk + 1.0)
        if k in checkpoints:
            out.append((k, S))
    return out
