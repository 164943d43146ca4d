"""Muntz series on the slit disk: evaluation, inner products, projection.

A MuntzSeries pairs an exponent prefix with coefficients (stored, or
produced by a named rule).  Norms and inner products of series are the
exact Gram form gram.gram_form, for any int or mpf exponents, one term
list or two; quadrature only ever touches genuine black-box integrands.
Coefficient recovery against a dual family is organised as moments-first:
the moment vector b_k = <f, e_k> is computed once (analytically or by
quadrature) and every dual pairing <f, r_n> is an exact linear combination
of it, so the huge alternating dual coefficients cancel inside
working-precision sums instead of inside an oscillatory integral.

For a black box f, every integral that shares the factor f(t) (the whole
moment vector, ||f||^2, the moments behind <f, f*>) runs in one panelled
tanh-sinh pass that calls f once per node.  Each integral keeps mpmath's
own stopping rule per panel and escalates on its own, so its value and
error estimate are those of a separate mp.quad run, bit for bit.  An
escalation round re-sums the panels it shares with the round before from
the pass's table of f values and calls f only at the one degree it adds.
An integral is done when its summed error estimate meets 10^(-bits/8),
the target config.inverse_residual_tolerance sets for the closed forms,
so the precision asked for sets the quadrature target too.  project
hands its pass on with the series it returns, so
projection_residual(f, family, f_star) with the same f object and bits
integrates nothing.  Across calls only the node powers t^lambda are
cached (_NODE_POWERS, at most 4 MiB, least recently used out first),
never values of f: a black box may be impure, and every call integrates
it afresh.
"""

from __future__ import annotations

import math
import sys
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

from mpmath import conj, mp, mpc, mpf, sqrt

from .biorthogonal import BiorthogonalFamily
from .config import inverse_residual_tolerance, working_precision
from .errors import (
    ConvergenceError,
    DomainError,
    InputError,
    NonMemberSignal,
    ParameterError,
    QuadratureError,
)
from .exponents import ExponentSequence
from .gram import gram_form


# ---------------------------------------------------------------------------
# coefficient rules


@dataclass(frozen=True)
class CoefficientRule:
    """Named coefficient generator with comparison certificates.

    l2_class records what is *provable* about sum |c_n|^2 from the rule's
    closed form: "convergent", "divergent", or None (no certificate).
    """

    name: str
    params: dict
    fn: Callable[[int], complex]
    l2_class: Optional[str] = None

    def coefficient(self, n: int):
        if n < 1:
            raise InputError(f"rule index must be >= 1, got {n}")
        return self.fn(n)

    def sup_bound(self, n0: int):
        """Upper bound on sup_{n >= n0} |c_n|, or None if not monotone."""
        if self.name == "power":
            alpha, scale = self.params["alpha"], abs(self.params["scale"])
            if alpha >= 0:
                return scale * mpf(n0) ** mpf(-alpha)
            return None
        if self.name == "geometric":
            ratio, scale = abs(self.params["ratio"]), abs(self.params["scale"])
            return scale * mpf(ratio) ** n0
        if self.name == "unit":
            return mpf(1)
        return None

    def l2_tail_bound(self, K: int):
        """Bound on sum_{n>K} |c_n|^2 when the rule certifies convergence."""
        if self.l2_class != "convergent":
            return None
        if self.name == "power":
            alpha, scale = mpf(self.params["alpha"]), mpf(abs(self.params["scale"]))
            return scale ** 2 * mpf(K) ** (1 - 2 * alpha) / (2 * alpha - 1)
        if self.name == "geometric":
            r, scale = mpf(abs(self.params["ratio"])), mpf(abs(self.params["scale"]))
            return scale ** 2 * r ** (2 * (K + 1)) / (1 - r ** 2)
        return None


def power_rule(alpha: float, scale: float = 1.0) -> CoefficientRule:
    """c_n = scale * n^(-alpha); p-series comparison decides the l2 class.

    Coefficients are mpf at the caller's working precision; an integer
    alpha takes the cheaper integer power.
    """
    a, s = float(alpha), float(scale)
    l2 = "convergent" if a > 0.5 else "divergent"
    e = -int(a) if a.is_integer() else mpf(-a)
    return CoefficientRule("power", {"alpha": a, "scale": s},
                           lambda n, e=e, s=s: s * mpf(n) ** e, l2)


def geometric_rule(ratio: float, scale: float = 1.0) -> CoefficientRule:
    """c_n = scale * ratio^n, as mpf at the caller's working precision."""
    if not 0 < abs(ratio) < 1:
        raise ParameterError(f"geometric rule needs 0 < |ratio| < 1, got {ratio}")
    r, s = float(ratio), float(scale)
    return CoefficientRule("geometric", {"ratio": r, "scale": s},
                           lambda n, r=mpf(r), s=s: s * r ** n, "convergent")


NAMED_RULES = {
    "inv_n": lambda: power_rule(1.0),
    "inv_sqrt_n": lambda: power_rule(0.5),
    "unit": lambda: CoefficientRule("unit", {}, lambda n: 1.0, "divergent"),
}


def rule_from_name(name: str, **params) -> CoefficientRule:
    if name in NAMED_RULES:
        return NAMED_RULES[name]()
    if name == "power":
        return power_rule(**params)
    if name == "geometric":
        return geometric_rule(**params)
    raise ParameterError(f"unknown coefficient rule {name!r}")


# ---------------------------------------------------------------------------
# series


@dataclass(frozen=True)
class MuntzSeries:
    """A series sum_n c_n t^lambda_n over a stored exponent prefix.

    coeffs holds explicitly stored coefficients; when a rule is present it
    supplies c_n for every index up to the exponent prefix length, and the
    series is treated as a (prefix of an) infinite object.
    """

    lam: ExponentSequence
    coeffs: tuple = ()
    rule: Optional[CoefficientRule] = None
    # project's quadrature pass of a black box, for projection_residual
    _pass: Optional["_QuadPass"] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.coeffs) > len(self.lam):
            raise InputError(f"{len(self.coeffs)} coefficients but only {len(self.lam)} exponents")
        if not self.coeffs and self.rule is None:
            raise InputError("series needs stored coefficients or a rule")

    @property
    def finite(self) -> bool:
        return self.rule is None

    @property
    def n_terms(self) -> int:
        return len(self.coeffs) if self.finite else len(self.lam)

    def coefficient(self, n: int):
        """c_n, 1-based, within the exponent prefix of a rule series."""
        if self.rule is not None and n > len(self.lam):
            raise InputError(f"coefficient index {n} beyond exponent prefix {len(self.lam)}")
        return _coefficient_at(self, n)

    def term_items(self):
        """(lambda_n, c_n) pairs over the usable prefix."""
        return [(self.lam.values[n - 1], self.coefficient(n)) for n in range(1, self.n_terms + 1)]


def _coefficient_at(f: MuntzSeries, n: int):
    """c_n at any n >= 1: the stored prefix first, then the rule (0 past a
    finite series)."""
    if n <= len(f.coeffs):
        return f.coeffs[n - 1]
    return 0 if f.rule is None else f.rule.coefficient(n)


def finite_series(lam: ExponentSequence, coeffs: Sequence) -> MuntzSeries:
    return MuntzSeries(lam, tuple(coeffs))


SeriesOrCallable = Union[MuntzSeries, Callable]


# ---------------------------------------------------------------------------
# slit-disk evaluation


def check_slit_point(z, lam: ExponentSequence, finite: bool = True):
    """Reject points outside the disk or on the slit (-1, 0).

    Convergence of an infinite series is only guaranteed strictly inside
    the disk; a finite Muntz polynomial is a plain sum, so the boundary
    |z| = 1 is admitted for it.  For all-integer exponent prefixes the
    powers are entire and negative reals are admitted too; z = 0 is always
    admitted (the series value there is 0 by continuity since every
    exponent is positive).
    """
    z = mpc(z)
    r = abs(z)
    if r > 1 or (r == 1 and not finite):
        raise DomainError(f"|z| = {mp.nstr(r, 8)} is outside the evaluation domain")
    if z.imag == 0 and z.real < 0 and not lam.all_integer:
        raise DomainError(f"z = {mp.nstr(z.real, 8)} lies on the slit (-1, 0)")
    return z


def _power(z, lam_val):
    if lam_val == int(lam_val):
        return z ** int(lam_val)
    return mp.power(z, mpf(lam_val))  # principal branch, argument in (-pi, pi)


def evaluate(f: MuntzSeries, z, tol: float = 1e-30, precision_bits: int = 256):
    """Evaluate the series at a slit-disk point by bounded partial sums.

    Finite series are summed exactly.  Rule-based series accumulate terms
    until the geometric tail bound (coefficient sup bound times
    r^lambda / (1 - r^gap), using the uniform exponent gap) drops below
    ``tol``; if the stored prefix is too short for that, a
    ConvergenceError says so rather than returning an unbounded guess.
    """
    with working_precision(precision_bits):
        z = check_slit_point(z, f.lam, finite=f.finite)
        if z == 0:
            return mpc(0)
        r = abs(z)
        acc = mpc(0)
        n_terms = f.n_terms
        for n in range(1, n_terms + 1):
            acc += f.coefficient(n) * _power(z, f.lam.values[n - 1])
            if f.rule is not None and n < n_terms:
                bound = _tail_bound_at(f, n + 1, r)
                if bound is not None and bound < mpf(tol):
                    return acc
        if f.finite:
            return acc
        bound = _tail_bound_at(f, n_terms + 1, r, extrapolate=True)
        if bound is None or not bound < mpf(tol):
            shown = "unknown" if bound is None else mp.nstr(bound, 5)
            raise ConvergenceError(
                f"tail bound {shown} after {n_terms} terms exceeds tol={tol}; "
                "extend the exponent prefix or relax tol")
        return acc


def _tail_bound_at(f: MuntzSeries, n_next: int, r, extrapolate: bool = False):
    """Bound sum_{n >= n_next} |c_n| r^lambda_n via sup|c| and the gap."""
    sup = f.rule.sup_bound(n_next)
    if sup is None:
        return None
    gap = f.lam.gap
    if not gap > 0 or not mp.isfinite(gap):
        return None
    if extrapolate:
        lam_next = mpf(f.lam.values[-1]) + gap
    else:
        lam_next = mpf(f.lam.values[n_next - 1])
    return sup * r ** lam_next / (1 - r ** gap)


# ---------------------------------------------------------------------------
# exact inner products


def _terms(f: MuntzSeries):
    """(exponents, coefficients) over the usable prefix."""
    return list(f.lam.values[:f.n_terms]), [f.coefficient(n) for n in range(1, f.n_terms + 1)]


def l2_norm(f: MuntzSeries, precision_bits: int = 256):
    """Prefix L2 norm: the square root of the exact Gram form of its terms."""
    with working_precision(precision_bits):
        value, _ = gram_form(*_terms(f))
        return sqrt(value) if value > 0 else mpf(0)


def series_inner_product(f: MuntzSeries, g: MuntzSeries, precision_bits: int = 256):
    """<f, g> = integral of f * conj(g), by the exact Gram form of the two term lists."""
    with working_precision(precision_bits):
        return gram_form(*_terms(f), other=_terms(g))[0]


# ---------------------------------------------------------------------------
# adaptive panel quadrature on (0, 1)


# The panel ladder of _panel_quad.  Round one splits (0, 1) at ratio^j,
# j = 1..levels (panels refined toward t = 0, where integrands behave like
# t^lambda_1), and runs tanh-sinh to maxdegree on each panel; each of up to
# _QUAD_ROUNDS further rounds adds 4 levels and one degree.  Below degree 3
# tanh-sinh has no comparison level and reports a meaningless zero error.
_QUAD_LEVELS = 6
_QUAD_RATIO = 0.5
_QUAD_MAXDEGREE = 6
_QUAD_ROUNDS = 3


class _NodePowers:
    """t^lambda at the tanh-sinh nodes of one panel and degree, per exponent.

    An entry is keyed by mpmath's node-cache key (a, b, degree, prec) and
    the exponent.  get_nodes builds the nodes of a key at a fixed precision,
    and the powers are taken at prec + 20, so a key always names the same
    nodes and the same powers, bit for bit.  Each entry keeps the mantissas
    in a list and the binary exponents in an array('q'); once the estimated
    size would pass CAP bytes, the least recently used entries go.  Only
    powers of the nodes are kept, never values of a black box.
    """

    CAP = 1 << 22

    def __init__(self):
        self.entries = OrderedDict()
        self.size = 0

    def clear(self):
        self.entries.clear()
        self.size = 0

    def get(self, key, ts, exponent):
        """[_power(t, exponent) for t in ts], the nodes ts of key."""
        key = key + (exponent,)
        entry = self.entries.get(key)
        if entry is not None:
            self.entries.move_to_end(key)
            make = mp.make_mpf
            return [make((0, m, e, m.bit_length())) for m, e in zip(*entry[:2])]
        powers = [_power(t, exponent) for t in ts]
        self._store(key, powers)
        return powers

    def _store(self, key, powers):
        from array import array     # off the import path, which every CLI child pays

        parts = [p._mpf_ for p in powers]
        # signed or special values (inf, nan) would not rebuild from (man, exp)
        if any(s or bc != m.bit_length() for s, m, _, bc in parts):
            return
        mans = [m for _, m, _, _ in parts]
        try:
            exps = array("q", [e for _, _, e, _ in parts])
        except OverflowError:
            return
        size = sys.getsizeof(mans) + sys.getsizeof(exps) + sum(map(sys.getsizeof, mans))
        if size > self.CAP:
            return
        while self.size + size > self.CAP:
            self.size -= self.entries.popitem(last=False)[1][2]
        self.entries[key] = (mans, exps, size)
        self.size += size


_NODE_POWERS = _NodePowers()


class _Moment:
    """The part f(t) t^lambda of one moment; a panel takes t^lambda from _NODE_POWERS."""

    __slots__ = ("exponent",)

    def __init__(self, exponent):
        self.exponent = exponent

    def __call__(self, t, v):
        return v * _power(t, self.exponent)


def _part_values(part, key, ts, fs):
    """part(t, f(t)) at the nodes ts of key, given fs = f(t)."""
    if isinstance(part, _Moment):
        return [v * p for v, p in zip(fs, _NODE_POWERS.get(key, ts, part.exponent))]
    return [part(x, v) for x, v in zip(ts, fs)]


def _tanh_sinh_panel(f_at, parts, a, b, maxdegree):
    """mp.quad(lambda t: p(t, f(t)), [a, b], maxdegree) for every part p at once.

    Follows mpmath's TanhSinh.summation on one panel: degree d reuses the
    degree d-1 step sum and adds the new nodes from the rule's own node
    cache, and each part stops at the first degree whose estimate_error
    meets eps/8 at the working precision, with 20 guard bits.  f_at(key, ts)
    gives f at the nodes ts of the node-cache key (a, b, degree, prec); it
    is asked once per degree while any part still runs.  Returns one
    (value, error) per part, each value rounded to the working precision.
    """
    rule = mp._tanh_sinh    # the TanhSinh instance, and node cache, that mp.quad uses
    prec = mp.prec
    eps = mp.eps / 8
    sums = [[] for _ in parts]
    errs = [mpf(0)] * len(parts)
    running = range(len(parts))
    with mp.workprec(prec + 20):
        for degree in range(1, maxdegree + 1):
            if not running:
                break
            nodes = rule.get_nodes(a, b, degree, prec)
            key = (a, b, degree, prec)
            ts = [x for x, _ in nodes]
            ws = [w for _, w in nodes]
            fs = f_at(key, ts)
            h = mpf(2) ** -degree
            for k in running:
                S = sums[k][-1] / (h * 2) if sums[k] else mp.zero
                S += mp.fdot(ws, _part_values(parts[k], key, ts, fs))
                sums[k].append(h * S)
                if degree > 1:
                    errs[k] = rule.estimate_error(sums[k], prec, eps)
            if degree > 1:
                running = [k for k in running if not errs[k] <= eps]
    return [(+s[-1], err) for s, err in zip(sums, errs)]


def _panel_quad(f, parts, bits: int, optional: int = 0):
    """Integrate every part p(t, f(t)) over (0, 1) in one pass of f.

    Each part gets exactly the value and error estimate of its own
    quad_unit_interval call: the same panels, the same tanh-sinh rule and
    stopping rule, and the same escalation, which re-runs only the parts
    whose summed estimate is still above the target 10^(-bits/8) (the
    config.inverse_residual_tolerance of the bits).  The ladder is read
    from the _QUAD_* constants at call time.  f is called only through one
    table for this call, keyed by the node-cache key (a, b, degree, prec):
    a round keeps the previous round's panels [ratio^j, ratio^(j-1)] for
    j <= levels, re-sums their lower degrees from the table and calls f
    there only at the degree it adds.

    Returns one (value, error) per part.  The last ``optional`` parts only
    escalate alongside the others: one still above the target when the
    others are done comes back as None.  QuadratureError carries the first
    other part that never met the target.
    """
    table = {}

    def f_at(key, ts):
        fs = table.get(key)
        if fs is None:
            fs = table[key] = [f(x) for x in ts]
        return fs

    results = [None] * len(parts)
    todo = list(range(len(parts)))
    required = len(parts) - optional
    with working_precision(bits):
        tol = mpf(inverse_residual_tolerance(bits))
        ratio = mpf(_QUAD_RATIO)
        levels, degree = _QUAD_LEVELS, _QUAD_MAXDEGREE
        for _ in range(_QUAD_ROUNDS + 1):
            points = [mpf(0)] + [ratio ** j for j in range(levels, 0, -1)] + [mpf(1)]
            sums = [(mpc(0), mpf(0))] * len(todo)
            for a, b in zip(points[:-1], points[1:]):
                panel = _tanh_sinh_panel(f_at, [parts[k] for k in todo], a, b, degree)
                sums = [(total + v, err + abs(e)) for (total, err), (v, e) in zip(sums, panel)]
            failed = []
            for k, (total, err) in zip(todo, sums):
                results[k] = (total if total.imag != 0 else total.real), err
                if not err <= tol:
                    failed.append((k, total, err))
            if all(k >= required for k, _, _ in failed):
                for k, _, _ in failed:
                    results[k] = None
                return results
            todo = [k for k, _, _ in failed]
            levels += 4
            degree += 1
    _, total, err = failed[0]
    raise QuadratureError(f"quadrature error {mp.nstr(err, 5)} above tol={mp.nstr(tol, 5)}",
                          achieved=total)


def _moment_parts(exponents):
    """The parts f(t) t^lambda of the moments, one per exponent.

    t is a tanh-sinh node, already an mpf at the pass's precision.
    """
    return [_Moment(lv) for lv in exponents]


def _norm2_part(t, v):
    return abs(v) ** 2


def quad_unit_interval(integrand: Callable, precision_bits: int = 256):
    """Integrate over (0,1) with panelled tanh-sinh; returns (value, error)."""
    return _panel_quad(integrand, [lambda t, v: v], precision_bits)[0]


def quadrature_inner_product(f: SeriesOrCallable, g: MuntzSeries, precision_bits: int = 256):
    """<f, g> for black-box f against a finite series g.

    Realised as sum_k conj(c_k) * integral f(t) t^lambda_k dt: one smooth,
    well-scaled integral per monomial of g, all from one pass of f, so
    coefficient cancellation happens in exact sums rather than inside the
    integrand.  Returns (value, error_estimate).
    """
    if isinstance(f, MuntzSeries):
        return series_inner_product(f, g, precision_bits), mpf(0)
    with working_precision(precision_bits):
        items = [(lv, ck) for lv, ck in g.term_items() if ck != 0]
        moments = _panel_quad(f, _moment_parts([lv for lv, _ in items]), precision_bits)
        total = mpc(0)
        err = mpf(0)
        for (_, ck), (val, e) in zip(items, moments):
            total += conj(ck) * val
            err += abs(ck) * e
        return (total if total.imag != 0 else total.real), err


def _exponent_prefix(lam: ExponentSequence, N: int):
    if not 0 <= N <= len(lam):
        raise InputError(f"N={N} outside 0..{len(lam)} exponents")
    return lam.values[:N]


def monomial_moments(f: SeriesOrCallable, lam: ExponentSequence, N: int,
                     precision_bits: int = 256):
    """Moment vector b_k = <f, e_k> = integral f(t) t^lambda_k dt, k <= N.

    A black box f is integrated against every t^lambda_k in one pass.
    """
    exponents = _exponent_prefix(lam, N)
    with working_precision(precision_bits):
        if isinstance(f, MuntzSeries):
            items = f.term_items()
            return [sum(cj / (mpf(lj) + mpf(lv) + 1) for lj, cj in items) for lv in exponents]
        return [val for val, _ in _panel_quad(f, _moment_parts(exponents), precision_bits)]


def moments_and_norm2(f: SeriesOrCallable, lam: ExponentSequence, N: int,
                      precision_bits: int = 256):
    """(monomial_moments(f, lam, N), ||f||^2); a black box gives both from one pass.

    A series, whose distances are exact Gram forms, gets None for ||f||^2.
    """
    if isinstance(f, MuntzSeries):
        return monomial_moments(f, lam, N, precision_bits), None
    return _black_box_pass(f, lam, N, precision_bits)


def _black_box_pass(f, lam, N, bits, norm2_optional=False):
    """Moments of a black box f and ||f||^2 from one pass of f.

    With norm2_optional, an ||f||^2 still above the target when the moments
    are done comes back as None instead of raising QuadratureError.
    """
    parts = _moment_parts(_exponent_prefix(lam, N)) + [_norm2_part]
    *moments, norm2 = _panel_quad(f, parts, bits, optional=int(norm2_optional))
    return [val for val, _ in moments], None if norm2 is None else norm2[0]


class _QuadPass:
    """The moments and ||f||^2 of one pass of the black box f."""

    __slots__ = ("f", "bits", "moments", "norm2")

    def __init__(self, f, bits, moments, norm2):
        self.f, self.bits, self.moments, self.norm2 = f, bits, moments, norm2

    def serves(self, f, bits) -> bool:
        """Whether this pass is the one a call with f and bits would make."""
        return f is self.f and bits == self.bits


# ---------------------------------------------------------------------------
# coefficient recovery and projection


def dual_pairings(family: BiorthogonalFamily, b):
    """<f, r_n^(N)> = sum_k C_kn b_k, n <= N, from the moments b_k = <f, e_k>.

    C is the family's Gram inverse; only the first N moments of b enter.
    """
    C = family.inverse_rows
    N = family.truncation
    out = []
    with working_precision(family.precision_bits):
        for n in range(N):
            acc = mpc(0)
            for k in range(N):
                acc += C[k][n] * b[k]
            out.append(acc if acc.imag != 0 else acc.real)
    return out


def distance_to(f: SeriesOrCallable, lams, cs, b, norm2):
    """||f - sum_n c_n t^lambda_n||, at the working precision.

    For a series f, one exact Gram form over both term lists (no
    cancellation between separately rounded norms; b and norm2 unused).
    For a black box with moments b_n = <f, t^lambda_n> and norm2 = ||f||^2,
    norm2 - 2 Re sum_n conj(c_n) b_n + ||sum_n c_n t^lambda_n||^2.
    """
    if isinstance(f, MuntzSeries):
        lf, cf = _terms(f)
        res2, _ = gram_form(lf + list(lams), cf + [-c for c in cs])
    else:
        cross = sum((conj(c) * v).real for c, v in zip(cs, b))
        res2 = norm2 - 2 * cross + gram_form(lams, cs)[0]
    return sqrt(res2) if res2 > 0 else mpf(0)


def recovered_coefficients(f: SeriesOrCallable, family: BiorthogonalFamily):
    """All dual pairings <f, r_n^(N)>, n = 1..N, moments computed once."""
    b = monomial_moments(f, family.lam, family.truncation, family.precision_bits)
    return dual_pairings(family, b)


def coefficient_recover(f: SeriesOrCallable, family: BiorthogonalFamily, n: int):
    """Single dual pairing <f, r_n^(N)> (1-based n)."""
    if not 1 <= n <= family.truncation:
        raise InputError(f"n={n} outside 1..{family.truncation}")
    return recovered_coefficients(f, family)[n - 1]


def project(f: SeriesOrCallable, family: BiorthogonalFamily) -> MuntzSeries:
    """Associated series f* = sum_n <f, r_n^(N)> t^lambda_n.

    This is the orthogonal projection onto the truncated span: its
    coefficients coincide with the solution of the Gram normal equations
    G a = b, which tests verify independently.

    For a black box f, the moments and ||f||^2 come from one pass, which
    the returned series carries (outside its comparisons) so that
    projection_residual(f, family, f_star) with this same f object and bit
    count does not integrate again.  An ||f||^2 that has not
    settled when the moments have is not carried.
    """
    lam = family.lam.prefix(family.truncation)
    if isinstance(f, MuntzSeries):
        return MuntzSeries(lam, tuple(recovered_coefficients(f, family)))
    bits = family.precision_bits
    b, norm2 = _black_box_pass(f, family.lam, family.truncation, bits, norm2_optional=True)
    f_star = MuntzSeries(lam, tuple(dual_pairings(family, b)))
    if norm2 is not None:
        object.__setattr__(f_star, "_pass", _QuadPass(f, bits, tuple(b), norm2))
    return f_star


def projection_residual(f: SeriesOrCallable, family: BiorthogonalFamily,
                        f_star: Optional[MuntzSeries] = None):
    """L2 distance_to(f, f*) from f to the truncated span.

    Without f_star, f* comes from the moments of one moments_and_norm2 pass.
    With an f_star that project made from this same black box f and bit
    count, the pass it carries is used and f is not called.
    """
    bits = family.precision_bits
    with working_precision(bits):
        if f_star is None:
            b, norm2 = moments_and_norm2(f, family.lam, family.truncation, bits)
            lams, cs = family.lam.values[:family.truncation], dual_pairings(family, b)
        else:
            lams, cs = _terms(f_star)
            b = norm2 = None
            if f_star._pass is not None and f_star._pass.serves(f, bits):
                b, norm2 = f_star._pass.moments, f_star._pass.norm2
            elif not isinstance(f, MuntzSeries):
                b, norm2 = moments_and_norm2(f, f_star.lam, f_star.n_terms, bits)
        return distance_to(f, lams, cs, b, norm2)


# ---------------------------------------------------------------------------
# dilation approximation (two-stage: pick rho, then truncate)


@dataclass(frozen=True)
class SpanApproximation:
    """Result of approximate_in_span.

    certified_error is the exactly computed prefix error
    ||f_prefix - polynomial||; tail_bound is the analytic bound on the
    neglected rule tail (None when the rule/kind pair has no closed form),
    and tail_certified says whether certified_error + tail_bound < 2*eps.
    For an already-finite series rho = 1.0 marks the exact short-circuit.
    """

    rho: float
    n_terms: int
    polynomial: MuntzSeries
    certified_error: float
    dilation_error: float
    prefix_terms: int
    tail_bound: Optional[float] = None
    tail_certified: bool = False


def _rule_series_tail_product_bound(rule: CoefficientRule, lam: ExponentSequence, K: int):
    """Bound sum_{n>K} |c_n| (2 lambda_n + 1)^(-1/2): the L2 norm of the tail."""
    if rule.name == "power":
        alpha, scale = rule.params["alpha"], abs(rule.params["scale"])
        if lam.kind == "power":
            p = float(lam.params["p"])
            beta = alpha + p / 2.0
            if beta > 1:
                return scale / math.sqrt(2.0) * K ** (1 - beta) / (beta - 1)
        if lam.kind == "lacunary":
            q = float(lam.params["q"])
            if alpha >= 0:
                r = q ** -0.5
                return scale / math.sqrt(2.0) * (K + 1) ** (-alpha) * r ** (K + 1) / (1 - r)
        return None
    if rule.name == "geometric":
        r, scale = abs(rule.params["ratio"]), abs(rule.params["scale"])
        return scale * r ** (K + 1) / (1 - r)
    return None


# columns of the real Gram kernel copied to complex at a time by _quad_form
_COLUMN_BLOCK = 256


def _quad_form(d, A) -> float:
    """Re conj(d) A d for the real Gram kernel A.

    For a complex d, conj(d) A is taken one block of columns at a time:
    the product casts its block of A to complex, and a cast of the whole
    K x K kernel would triple the peak memory.  Each entry of conj(d) A is
    the same column product either way.
    """
    if d.dtype.kind == "c":
        import numpy as np

        left = np.concatenate([d.conj() @ A[:, j:j + _COLUMN_BLOCK]
                               for j in range(0, len(d), _COLUMN_BLOCK)])
    else:
        left = d.conj() @ A
    return float((left @ d).real)


def _quad_form_norm(d, A) -> float:
    return math.sqrt(max(_quad_form(d, A), 0.0))


# term budget of approximate_in_span: its prefix doubles from 256 up to this
_MAX_SPAN_TERMS = 4096


def approximate_in_span(f: MuntzSeries, eps: float,
                        rho_cap: float = 1 - 1e-9) -> SpanApproximation:
    """Two-stage span approximation: dilate, then truncate.

    Stage 1 bisects on rho until the dilation error ||f(rho t) - f(t)||
    lands in [eps/2, eps] (determinism; the existence argument only needs
    it below eps).  Stage 2 picks the shortest head of the dilated series
    whose dropped-term bound stays below eps, so the prefix error of the
    returned polynomial is below 2*eps.  Runs in float64: the certificate
    tolerances (eps >= ~1e-6) are far above double rounding.

    Raises ConvergenceError when it failed within budget: the dilation
    error is still above eps at ``rho_cap`` although the rule's tail bound
    is finite, which proves sum |c_n| ||e_n|| < inf and so f in the closed
    span.  Without that bound the same failure raises NonMemberSignal, as
    does a prefix quadratic form whose increments do not decay; that
    heuristic runs only when there is no tail bound, since a finite one
    proves membership however slowly the prefix norms settle.
    """
    import numpy as np

    if not eps > 0:
        raise ParameterError(f"eps must be positive, got {eps}")
    if f.finite:
        return SpanApproximation(
            rho=1.0, n_terms=len(f.coeffs), polynomial=f, certified_error=0.0,
            dilation_error=0.0, prefix_terms=len(f.coeffs), tail_bound=0.0,
            tail_certified=True)

    # grow the working prefix until the analytic tail bound fits in eps/2
    K = 256
    tail = _rule_series_tail_product_bound(f.rule, f.lam, K)
    extendable = f.lam.extendable
    while tail is not None and tail > eps / 2 and K < _MAX_SPAN_TERMS and extendable:
        K = min(2 * K, _MAX_SPAN_TERMS)
        tail = _rule_series_tail_product_bound(f.rule, f.lam, K)
    if not extendable:
        K = min(K, len(f.lam))

    lam = f.lam if len(f.lam) >= K else f.lam.extended(K)
    lams = np.array([float(v) for v in lam.values[:K]])
    cs = np.array([complex(_coefficient_at(f, n)) for n in range(1, K + 1)])
    if np.allclose(cs.imag, 0.0):
        cs = cs.real
    # the Gram kernel 1 / (lambda_i + lambda_j + 1), built in one K x K array
    A = np.add.outer(lams, lams)
    A += 1.0
    np.divide(1.0, A, out=A)
    # without a tail bound, partial norms at K/4, K/2, K must show shrinking
    # increments (c_n = 1 on squares diverges logarithmically); a finite
    # tail bound already proves membership, however slowly the norms settle
    if tail is None:
        sums = [_quad_form(cs[:k], A[:k, :k]) for k in (max(1, K // 4), max(1, K // 2), K)]
        inc1, inc2 = sums[1] - sums[0], sums[2] - sums[1]
        if inc2 > 1e-12 and inc1 > 1e-12 and inc2 > 0.9 * inc1:
            raise NonMemberSignal(f"prefix norm increments do not decay ({inc1:.3e} -> "
                                  f"{inc2:.3e}); the quadratic form looks divergent")

    def dilation_error(rho: float) -> float:
        with np.errstate(under="ignore"):
            d = cs * (np.power(rho, lams) - 1.0)
        return _quad_form_norm(d, A)

    lo, hi = 0.5, rho_cap
    if dilation_error(hi) > eps:
        # a finite tail bound proves membership: then only the budget ran out
        error = NonMemberSignal if tail is None else ConvergenceError
        raise error(f"dilation error {dilation_error(hi):.3e} still above eps={eps} "
                    f"at rho={hi} within the budget of {K} terms")
    e_lo = dilation_error(lo)
    while e_lo <= eps and lo > 1e-6:
        lo /= 2
        e_lo = dilation_error(lo)
    if e_lo <= eps:
        rho, e_rho = lo, e_lo
    else:
        rho, e_rho = hi, dilation_error(hi)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            e_mid = dilation_error(mid)
            if eps / 2 <= e_mid <= eps:
                rho, e_rho = mid, e_mid
                break
            if e_mid > eps:
                lo = mid
            else:
                hi = mid
                rho, e_rho = mid, e_mid

    # stage 2: shortest head of the dilated series with dropped terms under eps
    with np.errstate(under="ignore"):
        dilated = cs * np.power(rho, lams)
    weights = np.abs(dilated) / np.sqrt(2.0 * lams + 1.0)
    suffix = np.concatenate([np.cumsum(weights[::-1])[::-1], [0.0]])
    n_terms = next((N for N in range(1, K + 1) if suffix[N] <= eps), K)

    poly = MuntzSeries(lam.prefix(n_terms), tuple(dilated[:n_terms]))
    d = np.array(cs, dtype=complex)
    d[:n_terms] -= dilated[:n_terms]
    certified = _quad_form_norm(d, A)
    tail_val = None if tail is None else float(tail)
    certified_ok = tail_val is not None and certified + tail_val < 2 * eps
    return SpanApproximation(
        rho=float(rho), n_terms=n_terms, polynomial=poly,
        certified_error=float(certified), dilation_error=float(e_rho),
        prefix_terms=K, tail_bound=tail_val, tail_certified=bool(certified_ok))
