"""Exponent sequences for Muntz monomial systems {t^lambda_n} on (0,1).

Only finitely checkable consequences of the admissibility hypotheses are
validated here: strict monotonicity, positivity, and a uniform gap between
consecutive exponents.  The summability of the reciprocals is a property of
the infinite tail; the built-in generators (``power`` with p > 1,
``lacunary`` with q > 1) are exactly the families for which it is known to
hold, which is why their parameter ranges are enforced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from mpmath import mp, mpf

from .config import working_precision
from .errors import InputError, ParameterError

DEFAULT_DELTA_MIN = 1e-6

KINDS = ("power", "lacunary", "integers", "custom")


@dataclass(frozen=True)
class ExponentSequence:
    """Validated finite prefix of an exponent sequence.

    Attributes
    ----------
    values : tuple
        Strictly increasing positive exponents (ints or mpf).
    gap : mpf
        Minimum of consecutive differences over the prefix.
    kind : str
        Generator tag: power | lacunary | integers | custom.
    params : dict
        Generator parameters (used for analytic tail bounds).
    """

    values: tuple
    gap: object
    kind: str = "custom"
    params: dict = None

    def __post_init__(self):
        object.__setattr__(self, "params", dict(self.params or {}))

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]

    def value(self, n: int):
        """Exponent lambda_n with the 1-based index used in reports."""
        if not 1 <= n <= len(self.values):
            raise InputError(f"index n={n} outside 1..{len(self.values)}")
        return self.values[n - 1]

    def prefix(self, N: int) -> "ExponentSequence":
        if not 1 <= N <= len(self.values):
            raise InputError(f"prefix length {N} outside 1..{len(self.values)}")
        vals = self.values[:N]
        return ExponentSequence(vals, _min_gap(vals), self.kind, self.params)

    @property
    def all_integer(self) -> bool:
        return all(_is_integral(v) for v in self.values)

    def tail_reciprocal_bound(self, K: int):
        """Upper bound on sum_{n>K} 1/(2*lambda_n + 1), when certifiable.

        Available for the generated kinds whose tails are analytic
        (power: comparison with the integral of x^-p; lacunary: geometric).
        Returns None for integers/custom prefixes, which carry no tail.
        """
        if K < 1:
            raise InputError("K must be >= 1")
        if self.kind == "power":
            p = mpf(self.params["p"])
            return (mpf(K) ** (1 - p)) / (2 * (p - 1))
        if self.kind == "lacunary":
            q = mpf(self.params["q"])
            return (q ** mpf(-K)) / (2 * (q - 1))
        return None

    @property
    def extendable(self) -> bool:
        """True for the analytic families that ``extended`` can regenerate."""
        return self.kind in ("power", "lacunary")

    def extended(self, N: int) -> "ExponentSequence":
        """Regenerate the same analytic family with a longer prefix."""
        if not self.extendable:
            raise ParameterError(f"cannot extend a {self.kind!r} sequence")
        if N <= len(self.values):
            return self.prefix(N)
        return generate_exponents(self.kind, self.params, N)

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "params": {k: self.params[k] for k in sorted(self.params)},
            "values": [int(v) if _is_integral(v) else float(v) for v in self.values],
            "delta": float(self.gap),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExponentSequence":
        values = data.get("values")
        if not values:
            raise InputError("exponent data has no values")
        report = validate_exponents(values)
        if not report.passed:
            raise InputError(f"exponent data invalid: {report.reason}")
        vals = tuple(int(v) if _is_integral(v) else mpf(v) for v in values)
        return cls(vals, _min_gap(vals), data.get("kind", "custom"), data.get("params", {}))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate_exponents.

    ``first_violation`` is the 1-based index n of the first step
    lambda_{n+1} - lambda_n that fails (or the offending element for
    positivity failures); None when the sequence passes.
    """

    passed: bool
    gap: object
    first_violation: Optional[int]
    reason: str = ""


def _is_integral(v) -> bool:
    try:
        return v == int(v)
    except (TypeError, ValueError):
        return False


def _min_gap(values):
    if len(values) < 2:
        return mpf("inf")
    return min(mpf(values[i + 1]) - mpf(values[i]) for i in range(len(values) - 1))


def validate_exponents(values: Sequence, delta_min: float = DEFAULT_DELTA_MIN) -> ValidationReport:
    """Check positivity, strict monotonicity, and the minimum gap.

    Parameters
    ----------
    values : sequence of reals
        Candidate exponents, in the order lambda_1, lambda_2, ...
    delta_min : positive real
        Smallest admissible gap between consecutive exponents.

    Returns
    -------
    ValidationReport
        passed is True iff all checks hold; gap is the measured minimum
        consecutive difference (inf for singletons).
    """
    if values is None or len(values) == 0:
        raise InputError("empty exponent sequence")
    if not delta_min > 0:
        raise ParameterError(f"delta_min must be positive, got {delta_min}")
    vals = [mpf(v) for v in values]
    if vals[0] <= 0:
        return ValidationReport(False, mpf(0), 1, f"lambda_1 = {vals[0]} is not positive")
    for i in range(1, len(vals)):
        if vals[i] <= 0:
            return ValidationReport(False, mpf(0), i + 1, f"lambda_{i + 1} = {vals[i]} is not positive")
        if vals[i] <= vals[i - 1]:
            return ValidationReport(False, mpf(0), i, "sequence is not strictly increasing")
    gap = _min_gap(vals)
    for i in range(1, len(vals)):
        if vals[i] - vals[i - 1] < mpf(delta_min):
            return ValidationReport(False, gap, i, f"gap {vals[i] - vals[i - 1]} below delta_min={delta_min}")
    return ValidationReport(True, gap, None)


def generate_exponents(kind: str, params: dict, n: int, precision_bits: int = 256) -> ExponentSequence:
    """Generate a validated exponent prefix of length ``n``.

    kind="power" gives lambda_k = k**p (p > 1); kind="lacunary" gives
    lambda_k = q**k (q > 1).  kind="integers"/"custom" take explicit
    ``values`` in params (integers validates integrality).  Integer-valued
    results are stored as exact ints, everything else as mpf at the given
    precision.
    """
    if kind not in KINDS:
        raise ParameterError(f"unknown kind {kind!r}; expected one of {KINDS}")
    if n < 1:
        raise ParameterError(f"N must be >= 1, got {n}")
    params = dict(params or {})

    if kind == "power":
        p = params.get("p")
        if p is None or not mpf(p) > 1:
            raise ParameterError(f"power kind needs p > 1, got {p!r}")
        values = _power_values(p, n, precision_bits)
        params = {"p": int(p) if _is_integral(p) else float(p)}
    elif kind == "lacunary":
        q = params.get("q")
        if q is None or not mpf(q) > 1:
            raise ParameterError(f"lacunary kind needs q > 1, got {q!r}")
        values = _lacunary_values(q, n, precision_bits)
        params = {"q": int(q) if _is_integral(q) else float(q)}
    else:
        raw = params.get("values")
        if not raw:
            raise ParameterError(f"{kind} kind needs explicit values in params")
        if len(raw) < n:
            raise ParameterError(f"{kind} kind received {len(raw)} values, need {n}")
        raw = list(raw)[:n]
        if kind == "integers" and not all(_is_integral(v) for v in raw):
            raise ParameterError("integers kind requires integer values")
        values = tuple(int(v) if _is_integral(v) else mpf(v) for v in raw)
        params = {"values": [int(v) if _is_integral(v) else float(v) for v in raw]}

    report = validate_exponents(values, delta_min=DEFAULT_DELTA_MIN)
    if not report.passed:
        raise ParameterError(f"generated sequence fails validation: {report.reason}")
    return ExponentSequence(values, report.gap, kind, params)


def _power_values(p, n, precision_bits):
    if _is_integral(p):
        return tuple(k ** int(p) for k in range(1, n + 1))
    with working_precision(precision_bits):
        return tuple(mp.power(k, mpf(p)) for k in range(1, n + 1))


def _lacunary_values(q, n, precision_bits):
    if _is_integral(q):
        return tuple(int(q) ** k for k in range(1, n + 1))
    with working_precision(precision_bits):
        return tuple(mp.power(mpf(q), k) for k in range(1, n + 1))
