"""Run configuration: working precision and seed, and the threshold that follows the bits.

A run is set by two keys, ``precision_bits`` and ``seed``; every artifact
records both.  The residual threshold is a function of the bits
(inverse_residual_tolerance); the other thresholds are constants of the
one module that reads each.  No rank or invertibility verdict has a
threshold: each rests on a certified lower end being positive.

All numerical routines take an explicit ``precision_bits`` argument and
change the global mpmath context only inside ``with working_precision``
blocks, which restore it on exit.  That context (``mp.prec``) is one per
process, so the package is single-threaded: two threads inside numerical
routines at once would change each other's precision.
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field

from mpmath import mp, mpf

from .errors import ParameterError

PRECISION_ENV_VAR = "MUNTZ_PRECISION_BITS"

#: Guard bits added on top of the requested precision inside kernels, so
#: that results rounded back to the stated precision are fully accurate.
GUARD_BITS = 16


def default_precision_bits() -> int:
    raw = os.environ.get(PRECISION_ENV_VAR)
    if raw is None:
        return 256
    try:
        bits = int(raw)
    except ValueError as exc:
        raise ParameterError(f"{PRECISION_ENV_VAR} must be an integer, got {raw!r}") from exc
    if bits < 64:
        raise ParameterError(f"{PRECISION_ENV_VAR} must be >= 64, got {bits}")
    return bits


@dataclass(frozen=True)
class RunConfig:
    """Reproducibility envelope embedded into every emitted report: the
    working precision and the seed of sampled sweeps, both integers."""

    precision_bits: int = field(default_factory=default_precision_bits)
    seed: int = 0

    def __post_init__(self):
        for name in ("precision_bits", "seed"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ParameterError(f"{name} must be an integer, got {value!r}")
        if self.precision_bits < 64:
            raise ParameterError(f"precision_bits must be >= 64, got {self.precision_bits}")

    def as_dict(self) -> dict:
        return {"precision_bits": self.precision_bits, "seed": self.seed}


def _power_of_ten(exponent: float):
    """10^exponent as an mpf: the double while that is normal, so a threshold
    keeps its bits, else mpmath's power at 53 bits, so it never underflows."""
    value = 10.0 ** exponent
    if value >= sys.float_info.min:
        return mpf(value)
    with mp.workprec(53):
        return mpf(10) ** exponent


def inverse_residual_tolerance(precision_bits: int):
    """Residual threshold 10^(-bits/8) for closed-form inverse checks (an mpf)."""
    return _power_of_ten(-(precision_bits / 8.0))


@contextmanager
def working_precision(precision_bits: int):
    """Temporarily run mpmath at ``precision_bits`` plus guard bits."""
    if precision_bits < 64:
        raise ParameterError(f"precision_bits must be >= 64, got {precision_bits}")
    old = mp.prec
    mp.prec = precision_bits + GUARD_BITS
    try:
        yield mp
    finally:
        mp.prec = old
