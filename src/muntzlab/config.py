"""Run configuration: working precision, tolerances, output options.

All numerical routines take an explicit ``precision_bits`` argument; the
global mpmath context is only ever changed inside ``with working_precision``
blocks, so concurrent callers with different settings do not interfere
as long as they stay on separate threads of execution per mpmath's rules.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

from mpmath import mp

from .errors import ParameterError

PRECISION_ENV_VAR = "MUNTZ_PRECISION_BITS"

#: Guard bits added on top of the requested precision inside kernels, so
#: that results rounded back to the stated precision are fully accurate.
GUARD_BITS = 16

DEFAULT_TOLERANCES: dict[str, float] = {
    # max |<e_j, r_n> - delta_jn| accepted for a dual family
    "biorthogonality": 1e-40,
    # max |distance * dual_norm - 1|
    "duality": 1e-25,
    # bounds on the eigen/adjoint relation residuals in the operator certificate
    "eigen_residual": 1e-40,
    "adjoint_residual": 1e-40,
    # normality defect must exceed this to certify "not normal"
    "normality_defect_min": 1e-12,
    # default absolute tolerance for adaptive quadrature
    "quadrature": 1e-30,
    # stopping rule of the eigenvalue kernels (linalg.SIGMA_REL_TOL); a
    # --config override is recorded in the artifact, but the kernels stop
    # on this default
    "singular_value_rel": 1e-20,
    # residual threshold below which a projection counts as exact
    "closure_residual": 1e-10,
    # trailing-ratio threshold above which a residual trend counts as stagnant
    "stagnation_ratio": 0.8,
}


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
    """Reproducibility envelope embedded into every emitted report."""

    precision_bits: int = field(default_factory=default_precision_bits)
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))
    output_format: str = "json"
    seed: int = 0

    def __post_init__(self):
        if self.precision_bits < 64:
            raise ParameterError(f"precision_bits must be >= 64, got {self.precision_bits}")
        if self.output_format not in ("json", "csv"):
            raise ParameterError(f"output_format must be json or csv, got {self.output_format!r}")
        for name, value in self.tolerances.items():
            if not value > 0:
                raise ParameterError(f"tolerance {name!r} must be positive, got {value}")

    def tolerance(self, name: str) -> float:
        try:
            return self.tolerances[name]
        except KeyError:
            return DEFAULT_TOLERANCES[name]

    def with_overrides(self, **kwargs) -> "RunConfig":
        return replace(self, **kwargs)

    def as_dict(self) -> dict:
        return {
            "precision_bits": self.precision_bits,
            "tolerances": {k: self.tolerances[k] for k in sorted(self.tolerances)},
            "output_format": self.output_format,
            "seed": self.seed,
        }


def inverse_residual_tolerance(precision_bits: int) -> float:
    """Residual threshold 10^(-bits/8) for closed-form inverse checks."""
    return 10.0 ** (-(precision_bits / 8.0))


def rank_collapse_threshold(precision_bits: int) -> float:
    """Scale-aware cutoff 10^(-bits/4) separating rank collapse from rounding."""
    return 10.0 ** (-(precision_bits / 4.0))


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
