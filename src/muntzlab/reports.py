"""Report serialization: decimal strings at full precision, JSON and CSV.

High-precision numbers are emitted as decimal strings with enough digits
to round-trip the stated binary precision, never as binary floats; every
JSON artifact embeds the RunConfig that produced it.  Serialization is
deterministic (sorted keys, fixed digit counts), so identical inputs give
byte-identical artifacts.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from mpmath import mp, mpc, mpf

from .config import RunConfig, default_precision_bits, working_precision
from .errors import InputError
from .exponents import ExponentSequence
from .muntz_space import MuntzSeries, rule_from_name


def decimal_digits(precision_bits: int) -> int:
    return int(precision_bits * 0.30103) + 3


def decimal_str(x, precision_bits: int) -> str:
    """mpf/int to a decimal string carrying the full working precision."""
    if isinstance(x, int):
        return str(x)
    with mp.workdps(decimal_digits(precision_bits)):
        return mp.nstr(mpf(x), decimal_digits(precision_bits))


def complex_pair(z, precision_bits: int):
    with working_precision(precision_bits):
        z = mpc(z)
    return [decimal_str(z.real, precision_bits), decimal_str(z.imag, precision_bits)]


def dump_json(obj, path: Optional[str] = None) -> str:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def dump_json_lines(rows, path: Optional[str] = None) -> str:
    text = "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def dump_csv(rows, header: list, config: RunConfig, path: Optional[str] = None) -> str:
    """CSV of decimal strings with the run config on a leading comment line."""
    lines = ["# config " + json.dumps(config.as_dict(), sort_keys=True)]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(str(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def with_config(payload: dict, config: RunConfig) -> dict:
    out = dict(payload)
    out["config"] = config.as_dict()
    return out


# ---------------------------------------------------------------------------
# artifact loaders


def load_exponents(path: str) -> ExponentSequence:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read exponent file {path}: {exc}") from exc
    return ExponentSequence.from_dict(data)


def load_series(path: str, precision_bits: Optional[int] = None) -> MuntzSeries:
    """Series JSON: {"lambda_ref": file, "coeffs": [[re, im], ...], "rule": {...}}.

    lambda_ref is resolved relative to the series file's directory.  The
    coefficients' decimal literals are read at ``precision_bits`` (default
    ``default_precision_bits()``), never through a binary float.
    """
    try:
        with open(path) as fh:
            text = fh.read()
        data = json.loads(text)
        literals = json.loads(text, parse_float=str).get("coeffs", [])
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read series file {path}: {exc}") from exc
    ref = data.get("lambda_ref")
    if not ref:
        raise InputError(f"series file {path} lacks lambda_ref")
    lam_path = ref if os.path.isabs(ref) else os.path.join(os.path.dirname(os.path.abspath(path)), ref)
    lam = load_exponents(lam_path)
    coeffs = []
    bits = default_precision_bits() if precision_bits is None else precision_bits
    with working_precision(bits):
        for entry in literals:
            if isinstance(entry, (list, tuple)):
                re_part, im_part = entry
            else:
                re_part, im_part = entry, 0
            coeffs.append(mpc(mpf(str(re_part)), mpf(str(im_part))))
    rule_spec = data.get("rule")
    rule = None
    if rule_spec:
        rule = rule_from_name(rule_spec["name"], **rule_spec.get("params", {}))
    if coeffs and all(c.imag == 0 for c in coeffs):
        coeffs = [c.real for c in coeffs]
    return MuntzSeries(lam, tuple(coeffs), rule)
