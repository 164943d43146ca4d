"""Command-line front end: one binary, one subcommand per capability.

Exit codes: 0 success, 1 computational failure (JSON error object on
stderr), 2 usage error (argparse).  MUNTZ_PRECISION_BITS sets the global
default precision; a --config JSON file seeds the run configuration and
individual flags override it.  All artifacts are deterministic for fixed
argv + config + seed.
"""

from __future__ import annotations

import argparse
import json
import sys

from mpmath import mpc, mpf

from . import biorthogonal, completeness, gram, hardy, muntz_space, operators
from .config import RunConfig, default_precision_bits, working_precision
from .errors import InputError, MuntzError
from .exponents import generate_exponents
from .reports import (
    complex_pair,
    decimal_str,
    dump_csv,
    dump_json,
    dump_json_lines,
    load_exponents,
    load_series,
    with_config,
)


def _emit(text: str, out):
    if out:
        print(json.dumps({"written": out}, sort_keys=True))
    else:
        sys.stdout.write(text)


def _parse_complex(raw: str, precision_bits: int):
    """'a+bi', 'a-bj', 'a' or 'bi' as an mpc, each part read as a decimal at precision_bits."""
    s = raw.strip().replace(" ", "")
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    re_part, im_part = s, "0"
    if s[-1:] in ("i", "j"):
        # the imaginary part starts at the last sign that is not an exponent's
        cut = max((k for k in range(1, len(s)) if s[k] in "+-" and s[k - 1] not in "eE"),
                  default=0)
        re_part, im_part = s[:cut] or "0", s[cut:-1]
        if im_part in ("", "+", "-"):
            im_part += "1"
    try:
        with working_precision(precision_bits):
            return mpc(mpf(re_part), mpf(im_part))
    except ValueError as exc:
        raise MuntzError(f"cannot parse complex number {raw!r}") from exc


def make_config(args) -> RunConfig:
    base = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            base = json.load(fh)
    cfg = RunConfig(
        precision_bits=base.get("precision_bits", default_precision_bits()),
        tolerances={**RunConfig().tolerances, **base.get("tolerances", {})},
        output_format=base.get("output_format", "json"),
        seed=base.get("seed", 0),
    )
    if getattr(args, "bits", None):
        cfg = cfg.with_overrides(precision_bits=args.bits)
    if getattr(args, "seed", None) is not None:
        cfg = cfg.with_overrides(seed=args.seed)
    if getattr(args, "format", None):
        cfg = cfg.with_overrides(output_format=args.format)
    return cfg


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_exponents(args, cfg):
    params = {}
    if args.p is not None:
        params["p"] = args.p
    if args.q is not None:
        params["q"] = args.q
    if args.values:
        params["values"] = [float(v) for v in args.values.split(",")]
    lam = generate_exponents(args.kind, params, args.n, cfg.precision_bits)
    _emit(dump_json(lam.as_dict(), args.out), args.out)
    return 0


def cmd_gram(args, cfg):
    lam = load_exponents(args.lam).prefix(args.n)
    G = gram.gram_matrix(lam, cfg.precision_bits)
    rows = [[decimal_str(v, G.precision_bits) for v in row] for row in G.entries]
    if cfg.output_format == "csv" or (args.out or "").endswith(".csv"):
        text = dump_csv(rows, [f"g{j + 1}" for j in range(args.n)], cfg, args.out)
    else:
        payload = with_config({"lambda": lam.as_dict(), "entries": rows,
                               "determinant": decimal_str(gram.cauchy_determinant(G),
                                                          G.precision_bits)}, cfg)
        text = dump_json(payload, args.out)
    _emit(text, args.out)
    return 0


def cmd_distance(args, cfg):
    lam = load_exponents(args.lam).prefix(args.n)
    indices = range(1, args.n + 1) if args.all else [args.index]
    if args.eps is not None:
        reports, m_fit = gram.distance_lower_bound_check(lam, args.n, args.eps, cfg.precision_bits)
        reports = [reports[i - 1] for i in indices]
    else:
        reports = [gram.distance(lam, i, args.n, cfg.precision_bits) for i in indices]
    bits = cfg.precision_bits
    rows = [with_config({
        "n": r.n,
        "truncation": r.truncation,
        "distance": decimal_str(r.distance, bits),
        "dual_norm": decimal_str(r.dual_norm, bits),
        "epsilon": r.epsilon,
        "m_fit": None if r.m_fit is None else decimal_str(r.m_fit, bits),
    }, cfg) for r in reports]
    _emit(dump_json_lines(rows, args.out), args.out)
    return 0


def cmd_biorthogonal(args, cfg):
    lam = load_exponents(args.lam)
    fam = biorthogonal.dual_family(lam, args.n, cfg.precision_bits)
    bits = fam.precision_bits
    payload = with_config({
        "lambda": fam.lam.as_dict(),
        "truncation": fam.truncation,
        "coefficients": [[decimal_str(v, bits) for v in row] for row in fam.inverse_rows],
        "norms": [decimal_str(v, bits) for v in fam.norms],
        "projection_deficit": [decimal_str(v, bits) for v in fam.projection_deficit],
        "biorthogonality_residual": decimal_str(fam.biorthogonality_residual, bits),
        "precision_bits_used": bits,
    }, cfg)
    _emit(dump_json(payload, args.out), args.out)
    return 0


def cmd_project(args, cfg):
    f = load_series(args.f, cfg.precision_bits)
    fam = biorthogonal.dual_family(f.lam if args.lam is None else load_exponents(args.lam),
                                   args.n, cfg.precision_bits)
    f_star = muntz_space.project(f, fam)
    residual = muntz_space.projection_residual(f, fam, f_star)
    bits = fam.precision_bits
    payload = with_config({
        "coefficients": [complex_pair(c, bits) for c in f_star.coeffs],
        "residual": decimal_str(residual, bits),
        "truncation": fam.truncation,
    }, cfg)
    _emit(dump_json(payload, args.out), args.out)
    return 0


def cmd_recover(args, cfg):
    f = load_series(args.f, cfg.precision_bits)
    fam = biorthogonal.dual_family(f.lam if args.lam is None else load_exponents(args.lam),
                                   args.n, cfg.precision_bits)
    coeffs = muntz_space.recovered_coefficients(f, fam)
    bits = fam.precision_bits
    indices = range(1, fam.truncation + 1) if args.all else [args.index]
    rows = [with_config({"n": n, "coefficient": complex_pair(coeffs[n - 1], bits)}, cfg)
            for n in indices]
    _emit(dump_json_lines(rows, args.out), args.out)
    return 0


def cmd_eval(args, cfg):
    f = load_series(args.f, cfg.precision_bits)
    z = _parse_complex(args.z, cfg.precision_bits)
    value = muntz_space.evaluate(f, z, tol=args.tol, precision_bits=cfg.precision_bits)
    payload = with_config({"z": [decimal_str(z.real, cfg.precision_bits),
                                 decimal_str(z.imag, cfg.precision_bits)],
                           "value": complex_pair(value, cfg.precision_bits)}, cfg)
    _emit(dump_json(payload, args.out), args.out)
    return 0


def cmd_operator_certify(args, cfg):
    lam = load_exponents(args.lam)
    fam = biorthogonal.dual_family(lam, args.n, cfg.precision_bits)
    op = operators.dilation_operator(fam.lam, args.rho, args.n)
    cert = operators.synthesis_certificate(op, fam, cfg)
    bits = fam.precision_bits

    def show(v):
        if v is None:
            return None
        if isinstance(v, (tuple, list)):
            return [show(x) for x in v]
        if isinstance(v, (bool, int, str)):
            return v
        if isinstance(v, mpc) and v.imag != 0:
            return complex_pair(v, bits)
        return decimal_str(v, bits)

    payload = with_config({
        "status": cert.status,
        "items": [{"name": it.name, "passed": it.passed, "value": show(it.value),
                   "tolerance": it.tolerance, "detail": it.detail} for it in cert.items],
        "spectrum": [complex_pair(s, bits) for s in cert.spectrum],
        "normality_defect": show(cert.normality_defect),
        "eigen_residual": show(cert.eigen_residual),
        "adjoint_residual": show(cert.adjoint_residual),
        "kernel_min_singular": show(cert.kernel_min_singular),
        "finite_rank_errors": [[m, show(c), show(b)] for m, c, b in cert.finite_rank_errors],
        "simple_eigenvalues": cert.simplicity_flag,
    }, cfg)
    _emit(dump_json(payload, args.out), args.out)
    return 0


def cmd_hereditary(args, cfg):
    lam = load_exponents(args.lam)
    fam = biorthogonal.dual_family(lam, args.n, cfg.precision_bits)
    if args.partitions == "all":
        parts = list(completeness.all_partitions(args.n))
    elif args.partitions.startswith("sample:"):
        try:
            count = int(args.partitions.split(":", 1)[1])
        except ValueError:
            raise MuntzError(f"--partitions sample count must be an integer, got {args.partitions!r}")
        parts = completeness.sample_partitions(args.n, count, seed=cfg.seed)
    else:
        raise MuntzError(f"--partitions must be 'all' or 'sample:<count>', got {args.partitions!r}")
    rows = []
    for part in parts:
        check = completeness.mixed_completeness_check(part, fam)
        rows.append([part.key(), len(part.n1),
                     decimal_str(check.min_singular, fam.precision_bits),
                     int(check.invertible)])
    text = dump_csv(rows, ["monomial_indices", "monomial_count", "sigma_min", "invertible"],
                    cfg, args.out)
    _emit(text, args.out)
    return 0


def cmd_hardy(args, cfg):
    if args.k < 1:
        raise InputError(f"--k must be at least 1, got {args.k}")
    lam = load_exponents(args.lam)
    rule = muntz_space.rule_from_name(args.rule)
    f = muntz_space.MuntzSeries(lam, (), rule)
    report = hardy.h2_membership(f, K=args.k)
    bits = cfg.precision_bits
    payload = {
        "member": report.member,
        "certificate": report.coefficient_certificate,
        "l2_coefficient_partial_sums": [[k, decimal_str(s, bits)] for k, s in report.l2_coeff_sums],
        "notes": report.notes,
    }
    # a sequence that cannot be extended stops at its last exponent
    k = args.k if lam.extendable else min(args.k, len(lam))
    qf = hardy.quadratic_form_partial_sums(rule, lam, hardy.checkpoints(k))
    payload["quadratic_form_partial_sums"] = [[k, float(v)] for k, v in qf]
    if args.theta:
        radial = {}
        for theta in args.theta:
            rep = hardy.radial_l2_bound(f, theta, K=min(args.k, 200), precision_bits=bits)
            radial[str(theta)] = {"bound": decimal_str(rep.bound_M, bits),
                                  "integral": decimal_str(rep.numeric_integral, bits),
                                  "quad_error": decimal_str(rep.quad_error, bits),
                                  "remainder": decimal_str(rep.remainder_bound, bits)}
        payload["radial"] = radial
    _emit(dump_json(with_config(payload, cfg), args.out), args.out)
    return 0


# ---------------------------------------------------------------------------
# parser


def _common(sub):
    sub.add_argument("--bits", type=int, default=None, help="working precision in bits")
    sub.add_argument("--config", default=None, help="JSON run-config file (flags override)")
    sub.add_argument("--seed", type=int, default=None, help="seed for sampled sweeps")
    sub.add_argument("--format", choices=("json", "csv"), default=None)
    sub.add_argument("--out", default=None, help="output path (stdout when omitted)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="muntz", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("gen-exponents", help="generate an exponent sequence file")
    s.add_argument("--kind", required=True, choices=("power", "lacunary", "integers", "custom"))
    s.add_argument("--p", type=float, default=None, help="power exponent (kind=power)")
    s.add_argument("--q", type=float, default=None, help="lacunary ratio (kind=lacunary)")
    s.add_argument("--values", default=None, help="comma list (kind=integers/custom)")
    s.add_argument("--n", type=int, required=True)
    _common(s)
    s.set_defaults(func=cmd_gen_exponents)

    s = subs.add_parser("gram", help="Gram matrix as decimal strings")
    s.add_argument("--lambda", dest="lam", required=True)
    s.add_argument("--n", type=int, required=True)
    _common(s)
    s.set_defaults(func=cmd_gram)

    s = subs.add_parser("distance", help="distance reports, JSON lines")
    s.add_argument("--lambda", dest="lam", required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--index", type=int, default=1)
    s.add_argument("--all", action="store_true")
    s.add_argument("--eps", type=float, default=None, help="also fit the lower-bound constant")
    _common(s)
    s.set_defaults(func=cmd_distance)

    s = subs.add_parser("biorthogonal", help="dual family coefficients and norms")
    s.add_argument("--lambda", dest="lam", required=True)
    s.add_argument("--n", type=int, required=True)
    _common(s)
    s.set_defaults(func=cmd_biorthogonal)

    s = subs.add_parser("project", help="associated series (orthogonal projection)")
    s.add_argument("--f", required=True, help="series JSON file")
    s.add_argument("--lambda", dest="lam", default=None)
    s.add_argument("--n", type=int, required=True)
    _common(s)
    s.set_defaults(func=cmd_project)

    s = subs.add_parser("recover", help="dual pairings <f, r_n>")
    s.add_argument("--f", required=True)
    s.add_argument("--lambda", dest="lam", default=None)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--index", type=int, default=1)
    s.add_argument("--all", action="store_true")
    _common(s)
    s.set_defaults(func=cmd_recover)

    s = subs.add_parser("eval", help="evaluate a series on the slit disk")
    s.add_argument("--f", required=True)
    s.add_argument("--z", required=True, help="complex point, e.g. 0.5+0i")
    s.add_argument("--tol", type=float, default=1e-30)
    _common(s)
    s.set_defaults(func=cmd_eval)

    s = subs.add_parser("operator", help="operator tools")
    op_subs = s.add_subparsers(dest="operator_command", required=True)
    c = op_subs.add_parser("certify", help="synthesis certificate for the dilation operator")
    c.add_argument("--lambda", dest="lam", required=True)
    c.add_argument("--rho", type=float, required=True)
    c.add_argument("--n", type=int, required=True)
    _common(c)
    c.set_defaults(func=cmd_operator_certify)

    s = subs.add_parser("hereditary", help="mixed-system invertibility sweep")
    s.add_argument("--lambda", dest="lam", required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--partitions", default="all", help="all | sample:<count>")
    _common(s)
    s.set_defaults(func=cmd_hereditary)

    s = subs.add_parser("hardy", help="gap Hardy-space membership report")
    s.add_argument("--lambda", dest="lam", required=True)
    s.add_argument("--rule", required=True, help="coefficient rule name (e.g. inv_n)")
    s.add_argument("--k", type=int, default=1000)
    s.add_argument("--theta", type=float, action="append", default=None,
                   help="also bound the radial integral at this angle (repeatable)")
    _common(s)
    s.set_defaults(func=cmd_hardy)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = make_config(args)
        return args.func(args, cfg)
    except MuntzError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}, sort_keys=True),
              file=sys.stderr)
        return 1
    except OSError as exc:
        print(json.dumps({"error": "IOError", "message": str(exc)}, sort_keys=True),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
