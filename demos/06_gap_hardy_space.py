"""Membership in the gap Hardy subspace over integer exponents.

For integer exponent sets a gap power series lies in the Hardy subspace
exactly when its coefficients are square-summable and it lies in the
closed monomial span.  The showcase pair on lambda = n^2:

  c_n = 1/n        -> member (p-series, p = 2)
  c_n = n^(-1/2)   -> NOT a member (p-series, p = 1 diverges), yet its
                      L2(0,1) quadratic form stays bounded and Cauchy —
                      it lives in the closed span without the ell^2 frame
                      property, exercising the "only if" direction.
"""

from mpmath import mp, pi

from muntzlab import (
    MuntzSeries,
    closure_membership_via_frame,
    dual_family,
    finite_series,
    generate_exponents,
    h2_membership,
    quadratic_form_partial_sums,
    radial_l2_bound,
    rule_from_name,
)

mp.prec = 256

squares = generate_exponents("power", {"p": 2}, 12)

print("== coefficient square-sum membership ==")
for name in ("inv_n", "inv_sqrt_n"):
    f = MuntzSeries(squares, (), rule_from_name(name))
    report = h2_membership(f, K=1000)
    print(f"c_n = {name:10s} -> member = {report.member:3s}   "
          f"partial sums: {[(k, mp.nstr(s, 6)) for k, s in report.l2_coeff_sums[-2:]]}")

print("\n== the counterexample's bounded quadratic form ==")
sums = quadratic_form_partial_sums(rule_from_name("inv_sqrt_n"), squares, [125, 250, 500, 1000])
for k, s in sums:
    print(f"  K={k:5d}  S_K = {s:.8f}")
print("monotone, bounded, Cauchy: the prefix norms converge although the")
print("coefficient square-sum grows like log K")

print("\n== closure membership via projections + recovered coefficients ==")
fam = dual_family(squares, 12, 256)
t5 = finite_series(generate_exponents("integers", {"values": [5]}, 1), [1])
rep = closure_membership_via_frame(t5, fam)
print("t^5 (5 is not a square):", rep.member)
print("residual trend:", [(N, mp.nstr(r, 5)) for N, r in rep.residual_trend])
print("(stagnates at the positive distance to the span: minimality at work)")

print("\n== the radial integral bound ==")
f = MuntzSeries(squares, (), rule_from_name("inv_n"))
for theta in (0.0, float(pi) / 2, float(pi)):
    rep = radial_l2_bound(f, theta, K=100, precision_bits=128)
    print(f"  theta = {theta:5.3f}: integral = {mp.nstr(rep.numeric_integral, 6)} "
          f"± {mp.nstr(rep.quad_error, 3)}, + sliver {mp.nstr(rep.remainder_bound, 3)} "
          f"<= M = {mp.nstr(rep.bound_M, 6)}")
print("M is built from the two tail-certified sums and never involves theta")
