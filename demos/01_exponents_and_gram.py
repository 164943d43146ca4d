"""Exponent sequences and the Cauchy-structured Gram matrix.

Walks through generating admissible exponent sequences, validating raw
ones, and building the Gram matrix of {t^lambda_n} in L2(0,1) together
with its closed-form determinant and inverse.  The punchline is the
conditioning: determinants collapse super-exponentially, which is why
everything downstream runs on exact integer product formulas instead of
generic dense solves.
"""

from mpmath import matrix, mp, mpf

from muntzlab import (
    cauchy_determinant,
    cauchy_inverse,
    distance,
    distance_lower_bound_check,
    generate_exponents,
    gram_matrix,
    validate_exponents,
)

mp.prec = 256

print("== exponent sequences ==")
squares = generate_exponents("power", {"p": 2}, 12)
lacunary = generate_exponents("lacunary", {"q": 2}, 10)
print("squares :", squares.values, " gap =", squares.gap)
print("lacunary:", lacunary.values, " gap =", lacunary.gap)

report = validate_exponents([1, 1.5, 1.6], delta_min=0.5)
print("validating {1, 1.5, 1.6} at delta_min=0.5 ->",
      "pass" if report.passed else f"fail at step {report.first_violation} ({report.reason})")

print("\n== Gram matrices and their collapse ==")
for N in (2, 4, 8, 12):
    G = gram_matrix(squares.prefix(N), 256)
    det = cauchy_determinant(G)
    print(f"N={N:2d}  det G = {mp.nstr(det, 5)}")

print("\nThe 2x2 case is hand-checkable: lambda={1,2} gives det = 1/240")
lam12 = generate_exponents("integers", {"values": [1, 2]}, 2)
G = gram_matrix(lam12, 256)
print("det =", mp.nstr(cauchy_determinant(G), 10), " (1/240 =", mp.nstr(mpf(1) / 240, 10), ")")
Minv, residual = cauchy_inverse(G)
print("closed-form inverse:")
print(matrix(Minv))
print("certified bound on max|G*Minv - I| =", mp.nstr(residual, 3))

print("\n== distances to the span of the other monomials ==")
print("D_{n,N} shrinks as more competitors arrive, and the dual norm is")
print("exactly its reciprocal:")
for N in (4, 8, 12):
    rep = distance(squares, 1, N, 256)
    print(f"  N={N:2d}  D_1 = {mp.nstr(rep.distance, 8)}   ||r_1|| = {mp.nstr(rep.dual_norm, 8)}"
          f"   product = {mp.nstr(rep.distance * rep.dual_norm, 10)}")

print("\nLower-bound fit D_n >= m (1-eps)^lambda_n at eps = 0.5:")
for N in (4, 8, 12):
    _, m_fit = distance_lower_bound_check(squares, N, 0.5, 256)
    print(f"  N={N:2d}  m_fit = {mp.nstr(m_fit, 8)}")
print("(the fit is non-increasing in N; the trend is the desk-scale story)")
