"""The truncated biorthogonal family and how it grows.

Builds the dual functions r_n^(N) of the monomials t^lambda_n inside
their own span, checks biorthogonality at working precision, and looks
at the two quantities the theory cares about: the norm growth rate
log||r_n|| / lambda_n and the drift of r_n as the truncation deepens.
"""

from mpmath import mp

from muntzlab import dual_family, generate_exponents, norm_growth_check, truncation_convergence

mp.prec = 256

squares = generate_exponents("power", {"p": 2}, 12)

print("== the 2x2 hand example ==")
lam12 = generate_exponents("integers", {"values": [1, 2]}, 2)
fam = dual_family(lam12, 2, 256)
print("r_1 coefficients:", [mp.nstr(c, 6) for c in fam.dual_coefficients(1)], " (48t - 60t^2)")
print("r_2 coefficients:", [mp.nstr(c, 6) for c in fam.dual_coefficients(2)], " (-60t + 80t^2)")
print("norms:", [mp.nstr(v, 8) for v in fam.norms], " (sqrt(48), sqrt(80))")

print("\n== squares, N = 10 ==")
fam10 = dual_family(squares, 10, 256)
print("biorthogonality residual (certified bound):", mp.nstr(fam10.biorthogonality_residual, 3))
print("norm * deficit (should be 1):",
      [mp.nstr(fam10.norms[n] * fam10.projection_deficit[n], 8) for n in (0, 4, 9)])

print("\n== norm growth, N = 12 at 512 bits ==")
fam12 = dual_family(squares, 12, 512)
growth = norm_growth_check(fam12, epsilon=0.05)
print("  n  lambda_n     ||r_n||           log||r_n||/lambda_n")
for n, (nrm, ratio) in enumerate(zip(fam12.norms, growth.ratios), start=1):
    print(f"  {n:2d}  {squares.values[n - 1]:7d}  {mp.nstr(nrm, 8):>14}   {mp.nstr(ratio, 6)}")
print("fitted m in ||r_n|| <= m (1.05)^lambda_n:", mp.nstr(growth.m_fit, 6))
print("the growth bound is this constant form: ||r_n|| <= m (1+eps)^lambda_n, with the")
print("ratio head pinned at >= log(sqrt(3)) by <e_1, r_1> = 1, so m = 1 cannot hold")

print("\n== truncation drift ||r_1^(N2) - r_1^(N1)|| ==")
for N1 in (4, 6, 8):
    drift = truncation_convergence(squares, 1, N1, 10, 256)
    print(f"  N1={N1}, N2=10: {mp.nstr(drift, 8)}")
print("drift shrinks as the head grows; the truncated duals stabilise from the front")
