"""The dilation operator and its spectral-synthesis certificate.

T_rho substitutes rho*x into the argument; on the monomials it acts
diagonally with eigenvalues rho^lambda_n, but in orthonormal coordinates
the matrix is upper triangular and decidedly not normal.  Every number
below comes from the Gram matrix G, its inverse C and the eigenvalues u;
no orthonormal basis is formed.  The certificate
checks, at finite truncation, every property that the synthesis argument
needs: compactness via finite-rank decay, the eigen and adjoint
relations, kernel triviality, the spectrum, simplicity, non-normality,
and a certified floor on sigma_min over every mixed system.  An item
passes on a certified end that proves its property and fails only on one
that proves the negation; at rho = 0.8 the tails are not monotone, and
the certificate still passes.
"""

from mpmath import matrix, mp

from muntzlab import (
    dilation_operator,
    dual_family,
    finite_rank_error,
    generate_exponents,
    normality_defect,
    synthesis_certificate,
)

mp.prec = 256

lam12 = generate_exponents("integers", {"values": [1, 2]}, 2)
fam2 = dual_family(lam12, 2, 256)
op2 = dilation_operator(lam12, 0.5, 2)

print("== the 2x2 picture ==")
print("Gram matrix G:")
print(matrix(fam2.gram.entries))
print("dual coefficients C = G^-1:")
print(matrix(fam2.inverse_rows))
print("eigenvalues u:", [mp.nstr(u, 8) for u in op2.u])
print("normality defect ||MM* - M*M||_F =", mp.nstr(normality_defect(op2, fam2), 8),
      " (= sqrt(15/8), from 2 tr((C U* G U)^2) - 2 tr(U^2 C U*^2 G))")
print("finite-rank error ||T - T_1|| =", mp.nstr(finite_rank_error(op2, fam2, 1)[0], 8))

print("\n== certificate at N = 10, squares, 512 bits ==")
squares = generate_exponents("power", {"p": 2}, 12)
fam10 = dual_family(squares, 10, 512)
op10 = dilation_operator(squares, 0.5, 10)
cert = synthesis_certificate(op10, fam10)
print("status:", cert.status)
for item in cert.items:
    print(f"  {item.name:22s} passed={item.passed}")
print("eigen bound:     ", mp.nstr(cert.eigen_residual, 3))
print("adjoint bound:   ", mp.nstr(cert.adjoint_residual, 3))
print("kernel sigma_min:", mp.nstr(cert.kernel_min_singular, 3))
print("normality defect:", mp.nstr(cert.normality_defect, 6))

print("\nfinite-rank errors ||T - T_m|| against the decay envelope:")
print("   m    computed        envelope bound")
for m, computed, bound in cert.finite_rank_errors:
    print(f"  {m:2d}   {mp.nstr(computed, 6):>12}    {mp.nstr(bound, 6):>12}")
print("(each norm is a certified enclosure from pencil_lambda_max, and the")
print("item passes when every upper end is at most its bound: the envelope")
print("falls to 0 at m = N, so the tails decay.  It fails only when a lower")
print("end lies above the bound.  An iteration that reaches its step limit")
print("hands its last iterate to the certificate; it does not make the item")
print("inconclusive.)")

print("\n== rho = 0.8: tails that grow before they decay ==")
cert8 = synthesis_certificate(dilation_operator(squares, 0.8, 10), fam10)
print("status:", cert8.status, " finite_rank_decay passed =",
      cert8.item("finite_rank_decay").passed)
print("   m    certified enclosure of ||T - T_m||       envelope bound")
for (m, lower, upper), (_, _, bound) in zip(cert8.finite_rank_enclosures[:5],
                                            cert8.finite_rank_errors):
    print(f"  {m:2d}   [{mp.nstr(lower, 8):>12}, {mp.nstr(upper, 8):>12}]    {mp.nstr(bound, 6):>12}")
print("(the tails grow from m = 0 to m = 3, with disjoint enclosures, yet every")
print("one lies under the envelope: compactness needs ||T - T_m|| -> 0, not a")
print("monotone approach, so the item passes)")
