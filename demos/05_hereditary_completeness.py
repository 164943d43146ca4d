"""Mixed monomial/dual systems over every partition of the index set.

Being a strong Markushevich basis means: swap any subset of the monomials
for their duals and the mixed family still spans everything.  At finite
truncation that is an invertibility statement, checked here exhaustively
for N = 10 (all 1024 partitions) and summarised by the smallest singular
value.  Each check encloses sigma_min between a certified lower bound and
the power-iteration estimate; a system counts as invertible when the
lower bound clears 10^(-bits/4).  The reconstruction residual of an
outside target is the same for every partition: all mixed systems span
the same truncated space.
"""

from mpmath import mp

from muntzlab import (
    Partition,
    all_partitions,
    dual_family,
    finite_series,
    generate_exponents,
    mixed_completeness_check,
    mixed_reconstruction_residual,
)

mp.prec = 256

squares = generate_exponents("power", {"p": 2}, 12)
fam = dual_family(squares, 10, 256)

print("== exhaustive sweep over all 2^10 partitions ==")
worst = None
invertible = 0
for part in all_partitions(10):
    check = mixed_completeness_check(part, fam)
    invertible += check.invertible
    if worst is None or check.min_singular < worst[0].min_singular:
        worst = (check, part)
print(f"invertible: {invertible} / 1024")
print("smallest sigma_min:", mp.nstr(worst[0].min_singular, 5),
      "(certified >", mp.nstr(worst[0].sigma_lower, 5) + ")",
      "at monomial set", sorted(worst[1].n1))

print("\n== sigma_min trend over the truncation for the odds/evens split ==")
for N in (4, 6, 8, 10):
    famN = dual_family(squares, N, 256)
    part = Partition.from_monomial_set(range(1, N + 1, 2), N)
    chk = mixed_completeness_check(part, famN)
    print(f"  N={N:2d}  sigma_min = {mp.nstr(chk.min_singular, 5)}")
print("(the trend is reported, not extrapolated: no uniform-conditioning claim)")

print("\n== partition-independent reconstruction residual ==")
t3 = finite_series(generate_exponents("integers", {"values": [3]}, 1), [1])
values = []
for part in list(all_partitions(10))[:8]:
    values.append(mixed_reconstruction_residual(t3, part, fam))
print("t^3 residuals over 8 partitions:", [mp.nstr(v, 8) for v in values[:4]], "...")
print("max spread:", mp.nstr(max(values) - min(values), 3))
