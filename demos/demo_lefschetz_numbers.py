"""
Lefschetz numbers of the two conjugation involutions
====================================================

Principal congruence levels first: the surface-count table gives
(A, 2B) and the Lefschetz number -(A+2B) N^3/12 prod(1-p^-2) (k+1),
which must agree with the independent prime-power specialization.
Then level one, where the four-term formula needs a reading of its
bracket factors; the adjudication harness shows which reading survives.
"""

from bianchi_lefschetz.lefschetz import (BRACKET_VARIANTS, DEFAULT_BRACKET,
                                         adjudicate_brackets, lefschetz_level_one,
                                         lefschetz_sigma_prime_power,
                                         lefschetz_sigma_principal, make_level,
                                         summary_lines)
from bianchi_lefschetz.quadfield import make_field, two_torsion_count

print("principal levels, weight 0:")
for d, N in ((-7, 3), (-5, 3), (-2, 5), (-2, 9), (-11, 4)):
    f = make_field(d)
    level = make_level(f, N)
    L = lefschetz_sigma_principal(f, level, 0)
    note = " (A fractional alone; only A+2B matters)" if level.ab_warning else ""
    print(f"  d={d:>4} N={N:>3}: A={level.A} B={level.B} -> L = {L}{note}")

print("\ntwo routes, one number (d=-2, p=5):")
for n in (1, 2):
    for k in (0, 3):
        a = lefschetz_sigma_principal(make_field(-2), 5**n, k)
        b = lefschetz_sigma_prime_power(make_field(-2), 5, n, k)
        print(f"  n={n} k={k}: table route {a}, prime-power route {b}")

print("\nlevel one, weight 0 (all bracket readings coincide here):")
for d in (-2, -5, -7, -11):
    f = make_field(d)
    ls = lefschetz_level_one(f, "sigma", 0)
    lt = lefschetz_level_one(f, "tau", 0)
    print(f"  d={d:>4}: L(sigma) = {ls} = 2 + h - 2^(t-1) = "
          f"{2 + f.h - two_torsion_count(f)},  L(tau) = {lt}")

print("\nbracket adjudication over d in {-2,-5,-7,-11}, k <= 24:")
records = adjudicate_brackets([make_field(d) for d in (-2, -5, -7, -11)], 24)
for line in summary_lines(records):
    print(" ", line)
print(f"  shipped default: {DEFAULT_BRACKET}")

print("\nwhere the rejected readings break (d=-2):")
for variant in BRACKET_VARIANTS:
    vals = [str(lefschetz_level_one(make_field(-2), "sigma", k, variant))
            for k in range(5)]
    print(f"  {variant:>13}: L(sigma, k=0..4) = {vals}")
