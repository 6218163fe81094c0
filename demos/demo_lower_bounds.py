"""
Cuspidal lower bounds
=====================

The assembly: a Lefschetz number, the three boundary traces, and the
halved absolute value.  Exact mode (class number one, inert prime power,
weight zero) pins every ingredient; elsewhere the unknown degree-1 trace
is replaced by the worst-case window [-c, c].  The tower is set against
the volume scale 5^(3n), and the weight growth of L and the GL2 traces
come from the same functions the CLI calls.
"""

from bianchi_lefschetz.bounds import cusp_lower_bound, gl2_trace_sigma1
from bianchi_lefschetz.lefschetz import lefschetz_sigma_principal
from bianchi_lefschetz.quadfield import make_field

f2 = make_field(-2)

print("exact tower at d = -2, p = 5, weight 0, against the volume scale 5^(3n):")
for n in (1, 2, 3):
    rep = cusp_lower_bound(f2, 5**n, 0)
    print(f"  N = 5^{n}: L = {rep.L:>8}, tr1 = {rep.tr1_eis:>7}, tr2 = {rep.tr2_eis:>7}, "
          f"tr0 = {rep.tr0} -> bound {rep.bound:>6} = {rep.bound / 5 ** (3 * n):.6f} * 5^{3 * n}")

print("\nworst-case mode when no exact degree-1 trace exists:")
for d, N, k in ((-7, 3, 2), (-2, 3, 0), (-7, 3, 0)):
    rep = cusp_lower_bound(make_field(d), N, k)
    window = f"|tr1| <= {rep.tr1_window}" if rep.tr1_window else f"tr1 = {rep.tr1_eis}"
    print(f"  d={d:>4} N={N} k={k}: mode {rep.mode:>10}, {window}, bound {rep.bound}")

print("\nweight growth is linear: L(sigma, Gamma(3)) = (k+1) * L(k=0) at d = -7:")
f7 = make_field(-7)
print("  " + ", ".join(f"k={k}: {lefschetz_sigma_principal(f7, 3, k)}" for k in range(0, 21, 4)))

traces = {k: gl2_trace_sigma1(f2, k) for k in range(0, 25, 2)}
first = min(k for k, value in traces.items() if value)
print(f"\ntrace of sigma on GL2 cohomology at d = -2, even weights (nonzero from k = {first}):")
print("  " + ", ".join(f"k={k}: {value}" for k, value in traces.items()))

print("\nper-ingredient provenance travels with every report:")
rep = cusp_lower_bound(f2, 25, 0)
for key, src in sorted(rep.provenance.items()):
    print(f"  {key}: {src}")
