"""
The conjugation operator on the span of Sczech cocycles
=======================================================

The cocycles Psi(u, v), indexed by pairs of N-torsion points with
(u, v) != (0, 0), span the degree-1 Eisenstein cohomology at level N.
Conjugation acts on the span by a matrix whose every entry is
-1/(N^2(N^2-1)) minus a character value over N^2.  Three readings of
that character are registered; construction-time periodicity plus the
trace and involution tests single one out.  Trace and involution defect
come from the 4x4 Gram matrix of the pairing; the spectrum at the end is
computed with numpy from the entries of a small matrix dump.
"""

import os
import tempfile

import numpy as np

from bianchi_lefschetz.eisenstein import (CHARACTER_VARIANTS, DEFAULT_VARIANT,
                                          IllDefinedVariantError, sczech_operator,
                                          trace_sigma_h1_eis,
                                          variant_periodicity_defect,
                                          write_matrix_dump)
from bianchi_lefschetz.quadfield import make_field

print("character variants at d = -2:")
f2 = make_field(-2)
for variant in CHARACTER_VARIANTS:
    defect = variant_periodicity_defect(f2, variant)
    status = "O-periodic" if defect < 1e-12 else f"NOT O-periodic (defect {defect:.2e})"
    print(f"  {variant:>20}: {status}")

print("\ntrace and involution defect per admissible variant:")
for d, N in ((-2, 2), (-2, 3), (-2, 4), (-2, 5), (-7, 2), (-7, 3)):
    f = make_field(d)
    for variant in CHARACTER_VARIANTS:
        try:
            op = sczech_operator(f, N, variant)
        except IllDefinedVariantError:
            continue
        tr = op.trace()
        print(f"  d={d:>4} N={N} {variant:>20}: trace {tr.real:+9.4f} "
              f"(target {-(N * N + 1):>4}), ||M^2 - I|| = {op.involution_defect():.2e}")

print(f"\nselected default: {DEFAULT_VARIANT}")

# At level 5 over Q(sqrt(-2)) the nonzero cocycle classes exhaust the
# degree-1 Eisenstein space (624 = c(Gamma(5))), so the operator trace is
# itself the degree-1 trace.
op = sczech_operator(f2, 5)
closed = trace_sigma_h1_eis(f2, 5, 1)
print(f"\noperator trace at (d=-2, N=5): {op.trace().real:+.10f}")
print(f"closed degree-1 Eisenstein trace: {closed}")

# Eigenvalue picture: an involution has spectrum {-1, +1}; the trace is
# the signed multiplicity gap.  At level 3 (80 x 80) the dense matrix is
# read back from the dump, whose 17 digits round-trip every entry.
N = 3
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "matrix.txt")
    write_matrix_dump(sczech_operator(f2, N), path)
    cells = np.loadtxt(path)
m = (cells[:, 2] + 1j * cells[:, 3]).reshape(N**4 - 1, N**4 - 1)  # the dump is row-major
eig = np.linalg.eigvalsh(m)
plus = int((np.abs(eig - 1) < 1e-9).sum())
minus = int((np.abs(eig + 1) < 1e-9).sum())
print(f"spectrum at (d=-2, N={N}): {plus} eigenvalues +1, {minus} eigenvalues -1, "
      f"difference {plus - minus} (target {-(N * N + 1)})")
