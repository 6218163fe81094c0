"""Boundary (Eisenstein) side: cusp counts, traces in degrees 0/1/2, and
the conjugation operator on the span of Sczech cocycles.

The degree-1 trace at level p^n (p inert, class number one) has two
routes: a closed formula, and the trace of an explicit operator on the
formal span of the cocycles Psi(u, v), (u, v) != (0, 0), indexed
by four residues mod N.  After eliminating Psi(0, 0) the operator's entry
at (row (s,t), column (u,v)) is

    -1/(N^2 (N^2-1))  -  phi(pairing) / N^2,

so its trace is -(N^2+1) whenever phi vanishes on the diagonal pairing.
The pairing is bilinear mod N, so the operator is held as its 4 x 4 Gram
matrix of Python ints, which must be invertible mod N (a perfect
pairing): the trace comes out in O(N^3) integer steps and the defect of
M^2 = I from one kernel size of O(N^2) steps, both in O(N^2) memory.  The
dense (N^4-1)^2 matrix is only ever written out, as the matrix dump,
whose rows are joined from a table of per-block cells.
Which character phi and which pairing argument make this well defined is
not obvious, so three readings are registered in CHARACTER_VARIANTS:
construction refuses literal-d, whose character is not periodic on O,
and sczech_operator writes the Gram matrices of the other two, whose
shapes decide which one has the trace -(N^2+1).
"""

from __future__ import annotations

import cmath
import operator
from collections import Counter
from itertools import chain, islice, product, repeat
from typing import NamedTuple

from .exactmath import (ConformanceError, InputError, brief, factorize, require_bytes,
                        require_digits)
from .quadfield import (INERT, RAMIFIED, SIGMA, TAU, QuadField, ambiguous_form_count,
                        splitting_type, two_torsion_count, unimodular_column_count)

LITERAL_D = "literal-d"
INVERSE_DIFFERENT = "inverse-different"
SYMPLECTIC_INVDIFF = "symplectic-invdiff"
CHARACTER_VARIANTS = (LITERAL_D, INVERSE_DIFFERENT, SYMPLECTIC_INVDIFF)

# Selected by the adjudication grid in verify/sczech: the only variant
# whose pairing vanishes on the diagonal (trace -(N^2+1)) and squares to
# the identity on the span.
DEFAULT_VARIANT = SYMPLECTIC_INVDIFF

# Bytes the Sczech operator is charged per residue pair before allocating.
# The largest thing its construction, trace() and involution_defect() hold
# is one kernel size's count of half-values: tracemalloc peaks of 133-160
# bytes per pair at N = 30..100 and 183-208 at N = 300..400 (d = -2 and -7,
# both variants), so 256 is an upper bound.
_BYTES_PER_PAIR = 256
# The matrix dump's table is charged per cell of its N^7: tracemalloc peaks of
# the whole dump are 19.5, 15.2, 12.9, 11.5, 10.7 bytes a cell at N = 4..8.
_BYTES_PER_CELL = 24


class IllDefinedVariantError(ConformanceError):
    """The variant's character is not trivial on O, so it cannot descend
    to classes of torsion points; construction refuses it."""


# ---------------------------------------------------------------------------
# Cusp counts and the closed trace formulas
# ---------------------------------------------------------------------------


def cusp_count(field: QuadField, N: int) -> int:
    """c(Gamma(N)) = h times the unimodular columns of (O/(N))^2, that is
    h * N^4 * prod over primes P of (N) of (1 - Norm(P)^-2).

    c is the dimension of the boundary cohomology in degrees 0 and 2 (2c in
    degree 1) and of the Eisenstein part in each degree for k > 0, so it is
    also the worst-case window for unknown Eisenstein traces.
    """
    if N < 3:
        raise InputError(f"cusp_count requires N >= 3, got {N}")
    return field.h * unimodular_column_count(field, N)


def fixed_coset_formula(p: int, n: int, involution: str) -> int:
    """Unipotent cosets at level p^n fixed by the involution, in closed form:
    p^{2n} - p^{2n-2} for sigma and p^{2n-1} - p^{2n-2} for tau."""
    if involution not in (SIGMA, TAU):
        raise InputError(f"unknown involution {involution!r}")
    require_bytes(2 * n * p.bit_length() // 8, f"the integer {p}^{brief(2 * n)}")
    require_digits(p, 2 * n - 2, f"the fixed coset count at {p}^{brief(n)}")    # >= p^(2n-2)
    return p ** (2 * n if involution == SIGMA else 2 * n - 1) - p ** (2 * n - 2)


def trace_h2_eis(field: QuadField, N: int, k: int, involution: str) -> int:
    """Trace of the involution on degree-2 Eisenstein cohomology at
    unramified level N.

    -2^(t-1) * prod over p^n || N of fixed_coset_formula(p, n), plus 1 at
    weight zero (the compactly-supported correction); level one is the
    empty product.  For tau the closed formula is kept authoritative; the
    exhaustive coset census in finitering reports its own count next to
    it, and the two are allowed to disagree (see fixed_coset_report).
    """
    if involution not in (SIGMA, TAU):
        raise InputError(f"unknown involution {involution!r}")
    if k < 0:
        raise InputError(f"weight must be >= 0, got {brief(k)}")
    if N == 2:
        raise InputError(f"trace_{involution}_h2_eis requires N >= 3 (or N = 1), got 2")
    if N < 1:
        raise InputError(f"invalid level {brief(N)}")
    val = -two_torsion_count(field)
    for p, n in factorize(N):
        if splitting_type(field, p) == RAMIFIED:
            raise InputError(f"trace_{involution}_h2_eis requires unramified level; "
                             f"{p} ramifies in {field}")
        val *= fixed_coset_formula(p, n, involution)
    return val + (1 if k == 0 else 0)


class LevelOneTraces(NamedTuple):
    """Traces of sigma on level-one Eisenstein cohomology in degrees 0/1/2.

    At weight zero all three are exact.  For k > 0 the degree-1 trace is
    not pinned by any closed formula here, and is reported as None.
    """
    tr0: int
    tr1: int | None
    tr2: int


def level_one_sigma_traces(field: QuadField, k: int) -> LevelOneTraces:
    if k < 0:
        raise InputError(f"weight must be >= 0, got {brief(k)}")
    # sigma-fixed cusps as ambiguous forms, not trace_h2_eis's 2^(t-1)
    fixed_cusps = ambiguous_form_count(field.D)
    if k == 0:
        return LevelOneTraces(tr0=1, tr1=-field.h, tr2=-fixed_cusps + 1)
    return LevelOneTraces(tr0=0, tr1=None, tr2=-fixed_cusps)


def trace_sigma_h1_eis(field: QuadField, p: int, n: int) -> int:
    """Trace of sigma on degree-1 Eisenstein cohomology of Gamma(p^n),
    trivial coefficients, class number one, p inert.

    -(p^2 + 1) for n = 1 and -(p^{2n} - p^{2n-2}) for n > 1.  The n = 1
    value is exactly the trace of the cocycle-span operator below, because
    at level p the nonzero cocycle classes biject with the cusps.
    """
    if field.h != 1:
        raise InputError(f"degree-1 trace formula requires class number one, h={field.h}")
    if n < 1:
        raise InputError(f"need n >= 1, got {brief(n)}")
    spl = splitting_type(field, p)
    if spl != INERT:
        raise InputError(f"degree-1 trace formula requires an inert prime; {p} is {spl}")
    if n == 1:
        return -(p * p + 1)
    return -fixed_coset_formula(p, n, SIGMA)


# ---------------------------------------------------------------------------
# The conjugation operator on the span of Sczech cocycles
# ---------------------------------------------------------------------------


def _character_on_omega(field: QuadField, variant: str) -> complex:
    """Value of the variant's character at omega (a generator of O over Z).

    The operator only descends to classes of (1/N)O / O when the character
    kills O; since it always kills 1, omega is the whole check.
    phi(z) = exp(2 pi i (z - conj z) / D) has a real exponent at z = omega
    (the D in the denominator is real, the numerator is sqrt(D)), while
    dividing by sqrt(D) instead gives exp(2 pi i) = 1.
    """
    sqrt_d = complex(0.0, abs(field.D) ** 0.5)  # sqrt(D) for D < 0
    if variant == LITERAL_D:
        return cmath.exp(2j * cmath.pi * sqrt_d / field.D)
    if variant in (INVERSE_DIFFERENT, SYMPLECTIC_INVDIFF):
        return cmath.exp(2j * cmath.pi * sqrt_d / sqrt_d)
    raise InputError(f"unknown character variant {variant!r}")


def variant_periodicity_defect(field: QuadField, variant: str) -> float:
    return abs(_character_on_omega(field, variant) - 1.0)


def _roots_of_unity(N: int) -> list[complex]:
    """exp(2 pi i k / N) for k < N, the angle rounded as 2 pi k * (1/N)."""
    step = 1.0 / N
    return [cmath.exp(complex(0.0, 2 * cmath.pi * k * step)) for k in range(N)]


class SczechOperator:
    """Conjugation action on the cocycle span, held as its pairing.

    Index set: quadruples x = (a1, b1, a2, b2) mod N, zero excluded, in
    lexicographic order; x encodes the pair of torsion points
    u = (a1 + b1 w)/N, v = (a2 + b2 w)/N.  The entry at (x, z) is
    -a - e(x^T A z / N) / N^2 with a = 1/(N^2 (N^2 - 1)) and
    e(t) = exp(2 pi i t), so the 4 x 4 integer Gram matrix A of the pairing
    (a tuple of rows of ints) fixes the operator.  The pairing must be
    perfect: a Gram matrix with A x = 0 for some x != 0 mod N is refused
    at construction, before any other work.  trace() is read off A in
    O(N^3) integer steps and involution_defect() in O(N^2), neither holding
    more than O(N^2); the dense matrix exists only as the text of the dump.
    """

    def __init__(self, N: int, gram) -> None:
        self.N = N
        self.gram = tuple(tuple(int(a) for a in row) for row in gram)
        if self._kernel_size(self.gram) != 1:
            raise InputError(f"the Gram matrix {self.gram} is singular mod {N}; "
                             "the operator needs a perfect pairing")

    def _entry_values(self) -> list[complex]:
        """The N values an entry takes, indexed by its pairing exponent.

        Both divisions are multiplications by reciprocals, which fixes the
        last digit of each value in the dump.
        """
        n2 = self.N**2
        a, r = -1.0 / (n2 * (n2 - 1)), 1.0 / n2
        return [complex(a - z.real * r, 0.0 - z.imag * r) for z in _roots_of_unity(self.N)]

    def trace(self) -> complex:
        """Sum of the diagonal, from the counts c_k of q(x) = x^T A x = k mod N:

            -(N^4 - 1) / (N^2 (N^2 - 1)) - sum_k c_k e(k/N) / N^2,

        with the k = 0 part -(N^2 + 1 + c_0) / N^2 one correctly rounded division
        of integers, so the trace is exactly -(N^2 + 1) when q vanishes.
        q(x) = q(x0, x1, x2, 0) + l x3 + A33 x3^2 with l linear in (x0, x1, x2),
        so the prefixes (x0, x1, x2) are counted by q(x0, x1, x2, 0) N + l (each
        mod N) and x3 runs once per class: O(N^3) steps.
        """
        N, n2, A = self.N, self.N**2, self.gram
        s = [[A[i][j] + A[j][i] for j in range(4)] for i in range(4)]
        prefixes = Counter(
            (A[0][0] * x0 * x0 + A[1][1] * x1 * x1 + A[2][2] * x2 * x2
             + s[0][1] * x0 * x1 + s[0][2] * x0 * x2 + s[1][2] * x1 * x2) % N * N
            + (s[0][3] * x0 + s[1][3] * x1 + s[2][3] * x2) % N
            for x0, x1, x2 in product(range(N), repeat=3))
        counts = [0] * N
        for key, n in prefixes.items():
            head, slope = divmod(key, N)
            for x3 in range(N):
                counts[(head + slope * x3 + A[3][3] * x3 * x3) % N] += n
        counts[0] -= 1                                              # x = 0 is no index
        exact = -(n2 + 1 + counts[0]) / n2
        roots = _roots_of_unity(N)
        return exact - complex(sum(c * z for c, z in zip(counts[1:], roots[1:]))) / n2

    def _kernel_size(self, rows) -> int:
        """#{x mod N : M x = 0} for the integer matrix M with these rows.

        M x = 0 exactly when M (x0, x1, 0, 0) = -M (0, 0, x2, x3), so the
        values of the first half are counted over its N^2 arguments and
        looked up for each value of the second: O(N^2) steps and memory.
        A value is keyed as the base-N integer with one digit per row of M.
        """
        N = self.N
        pairs = list(product(range(N), repeat=2))

        def half(i: int, sign: int) -> list[int]:
            keys = [0] * len(pairs)
            for r in rows:
                a, b = sign * r[i], sign * r[i + 1]
                keys = [k * N + (a * p + b * q) % N for k, (p, q) in zip(keys, pairs)]
            return keys

        counts = Counter(half(0, 1))
        return sum(map(counts.get, half(2, -1), repeat(0)))

    def involution_defect(self) -> float:
        """max |M^2 - I| over all entries, exactly, from the structure of M^2.

        Write M = -a J - chi / N^2 with J all ones.  The pairing is perfect,
        so A^T x and A z vanish only at x = z = 0, which is no index, and

            chi^2[x, z] = N^4 [A^T x + A z = 0] - 1,   chi J = J chi = -J,

        so an entry of M^2 - I depends only on dlt = [-A^T x = A z] and
        [x = z].  dlt holds at one z in each row, z = -A^-1 A^T x, and that z
        is x exactly when (A + A^T) x = 0: one kernel size counts these rows
        as `equal`.  The maximum runs over the pairs (dlt, [x = z]) that
        occur, each entry an integer over N^4 (N^2 - 1)^2, and is divided
        once (correctly rounded).
        """
        N, A = self.N, self.gram
        size, n4, m = N**4 - 1, N**4, N**2 - 1      # a = 1 / (N^2 m)
        # x = 0 is no index; it lies in the kernel
        equal = self._kernel_size([list(map(operator.add, r, t))
                                   for r, t in zip(A, zip(*A))]) - 1
        # entries per (dlt, [x = z]): the first two on the diagonal, the others off it
        count = {(0, 1): size - equal, (1, 1): equal,
                 (1, 0): size - equal, (0, 0): size * (size - 2) + equal}
        return max(abs(size - 2 * m - m * m + (dlt - eq) * n4 * m * m)
                   for (dlt, eq), n in count.items() if n) / (n4 * m * m)


def sczech_operator(field: QuadField, N: int, variant: str = DEFAULT_VARIANT) -> SczechOperator:
    """The operator for the chosen variant, held as the Gram matrix of its pairing.

    Entry (x, z), x = (a1, b1, a2, b2) and z = (g1, g2, d1, d2), has exponent
    y(alpha delta - beta gamma) mod N on alpha = a1 + b1 w, beta = a2 + b2 w,
    gamma = g1 + g2 w, delta = d1 + d2 w, where y(w) is the omega-coefficient,
    the residue pairing Tr(w / sqrt(D)): y((x1 + x2 w)(z1 + z2 w)) =
    x1 z2 + x2 z1 + T x2 z2 with T = w + conj(w), which gives the A below (row
    i, column j: the exponent at x = e_i, z = e_j).  inverse-different takes
    conj(gamma) and conj(delta), and conj(g1 + g2 w) = (g1 + T g2) - g2 w
    cancels every T.  symplectic-invdiff's A is antisymmetric: q(x) = x^T A x
    vanishes and the trace is -(N^2 + 1) for every field.  inverse-different's
    is symmetric and free of T, q(x) = 2 (x1 x2 - x0 x3): its trace is the same
    for every field, -(N^2 + S) / N^2 with the Gauss sum S = (N gcd(2, N))^2,
    so -2 at odd N and -5 at even N, meeting -(N^2 + 1) only at N = 2.
    """
    if N < 2:
        raise InputError(f"sczech_operator requires N >= 2, got {brief(N)}")
    require_bytes(_BYTES_PER_PAIR * N**2, f"the operator at N={brief(N)}")
    if variant not in CHARACTER_VARIANTS:
        raise InputError(f"unknown character variant {variant!r}")
    defect = variant_periodicity_defect(field, variant)
    if defect > 1e-12:
        raise IllDefinedVariantError(
            f"variant {variant!r} is not O-periodic (defect {defect:.3e}); "
            "it does not define an operator on classes of torsion points")
    T = field.omega_trace
    if variant == SYMPLECTIC_INVDIFF:
        gram = ((0, 0, 0, 1), (0, 0, 1, T), (0, -1, 0, 0), (-1, -T, 0, 0))
    else:
        gram = ((0, 0, 0, -1), (0, 0, 1, 0), (0, 1, 0, 0), (-1, 0, 0, 0))
    return SczechOperator(N, [[a % N for a in row] for row in gram])


class SczechTrace(NamedTuple):
    value: float       # real part of the matrix trace
    imag: float        # diagnostic; must be ~0
    expected: int      # -(N^2 + 1)


def sczech_trace(field: QuadField, N: int, variant: str = DEFAULT_VARIANT) -> SczechTrace:
    op = sczech_operator(field, N, variant)
    tr = op.trace()
    return SczechTrace(value=tr.real, imag=tr.imag, expected=-(N * N + 1))


def write_matrix_dump(op: SczechOperator, path: str) -> None:
    """Plain-text dump: one 'i j re im' row per entry, row-major, 17 digits.

    Entry (x, z) is fixed by r . z mod N with r = A^T x.  In the N^2 blocks
    of columns with one (z0, z1), a block's cells depend only on the block,
    s = r0 z0 + r1 z1 and (r2, r3), so a table of those N^5 cell tuples (N^7
    "j re im" strings) is built once, and row x is "i " joined over the N^2
    tuples its r picks: no Python step per entry.  The file, (N^4 - 1)^2
    lines of at most the longest line, and the table, _BYTES_PER_CELL a
    cell, must each fit the budget before anything is allocated or opened.
    A path that cannot be opened or written is an input error.
    """
    N, A = op.N, op.gram
    n2, size = N * N, N**4 - 1
    values = [f"{z.real:.17g} {z.imag:.17g}\n" for z in op._entry_values()]
    line = 2 * len(f"{size - 1} ") + max(map(len, values))   # longest "i j re im"
    require_bytes(size * size * line, f"the {size} x {size} matrix dump file "
                  f"(at most {line} bytes a line)")
    require_bytes(_BYTES_PER_CELL * N**7, f"the dump's table of {N**7} cells")
    # cells[z0 N^3 + z1 N^2 + z2 N + z3][e]: "j re im" of column z at exponent e;
    # z = 0 is no column, and its empty cell makes "i ".join lead with "i "
    heads = [f"{j} " for j in range(size)]
    cells = [("",) * N, *zip(*[map(operator.add, heads, repeat(v)) for v in values])]
    blocks = [cells[b * n2:(b + 1) * n2] for b in range(n2)]
    pairs = list(product(range(N), repeat=2))
    # table[r2 N + r3][s N^2 + b]: block b's cells at exponents s + r2 z2 + r3 z3
    table = [[tuple(map(operator.getitem, block, exps)) for exps in
              [[(s + r2 * z2 + r3 * z3) % N for z2, z3 in pairs] for s in range(N)]
              for block in blocks] for r2, r3 in pairs]
    keys = [[(r0 * z0 + r1 * z1) % N * n2 + b for b, (z0, z1) in enumerate(pairs)]
            for r0, r1 in pairs]                                  # keys[r0 N + r1][b]
    # r = A^T x as the sum of its parts from (x0, x1) and from (x2, x3)
    high, low = ([[A[i][k] * p + A[i + 1][k] * q for k in range(4)] for p, q in pairs]
                 for i in (0, 2))
    try:
        with open(path, "w") as fh:
            for i, (hi, lo) in enumerate(islice(product(high, low), 1, None)):  # no x = 0
                r0, r1, r2, r3 = ((a + b) % N for a, b in zip(hi, lo))
                picks = map(table[r2 * N + r3].__getitem__, keys[r0 * N + r1])
                fh.write(f"{i} ".join(chain.from_iterable(picks)))
    except OSError as exc:
        raise InputError(f"cannot write the matrix dump to {path}: "
                         f"{exc.strerror or exc}") from exc
