"""Brute-force layer: arithmetic and censuses in R = O/(N).

Elements of R are coefficient pairs (a, b) with 0 <= a, b < N meaning
a + b*omega.  The conjugation sigma sends omega to T - omega (T the trace
of omega), so it acts directly on pairs; split and inert levels share one
code path and no CRT decomposition is ever needed here (the tests build
the CRT isomorphism independently to cross-check).

The censuses work on element codes k = a*N + b, the index of (a, b) in
`FiniteRing.elements()`, through two tables that each ring builds on
first use and keeps:
- `masks()`: one byte per element, bit i set when it lies in the i-th
  maximal ideal (N^2 bytes).  A unit has mask 0, and (x, y) is unimodular
  when masks[x] & masks[y] == 0; `is_unit` and `is_unimodular` read it too.
- `product_rows()`: the |R|^2 = N^4 codes of x*y.  Only the censuses that
  already do |R|^2 work build it; the coset census, which runs to N = 49,
  reads the masks alone.
Every pair handed back holds the tuples of `elements()`.  The SL2 listing
hands back packed codes, four element codes in one int per matrix, and
`FiniteRing.matrix` decodes one into those tuples.

The censuses are the exhaustive side of dual-route checks: SL2 orders,
projective lines, unipotent-coset fixed-point counts under the two
involutions, and cusp counts.  None of them uses a closed formula.  Each
does work in proportion to what it must examine:
- the SL2 count tallies the |R|^2 products once;
- the projective line scans the N^4 pairs once, at C speed, and reads
  2 * |units| products per point;
- the local SL2 listing reads each product row once and writes its
  output a block of byte columns at a time; the brute SL2 filter looks up
  d from (a, b, c) in |R|^3 steps at C speed;
- the coset census pairs the O(N) fixed first coordinates with the O(N)
  fixed second coordinates;
- the cusp census pairs the distinct mask values, weighted by how many
  elements carry each.
"""

from __future__ import annotations

import sys
from collections import Counter
from operator import mul
from typing import NamedTuple

from .eisenstein import fixed_coset_formula
from .exactmath import ConformanceError, InputError, as_integer, factorize, require_bytes
from .quadfield import (INERT, RAMIFIED, SIGMA, SPLIT, TAU, QuadField,
                        norm_euler_product, splitting_type)

Elem = tuple[int, int]
Mat = tuple[Elem, Elem, Elem, Elem]  # (a, b, c, d) row-major

# The SL2 listing codes each element in one byte, so |R| = N^2 <= 256.
_MAX_LISTED_LEVEL = 16
# Byte offsets of a, b, c, d in a listed matrix's 4 bytes, so that the
# native unsigned int they form is a << 24 | b << 16 | c << 8 | d.
_SLOT_OFFSETS = (0, 1, 2, 3) if sys.byteorder == "big" else (3, 2, 1, 0)
# Bytes the SL2 listing holds per matrix: its 4-byte code, the spare room
# of the growing bytearray and one block of columns (tracemalloc: 4.3-6.5
# at N = 7..13, split, inert and ramified), so 8 is an upper bound.
_BYTES_PER_MATRIX = 8
# Bytes one code of the product table holds: its list slot and, past the
# small ints Python shares, a boxed int (tracemalloc: 8.7, 18.2, 25.5,
# 31.6, 34.2 and 35.6 at N = 11, 19, 23, 31, 37, 41), so 40, the 8-byte
# slot and a 32-byte int block, is an upper bound.
_BYTES_PER_PRODUCT = 40
# Bytes the P^1 scan holds per code pair: its bytearray of marks and the
# bytes it is joined from (tracemalloc: 2.0-2.2 at N = 9..37), so 3.
_BYTES_PER_SCANNED_PAIR = 3


class FiniteRing:
    """The quotient ring O/(N) with its conjugation involution.

    Element k = a*N + b of `elements()` is the pair (a, b); the censuses
    work on these codes through `masks()` and `product_rows()`, both built
    on first use and kept for the life of the ring.
    """

    def __init__(self, field: QuadField, N: int):
        if N < 2:
            raise InputError(f"FiniteRing requires N >= 2, got {N}")
        self.field = field
        self.N = N
        self.T = field.omega_trace
        self.Nm = field.omega_norm
        # For each rational prime p | N: (p, splitting, roots of the minimal
        # polynomial of omega mod p).  The roots describe the maximal ideals
        # over p, from which masks() is built.
        self.primes = []
        for p, e in factorize(N):
            spl = splitting_type(field, p)
            roots = [r for r in range(p) if (r * r - self.T * r + self.Nm) % p == 0]
            expected = {SPLIT: 2, RAMIFIED: 1, INERT: 0}[spl]
            if len(roots) != expected:
                raise ConformanceError(
                    f"root count {len(roots)} mod {p} contradicts splitting {spl}")
            self.primes.append((p, e, spl, tuple(roots)))
        self._elements: list[Elem] | None = None
        self._masks: bytes | None = None
        self._rows: list[list[int]] | None = None

    # -- ring operations ----------------------------------------------------

    @property
    def zero(self) -> Elem:
        return (0, 0)

    @property
    def one(self) -> Elem:
        return (1, 0)

    def add(self, x: Elem, y: Elem) -> Elem:
        return ((x[0] + y[0]) % self.N, (x[1] + y[1]) % self.N)

    def sub(self, x: Elem, y: Elem) -> Elem:
        return ((x[0] - y[0]) % self.N, (x[1] - y[1]) % self.N)

    def neg(self, x: Elem) -> Elem:
        return ((-x[0]) % self.N, (-x[1]) % self.N)

    def mul(self, x: Elem, y: Elem) -> Elem:
        # (a + b w)(c + e w) with w^2 = T w - Nm
        a, b = x
        c, e = y
        return ((a * c - self.Nm * b * e) % self.N,
                (a * e + b * c + self.T * b * e) % self.N)

    def sigma(self, x: Elem) -> Elem:
        # conj(a + b w) = a + b (T - w)
        return ((x[0] + self.T * x[1]) % self.N, (-x[1]) % self.N)

    def elements(self) -> list[Elem]:
        if self._elements is None:
            self._elements = [(a, b) for a in range(self.N) for b in range(self.N)]
        return self._elements

    def code(self, x: Elem) -> int:
        """The index of x in elements()."""
        return x[0] % self.N * self.N + x[1] % self.N

    def matrix(self, code: int) -> Mat:
        """The entries (a, b, c, d), objects of elements(), of a matrix code
        a << 24 | b << 16 | c << 8 | d of enumerate_sl2."""
        els = self.elements()
        return els[code >> 24], els[code >> 16 & 255], els[code >> 8 & 255], els[code & 255]

    # -- tables over element codes -------------------------------------------

    def masks(self) -> bytes:
        """Bit i of masks()[k] is set when element k lies in the i-th maximal
        ideal: pO for an inert p, (p, omega - r) for each root r mod p.

        Membership in an ideal over p depends on (a mod p, b mod p) only,
        so each ideal's bits are a p x p tile repeated over the N x N codes.
        """
        if self._masks is None:
            ideals = [(p, r) for p, _, spl, roots in self.primes
                      for r in ((None,) if spl == INERT else roots)]
            if len(ideals) > 8:
                raise InputError(f"O/({self.N}) has {len(ideals)} maximal ideals; "
                                 "the unit masks hold at most 8")
            N = self.N
            bits = 0
            for i, (p, r) in enumerate(ideals):
                # a + b w lies in pO when p | a, b; in (p, w - r) when p | a + b r
                inside = [[a % p == b % p == 0 if r is None else (a + b * r) % p == 0
                           for b in range(p)] for a in range(p)]
                tile = b"".join(bytes(1 << i if hit else 0 for hit in row) * (N // p)
                                for row in inside)
                bits |= int.from_bytes(tile * (N // p), "big")
            self._masks = bits.to_bytes(N * N, "big")
        return self._masks

    def product_rows(self) -> list[list[int]]:
        """product_rows()[x][y] is the code of x*y: |R|^2 entries, charged
        against the memory budget before the first row is built."""
        if self._rows is None:
            N, T, Nm = self.N, self.T, self.Nm
            require_bytes(_BYTES_PER_PRODUCT * N**4,
                          f"the product table at (d={self.field.d}, N={N})")
            rows = []
            for a in range(N):
                for b in range(N):
                    # (a + b w)(c + e w) = (a c - Nm b e) + (b c + (a + T b) e) w
                    m, s = Nm * b, a + T * b
                    rows.append([(a * c - m * e) % N * N + (b * c + s * e) % N
                                 for c in range(N) for e in range(N)])
            self._rows = rows
        return self._rows

    # -- units and unimodular pairs ------------------------------------------

    def is_unit(self, x: Elem) -> bool:
        return not self.masks()[self.code(x)]

    def is_unimodular(self, x: Elem, y: Elem) -> bool:
        """True when the pair (x, y) generates the unit ideal of R, that is
        when no maximal ideal holds both coordinates."""
        masks = self.masks()
        return not masks[self.code(x)] & masks[self.code(y)]

    def units(self) -> list[Elem]:
        els = self.elements()
        return [els[k] for k, m in enumerate(self.masks()) if not m]

    def inverse(self, x: Elem) -> Elem:
        """x^-1 = sigma(x) * Nm(x)^-1, where Nm(x) = x * sigma(x) lies in Z/N."""
        n = self.mul(x, self.sigma(x))[0]
        try:
            n_inv = pow(n, -1, self.N)
        except ValueError:
            raise InputError(f"{x} is not a unit of O/({self.N})") from None
        inv = self.mul(self.sigma(x), (n_inv, 0))
        if self.mul(x, inv) != self.one:
            raise ConformanceError(f"sigma(x) / Nm(x) does not invert x = {x} "
                                   f"in O/({self.N})")
        return inv


# -- orders and enumerations ---------------------------------------------------


def sl2_order_formula(field: QuadField, N: int) -> int:
    """#SL2(O/(N)) = N^6 * prod over primes of (N) of (1 - Norm(P)^-2)."""
    return as_integer(N**6 * norm_euler_product(field, N), "SL2 order")


def _sl2_count_exhaustive(ring: FiniteRing) -> int:
    # Count quadruples with a*d - b*c = 1 through the product-count table:
    # sum over v of #{(b,c): bc = v} * #{(a,d): ad = 1 + v}.  Adding
    # 1 = (1, 0) to a code adds N, modulo |R| = N^2.
    prod: Counter[int] = Counter()
    for row in ring.product_rows():
        prod.update(row)
    N, size = ring.N, ring.N * ring.N
    return sum(n * prod[(v + N) % size] for v, n in prod.items())


def sl2_order(ring: FiniteRing) -> int:
    """Order of SL2(O/(N)): exhaustive for |R| <= 81, closed formula beyond.

    Wherever both routes run they must agree; a mismatch raises, since it
    would mean either the enumeration or the norm formula is wrong.
    """
    formula = sl2_order_formula(ring.field, ring.N)
    if ring.N <= 9:
        exhaustive = _sl2_count_exhaustive(ring)
        if exhaustive != formula:
            raise ConformanceError(
                f"SL2 order mismatch at (d={ring.field.d}, N={ring.N}): "
                f"enumeration {exhaustive} vs formula {formula}")
    return formula


def _slots(a: int, b: bytes, c: bytes, d: bytes) -> bytearray:
    """Matrices with first entry a and byte columns b, c, d of equal length,
    4 bytes each, read as a native unsigned int a << 24 | b << 16 | c << 8 | d."""
    blk = bytearray(4 * len(d))
    for off, col in zip(_SLOT_OFFSETS, (bytes((a,)) * len(d), b, c, d)):
        blk[off::4] = col
    return blk


def enumerate_sl2(ring: FiniteRing) -> memoryview:
    """All of SL2(R) as packed codes: the matrix (a, b; c, d) of element
    codes is the unsigned int a << 24 | b << 16 | c << 8 | d, and
    ring.matrix(code) gives its entries as objects of ring.elements().

    Element codes fit a byte only while |R| = N^2 <= 256, so N > 16 is
    refused; the output is charged against the memory budget before
    anything is built.  Both branches read the product rows as bytes, |R|^2
    codes made once per ring, and write a block of matrices at a time,
    column by column.  Non-local R: a brute filter in |R|^3 steps.  For each
    a the d are bucketed by the code of a*d, and each (b, c) takes the d in
    the bucket of 1 + b*c; the codes come in lexicographic (a, b, c, d)
    order.  Local R: every unimodular column (a, c) has a unit coordinate,
    so it is completed to one matrix (a, b0; c, d0) and the unipotent fibre
    (a, b0 + x*a; c, d0 + x*c) over it is listed for x in code order.  Row
    y of the product table holds x*y for every x, so a fibre's b or d
    entries are a row translated by b0 or d0 (one bytes.translate); for a
    unit a, the d entries of all its fibres are the whole table translated
    by a^-1.  The work is the size of the output.
    """
    N = ring.N
    if N > _MAX_LISTED_LEVEL:
        raise InputError(f"the SL2 listing at (d={ring.field.d}, N={N}) needs N <= "
                         f"{_MAX_LISTED_LEVEL}: it codes each element in one byte")
    require_bytes(_BYTES_PER_MATRIX * sl2_order_formula(ring.field, N),
                  f"the SL2 listing at (d={ring.field.d}, N={N})")
    size = N * N
    rows = [bytes(row) for row in ring.product_rows()]
    table = b"".join(rows)                              # code of x*y at x*size + y
    single = [bytes((k,)) for k in range(size)]
    out = bytearray()
    if not (len(ring.primes) == 1 and ring.primes[0][2] in (INERT, RAMIFIED)):
        # the code of 1 + b*c at b*size + c; adding 1 = (1, 0) adds N to a code
        targets = table.translate(bytes((v + N) % size for v in range(size)).ljust(256, b"\0"))
        every_b = [s for s in single for _ in range(size)]
        every_c = single * size
        for a in range(size):
            buckets = [bytearray() for _ in range(size)]
            for d, p in enumerate(rows[a]):
                buckets[p].append(d)
            ds = list(map(buckets.__getitem__, targets))   # the d of each (b, c)
            counts = list(map(len, ds))
            out += _slots(a, b"".join(map(mul, every_b, counts)),
                          b"".join(map(mul, every_c, counts)), b"".join(ds))
        return memoryview(out).cast("I")

    # rotations[j] is the code of (0, j) + v for every code v; adding (i, 0)
    # rotates that by i blocks of N
    rotations = [bytes(i * N + (j + s) % N for i in range(N) for j in range(N))
                 for s in range(N)]

    def shifted(t: int) -> bytes:
        # translation table: the code of t + v for every code v (bytes.translate
        # takes 256 entries)
        i, j = divmod(t, N)
        return (rotations[j][i * N:] + rotations[j][:i * N]).ljust(256, b"\0")

    # a unit's row holds 1 (code N) at its inverse and -1 (code size - N) at
    # minus its inverse
    masks = ring.masks()
    units = [k for k in range(size) if not masks[k]]
    all_cs = b"".join(s * size for s in single)
    unit_cs = b"".join(single[c] * size for c in units)
    unit_rows = b"".join(rows[c] for c in units)
    minus_inverse = [shifted(rows[c].index(size - N)) for c in units]
    for a in range(size):
        if not masks[a]:
            # b0 = 0, d0 = a^-1, over every c
            out += _slots(a, rows[a] * size, all_cs, table.translate(shifted(rows[a].index(N))))
        else:
            # b0 = -c^-1, d0 = 0, over the unit c
            out += _slots(a, b"".join(rows[a].translate(t) for t in minus_inverse),
                          unit_cs, unit_rows)
    return memoryview(out).cast("I")


def _orbit_minima(masks: bytes, scale: list) -> list[tuple[int, int]]:
    """The least code pair of each unit orbit of unimodular pairs, in order.

    masks[k] holds the maximal-ideal bits of code k, and `scale` has one
    row per unit u with row[k] the code of u*k.  A bytearray over all pairs
    starts with the non-unimodular ones marked.  In lexicographic order the
    next unmarked pair (a C-level find) is the least of its orbit, so it is
    kept and its |units| members are marked: 2 * |units| reads of `scale`
    per orbit, the pairs are scanned once.
    """
    size = len(masks)
    blocked = {m: bytes(bool(m & other) for other in masks) for m in set(masks)}
    marked = bytearray(b"".join(blocked[m] for m in masks))
    reps = []
    pos = marked.find(0)
    while pos >= 0:
        x, y = divmod(pos, size)
        reps.append((x, y))
        for row in scale:
            marked[row[x] * size + row[y]] = 1
        pos = marked.find(0, pos + 1)
    return reps


def projective_line(ring: FiniteRing) -> list[tuple[Elem, Elem]]:
    """Canonical representatives of P^1(O/(N)) for prime-power N, sorted.

    A point is a unimodular pair up to unit scaling; its representative is
    the minimum of the orbit in code order, found as the first pair of the
    orbit in a lexicographic scan of the codes.  Unimodularity is read
    from the masks, and the units scale through their rows of the product
    table (|R|^2 codes, built here).  O(N^4) work: each pair is scanned
    once, and each point reads 2 * |units| products to mark its orbit.
    The table and the scan are charged against the memory budget first.
    """
    if len(ring.primes) != 1:
        raise InputError("projective_line is implemented for prime-power N only")
    require_bytes((_BYTES_PER_PRODUCT + _BYTES_PER_SCANNED_PAIR) * ring.N**4,
                  f"the P^1 scan at (d={ring.field.d}, N={ring.N})")
    els, masks, rows = ring.elements(), ring.masks(), ring.product_rows()
    scale = [rows[u] for u in range(len(els)) if not masks[u]]
    return [(els[x], els[y]) for x, y in _orbit_minima(masks, scale)]


def fixed_coset_count(ring: FiniteRing, involution: str) -> int:
    """Unipotent cosets of SL2(R) at infinity fixed by the involution.

    Left cosets of the upper-unitriangular subgroup biject with unimodular
    columns (a, c); the involution fixes a coset exactly when it fixes the
    column: (sigma a, sigma c) = (a, c) for sigma and
    (sigma a, -sigma c) = (a, c) for tau.  Requires N = p^n with p an odd
    unramified prime.  One pass over the N^2 element codes collects the
    masks of the admissible a and c (O(N) of each); their product is then
    tested pair by pair, O(N^2).  Only the masks are built (N^2 bytes),
    never the product rows, so levels up to N = 49 stay cheap.
    """
    if involution not in (SIGMA, TAU):
        raise InputError(f"unknown involution {involution!r}")
    if len(ring.primes) != 1:
        raise InputError("fixed_coset_count requires a prime-power level")
    p, _, spl, _ = ring.primes[0]
    if p == 2 or spl == RAMIFIED:
        raise InputError("fixed_coset_count requires an odd unramified prime")
    N, T, masks = ring.N, ring.T, ring.masks()
    sign = 1 if involution == SIGMA else -1
    fixed_a, fixed_c = [], []
    for k, (a, b) in enumerate(ring.elements()):
        sa, sb = (a + T * b) % N, -b % N                  # sigma(a + b w)
        if sa == a and sb == b:
            fixed_a.append(masks[k])
        if sign * sa % N == a and sign * sb % N == b:
            fixed_c.append(masks[k])
    return sum(1 for ma in fixed_a for mc in fixed_c if not ma & mc)


class CensusReport(NamedTuple):
    """Exhaustive census next to the closed-formula prediction.

    For tau the two numbers are allowed to disagree; the report carries a
    match flag precisely so the disagreement is visible instead of being
    silently resolved either way.
    """
    d: int
    p: int
    n: int
    involution: str
    census: int
    closed_formula: int
    matches: bool


def fixed_coset_report(ring: FiniteRing, involution: str) -> CensusReport:
    census = fixed_coset_count(ring, involution)
    p, n = ring.primes[0][0], ring.primes[0][1]
    formula = fixed_coset_formula(p, n, involution)
    return CensusReport(d=ring.field.d, p=p, n=n, involution=involution,
                        census=census, closed_formula=formula,
                        matches=census == formula)


def cusp_count_bruteforce(field: QuadField, N: int) -> int:
    """Number of cusps of the level-N principal congruence subgroup,
    counted as h * #{unimodular columns (a, c) of O/(N)}: the columns are
    the cosets of the unitriangular group, so this is h * #SL2 / N^2 with
    no group order.  (a, c) is unimodular when their masks are disjoint, so
    the distinct mask values are paired, weighted by their multiplicities.
    N >= 3 keeps -1 out of the subgroup, which the coset counting assumes.
    """
    if N < 3:
        raise InputError(f"cusp_count_bruteforce requires N >= 3, got {N}")
    tally = Counter(FiniteRing(field, N).masks()).items()
    return field.h * sum(m * n for a, m in tally for c, n in tally if not a & c)
