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
  maximal ideal (N^2 bytes, charged against the memory budget first).  A
  unit has mask 0, and (x, y) is unimodular when masks[x] & masks[y] == 0.
  Each ideal over p sets its p hits in a p x p tile (one for an inert p),
  repeated over the codes.
- `product_rows()`: one `bytes` row per element x, holding the one-byte
  codes of x*y for every y (N^4 bytes in all).  Padded to 256 bytes, row
  x is the `bytes.translate` table that multiplies a string of codes by
  x.  The rational units s in (Z/N)^x act on the codes by scaling, and
  row s*x is row x translated by "multiply by s".  So one row per orbit
  is built from N translates of N bytes, each shifting a string of
  multiples by a per-level addition table, and every other row is one
  translate of N^2 bytes: about N^3 / phi(N) small translates (N + 2
  orbits at a prime N) and N^2 large ones.  The orbits and the scaling
  tables depend on N alone and are kept per level.  One-byte codes need
  |R| = N^2 <= 256, so the table and the SL2 order, P^1 scan and SL2
  listing that read it refuse N > 16.  Only the censuses that already do
  |R|^2 work build it; the column census reads the masks alone.
Every pair handed back holds the tuples of `elements()`.  The SL2 listing
hands back packed codes, four element codes in one int per matrix, and
`FiniteRing.matrix` decodes one into those tuples.

The censuses are the exhaustive side of dual-route checks: SL2 orders,
projective lines, unipotent-coset fixed-point counts under the two
involutions, and cusp counts.  None of them uses a closed formula.  Each
does work in proportion to what it must examine:
- the SL2 count tallies the products of one row per unit orbit;
- the projective line scans the |R| codes for the least element of each
  unit orbit, then, for each such x, the codes again for the least y of
  each orbit of the stabiliser of x, gathering orbits off the product
  rows at C speed;
- the local SL2 listing reads each product row once and writes its
  output a block of byte columns at a time; the brute SL2 filter takes,
  per first entry a, |R| steps and C-level passes over the |R|^2 (b, c);
- the column census counts unimodular columns (a, c) up to sign (cusps
  of Gamma(N) at h = 1, all or those sigma or tau fixes): it pairs the
  masks of two coordinate lists, each all of R or read in O(N) steps.
"""

from __future__ import annotations

import sys
from collections import Counter
from functools import lru_cache
from itertools import compress
from math import gcd
from operator import add, floordiv, mul
from typing import NamedTuple

from .eisenstein import fixed_coset_formula
from .exactmath import ConformanceError, InputError, factorize, require_bytes
from .quadfield import (INERT, RAMIFIED, SIGMA, SPLIT, TAU, QuadField, splitting_type,
                        unimodular_column_count)

Elem = tuple[int, int]
Mat = tuple[Elem, Elem, Elem, Elem]  # (a, b, c, d) row-major

# The product table, the P^1 scan and the SL2 listing code each element in
# one byte, so |R| = N^2 <= 256.
_MAX_CODED_LEVEL = 16
# Byte offsets of a, b, c, d in a listed matrix's 4 bytes, so that the
# native unsigned int they form is a << 24 | b << 16 | c << 8 | d.
_SLOT_OFFSETS = (0, 1, 2, 3) if sys.byteorder == "big" else (3, 2, 1, 0)
# Bytes the SL2 listing holds per matrix: its 4-byte code, the spare room
# of the growing bytearray and one block of columns (tracemalloc: 4.3-6.5
# at N = 7..13, split, inert and ramified), so 8 is an upper bound.
_BYTES_PER_MATRIX = 8
# Bytes the product table holds per product: one byte of its row, plus,
# spread over the N^4 products, each row's header and list slot and the
# level's N^2 addition tables of 256 bytes and unit-orbit tables
# (tracemalloc, both per-level tables built inside: 4.2, 3.2 and 2.5 at
# N = 11, 13 and 16, split, inert and ramified alike; 1.4, 1.3 and 1.2
# with them kept from before), so 5 bounds it from N = 11 on.  Below that
# the fixed part is more per product, but the whole table is under 60 KB.
_BYTES_PER_PRODUCT = 5
# Bytes the unit masks hold per element while built: 2.1 with one maximal
# ideal, 3.2-3.3 with two to six (tracemalloc, N = 64..1012), so 4 bounds it.
_BYTES_PER_ELEMENT = 4


def _admit(ring: FiniteRing, what: str, need: int) -> None:
    """Refuse `what` past N = 16, where element codes outgrow a byte, or
    when its `need` bytes exceed the memory budget: before allocating."""
    where = f"{what} at (d={ring.field.d}, N={ring.N})"
    if ring.N > _MAX_CODED_LEVEL:
        raise InputError(f"{where} needs N <= {_MAX_CODED_LEVEL}: "
                         "it codes each element in one byte")
    require_bytes(need, where)


@lru_cache(maxsize=16)                  # one per level N <= _MAX_CODED_LEVEL
def _sum_tables(N: int) -> tuple[bytes, ...]:
    """_sum_tables(N)[t] maps every code v to the code of t + v, padded to
    the 256 entries `bytes.translate` takes (N <= 16)."""
    blocks = [bytes(range(i * N, i * N + N)) for i in range(N)]
    # adding (0, j) rotates each block of N codes by j, adding (i, 0)
    # rotates the blocks by i
    rotated = [b"".join(blk[j:] + blk[:j] for blk in blocks) for j in range(N)]
    return tuple((rot[i * N:] + rot[:i * N]).ljust(256, b"\0")
                 for i in range(N) for rot in rotated)


class _UnitOrbits(NamedTuple):
    """The orbits of the rational units s in (Z/N)^x on the codes, s
    scaling both coordinates; nothing here depends on the field."""
    reps: tuple[int, ...]           # the least code of each orbit, in order
    sizes: tuple[int, ...]          # [i]: the size of the orbit of reps[i]
    multiples: tuple[bytes, ...]    # [i][e]: the code of e*reps[i]
    source: bytes                   # [y]: the index in reps of y's orbit
    scale: tuple[bytes | None, ...]  # [y]: "multiply by s" for an s with s*rep = y,
                                     # None at the representatives themselves


@lru_cache(maxsize=16)                  # one per level N <= _MAX_CODED_LEVEL
def _unit_orbits(N: int) -> _UnitOrbits:
    """The unit orbits of the codes at level N <= 16.  For y = s*r in the
    orbit of r, scale[y] is "multiply by s", the translate table that
    takes r's product row, or r's multiples, to y's."""
    sums = _sum_tables(N)
    size = N * N
    # scaled[q][e] is e*q mod N, a slice of 0..N-1 repeated N times
    ramp = bytes(range(N)) * N
    scaled = [bytes(N)] + [ramp[:q * N:q] for q in range(1, N)]
    # block p of "multiply by s" is the codes of e*s shifted by (p*s)*N
    scales = [b"".join([scaled[s].translate(sums[p * s % N * N]) for p in range(N)])
              .ljust(256, b"\0") for s in range(2, N) if gcd(s, N) == 1]
    reps: list[int] = []
    source = bytearray(size)
    scale: list[bytes | None] = [None] * size
    seen = bytearray(size)
    for x in range(size):
        if not seen[x]:
            seen[x] = 1
            source[x] = len(reps)
            for table in scales:
                y = table[x]
                if not seen[y]:
                    seen[y] = 1
                    source[y], scale[y] = len(reps), table
            reps.append(x)
    # both coordinates of p + q w scale by e, and the code is p*N + q
    times_n = bytes(range(0, size, N)).ljust(256, b"\0")
    multiples = tuple(bytes(map(add, scaled[x // N].translate(times_n), scaled[x % N]))
                      for x in reps)
    return _UnitOrbits(tuple(reps), tuple(map(source.count, range(len(reps)))), multiples,
                       bytes(source), tuple(scale))


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
        self._rows: list[bytes] | None = None

    def elements(self) -> list[Elem]:
        if self._elements is None:
            self._elements = [(a, b) for a in range(self.N) for b in range(self.N)]
        return self._elements

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
        The tile's hits are set directly, p steps per ideal: (p, omega - r)
        holds a + b*omega when a = -b*r (mod p), pO only (0, 0).
        """
        if self._masks is None:
            ideals = [(p, r) for p, _, spl, roots in self.primes
                      for r in ((None,) if spl == INERT else roots)]
            if len(ideals) > 8:
                raise InputError(f"O/({self.N}) has {len(ideals)} maximal ideals; "
                                 "the unit masks hold at most 8")
            N = self.N
            require_bytes(_BYTES_PER_ELEMENT * N * N,
                          f"the unit masks at (d={self.field.d}, N={N})")
            bits = 0
            for i, (p, r) in enumerate(ideals):
                # a + b w lies in pO when p | a, b; in (p, w - r) when a = -b r
                # (mod p): one hit per b, at byte a*p + b of the p x p tile
                tile = bytearray(p * p)
                for a, b in ([(0, 0)] if r is None else [(-b * r % p, b) for b in range(p)]):
                    tile[a * p + b] = 1 << i
                tile = b"".join(tile[a:a + p] * (N // p) for a in range(0, p * p, p))
                bits |= int.from_bytes(tile * (N // p), "big")
            self._masks = bits.to_bytes(N * N, "big")
        return self._masks

    def product_rows(self) -> list[bytes]:
        """product_rows()[x][y] is the code of x*y: one row of |R| = N^2
        byte codes per element, refused past N = 16 and charged against the
        memory budget before the first row is built.

        Row x padded to 256 bytes is the translate table of "multiply by x".
        The row of the least x of each orbit of the rational units is built
        block by block: its block for c is the codes of e*(x*w) over e,
        shifted by c*x, N translates of N bytes.  Each other row, s*x for a
        unit s, is row x translated by "multiply by s", since
        (s*x)*y = s*(x*y): one translate of N^2 bytes.  With a few more
        than N^2 / phi(N) orbits (N + 2 at a prime N, 46 at N = 16), that
        is about N^3 / phi(N) small translates and N^2 large ones, against
        N^3 small ones row by row.
        """
        if self._rows is None:
            N, T, Nm = self.N, self.T, self.Nm
            _admit(self, "the product table", _BYTES_PER_PRODUCT * N**4)
            sums = _sum_tables(N)
            orbits = _unit_orbits(N)
            multiples, source, scale = orbits.multiples, orbits.source, orbits.scale
            built = []
            for x, mx in zip(orbits.reps, multiples):
                # (a + b w)(c + e w) = c (a + b w) + e (-Nm b + (a + T b) w)
                a, b = divmod(x, N)
                xw = -Nm * b % N * N + (a + T * b) % N
                mxw = multiples[source[xw]].translate(scale[xw])
                built.append(b"".join(map(mxw.translate, map(sums.__getitem__, mx))))
            # translate(None) hands back the representative's row itself
            self._rows = list(map(bytes.translate, map(built.__getitem__, source), scale))
        return self._rows


# -- orders and enumerations ---------------------------------------------------


def sl2_order_formula(field: QuadField, N: int) -> int:
    """#SL2(O/(N)) = N^2 times the unimodular columns of (O/(N))^2: each
    column is the first of |O/(N)| = N^2 matrices."""
    return N * N * unimodular_column_count(field, N)


def sl2_order(ring: FiniteRing) -> int:
    """Order of SL2(O/(N)) by census, refused past N = 16 with the product
    table: the quadruples with a*d - b*c = 1, tallied off the |R|^2 products
    as the sum over v of #{(b,c): bc = v} * #{(a,d): ad = 1 + v}.  No closed
    formula; `verify` compares it with sl2_order_formula.

    The tally is read off one row per unit orbit.  A unit s maps the
    products of x to those of s*x and each orbit to itself, so every row
    of an orbit puts the same number of products in each orbit, and
    #{(b,c): bc = v} is the same for every v of an orbit: the orbit's
    total over all rows, split evenly among its members.
    """
    rows, N = ring.product_rows(), ring.N
    orbits = _unit_orbits(N)
    reps, sizes = orbits.reps, orbits.sizes
    orbit_of = orbits.source.ljust(256, b"\0")
    totals = [0] * len(reps)
    for n in set(sizes):                        # each row stands for n rows
        group = b"".join([rows[x] for x, m in zip(reps, sizes) if m == n])
        for orbit, k in Counter(group.translate(orbit_of)).items():
            totals[orbit] += n * k
    per_code = list(map(floordiv, totals, sizes))
    prod = list(map(per_code.__getitem__, orbits.source))
    # adding 1 = (1, 0) to a code adds N, modulo |R| = N^2
    return sum(map(mul, prod, prod[N:] + prod[:N]))


def _slots(a: int, b: bytes, c: bytes, ds: list[bytes]) -> bytearray:
    """Matrices (a, b[j]; c[j], d[j]) for each slot j and, in turn, each
    column d of ds, all columns of one length: 4 bytes each, read as a
    native unsigned int a << 24 | b << 16 | c << 8 | d."""
    k = len(ds)
    blk = bytearray(4 * k * len(b))
    at, bt, ct, dt = _SLOT_OFFSETS
    blk[at::4] = bytes((a,)) * (k * len(b))
    for i, d in enumerate(ds):
        blk[bt + 4 * i::4 * k] = b
        blk[ct + 4 * i::4 * k] = c
        blk[dt + 4 * i::4 * k] = d
    return blk


def enumerate_sl2(ring: FiniteRing) -> memoryview:
    """All of SL2(R) as packed codes: the matrix (a, b; c, d) of element
    codes is the unsigned int a << 24 | b << 16 | c << 8 | d, and
    ring.matrix(code) gives its entries as objects of ring.elements().

    Element codes fit a byte only while |R| = N^2 <= 256, so N > 16 is
    refused; the output is charged against the memory budget before
    anything is built.  Both branches read the product rows as bytes, |R|^2
    codes made once per ring, and write a block of matrices at a time,
    column by column.  Non-local R: a brute filter, |R| interpreted steps
    per first entry a and C-level passes over the |R|^2 slots (b, c).
    Multiplying by a is additive, so each product a*d it reaches has the
    same number k = |ker a| of preimages d.  One translate marks the slots
    whose 1 + b*c is reached; each of them takes its k values of d in code
    order, the i-th being its 1 + b*c translated by "the i-th preimage of".
    The codes come in lexicographic (a, b, c, d) order.  Local R: every
    unimodular column (a, c) has a unit coordinate, so it is completed to
    one matrix (a, b0; c, d0) and the unipotent fibre (a, b0 + x*a;
    c, d0 + x*c) over it is listed for x in code order.  Row y of the
    product table holds x*y for every x, so a fibre's b or d entries are a
    row translated by b0 or d0 (one bytes.translate); for a unit a, the d
    entries of all its fibres are the whole table translated by a^-1.  The
    C-level work is the size of the output, plus |R|^3 for the filter.
    """
    N = ring.N
    _admit(ring, "the SL2 listing", _BYTES_PER_MATRIX * sl2_order_formula(ring.field, N))
    size = N * N
    rows, sums = ring.product_rows(), _sum_tables(N)
    table = b"".join(rows)                              # code of x*y at x*size + y
    single = [bytes((k,)) for k in range(size)]
    out = bytearray()
    if not (len(ring.primes) == 1 and ring.primes[0][2] in (INERT, RAMIFIED)):
        # the code of 1 + b*c at b*size + c; 1 = (1, 0) has code N
        targets = table.translate(sums[N])
        every_c = bytes(range(size)) * size
        for a in range(size):
            image = bytes(sorted(set(rows[a])))
            k = size // len(image)
            # the d sorted by a*d, ties in code order: the k preimages of
            # image[j] are by_product[j*k:(j+1)*k]
            by_product = bytes(sorted(range(size), key=rows[a].__getitem__))
            reached = bytearray(256)
            for v in image:
                reached[v] = 1
            hit = targets.translate(reached)                # 1 at the (b, c) with a d
            kept = targets.translate(None, bytes(range(256)).translate(None, image))
            b_col = b"".join([single[b] * hit.count(1, b * size, b * size + size)
                              for b in range(size)])
            out += _slots(a, b_col, bytes(compress(every_c, hit)),
                          [kept.translate(bytes.maketrans(image, by_product[i::k]))
                           for i in range(k)])
        return memoryview(out).cast("I")

    # a unit's row holds 1 (code N) at its inverse and -1 (code size - N) at
    # minus its inverse
    masks = ring.masks()
    units = [k for k in range(size) if not masks[k]]
    all_cs = b"".join(s * size for s in single)
    unit_cs = b"".join(single[c] * size for c in units)
    unit_rows = b"".join(rows[c] for c in units)
    minus_inverse = [sums[rows[c].index(size - N)] for c in units]
    for a in range(size):
        if not masks[a]:
            # b0 = 0, d0 = a^-1, over every c
            out += _slots(a, rows[a] * size, all_cs, [table.translate(sums[rows[a].index(N)])])
        else:
            # b0 = -c^-1, d0 = 0, over the unit c
            out += _slots(a, b"".join(rows[a].translate(t) for t in minus_inverse),
                          unit_cs, [unit_rows])
    return memoryview(out).cast("I")


def _least_of_orbits(marked: bytearray, rows: list[bytes], group: list[int]) -> list[int]:
    """The least code of each orbit of `group`, element codes acting by
    multiplication, among the codes that `marked` leaves 0, in order.

    The codes marked beforehand must be a union of orbits.  The next
    unmarked code (a C-level find) is the least of its orbit; it is kept
    and its orbit, gathered off its product row, is marked.  So the codes
    are scanned once and each orbit costs |group| reads.
    """
    least = []
    k = marked.find(0)
    while k >= 0:
        least.append(k)
        for v in map(rows[k].__getitem__, group):       # the code of g*k
            marked[v] = 1
        k = marked.find(0, k + 1)
    return least


def projective_line(ring: FiniteRing) -> list[tuple[Elem, Elem]]:
    """Canonical representatives of P^1(O/(N)) for prime-power N, sorted.

    A point is a unimodular pair up to unit scaling; its representative is
    the least pair of its orbit in code order.  The orbit members with the
    least first coordinate are (x, s*y) for s in the stabiliser of x, so
    (x, y) is a representative exactly when x is the least of its unit
    orbit and y the least of its orbit under that stabiliser.  Both are
    scans over the |R| codes, the second once per unit orbit of R (a few
    for a prime power), reading multiples off the product rows.  The table
    (|R|^2 codes, built here) is charged against the memory budget first,
    and N > 16 is refused.
    """
    if len(ring.primes) != 1:
        raise InputError("projective_line is implemented for prime-power N only")
    _admit(ring, "the P^1 scan", _BYTES_PER_PRODUCT * ring.N**4)
    els, masks, rows = ring.elements(), ring.masks(), ring.product_rows()
    units = [k for k, m in enumerate(masks) if not m]
    points = []
    for x in _least_of_orbits(bytearray(len(masks)), rows, units):
        stabiliser = [u for u in units if rows[x][u] == x]
        # unimodularity with x is kept by unit scaling, so the y it rules
        # out are whole orbits
        marked = bytearray(bool(masks[x] & m) for m in masks)
        points += [(els[x], els[y]) for y in _least_of_orbits(marked, rows, stabiliser)]
    return points


def _column_classes(*lists: tuple[Counter[int], Counter[int]]) -> int:
    """+-1-classes of the unimodular columns (a, c), a from xs and c from ys
    for some (xs, ys) of `lists` (tallies of masks; the columns closed under
    negation): disjoint masks are paired and halved, since at N >= 3 no
    column is its own negative (2a = 2c = 0 puts a, c in one maximal ideal)."""
    return sum(m * n for xs, ys in lists for x, m in xs.items() for y, n in ys.items()
               if not x & y) // 2


def fixed_coset_count(ring: FiniteRing, involution: str) -> int:
    """Cusps of Gamma(N) (h = 1) fixed by the involution, N >= 3: unipotent
    cosets of SL2(R) at infinity, so unimodular columns (a, c), up to sign.

    sigma fixes a class when (sigma a, sigma c) = +-(a, c), tau when
    (sigma a, -sigma c) = +-(a, c).  sigma(x + y*w) = (x + T*y) - y*w fixes
    x + y*w exactly when 2y = T*y = 0 and negates it when 2x + T*y = 0
    (mod N): the + and - lists, read in O(N) steps off the masks alone.
    sigma pairs (+, +) and (-, -), tau (+, -) and (-, +).  Where
    gcd(N, D) = 1, delta = 2w - T is a unit (delta^2 = D) with
    sigma(delta) = -delta, so multiplying by delta swaps the lists and the
    count is that of the + sign alone.
    """
    if involution not in (SIGMA, TAU):
        raise InputError(f"unknown involution {involution!r}")
    if ring.N < 3:
        raise InputError(f"fixed_coset_count requires N >= 3, got {ring.N}")
    N, T, masks = ring.N, ring.T, ring.masks()
    halves: list[list[int]] = [[] for _ in range(N)]        # [r]: the x with 2x = r
    for x in range(N):
        halves[2 * x % N].append(x)
    plus = Counter(b"".join(masks[y::N] for y in halves[0] if T * y % N == 0))
    minus = Counter(bytes(masks[x * N + y] for y in range(N) for x in halves[-T * y % N]))
    if involution == SIGMA:
        return _column_classes((plus, plus), (minus, minus))
    return _column_classes((plus, minus), (minus, plus))


class CensusReport(NamedTuple):
    """Exhaustive census next to the closed-formula prediction.

    For tau the two numbers are allowed to disagree; the report carries a
    match flag precisely so the disagreement is visible instead of being
    silently resolved either way.
    """
    census: int
    closed_formula: int
    matches: bool


def fixed_coset_report(ring: FiniteRing, involution: str) -> CensusReport:
    """fixed_coset_count next to fixed_coset_formula, in the formula's domain
    (odd unramified prime powers), where the census is the + count alone."""
    if len(ring.primes) != 1:
        raise InputError("fixed_coset_report requires a prime-power level")
    p, n, spl, _ = ring.primes[0]
    if p == 2 or spl == RAMIFIED:
        raise InputError("fixed_coset_report requires an odd unramified prime")
    census = fixed_coset_count(ring, involution)
    formula = fixed_coset_formula(p, n, involution)
    return CensusReport(census, formula, census == formula)


def cusp_count_bruteforce(field: QuadField, N: int) -> int:
    """2h times the +-1-classes of unimodular columns (a, c) of O/(N),
    N >= 3: the census of h * unimodular_column_count, the unitriangular
    cosets h * #SL2 / N^2, with no closed count and no group order.
    The classes are the cusps of Gamma(N) at h = 1 (-1 lies in the
    stabiliser of infinity in PSL2(O)); which count the records should
    carry is an open convention.
    """
    if N < 3:
        raise InputError(f"cusp_count_bruteforce requires N >= 3, got {N}")
    tally = Counter(FiniteRing(field, N).masks())
    return 2 * field.h * _column_classes((tally, tally))
