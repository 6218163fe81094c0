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
Every matrix or pair handed back holds the tuples of `elements()`.

The censuses are the exhaustive side of dual-route checks: SL2 orders,
projective lines, unipotent-coset fixed-point counts under the two
involutions, and cusp counts.  None of them uses a closed formula.  Each
does work in proportion to what it must examine:
- the SL2 count tallies the |R|^2 products once;
- the projective line scans the N^4 pairs once, at C speed, and reads
  2 * |units| products per point;
- the local SL2 listing reads each product row once and does the size of
  its output; the brute SL2 filter looks up d from (a, b, c) in |R|^3
  steps;
- the coset census pairs the O(N) fixed first coordinates with the O(N)
  fixed second coordinates;
- the cusp census pairs the distinct mask values, weighted by how many
  elements carry each.
"""

from __future__ import annotations

from collections import Counter
from itertools import repeat
from operator import itemgetter
from typing import NamedTuple

from .eisenstein import fixed_coset_formula
from .exactmath import ConformanceError, InputError, as_integer, factorize, require_bytes
from .quadfield import (INERT, RAMIFIED, SIGMA, SPLIT, TAU, QuadField,
                        norm_euler_product, splitting_type)

Elem = tuple[int, int]
Mat = tuple[Elem, Elem, Elem, Elem]  # (a, b, c, d) row-major

# Bytes one matrix of the SL2 listing holds: a 4-tuple of shared element
# tuples and its list slot (tracemalloc: 79-81 at N = 5..11, split, inert
# and ramified), so 88 is an upper bound.
_BYTES_PER_MATRIX = 88
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


def enumerate_sl2(ring: FiniteRing) -> list[Mat]:
    """All of SL2(R), every entry an object of ring.elements().

    The output, #SL2(R) matrices, is charged against the memory budget
    before anything is built.  Both branches read the product rows, |R|^2
    codes made once per ring.  Non-local R: a brute filter in |R|^3 steps.  For
    each a the d are bucketed by the code of a*d, and each (a, b, c) takes
    the d in bucket[1 + b*c]; the list is in lexicographic (a, b, c, d)
    order.  Local R: every unimodular column (a, c) has a unit coordinate,
    so it is completed to one matrix (a, b0; c, d0) and the unipotent fibre
    (a, b0 + x*a; c, d0 + x*c) over it is listed for x in code order.  Row
    y of the product table becomes an itemgetter that picks, for every x,
    entry x*y of a list; applied to the elements translated by b0 or d0 it
    gives a fibre's b or d entries, and the four columns are zipped into
    matrices.  The work is the size of the output, and each product row is
    read once.
    """
    require_bytes(_BYTES_PER_MATRIX * sl2_order_formula(ring.field, ring.N),
                  f"the SL2 listing at (d={ring.field.d}, N={ring.N})")
    els = ring.elements()
    size = len(els)
    local = len(ring.primes) == 1 and ring.primes[0][2] in (INERT, RAMIFIED)
    N, rows = ring.N, ring.product_rows()
    out: list[Mat] = []
    if not local:
        for a, row_a in enumerate(rows):
            by_product: list[list[Elem]] = [[] for _ in range(size)]
            for d, p in enumerate(row_a):
                by_product[p].append(els[d])
            for b, row_b in enumerate(rows):
                for c, p in enumerate(row_b):
                    out.extend((els[a], els[b], els[c], d)
                               for d in by_product[(p + N) % size])
        return out
    masks = ring.masks()
    times = [itemgetter(*row) for row in rows]

    def translated(t: Elem) -> list[Elem]:
        # els[code(t + v)] for every code v
        return [els[(t[0] + i) % N * N + (t[1] + j) % N] for i in range(N) for j in range(N)]

    units = [k for k in range(size) if not masks[k]]
    # the elements translated by b0 = -c^-1, for each unit c; used when a
    # is not a unit
    minus_inverse = {c: translated(ring.neg(ring.inverse(els[c]))) for c in units}
    for a in range(size):
        ea = els[a]
        if not masks[a]:
            bs = times[a](els)                               # b0 = 0
            inverse_shift = translated(ring.inverse(ea))      # d0 = a^-1
            for c in range(size):
                out.extend(zip(repeat(ea, size), bs, repeat(els[c], size),
                               times[c](inverse_shift)))
        else:
            for c in units:                                   # d0 = 0
                out.extend(zip(repeat(ea, size), times[a](minus_inverse[c]),
                               repeat(els[c], size), times[c](els)))
    return out


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
