"""Brute-force layer: arithmetic and censuses in R = O/(N).

Elements of R are coefficient pairs (a, b) with 0 <= a, b < N meaning
a + b*omega.  The conjugation sigma sends omega to T - omega (T the trace
of omega), so it acts directly on pairs; split and inert levels share one
code path and no CRT decomposition is ever needed here (the tests build
the CRT isomorphism independently to cross-check).

The censuses in this module are the exhaustive side of dual-route checks:
SL2 orders, projective lines, unipotent-coset fixed-point counts under
the two involutions, and cusp counts.  None of them uses a closed formula.
Each does work in proportion to what it must examine: the projective line
visits each of the N^4 pairs once and scales only orbit representatives,
the coset census pairs the O(N) fixed first coordinates with the O(N)
fixed second coordinates, and the brute SL2 filter looks up d from
(a, b, c) in |R|^3 steps.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .eisenstein import fixed_coset_formula
from .exactmath import ConformanceError, InputError, as_integer, factorize
from .quadfield import (INERT, RAMIFIED, SIGMA, SPLIT, TAU, QuadField,
                        norm_euler_product, splitting_type)

Elem = tuple[int, int]
Mat = tuple[Elem, Elem, Elem, Elem]  # (a, b, c, d) row-major


class FiniteRing:
    """The quotient ring O/(N) with its conjugation involution."""

    def __init__(self, field: QuadField, N: int):
        if N < 2:
            raise InputError(f"FiniteRing requires N >= 2, got {N}")
        self.field = field
        self.N = N
        self.T = field.omega_trace
        self.Nm = field.omega_norm
        # For each rational prime p | N: (p, splitting, roots of the minimal
        # polynomial of omega mod p).  The roots describe the maximal ideals
        # over p and drive the unit / unimodularity tests below.
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
        self._units: list[Elem] | None = None
        self._inverse: dict[Elem, Elem] | None = None

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

    # -- units and unimodular pairs ------------------------------------------

    def _in_maximal_ideal(self, x: Elem, p: int, spl: str, root: int | None) -> bool:
        if spl == INERT:
            return x[0] % p == 0 and x[1] % p == 0
        return (x[0] + x[1] * root) % p == 0

    def is_unit(self, x: Elem) -> bool:
        for p, _, spl, roots in self.primes:
            if spl == INERT:
                if self._in_maximal_ideal(x, p, spl, None):
                    return False
            else:
                for r in roots:
                    if self._in_maximal_ideal(x, p, spl, r):
                        return False
        return True

    def is_unimodular(self, x: Elem, y: Elem) -> bool:
        """True when the pair (x, y) generates the unit ideal of R.

        Checked maximal ideal by maximal ideal: the pair fails exactly
        when both coordinates fall into a common maximal ideal.
        """
        for p, _, spl, roots in self.primes:
            if spl == INERT:
                if self._in_maximal_ideal(x, p, spl, None) and \
                   self._in_maximal_ideal(y, p, spl, None):
                    return False
            else:
                for r in roots:
                    if self._in_maximal_ideal(x, p, spl, r) and \
                       self._in_maximal_ideal(y, p, spl, r):
                        return False
        return True

    def units(self) -> list[Elem]:
        if self._units is None:
            self._units = [x for x in self.elements() if self.is_unit(x)]
        return self._units

    def inverse(self, x: Elem) -> Elem:
        if self._inverse is None:
            inv: dict[Elem, Elem] = {}
            units = self.units()
            for u in units:
                if u in inv:
                    continue
                for v in units:
                    if self.mul(u, v) == self.one:
                        inv[u] = v
                        inv[v] = u
                        break
            self._inverse = inv
        return self._inverse[x]


# -- 2x2 matrices -------------------------------------------------------------


def mat_identity(ring: FiniteRing) -> Mat:
    return (ring.one, ring.zero, ring.zero, ring.one)


def mat_mul(ring: FiniteRing, m1: Mat, m2: Mat) -> Mat:
    a1, b1, c1, d1 = m1
    a2, b2, c2, d2 = m2
    return (
        ring.add(ring.mul(a1, a2), ring.mul(b1, c2)),
        ring.add(ring.mul(a1, b2), ring.mul(b1, d2)),
        ring.add(ring.mul(c1, a2), ring.mul(d1, c2)),
        ring.add(ring.mul(c1, b2), ring.mul(d1, d2)),
    )


def mat_det(ring: FiniteRing, m: Mat) -> Elem:
    a, b, c, d = m
    return ring.sub(ring.mul(a, d), ring.mul(b, c))


def sigma_mat(ring: FiniteRing, m: Mat) -> Mat:
    """Entry-wise conjugation."""
    return tuple(ring.sigma(e) for e in m)  # type: ignore[return-value]


def tau_mat(ring: FiniteRing, m: Mat) -> Mat:
    """Twisted conjugation: entry-wise sigma, then negate the off-diagonal.

    Conjugating by diag(-1, 1) flips the sign of b and c only.
    """
    a, b, c, d = (ring.sigma(e) for e in m)
    return (a, ring.neg(b), ring.neg(c), d)


# -- orders and enumerations ---------------------------------------------------


def sl2_order_formula(field: QuadField, N: int) -> int:
    """#SL2(O/(N)) = N^6 * prod over primes of (N) of (1 - Norm(P)^-2)."""
    return as_integer(N**6 * norm_euler_product(field, N), "SL2 order")


def _sl2_count_exhaustive(ring: FiniteRing) -> int:
    # Count quadruples with a*d - b*c = 1 through the product-count table:
    # sum over v of #{(b,c): bc = v} * #{(a,d): ad = 1 + v}.
    prod: Counter[Elem] = Counter()
    els = ring.elements()
    for x in els:
        for y in els:
            prod[ring.mul(x, y)] += 1
    return sum(n * prod.get(ring.add(ring.one, v), 0) for v, n in prod.items())


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
    """All of SL2(R).

    Non-local R with |R|^4 <= 200 000: a brute filter in |R|^3 steps.  For
    each a the d are bucketed by a*d, and each (a, b, c) takes the d in
    bucket[1 + b*c]; the list is in lexicographic (a, b, c, d) order.
    Local R: every unimodular column (a, c) has a unit coordinate, so each
    is completed to one matrix and the unipotent fiber over it is swept;
    the work is the size of the output.  The |R|^2 products x*y are made
    once, and every entry is an object of ring.elements().
    """
    els = ring.elements()
    n4 = len(els) ** 4
    local = len(ring.primes) == 1 and ring.primes[0][2] in (INERT, RAMIFIED)
    if n4 > 200_000 and not local:
        raise InputError(f"SL2 enumeration too large for (d={ring.field.d}, N={ring.N})")
    if n4 <= 200_000 and not local:
        one = ring.one
        out: list[Mat] = []
        for a in els:
            by_product: dict[Elem, list[Elem]] = {}
            for d in els:
                by_product.setdefault(ring.mul(a, d), []).append(d)
            for b in els:
                for c in els:
                    out.extend((a, b, c, d)
                               for d in by_product.get(ring.add(one, ring.mul(b, c)), ()))
        return out
    N = ring.N
    multiples = {y: [ring.mul(x, y) for x in els] for y in els}
    out = []
    for a in els:
        xa = multiples[a]
        for c in els:
            if not ring.is_unimodular(a, c):
                continue
            if ring.is_unit(a):
                b0, d0 = ring.zero, ring.inverse(a)
            else:
                b0, d0 = ring.neg(ring.inverse(c)), ring.zero
            # entries are the shared tuples of els, els[u*N + v] == (u, v)
            out.extend((a, els[(b0[0] + p) % N * N + (b0[1] + q) % N],
                        c, els[(d0[0] + r) % N * N + (d0[1] + t) % N])
                       for (p, q), (r, t) in zip(xa, multiples[c]))
    return out


def _orbit_minima(points, index, unimodular, scale, units):
    """The least pair of each unit orbit of unimodular pairs, in order.

    `points` must be listed in increasing order, with `index` its inverse.
    Pairs are scanned lexicographically, so the first unmarked unimodular
    pair is its orbit's minimum; it is kept and its whole orbit marked.
    Each pair is visited once and only kept pairs are scaled, so the cost
    is |points|^2 visits plus 2 * |units| products per orbit.
    """
    size = len(points)
    marked = bytearray(size * size)
    reps = []
    for i, x in enumerate(points):
        for j, y in enumerate(points):
            if marked[i * size + j] or not unimodular(x, y):
                continue
            reps.append((x, y))
            for u in units:
                marked[index(scale(u, x)) * size + index(scale(u, y))] = 1
    return reps


def projective_line(ring: FiniteRing) -> list[tuple[Elem, Elem]]:
    """Canonical representatives of P^1(O/(N)) for prime-power N, sorted.

    A point is a unimodular pair up to unit scaling; its representative is
    the minimum of the orbit in coefficient encoding, found as the first
    pair of the orbit in a lexicographic scan.  O(N^4) work: each pair is
    visited once, and 2 * |units| products per point mark its orbit.
    """
    if len(ring.primes) != 1:
        raise InputError("projective_line is implemented for prime-power N only")
    N = ring.N
    return _orbit_minima(ring.elements(), lambda x: x[0] * N + x[1],
                         ring.is_unimodular, ring.mul, ring.units())


def projective_line_zmod(n: int) -> list[tuple[int, int]]:
    """P^1(Z/n): the least unimodular pair of each unit orbit, sorted."""
    from math import gcd

    return _orbit_minima(range(n), lambda x: x, lambda x, y: gcd(gcd(x, y), n) == 1,
                         lambda u, x: u * x % n, [u for u in range(n) if gcd(u, n) == 1])


def fixed_coset_count(ring: FiniteRing, involution: str) -> int:
    """Unipotent cosets of SL2(R) at infinity fixed by the involution.

    Left cosets of the upper-unitriangular subgroup biject with unimodular
    columns (a, c); the involution fixes a coset exactly when it fixes the
    column: (sigma a, sigma c) = (a, c) for sigma and
    (sigma a, -sigma c) = (a, c) for tau.  Requires N = p^n with p an odd
    unramified prime.  One pass over R collects the admissible a and c
    (O(N) of each); their product is then tested pair by pair, O(N^2).
    """
    if involution not in (SIGMA, TAU):
        raise InputError(f"unknown involution {involution!r}")
    if len(ring.primes) != 1:
        raise InputError("fixed_coset_count requires a prime-power level")
    p, _, spl, _ = ring.primes[0]
    if p == 2 or spl == RAMIFIED:
        raise InputError("fixed_coset_count requires an odd unramified prime")
    fixed_a, fixed_c = [], []
    for x in ring.elements():
        sx = ring.sigma(x)
        if sx == x:
            fixed_a.append(x)
        if (sx if involution == SIGMA else ring.neg(sx)) == x:
            fixed_c.append(x)
    return sum(1 for a in fixed_a for c in fixed_c if ring.is_unimodular(a, c))


@dataclass(frozen=True)
class CensusReport:
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
    computed as h * #SL2(O/(N)) / N^2 with the enumerated SL2 order.

    N >= 3 keeps -1 out of the subgroup, which the coset counting assumes.
    """
    if N < 3:
        raise InputError(f"cusp_count_bruteforce requires N >= 3, got {N}")
    order = sl2_order(FiniteRing(field, N))
    total = field.h * order
    if total % (N * N):
        raise ConformanceError(f"SL2 order {order} not divisible by N^2 = {N * N}")
    return total // (N * N)
