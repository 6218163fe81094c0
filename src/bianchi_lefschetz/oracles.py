"""Independent brute-force routes used by the test suite and `verify`.

Every function here recomputes something the library also computes by a
closed formula, using a different method (exhaustive search, lattice
enumeration, plain counting).  None of them import the module they check,
so each check really is a dual route.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt, pi, sqrt

from .exactmath import ConformanceError, InputError
from .quadfield import QuadField

HILBERT_ORACLE_EXP = 9  # the search runs modulo 2**9, enough to Hensel-lift


@lru_cache(maxsize=4)
def _square_classes(exp: int) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...],
                                        tuple[int, ...]]:
    """The distinct pairs (x^2 mod 2**exp, x mod 2) over all residues x, and
    the shifted square masks hit_all[k], hit_odd[k]: bit t is set when
    (t + k) mod 2**exp is a square, respectively the square of an odd number.
    Built once per exp.
    """
    mod = 1 << exp
    classes = tuple(sorted({(x * x % mod, x % 2) for x in range(mod)}))
    full = (1 << mod) - 1

    def shifted(mask: int) -> tuple[int, ...]:
        # bit t of the k-th rotation is bit (t + k) mod 2**exp of mask
        return tuple((mask >> k | mask << (mod - k)) & full for k in range(mod))

    squares_all = sum(1 << sq for sq in {sq for sq, _ in classes})
    squares_odd = sum(1 << sq for sq in {sq for sq, odd in classes if odd})
    return classes, shifted(squares_all), shifted(squares_odd)


@lru_cache(maxsize=64)
def _value_masks(b: int, exp: int) -> tuple[int, int]:
    """Bitmasks of the values b y^2 mod 2**exp over the square classes of y,
    one for y even and one for y odd."""
    mod = 1 << exp
    by = [0, 0]
    for sq, odd in _square_classes(exp)[0]:
        by[odd] |= 1 << (b * sq % mod)
    return by[0], by[1]


def hilbert2_norm_search(a: int, b: int, exp: int = HILBERT_ORACLE_EXP) -> int:
    """Decide (a,b)_2 by exhaustive search for z^2 = a x^2 + b y^2 mod 2**exp.

    A solution must have a unit coordinate (not all of x, y, z even);
    primitive solutions modulo 2**9 lift 2-adically for the |a|, |b| used
    in the tests (valuations at most 1).

    Whether (x, y) gives a solution depends on x only through
    (x^2 mod 2**exp, x mod 2), and on y the same way: 87 classes each mod
    2**9.  The values b y^2 of the y-classes are held as one bitmask per
    parity of y, so an x-class with k = a x^2 is decided by ANDing them
    with the masks of t for which t + k is a square (of an odd z when x and
    y are both even).  This is the same exhaustive predicate over the same
    class pairs; nothing about square classes is assumed, so the route stays
    independent of the closed formula.  The y-side masks are memoised per
    (b, exp) in `_value_masks`, since a grid of pairs repeats each b.
    """
    if a == 0 or b == 0:
        raise InputError("hilbert2_norm_search requires nonzero arguments")
    mod = 1 << exp
    classes, hit_all, hit_odd = _square_classes(exp)
    by_even, by_odd = _value_masks(b, exp)
    by_any = by_even | by_odd
    for sq, odd in classes:
        k = a * sq % mod
        if odd:
            found = hit_all[k] & by_any
        else:
            found = hit_all[k] & by_odd or hit_odd[k] & by_even
        if found:
            return 1
    return -1


def sym_power_trace_eigensum(t: int, k: int) -> int:
    """sum_{j<=k} lam^(k-j) mu^j computed exactly in Z[x]/(x^2 - t x + 1).

    lam = x and mu = t - x are the exact eigenvalues (lam*mu = 1,
    lam + mu = t); the sum must come out constant, and its constant term
    is returned.  Independent of the three-term recurrence.
    """

    def mul(u, v):
        # (u0 + u1 x)(v0 + v1 x) with x^2 = t x - 1
        return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0] + t * u[1] * v[1])

    def power(base, n):
        acc = (1, 0)
        for _ in range(n):
            acc = mul(acc, base)
        return acc

    lam = (0, 1)
    mu = (t, -1)
    total = (0, 0)
    for j in range(k + 1):
        term = mul(power(lam, k - j), power(mu, j))
        total = (total[0] + term[0], total[1] + term[1])
    if total[1]:
        raise ConformanceError(f"eigenvalue sum {total} is not rational (t={t}, k={k})")
    return total[0]


def min_poly_splitting(field: QuadField, p: int) -> str:
    """Splitting of p read off from the roots of x^2 - T x + Nm modulo p."""
    roots = [r for r in range(p) if (r * r - field.omega_trace * r + field.omega_norm) % p == 0]
    if len(roots) == 2:
        return "split"
    if len(roots) == 1:
        return "ramified"
    return "inert"


def pair_index(vectors: list[tuple[int, int]]) -> int:
    """Index in Z^2 of the lattice generated by the given vectors.

    Uses the elementary-divisor identity: the index equals the gcd of all
    2x2 minors (the vectors must span a finite-index sublattice).
    """
    g = 0
    for i in range(len(vectors)):
        x1, y1 = vectors[i]
        for j in range(i + 1, len(vectors)):
            x2, y2 = vectors[j]
            g = gcd(g, abs(x1 * y2 - y1 * x2))
    if g == 0:
        raise InputError("vectors do not span a finite-index sublattice")
    return g


def is_unimodular_pair_oracle(field: QuadField, N: int, x: tuple[int, int], y: tuple[int, int]) -> bool:
    """Decide whether (x, y) generates O/(N) as an ideal, via lattice index.

    The ideal (x, y) of O/(N) is, as a Z-module, generated by x, omega*x,
    y, omega*y together with N*O; the pair is unimodular exactly when that
    lattice is all of Z^2.
    """
    T, Nm = field.omega_trace, field.omega_norm

    def omega_mult(v):
        a, b = v
        return (-Nm * b, a + T * b)

    vecs = [x, omega_mult(x), y, omega_mult(y), (N, 0), (0, N)]
    return pair_index(vecs) == 1


# ---------------------------------------------------------------------------
# Ideal-lattice class number oracle
# ---------------------------------------------------------------------------


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    if b == 0:
        return (abs(a), 1 if a >= 0 else -1, 0)
    g, s, t = _xgcd(b, a % b)
    return (g, t, s - (a // b) * t)


def _hnf2(vectors: list[tuple[int, int]]) -> tuple[int, int, int]:
    """Hermite form (a, b, c) of the lattice Z*(a,0) + Z*(b,c), c > 0."""
    cur = (0, 0)
    xs: list[int] = []
    for v in vectors:
        if v == (0, 0):
            continue
        x2, y2 = v
        if y2 == 0:
            xs.append(x2)
            continue
        x1, y1 = cur
        if y1 == 0:
            cur = v
            continue
        g, s, t = _xgcd(y1, y2)
        xs.append((y2 // g) * x1 - (y1 // g) * x2)
        cur = (s * x1 + t * x2, g)
    a = 0
    for x in xs:
        a = gcd(a, abs(x))
    if a == 0 or cur[1] == 0:
        raise InputError("vectors do not span a rank-2 lattice")
    c = abs(cur[1])
    b = cur[0] % a
    return (a, b, c)


class _Ideal:
    """Integral O-ideal in Hermite form: Z-basis {a, b + c*omega}."""

    def __init__(self, field: QuadField, a: int, b: int, c: int):
        self.field = field
        self.a, self.b, self.c = a, b, c

    @property
    def norm(self) -> int:
        return self.a * self.c

    def vectors(self) -> list[tuple[int, int]]:
        return [(self.a, 0), (self.b, self.c)]


def _omega_stable(field: QuadField, a: int, b: int, c: int) -> bool:
    T, Nm = field.omega_trace, field.omega_norm

    def member(v):
        x, y = v
        if y % c:
            return False
        q = y // c
        return (x - q * b) % a == 0

    # omega * a = (0, a);  omega * (b + c omega) = (-Nm c, b + T c)
    return member((0, a)) and member((-Nm * c, b + T * c))


def _ideal_product(i: _Ideal, j: _Ideal) -> _Ideal:
    field = i.field
    T, Nm = field.omega_trace, field.omega_norm

    def mul(u, v):
        return (u[0] * v[0] - Nm * u[1] * v[1], u[0] * v[1] + u[1] * v[0] + T * u[1] * v[1])

    def omega_mult(v):
        return (-Nm * v[1], v[0] + T * v[1])

    gens = []
    for u in i.vectors():
        for v in j.vectors():
            w = mul(u, v)
            gens.append(w)
            gens.append(omega_mult(w))
    a, b, c = _hnf2(gens)
    return _Ideal(field, a, b, c)


def _conjugate_ideal(i: _Ideal) -> _Ideal:
    T = i.field.omega_trace
    a, b, c = _hnf2([(i.a, 0), (i.b + T * i.c, -i.c)])
    return _Ideal(i.field, a, b, c)


def _is_principal(i: _Ideal) -> bool:
    """An integral ideal is principal iff it contains an element of its norm."""
    field = i.field
    T, Nm = field.omega_trace, field.omega_norm
    n = i.norm
    absD = abs(field.D)
    vmax = isqrt(4 * n // absD)
    for y in range(-(vmax // i.c) - 1, vmax // i.c + 2):
        v = y * i.c
        disc = 4 * n - absD * v * v
        if disc < 0:
            continue
        s = isqrt(disc)
        if s * s != disc:
            continue
        for u in {(-T * v + s), (-T * v - s)}:
            if u % 2:
                continue
            u //= 2
            # u + v*omega must lie in the ideal: u = x*a + y*b
            if (u - y * i.b) % i.a == 0:
                if u * u + T * u * v + Nm * v * v != n:
                    raise ConformanceError(f"{u} + {v}*omega lies in the ideal but "
                                           f"its norm is not {n}")
                return True
    return False


def ideal_class_count(field: QuadField) -> int:
    """Class number by enumerating ideal lattices up to the Minkowski bound.

    Every ideal class contains an integral ideal of norm at most
    (2/pi) * sqrt(|D|); two ideals I, J are equivalent exactly when
    I * conj(J) is principal.  Completely independent of the reduced-form
    enumeration.
    """
    bound = int((2 / pi) * sqrt(abs(field.D)))
    ideals: list[_Ideal] = []
    for n in range(1, bound + 1):
        for c in range(1, n + 1):
            if n % c:
                continue
            a = n // c
            for b in range(a):
                if _omega_stable(field, a, b, c):
                    ideals.append(_Ideal(field, a, b, c))
    reps: list[_Ideal] = []
    for ideal in ideals:
        if not any(_is_principal(_ideal_product(ideal, _conjugate_ideal(r))) for r in reps):
            reps.append(ideal)
    return len(reps)
