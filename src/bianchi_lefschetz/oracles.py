"""Independent brute-force routes used by the test suite and `verify`.

Every function here recomputes something the library also computes by a
closed formula, using a different method (exhaustive search, lattice
enumeration, plain counting).  None of them import the module they check,
so each check really is a dual route.  They return values and check
nothing themselves: `verify` and the tests compare those values with the
closed formulas.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt, pi, sqrt

from .exactmath import InputError
from .quadfield import QuadField

HILBERT_ORACLE_MOD = 2**9  # the search runs modulo 2**9, enough to Hensel-lift


@lru_cache(maxsize=1)
def _square_classes() -> tuple[tuple[tuple[int, int], ...], tuple[int, ...], tuple[int, ...]]:
    """The distinct pairs (x^2 mod 2**9, x mod 2) over all residues x, and
    the shifted square masks hit_all[k], hit_odd[k]: bit t is set when
    (t + k) mod 2**9 is a square, respectively the square of an odd number.
    Built once.
    """
    mod = HILBERT_ORACLE_MOD
    classes = tuple(sorted({(x * x % mod, x % 2) for x in range(mod)}))
    full = (1 << mod) - 1

    def shifted(mask: int) -> tuple[int, ...]:
        # bit t of the k-th rotation is bit (t + k) mod 2**9 of mask
        return tuple((mask >> k | mask << (mod - k)) & full for k in range(mod))

    squares_all = sum(1 << sq for sq in {sq for sq, _ in classes})
    squares_odd = sum(1 << sq for sq in {sq for sq, odd in classes if odd})
    return classes, shifted(squares_all), shifted(squares_odd)


@lru_cache(maxsize=64)
def _value_masks(b: int) -> tuple[int, int]:
    """Bitmasks of the values b y^2 mod 2**9 over the square classes of y,
    one for y even and one for y odd."""
    by = [0, 0]
    for sq, odd in _square_classes()[0]:
        by[odd] |= 1 << (b * sq % HILBERT_ORACLE_MOD)
    return by[0], by[1]


@lru_cache(maxsize=64)
def _target_masks(a: int) -> tuple[int, int, int]:
    """Bitmasks of the t for which t + a x^2 mod 2**9 is a square for some
    square class of x: x odd, x even, and x even with the square of an odd z."""
    classes, hit_all, hit_odd = _square_classes()
    odd_x = even_x = even_x_odd_z = 0
    for sq, odd in classes:
        k = a * sq % HILBERT_ORACLE_MOD
        if odd:
            odd_x |= hit_all[k]
        else:
            even_x |= hit_all[k]
            even_x_odd_z |= hit_odd[k]
    return odd_x, even_x, even_x_odd_z


def hilbert2_norm_search(a: int, b: int) -> int:
    """Decide (a,b)_2 by exhaustive search for z^2 = a x^2 + b y^2 mod 2**9.

    A solution must have a unit coordinate (not all of x, y, z even);
    primitive solutions modulo 2**9 lift 2-adically for the |a|, |b| used
    in the tests (valuations at most 1).

    Whether (x, y) gives a solution depends on x only through
    (x^2 mod 2**9, x mod 2), and on y the same way: 87 classes each.
    The values t = b y^2 of the y-classes are held as one bitmask per
    parity of y, and the t for which t + a x^2 is a square (of an odd z
    when x and y are both even) as the OR over the x-classes of each
    parity; a solution exists exactly when some pair of these masks
    meets.  This is the same exhaustive predicate, there exist x and y,
    over the same class pairs; nothing about square classes is assumed,
    so the route stays independent of the closed formula.  The x-side
    masks are memoised per a in `_target_masks` and the y-side per b in
    `_value_masks`, since a grid of pairs repeats each a and each b.
    """
    if a == 0 or b == 0:
        raise InputError("hilbert2_norm_search requires nonzero arguments")
    odd_x, even_x, even_x_odd_z = _target_masks(a)
    by_even, by_odd = _value_masks(b)
    found = odd_x & (by_even | by_odd) or even_x & by_odd or even_x_odd_z & by_even
    return 1 if found else -1


def sym_power_trace_eigensum(t: int, k: int) -> int:
    """sum_{j<=k} lam^(k-j) mu^j computed exactly in Z[x]/(x^2 - t x + 1).

    lam = x and mu = t - x are the exact eigenvalues (lam*mu = 1,
    lam + mu = t); each power of lam and of mu is built once by repeated
    multiplication, and the constant term of the sum is returned: the sum
    is fixed by lam <-> mu (x -> t - x), so its x-coefficient is 0.
    Independent of the three-term recurrence.
    """

    def mul(u, v):
        # (u0 + u1 x)(v0 + v1 x) with x^2 = t x - 1
        return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0] + t * u[1] * v[1])

    lam_pows, mu_pows = [(1, 0)], [(1, 0)]
    for _ in range(k):
        lam_pows.append(mul(lam_pows[-1], (0, 1)))      # lam = x
        mu_pows.append(mul(mu_pows[-1], (t, -1)))       # mu = t - x
    total = (0, 0)
    for j in range(k + 1):
        term = mul(lam_pows[k - j], mu_pows[j])
        total = (total[0] + term[0], total[1] + term[1])
    return total[0]


def min_poly_splitting(field: QuadField, p: int) -> str:
    """Splitting of p read off from the roots of x^2 - T x + Nm modulo p."""
    roots = [r for r in range(p) if (r * r - field.omega_trace * r + field.omega_norm) % p == 0]
    if len(roots) == 2:
        return "split"
    if len(roots) == 1:
        return "ramified"
    return "inert"


def _omega_mult(field: QuadField, v: tuple[int, int]) -> tuple[int, int]:
    """omega * (x + y*omega) = -Nm*y + (x + T*y)*omega, in coordinates (x, y)."""
    x, y = v
    return (-field.omega_norm * y, x + field.omega_trace * y)


def is_unimodular_pair_oracle(field: QuadField, N: int, x: tuple[int, int], y: tuple[int, int]) -> bool:
    """Decide whether (x, y) generates O/(N) as an ideal, via lattice index.

    The ideal (x, y) of O/(N) is, as a Z-module, generated by x, omega*x,
    y, omega*y together with N*O; the pair is unimodular exactly when that
    lattice is all of Z^2, that is when its Hermite form has index a*c = 1.
    """
    a, _, c = _hnf2([x, _omega_mult(field, x), y, _omega_mult(field, y), (N, 0), (0, N)])
    return a * c == 1


# ---------------------------------------------------------------------------
# Ideal-lattice class number oracle
# ---------------------------------------------------------------------------

# An integral O-ideal is its Hermite triple (a, b, c): the Z-basis
# {a, b + c*omega}, of norm a*c.
_Triple = tuple[int, int, int]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    if b == 0:
        return (abs(a), 1 if a >= 0 else -1, 0)
    g, s, t = _xgcd(b, a % b)
    return (g, t, s - (a // b) * t)


def _hnf2(vectors: list[tuple[int, int]]) -> _Triple:
    """Hermite form (a, b, c) of the lattice Z*(a,0) + Z*(b,c): a, c > 0, 0 <= b < a."""
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
    x, c = cur if cur[1] > 0 else (-cur[0], -cur[1])
    return (a, x % a, c)


def _omega_stable(field: QuadField, a: int, b: int, c: int) -> bool:
    """Whether omega maps the lattice of (a, b, c) into itself, i.e. it is an ideal."""

    def member(v):
        x, y = v
        if y % c:
            return False
        q = y // c
        return (x - q * b) % a == 0

    return member(_omega_mult(field, (a, 0))) and member(_omega_mult(field, (b, c)))


def _ideal_product(field: QuadField, i: _Triple, j: _Triple) -> _Triple:
    """The products of the two Z-bases already span I*J as a Z-module."""
    gens = []
    for u in ((i[0], 0), (i[1], i[2])):
        for v in ((j[0], 0), (j[1], j[2])):
            wv = _omega_mult(field, v)   # u*v = u0*v + u1*(omega*v)
            gens.append((u[0] * v[0] + u[1] * wv[0], u[0] * v[1] + u[1] * wv[1]))
    return _hnf2(gens)


def _conjugate_ideal(field: QuadField, i: _Triple) -> _Triple:
    a, b, c = i
    return _hnf2([(a, 0), (b + field.omega_trace * c, -c)])


def _is_principal(field: QuadField, i: _Triple) -> bool:
    """An integral ideal is principal iff it contains an element of its norm."""
    a, b, c = i
    T = field.omega_trace
    n = a * c
    absD = abs(field.D)
    vmax = isqrt(4 * n // absD)
    for y in range(-(vmax // c) - 1, vmax // c + 2):
        v = y * c
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
            if (u - y * b) % a == 0:
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
    ideals: list[_Triple] = []
    for n in range(1, bound + 1):
        for c in range(1, n + 1):
            if n % c:
                continue
            a = n // c
            for b in range(a):
                if _omega_stable(field, a, b, c):
                    ideals.append((a, b, c))
    reps: list[_Triple] = []
    for ideal in ideals:
        if not any(_is_principal(field, _ideal_product(field, ideal, _conjugate_ideal(field, r)))
                   for r in reps):
            reps.append(ideal)
    return len(reps)
