"""Invariants of the imaginary quadratic field K = Q(sqrt(d)).

A field is described by a square-free d < 0 with d not in {-1, -3}; the
two excluded discriminants carry extra units that break the standing
assumptions of every formula downstream, so they are rejected outright.

The ring of integers is Z + Z*omega with omega = sqrt(d) when
d = 2, 3 (mod 4) and omega = (1 + sqrt(d))/2 when d = 1 (mod 4).  All
other modules address elements of O as integer pairs (a, b) meaning
a + b*omega; the uniform multiplication rule is
omega^2 = T*omega - Nm with T = trace(omega), Nm = norm(omega).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from math import gcd, isqrt
from typing import NamedTuple

from .exactmath import InputError, brief, factorize, is_prime, kronecker, require_bytes


class QuadField(NamedTuple):
    d: int                          # square-free, negative, not -1 or -3
    D: int                          # field discriminant: d or 4d
    ramified_primes: tuple[int, ...]
    t: int                          # number of ramified rational primes
    D2: int                         # 2-part of D: 1, 4 or 8
    h: int                          # class number
    omega_trace: int                # T  = omega + conj(omega)
    omega_norm: int                 # Nm = omega * conj(omega)

    def __str__(self) -> str:
        return f"Q(sqrt({self.d}))"


def is_square_free(n: int) -> bool:
    return all(e == 1 for _, e in factorize(abs(n)))


# Bytes per value of b that reduced_forms holds at its peak: q_b, its
# divisors up to sqrt(q_b), and its share of the returned forms, h / n
# forms of about 200 bytes each for n values of b.  tracemalloc peaks are
# 500-1400 bytes per b at |D| = 10^7 ... 10^8 as h / n goes from 1.9 to
# 6.5, and h / n grows only like log log |D|.
_BYTES_PER_B = 2048


def _sqrt_mod(n: int, p: int) -> int:
    """A square root of the quadratic residue n, p not dividing n, modulo
    the odd prime p: one power when p = 3 mod 4, else Tonelli-Shanks."""
    if p % 4 == 3:
        return pow(n, (p + 1) // 4, p)
    odd, s = p - 1, 0
    while odd % 2 == 0:
        odd //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, t, r = pow(z, odd, p), pow(n, odd, p), pow(n, (odd + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        f = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, f * f % p, t * f * f % p, r * f % p
    return r


def _odd_primes_to(m: int) -> list[int]:
    """The odd primes p <= m, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * (m + 1)
    for p in range(3, isqrt(m) + 1, 2):
        if sieve[p]:
            sieve[p * p::2 * p] = bytes(len(range(p * p, m + 1, 2 * p)))
    return list(compress(range(3, m + 1, 2), sieve[3::2]))


def reduced_forms(D: int) -> list[tuple[int, int, int]]:
    """Primitive reduced positive-definite forms (a, b, c) of discriminant D.

    Reduction means |b| <= a <= c with b >= 0 whenever |b| = a or a = c;
    one form per class, so the length of this list is the class number of
    the (fundamental) discriminant D < 0.  Sorted by (a, b).

    Enumerated by b >= 0 first (b = D mod 2, 3 b^2 <= |D|), then by the
    divisors max(b, 1) <= a <= sqrt(q) of q = (b^2 - D) / 4, with
    c = q / a; the form (a, -b, c) is reduced too when 0 < b < a < c.
    The divisors come from a sieve over b: an odd prime p divides q
    exactly when b^2 = D (mod p), at most two classes of b mod p, and
    since q_{b+2} = q_b + b + 1 the parity of q has period 4 in b.  Only
    primes up to sqrt(max q) can divide an a that small.  About
    sqrt(|D|) log |D| steps; the memory, about _BYTES_PER_B per b, is
    charged before anything is allocated.
    """
    if D >= 0 or D % 4 not in (0, 1):
        raise InputError(f"not a negative quadratic discriminant: {D}")
    b0 = D % 2
    bs = range(b0, isqrt(-D // 3) + 1, 2)
    n = len(bs)
    require_bytes(_BYTES_PER_B * n, f"the reduced forms of D={brief(D)}")
    qs = [(b * b - D) // 4 for b in bs]
    tops = [isqrt(q) for q in qs]
    divisors = [[1] for _ in bs]    # per b, the divisors of q_b up to sqrt(q_b) found so far

    def attach(p: int, start: int) -> None:
        # p divides q_b at every index i = start (mod p); multiply in p^e || q_b
        for i in range(start, n, p):
            top, q = tops[i], qs[i] // p
            found = grown = divisors[i]
            while True:
                grown = [x * p for x in grown if x * p <= top]
                if not grown:
                    break
                found += grown
                if q % p:
                    break
                q //= p

    for i in (0, 1):    # q_{b+2} = q_b + b + 1: the parity of q_b has period 2 in i
        if i < n and qs[i] % 2 == 0:
            attach(2, i)
    for p in _odd_primes_to(tops[-1]):
        r = D % p
        if r == 0:
            roots = (0,)
        elif pow(r, (p - 1) // 2, p) != 1:
            continue
        else:
            root = _sqrt_mod(r, p)
            roots = (root, p - root)
        for root in roots:
            # b = b0 + 2i = root (mod p), and (p + 1) / 2 inverts 2
            attach(p, (root - b0) * (p + 1) // 2 % p)

    forms = []
    for b, q, found in zip(bs, qs, divisors):
        for a in found:
            if a < b:
                continue
            c = q // a
            if gcd(a, b, c) != 1:
                continue
            forms.append((a, b, c))
            if 0 < b < a < c:
                forms.append((a, -b, c))
    forms.sort()
    return forms


@lru_cache(maxsize=256)
def _form_counts(D: int) -> tuple[int, int]:
    """h(D) and the ambiguous-form count, one pass; the forms are not kept."""
    forms = reduced_forms(D)
    return len(forms), sum(1 for (a, b, c) in forms if b == 0 or a == b or a == c)


def class_number_from_discriminant(D: int) -> int:
    return _form_counts(D)[0]


def ambiguous_form_count(D: int) -> int:
    """Number of reduced forms fixed by the class-group inversion.

    A reduced form is ambiguous exactly when b = 0, a = b or a = c; genus
    theory says there are 2^(t-1) of them for a fundamental D with t
    ramified primes, which is what the tests cross-check.
    """
    return _form_counts(D)[1]


@lru_cache(maxsize=256)
def make_field(d: int) -> QuadField:
    """Build the QuadField for a square-free d < 0, d not in {-1, -3}.

    Memoised (`make_field.cache_clear()` empties the memo): a caller asks
    for the same few fields again and again, and each build sieves the
    reduced forms of D once, about sqrt(|D|) log |D| steps (see
    reduced_forms).  `lru_cache` stores no exceptions, so a rejected d
    raises InputError on every call.
    """
    if d >= 0:
        raise InputError(f"d must be negative, got {brief(d)}")
    if d in (-1, -3):
        raise InputError("d must be a square-free negative integer with d != -1, -3 "
                         "(these fields have extra units)")
    # one factorization of |d| gives square-freeness and the primes of D
    factors = factorize(-d)
    if any(e > 1 for _, e in factors):
        raise InputError(f"d must be square-free, got {brief(d)}")
    ramified = tuple(p for p, _ in factors)
    if d % 4 == 1:
        D, D2 = d, 1
        omega_trace, omega_norm = 1, (1 - d) // 4
    else:
        # D = 4d: 2 ramifies, and its part of D is 4 for odd d, 8 for even d
        D, D2 = 4 * d, 8 if d % 2 == 0 else 4
        if d % 2:
            ramified = (2,) + ramified
        omega_trace, omega_norm = 0, -d
    return QuadField(
        d=d,
        D=D,
        ramified_primes=ramified,
        t=len(ramified),
        D2=D2,
        h=class_number_from_discriminant(D),
        omega_trace=omega_trace,
        omega_norm=omega_norm,
    )


SPLIT, INERT, RAMIFIED = "split", "inert", "ramified"

# The two involutions: sigma is the Galois conjugation; tau composes it
# with conjugation by diag(-1, 1) on matrices.
SIGMA, TAU = "sigma", "tau"


def splitting_type(field: QuadField, p: int) -> str:
    """Behavior of the rational prime p in O: split, inert or ramified."""
    if not is_prime(p):
        raise InputError(f"splitting_type requires a prime, got {brief(p)}")
    if p in field.ramified_primes:
        return RAMIFIED
    return SPLIT if kronecker(field.D, p) == 1 else INERT


def unimodular_column_count(field: QuadField, N: int) -> int:
    """Unimodular columns (a, c) of (O/(N))^2, those outside M^2 for every
    maximal ideal M, prime by prime: at p^e || N, (p^{2e} - p^{2e-2})^2 for
    split p, p^{4e} - p^{4e-4} for inert p and p^{4e} - p^{4e-2} for
    ramified p.  #SL2(O/(N)) is N^2 times it and the cusp count h times it."""
    total = 1
    for p, e in factorize(N):
        spl = splitting_type(field, p)
        if spl == SPLIT:
            total *= (p ** (2 * e) - p ** (2 * e - 2)) ** 2
        elif spl == INERT:
            total *= p ** (4 * e) - p ** (4 * e - 4)
        else:
            total *= p ** (4 * e) - p ** (4 * e - 2)
    return total


def two_torsion_count(field: QuadField) -> int:
    """Number of ideal classes of order at most 2, i.e. 2^(t-1)."""
    return 2 ** (field.t - 1)
