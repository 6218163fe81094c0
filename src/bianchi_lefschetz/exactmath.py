"""Exact integer primitives shared by every other module.

All arithmetic here is on Python integers: deterministic factorization,
quadratic residue symbols, the 2-adic Hilbert symbol, traces of symmetric
powers of determinant-one matrices, the exact quotient that checks a
division leaves no remainder, and the refusals of what would not fit the
memory budget or print.  Nothing in this module touches floating point.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from math import gcd


class InputError(ValueError):
    """A precondition on an operation's inputs was violated."""


class ConformanceError(RuntimeError):
    """An exactness invariant failed at runtime.

    Raised when a quantity that must come out an integer (or must satisfy
    a parity constraint) turns out fractional.  This is a diagnostic about
    the formulas themselves, not a user error, so it is kept apart from
    InputError.
    """


MEMORY_BUDGET = 2**30     # bytes one census or operator may hold, checked before allocating


def brief(n: int) -> str:
    """n in decimal for a message, or "a k-digit integer" past 40 digits.

    The digits are counted, not printed: log10(2) > 0.30102 puts the first
    guess at or below log10 |n|, a few steps short of it.
    """
    m = abs(n)
    if m < 10**40:
        return str(n)
    k = (m.bit_length() - 1) * 30102 // 100000
    while m >= 10 ** (k + 1):
        k += 1
    return f"a {k + 1}-digit {'negative ' if n < 0 else ''}integer"


def brief_text(text: str) -> str:
    """repr(text) for a message, or "a k-character value" past 40 characters."""
    return repr(text) if len(text) <= 40 else f"a {len(text)}-character value"


def _mib(n: int) -> str:
    """n bytes in MiB to the nearest integer, ties to even as "%.0f" rounds."""
    q, r = divmod(n, 2**20)
    return brief(q + (r > 2**19 or r == 2**19 and q & 1))


def require_bytes(need: int, what: str) -> None:
    if need > MEMORY_BUDGET:
        raise InputError(f"{what} needs about {_mib(need)} MiB, over the "
                         f"{_mib(MEMORY_BUDGET)} MiB budget")


def require_digits(base: int, exp: int, what: str) -> None:
    """Refuse `what`, at least base^exp, when it certainly has more decimal
    digits than the interpreter prints (`sys.get_int_max_str_digits()`, 0
    for no limit), before it is computed: base^exp >= 2^(4 limit) > 10^limit
    once exp * (bit_length(base) - 1) >= 4 limit.
    """
    limit = getattr(sys, "get_int_max_str_digits", int)()     # no limit before Python 3.11
    if limit and exp * (base.bit_length() - 1) >= 4 * limit:
        raise InputError(f"{what} has more than {limit} digits, too many to print")


_TRIAL_LIMIT = 10**6

# The primes up to 41: the trial divisors, and a deterministic Miller-Rabin
# witness set for every n below psi_13 = 3317044064679887385961981, the
# least strong pseudoprime to all of them.  (The primes up to 37 alone
# pass psi_12 = 318665857834031151167461 = 399165290221 * 798330580441.)
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_WITNESS_LIMIT = 3317044064679887385961981


@lru_cache(maxsize=1024)
def is_prime(n: int) -> bool:
    """Deterministic primality test for n < _WITNESS_LIMIT; larger n are
    refused, since the witness set no longer decides them."""
    if n >= _WITNESS_LIMIT:
        raise InputError(f"is_prime decides n < {_WITNESS_LIMIT} only, got {brief(n)}")
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if p * p > n:
            return True
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        # a composite below 43^2 has a prime factor of at most 41
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> list[tuple[int, int]]:
    """Factor n >= 1 into an increasing list of (prime, exponent) pairs.

    factorize(1) == [].  Trial division up to 10**6, then a deterministic
    primality check on the leftover; inputs in this library stay at desk
    scale, so a composite leftover is treated as an input error.
    """
    if n < 1:
        raise InputError(f"factorize requires n >= 1, got {brief(n)}")
    out: list[tuple[int, int]] = []
    m = n
    p = 2
    while p * p <= m and p <= _TRIAL_LIMIT:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        if not is_prime(m):
            raise InputError(f"leftover factor {brief(m)} of {brief(n)} is composite "
                             "beyond trial range")
        out.append((m, 1))
    return out


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p, in {-1, 0, 1}."""
    if p == 2 or not is_prime(p):
        raise InputError(f"legendre requires an odd prime, got p={p}")
    r = pow(a % p, (p - 1) // 2, p)
    if r == p - 1:
        return -1
    return r  # 0 or 1


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n), the full multiplicative extension of Legendre."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -1
    # x & -x is the largest power of 2 dividing x, and x & 7 is x mod 8
    # (for negative x too); (2/m) = -1 exactly when m = +-3 mod 8.
    twos = (n & -n).bit_length() - 1
    if twos:
        if not a & 1:
            return 0
        n >>= twos
        if twos & 1 and a & 7 in (3, 5):
            sign = -sign
    # Jacobi loop on the remaining odd positive n.
    a %= n
    while a:
        if not a & 1:
            twos = (a & -a).bit_length() - 1
            a >>= twos
            if twos & 1 and n & 7 in (3, 5):
                sign = -sign
        if a & n & 2:       # reciprocity: both are 3 mod 4
            sign = -sign
        a, n = n % a, a
    return sign if n == 1 else 0


def hilbert2(a: int, b: int) -> int:
    """2-adic Hilbert symbol (a, b)_2 in {-1, 1}.

    Equals 1 exactly when z^2 = a*x^2 + b*y^2 has a 2-adic solution with
    some unit coordinate.  Computed by the closed exponent formula
    eps(u)eps(v) + alpha*omega(v) + beta*omega(u) on the odd parts u, v
    and the 2-adic valuations alpha, beta.
    """
    if a == 0 or b == 0:
        raise InputError("hilbert2 requires nonzero arguments")
    # a = 2**alpha * u and b = 2**beta * v with u, v odd; a & -a is 2**alpha
    alpha, beta = (a & -a).bit_length() - 1, (b & -b).bit_length() - 1
    u, v = a >> alpha, b >> beta
    # For odd x, eps(x) = (x - 1)/2 mod 2 is 1 exactly when x = 3 mod 4, and
    # omega(x) = (x^2 - 1)/8 mod 2 is 1 exactly when x = +-3 mod 8.
    eps_u, eps_v = u & 3 == 3, v & 3 == 3
    om_u, om_v = u & 7 in (3, 5), v & 7 in (3, 5)
    e = (eps_u and eps_v) ^ (alpha & om_v) ^ (beta & om_u)
    return -1 if e else 1


def sym_power_trace(t: int, k: int) -> int:
    """Trace of the k-th symmetric power of a det-1 matrix of trace t.

    With eigenvalues lam, mu (lam*mu = 1, lam + mu = t) this is
    sum_{j=0}^{k} lam^(k-j) mu^j, computed by the three-term recurrence
    u_0 = 1, u_1 = t, u_j = t*u_{j-1} - u_{j-2}.
    """
    if k < 0:
        raise InputError(f"sym_power_trace requires k >= 0, got {k}")
    if k == 0:
        return 1
    prev, cur = 1, t
    for _ in range(k - 1):
        prev, cur = cur, t * cur - prev
    return cur


def exact_quotient(num: int, den: int, what: str) -> int:
    """num / den for den > 0, which must leave no remainder.

    A remainder raises ConformanceError naming the reduced fraction: every
    formula in this library that promises an integer is expected to
    deliver one, and a fractional result is a conformance signal worth
    surfacing loudly.
    """
    q, r = divmod(num, den)
    if r:
        g = gcd(num, den)
        raise ConformanceError(f"{what} is not an integer: {num // g}/{den // g}")
    return q
