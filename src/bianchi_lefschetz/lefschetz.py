"""Lefschetz numbers of the conjugation involutions.

Three formula families live here:

* the principal-level formula
  L(sigma, Gamma(N), E_{k,k}) = (A + 2B) * (-N^3/12) * prod_{p|N}(1 - p^-2) * (k+1),
  where A and B count translates of the two kinds of fixed surfaces and
  come from a table indexed by d mod 4 and v_2(N), the exponent of 2 in N;

* its specialization to odd unramified prime powers,
  -2^(t-1) resp. -2^t times (p^{3n} - p^{3n-2})/12 * (k+1);

* the level-one four-term formula for both involutions, whose two factors
  written ((k+1)/4) and ((k+1)/3) admit several readings.  The readings
  are pluggable (BracketVariant) and an adjudication harness decides which
  one survives the integrality, parity and weight-zero anchor checks; the
  shipped default is the one the harness selects.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import prod
from typing import NamedTuple

from .exactmath import (ConformanceError, InputError, brief, exact_quotient, factorize,
                        hilbert2, kronecker, legendre, require_bytes, require_digits,
                        sym_power_trace)
from .quadfield import RAMIFIED, SIGMA, TAU, QuadField, splitting_type, two_torsion_count

RATIONAL = "rational"
KRONECKER = "kronecker"
TORSION_CHAR = "torsion-char"
BRACKET_VARIANTS = (RATIONAL, KRONECKER, TORSION_CHAR)

# Selected by adjudicate_brackets over d in {-2,-5,-7,-11}, k <= 24: the
# only reading that keeps every even-weight integrality and parity check.
DEFAULT_BRACKET = TORSION_CHAR


@lru_cache(maxsize=512)
def bracket_factor(variant: str, modulus: int, k: int) -> Fraction:
    """One bracket factor ((k+1)/modulus), modulus in {3, 4}.

    Every registered reading is pinned to 1 at weight zero; that common
    anchor is what makes the weight-zero cross-identities variant-free.
    For k >= 1 the readings diverge: plain rational division, the
    Kronecker symbol (k+1 | modulus), or the symmetric-power character of
    an element of order 4 (trace 0) resp. 3 (trace -1), which has period
    modulus in k and is read at k mod modulus.
    """
    if modulus not in (3, 4):
        raise InputError(f"bracket modulus must be 3 or 4, got {modulus}")
    if k == 0:
        return Fraction(1)
    if variant == RATIONAL:
        return Fraction(k + 1, modulus)
    if variant == KRONECKER:
        return Fraction(kronecker(k + 1, modulus))
    if variant == TORSION_CHAR:
        return Fraction(sym_power_trace(0 if modulus == 4 else -1, k % modulus))
    raise InputError(f"unknown bracket variant {variant!r}")


# ---------------------------------------------------------------------------
# Principal congruence levels
# ---------------------------------------------------------------------------


class Level(NamedTuple):
    N: int
    factors: tuple[tuple[int, int, str], ...]  # (p, exponent, splitting)
    A: Fraction
    B: Fraction
    ab_warning: bool  # set when A or B alone is fractional

    @property
    def a_plus_2b(self) -> Fraction:
        return self.A + 2 * self.B


def _table_ab(d_mod4: int, v2: int, ts: int) -> tuple[Fraction, Fraction]:
    """Fixed-surface translate counts by d mod 4 and v2 = v_2(N), with ts = t - s.

    For d != 1 mod 4, 2 ramifies, so its prime divides a rational N to the
    even exponent 2 * v2 (odd exponents arise only for ideal levels), and
    d = 2 and d = 3 mod 4 share one table.
    """
    two = Fraction(2)
    if d_mod4 == 1:
        return two**ts, Fraction(0)
    if v2 == 0:
        return two**ts, two ** (ts - 1)
    if v2 == 1:
        return 8 * two**ts, Fraction(0)
    return 8 * two ** (ts - 1), Fraction(0)


def make_level(field: QuadField, N: int) -> Level:
    if N <= 2:
        raise InputError(f"principal levels require N > 2, got {brief(N)}")
    factors = tuple((p, e, splitting_type(field, p)) for p, e in factorize(N))
    v2 = next((e for p, e, _ in factors if p == 2), 0)
    s = sum(1 for p, _, _ in factors if p != 2)  # the odd rational primes dividing N
    A, B = _table_ab(field.d % 4, v2, field.t - s)
    if A < 0 or B < 0 or A + 2 * B <= 0:
        raise ConformanceError(f"fixed-surface counts A={A}, B={B} at (d={field.d}, "
                               f"N={N}) are not nonnegative with A + 2B > 0")
    warning = A.denominator != 1 or B.denominator != 1
    return Level(N=N, factors=factors, A=A, B=B, ab_warning=warning)


def lefschetz_sigma_principal(field: QuadField, level: Level | int, k: int) -> int:
    """L(sigma, Gamma(N), E_{k,k}) for N > 2, as an exact integer."""
    if isinstance(level, int):
        level = make_level(field, level)
    if k < 0:
        raise InputError(f"weight must be >= 0, got {brief(k)}")
    # (A + 2B) (-N^3 / 12) (k + 1) prod (p^2 - 1) / p^2 as one fraction
    ab = level.a_plus_2b
    num = -ab.numerator * level.N**3 * (k + 1)
    den = 12 * ab.denominator
    for p, _, _ in level.factors:
        num *= p * p - 1
        den *= p * p
    return exact_quotient(num, den, f"L(sigma, Gamma({brief(level.N)}), k={brief(k)})")


def lefschetz_sigma_prime_power(field: QuadField, p: int, n: int, k: int) -> int:
    """The prime-power specialization, for odd unramified p and p^n > 2.

    -2^(t-1) * (p^{3n} - p^{3n-2})/12 * (k+1) when d = 1 mod 4, and with
    2^t in place of 2^(t-1) otherwise.  An independent code path from the
    table-driven principal formula; the two must agree on their common
    domain.
    """
    if p == 2:
        raise InputError("prime-power Lefschetz formula requires an odd prime")
    spl = splitting_type(field, p)
    if spl == RAMIFIED:
        raise InputError(f"prime {p} ramifies in {field}; formula does not apply")
    if n < 1 or k < 0:
        raise InputError("need n >= 1 and k >= 0")
    require_bytes(3 * n * p.bit_length() // 8, f"the integer {p}^{brief(3 * n)}")
    what = f"L(sigma, Gamma({p}^{brief(n)}), k={brief(k)})"
    require_digits(p, 3 * n - 3, what)      # |L| >= p^(3n-2) (p^2 - 1) / 12 >= p^(3n-3)
    e = field.t - 1 if field.d % 4 == 1 else field.t
    return exact_quotient(-(2**e) * (p ** (3 * n) - p ** (3 * n - 2)) * (k + 1), 12, what)


# ---------------------------------------------------------------------------
# Level one: the four-term formula for sigma and tau
# ---------------------------------------------------------------------------


def hilbert_at(field: QuadField, a: int, p: int) -> int:
    """Local norm symbol (a | p) of K/Q at a ramified prime p.

    At odd p this is the Legendre symbol (a/p); at p = 2 it is the 2-adic
    Hilbert symbol (a, d)_2.
    """
    return hilbert2(a, field.d) if p == 2 else legendre(a, p)


@lru_cache(maxsize=256)
def _level_one_coefficients(field: QuadField, involution: str) -> tuple[int, int, int, int, int]:
    """The weight-free integer products of the four-term formula.

    Returns (c1, c2, c3, first, second): the prime products of t1, t2 and
    t3, and the two prime products of t4.  They depend on the field and
    the involution only, so one adjudication grid computes each once.
    """
    q = 1 if involution == TAU else -1
    odd_ram = [p for p in field.ramified_primes if p != 2]
    c1 = prod((p + legendre(q, p) for p in odd_ram), start=1)
    c2 = prod((1 + legendre(-q, p) for p in odd_ram), start=1)
    if 2 in field.ramified_primes:
        c1 *= field.D2 + hilbert_at(field, q, 2)
        c2 *= 4 + hilbert_at(field, -q, 2)
    c3 = prod((1 + legendre(-2 * q, p) for p in odd_ram), start=1)
    first = prod((1 + hilbert_at(field, -3 * q, p)
                  for p in field.ramified_primes if p != 3), start=1)
    second = prod((1 + hilbert_at(field, -q, p)
                   for p in field.ramified_primes), start=1)
    return c1, c2, c3, first, second


def lefschetz_level_one(field: QuadField, involution: str, k: int,
                        variant: str = DEFAULT_BRACKET) -> Fraction:
    """L(rho, SL2(O), E_{k,k}) for rho in {sigma, tau}.

    Four exact-rational terms, with sgn = (-1)^k and q = -1 for sigma,
    +1 for tau:
    t1 = -q (k+1) c1 / 12, t2 = q sgn (k+1) c2 / 12, t3 = c3 [(k+1)/4] / 2
    and t4 = (first + sgn second) [(k+1)/3] / 3, and L = sgn (t1 + t2 + t3 + t4).
    The integer products come from the memo `_level_one_coefficients`.
    A non-integral total is returned rather than raised, because
    integrality is exactly what adjudicates the bracket readings.
    """
    if involution not in (SIGMA, TAU):
        raise InputError(f"unknown involution {involution!r}")
    if k < 0:
        raise InputError(f"weight must be >= 0, got {brief(k)}")
    q = 1 if involution == TAU else -1
    sgn = (-1) ** k
    c1, c2, c3, first, second = _level_one_coefficients(field, involution)
    b4, b3 = bracket_factor(variant, 4, k), bracket_factor(variant, 3, k)
    # the four terms over their common denominator 12 * den(b4) * den(b3)
    d4, d3 = b4.denominator, b3.denominator
    num = (q * (k + 1) * (sgn * c2 - c1) * d4 * d3
           + 6 * c3 * b4.numerator * d3
           + 4 * (first + sgn * second) * b3.numerator * d4)
    return Fraction(sgn * num, 12 * d4 * d3)


# ---------------------------------------------------------------------------
# Bracket adjudication
# ---------------------------------------------------------------------------


class VariantRecord:
    def __init__(self) -> None:
        self.integrality_failures: list[tuple[int, str, int, str]] = []
        self.parity_failures_even: list[tuple[int, int]] = []
        self.parity_failures_odd: list[tuple[int, int]] = []
        self.anchor_failures: list[tuple[int, str, str]] = []

    @property
    def even_ok(self) -> bool:
        """All even-weight checks pass: integrality, parity and anchors."""
        return (not self.anchor_failures
                and not self.parity_failures_even
                and not any(k % 2 == 0 for _, _, k, _ in self.integrality_failures))


def summary_lines(records: dict[str, VariantRecord]) -> list[str]:
    """One line per reading, then the readings that pass every even-k check."""
    lines = [f"variant {v}: integrality failures {len(r.integrality_failures)}, "
             f"even-k parity failures {len(r.parity_failures_even)}, "
             f"odd-k parity failures {len(r.parity_failures_odd)}, "
             f"anchor failures {len(r.anchor_failures)}, "
             f"even-k clean: {r.even_ok}"
             for v, r in records.items()]
    passing = [v for v, r in records.items() if r.even_ok]
    lines.append(f"variants passing all even-k checks: {passing}")
    return lines


def adjudicate_brackets(fields: list[QuadField], k_max: int) -> dict[str, VariantRecord]:
    """Run every bracket reading over the grid and record what breaks, one
    record per reading in BRACKET_VARIANTS order.

    Three checks per (variant, d, k): integrality of both Lefschetz
    numbers; for k > 0 the parity constraint
    L(sigma) + L(tau) = -2^t (mod 4) needed for the GL2 trace to be an
    integer; and at k = 0 the anchor identities
    L(sigma) = 2 + h - 2^(t-1), L(tau) = 2 - h - 2^(t-1), valid on grids
    where weight-zero level-one cuspidal cohomology vanishes (the caller
    picks such a grid).  Odd-k parity is recorded separately: it is an
    open diagnostic, not an acceptance gate.
    """
    records = {v: VariantRecord() for v in BRACKET_VARIANTS}
    for variant, rec in records.items():
        for f in fields:
            anchor_sigma = 2 + f.h - two_torsion_count(f)
            anchor_tau = 2 - f.h - two_torsion_count(f)
            for k in range(k_max + 1):
                ls = lefschetz_level_one(f, SIGMA, k, variant)
                lt = lefschetz_level_one(f, TAU, k, variant)
                for involution, value in ((SIGMA, ls), (TAU, lt)):
                    if value.denominator != 1:
                        rec.integrality_failures.append((f.d, involution, k, str(value)))
                if k == 0:
                    if ls != anchor_sigma:
                        rec.anchor_failures.append((f.d, SIGMA, str(ls)))
                    if lt != anchor_tau:
                        rec.anchor_failures.append((f.d, TAU, str(lt)))
                    continue
                total = ls + lt
                parity_ok = total.denominator == 1 and (total + 2**f.t) % 4 == 0
                if not parity_ok:
                    if k % 2 == 0:
                        rec.parity_failures_even.append((f.d, k))
                    else:
                        rec.parity_failures_odd.append((f.d, k))
    return records
