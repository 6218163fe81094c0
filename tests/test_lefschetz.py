import sys
import time
from fractions import Fraction
from math import prod

import pytest

from bianchi_lefschetz.bounds import gl2_trace_sigma1
from bianchi_lefschetz.exactmath import InputError, is_prime, legendre
from bianchi_lefschetz.lefschetz import (BRACKET_VARIANTS, DEFAULT_BRACKET,
                                         KRONECKER, RATIONAL, TORSION_CHAR,
                                         _level_one_coefficients, _table_ab,
                                         adjudicate_brackets, bracket_factor, hilbert_at,
                                         lefschetz_level_one,
                                         lefschetz_sigma_prime_power,
                                         lefschetz_sigma_principal, make_level,
                                         summary_lines)
from bianchi_lefschetz.quadfield import (RAMIFIED, SIGMA, TAU, is_square_free,
                                         make_field, two_torsion_count)

F2, F5, F7, F11 = (make_field(d) for d in (-2, -5, -7, -11))
GRID = (F2, F5, F7, F11)


def _odd_ramified_level(field, N):
    # the retired reading of s, which counts only the odd ramified primes
    # of the level, kept as evidence for the choice between the two
    level = make_level(field, N)
    v2 = next((e for p, e, _ in level.factors if p == 2), 0)
    s = sum(1 for p, _, spl in level.factors if p != 2 and spl == RAMIFIED)
    A, B = _table_ab(field.d % 4, v2, field.t - s)
    return level._replace(A=A, B=B)


class TestRohlfsTable:
    def test_frozen_rows(self):
        def ab(field, N):
            level = make_level(field, N)
            return level.A, level.B

        assert ab(F7, 9) == (1, 0)                 # d = 1 mod 4, t = s = 1
        assert ab(F5, 3) == (2, 1)                 # d = 3 mod 4, v2 = 0
        a, b = ab(F2, 5)                           # d = 2 mod 4, v2 = 0, t - s = 0
        assert (a, b) == (1, Fraction(1, 2))
        assert a + 2 * b == 2

    @pytest.mark.parametrize("d, N, A, B, L0", [
        # v2 = 1, reached only at composite levels
        (-2, 6, 8, 0, -96), (-2, 10, 8, 0, -480), (-5, 6, 16, 0, -192),
        (-6, 10, 16, 0, -960),
        # v2 >= 2, for d = 2 and d = 3 mod 4
        (-2, 4, 8, 0, -32), (-2, 8, 8, 0, -256), (-5, 4, 16, 0, -64),
        (-5, 8, 16, 0, -512), (-2, 12, 4, 0, -384),
        # d = 1 mod 4, where 2 does not ramify
        (-7, 4, 2, 0, -8), (-7, 6, 1, 0, -12), (-11, 4, 2, 0, -8),
    ])
    def test_two_adic_rows(self, d, N, A, B, L0):
        field = make_field(d)
        level = make_level(field, N)
        assert (level.A, level.B) == (A, B)
        assert lefschetz_sigma_principal(field, level, 0) == L0

    def test_warning_flag_on_fractional_b(self):
        assert make_level(F2, 5).ab_warning
        assert not make_level(F5, 3).ab_warning

    def test_odd_ramified_reading_differs_on_unramified_prime(self):
        # with s counting only odd ramified primes of the level, an inert
        # odd prime level gets s = 0 instead of 1, so the table exponent
        # t - s is 1 instead of 0 (d = 1 mod 4: A = 2^(t-s), B = 0)
        default = make_level(F7, 3)
        literal = _odd_ramified_level(F7, 3)
        assert (default.A, default.B) == (1, 0)
        assert (literal.A, literal.B) == (2, 0)
        assert literal.a_plus_2b == 2 * default.a_plus_2b

    @pytest.mark.parametrize("field, N, L0", [
        (F7, 3, -4), (F11, 3, -4), (F7, 5, -20), (F11, 5, -20),
    ])
    def test_odd_ramified_reading_pins(self, field, N, L0):
        # the L(sigma) a homology oracle measured at these levels; the
        # shipped reading gives half of each
        level = _odd_ramified_level(field, N)
        assert lefschetz_sigma_principal(field, level, 0) == L0
        assert lefschetz_sigma_principal(field, N, 0) * 2 == L0

    def test_rejects_small_levels(self):
        with pytest.raises(InputError):
            make_level(F2, 2)


class TestPrincipal:
    def test_frozen_values(self):
        assert lefschetz_sigma_principal(F7, 3, 0) == -2
        assert lefschetz_sigma_principal(F5, 3, 0) == -8
        assert lefschetz_sigma_principal(F7, 3, 2) == -6   # linear in k+1

    def test_linearity_in_weight(self):
        base = Fraction(lefschetz_sigma_principal(F7, 3, 0))
        for k in range(1, 21):
            assert Fraction(lefschetz_sigma_principal(F7, 3, k), k + 1) == base

    def test_integral_on_prime_powers_up_to_40(self):
        for f in GRID:
            for N in range(3, 41):
                facts = [p for p in range(2, N + 1) if N % p == 0 and is_prime(p)]
                if len(facts) == 1:
                    assert isinstance(lefschetz_sigma_principal(f, N, 2), int)


class TestPrimePower:
    def test_frozen_values(self):
        assert lefschetz_sigma_prime_power(F7, 3, 1, 0) == -2
        assert lefschetz_sigma_prime_power(F2, 3, 1, 0) == -4
        assert lefschetz_sigma_prime_power(F2, 5, 2, 0) == -2500

    def test_rejects_even_and_ramified(self):
        with pytest.raises(InputError):
            lefschetz_sigma_prime_power(F2, 2, 2, 0)
        with pytest.raises(InputError):
            lefschetz_sigma_prime_power(F5, 5, 1, 0)

    def test_refuses_a_power_past_the_memory_budget(self):
        # 5^(3 * 10^10) would take about 8.7 GB; it is refused, not computed
        with pytest.raises(InputError, match=r"5\^30000000000 needs .* budget"):
            lefschetz_sigma_prime_power(F2, 5, 10**10, 0)

    def test_refuses_an_unprintable_number_before_computing(self, monkeypatch):
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)
        with pytest.raises(InputError, match=r"^L\(sigma, Gamma\(5\^2000000\), k=0\) has more "
                                             r"than 4300 digits"):
            lefschetz_sigma_prime_power(F2, 5, 2 * 10**6, 0)

    def test_two_routes_agree(self):
        from bianchi_lefschetz.quadfield import splitting_type
        for f in GRID:
            for p in (3, 5, 7):
                if splitting_type(f, p) == "ramified":
                    continue
                for n in (1, 2):
                    for k in range(6):
                        assert lefschetz_sigma_principal(f, p**n, k) == \
                            lefschetz_sigma_prime_power(f, p, n, k)


class TestBrackets:
    def test_all_variants_are_one_at_weight_zero(self):
        for v in BRACKET_VARIANTS:
            assert bracket_factor(v, 4, 0) == 1
            assert bracket_factor(v, 3, 0) == 1

    def test_divergence_at_positive_weight(self):
        assert bracket_factor(RATIONAL, 4, 2) == Fraction(3, 4)
        assert bracket_factor(KRONECKER, 4, 2) == 1     # k+1 = 3 odd
        assert bracket_factor(KRONECKER, 4, 1) == 0     # k+1 = 2 even
        assert bracket_factor(TORSION_CHAR, 4, 2) == -1  # order-4 pattern 1,0,-1,0
        assert bracket_factor(TORSION_CHAR, 3, 1) == -1  # order-3 pattern 1,-1,0

    def test_level_one_affine_in_the_weight_period(self):
        # sgn and every bracket reading repeat with period 12 in k, up to the
        # rational reading's and t1, t2's terms linear in k + 1, so L at
        # k = 12 m + r is affine in m; m = 10**11 needs the periodic readings
        m = 10**11
        for f in GRID:
            for involution in (SIGMA, TAU):
                for v in BRACKET_VARIANTS:
                    for r in range(1, 13):
                        l0, l1, lm = (lefschetz_level_one(f, involution, 12 * j + r, v)
                                      for j in (0, 1, m))
                        assert lm == l0 + m * (l1 - l0), (f.d, involution, v, r)

    def test_large_weight_is_fast(self):
        start = time.perf_counter()
        gl2_trace_sigma1(F2, 10**12)
        assert time.perf_counter() - start < 1


class TestLevelOne:
    def test_weight_zero_anchors_all_variants(self):
        for f in GRID:
            want_sigma = 2 + f.h - two_torsion_count(f)
            want_tau = 2 - f.h - two_torsion_count(f)
            for v in BRACKET_VARIANTS:
                assert lefschetz_level_one(f, "sigma", 0, v) == want_sigma
                assert lefschetz_level_one(f, "tau", 0, v) == want_tau

    def test_concrete_anchor_values(self):
        assert lefschetz_level_one(F2, "sigma", 0) == 2
        assert lefschetz_level_one(F2, "tau", 0) == 0
        assert lefschetz_level_one(F5, "sigma", 0) == 2
        assert lefschetz_level_one(F7, "sigma", 0) == 2

    def test_rational_variant_goes_fractional(self):
        res = lefschetz_level_one(F2, "sigma", 2, RATIONAL)
        assert res.denominator != 1
        assert res == Fraction(53, 24)

    def test_default_variant_stays_integral(self):
        for f in GRID:
            for inv in ("sigma", "tau"):
                for k in range(25):
                    assert lefschetz_level_one(f, inv, k, DEFAULT_BRACKET).denominator == 1


def _level_one_ref(field, involution, k, variant=DEFAULT_BRACKET):
    # the four terms written out per call, as first implemented, before the
    # weight-free products were factored out and memoised
    if involution not in (SIGMA, TAU):
        raise InputError(f"unknown involution {involution!r}")
    if k < 0:
        raise InputError(f"weight must be >= 0, got {k}")
    q = 1 if involution == TAU else -1
    odd_ram = [p for p in field.ramified_primes if p != 2]
    two_ram = 2 in field.ramified_primes
    sgn = (-1) ** k

    t1 = Fraction(-q, 12) * (k + 1)
    t1 *= prod((p + legendre(q, p) for p in odd_ram), start=1)
    if two_ram:
        t1 *= field.D2 + hilbert_at(field, q, 2)

    t2 = Fraction(q, 12) * sgn * (k + 1)
    t2 *= prod((1 + legendre(-q, p) for p in odd_ram), start=1)
    if two_ram:
        t2 *= 4 + hilbert_at(field, -q, 2)

    t3 = Fraction(1, 2) * bracket_factor(variant, 4, k)
    t3 *= prod((1 + legendre(-2 * q, p) for p in odd_ram), start=1)

    first = prod((1 + hilbert_at(field, -3 * q, p)
                  for p in field.ramified_primes if p != 3), start=1)
    second = prod((1 + hilbert_at(field, -q, p)
                   for p in field.ramified_primes), start=1)
    t4 = Fraction(1, 3) * (first + sgn * second) * bracket_factor(variant, 3, k)

    return Fraction(sgn * (t1 + t2 + t3 + t4))


class TestLevelOneAgainstReference:
    def test_every_field_weight_and_variant(self):
        fields = [make_field(d) for d in range(-2, -201, -1)
                  if d not in (-1, -3) and is_square_free(d)]
        for f in fields:
            for inv in (SIGMA, TAU):
                for k in range(25):
                    for v in BRACKET_VARIANTS:
                        got = lefschetz_level_one(f, inv, k, v)
                        assert got == _level_one_ref(f, inv, k, v), (f.d, inv, k, v)
                        assert type(got) is Fraction

    def test_adjudication_computes_each_product_once(self):
        _level_one_coefficients.cache_clear()
        adjudicate_brackets([make_field(d) for d in (-2, -5, -7, -11)], 24)
        # four fields times two involutions, shared by 3 variants x 25 weights
        assert _level_one_coefficients.cache_info().misses == 8


class TestAdjudication:
    def test_report_shape(self):
        records = adjudicate_brackets(list(GRID), 24)
        assert list(records) == list(BRACKET_VARIANTS)
        rational = records[RATIONAL]
        assert rational.integrality_failures        # recorded, required
        assert (-2, "sigma", 2, "53/24") in rational.integrality_failures
        assert records[DEFAULT_BRACKET].even_ok
        assert summary_lines(records)[-1] == \
            f"variants passing all even-k checks: {[TORSION_CHAR]}"
        # kronecker survives integrality but not even-weight parity
        kron = records[KRONECKER]
        assert not kron.integrality_failures and kron.parity_failures_even

    def test_odd_weight_tension_recorded_not_asserted(self):
        records = adjudicate_brackets(list(GRID), 24)
        odd = records[DEFAULT_BRACKET].parity_failures_odd
        assert (-2, 1) in odd   # the known tension point
        # no reading passes every check once odd weights count
        assert all(r.parity_failures_odd or r.integrality_failures or not r.even_ok
                   for r in records.values())

    def test_odd_weight_parity_failures_pinned(self):
        # A pin on the current output under torsion-char, not a claim about
        # which side is right: every odd k <= 23 fails for d = -2, -7, -11
        # and none fails for d = -5.
        odd = adjudicate_brackets(list(GRID), 24)[TORSION_CHAR].parity_failures_odd
        assert sorted(odd) == [(d, k) for d in (-11, -7, -2) for k in range(1, 24, 2)]
