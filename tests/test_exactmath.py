import random
import sys
from functools import lru_cache
from itertools import product

import numpy as np
import pytest

from bianchi_lefschetz import exactmath, oracles
from bianchi_lefschetz.exactmath import (ConformanceError, InputError, brief, exact_quotient,
                                         factorize, hilbert2, is_prime, kronecker,
                                         legendre, require_bytes, require_digits,
                                         sym_power_trace)
from bianchi_lefschetz.oracles import hilbert2_norm_search, sym_power_trace_eigensum


def trial_division(n):
    # independent mini-oracle for factorize
    out = []
    p = 2
    while n > 1:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    return out


class TestFactorize:
    def test_one_is_empty_product(self):
        assert factorize(1) == []

    def test_small(self):
        assert factorize(12) == [(2, 2), (3, 1)]

    def test_9999(self):
        # trial-division oracle: 9999 = 3^2 * 11 * 101
        assert factorize(9999) == trial_division(9999) == [(3, 2), (11, 1), (101, 1)]

    @pytest.mark.parametrize("n", [0, -5])
    def test_rejects_nonpositive(self, n):
        with pytest.raises(InputError):
            factorize(n)

    def test_reconstruction_and_primality(self):
        for n in range(1, 2000):
            facts = factorize(n)
            prod = 1
            for p, e in facts:
                assert is_prime(p)
                prod *= p**e
            assert prod == n
            assert [p for p, _ in facts] == sorted(p for p, _ in facts)


class TestLegendre:
    def test_frozen_values(self):
        assert legendre(2, 7) == 1      # 3^2 = 9 = 2 mod 7
        assert legendre(-1, 5) == 1     # 2^2 = 4 = -1 mod 5
        assert legendre(3, 5) == -1     # squares mod 5 are {1, 4}

    def test_rejects_two_and_composites(self):
        with pytest.raises(InputError):
            legendre(3, 2)
        with pytest.raises(InputError):
            legendre(3, 15)

    def test_exhaustive_square_oracle(self):
        for p in (3, 5, 7, 11, 13, 17, 19, 23):
            squares = {x * x % p for x in range(1, p)}
            for a in range(-40, 41):
                want = 0 if a % p == 0 else (1 if a % p in squares else -1)
                assert legendre(a, p) == want


class TestKronecker:
    def test_frozen_values(self):
        assert kronecker(-3, 2) == -1   # -3 = 5 mod 8
        assert kronecker(-8, 3) == 1    # -8 = 1 mod 3
        for n in (-7, -2, 1, 2, 3, 12, 101):
            assert kronecker(1, n) == 1

    def test_matches_legendre_at_odd_primes(self):
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
                  61, 67, 71, 73, 79, 83, 89, 97):
            for a in range(-200, 201):
                assert kronecker(a, p) == legendre(a, p)

    def test_reference_jacobi(self):
        # classic jacobi loop, written independently
        def jacobi(a, n):
            assert n > 0 and n % 2
            a %= n
            sign = 1
            while a:
                while a % 2 == 0:
                    a //= 2
                    if n % 8 in (3, 5):
                        sign = -sign
                a, n = n, a
                if a % 4 == 3 and n % 4 == 3:
                    sign = -sign
                a %= n
            return sign if n == 1 else 0

        for n in range(1, 160, 2):
            for a in range(-60, 61):
                assert kronecker(a, n) == jacobi(a, n)

    def test_matches_the_division_loop(self):
        # the symbol as it was written with % and // before it read bits:
        # n = 0, negative n and even n take their own branches
        def division_loop(a, n):
            if n == 0:
                return 1 if a in (1, -1) else 0
            sign = 1
            if n < 0:
                n = -n
                if a < 0:
                    sign = -1
            twos = 0
            while n % 2 == 0:
                n //= 2
                twos += 1
            if twos:
                if a % 2 == 0:
                    return 0
                if twos % 2 and a % 8 in (3, 5):
                    sign = -sign
            a %= n
            while a:
                while a % 2 == 0:
                    a //= 2
                    if n % 8 in (3, 5):
                        sign = -sign
                a, n = n, a
                if a % 4 == 3 and n % 4 == 3:
                    sign = -sign
                a %= n
            return sign if n == 1 else 0

        span = range(-300, 301)
        assert [kronecker(a, n) for a in span for n in span] == \
            [division_loop(a, n) for a in span for n in span]

    def test_multiplicative_in_both_arguments(self):
        vals = [-10, -7, -3, -2, -1, 1, 2, 3, 5, 6]
        for a1 in vals:
            for a2 in vals:
                for n in vals:
                    assert kronecker(a1 * a2, n) == kronecker(a1, n) * kronecker(a2, n)


class TestHilbert2:
    def test_frozen_values(self):
        # mod-2^9 search: no primitive z^2 = -x^2 - 2y^2
        assert hilbert2(-1, -2) == -1
        # 1 is a square, hence a norm from anywhere
        for b in (-10, -5, -2, -1, 1, 3, 7):
            assert hilbert2(1, b) == 1
        assert hilbert2(3, -2) == 1

    def test_rejects_zero(self):
        with pytest.raises(InputError):
            hilbert2(0, 3)

    def test_symmetric_and_bimultiplicative(self):
        squarefree = [s for n in range(1, 51)
                      if all(n % (q * q) for q in range(2, 8)) for s in (n, -n)]
        for a in squarefree[:40]:
            for b in squarefree[:40]:
                assert hilbert2(a, b) == hilbert2(b, a)
        small = [-6, -5, -3, -2, -1, 1, 2, 3, 5, 6, 7, 10]
        for a1 in small:
            for a2 in small:
                for b in small:
                    assert hilbert2(a1 * a2, b) == hilbert2(a1, b) * hilbert2(a2, b)

    def test_against_norm_search_sample(self):
        # the full grid runs in the acceptance suite; this is a fast slice
        for a in (-15, -9, -7, -3, -1, 1, 5, 11, 15):
            for b in (-13, -5, -1, 3, 7, 9):
                assert hilbert2(a, b) == hilbert2_norm_search(a, b)
        for a in (-10, -6, -2, 2, 6, 10):
            for b in (-15, -7, -1, 1, 3, 11):
                assert hilbert2(a, b) == hilbert2_norm_search(a, b)
                assert hilbert2(b, a) == hilbert2_norm_search(b, a)


@lru_cache(maxsize=None)   # the grids below repeat each argument many times
def _split_two_ref(n):
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    return v, n


def _hilbert2_ref(a, b):
    # the exponent formula on eps(u) = (u-1)/2 and omega(u) = (u^2-1)/8,
    # computed with the valuations stripped by repeated halving
    alpha, u = _split_two_ref(a)
    beta, v = _split_two_ref(b)
    eps_u = ((u - 1) // 2) % 2
    eps_v = ((v - 1) // 2) % 2
    om_u = ((u * u - 1) // 8) % 2
    om_v = ((v * v - 1) // 8) % 2
    e = eps_u * eps_v + alpha * om_v + beta * om_u
    return -1 if e % 2 else 1


class TestHilbert2AgainstReference:
    def test_small_grid(self):
        values = [x for x in range(-256, 257) if x]
        for a in values:
            for b in values:
                assert hilbert2(a, b) == _hilbert2_ref(a, b), (a, b)

    def test_high_valuations(self):
        bs = [b for b in range(-50, 51) if b]
        for e in range(81):
            for u in range(1, 64, 2):
                for a in (2**e * u, -(2**e) * u):
                    for b in bs:
                        assert hilbert2(a, b) == _hilbert2_ref(a, b), (a, b)


def _norm_search_ref(a, b, exp):
    # the earlier full search over all 2**exp x 2**exp pairs (x, y)
    mod = 1 << exp
    x = np.arange(mod, dtype=np.int64)
    sq = (x * x) % mod
    odd = (x % 2).astype(bool)
    squares_all = np.zeros(mod, dtype=bool)
    squares_all[sq] = True
    squares_odd = np.zeros(mod, dtype=bool)
    squares_odd[sq[odd]] = True
    ax = (a % mod) * sq % mod
    by = (b % mod) * sq % mod
    s = (ax[:, None] + by[None, :]) % mod
    some_unit_xy = odd[:, None] | odd[None, :]
    solvable = (squares_all[s] & some_unit_xy) | (squares_odd[s] & ~some_unit_xy)
    return 1 if bool(solvable.any()) else -1


@pytest.fixture
def search_modulus(monkeypatch):
    # the search reads its modulus 2**exp from one module constant, and a
    # smaller one makes the full residue grid cheap; its three memos hold
    # tables for one modulus, so they are emptied on the way in and out
    memos = (oracles._square_classes, oracles._value_masks, oracles._target_masks)

    def at(exp):
        monkeypatch.setattr(oracles, "HILBERT_ORACLE_MOD", 1 << exp)
        for memo in memos:
            memo.cache_clear()

    yield at
    for memo in memos:
        memo.cache_clear()


ODD_UNITS = [s * u for u in range(1, 16, 2) for s in (1, -1)]
TWO_ADIC_VALUES = [2**v * u for v in range(9) for u in ODD_UNITS]  # +-2^v u, v <= 8


class TestNormSearchAgainstFullGrid:
    @pytest.mark.parametrize("exp", [5, 7])
    def test_every_residue_pair(self, exp, search_modulus):
        # both searches read a and b only mod 2**exp; one value per residue
        # keeps all 144 x 144 pairs covered (every residue at exp = 5)
        search_modulus(exp)
        mod = 1 << exp
        reps = list({v % mod: v for v in TWO_ADIC_VALUES}.values())
        for a in reps:
            for b in reps:
                assert hilbert2_norm_search(a, b) == _norm_search_ref(a, b, exp), (a, b)

    def test_every_valuation_pair_at_exp_9(self):
        # the full grid costs about 5 ms a pair, so each pair of valuations
        # v, w <= 8 is checked with two seeded draws of the odd parts
        rng = random.Random(9)
        for v, w in product(range(9), repeat=2):
            for _ in range(2):
                a, b = 2**v * rng.choice(ODD_UNITS), 2**w * rng.choice(ODD_UNITS)
                assert hilbert2_norm_search(a, b) == _norm_search_ref(a, b, 9), (a, b)


def _norm_search_by_arrays(a, b, exp):
    # the earlier array search over the 87 x 87 distinct (x^2, x mod 2) pairs
    mod = 1 << exp
    x = np.arange(mod, dtype=np.int64)
    sq = (x * x) % mod
    odd = (x % 2).astype(bool)
    squares_all = np.zeros(mod, dtype=bool)
    squares_all[sq] = True
    squares_odd = np.zeros(mod, dtype=bool)
    squares_odd[sq[odd]] = True
    keys = np.unique(2 * sq + odd)
    sq, odd = keys >> 1, (keys & 1).astype(bool)
    s = ((a % mod) * sq % mod)[:, None] + ((b % mod) * sq % mod)[None, :]
    s %= mod
    some_unit_xy = odd[:, None] | odd[None, :]
    solvable = (squares_all[s] & some_unit_xy) | (squares_odd[s] & ~some_unit_xy)
    return 1 if bool(solvable.any()) else -1


@pytest.mark.parametrize("exp", [5, 7, 9])
def test_norm_search_matches_array_search(exp, search_modulus):
    # every pair of +-2^v u (v <= 8, odd u <= 15), one value per residue pair
    search_modulus(exp)
    mod = 1 << exp
    reps = list({v % mod: v for v in TWO_ADIC_VALUES}.values())
    for a in reps:
        for b in reps:
            assert hilbert2_norm_search(a, b) == _norm_search_by_arrays(a, b, exp), (a, b)


def _is_prime_by_miller_rabin(n):
    # the earlier route: trial division by the primes up to 37, then
    # Miller-Rabin with those primes as witnesses, for every n
    if n < 2:
        return False
    witnesses = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in witnesses:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in witnesses:
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


def test_is_prime_matches_miller_rabin():
    # 43^2 = 1849 bounds the trial-division shortcut, and 41^2 = 1681 lies
    # below it
    assert not is_prime(43 * 43) and not is_prime(41 * 43) and not is_prime(41 * 41)
    assert not is_prime(37 * 37) and not is_prime(31 * 37)
    assert is_prime(1667) and is_prime(1693) and is_prime(1847) and is_prime(1861)
    for n in range(-5, 2 * 10**5):
        assert is_prime(n) == _is_prime_by_miller_rabin(n), n


def test_is_prime_on_the_strong_pseudoprimes():
    # psi_12 passes Miller-Rabin for every prime base up to 37, and 41
    # exposes it; psi_13 passes every base up to 41, so it is refused
    psi12 = 318665857834031151167461
    assert psi12 == 399165290221 * 798330580441
    assert _is_prime_by_miller_rabin(psi12)
    assert not is_prime(psi12)
    assert not is_prime(3317044064679887385961980)          # even, the largest admitted
    with pytest.raises(InputError):
        is_prime(3317044064679887385961981)
    with pytest.raises(InputError):
        is_prime(10**30)


def test_legendre_grid_tests_each_prime_once():
    # the verify grid: legendre == kronecker for the odd primes below 100
    primes = [p for p in range(3, 100) if _is_prime_by_miller_rabin(p)]
    is_prime.cache_clear()
    assert all(legendre(a, p) == kronecker(a, p) for p in primes for a in range(-200, 201))
    info = is_prime.cache_info()
    assert info.misses <= 25 and info.hits >= 24 * 400
    with pytest.raises(InputError):
        legendre(3, 15)
    with pytest.raises(InputError):
        legendre(3, 15)                 # a cached False still refuses


class TestSymPowerTrace:
    def test_identity_like(self):
        for k in range(12):
            assert sym_power_trace(2, k) == k + 1

    def test_frozen_values(self):
        assert sym_power_trace(0, 2) == -1   # 1, 0, -1
        assert sym_power_trace(1, 3) == -1   # 1, 1, 0, -1

    def test_eigenvalue_sum_oracle(self):
        for t in range(-2, 3):
            for k in range(11):
                assert sym_power_trace(t, k) == sym_power_trace_eigensum(t, k)

    def test_periodicity_at_torsion_traces(self):
        for t, order in ((-1, 3), (0, 4), (1, 6)):
            seq = [sym_power_trace(t, k) for k in range(49)]
            for k in range(49 - order):
                assert seq[k + order] == seq[k]

    def test_rejects_negative_weight(self):
        with pytest.raises(InputError):
            sym_power_trace(1, -1)


def test_exact_quotient():
    assert exact_quotient(6, 3, "test value") == 2
    assert exact_quotient(-12, 4, "test value") == -3
    assert exact_quotient(0, 7, "test value") == 0
    # the message names the reduced fraction, its sign on the numerator
    for num, den, text in ((1, 2, "1/2"), (6, 4, "3/2"), (-10, 12, "-5/6")):
        with pytest.raises(ConformanceError) as err:
            exact_quotient(num, den, "test value")
        assert str(err.value) == f"test value is not an integer: {text}"


class TestMessageIntegers:
    def test_brief_writes_forty_digits_and_counts_longer(self):
        assert brief(10**40 - 1) == "9" * 40
        assert brief(-(10**40 - 1)) == "-" + "9" * 40
        for k in range(41, 500):
            assert brief(10 ** (k - 1)) == brief(10**k - 1) == f"a {k}-digit integer"
            assert brief(-(10**k - 1)) == f"a {k}-digit negative integer"

    def test_brief_counts_past_the_print_limit(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            assert brief(3**20000) == "a 9543-digit integer"
        finally:
            sys.set_int_max_str_digits(limit)

    def test_mib_rounds_as_the_float_format_did(self):
        # the figure is exact; "%.0f" of need / 2^20 agreed wherever that float was exact
        rng = random.Random(11)
        needs = [rng.randrange(2**53) for _ in range(3000)]
        needs += [k * 2**19 + e for k in range(1, 64) for e in (-1, 0, 1)]
        needs += [256 * N**2 for N in range(1, 10**7, 99991)] + [2**30, 2**52, 2**53]
        assert [exactmath._mib(n) for n in needs] == [f"{n / 2**20:.0f}" for n in needs]

    def test_require_bytes_names_a_figure_past_any_float(self):
        with pytest.raises(InputError) as err:
            require_bytes(10**400, "the thing")
        assert str(err.value) == ("the thing needs about a 394-digit integer MiB, "
                                  "over the 1024 MiB budget")

    def test_require_digits_refuses_only_what_is_certainly_too_long(self, monkeypatch):
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 100)
        require_digits(2, 399, "x")
        with pytest.raises(InputError, match=r"^x has more than 100 digits, too many to print$"):
            require_digits(2, 400, "x")
        for base in range(2, 70):
            for exp in range(1, 500):
                try:
                    require_digits(base, exp, "x")
                except InputError:
                    assert len(str(base**exp)) > 100, (base, exp)
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)     # no limit
        require_digits(5, 10**12, "x")
