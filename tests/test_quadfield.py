import random
import tracemalloc
from math import gcd, isqrt

import pytest

from bianchi_lefschetz import exactmath, quadfield
from bianchi_lefschetz.exactmath import InputError, factorize, is_prime, kronecker
from bianchi_lefschetz.oracles import _hnf2, ideal_class_count, min_poly_splitting
from bianchi_lefschetz.quadfield import (ambiguous_form_count, is_square_free,
                                         make_field, reduced_forms, splitting_type,
                                         two_torsion_count)


class TestMakeField:
    def test_d_minus_2(self):
        f = make_field(-2)
        assert (f.D, f.t, f.ramified_primes, f.D2) == (-8, 1, (2,), 8)
        assert (f.omega_trace, f.omega_norm) == (0, 2)   # omega^2 = -2

    def test_d_minus_7(self):
        f = make_field(-7)
        assert (f.D, f.t, f.D2) == (-7, 1, 1)
        # omega^2 = omega - 2 for d = -7
        assert (f.omega_trace, f.omega_norm) == (1, 2)

    @pytest.mark.parametrize("bad", [-1, -3])
    def test_excluded_discriminants(self, bad):
        with pytest.raises(InputError, match="d != -1, -3"):
            make_field(bad)

    @pytest.mark.parametrize("bad", [0, 2, -4, -12, -50])
    def test_rejects_nonnegative_and_nonsquarefree(self, bad):
        with pytest.raises(InputError):
            make_field(bad)


    def test_invariants_match_the_factorization_of_D(self):
        for d in range(-2, -400, -1):
            if d in (-1, -3) or not is_square_free(d):
                continue
            f = make_field(d)
            factors = factorize(-f.D)
            assert f.ramified_primes == tuple(p for p, _ in factors), d
            assert f.D2 == 2 ** dict(factors).get(2, 0), d

    @pytest.mark.parametrize("d,good", [(-2 * 3 * 5 * 7 * 11 * 13, True), (-1155, True),
                                        (-4 * 3 * 5 * 7 * 11 * 13, False), (-9 * 5 * 7, False)])
    def test_factors_d_once(self, monkeypatch, d, good):
        # square-freeness, the ramified primes and D2 all come from one
        # factorization of |d|; a non-square-free d is still refused
        calls = []

        def counted(n):
            calls.append(n)
            return exactmath.factorize(n)
        make_field.cache_clear()
        monkeypatch.setattr(quadfield, "factorize", counted)
        if good:
            assert make_field(d).d == d
        else:
            with pytest.raises(InputError, match="square-free"):
                make_field(d)
        assert calls == [-d]
        make_field.cache_clear()


class TestSplitting:
    def test_frozen_values(self):
        assert splitting_type(make_field(-7), 3) == "inert"   # -7 = 2 mod 3
        assert splitting_type(make_field(-2), 3) == "split"   # -8 = 1 mod 3
        assert splitting_type(make_field(-5), 5) == "ramified"

    def test_rejects_composite(self):
        with pytest.raises(InputError):
            splitting_type(make_field(-2), 9)

    def test_min_poly_oracle(self):
        for d in range(-2, -31, -1):
            if d in (-1, -3) or not is_square_free(d):
                continue
            f = make_field(d)
            for p in range(2, 51):
                if is_prime(p):
                    assert splitting_type(f, p) == min_poly_splitting(f, p)


class TestClassNumber:
    def test_frozen_values(self):
        assert make_field(-2).h == 1
        assert make_field(-5).h == 2
        assert make_field(-23).h == 3

    def test_reduced_forms_minus_23(self):
        assert sorted(reduced_forms(-23)) == [(1, 1, 6), (2, -1, 3), (2, 1, 3)]

    def test_ideal_lattice_oracle(self):
        for d in range(-2, -301, -1):
            if d in (-1, -3) or not is_square_free(d):
                continue
            f = make_field(d)
            assert ideal_class_count(f) == f.h, d


class TestHermiteForm:
    def test_example_with_negative_partner(self):
        assert _hnf2([(3, 0), (1, -1)]) == (3, 2, 1)

    def test_any_generating_set_gives_the_same_triple(self):
        rng = random.Random(14)
        for _ in range(300):
            a, c = rng.randint(1, 40), rng.randint(1, 40)
            want = (a, rng.randrange(a), c)
            basis = [(a, 0), (want[1], c)]
            for _ in range(rng.randint(1, 4)):     # a random unimodular change of basis
                i = rng.randrange(2)
                op = rng.choice(("swap", "negate", "add"))
                if op == "swap":
                    basis.reverse()
                elif op == "negate":
                    basis[i] = (-basis[i][0], -basis[i][1])
                else:
                    m = rng.randint(-5, 5)
                    u, v = basis[i], basis[1 - i]
                    basis[i] = (u[0] + m * v[0], u[1] + m * v[1])
            assert _hnf2(basis) == want, (want, basis)
            extra = []
            for _ in range(rng.randint(1, 3)):
                m, n = rng.randint(-6, 6), rng.randint(-6, 6)
                extra.append((m * basis[0][0] + n * basis[1][0], m * basis[0][1] + n * basis[1][1]))
            gens = basis + extra + [(0, 0)]
            rng.shuffle(gens)
            assert _hnf2(gens) == want, (want, gens)

    @pytest.mark.parametrize("vectors", [[(2, 4), (-1, -2), (0, 0)], [(3, 0), (5, 0)],
                                         [(1, 1)], [(0, 0)], []])
    def test_rank_one_is_refused(self, vectors):
        with pytest.raises(InputError):
            _hnf2(vectors)


def _reduced_forms_ref(D):
    # the earlier a-first loop over |b| <= a <= sqrt(|D| / 3)
    forms = []
    for a in range(1, isqrt(-D // 3) + 1):
        for b in range(-a + 1, a + 1):
            num = b * b - D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a or (a == c and b < 0) or gcd(gcd(a, abs(b)), c) != 1:
                continue
            forms.append((a, b, c))
    return forms


class TestReducedFormsAgainstReference:
    def test_every_discriminant_down_to_minus_5000(self):
        for D in range(-3, -5001, -1):
            if D % 4 in (0, 1):
                assert reduced_forms(D) == _reduced_forms_ref(D), D

    def test_large_discriminant(self):
        D = -9999991  # d = D = 1 mod 4, near 10^7 like the largest CLI queries
        forms = reduced_forms(D)
        assert forms == _reduced_forms_ref(D)
        assert len(forms) > 100

    # the other five large d of the benchmark decks, and D = 4d, d = 3 mod 4
    @pytest.mark.parametrize("D", [-9999971, -9999967, -9999959, -9999947, -9999943,
                                   4 * -9999993])
    def test_more_large_discriminants(self, D):
        assert reduced_forms(D) == _reduced_forms_ref(D)

    def test_parity_of_q_alternates_when_D_is_even(self):
        # q = (b^2 - D) / 4 is 5, 6 at b = 0, 2: for even D the parity of q
        # alternates along b = 0, 2, 4, ..., so b = 0 alone does not decide 2 | q
        assert reduced_forms(-20) == [(1, 0, 5), (2, 2, 3)]


def _dirichlet_class_number(D):
    # h = sum_{1 <= a <= |D|/2} (D/a) / (2 - (D/2)) for fundamental D < -4;
    # Kronecker symbols only, no forms
    total = sum(kronecker(D, a) for a in range(1, -D // 2 + 1))
    h, rest = divmod(total, 2 - kronecker(D, 2))
    assert rest == 0, D
    return h


class TestClassNumberAgainstDirichlet:
    def test_every_field_down_to_minus_1000(self):
        for d in range(-2, -1001, -1):
            if d in (-1, -3) or not is_square_free(d):
                continue
            assert make_field(d).h == _dirichlet_class_number(make_field(d).D), d

    def test_seeded_sample_up_to_10_to_the_5(self):
        rng = random.Random(19)
        fields = []
        while len(fields) < 12:
            d = -rng.randint(1000, 10**5)
            if is_square_free(d) and (d % 4 == 1 or 4 * d >= -10**5):
                fields.append(make_field(d))
        for f in fields:
            assert f.h == _dirichlet_class_number(f.D), f.d


def test_reduced_forms_near_10_to_the_9_are_the_reduced_classes():
    d = -999990615   # 3 * 5 * 13 * 19 * 29 * 41 * 227, d = 1 mod 4, so D = d
    t = len(factorize(-d))
    forms = reduced_forms(d)
    assert all(x < y for x, y in zip(forms, forms[1:]))
    for a, b, c in forms:
        assert b * b - 4 * a * c == d
        assert abs(b) <= a <= c and (b >= 0 or (-b != a and a != c))
        assert gcd(gcd(a, b), c) == 1
    ambiguous = sum(1 for a, b, c in forms if b == 0 or a == b or a == c)
    assert (t, ambiguous) == (7, 2 ** (t - 1))
    assert len(forms) % ambiguous == 0     # genus theory: 2^(t-1) divides h
    assert len(forms) > 1000


class TestSieveSquareRoots:
    def test_every_residue_of_the_small_primes(self):
        for p in range(3, 400, 2):
            if not is_prime(p):
                continue
            for n in {x * x % p for x in range(1, p)}:
                assert quadfield._sqrt_mod(n, p) ** 2 % p == n, (n, p)

    @pytest.mark.parametrize("p", [40961, 65537, 786433])   # p - 1 = 2^13 * 5, 2^16, 2^18 * 3
    def test_primes_with_a_large_power_of_two_in_p_minus_1(self, p):
        rng = random.Random(p)
        for _ in range(200):
            n = pow(rng.randrange(1, p), 2, p)
            assert quadfield._sqrt_mod(n, p) ** 2 % p == n, (n, p)


class TestSieveMemoryGuard:
    def test_charge_bounds_the_peak(self):
        D = -100000031    # about 6.5 forms per value of b, among the most at this size
        n = len(range(1, isqrt(-D // 3) + 1, 2))
        tracemalloc.start()
        try:
            h = len(reduced_forms(D))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert h > 6 * n
        assert peak < quadfield._BYTES_PER_B * n

    def test_fifteen_digit_prime_is_refused_before_allocating(self):
        d = -100000000000031    # prime, d = 1 mod 4: about 2.9e6 values of b
        n = len(range(1, isqrt(-d // 3) + 1, 2))
        # checked first, so that a smaller charge fails here and not by running the sieve
        assert quadfield._BYTES_PER_B * n > exactmath.MEMORY_BUDGET
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match="budget"):
                reduced_forms(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16
        with pytest.raises(InputError, match="reduced forms of D=-100000000000031"):
            make_field(d)


class TestTwoTorsion:
    def test_frozen_values(self):
        assert two_torsion_count(make_field(-2)) == 1
        assert two_torsion_count(make_field(-5)) == 2
        assert two_torsion_count(make_field(-105)) == 8   # D = -420, t = 4

    def test_genus_cross_check(self):
        # ambiguous reduced forms are exactly the 2-torsion classes
        for d in range(-2, -201, -1):
            if d in (-1, -3) or not is_square_free(d):
                continue
            f = make_field(d)
            assert ambiguous_form_count(f.D) == two_torsion_count(f)
