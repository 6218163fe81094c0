import random
from math import gcd, isqrt

import pytest

from bianchi_lefschetz import exactmath, quadfield
from bianchi_lefschetz.exactmath import InputError, factorize, is_prime
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
