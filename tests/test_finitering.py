import tracemalloc
from collections import Counter
from math import gcd

import pytest

from bianchi_lefschetz import exactmath, finitering
from bianchi_lefschetz.eisenstein import cusp_count
from bianchi_lefschetz.exactmath import InputError
from bianchi_lefschetz.finitering import (FiniteRing, cusp_count_bruteforce,
                                          enumerate_sl2, fixed_coset_count,
                                          fixed_coset_report, projective_line,
                                          sl2_order, sl2_order_formula)
from bianchi_lefschetz.oracles import _hnf2, _omega_mult
from bianchi_lefschetz.quadfield import (INERT, RAMIFIED, SPLIT, QuadField, make_field,
                                         splitting_type, unimodular_column_count)

F2, F5, F7, F11 = (make_field(d) for d in (-2, -5, -7, -11))
# (d, N, maximal ideals): one (ramified, inert) up to six
MASK_GUARD_LEVELS = [(-5, 625, 1), (-7, 729, 1), (-7, 64, 2), (-2, 297, 4), (-7, 506, 6),
                     (-7, 1012, 6)]


def is_unimodular_pair_oracle(field: QuadField, N: int, x: tuple[int, int], y: tuple[int, int]) -> bool:
    """Decide whether (x, y) generates O/(N) as an ideal, via lattice index.

    The ideal (x, y) of O/(N) is, as a Z-module, generated by x, omega*x,
    y, omega*y together with N*O; the pair is unimodular exactly when that
    lattice is all of Z^2, that is when its Hermite form has index a*c = 1.
    """
    a, _, c = _hnf2([x, _omega_mult(field, x), y, _omega_mult(field, y), (N, 0), (0, N)])
    return a * c == 1


class TestRingBasics:
    def test_sigma_is_ring_involution(self):
        for f in (F2, F7):
            ring = FiniteRing(f, 5)
            for x in ring.elements():
                assert _sigma(ring, _sigma(ring, x)) == x
                for y in ring.elements()[:10]:
                    assert _sigma(ring, _mul(ring, x, y)) == \
                        _mul(ring, _sigma(ring, x), _sigma(ring, y))

    def test_crt_splitting_matches_direct_sigma(self):
        # 3 splits in Q(sqrt(-2)): the root map x -> (x mod P, x mod Pbar) is a
        # ring isomorphism under which sigma becomes the coordinate swap.  The
        # library never uses this; it is the independent cross-check.
        ring = FiniteRing(F2, 3)
        r1, r2 = ring.primes[0][3]
        to_crt = lambda x: ((x[0] + x[1] * r1) % 3, (x[0] + x[1] * r2) % 3)
        for x in ring.elements():
            for y in ring.elements():
                xm, ym = to_crt(x), to_crt(y)
                pm = to_crt(_mul(ring, x, y))
                assert pm == ((xm[0] * ym[0]) % 3, (xm[1] * ym[1]) % 3)
            assert to_crt(_sigma(ring, x)) == to_crt(x)[::-1]

    def test_unimodularity_matches_lattice_oracle(self):
        # every pair, on prime-power and composite levels (6 and 12 mix
        # ramified with split, 10 split with inert)
        for f, N in ((F2, 4), (F2, 6), (F7, 3), (F5, 5), (F11, 9), (F7, 10), (F5, 12)):
            ring = FiniteRing(f, N)
            for x in ring.elements():
                assert _is_unit(ring, x) == is_unimodular_pair_oracle(f, N, x, (0, 0))
                for y in ring.elements():
                    assert _is_unimodular(ring, x, y) == \
                        is_unimodular_pair_oracle(f, N, x, y)

    def test_masks_refuse_more_than_eight_maximal_ideals(self):
        # 3, 11, 17, 19 and 41 split in Q(sqrt(-2)): ten maximal ideals
        ring = FiniteRing(F2, 3 * 11 * 17 * 19 * 41)
        with pytest.raises(InputError):
            _is_unit(ring, ONE)

    @pytest.mark.parametrize("f,N", [(F2, 3), (F7, 3), (F2, 5), (F2, 4), (F5, 5),
                                     (F2, 6), (F7, 12)])
    def test_inverse_matches_unit_search(self, f, N):
        # split, inert, ramified and composite levels: a unit's product row
        # holds 1 (code N) at its inverse, which is where the SL2 listing
        # reads it
        ring = FiniteRing(f, N)
        want = _inverse_search_ref(ring)
        els, rows = ring.elements(), ring.product_rows()
        assert {u: els[rows[_code(ring, u)].index(N)] for u in _units(ring)} == want
        assert len(want) == len(_units(ring))

    def test_inverse_refuses_non_units(self):
        ring = FiniteRing(F2, 6)
        rows = ring.product_rows()
        for x in ((0, 0), (2, 0), (3, 0), (0, 1)):     # (omega) = (sqrt(-2)) lies over 2
            assert not _is_unit(ring, x)
            assert ring.N not in rows[_code(ring, x)]    # no y with x*y = 1


class TestInvolutionsOnMatrices:
    @pytest.mark.parametrize("d,N", [(-2, 3), (-7, 3), (-2, 5)])
    def test_involutions_square_to_identity_on_sl2(self, d, N):
        # sigma conjugates every entry; tau then negates the off-diagonal,
        # which is conjugation by diag(-1, 1)
        ring = FiniteRing(make_field(d), N)
        group = _listed(ring)
        assert len(group) == sl2_order(ring)
        members = set(group)
        for a, b, c, dd in group:
            assert _det(ring, a, b, c, dd) == ONE
            sa, sb, sc, sd = (_sigma(ring, e) for e in (a, b, c, dd))
            assert tuple(_sigma(ring, e) for e in (sa, sb, sc, sd)) == (a, b, c, dd)
            assert (sa, sb, sc, sd) in members
            assert (sa, _neg(ring, sb), _neg(ring, sc), sd) in members


class TestSL2Order:
    def test_frozen_values(self):
        assert sl2_order(FiniteRing(F2, 3)) == 576    # 3 splits: |SL2(F3)|^2
        assert sl2_order(FiniteRing(F7, 3)) == 720    # 3 inert: |SL2(F9)|
        assert sl2_order(FiniteRing(F2, 2)) == 48

    def test_brute_matrix_filter_at_n2(self):
        # all 2^8 candidate matrices, no convolution trick
        ring = FiniteRing(F2, 2)
        count = sum(1 for a in ring.elements() for b in ring.elements()
                    for c in ring.elements() for d in ring.elements()
                    if _det(ring, a, b, c, d) == ONE)
        assert count == 48 == sl2_order_formula(F2, 2)

    def test_formula_matches_enumeration_on_grid(self):
        for f in (F2, F5, F7, F11):
            for N in range(2, 7):
                assert sl2_order(FiniteRing(f, N)) == sl2_order_formula(f, N), (f.d, N)

    @pytest.mark.parametrize("f", [F7, F11, F2])
    def test_census_matches_formula_to_level_16(self, f):
        # 2 splits for d = -7, is inert for d = -11 and ramifies for d = -2
        assert _kind(f, 2) == {F7: SPLIT, F11: INERT, F2: RAMIFIED}[f]
        for N in range(10, 17):
            assert sl2_order(FiniteRing(f, N)) == sl2_order_formula(f, N), N

    def test_refused_past_level_16_before_allocating(self):
        def refused():
            with pytest.raises(InputError, match="product table"):
                sl2_order(FiniteRing(F2, 17))
        assert _peak_of(refused) < 2**20


def _peak_of(call):
    """The tracemalloc peak, in bytes, of call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSL2Guard:
    def test_refused_before_allocating(self):
        # from N = 17 on, element codes no longer fit a byte; 29 is inert in
        # Q(sqrt(-2)), about 5.9e8 matrices
        for N in (17, 29):
            def refused():
                with pytest.raises(InputError, match="SL2 listing"):
                    enumerate_sl2(FiniteRing(F2, N))
            assert _peak_of(refused) < 2**20, N

    @pytest.mark.parametrize("f", [F7, F11, F2])
    def test_admits_level_16_at_every_splitting(self, monkeypatch, f):
        # 2 splits for d = -7, is inert for d = -11 and ramifies for d = -2;
        # the listing stops at its first product row, so nothing is built
        assert _kind(f, 16) == {F7: SPLIT, F11: INERT, F2: RAMIFIED}[f]
        assert finitering._BYTES_PER_MATRIX * sl2_order_formula(f, 16) <= exactmath.MEMORY_BUDGET

        class Admitted(Exception):
            pass

        def stop(ring):
            raise Admitted
        monkeypatch.setattr(FiniteRing, "product_rows", stop)
        with pytest.raises(Admitted):
            enumerate_sl2(FiniteRing(f, 16))

    def test_charged_by_its_output(self, monkeypatch):
        # the budget holds 1 GiB / _BYTES_PER_MATRIX matrices
        most = 2**30 // finitering._BYTES_PER_MATRIX
        monkeypatch.setattr(finitering, "sl2_order_formula", lambda field, N: most)
        assert len(enumerate_sl2(FiniteRing(F7, 3))) == 720
        monkeypatch.setattr(finitering, "sl2_order_formula", lambda field, N: most + 1)
        with pytest.raises(InputError, match="SL2 listing"):
            enumerate_sl2(FiniteRing(F7, 3))

    @pytest.mark.parametrize("f,N", [(F2, 7), (F7, 7), (F5, 7), (F7, 9), (F2, 13)])
    def test_charge_bounds_the_peak(self, f, N):
        # inert, ramified, split, inert, inert; the ring is fresh, so the
        # peak includes its product table
        ring = FiniteRing(f, N)
        n = sl2_order_formula(f, N)
        assert _peak_of(lambda: enumerate_sl2(ring)) <= finitering._BYTES_PER_MATRIX * n

    def test_length_counts_stored_codes(self, monkeypatch):
        # the guard reads the closed formula, the length never does
        monkeypatch.setattr(finitering, "sl2_order_formula", lambda field, N: 7)
        codes = enumerate_sl2(FiniteRing(F7, 3))
        assert len(codes) == 720 == len(codes.tobytes()) // 4


class TestProductTableGuard:
    def test_charged_before_any_row_is_built(self, monkeypatch):
        # O/(11) for d = -7: 11^4 codes at _BYTES_PER_PRODUCT bytes each
        need = finitering._BYTES_PER_PRODUCT * 11**4
        monkeypatch.setattr(exactmath, "MEMORY_BUDGET", need - 1)
        ring = FiniteRing(F7, 11)
        with pytest.raises(InputError, match="product table"):
            ring.product_rows()
        assert ring._rows is None
        monkeypatch.setattr(exactmath, "MEMORY_BUDGET", need)
        assert len(ring.product_rows()) == 11**2

    def test_projective_line_charges_table_and_scan(self, monkeypatch):
        # the scan holds O(N^2) marks, so the table's N^4 codes are the charge
        need = finitering._BYTES_PER_PRODUCT * 11**4
        monkeypatch.setattr(exactmath, "MEMORY_BUDGET", need - 1)
        ring = FiniteRing(F7, 11)
        with pytest.raises(InputError, match="P\\^1 scan"):
            projective_line(ring)
        assert ring._rows is None
        monkeypatch.setattr(exactmath, "MEMORY_BUDGET", need)
        assert len(projective_line(ring)) == 12 * 12    # 11 splits: P1(F11)^2

    def test_large_level_refused_before_allocating(self):
        # N = 101: about 4.3 GB of product codes and scan marks
        ring = FiniteRing(F2, 101)
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match="P\\^1 scan"):
                projective_line(ring)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_level_17_refused_before_allocating(self):
        # element codes outgrow a byte at N = 17 (inert in Q(sqrt(-7)))
        ring = FiniteRing(F7, 17)

        def table():
            with pytest.raises(InputError, match="product table.*N <= 16"):
                ring.product_rows()

        def line():
            with pytest.raises(InputError, match="P\\^1 scan.*N <= 16"):
                projective_line(ring)
        assert _peak_of(table) < 2**20
        assert _peak_of(line) < 2**20
        assert ring._rows is None

    @pytest.mark.parametrize("d,N,kind", [(-7, 11, SPLIT), (-5, 11, INERT), (-11, 11, RAMIFIED),
                                          (-10, 13, SPLIT), (-2, 13, INERT), (-13, 13, RAMIFIED),
                                          (-7, 16, SPLIT), (-11, 16, INERT), (-2, 16, RAMIFIED)])
    def test_charge_bounds_the_peak(self, d, N, kind):
        # a fresh ring and no cached addition tables, so the peak holds all
        # the table needs; the P^1 scan adds O(N^2) to it
        f = make_field(d)
        assert _kind(f, N) == kind
        finitering._sum_tables.cache_clear()
        assert _peak_of(FiniteRing(f, N).product_rows) <= finitering._BYTES_PER_PRODUCT * N**4
        finitering._sum_tables.cache_clear()
        ring = FiniteRing(f, N)
        assert _peak_of(lambda: projective_line(ring)) <= finitering._BYTES_PER_PRODUCT * N**4


class TestMaskGuard:
    def test_charged_before_the_masks_are_built(self, monkeypatch):
        # O/(101) for d = -2: 101^2 elements at _BYTES_PER_ELEMENT bytes each
        need = finitering._BYTES_PER_ELEMENT * 101**2
        monkeypatch.setattr(exactmath, "MEMORY_BUDGET", need - 1)
        ring = FiniteRing(F2, 101)
        with pytest.raises(InputError, match="unit masks"):
            ring.masks()
        assert ring._masks is None
        monkeypatch.setattr(exactmath, "MEMORY_BUDGET", need)
        assert len(ring.masks()) == 101**2

    @pytest.mark.parametrize("d,N,ideals", MASK_GUARD_LEVELS)
    def test_charge_bounds_the_peak(self, d, N, ideals):
        # one maximal ideal (ramified, inert) up to six, on a fresh ring
        ring = FiniteRing(make_field(d), N)
        assert sum(1 if spl == INERT else len(roots)
                   for _, _, spl, roots in ring.primes) == ideals
        assert _peak_of(ring.masks) <= finitering._BYTES_PER_ELEMENT * N * N

    def test_large_level_refused_before_allocating(self):
        # N = 3^10: about 3.5e9 elements of masks, over the budget
        def refused():
            with pytest.raises(InputError, match="unit masks"):
                fixed_coset_count(FiniteRing(F7, 3**10), "sigma")
        assert _peak_of(refused) < 2**20


class TestProjectiveLine:
    def test_sizes(self):
        assert len(projective_line(FiniteRing(F7, 3))) == 10    # P1(F9)
        assert len(projective_line(FiniteRing(F7, 9))) == 90    # 81 + 9

    def test_norm_formula_inert(self):
        for n, want in ((1, 10), (2, 90)):
            assert len(projective_line(FiniteRing(F7, 3**n))) == 9**n + 9 ** (n - 1)

    def test_reps_are_canonical_and_unimodular(self):
        ring = FiniteRing(F7, 3)
        pts = projective_line(ring)
        assert len(set(pts)) == len(pts)
        for x, y in pts:
            assert _is_unimodular(ring, x, y)

    def test_orbit_count_cross_check(self):
        # unimodular pairs partition into unit orbits of equal size, so
        # |P1| * |units| must count them exactly
        for f, N in ((F7, 3), (F2, 3), (F2, 4)):
            ring = FiniteRing(f, N)
            unimodular = sum(1 for x in ring.elements() for y in ring.elements()
                             if _is_unimodular(ring, x, y))
            assert len(projective_line(ring)) * len(_units(ring)) == unimodular

    def test_requires_prime_power(self):
        with pytest.raises(InputError):
            projective_line(FiniteRing(F2, 6))


class TestFixedCosets:
    def test_sigma_census_frozen(self):
        assert fixed_coset_count(FiniteRing(F7, 3), "sigma") == 8
        assert fixed_coset_count(FiniteRing(F2, 3), "sigma") == 8
        assert fixed_coset_count(FiniteRing(F7, 9), "sigma") == 72
        assert fixed_coset_count(FiniteRing(F2, 5), "sigma") == 24

    def test_sigma_census_equals_formula_split_and_inert(self):
        # inert: (-7, 3), (-2, 5); split: (-2, 3), (-11, 5)
        grid = [(-2, 3, 1), (-2, 3, 2), (-7, 3, 1), (-7, 3, 2), (-2, 5, 1), (-11, 5, 1)]
        for d, p, n in grid:
            ring = FiniteRing(make_field(d), p**n)
            assert fixed_coset_count(ring, "sigma") == p ** (2 * n) - p ** (2 * n - 2)

    def test_tau_census_report_carries_both_numbers(self):
        # hand census for (-2, 5): sigma-fixed a (5 choices) x anti-fixed c
        # (5 choices), minus the non-unimodular origin: 24; the closed
        # formula says 4.  The report must expose both and the mismatch.
        rep = fixed_coset_report(FiniteRing(F2, 5), "tau")
        assert (rep.census, rep.closed_formula, rep.matches) == (24, 4, False)
        rep = fixed_coset_report(FiniteRing(F7, 3), "tau")
        assert (rep.census, rep.closed_formula, rep.matches) == (8, 2, False)

    def test_tau_census_is_p_plus_one_times_formula(self):
        # A pin on the current output, not a claim about which side is
        # right: on every unramified point of d in {-2, -5, -7},
        # p in {3, 5, 7, 11}, n in {1, 2} with p^n <= 49, the tau census is
        # exactly p + 1 times the closed factor p^(2n-1) - p^(2n-2).
        points = 0
        seen = set()
        for d in (-2, -5, -7):
            f = make_field(d)
            for p in (3, 5, 7, 11):
                spl = splitting_type(f, p)
                for n in (1, 2):
                    if spl == RAMIFIED or p**n > 49:
                        continue
                    rep = fixed_coset_report(FiniteRing(f, p**n), "tau")
                    assert rep.census == (p + 1) * rep.closed_formula, (d, p, n)
                    points += 1
                    seen.add(spl)
        assert points == 17 and seen == {SPLIT, INERT}

    def test_rejects_ramified_and_even(self):
        # the closed formula's domain is the odd unramified prime powers, so
        # the report refuses the rest; the census refuses only N < 3
        for f, N in ((F5, 5), (F7, 2), (F7, 4)):
            with pytest.raises(InputError, match="odd unramified prime"):
                fixed_coset_report(FiniteRing(f, N), "sigma")
        with pytest.raises(InputError, match="prime-power level"):
            fixed_coset_report(FiniteRing(F7, 15), "tau")
        with pytest.raises(InputError, match="N >= 3"):
            fixed_coset_count(FiniteRing(F7, 2), "sigma")

    def test_census_never_visits_the_elements(self, monkeypatch):
        # at N = 3^6 = 729 the ring has 531441 elements; the census reads
        # the fixed and negated coordinates off their conditions, so a ring
        # whose elements() raises still answers, split (d = -2) and inert
        # (d = -7)
        def refuse(self):
            raise AssertionError("the coset census listed the elements")
        monkeypatch.setattr(FiniteRing, "elements", refuse)
        for f, kind in ((F2, SPLIT), (F7, INERT)):
            ring = FiniteRing(f, 3**6)
            assert splitting_type(f, 3) == kind
            assert fixed_coset_count(ring, "sigma") == 3**12 - 3**10
            assert fixed_coset_count(ring, "tau") == (3 + 1) * (3**11 - 3**10)
        # p = 2, ramified and composite levels, each value from a brute +-1
        # count.  At size, 2 splits in Q(sqrt(-7)), and 5 ramifies in
        # Q(sqrt(-5)): there sigma fixes Z/N and negates (Z/N)w, a column of
        # Z/N is unimodular unless 5 divides both entries, and one of (Z/N)w
        # never is, so f_sigma = N^2 (1 - 5^-2) / 2 and f_tau = N^2 (1 - 5^-1),
        # the columns (a, c w) with a unit a
        pins = {(F7, 4): (12, 12), (F2, 8): (96, 128), (F5, 25): (300, 500),
                (F7, 15): (192, 192), (F2, 45): (1728, 1728),
                (F7, 2**9): (196608, 196608), (F5, 5**4): (187500, 312500)}
        for (f, N), want in pins.items():
            ring = FiniteRing(f, N)
            assert (fixed_coset_count(ring, "sigma"), fixed_coset_count(ring, "tau")) == want, N
            if gcd(N, f.D) == 1:
                assert want == (_coprime_fixed_count(N),) * 2, N

    @pytest.mark.parametrize("d,N,cusps,f_sigma,f_tau", [
        (-2, 4, 96, 24, 32), (-7, 4, 72, 12, 12), (-11, 4, 120, 12, 12),
        (-2, 6, 384, 96, 96), (-7, 7, 1176, 24, 42), (-2, 8, 1536, 96, 128),
        (-11, 11, 7260, 60, 110), (-2, 12, 6144, 192, 256), (-5, 25, 187500, 300, 500)])
    def test_cusps_and_fixed_cusps_pinned(self, d, N, cusps, f_sigma, f_tau):
        # p = 2, ramified and composite levels; d = -5 has h = 2, so its
        # cusps are the column classes of O/(N)
        f = make_field(d)
        ring = FiniteRing(f, N)
        assert cusp_count_bruteforce(f, N) == 2 * f.h * cusps
        assert (fixed_coset_count(ring, "sigma"), fixed_coset_count(ring, "tau")) == \
            (f_sigma, f_tau)

    def test_coprime_levels_fix_sl2_order_over_n(self):
        # at gcd(N, D) = 1 both involutions fix N^2 prod_{p | N} (1 - p^-2)
        # classes, |SL2(Z/N)| / N; N <= 13 for d = -2, -7, -11
        points = 0
        for f in (F2, F7, F11):
            for N in range(3, 14):
                if gcd(N, f.D) == 1:
                    ring = FiniteRing(f, N)
                    want = _coprime_fixed_count(N)
                    assert fixed_coset_count(ring, "sigma") == fixed_coset_count(ring, "tau") \
                        == want, (f.d, N)
                    points += 1
        assert points == 26


class TestCuspCensus:
    def test_frozen_values(self):
        assert cusp_count_bruteforce(F2, 3) == 64
        assert cusp_count_bruteforce(F7, 3) == 80
        assert cusp_count_bruteforce(F5, 3) == 128

    def test_matches_closed_formula(self):
        for f, N in ((F2, 3), (F7, 3), (F5, 3), (F2, 4), (F11, 3), (F2, 5)):
            assert cusp_count_bruteforce(f, N) == cusp_count(f, N)

    def test_rejects_small_levels(self):
        with pytest.raises(InputError):
            cusp_count_bruteforce(F2, 2)

    def test_census_does_not_read_the_sl2_order(self, monkeypatch):
        # A census of h * #SL2 / N^2 would follow a wrong closed formula
        # wherever it read the order off sl2_order_formula; the column count
        # reads neither the formula nor the SL2 census.
        want = cusp_count_bruteforce(F2, 11)
        monkeypatch.setattr(finitering, "sl2_order_formula", lambda field, N: 7 * N**2)
        assert cusp_count_bruteforce(F2, 11) == want == cusp_count(F2, 11)


def test_cache_variable_is_ignored(tmp_path, monkeypatch):
    # No environment state may change a published number: files planted
    # under BIANCHI_LEFSCHETZ_CACHE are neither read (a class number of 7
    # for d = -2 would turn the bound at N = 5, k = 0 from 12 into 0) nor
    # joined by new files.
    planted = {"classnum_D-8.json": '{"value": "7"}', "sl2_d-2_N3.json": '{"value": "7"}'}
    for name, text in planted.items():
        (tmp_path / name).write_text(text)
    monkeypatch.setenv("BIANCHI_LEFSCHETZ_CACHE", str(tmp_path))
    assert make_field(-2).h == 1
    assert sl2_order(FiniteRing(make_field(-2), 3)) == 576
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == planted


# -- reference copies of the earlier, slower census algorithms ----------------


ONE = (1, 0)


def _mul(ring, x, y):
    # (a + b w)(c + e w) with w^2 = T w - Nm
    a, b = x
    c, e = y
    return ((a * c - ring.Nm * b * e) % ring.N,
            (a * e + b * c + ring.T * b * e) % ring.N)


def _sigma(ring, x):
    # conj(a + b w) = a + b (T - w)
    return ((x[0] + ring.T * x[1]) % ring.N, (-x[1]) % ring.N)


def _code(ring, x):
    """The index of x in elements()."""
    return x[0] % ring.N * ring.N + x[1] % ring.N


def _is_unit(ring, x):
    return not ring.masks()[_code(ring, x)]


def _is_unimodular(ring, x, y):
    """True when no maximal ideal holds both coordinates."""
    masks = ring.masks()
    return not masks[_code(ring, x)] & masks[_code(ring, y)]


def _units(ring):
    els = ring.elements()
    return [els[k] for k, m in enumerate(ring.masks()) if not m]


def _add(ring, x, y):
    return ((x[0] + y[0]) % ring.N, (x[1] + y[1]) % ring.N)


def _neg(ring, x):
    return (-x[0] % ring.N, -x[1] % ring.N)


def _det(ring, a, b, c, d):
    return _add(ring, _mul(ring, a, d), _neg(ring, _mul(ring, b, c)))


def _product_rows_ref(ring):
    # the earlier table: N^4 interpreted steps, a list of ints per row
    N, T, Nm = ring.N, ring.T, ring.Nm
    return [[(a * c - Nm * b * e) % N * N + (b * c + (a + T * b) * e) % N
             for c in range(N) for e in range(N)] for a in range(N) for b in range(N)]


def _masks_ref(ring):
    # the earlier tiles: p^2 membership tests per maximal ideal
    N, bits, i = ring.N, 0, 0
    for p, _, spl, roots in ring.primes:
        for r in ((None,) if spl == INERT else roots):
            inside = [[a % p == b % p == 0 if r is None else (a + b * r) % p == 0
                       for b in range(p)] for a in range(p)]
            tile = b"".join(bytes(1 << i if hit else 0 for hit in row) * (N // p)
                            for row in inside)
            bits |= int.from_bytes(tile * (N // p), "big")
            i += 1
    return bits.to_bytes(N * N, "big")


def _inverse_search_ref(ring):
    # the earlier O(|units|^2) search for each unit's inverse
    inv = {}
    units = _units(ring)
    for u in units:
        if u in inv:
            continue
        for v in units:
            if _mul(ring, u, v) == ONE:
                inv[u] = v
                inv[v] = u
                break
    return inv


def _projective_line_ref(ring):
    units = _units(ring)
    reps = set()
    for x in ring.elements():
        for y in ring.elements():
            if _is_unimodular(ring, x, y):
                reps.add(min((*_mul(ring, u, x), *_mul(ring, u, y)) for u in units))
    return sorted(((e[0], e[1]), (e[2], e[3])) for e in reps)


def _listed(ring):
    """enumerate_sl2 decoded: one (a, b, c, d) of elements() per code."""
    return [ring.matrix(code) for code in enumerate_sl2(ring)]


def _enumerate_sl2_ref(ring):
    # every (a, b, c, d) with a*d = 1 + b*c, by pair arithmetic
    els = ring.elements()
    out = []
    for a in els:
        ad = [_mul(ring, a, d) for d in els]
        for b in els:
            for c in els:
                want = _add(ring, ONE, _mul(ring, b, c))
                out += [(a, b, c, d) for d, p in zip(els, ad) if p == want]
    return out


def _has_zero_divisor_row(ring):
    """Some a has |ker a| > 1: its product row holds 0 more than once."""
    return any(row.count(0) > 1 for row in ring.product_rows())


def _enumerate_sl2_local_ref(ring):
    # the earlier local-ring loop: fresh products and tuples for every entry
    inverse = _inverse_search_ref(ring)
    out = []
    for a in ring.elements():
        for c in ring.elements():
            if not _is_unimodular(ring, a, c):
                continue
            if _is_unit(ring, a):
                b0, d0 = (0, 0), inverse[a]
            else:
                b0, d0 = _neg(ring, inverse[c]), (0, 0)
            for x in ring.elements():
                out.append((a, _add(ring, b0, _mul(ring, x, a)),
                            c, _add(ring, d0, _mul(ring, x, c))))
    return out


def _fixed_coset_count_ref(ring, involution):
    # +-1-classes of unimodular columns (a, c) with
    # (sigma a, +-sigma c) = +-(a, c), the inner sign + for sigma and - for
    # tau: sigma and negation applied element by element, the fixed
    # columns halved
    count = 0
    for a in ring.elements():
        sa, minus_a = _sigma(ring, a), _neg(ring, a)
        for c in ring.elements():
            sc = _sigma(ring, c) if involution == "sigma" else _neg(ring, _sigma(ring, c))
            if (sa, sc) in ((a, c), (minus_a, _neg(ring, c))) and _is_unimodular(ring, a, c):
                count += 1
    assert count % 2 == 0
    return count // 2


def _coprime_fixed_count(N):
    """N^2 prod over the primes p | N of (1 - p^-2), from N alone."""
    count, m = N * N, N
    for p in range(2, N + 1):
        if m % p == 0:
            count = count // (p * p) * (p * p - 1)
            while m % p == 0:
                m //= p
    return count


def _fixed_coset_scan_ref(ring, involution):
    # the earlier census: sigma of each of the N^2 elements, O(N) kept
    N, T, masks = ring.N, ring.T, ring.masks()
    sign = 1 if involution == "sigma" else -1
    fixed_a, fixed_c = [], []
    for k, (a, b) in enumerate(ring.elements()):
        sa, sb = (a + T * b) % N, -b % N
        if sa == a and sb == b:
            fixed_a.append(masks[k])
        if sign * sa % N == a and sign * sb % N == b:
            fixed_c.append(masks[k])
    return sum(1 for ma in fixed_a for mc in fixed_c if not ma & mc)


def _kind(f, N):
    return splitting_type(f, FiniteRing(f, N).primes[0][0])


P1_LEVELS = [(F2, 3), (F2, 4), (F2, 5), (F7, 7), (F2, 9), (F7, 9)]


COSET_LEVELS = [3, 5, 7, 9, 11, 13, 25, 27, 49]


# (Z/N)^x acting by scaling is not cyclic at 8, 12, 15 and 16, and has
# orbits with stabilisers wherever N is not prime
PRODUCT_LEVELS = [(F7, 2, SPLIT), (F7, 3, INERT), (F5, 5, RAMIFIED), (F2, 6, None),
                  (F7, 12, None), (F5, 15, None), (F2, 11, SPLIT), (F7, 16, SPLIT),
                  (F11, 16, INERT), (F2, 16, RAMIFIED), (F7, 8, SPLIT), (F11, 10, None),
                  (F7, 14, None)]


class TestAgainstReferences:
    @pytest.mark.parametrize("f,N,kind", PRODUCT_LEVELS)
    def test_product_rows(self, f, N, kind):
        # prime powers of every splitting and the composite 6, 12 and 15
        ring = FiniteRing(f, N)
        if kind:
            assert _kind(f, N) == kind
        rows = ring.product_rows()
        assert {type(row) for row in rows} == {bytes}
        assert [list(row) for row in rows] == _product_rows_ref(ring)

    @pytest.mark.parametrize("d", [-2, -7, -11])
    def test_masks_at_every_small_level(self, d):
        f = make_field(d)
        for N in range(2, 17):
            ring = FiniteRing(f, N)
            assert ring.masks() == _masks_ref(ring), N

    @pytest.mark.parametrize("d,N,ideals", MASK_GUARD_LEVELS)
    def test_masks_at_the_guard_levels(self, d, N, ideals):
        ring = FiniteRing(make_field(d), N)
        assert ring.masks() == _masks_ref(ring)

    @pytest.mark.parametrize("f,N", [(F7, 4), (F2, 5), (F5, 9), (F7, 10)])
    def test_row_is_the_translate_table_of_its_element(self, f, N):
        # padded to 256 bytes, row x maps any string of codes to the codes
        # of x times each
        ring = FiniteRing(f, N)
        els, rows = ring.elements(), ring.product_rows()
        s = bytes(range(len(els)))[::-1] * 2 + bytes((1, 1, 0))
        for x, row in zip(els, rows):
            assert s.translate(row.ljust(256, b"\0")) == \
                bytes(_code(ring, _mul(ring, x, els[k])) for k in s)

    @pytest.mark.parametrize("f,N", P1_LEVELS)
    def test_projective_line(self, f, N):
        assert _projective_line_ref(FiniteRing(f, N)) == projective_line(FiniteRing(f, N))

    def test_levels_cover_every_splitting(self):
        assert {_kind(f, N) for f, N in P1_LEVELS} == {SPLIT, INERT, RAMIFIED}

    @pytest.mark.parametrize("f,N", [(F7, 2), (F2, 3), (F5, 3), (F7, 4), (F11, 5),
                                     (F7, 6), (F2, 6), (F11, 6)])
    def test_brute_sl2_filter(self, f, N):
        # split prime powers and composite levels take the brute branch;
        # inert and ramified prime powers are local rings.  At 6, 2 splits
        # and 3 is inert for d = -7, 2 ramifies and 3 splits for d = -2, and
        # 2 is inert and 3 splits for d = -11.  Every level has an a with
        # |ker a| > 1, each of whose products is listed |ker a| times.
        ring = FiniteRing(f, N)
        assert len(ring.primes) == 2 or _kind(f, N) == SPLIT
        assert _has_zero_divisor_row(ring)
        assert _listed(ring) == _enumerate_sl2_ref(ring)

    @pytest.mark.parametrize("f,N", [(F2, 2), (F7, 3), (F5, 2)])
    def test_local_sl2_is_the_same_set(self, f, N):
        ring = FiniteRing(f, N)
        assert sorted(_listed(ring)) == _enumerate_sl2_ref(ring)

    @pytest.mark.parametrize("f,N,kind", [(F2, 5, INERT), (F2, 7, INERT), (F7, 7, RAMIFIED)])
    def test_local_sl2_loop(self, f, N, kind):
        ring = FiniteRing(f, N)
        assert _kind(f, N) == kind
        got = _listed(ring)
        assert got == _enumerate_sl2_local_ref(ring)
        shared = {id(e) for e in ring.elements()}
        assert all(id(e) in shared for m in got for e in m)

    @pytest.mark.parametrize("f,N", [(F5, 3), (F7, 6)])
    def test_brute_sl2_codes_ascend(self, f, N):
        # the brute filter lists in lexicographic (a, b, c, d) order, which
        # the packing a << 24 | b << 16 | c << 8 | d makes ascending ints;
        # split and composite levels
        codes = enumerate_sl2(FiniteRing(f, N))
        assert codes.format == "I" and codes.itemsize == 4
        assert list(codes) == sorted(set(codes))

    @pytest.mark.parametrize("f,N", [(F2, 3), (F2, 5), (F2, 7), (F2, 9), (F7, 3), (F7, 9),
                                     (F5, 3), (F5, 7), (F2, 11), (F2, 13)])
    def test_fixed_coset_count(self, f, N):
        ring = FiniteRing(f, N)
        for involution in ("sigma", "tau"):
            assert fixed_coset_count(ring, involution) == \
                _fixed_coset_count_ref(ring, involution), involution

    @pytest.mark.parametrize("d", [-2, -5, -7, -11])
    def test_fixed_coset_count_at_every_small_level(self, d):
        # p = 2 (split for -7, inert for -11, ramified for -2 and -5),
        # ramified odd primes (5 for -5, 7 for -7) and composite levels
        for N in range(3, 10):
            ring = FiniteRing(make_field(d), N)
            for involution in ("sigma", "tau"):
                assert fixed_coset_count(ring, involution) == \
                    _fixed_coset_count_ref(ring, involution), (N, involution)

    @pytest.mark.parametrize("N", COSET_LEVELS)
    def test_fixed_coset_census_matches_scan(self, N):
        # every level of the benchmark's coset sweep, at a split and an
        # inert prime, for both involutions: the earlier census, of the
        # columns with the + sign alone, which the +-1 count equals at
        # every level prime to D
        p = FiniteRing(F2, N).primes[0][0]
        kinds = {}
        for d in (-2, -5, -6, -7, -10, -11, -13, -14, -15, -19):
            kinds.setdefault(splitting_type(make_field(d), p), d)
        for kind in (SPLIT, INERT):
            ring = FiniteRing(make_field(kinds[kind]), N)
            for involution in ("sigma", "tau"):
                assert fixed_coset_count(ring, involution) == \
                    _fixed_coset_scan_ref(ring, involution), (kind, involution)

    def test_projective_line_work_is_linear_in_pairs(self, monkeypatch):
        # Each unit orbit of codes reads |units| products to mark it, and each
        # first coordinate kept reads |units| more for its stabiliser and a
        # few per point, far below two per unimodular pair.  Taking the
        # orbit minimum of every pair would read 2 * |units| products per
        # pair, N^6 in all.
        ring = FiniteRing(F2, 11)
        unimodular = sum(1 for x in ring.elements() for y in ring.elements()
                         if _is_unimodular(ring, x, y))
        products = _count_products(monkeypatch)
        assert len(projective_line(ring)) == 144
        assert 0 < products[0] <= 2 * unimodular

    @pytest.mark.parametrize("f,N", [(F2, 7), (F11, 4), (F7, 7)])
    def test_local_sl2_reads_each_product_row_once(self, monkeypatch, f, N):
        # The fibres over the |R|^2 - |m|^2 unimodular columns take their b
        # and d entries from two product rows each; reading those rows per
        # column instead of once per element would cost about 2 * |R|^3.
        ring = FiniteRing(f, N)
        size = len(ring.elements())
        products = _count_products(monkeypatch)
        assert len(enumerate_sl2(ring)) == sl2_order_formula(f, N)
        assert 0 < products[0] <= 2 * size * size


def _count_products(monkeypatch):
    """Count the Python-level reads the censuses make of the byte rows of
    FiniteRing.product_rows: one per entry looked up, a whole row per pass
    of Python iteration over it, and one per call that hands the whole
    row to C (translate, index, repeat)."""
    count = [0]

    class Row(bytes):
        def __getitem__(self, k):
            count[0] += 1 if isinstance(k, int) else len(range(*k.indices(len(self))))
            return bytes.__getitem__(self, k)

        def __iter__(self):
            count[0] += len(self)
            return bytes.__iter__(self)

        def translate(self, table):
            count[0] += 1
            return bytes.translate(self, table)

        def index(self, v):
            count[0] += 1
            return bytes.index(self, v)

        def __mul__(self, n):
            count[0] += 1
            return bytes.__mul__(self, n)

    real = FiniteRing.product_rows
    monkeypatch.setattr(FiniteRing, "product_rows", lambda self: [Row(r) for r in real(self)])
    return count


@pytest.mark.parametrize("d", [-2, -5, -6, -7, -11, -15, -19, -23])
def test_column_count_matches_the_mask_census(d):
    # split, inert and ramified primes, prime powers and composites: the
    # closed count against twice the +-1-classes of disjoint mask pairs
    f = make_field(d)
    for N in (3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 25, 27, 49):
        tally = Counter(FiniteRing(f, N).masks())
        assert unimodular_column_count(f, N) == 2 * finitering._column_classes((tally, tally)), N
