import tracemalloc

import pytest

from bianchi_lefschetz import exactmath, finitering
from bianchi_lefschetz.eisenstein import cusp_count
from bianchi_lefschetz.exactmath import ConformanceError, InputError
from bianchi_lefschetz.finitering import (FiniteRing, cusp_count_bruteforce,
                                          enumerate_sl2, fixed_coset_count,
                                          fixed_coset_report, projective_line,
                                          sl2_order, sl2_order_formula)
from bianchi_lefschetz.oracles import is_unimodular_pair_oracle
from bianchi_lefschetz.quadfield import (INERT, RAMIFIED, SPLIT, make_field,
                                         splitting_type)

F2, F5, F7, F11 = (make_field(d) for d in (-2, -5, -7, -11))


class TestRingBasics:
    def test_sigma_is_ring_involution(self):
        for f in (F2, F7):
            ring = FiniteRing(f, 5)
            for x in ring.elements():
                assert ring.sigma(ring.sigma(x)) == x
                for y in ring.elements()[:10]:
                    assert ring.sigma(ring.mul(x, y)) == ring.mul(ring.sigma(x), ring.sigma(y))

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
                pm = to_crt(ring.mul(x, y))
                assert pm == ((xm[0] * ym[0]) % 3, (xm[1] * ym[1]) % 3)
            assert to_crt(ring.sigma(x)) == to_crt(x)[::-1]

    def test_unimodularity_matches_lattice_oracle(self):
        # every pair, on prime-power and composite levels (6 and 12 mix
        # ramified with split, 10 split with inert)
        for f, N in ((F2, 4), (F2, 6), (F7, 3), (F5, 5), (F11, 9), (F7, 10), (F5, 12)):
            ring = FiniteRing(f, N)
            for x in ring.elements():
                assert ring.is_unit(x) == is_unimodular_pair_oracle(f, N, x, ring.zero)
                for y in ring.elements():
                    assert ring.is_unimodular(x, y) == \
                        is_unimodular_pair_oracle(f, N, x, y)

    def test_masks_refuse_more_than_eight_maximal_ideals(self):
        # 3, 11, 17, 19 and 41 split in Q(sqrt(-2)): ten maximal ideals
        ring = FiniteRing(F2, 3 * 11 * 17 * 19 * 41)
        with pytest.raises(InputError):
            ring.is_unit(ring.one)

    @pytest.mark.parametrize("f,N", [(F2, 3), (F7, 3), (F2, 5), (F2, 4), (F5, 5),
                                     (F2, 6), (F7, 12)])
    def test_inverse_matches_unit_search(self, f, N):
        # split, inert, ramified and composite levels
        ring = FiniteRing(f, N)
        want = _inverse_search_ref(ring)
        assert {u: ring.inverse(u) for u in ring.units()} == want
        assert len(want) == len(ring.units())

    def test_inverse_refuses_non_units(self):
        ring = FiniteRing(F2, 6)
        for x in ((0, 0), (2, 0), (3, 0), (0, 1)):     # (omega) = (sqrt(-2)) lies over 2
            assert not ring.is_unit(x)
            with pytest.raises(InputError):
                ring.inverse(x)

    def test_inverse_checks_its_product(self, monkeypatch):
        ring = FiniteRing(F7, 5)
        monkeypatch.setattr(ring, "sigma", lambda x: x)    # a wrong conjugation
        with pytest.raises(ConformanceError):
            ring.inverse((0, 1))


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
            assert ring.sub(ring.mul(a, dd), ring.mul(b, c)) == ring.one
            sa, sb, sc, sd = (ring.sigma(e) for e in (a, b, c, dd))
            assert (ring.sigma(sa), ring.sigma(sb), ring.sigma(sc), ring.sigma(sd)) == (a, b, c, dd)
            assert (sa, sb, sc, sd) in members
            assert (sa, ring.neg(sb), ring.neg(sc), sd) in members


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
                    if ring.sub(ring.mul(a, d), ring.mul(b, c)) == ring.one)
        assert count == 48 == sl2_order_formula(F2, 2)

    def test_formula_matches_enumeration_on_grid(self):
        for f in (F2, F5, F7, F11):
            for N in range(2, 7):
                sl2_order(FiniteRing(f, N))  # raises on disagreement


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
        # O/(11) for d = -7: 11^4 codes at 40 bytes each
        monkeypatch.setattr(exactmath, "MEMORY_BUDGET", 40 * 11**4 - 1)
        ring = FiniteRing(F7, 11)
        with pytest.raises(InputError, match="product table"):
            ring.product_rows()
        assert ring._rows is None
        monkeypatch.setattr(exactmath, "MEMORY_BUDGET", 40 * 11**4)
        assert len(ring.product_rows()) == 11**2

    def test_projective_line_charges_table_and_scan(self, monkeypatch):
        # 40 bytes per product code and 3 per scanned pair, 11^4 of each
        monkeypatch.setattr(exactmath, "MEMORY_BUDGET", 43 * 11**4 - 1)
        ring = FiniteRing(F7, 11)
        with pytest.raises(InputError, match="P\\^1 scan"):
            projective_line(ring)
        assert ring._rows is None
        monkeypatch.setattr(exactmath, "MEMORY_BUDGET", 43 * 11**4)
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
            assert ring.is_unimodular(x, y)

    def test_orbit_count_cross_check(self):
        # unimodular pairs partition into unit orbits of equal size, so
        # |P1| * |units| must count them exactly
        for f, N in ((F7, 3), (F2, 3), (F2, 4)):
            ring = FiniteRing(f, N)
            unimodular = sum(1 for x in ring.elements() for y in ring.elements()
                             if ring.is_unimodular(x, y))
            assert len(projective_line(ring)) * len(ring.units()) == unimodular

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
        with pytest.raises(InputError):
            fixed_coset_count(FiniteRing(F5, 5), "sigma")
        with pytest.raises(InputError):
            fixed_coset_count(FiniteRing(F7, 2), "sigma")


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
        # Above N = 9 sl2_order returns the closed formula, so a census of
        # h * #SL2 / N^2 would follow a wrong formula; the column count does not.
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


def _inverse_search_ref(ring):
    # the earlier O(|units|^2) search for each unit's inverse
    inv = {}
    units = ring.units()
    for u in units:
        if u in inv:
            continue
        for v in units:
            if ring.mul(u, v) == ring.one:
                inv[u] = v
                inv[v] = u
                break
    return inv


def _projective_line_ref(ring):
    units = ring.units()
    reps = set()
    for x in ring.elements():
        for y in ring.elements():
            if ring.is_unimodular(x, y):
                reps.add(min((*ring.mul(u, x), *ring.mul(u, y)) for u in units))
    return sorted(((e[0], e[1]), (e[2], e[3])) for e in reps)


def _listed(ring):
    """enumerate_sl2 decoded: one (a, b, c, d) of elements() per code."""
    return [ring.matrix(code) for code in enumerate_sl2(ring)]


def _enumerate_sl2_ref(ring):
    els = ring.elements()
    return [(a, b, c, d) for a in els for b in els for c in els for d in els
            if ring.sub(ring.mul(a, d), ring.mul(b, c)) == ring.one]


def _enumerate_sl2_local_ref(ring):
    # the earlier local-ring loop: fresh products and tuples for every entry
    out = []
    for a in ring.elements():
        for c in ring.elements():
            if not ring.is_unimodular(a, c):
                continue
            if ring.is_unit(a):
                b0, d0 = ring.zero, ring.inverse(a)
            else:
                b0, d0 = ring.neg(ring.inverse(c)), ring.zero
            for x in ring.elements():
                out.append((a, ring.add(b0, ring.mul(x, a)), c, ring.add(d0, ring.mul(x, c))))
    return out


def _fixed_coset_count_ref(ring, involution):
    count = 0
    for a in ring.elements():
        if ring.sigma(a) != a:
            continue
        for c in ring.elements():
            sc = ring.sigma(c)
            want = sc if involution == "sigma" else ring.neg(sc)
            if want == c and ring.is_unimodular(a, c):
                count += 1
    return count


def _kind(f, N):
    return splitting_type(f, FiniteRing(f, N).primes[0][0])


P1_LEVELS = [(F2, 3), (F2, 4), (F2, 5), (F7, 7), (F2, 9), (F7, 9)]


class TestAgainstReferences:
    @pytest.mark.parametrize("f,N", P1_LEVELS)
    def test_projective_line(self, f, N):
        assert _projective_line_ref(FiniteRing(f, N)) == projective_line(FiniteRing(f, N))

    def test_levels_cover_every_splitting(self):
        assert {_kind(f, N) for f, N in P1_LEVELS} == {SPLIT, INERT, RAMIFIED}

    @pytest.mark.parametrize("f,N", [(F7, 2), (F2, 3), (F5, 3), (F7, 4), (F11, 5)])
    def test_brute_sl2_filter(self, f, N):
        # split prime powers are the ones that take the brute branch; inert
        # and ramified ones are local rings
        ring = FiniteRing(f, N)
        assert _kind(f, N) == SPLIT
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

    def test_projective_line_work_is_linear_in_pairs(self, monkeypatch):
        # Each orbit reads 2 * |units| products, one per coordinate and unit,
        # so at most two per unimodular pair.  Taking the orbit minimum of
        # every pair would read 2 * |units| products per pair, N^6 in all.
        ring = FiniteRing(F2, 11)
        unimodular = sum(1 for x in ring.elements() for y in ring.elements()
                         if ring.is_unimodular(x, y))
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
    """Count the products the censuses read from FiniteRing.product_rows:
    one per entry looked up, a whole row per pass over it."""
    count = [0]

    class Row:
        def __init__(self, row):
            self.row = row

        def __getitem__(self, k):
            count[0] += 1
            return self.row[k]

        def __iter__(self):
            count[0] += len(self.row)
            return iter(self.row)

    real = FiniteRing.product_rows
    monkeypatch.setattr(FiniteRing, "product_rows", lambda self: [Row(r) for r in real(self)])
    return count
