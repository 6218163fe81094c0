"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line per criterion.  Run with `pytest -s tests/test_acceptance.py`
to see the lines stream."""

import contextlib

from bianchi_lefschetz.bounds import cusp_lower_bound
from bianchi_lefschetz.eisenstein import (CHARACTER_VARIANTS, DEFAULT_VARIANT,
                                          IllDefinedVariantError,
                                          cusp_count, level_one_sigma_traces,
                                          sczech_operator, sczech_trace,
                                          trace_h2_eis, trace_sigma_h1_eis)
from bianchi_lefschetz.exactmath import hilbert2
from bianchi_lefschetz.finitering import (FiniteRing, cusp_count_bruteforce,
                                          fixed_coset_count, fixed_coset_report)
from bianchi_lefschetz.lefschetz import (BRACKET_VARIANTS, DEFAULT_BRACKET,
                                         adjudicate_brackets, lefschetz_level_one,
                                         lefschetz_sigma_prime_power,
                                         lefschetz_sigma_principal)
from bianchi_lefschetz.oracles import hilbert2_norm_search, ideal_class_count
from bianchi_lefschetz.quadfield import (ambiguous_form_count, is_square_free,
                                         make_field, splitting_type,
                                         two_torsion_count)

D_GRID = (-2, -5, -7, -11)
FIELDS = {d: make_field(d) for d in D_GRID}


@contextlib.contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number:2d}: {label}")
        raise
    print(f"PASS criterion {number:2d}: {label}")


def test_criterion_01_sczech_trace_and_involution():
    with criterion(1, "cocycle-span operator: trace -(N^2+1) within 1e-8 and "
                      "involution defect < 1e-9 on the (d, N) grid"):
        for d, N in ((-2, 2), (-2, 3), (-2, 4), (-2, 5), (-7, 2), (-7, 3)):
            op = sczech_operator(make_field(d), N, DEFAULT_VARIANT)
            tr = op.trace()
            assert abs(tr.real + (N * N + 1)) < 1e-8, (d, N, tr)
            assert op.involution_defect() < 1e-9, (d, N)
        constructed = 0
        for variant in CHARACTER_VARIANTS:
            try:
                sczech_operator(make_field(-2), 2, variant)
                constructed += 1
            except IllDefinedVariantError:
                pass
        assert constructed >= 1


def test_criterion_02_operator_trace_equals_closed_degree_one_trace():
    with criterion(2, "operator trace at (d=-2, N=5) equals the closed "
                      "degree-1 Eisenstein trace -26 within 1e-8"):
        tr = sczech_trace(make_field(-2), 5, DEFAULT_VARIANT)
        closed = trace_sigma_h1_eis(make_field(-2), 5, 1)
        assert closed == -26
        assert abs(tr.value - closed) < 1e-8
        # the cocycle basis exhausts the degree-1 Eisenstein space here
        assert cusp_count(make_field(-2), 5) == 5**4 - 1


def test_criterion_03_cusp_counts_match_enumeration():
    with criterion(3, "closed cusp count == exhaustive SL2 census on the grid"):
        for d, N in ((-2, 3), (-7, 3), (-5, 3), (-2, 4), (-11, 3)):
            f = make_field(d)
            assert cusp_count(f, N) == cusp_count_bruteforce(f, N), (d, N)


def test_criterion_04_sigma_coset_census():
    with criterion(4, "sigma fixed-coset census equals p^(2n) - p^(2n-2) "
                      "in split and inert cases"):
        for d, p, n in ((-7, 3, 1), (-7, 3, 2), (-2, 3, 1), (-2, 5, 1)):
            ring = FiniteRing(make_field(d), p**n)
            assert fixed_coset_count(ring, "sigma") == p ** (2 * n) - p ** (2 * n - 2)


def test_criterion_05_tau_census_report():
    with criterion(5, "tau census report produced; mismatch is a diagnostic, "
                      "not a failure"):
        for d, p, n in ((-2, 5, 1), (-7, 3, 1)):
            rep = fixed_coset_report(FiniteRing(make_field(d), p**n), "tau")
            assert isinstance(rep.census, int) and isinstance(rep.closed_formula, int)
            assert isinstance(rep.matches, bool)
            if not rep.matches:
                print(f"      diagnostic: tau census (d={d}, p={p}, n={n}) "
                      f"= {rep.census} vs closed formula {rep.closed_formula}")


def test_criterion_06_principal_equals_prime_power():
    with criterion(6, "principal-level and prime-power Lefschetz formulas agree "
                      "(exact integers) on the whole grid"):
        for d in D_GRID:
            f = FIELDS[d]
            for p in (3, 5, 7):
                if splitting_type(f, p) == "ramified":
                    continue
                for n in (1, 2):
                    for k in range(6):
                        a = lefschetz_sigma_principal(f, p**n, k)
                        b = lefschetz_sigma_prime_power(f, p, n, k)
                        assert a == b and isinstance(a, int), (d, p, n, k)


def test_criterion_07_level_one_anchors():
    with criterion(7, "weight-zero anchors under every bracket variant: "
                      "L(sigma) = 2 + h - 2^(t-1), L(tau) = 2 - h - 2^(t-1)"):
        for d in D_GRID:
            f = FIELDS[d]
            want_sigma = 2 + f.h - two_torsion_count(f)
            want_tau = 2 - f.h - two_torsion_count(f)
            for variant in BRACKET_VARIANTS:
                assert lefschetz_level_one(f, "sigma", 0, variant) == want_sigma
                assert lefschetz_level_one(f, "tau", 0, variant) == want_tau
        assert lefschetz_level_one(FIELDS[-2], "sigma", 0) == 2
        assert lefschetz_level_one(FIELDS[-2], "tau", 0) == 0
        assert lefschetz_level_one(FIELDS[-5], "sigma", 0) == 2
        assert lefschetz_level_one(FIELDS[-7], "sigma", 0) == 2


def test_criterion_08_bracket_adjudication():
    with criterion(8, "bracket adjudication: rational fails integrality, the "
                      "default passes all even-k checks, odd-k reported only"):
        records = adjudicate_brackets([FIELDS[d] for d in D_GRID], 24)
        assert records["rational"].integrality_failures
        assert records[DEFAULT_BRACKET].even_ok
        odd = records[DEFAULT_BRACKET].parity_failures_odd
        print(f"      odd-k parity status under {DEFAULT_BRACKET}: "
              f"{len(odd)} deviations, first {odd[0] if odd else None}")


def test_criterion_09_exact_bounds():
    with criterion(9, "exact cuspidal bounds: 12, 1251, 156251 with full provenance"):
        for N, want in ((5, 12), (25, 1251), (125, 156251)):
            rep = cusp_lower_bound(make_field(-2), N, 0)
            assert rep.mode == "exact" and rep.bound == want, (N, rep.bound)
            for key in ("L", "tr0", "tr1_eis", "tr2_eis"):
                assert rep.provenance.get(key), key


def test_criterion_10_asymptotic_floors():
    with criterion(10, "tower ratios bound/5^(3n) inside [0.05, 0.2] and "
                       "L(sigma) linear in k+1"):
        from fractions import Fraction
        for n in (1, 2, 3):
            ratio = Fraction(cusp_lower_bound(make_field(-2), 5**n, 0).bound, 5 ** (3 * n))
            assert Fraction(1, 20) <= ratio <= Fraction(1, 5), (n, ratio)
        f7 = make_field(-7)
        for k in range(21):
            assert lefschetz_sigma_principal(f7, 3, k) == -2 * (k + 1), k


def test_criterion_11_eisenstein_trace_values():
    with criterion(11, "Eisenstein trace formulas hit their exact values"):
        assert trace_h2_eis(make_field(-7), 9, 1, "sigma") == -72
        assert trace_h2_eis(make_field(-7), 9, 1, "tau") == -18
        assert trace_sigma_h1_eis(make_field(-2), 5, 2) == -600
        tr = level_one_sigma_traces(make_field(-5), 0)
        assert (tr.tr0, tr.tr1, tr.tr2) == (1, -2, -1)


def test_criterion_12_symbol_layer():
    with criterion(12, "hilbert2 == mod-2^9 oracle on the full grid; class "
                       "numbers and genus counts reproduced"):
        odds = [s for n in range(1, 16, 2) for s in (n, -n)]
        evens = [2, -2, 6, -6, 10, -10]
        pairs = [(a, b) for a in odds for b in odds]
        pairs += [(a, b) for a in evens for b in odds]
        pairs += [(a, b) for a in odds for b in evens]
        for a, b in pairs:
            assert hilbert2(a, b) == hilbert2_norm_search(a, b), (a, b)
        for d, h in ((-2, 1), (-5, 2), (-7, 1), (-11, 1), (-23, 3)):
            f = make_field(d)
            assert f.h == h
            assert ideal_class_count(f) == h
        for d in range(-2, -101, -1):
            if d in (-1, -3) or not is_square_free(d):
                continue
            f = make_field(d)
            assert ambiguous_form_count(f.D) == two_torsion_count(f), d
