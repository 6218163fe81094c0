import json

import pytest

from bianchi_lefschetz.bounds import cusp_lower_bound, gl2_trace_sigma1
from bianchi_lefschetz.cli import main
from bianchi_lefschetz.eisenstein import cusp_count
from bianchi_lefschetz.exactmath import InputError
from bianchi_lefschetz.lefschetz import RATIONAL
from bianchi_lefschetz.quadfield import is_square_free, make_field

F2, F5, F7, F11 = (make_field(d) for d in (-2, -5, -7, -11))


class TestCuspLowerBound:
    def test_exact_tower_values(self):
        for N, want in ((5, 12), (25, 1251), (125, 156251)):
            rep = cusp_lower_bound(F2, N, 0)
            assert rep.mode == "exact"
            assert rep.bound == want
            assert rep.tr1_eis is not None
            # provenance names every exact ingredient
            assert set(rep.provenance) == {"L", "tr0", "tr1_eis", "tr2_eis"}
            assert all(rep.provenance.values())

    def test_exact_ingredients_at_n5(self):
        rep = cusp_lower_bound(F2, 5, 0)
        assert (rep.L, rep.tr1_eis, rep.tr2_eis, rep.tr0) == (-20, -26, -23, 1)

    def test_worst_case_clamps_to_zero(self):
        rep = cusp_lower_bound(F7, 3, 2)
        assert rep.mode == "worst_case"
        assert rep.bound == 0
        assert rep.tr1_eis is None and rep.tr1_window == 80

    def test_exact_dominates_worst_case(self):
        for N in (5, 25):
            exact = cusp_lower_bound(F2, N, 0)
            assert exact.mode == "exact"
            # the window bound the same ingredients would give without tr1
            c = cusp_count(F2, N)
            worst = max(0, (abs(exact.L - exact.tr2_eis - exact.tr0) - c + 1) // 2)
            assert exact.bound >= worst

    def test_split_prime_falls_back_to_worst_case(self):
        rep = cusp_lower_bound(F2, 3, 0)   # 3 splits in Q(sqrt(-2))
        assert rep.mode == "worst_case"

    def test_evenness_of_exact_sum(self):
        rep = cusp_lower_bound(F2, 5, 0)
        assert (rep.L + rep.tr1_eis - rep.tr2_eis - rep.tr0) % 2 == 0

    def test_worst_case_bound_is_valid_for_every_window_value(self):
        # the worst-case bound must stay below (1/2)|L + t - tr2 - tr0| for
        # every degree-1 trace t the window allows
        for d, N, k in ((-7, 3, 2), (-2, 3, 0), (-5, 3, 1)):
            rep = cusp_lower_bound(make_field(d), N, k)
            assert rep.mode == "worst_case"
            c = rep.tr1_window
            worst = min(abs(rep.L + t - rep.tr2_eis - rep.tr0) for t in range(-c, c + 1))
            # dimensions are integers, so the ceiling of worst/2 is the
            # strongest valid bound; anything above it would overclaim
            assert rep.bound == (worst + 1) // 2

    def test_rejects_tau_and_ramified_levels(self):
        # the bound is for sigma only, and the CLI's --involution refuses tau
        # (tests/test_cli.py); here the levels it refuses
        with pytest.raises(InputError):
            cusp_lower_bound(F5, 5, 0)     # 5 ramifies, no degree-2 formula
        with pytest.raises(InputError):
            cusp_lower_bound(F2, 2, 0)


class TestGL2:
    def test_weight_zero_values(self):
        assert gl2_trace_sigma1(F2, 0) == 0
        assert gl2_trace_sigma1(F5, 0) == 0
        # d = -21 carries weight-zero cuspidal classes: the GL2 trace is 1
        assert gl2_trace_sigma1(make_field(-21), 0) == 1
        assert all(gl2_trace_sigma1(make_field(d), 0).denominator == 1 for d in range(-2, -31, -1)
                   if d not in (-1, -3) and is_square_free(d))

    def test_eventually_nonzero(self):
        assert gl2_trace_sigma1(F2, 24) == 1

    def test_even_weights_integral_under_default(self):
        for f in (F2, F5, F7, F11):
            for k in range(0, 25, 2):
                assert gl2_trace_sigma1(f, k).denominator == 1

    def test_odd_weights_tagged_unadjudicated(self, capsys):
        # the gl2 record carries the tag at odd weights only
        for k, tagged in ((1, True), (2, False), (3, True)):
            assert main(["gl2", "--d", "-2", "--k", str(k)]) == 0
            rec = json.loads(capsys.readouterr().out)
            assert ("odd weight: bracket reading unadjudicated" in rec["warnings"]) == tagged

    def test_non_integral_trace_raises_in_bound(self, capsys):
        # rational brackets break integrality at d=-2, k=2, and the gl2 leaf
        # then refuses the bound
        assert gl2_trace_sigma1(F2, 2, RATIONAL).denominator != 1
        assert main(["gl2", "--d", "-2", "--k", "2", "--bracket", "rational"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert "bound" not in rec["result"]
        assert "non-integral GL2 trace: bracket adjudication failure" in rec["warnings"]
