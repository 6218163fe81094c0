import csv
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from bianchi_lefschetz import bounds, cli, eisenstein, finitering, lefschetz, quadfield, verify
from bianchi_lefschetz.cli import argv_of_record, emit, main
from bianchi_lefschetz.exactmath import ConformanceError, InputError
from test_numpy_free import COMMANDS, SRC, leaf_commands


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def records_of(out):
    return [json.loads(line) for line in out.strip().split("\n") if line]


def fresh(args, **kwargs):
    """Run `python *args` in a fresh interpreter that imports the package
    from src/, with stdout buffered as it is by default, so that output
    the entry fails to flush is lost."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, *args], env=env, **kwargs)


_BIG = str(10**4000 + 1)
# One argv per leaf at least, with integers out of every sensible range.
LEAF_ARGVS = [
    ["field", "--d", f"-{_BIG}"],
    ["lefschetz", "principal", "--d", "-2", "--N", _BIG, "--k", "0"],
    ["eisenstein", "h2", "--d", "-2", "--N", _BIG, "--k", "0", "--involution", "sigma"],
    ["bound", "--d", "-2", "--N", _BIG, "--k", "0"],
    ["sczech", "--d", "-2", "--N", str(10**157)],
    ["eisenstein", "h1", "--d", "-2", "--p", "5", "--n", str(10**400)],
    ["eisenstein", "h1", "--d", "-2", "--p", "5", "--n", str(10**8)],
    ["field", "--d", str(-10**20)],
    ["lefschetz", "principal", "--d", "-2", "--N", str(2**5000), "--k", "0"],
    ["lefschetz", "level-one", "--d", "-2", "--k", str(10**12), "--involution", "tau"],
    ["eisenstein", "h2", "--d", "-2", "--N", str(5**3000), "--k", "0",
     "--involution", "tau"],
    ["eisenstein", "h1", "--d", "-2", "--p", "5", "--n", "4000"],
    ["eisenstein", "h1", "--d", "-2", "--p", "5", "--n", str(10**10)],
    ["sczech", "--d", "-2", "--N", str(10**6)],
    ["bound", "--d", "-2", "--N", str(5**3000), "--k", "0"],
    ["gl2", "--d", "-2", "--k", str(10**12)],
    ["table", "--d-list", "-2", "--N-list", "5", str(5**3000), "--k-list", "0"],
    ["verify", str(10**20)],
    ["bound", "--d", "-2", "--N", "7" * 5000, "--k", "0"],
    ["table", "--d-list", "-2", "--N-list", "5", "7" * 5000, "--k-list", "0"],
    ["bound", "--d", "-2", "--N", "5", "--k", "0", "--format", "x" * 5000],
    ["bound", "--d", "-2", "--N", "5", "--k", "0", "--" + "x" * 5000],
    ["bound", "--d", "-2", "--N", "5", "--k", "0", *["--" + "z" * 38] * 2000],
    ["x" * 5000],
    ["lefschetz", "x" * 5000],
    ["verify", "x" * 5000],
]


class TestFieldCommand:
    def test_field_record(self, capsys):
        code, out, _ = run_cli(capsys, "field", "--d", "-2")
        assert code == 0
        (rec,) = records_of(out)
        assert rec["field"] == {"d": "-2", "D": "-8", "h": "1", "t": "1",
                                "D2": "8", "ramified_primes": ["2"]}
        assert rec["result"]["omega_rule"] == "omega^2 = d"

    def test_excluded_discriminant_is_input_error(self, capsys):
        code, out, err = run_cli(capsys, "field", "--d", "-3")
        assert code == 1
        assert not out
        assert "d != -1, -3" in err

    def test_unknown_flag_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "field", "--q", "-2")
        assert code == 1
        assert err


class TestBoundCommand:
    def test_exact_bound_record(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--d", "-2", "--N", "5", "--k", "0")
        assert code == 0
        (rec,) = records_of(out)
        assert rec["result"]["bound"] == "12"
        assert rec["result"]["mode"] == "exact"
        assert rec["provenance"]["tr1_eis"]

    def test_json_replay_is_bit_identical(self, capsys):
        code, out1, _ = run_cli(capsys, "bound", "--d", "-2", "--N", "5", "--k", "0")
        assert code == 0
        (rec,) = records_of(out1)
        code, out2, _ = run_cli(capsys, *argv_of_record(rec))
        assert code == 0
        assert out1 == out2

    def test_csv_and_json_carry_identical_payloads(self, capsys):
        _, out_json, _ = run_cli(capsys, "bound", "--d", "-2", "--N", "5", "--k", "0")
        (rec,) = records_of(out_json)
        _, out_csv, _ = run_cli(capsys, "bound", "--d", "-2", "--N", "5", "--k", "0",
                                "--format", "csv")
        header, row = out_csv.strip().split("\n")
        csv_map = dict(zip(header.split(","), row.split(",")))
        for key, val in rec["result"].items():
            assert csv_map[f"result.{key}"] == val

    @pytest.mark.parametrize("d, N, result, warnings, prov_L, prov_tr1", [
        (-7, 15, {"L": "-120", "bound": "0", "kind": "cusp_lower_bound",
                  "mode": "worst_case", "tr0": "1", "tr1_window": "49920", "tr2_eis": "-191"},
         ["composite level: Lefschetz constant outside the validated prime-power domain"],
         "principal-level Lefschetz number (surface-count table)",
         "worst-case window from the Eisenstein dimension c(Gamma)"),
        (-11, 4, {"L": "-8", "bound": "5", "kind": "cusp_lower_bound", "mode": "exact",
                  "tr0": "1", "tr1_eis": "-12", "tr2_eis": "-11"},
         [], "principal-level Lefschetz number (surface-count table)",
         "degree-1 Eisenstein trace via the cocycle span "
         "(inert prime power, class number one)"),
        (-2, 5, {"L": "-20", "bound": "12", "kind": "cusp_lower_bound", "mode": "exact",
                 "tr0": "1", "tr1_eis": "-26", "tr2_eis": "-23"},
         [], "prime-power-level Lefschetz number (odd unramified prime)",
         "degree-1 Eisenstein trace via the cocycle span "
         "(inert prime power, class number one)"),
    ])
    def test_bound_records_pinned(self, capsys, d, N, result, warnings, prov_L, prov_tr1):
        # a composite level, the inert prime 2 and an odd inert prime each
        # take their own branch of cusp_lower_bound
        code, out, _ = run_cli(capsys, "bound", "--d", str(d), "--N", str(N), "--k", "0")
        assert code == 0
        (rec,) = records_of(out)
        assert rec["result"] == result
        assert rec["warnings"] == warnings
        assert rec["provenance"] == {
            "L": prov_L,
            "tr0": "trivial action on degree 0 of a connected space",
            "tr1_eis": prov_tr1,
            "tr2_eis": "degree-2 Eisenstein trace (unramified level)"}

    def test_tau_refused_where_only_sigma_is_defined(self, capsys):
        # the library has no tau branch at principal level; the parser is the guard
        for command in (["bound"], ["lefschetz", "principal"]):
            code, out, err = run_cli(capsys, *command, "--d", "-2", "--N", "5", "--k", "0",
                                     "--involution", "tau")
            assert code == 1
            assert not out
            assert err.startswith("error:") and "'tau'" in err

    def test_raising_internal_check_exits_2(self, capsys, monkeypatch):
        # a degree-1 trace off by one makes the exact-mode sum odd, which
        # cusp_lower_bound refuses to halve
        monkeypatch.setattr(bounds, "trace_sigma_h1_eis", lambda field, p, n: -(p * p))
        code, out, err = run_cli(capsys, "bound", "--d", "-2", "--N", "5", "--k", "0")
        assert code == 2
        assert not out
        assert err.startswith("conformance error: exact-mode sum")
        # table keeps the failed grid point as an error record
        code, out, err = run_cli(capsys, "table", "--d-list", "-2", "--N-list", "5",
                                 "--k-list", "0")
        assert code == 0 and not err
        (rec,) = records_of(out)
        assert rec["result"]["kind"] == "error"
        assert rec["result"]["message"].startswith("exact-mode sum")

    def test_failed_table_invariant_exits_2(self, capsys, monkeypatch):
        # negative fixed-surface counts break make_level's invariant, which
        # must stay a conformance error under python -O
        monkeypatch.setattr(lefschetz, "_table_ab",
                            lambda d_mod4, v2, ts: (Fraction(-1), Fraction(0)))
        code, out, err = run_cli(capsys, "bound", "--d", "-7", "--N", "3", "--k", "0")
        assert code == 2
        assert not out
        assert err.startswith("conformance error:")


class TestLefschetzCommands:
    def test_principal(self, capsys):
        code, out, _ = run_cli(capsys, "lefschetz", "principal", "--d", "-7",
                               "--N", "3", "--k", "0")
        assert code == 0
        (rec,) = records_of(out)
        assert rec["result"]["L"] == "-2"

    def test_level_of_two_large_primes_is_input_error(self, capsys):
        # 399165290221 * 798330580441 is a strong pseudoprime to every
        # prime base up to 37, so it must not be taken for a prime level
        code, out, err = run_cli(capsys, "lefschetz", "principal", "--d", "-2",
                                 "--N", "318665857834031151167461", "--k", "0")
        assert code == 1
        assert not out
        assert "composite" in err

    def test_principal_warning_preserved(self, capsys):
        _, out, _ = run_cli(capsys, "lefschetz", "principal", "--d", "-2",
                            "--N", "5", "--k", "0")
        (rec,) = records_of(out)
        assert any("A or B" in w for w in rec["warnings"])
        _, out_csv, _ = run_cli(capsys, "lefschetz", "principal", "--d", "-2",
                                "--N", "5", "--k", "0", "--format", "csv")
        assert "A or B" in out_csv

    def test_level_one(self, capsys):
        code, out, _ = run_cli(capsys, "lefschetz", "level-one", "--d", "-2",
                               "--k", "0", "--involution", "tau")
        assert code == 0
        (rec,) = records_of(out)
        assert rec["result"]["L"] == "0"
        assert rec["query"]["bracket"] == "torsion-char"

    def test_level_one_rational_warns(self, capsys):
        _, out, _ = run_cli(capsys, "lefschetz", "level-one", "--d", "-2",
                            "--k", "2", "--involution", "sigma",
                            "--bracket", "rational")
        (rec,) = records_of(out)
        assert rec["result"]["L"] == "53/24"
        assert rec["result"]["integral"] == "false"
        assert rec["warnings"]


class TestEisensteinCommands:
    def test_h2(self, capsys):
        code, out, _ = run_cli(capsys, "eisenstein", "h2", "--d", "-7", "--N", "9",
                               "--k", "1", "--involution", "sigma")
        assert code == 0
        (rec,) = records_of(out)
        assert rec["result"]["trace"] == "-72"

    def test_h2_rejects_negative_weight(self, capsys):
        code, out, err = run_cli(capsys, "eisenstein", "h2", "--d", "-7", "--N", "3",
                                 "--k", "-1", "--involution", "sigma")
        assert code == 1
        assert not out
        assert err == "error: weight must be >= 0, got -1\n"

    @pytest.mark.parametrize("d, N, message", [
        (-2, 2, "trace_sigma_h2_eis requires N >= 3 (or N = 1), got 2"),
        (-2, 0, "invalid level 0"),
        (-5, 5, "trace_sigma_h2_eis requires unramified level; 5 ramifies in Q(sqrt(-5))"),
    ])
    def test_h2_refusals(self, capsys, d, N, message):
        # `table` error records carry these messages, so their wording is pinned
        code, out, err = run_cli(capsys, "eisenstein", "h2", "--d", str(d), "--N", str(N),
                                 "--k", "0", "--involution", "sigma")
        assert code == 1
        assert not out
        assert err == f"error: {message}\n"

    def test_h1(self, capsys):
        code, out, _ = run_cli(capsys, "eisenstein", "h1", "--d", "-2", "--p", "5",
                               "--n", "1")
        assert code == 0
        (rec,) = records_of(out)
        assert rec["result"]["trace"] == "-26"

    def test_h1_precondition_error(self, capsys):
        code, _, err = run_cli(capsys, "eisenstein", "h1", "--d", "-5", "--p", "3",
                               "--n", "1")
        assert code == 1
        assert "class number one" in err


class TestSczechCommand:
    def test_trace_record(self, capsys):
        code, out, _ = run_cli(capsys, "sczech", "--d", "-2", "--N", "3")
        assert code == 0
        (rec,) = records_of(out)
        assert rec["query"]["variant"] == "symplectic-invdiff"
        assert abs(float(rec["result"]["trace_re"]) + 10) < 1e-8
        assert float(rec["result"]["involution_defect"]) < 1e-9

    def test_matrix_dump(self, capsys, tmp_path):
        path = tmp_path / "m.txt"
        code, out, _ = run_cli(capsys, "sczech", "--d", "-2", "--N", "2",
                               "--emit-matrix", str(path))
        assert code == 0
        rows = path.read_text().strip().split("\n")
        assert len(rows) == 225
        assert all(len(r.split()) == 4 for r in rows)

    def test_unwritable_matrix_path_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "op.txt"
        code, out, err = run_cli(capsys, "sczech", "--d", "-2", "--N", "2",
                                 "--emit-matrix", str(path))
        assert code == 1
        assert not out
        assert err.startswith("error:") and str(path) in err
        assert "Traceback" not in err


class TestGL2Command:
    def test_record(self, capsys):
        code, out, _ = run_cli(capsys, "gl2", "--d", "-2", "--k", "24")
        assert code == 0
        (rec,) = records_of(out)
        assert rec["result"]["bound"] == "1"

    def test_odd_weight_warns(self, capsys):
        _, out, _ = run_cli(capsys, "gl2", "--d", "-2", "--k", "1")
        (rec,) = records_of(out)
        assert any("unadjudicated" in w for w in rec["warnings"])


class TestTableCommand:
    def test_json_grid(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--d-list", "-2", "-7",
                               "--N-list", "3", "5", "--k-list", "0")
        assert code == 0
        recs = records_of(out)
        assert len(recs) == 4
        kinds = {r["result"]["kind"] for r in recs}
        assert kinds <= {"cusp_lower_bound", "error"}

    def test_tex_body_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--d-list", "-2", "--N-list", "5",
                               "--k-list", "0", "--format", "tex")
        assert code == 0
        lines = out.strip().split("\n")
        assert all(line.endswith(r"\\") for line in lines)
        assert " & " in lines[0]


@pytest.fixture
def digit_limit():
    """The interpreter's default limit on printing an int, 4300 digits."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(limit)


class TestOutOfRangeIntegers:
    @pytest.mark.parametrize("argv, key", [
        (["eisenstein", "h1", "--d", "-2", "--p", "5", "--n", "4000"], "trace"),
        (["lefschetz", "principal", "--d", "-2", "--N", str(2**5000), "--k", "0"], "L"),
        (["bound", "--d", "-2", "--N", str(5**3000), "--k", "0"], "bound"),
    ], ids=["h1-n4000", "principal-2^5000", "bound-5^3000"])
    def test_unprintable_result_is_input_error(self, capsys, digit_limit, argv, key):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert not out
        assert err == f"error: result {key} has more than 4300 digits, too many to print\n"

    def test_unparseable_integer_is_named_by_its_length(self, capsys, digit_limit):
        # argparse's own words for a short value; a long one, here past the
        # digit limit, is not echoed, and neither is a long word that the
        # other refusals name
        long, bound = "7" * 5000, ["bound", "--d", "-2", "--N", "5", "--k", "0"]
        commands = ", ".join(map(repr, ("field", "lefschetz", "eisenstein", "sczech", "bound",
                                        "gl2", "table", "verify")))
        suites = "symbols, classgroup, cusps, fixedpoints, sczech, integrality, anchors or 'all'"
        for argv, message in (
            (["bound", "--d", "-2", "--N", "12x", "--k", "0"],
             "argument --N: invalid int value: '12x'"),
            (["bound", "--d", "-2", "--N", long, "--k", "0"],
             "argument --N: invalid int value: a 5000-character value"),
            ([*bound, "--format", "xml"],
             "argument --format: invalid choice: 'xml' (choose from 'json', 'csv', 'tex')"),
            ([*bound, "--format", long], "argument --format: invalid choice: "
             "a 5000-character value (choose from 'json', 'csv', 'tex')"),
            ([*bound, "--zz"], "unrecognized arguments: --zz"),
            ([*bound, "--zz", f"--{long}"], "unrecognized arguments: --zz a 5002-character value"),
            ([*bound, "--zz", "--yy", f"--{long}"],
             "unrecognized arguments: --zz --yy a 5002-character value"),
            ([*bound, *["--zz"] * 2000], "unrecognized arguments: --zz --zz --zz and 1997 more"),
            (["zz"], f"argument command: invalid choice: 'zz' (choose from {commands})"),
            ([long], f"argument command: invalid choice: a 5000-character value "
                     f"(choose from {commands})"),
            (["lefschetz", "zz"], "argument subcommand: invalid choice: 'zz' "
                                  "(choose from 'principal', 'level-one')"),
            (["lefschetz", long], "argument subcommand: invalid choice: a 5000-character value "
                                  "(choose from 'principal', 'level-one')"),
            (["verify", "zz"], f"unknown verify suite 'zz'; choose from {suites}"),
            (["verify", long],
             f"unknown verify suite a 5000-character value; choose from {suites}"),
        ):
            assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")

    def test_table_keeps_its_printable_points(self, capsys, digit_limit):
        code, out, err = run_cli(capsys, "table", "--d-list", "-2",
                                 "--N-list", "5", str(5**3000), "--k-list", "0")
        assert code == 0, err
        good, bad = records_of(out)
        assert (good["result"]["N"], good["result"]["bound"]) == ("5", "12")
        assert bad["result"] == {"kind": "error", "d": "-2", "N": str(5**3000), "k": "0",
                                 "message": "result bound has more than 4300 digits, "
                                            "too many to print"}

    def test_power_past_the_memory_budget_is_input_error(self, capsys):
        code, out, err = run_cli(capsys, "eisenstein", "h1", "--d", "-2", "--p", "5",
                                 "--n", str(10**10))
        assert code == 1
        assert not out
        assert err.startswith("error: the integer 5^20000000000 needs about ")

    @pytest.mark.parametrize("n", [3 * 10**6, 10**8])
    def test_unprintable_power_is_refused_before_it_is_computed(self, capsys, digit_limit, n):
        # 5^(2n) fits the memory budget; computing it would take seconds to hours
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "eisenstein", "h1", "--d", "-2", "--p", "5",
                                 "--n", str(n))
        assert time.perf_counter() - start < 1
        assert code == 1
        assert not out
        assert err == (f"error: the fixed coset count at 5^{n} has more than 4300 digits, "
                       "too many to print\n")

    def test_every_leaf_ends_cleanly(self):
        # one fresh process per leaf, with integers out of every sensible range;
        # a refusal writes a huge integer as its digit count, so stderr stays short.
        # The 10^4000 + 1 queries spend about 2 s in factorize's trial division.
        argvs = LEAF_ARGVS
        leaves = leaf_commands(cli.build_parser())
        assert leaves == {leaf for leaf in leaves for a in argvs if tuple(a[:len(leaf)]) == leaf}
        for argv in argvs:
            proc = fresh(["-m", "bianchi_lefschetz", *argv], capture_output=True, text=True,
                         timeout=5)
            what = " ".join(argv)[:80]
            assert "Traceback" not in proc.stdout + proc.stderr, what
            assert len(proc.stderr.encode()) < 200, what
            assert proc.returncode in (0, 1, 2), what
            if proc.returncode == 1:
                assert proc.stderr.startswith("error: "), what


def _parse_outcome(capsys, parser, argv):
    """What parsing argv leaves, as main sees it: stdout, stderr, the exit
    code (1 for a refusal, SystemExit's for --help) and the arguments."""
    try:
        args, extras = parser.parse_known_args(argv)
        code, parsed = None, (vars(args), extras)
    except InputError as exc:
        code, parsed = 1, str(exc)
    except SystemExit as exc:
        code, parsed = exc.code, None
    out, err = capsys.readouterr()
    return out, err, code, parsed


_PARSER_ARGVS = [["--help"], ["lefschetz", "--help"], ["lefschetz", "foo"], ["nosuch"],
                 ["--format", "json", "bound"]]


class TestLazyParser:
    @pytest.mark.parametrize("argv", LEAF_ARGVS + _PARSER_ARGVS,
                             ids=lambda argv: " ".join(argv)[:40])
    def test_branch_parses_as_the_whole_parser(self, capsys, argv):
        # main reads argv only through the parse, so the parse's outcome
        # stands for main's; the 10^4000 + 1 queries would take seconds more
        lazy = _parse_outcome(capsys, cli.build_parser(argv), argv)
        assert lazy == _parse_outcome(capsys, cli.build_parser(), argv)

    @pytest.mark.parametrize("argv", _PARSER_ARGVS + [
        ["bound", "--d", "-2", "--N", "5", "--k", "0"], ["bound", "--help"], ["verify", "nosuch"]])
    def test_main_writes_the_same(self, capsys, monkeypatch, argv):
        def run():
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            return (code, *capsys.readouterr())
        lazy = run()
        whole = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda argv=None: whole())
        assert lazy == run()

    def test_a_leaf_builds_its_branch_alone(self):
        assert leaf_commands(cli.build_parser(["lefschetz", "principal", "--d", "-2"])) == \
            {("lefschetz", "principal")}
        assert leaf_commands(cli.build_parser(["verify"])) == {("verify",)}
        assert leaf_commands(cli.build_parser(["lefschetz"])) == leaf_commands(cli.build_parser())


class TestVerifyCommand:
    def test_fast_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "anchors")
        assert code == 0
        assert "PASS anchors:" in out
        assert "FAIL" not in out.replace("hard failures", "")

    def test_fixedpoints_reports_diagnostics(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "fixedpoints")
        assert code == 0
        assert "DIAG fixedpoints: tau coset census" in out
        assert "census 24 vs closed formula 4, ratio 6," in out

    def test_raising_check_is_a_fail_line(self, capsys, monkeypatch):
        # every prime reported inert: O/(3) in Q(sqrt(-2)) then has two roots
        # too many, and the first cusp census raises building its ring
        monkeypatch.setattr(finitering, "splitting_type", lambda field, p: "inert")
        code, out, err = run_cli(capsys, "verify", "cusps")
        assert code == 2 and not err
        assert ("FAIL cusps: check raised ConformanceError: root count 2 mod 3 "
                "contradicts splitting inert") in out
        code, out, err = run_cli(capsys, "verify", "all")
        assert code == 2 and not err
        assert "PASS anchors: GL2 trace at (d=-2, k=0) == 0" in out

    def test_sl2_order_check_can_fail(self, capsys, monkeypatch):
        real = verify.sl2_order_formula
        monkeypatch.setattr(verify, "sl2_order_formula",
                            lambda field, N: real(field, N) + (N == 6))
        code, out, _ = run_cli(capsys, "verify", "cusps")
        assert code == 2
        assert "PASS cusps: cusp count (d=-2, N=3)" in out
        assert "FAIL cusps: SL2 orders: enumeration == norm formula" in out

    def test_prime_power_integrality_check_can_fail(self, capsys, monkeypatch):
        real = verify.lefschetz_sigma_principal

        def non_integral_at_32(field, level, k):
            if level == 32:
                raise ConformanceError("L(sigma, Gamma(32), k=1) is not an integer")
            return real(field, level, k)

        monkeypatch.setattr(verify, "lefschetz_sigma_principal", non_integral_at_32)
        code, out, _ = run_cli(capsys, "verify", "integrality")
        assert code == 2
        assert ("FAIL integrality: principal-level Lefschetz numbers integral "
                "on prime powers N in [3,40]") in out
        assert "PASS integrality: principal-level formula == prime-power formula" in out

    def test_norm_search_check_can_fail(self, capsys, monkeypatch):
        # (9, -9) is in no other symbols check: 9 is not square-free
        real = verify.hilbert2
        monkeypatch.setattr(verify, "hilbert2",
                            lambda a, b: -real(a, b) if (a, b) == (9, -9) else real(a, b))
        code, out, _ = run_cli(capsys, "verify", "symbols")
        assert code == 2
        assert "FAIL symbols: hilbert2 closed formula == mod-2^9 norm search on 448 pairs" in out
        assert "PASS symbols: hilbert2 symmetry on the square-free grid |a|,|b| <= 50" in out

    def test_symmetry_check_can_fail(self, capsys, monkeypatch):
        # one entry of the tabulated grid is flipped, its transpose is not
        real = verify.hilbert2
        monkeypatch.setattr(verify, "hilbert2",
                            lambda a, b: -real(a, b) if (a, b) == (35, -46) else real(a, b))
        code, out, _ = run_cli(capsys, "verify", "symbols")
        assert code == 2
        assert "FAIL symbols: hilbert2 symmetry on the square-free grid |a|,|b| <= 50" in out
        assert "PASS symbols: hilbert2 bimultiplicativity on the small square-free grid" in out

    def test_bimultiplicativity_check_can_fail(self, capsys, monkeypatch):
        # (6, 5) and (5, 6) flip together, so the grid stays symmetric, but
        # (6, 5) no longer equals (2, 5) * (3, 5)
        real = verify.hilbert2
        monkeypatch.setattr(verify, "hilbert2", lambda a, b: -real(a, b)
                            if {a, b} == {5, 6} else real(a, b))
        code, out, _ = run_cli(capsys, "verify", "symbols")
        assert code == 2
        assert "FAIL symbols: hilbert2 bimultiplicativity on the small square-free grid" in out
        assert "PASS symbols: hilbert2 symmetry on the square-free grid |a|,|b| <= 50" in out

    def test_level_one_degree_two_check_can_fail(self, capsys, monkeypatch):
        # one fixed cusp too many in trace_h2_eis's 2^(t-1); the level-one
        # traces count the ambiguous forms, so the two routes part
        monkeypatch.setattr(eisenstein, "two_torsion_count", lambda f: 2 ** (f.t - 1) + 1)
        code, out, _ = run_cli(capsys, "verify", "anchors")
        assert code == 2
        assert ("FAIL anchors: level-one degree-2 trace consistent between "
                "the two routes") in out
        assert "PASS anchors: level-one sigma traces at (d=-5, k=0) == (1, -2, -1)" in out

    def test_classgroup_enumerates_each_discriminant_once(self, capsys, monkeypatch):
        quadfield.make_field.cache_clear()
        quadfield._form_counts.cache_clear()
        enumerated = []
        real = quadfield._nonnegative_forms
        monkeypatch.setattr(quadfield, "_nonnegative_forms",
                            lambda D: enumerated.append(D) or real(D))
        code, out, err = run_cli(capsys, "verify", "classgroup")
        assert code == 0, err
        assert "FAIL" not in out.replace("hard failures", "")
        assert len(enumerated) == len(set(enumerated)) == 120

    def test_verify_all_output_is_pinned(self, capsys):
        # every line, DIAG text included, as the suites printed it when pinned
        code, out, err = run_cli(capsys, "verify", "all")
        assert code == 0 and not err
        assert out == (Path(__file__).parent / "verify_all.txt").read_text()

    def test_unknown_suite_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "nope")
        assert code == 1
        assert "unknown verify suite" in err


TABLE_200 = ["table", "--d-list", "-2", "-5", "-6", "-7", "-10", "-11", "-13", "-14",
             "--N-list", "3", "5", "7", "9", "11", "--k-list", "0", "2", "4", "6", "8",
             "--format", "csv"]


class TestEntry:
    """The console entry, in fresh processes: it flushes and ends in
    os._exit, so what a test sees through a pipe is all that was flushed."""

    @pytest.mark.parametrize("argv", [["verify", "all"], TABLE_200], ids=["verify", "table"])
    def test_piped_output_is_what_main_prints(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and not err
        if argv[0] == "table":
            assert len(out.splitlines()) == 201     # a header and 200 records
        proc = fresh(["-m", "bianchi_lefschetz", *argv], capture_output=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, out.encode(), b"")

    def test_input_error_exits_1(self):
        proc = fresh(["-m", "bianchi_lefschetz", "field", "--d", "-3"],
                     capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1 and not proc.stdout
        assert proc.stderr.startswith("error: d must be a square-free negative integer")

    def test_hard_failure_exits_2(self):
        script = ("import sys\n"
                  "from bianchi_lefschetz import cli, verify\n"
                  "verify._SUITE_FUNCS['anchors'] = lambda res: res.check(False, 'patched')\n"
                  "sys.argv = ['bianchi-lefschetz', 'verify', 'anchors']\n"
                  "cli.entry()\n")
        proc = fresh(["-c", script], capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "FAIL anchors: patched\nverify: 1 checks, 1 hard failures, exit 2\n", "")

    def test_help_exits_0(self):
        proc = fresh(["-m", "bianchi_lefschetz", "--help"], capture_output=True, text=True,
                     timeout=60)
        assert proc.returncode == 0 and not proc.stderr
        assert proc.stdout.startswith("usage: bianchi-lefschetz")
        assert "Command-line surface." in proc.stdout

    @pytest.mark.parametrize("argv", [["verify", "all"], TABLE_200], ids=["verify", "table"])
    def test_closed_pipe_exits_1_without_a_traceback(self, argv):
        read, write = os.pipe()
        os.close(read)          # no reader: the first write fails with EPIPE
        try:
            proc = fresh(["-m", "bianchi_lefschetz", *argv], stdout=write,
                         stderr=subprocess.PIPE, timeout=60)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (1, b"")


def test_csv_quotes_commas_and_quotes():
    value = 'a "quoted", listed value'
    rec = {"query": {"command": "field", "d": "-2"}, "result": {"note": value},
           "warnings": ['says "hi", twice'], "provenance": {}}
    out = io.StringIO()
    emit([rec], "csv", out)
    header, row = csv.reader(io.StringIO(out.getvalue()))
    assert dict(zip(header, row))["result.note"] == value
    assert dict(zip(header, row))["warnings"] == 'says "hi", twice'


def test_exit_code_aggregation_flags_hard_failures():
    from bianchi_lefschetz.verify import SuiteResult, exit_code
    good, bad = SuiteResult("g"), SuiteResult("b")
    good.check(True, "fine")
    good.diag("note")
    bad.check(False, "broken")
    assert exit_code([good]) == 0
    assert exit_code([good, bad]) == 2


def test_each_query_builds_its_field_once(monkeypatch, capsys, tmp_path):
    calls = []
    make_field = cli.make_field
    monkeypatch.setattr(cli, "make_field", lambda d: calls.append(d) or make_field(d))
    for argv in COMMANDS:
        if argv[0] in ("table", "verify"):
            continue
        calls.clear()
        code, _, err = run_cli(capsys, *[str(tmp_path / "op.txt") if a == "MATRIX" else a
                                         for a in argv])
        assert code == 0, err
        assert calls == [int(argv[argv.index("--d") + 1])], argv


def test_table_enumerates_each_field_once(monkeypatch, capsys):
    # make_field and the form counts are memoised, so clear both before
    # counting what they call
    quadfield.make_field.cache_clear()
    quadfield._form_counts.cache_clear()
    enumerated = []
    real = quadfield._nonnegative_forms
    monkeypatch.setattr(quadfield, "_nonnegative_forms",
                        lambda D: enumerated.append(D) or real(D))
    code, out, err = run_cli(capsys, "table", "--d-list", "-9999991", "--N-list", "3", "5",
                             "--k-list", "0", "1")
    assert code == 0, err
    assert len(records_of(out)) == 4
    assert enumerated == [-9999991]
    for _ in range(2):
        with pytest.raises(InputError):
            quadfield.make_field(-4)
    assert quadfield.make_field(-7) is quadfield.make_field(-7)
