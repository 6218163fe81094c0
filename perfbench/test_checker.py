"""The output checks can fail: each corruption below must raise fail_ratio.

    python3 perfbench/test_checker.py

The workload loops run against a fake spawn that replays the golden
outputs, so these tests need neither the library nor a child process.
"""

from __future__ import annotations

import csv
import io
import json
import subprocess
import sys
import unittest
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import queries  # noqa: E402
import run  # noqa: E402
import sweep  # noqa: E402
import tracing  # noqa: E402

GOLDEN = check.load_cli_golden()
VERIFY = check.load_verify_golden() + "verify: 63 checks, 0 hard failures, exit 0\n"


def render(query: str, records: list) -> str:
    """Output whose normalized form is `records`, in the query's format."""
    fmt = check.query_format(query)
    if fmt == "json":
        return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    if fmt == "csv":
        columns = list(dict.fromkeys(k for r in records for k in r))
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([r.get(c, "") for c in columns] for r in records)
        return buf.getvalue()
    return "".join(" & ".join([*cells, "", ""]) + " \\\\\n" for cells in records)


class FakeSpawn:
    """Replays golden outputs; `corrupt(query, code, out, err)` may alter one."""

    def __init__(self, corrupt=None):
        self.corrupt = corrupt or (lambda q, code, out, err: (code, out, err))

    def __call__(self, argv, env):
        query = " ".join(argv[2:])
        if query == "verify all":
            code, out, err = 0, VERIFY, ""
        else:
            entry = GOLDEN[query]
            code = entry["exit"]
            out = render(query, entry["records"]) if code == 0 else ""
            err = "" if code == 0 else "error: rejected input\n"
        code, out, err = self.corrupt(query, code, out, err)
        return 0.01, subprocess.CompletedProcess(argv, code, out, err)


def fail_ratio(workload: str, corrupt=None) -> float:
    with mock.patch.object(run, "spawn", FakeSpawn(corrupt)):
        _, _, failures, attempted = run.run_untraced(workload, seed=1, seconds=0, env={})
    return len(failures) / attempted


FIRST_DECK = next(queries.decks(1))
TARGET = next(q for q in FIRST_DECK if GOLDEN[q]["exit"] == 0 and not q.startswith("sczech"))


class CliChecks(unittest.TestCase):
    def test_golden_output_passes(self):
        self.assertEqual(fail_ratio("cli-queries"), 0)

    def test_corrupted_record_fails(self):
        def corrupt(q, code, out, err):
            if q != TARGET:
                return code, out, err
            recs = [r.copy() for r in GOLDEN[q]["records"]]
            if isinstance(recs[0], list):
                recs[0] = [*recs[0][:-1], recs[0][-1] + "1"]
            elif check.query_format(q) == "csv":
                key = next(k for k in recs[0] if k.startswith("result."))
                recs[0][key] += "1"
            else:
                recs[0]["result"] = {**recs[0]["result"], "kind": "corrupted"}
            return code, render(q, recs), err
        self.assertGreater(fail_ratio("cli-queries", corrupt), 0)

    def test_exit_one_where_zero_expected_fails(self):
        def corrupt(q, code, out, err):
            return (1, "", "error: boom\n") if q == TARGET else (code, out, err)
        self.assertGreater(fail_ratio("cli-queries", corrupt), 0)

    def test_traceback_fails(self):
        def corrupt(q, code, out, err):
            return (code, out, "Traceback (most recent call last):\nKeyError: 1\n") \
                if q == TARGET else (code, out, err)
        self.assertGreater(fail_ratio("cli-queries", corrupt), 0)

    def test_sczech_floats_compared_by_tolerance(self):
        q = "sczech --d -2 --N 4"
        rec = GOLDEN[q]["records"][0]
        exact = {**rec, "result": {**rec["result"], "trace_re": "-17", "trace_im": "0.0",
                                   "involution_defect": "0.0"}}
        self.assertIsNone(check.check_query(q, GOLDEN[q], 0, render(q, [exact]), ""))
        wrong = {**rec, "result": {**rec["result"], "trace_re": "-16.9"}}
        self.assertIsNotNone(check.check_query(q, GOLDEN[q], 0, render(q, [wrong]), ""))


class VerifyChecks(unittest.TestCase):
    def test_golden_output_passes(self):
        self.assertEqual(fail_ratio("verify-all"), 0)

    def test_dropped_pass_line_fails(self):
        first_pass = VERIFY.splitlines()[0]
        self.assertGreater(fail_ratio("verify-all", lambda q, code, out, err: (
            code, out.replace(first_pass + "\n", ""), err)), 0)

    def test_fail_line_fails(self):
        self.assertGreater(fail_ratio("verify-all", lambda q, code, out, err: (
            code, out + "FAIL cusps: something\n", err)), 0)

    def test_exit_one_fails(self):
        self.assertGreater(fail_ratio("verify-all", lambda q, code, out, err: (1, out, err)), 0)

    def test_new_lines_and_defect_digits_pass(self):
        out = VERIFY.replace("defect 2.4e-16", "defect 7.0e-17") + "DIAG new: text\n"
        self.assertIsNone(check.check_verify(0, out, "", VERIFY))


class SweepChecks(unittest.TestCase):
    def items(self, workload):
        """Items built from the closed formulas, as a correct library would return."""
        items = []
        for task in sweep.plan(workload, 3, 0):
            kind, d, N = task["kind"], task["d"], task["N"]
            item = dict(task, value=check.CENSUS_FORMULA.get(kind, lambda d, N: 0)(d, N))
            item.update(trace_re=float(check.INVDIFF_TRACE.get(N, 0) if kind == "sczech_invdiff"
                                       else -(N * N + 1)),
                        trace_im=0.0, defect=0.0, lines=(N**4 - 1) ** 2, diag_sum=-(N * N + 1.0))
            items.append(item)
        return items

    def test_formula_items_pass(self):
        for workload in sweep.SWEEPS:
            self.assertIsNone(check.check_pass(sweep.plan(workload, 3, 0), self.items(workload)))

    def test_wrong_census_value_fails(self):
        items = self.items("census-growth")
        items[0]["value"] += 1
        self.assertIsNotNone(check.check_pass(sweep.plan("census-growth", 3, 0), items))

    def test_missing_value_fails(self):
        items = self.items("census-growth")
        del items[-1]["value"]
        self.assertIsNotNone(check.check_pass(sweep.plan("census-growth", 3, 0), items))
        self.assertIsNotNone(check.check_pass(sweep.plan("census-growth", 3, 0), items[:-1]))

    def test_sczech_trace_off_fails(self):
        items = self.items("sczech-growth")
        items[0]["trace_re"] += 1e-6
        self.assertIsNotNone(check.check_pass(sweep.plan("sczech-growth", 3, 0), items))


class BenchmarkFile(unittest.TestCase):
    def test_metric_names_match_the_benchmark(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, tracing.metric_units())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
