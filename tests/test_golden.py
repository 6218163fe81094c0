"""The CLI against the benchmark's golden outputs, in process.

Every query of perfbench/golden/cli.json is judged by perfbench/check.py
(exit code, then the query, field and result blocks, CSV and TeX column
order included), `verify all` must keep every baseline PASS label, and
every JSON record replays byte-identically through argv_of_record.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from bianchi_lefschetz.cli import argv_of_record, main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import check  # noqa: E402

GOLDEN = check.load_cli_golden()


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def outputs():
    return {q: run(q.split()) for q in GOLDEN}


def test_queries_match_golden(outputs):
    failures = {q: check.check_query(q, GOLDEN[q], *outputs[q]) for q in GOLDEN}
    assert not {q: r for q, r in failures.items() if r}


def test_verify_all_keeps_every_pass_label():
    assert check.check_verify(*run(["verify", "all"]), check.load_verify_golden()) is None


def test_json_records_replay_byte_identically(outputs):
    replays, records = {}, 0
    for q, (code, out, _) in outputs.items():
        if code != 0 or check.query_format(q) != "json":
            continue
        for line in out.splitlines():
            argv = tuple(argv_of_record(json.loads(line)))
            if argv not in replays:
                replays[argv] = run(argv)
            assert replays[argv] == (0, out, ""), (q, argv)
            records += 1
    assert records == sum(len(GOLDEN[q]["records"]) for q in GOLDEN
                          if GOLDEN[q]["exit"] == 0 and check.query_format(q) == "json")
