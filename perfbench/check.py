"""Output checks.  Each check returns None when the output is right and a
one-line reason when it is not; the caller counts an operation as failed
when any check gives a reason.

The checks never import the library.  CLI records are compared with the
golden file made at the baseline commit; the census and Sczech sweeps are
compared with closed formulas written out here independently.
"""

from __future__ import annotations

import csv
import io
import json
import re
from fractions import Fraction
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
BLOCKS = ("query", "field", "result")

# Sczech floats are compared by tolerance, so an exact-trace or matrix-free
# rewrite of the operator does not count as a failure.
TRACE_TOL, IMAG_TOL, DEFECT_TOL = 1e-8, 1e-9, 1e-9
SCZECH_FLOATS = ("trace_re", "trace_im", "involution_defect")

# Traces of the inverse-different variant at the baseline commit; they are
# the same for every class-number-one field and miss -(N^2+1) for N >= 3.
INVDIFF_TRACE = {2: -5, 3: -2, 4: -5}

# Class numbers of the fields the census sweep draws from.
CLASS_NUMBERS = {-2: 1, -5: 2, -6: 2, -7: 1, -10: 2, -11: 1, -13: 2, -14: 4,
                 -15: 2, -17: 4, -19: 1, -21: 4, -22: 2, -23: 3}

# verify labels print some floats in e-notation (involution defects, a
# periodicity defect); their digits are rounding noise, not the check.
_E_FLOAT = re.compile(r"-?\d+(?:\.\d+)?e[+-]\d+")


def load_cli_golden() -> dict[str, dict]:
    with open(GOLDEN / "cli.json") as fh:
        return json.load(fh)


def load_verify_golden() -> str:
    return (GOLDEN / "verify_pass.txt").read_text()


# -- CLI queries ---------------------------------------------------------------


def query_format(query: str) -> str:
    words = query.split()
    return words[words.index("--format") + 1] if "--format" in words else "json"


def normalize(stdout: str, fmt: str) -> list:
    """The query, field and result blocks of every record, in emitted order.

    json keeps the three blocks of each record; csv keeps the columns whose
    names start with one of the blocks; tex has no header, so it keeps each
    row without its last two cells (warnings and provenance).
    """
    lines = stdout.splitlines()
    if fmt == "json":
        recs = [json.loads(line) for line in lines if line]
        return [{b: rec[b] for b in BLOCKS if b in rec} for rec in recs]
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(stdout)))
        if not rows:
            return []
        header = rows[0]
        keep = [i for i, col in enumerate(header) if col.split(".")[0] in BLOCKS]
        return [{header[i]: row[i] for i in keep if i < len(row)} for row in rows[1:]]
    if fmt == "tex":
        rows = []
        for line in lines:
            if not line.endswith(r" \\"):
                raise ValueError(f"tex row without a row terminator: {line[:60]!r}")
            rows.append(line[:-3].split(" & ")[:-2])
        return rows
    raise ValueError(f"unknown format {fmt!r}")


def _sczech_result_matches(got: dict, want: dict) -> bool:
    rest = [k for k in set(got) | set(want) if k not in SCZECH_FLOATS]
    if any(got.get(k) != want.get(k) for k in rest):
        return False
    g = {k: float(got[k]) for k in SCZECH_FLOATS}
    w = {k: float(want[k]) for k in SCZECH_FLOATS}
    defect_ok = (g["involution_defect"] < DEFECT_TOL if w["involution_defect"] < DEFECT_TOL
                 else abs(g["involution_defect"] - w["involution_defect"]) < TRACE_TOL)
    return (abs(g["trace_re"] - w["trace_re"]) < TRACE_TOL
            and abs(g["trace_im"]) < IMAG_TOL and defect_ok)


def _records_match(got: list, want: list, fmt: str) -> bool:
    if fmt != "json" or len(got) != len(want):
        return got == want
    for g, w in zip(got, want):
        if w.get("result", {}).get("kind") == "sczech_trace":
            if {b: g.get(b) for b in ("query", "field")} != {b: w.get(b) for b in ("query", "field")}:
                return False
            if not _sczech_result_matches(g.get("result", {}), w["result"]):
                return False
        elif json.dumps(g, sort_keys=True) != json.dumps(w, sort_keys=True):
            return False
    return True


def check_query(query: str, golden: dict, code: int, stdout: str, stderr: str) -> str | None:
    """Exit code, then the query/field/result blocks against the golden record."""
    if "Traceback" in stderr:
        return f"uncaught exception: {stderr.strip().splitlines()[-1]}"
    if code != golden["exit"]:
        return f"exit {code}, expected {golden['exit']}"
    if golden["exit"] != 0:
        if stdout or not stderr.startswith("error: "):
            return "expected an input error on stderr and nothing on stdout"
        return None
    fmt = query_format(query)
    try:
        got = normalize(stdout, fmt)
    except (ValueError, IndexError) as exc:
        return f"unparsable {fmt} output: {exc}"
    if not got:
        return "no records"
    if not _records_match(got, golden["records"], fmt):
        return "records differ from the golden file"
    return None


# -- verify all ----------------------------------------------------------------


def pass_labels(text: str) -> set[str]:
    return {_E_FLOAT.sub("<e-float>", line) for line in text.splitlines()
            if line.startswith("PASS ")}


def check_verify(code: int, stdout: str, stderr: str, golden_text: str) -> str | None:
    """Exit 0, no FAIL line, every PASS label of the baseline present.

    New lines are allowed and DIAG text is not compared.
    """
    if "Traceback" in stderr:
        return f"uncaught exception: {stderr.strip().splitlines()[-1]}"
    if code != 0:
        return f"exit {code}, expected 0"
    fails = [line for line in stdout.splitlines() if line.startswith("FAIL ")]
    if fails:
        return f"{len(fails)} FAIL lines, first: {fails[0]}"
    missing = pass_labels(golden_text) - pass_labels(stdout)
    if missing:
        return f"{len(missing)} PASS labels missing, first: {sorted(missing)[0]}"
    return None


# -- sweeps ----------------------------------------------------------------------


def prime_power(N: int) -> tuple[int, int]:
    p = next(q for q in range(2, N + 1) if N % q == 0)
    n = 0
    while N % p == 0:
        N //= p
        n += 1
    if N != 1:
        raise ValueError("not a prime power")
    return p, n


def splitting(d: int, p: int) -> str:
    """How p behaves in Q(sqrt(d)), from the discriminant alone."""
    D = d if d % 4 == 1 else 4 * d
    if D % p == 0:
        return "ramified"
    if p == 2:
        return "split" if D % 8 == 1 else "inert"
    return "split" if pow(D, (p - 1) // 2, p) == 1 else "inert"


def _norms(d: int, p: int) -> list[int]:
    """Norms of the primes of O over p."""
    return {"split": [p, p], "inert": [p * p], "ramified": [p]}[splitting(d, p)]


def projective_line_size(d: int, N: int) -> int:
    p, _ = prime_power(N)
    size = Fraction(N * N)
    for q in _norms(d, p):
        size *= 1 + Fraction(1, q)
    return int(size)


def sl2_order(d: int, N: int) -> int:
    p, _ = prime_power(N)
    order = Fraction(N) ** 6
    for q in _norms(d, p):
        order *= 1 - Fraction(1, q * q)
    return int(order)


def sigma_census(N: int) -> int:
    p, n = prime_power(N)
    return p ** (2 * n) - p ** (2 * n - 2)


def cusp_count(d: int, N: int) -> int:
    return CLASS_NUMBERS[d] * sl2_order(d, N) // (N * N)


CENSUS_FORMULA = {
    "projective_line": projective_line_size,
    "enumerate_sl2": sl2_order,
    "sl2_order": sl2_order,
    "coset_sigma": lambda d, N: sigma_census(N),
    "cusp_count": cusp_count,
}


def check_item(task: dict, item: dict) -> str | None:
    """One sweep result against its task and the closed formula."""
    try:
        if any(item[k] != v for k, v in task.items()):
            return f"item {item} does not answer task {task}"
        kind, d, N = task["kind"], task["d"], task["N"]
        if kind == "sczech":
            ok = (abs(item["trace_re"] + (N * N + 1)) < TRACE_TOL
                  and abs(item["trace_im"]) < IMAG_TOL and item["defect"] < DEFECT_TOL)
        elif kind == "sczech_invdiff":
            ok = abs(item["trace_re"] - INVDIFF_TRACE[N]) < TRACE_TOL and abs(item["trace_im"]) < IMAG_TOL
        elif kind == "matrix_dump":
            ok = item["lines"] == (N**4 - 1) ** 2 and abs(item["diag_sum"] + (N * N + 1)) < TRACE_TOL
        elif kind == "coset_tau":
            ok = isinstance(item["value"], int)  # an open question: recorded, not checked
        else:
            ok = item["value"] == CENSUS_FORMULA[kind](d, N)
    except (KeyError, TypeError) as exc:
        return f"missing or malformed value in {item}: {exc!r}"
    return None if ok else f"wrong value for {task}: {item}"


def check_pass(tasks: list[dict], items: list[dict]) -> str | None:
    if len(items) != len(tasks):
        return f"{len(items)} results for {len(tasks)} tasks"
    for task, item in zip(tasks, items):
        reason = check_item(task, item)
        if reason:
            return reason
    return None
