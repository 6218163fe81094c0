"""Command-line surface.

Every query is answered with one OutputRecord that echoes the full query
(enough to replay it bit-identically), a field block, a result block with
all numbers as decimal strings, never-dropped warnings, and provenance
naming the formula behind each ingredient.  Formats: json (one record per
line), csv (flat columns, warnings pipe-joined) and tex (tabular body
rows only).

Exit codes: 0 success, 1 input error, 2 hard conformance failure: a FAIL
line of `verify` (diagnostics alone never fail a run) or a query whose
internal check raised (`table` emits an error record for it instead).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction
from itertools import product

from .bounds import BoundReport, cusp_lower_bound, gl2_trace_sigma1
from .eisenstein import (CHARACTER_VARIANTS, DEFAULT_VARIANT, sczech_operator,
                         trace_h2_eis, trace_sigma_h1_eis, write_matrix_dump)
from .exactmath import ConformanceError, InputError
from .lefschetz import (BRACKET_VARIANTS, DEFAULT_BRACKET, lefschetz_level_one,
                        lefschetz_sigma_principal, make_level)
from .quadfield import QuadField, make_field


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); route to exit 1 instead
        raise InputError(message)


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _field_block(field: QuadField) -> dict:
    return {
        "d": str(field.d),
        "D": str(field.D),
        "h": str(field.h),
        "t": str(field.t),
        "D2": str(field.D2),
        "ramified_primes": [str(p) for p in field.ramified_primes],
    }


def _record(query: dict, result: dict, field: QuadField | None = None,
            warnings: list[str] | None = None, provenance: dict | None = None) -> dict:
    rec = {
        "query": query,
        "result": result,
        "warnings": warnings or [],
        "provenance": provenance or {},
    }
    if field is not None:
        rec["field"] = _field_block(field)
    return rec


def _flatten(rec: dict) -> dict:
    flat: dict[str, str] = {}
    for section in ("query", "field", "result"):
        for key, val in rec.get(section, {}).items():
            flat[f"{section}.{key}"] = ",".join(val) if isinstance(val, list) else str(val)
    flat["warnings"] = "|".join(rec["warnings"])
    flat["provenance"] = "|".join(f"{k}={v}" for k, v in sorted(rec["provenance"].items()))
    return flat


def emit(records: list[dict], fmt: str, out=None) -> None:
    out = out or sys.stdout
    if fmt == "json":
        for rec in records:
            out.write(json.dumps(rec, sort_keys=True) + "\n")
        return
    flats = [_flatten(r) for r in records]
    columns: list[str] = []
    for flat in flats:
        for key in flat:
            if key not in columns:
                columns.append(key)
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([flat.get(c, "") for c in columns] for flat in flats)
        return
    if fmt == "tex":
        for flat in flats:
            out.write(" & ".join(flat.get(c, "") for c in columns) + r" \\" + "\n")
        return
    raise InputError(f"unknown format {fmt!r}")


def _query(args: argparse.Namespace) -> dict:
    """The query echo: the command words, then every option that has a
    value (given or defaulted) in the parser's order, keyed by its flag
    name; --format is left out.  argv_of_record is its inverse."""
    opts = vars(args)
    query = {"command": " ".join(opts[k] for k in ("command", "subcommand") if k in opts)}
    for dest, val in opts.items():
        if val is not None and dest not in ("command", "subcommand", "func", "format"):
            query[dest.replace("_", "-")] = ([str(x) for x in val] if isinstance(val, list)
                                             else str(val))
    return query


def argv_of_record(rec: dict) -> list[str]:
    """Reconstruct the command line from a record's query echo."""
    query = rec["query"]
    argv = query["command"].split()
    for key in sorted(query):
        if key == "command":
            continue
        val = query[key]
        if isinstance(val, list):
            argv.append(f"--{key}")
            argv.extend(val)
        else:
            argv.extend([f"--{key}", val])
    return argv


def _bound_record(d: int, N: int, k: int, involution: str, query: dict) -> dict:
    field = make_field(d)
    rep: BoundReport = cusp_lower_bound(field, N, k, involution)
    result = {
        "kind": "cusp_lower_bound",
        "bound": _fmt(rep.bound),
        "mode": rep.mode,
        "L": _fmt(rep.L),
        "tr0": _fmt(rep.tr0),
        "tr2_eis": _fmt(rep.tr2_eis),
    }
    if rep.tr1_eis is not None:
        result["tr1_eis"] = _fmt(rep.tr1_eis)
    if rep.tr1_window is not None:
        result["tr1_window"] = _fmt(rep.tr1_window)
    return _record(query, result, field, rep.warnings, rep.provenance)


def _cmd_field(args) -> list[dict]:
    field = make_field(args.d)
    omega = ("omega^2 = omega + (d-1)/4" if field.d % 4 == 1 else "omega^2 = d")
    result = {"kind": "field-invariants", "omega_rule": omega}
    return [_record(_query(args), result, field,
                    provenance={"h": "reduced binary quadratic form enumeration",
                                "D": "standard discriminant of a quadratic field"})]


def _cmd_lefschetz_principal(args) -> list[dict]:
    field = make_field(args.d)
    level = make_level(field, args.N)
    L = lefschetz_sigma_principal(field, level, args.k)
    warnings = []
    if level.ab_warning:
        warnings.append("A or B alone is fractional; only A+2B enters the formula")
    if len(level.factors) > 1:
        warnings.append("composite level: outside the validated prime-power domain")
    result = {"kind": "lefschetz_principal", "L": _fmt(L),
              "A": _fmt(level.A), "B": _fmt(level.B),
              "A_plus_2B": _fmt(level.a_plus_2b)}
    return [_record(_query(args), result, field, warnings,
                    {"L": "principal-level Lefschetz number (surface-count table)"})]


def _cmd_lefschetz_level_one(args) -> list[dict]:
    field = make_field(args.d)
    res = lefschetz_level_one(field, args.involution, args.k, args.bracket)
    warnings = []
    if not res.integral:
        warnings.append("non-integral Lefschetz number: bracket reading fails here")
    if args.k % 2 == 1:
        warnings.append("odd weight: bracket reading unadjudicated")
    result = {"kind": "lefschetz_level_one", "L": _fmt(res.value),
              "integral": _fmt(res.integral)}
    return [_record(_query(args), result, field, warnings,
                    {"L": "level-one four-term Lefschetz formula"})]


def _cmd_eisenstein_h2(args) -> list[dict]:
    field = make_field(args.d)
    val = trace_h2_eis(field, args.N, args.k, args.involution)
    warnings = []
    if args.involution == "tau":
        warnings.append("closed formula; the exhaustive coset census can disagree "
                        "(see verify fixedpoints)")
    result = {"kind": "eisenstein_h2_trace", "trace": _fmt(val)}
    return [_record(_query(args), result, field, warnings,
                    {"trace": "degree-2 Eisenstein trace (unramified level)"})]


def _cmd_eisenstein_h1(args) -> list[dict]:
    field = make_field(args.d)
    val = trace_sigma_h1_eis(field, args.p, args.n)
    result = {"kind": "eisenstein_h1_trace", "trace": _fmt(val)}
    return [_record(_query(args), result, field, provenance={
        "trace": "degree-1 Eisenstein trace via the cocycle span "
                 "(inert prime power, class number one)"})]


def _cmd_sczech(args) -> list[dict]:
    field = make_field(args.d)
    op = sczech_operator(field, args.N, args.variant)
    tr = op.trace()
    if args.emit_matrix:
        write_matrix_dump(op, args.emit_matrix)
    result = {
        "kind": "sczech_trace",
        "trace_re": _fmt(tr.real),
        "trace_im": _fmt(tr.imag),
        "expected": _fmt(-(args.N**2 + 1)),
        "involution_defect": _fmt(op.involution_defect()),
        "size": _fmt(args.N**4 - 1),
    }
    return [_record(_query(args), result, field, provenance={
        "trace_re": "conjugation operator on the span of Sczech cocycles"})]


def _cmd_bound(args) -> list[dict]:
    return [_bound_record(args.d, args.N, args.k, args.involution, _query(args))]


def _cmd_gl2(args) -> list[dict]:
    field = make_field(args.d)
    tr = gl2_trace_sigma1(field, args.k, args.bracket)
    warnings = []
    result = {"kind": "gl2_trace", "trace": _fmt(tr.value),
              "integral": _fmt(tr.integral)}
    if tr.integral:
        result["bound"] = _fmt(abs(int(tr.value)))
    else:
        warnings.append("non-integral GL2 trace: bracket adjudication failure")
    if tr.unadjudicated:
        warnings.append("odd weight: bracket reading unadjudicated")
    return [_record(_query(args), result, field, warnings,
                    {"trace": "GL2 degree-1 trace from the two level-one "
                              "Lefschetz numbers"})]


def _cmd_table(args) -> list[dict]:
    records = []
    query = {**_query(args), "format": args.format}
    for d, N, k in product(args.d_list, args.N_list, args.k_list):
        try:
            rec = _bound_record(d, N, k, "sigma", query)
        except (InputError, ConformanceError) as exc:
            rec = _record(query, {"kind": "error", "d": str(d), "N": str(N),
                                  "k": str(k), "message": str(exc)})
        else:
            rec["result"].update(d=str(d), N=str(N), k=str(k))
        records.append(rec)
    return records


def _cmd_verify(args) -> int:
    from .verify import exit_code, run_suites  # the oracles load for verify only

    results = run_suites([args.suite])
    for res in results:
        for status, label in res.lines:
            print(f"{status} {res.name}: {label}")
    code = exit_code(results)
    total = sum(len(r.lines) for r in results)
    fails = sum(r.failures for r in results)
    print(f"verify: {total} checks, {fails} hard failures, exit {code}")
    return code


def build_parser() -> _Parser:
    parser = _Parser(prog="bianchi-lefschetz", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_fmt(p):
        p.add_argument("--format", choices=("json", "csv", "tex"), default="json")

    p = sub.add_parser("field", help="field invariants")
    p.add_argument("--d", type=int, required=True)
    add_fmt(p)
    p.set_defaults(func=_cmd_field)

    lef = sub.add_parser("lefschetz", help="Lefschetz numbers")
    lef_sub = lef.add_subparsers(dest="subcommand", required=True)
    p = lef_sub.add_parser("principal")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--involution", choices=("sigma",), default="sigma")
    add_fmt(p)
    p.set_defaults(func=_cmd_lefschetz_principal)
    p = lef_sub.add_parser("level-one")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--involution", choices=("sigma", "tau"), required=True)
    p.add_argument("--bracket", choices=BRACKET_VARIANTS, default=DEFAULT_BRACKET)
    add_fmt(p)
    p.set_defaults(func=_cmd_lefschetz_level_one)

    eis = sub.add_parser("eisenstein", help="Eisenstein traces")
    eis_sub = eis.add_subparsers(dest="subcommand", required=True)
    p = eis_sub.add_parser("h2")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--involution", choices=("sigma", "tau"), required=True)
    add_fmt(p)
    p.set_defaults(func=_cmd_eisenstein_h2)
    p = eis_sub.add_parser("h1")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    add_fmt(p)
    p.set_defaults(func=_cmd_eisenstein_h1)

    p = sub.add_parser("sczech", help="conjugation operator on the cocycle span")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--variant", choices=CHARACTER_VARIANTS, default=DEFAULT_VARIANT)
    p.add_argument("--emit-matrix", dest="emit_matrix", metavar="PATH")
    add_fmt(p)
    p.set_defaults(func=_cmd_sczech)

    p = sub.add_parser("bound", help="cuspidal lower bound")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--involution", choices=("sigma",), default="sigma")
    add_fmt(p)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("gl2", help="GL2 degree-1 trace and bound")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--bracket", choices=BRACKET_VARIANTS, default=DEFAULT_BRACKET)
    add_fmt(p)
    p.set_defaults(func=_cmd_gl2)

    p = sub.add_parser("table", help="bound table over a grid")
    p.add_argument("--d-list", dest="d_list", type=int, nargs="+", required=True)
    p.add_argument("--N-list", dest="N_list", type=int, nargs="+", required=True)
    p.add_argument("--k-list", dest="k_list", type=int, nargs="+", required=True)
    add_fmt(p)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("verify", help="run oracle verification suites")
    p.add_argument("suite", nargs="?", default="all")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "verify":
            return _cmd_verify(args)
        records = args.func(args)
        emit(records, args.format)
        return 0
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConformanceError as exc:
        print(f"conformance error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
