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
import sys
from itertools import product

from .bounds import cusp_lower_bound, gl2_trace_sigma1
from .eisenstein import (CHARACTER_VARIANTS, DEFAULT_VARIANT, sczech_operator,
                         trace_h2_eis, trace_sigma_h1_eis, write_matrix_dump)
from .exactmath import ConformanceError, InputError, brief_text
from .lefschetz import (BRACKET_VARIANTS, DEFAULT_BRACKET, lefschetz_level_one,
                        lefschetz_sigma_principal, make_level)
from .quadfield import QuadField, make_field


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); route to exit 1 instead
        raise InputError(message)

    def _check_value(self, action, value):  # argparse echoes a long choice in full
        if action.choices is not None and value not in action.choices and len(value) > 40:
            raise argparse.ArgumentError(action, f"invalid choice: {brief_text(value)} "
                                         f"(choose from {', '.join(map(repr, action.choices))})")
        super()._check_value(action, value)


def _fmt(key: str, x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    try:
        return str(x)
    except ValueError:   # an integer past the interpreter's limit on decimal digits
        raise InputError(f"result {key} has more than {sys.get_int_max_str_digits()} "
                         "digits, too many to print") from None


def _record(query: dict, field: QuadField | None, result: dict,
            warnings: list[str] | None = None, provenance: dict | None = None) -> dict:
    """The one record; result values are formatted here and a None is dropped."""
    result = {key: _fmt(key, val) for key, val in result.items() if val is not None}
    rec = {"query": query, "result": result, "warnings": warnings or [],
           "provenance": provenance or {}}
    if field is not None:
        rec["field"] = {"d": str(field.d), "D": str(field.D), "h": str(field.h),
                        "t": str(field.t), "D2": str(field.D2),
                        "ramified_primes": [str(p) for p in field.ramified_primes]}
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
        import json   # the formats load their modules only when they write

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
        import csv

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


# Each query handler takes the parsed arguments and the field of --d and
# returns (result, warnings, provenance); main builds the one record.


def _cmd_field(args, field):
    omega = ("omega^2 = omega + (d-1)/4" if field.d % 4 == 1 else "omega^2 = d")
    return ({"kind": "field-invariants", "omega_rule": omega}, [],
            {"h": "reduced binary quadratic form enumeration",
             "D": "standard discriminant of a quadratic field"})


def _cmd_lefschetz_principal(args, field):
    level = make_level(field, args.N)
    L = lefschetz_sigma_principal(field, level, args.k)
    warnings = []
    if level.ab_warning:
        warnings.append("A or B alone is fractional; only A+2B enters the formula")
    if len(level.factors) > 1:
        warnings.append("composite level: outside the validated prime-power domain")
    result = {"kind": "lefschetz_principal", "L": L, "A": level.A, "B": level.B,
              "A_plus_2B": level.a_plus_2b}
    return result, warnings, {"L": "principal-level Lefschetz number (surface-count table)"}


def _cmd_lefschetz_level_one(args, field):
    L = lefschetz_level_one(field, args.involution, args.k, args.bracket)
    integral = L.denominator == 1
    warnings = []
    if not integral:
        warnings.append("non-integral Lefschetz number: bracket reading fails here")
    if args.k % 2 == 1:
        warnings.append("odd weight: bracket reading unadjudicated")
    result = {"kind": "lefschetz_level_one", "L": L, "integral": integral}
    return result, warnings, {"L": "level-one four-term Lefschetz formula"}


def _cmd_eisenstein_h2(args, field):
    val = trace_h2_eis(field, args.N, args.k, args.involution)
    warnings = []
    if args.involution == "tau":
        warnings.append("closed formula; the exhaustive coset census can disagree "
                        "(see verify fixedpoints)")
    return ({"kind": "eisenstein_h2_trace", "trace": val}, warnings,
            {"trace": "degree-2 Eisenstein trace (unramified level)"})


def _cmd_eisenstein_h1(args, field):
    val = trace_sigma_h1_eis(field, args.p, args.n)
    return ({"kind": "eisenstein_h1_trace", "trace": val}, [],
            {"trace": "degree-1 Eisenstein trace via the cocycle span "
                      "(inert prime power, class number one)"})


def _cmd_sczech(args, field):
    op = sczech_operator(field, args.N, args.variant)
    tr = op.trace()
    if args.emit_matrix:
        write_matrix_dump(op, args.emit_matrix)
    result = {"kind": "sczech_trace", "trace_re": tr.real, "trace_im": tr.imag,
              "expected": -(args.N**2 + 1), "involution_defect": op.involution_defect(),
              "size": args.N**4 - 1}
    return result, [], {"trace_re": "conjugation operator on the span of Sczech cocycles"}


def _cmd_bound(args, field):
    rep = cusp_lower_bound(field, args.N, args.k)   # --involution admits sigma only
    result = {"kind": "cusp_lower_bound", "bound": rep.bound, "mode": rep.mode, "L": rep.L,
              "tr0": rep.tr0, "tr2_eis": rep.tr2_eis, "tr1_eis": rep.tr1_eis,
              "tr1_window": rep.tr1_window}
    return result, rep.warnings, rep.provenance


def _cmd_gl2(args, field):
    tr = gl2_trace_sigma1(field, args.k, args.bracket)
    integral = tr.denominator == 1
    warnings = []
    result = {"kind": "gl2_trace", "trace": tr, "integral": integral,
              "bound": abs(tr.numerator) if integral else None}
    if not integral:
        warnings.append("non-integral GL2 trace: bracket adjudication failure")
    if args.k % 2 == 1:
        warnings.append("odd weight: bracket reading unadjudicated")
    return result, warnings, {"trace": "GL2 degree-1 trace from the two level-one "
                                       "Lefschetz numbers"}


def _cmd_table(args) -> list[dict]:
    """One `bound` record per grid point, σ only; a point whose input or
    internal check fails becomes an error record and the grid goes on."""
    records = []
    query = {**_query(args), "format": args.format}
    for d, N, k in product(args.d_list, args.N_list, args.k_list):
        try:
            field = make_field(d)
            result, warnings, provenance = _cmd_bound(argparse.Namespace(N=N, k=k), field)
            result.update(d=d, N=N, k=k)
            rec = _record(query, field, result, warnings, provenance)
        except (InputError, ConformanceError) as exc:
            rec = _record(query, None, {"kind": "error", "d": d, "N": N, "k": k,
                                        "message": exc})
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


def _int(text: str) -> int:
    """int(text), refused in argparse's words, but a value past 40
    characters is named by its length, as `brief` names a long number."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {brief_text(text)}") from None


_INT = {"type": _int, "required": True}
_INTS = {"type": _int, "nargs": "+", "required": True}
# Every leaf option, by flag name; "sigma" is the σ-only --involution.
_OPTIONS = {
    "d": _INT, "N": _INT, "k": _INT, "p": _INT, "n": _INT,
    "involution": {"choices": ("sigma", "tau"), "required": True},
    "sigma": {"choices": ("sigma",), "default": "sigma"},
    "bracket": {"choices": BRACKET_VARIANTS, "default": DEFAULT_BRACKET},
    "variant": {"choices": CHARACTER_VARIANTS, "default": DEFAULT_VARIANT},
    "emit-matrix": {"metavar": "PATH"},
    "d-list": _INTS, "N-list": _INTS, "k-list": _INTS,
}
# A leaf: its command words, its handler and its options in query-echo
# order; each also takes --format.
_LEAVES = (
    ("field", _cmd_field, ("d",)),
    ("lefschetz principal", _cmd_lefschetz_principal, ("d", "N", "k", "sigma")),
    ("lefschetz level-one", _cmd_lefschetz_level_one, ("d", "k", "involution", "bracket")),
    ("eisenstein h2", _cmd_eisenstein_h2, ("d", "N", "k", "involution")),
    ("eisenstein h1", _cmd_eisenstein_h1, ("d", "p", "n")),
    ("sczech", _cmd_sczech, ("d", "N", "variant", "emit-matrix")),
    ("bound", _cmd_bound, ("d", "N", "k", "sigma")),
    ("gl2", _cmd_gl2, ("d", "k", "bracket")),
    ("table", _cmd_table, ("d-list", "N-list", "k-list")),
)
_HELP = {
    "field": "field invariants",
    "lefschetz": "Lefschetz numbers",
    "eisenstein": "Eisenstein traces",
    "sczech": "conjugation operator on the cocycle span",
    "bound": "cuspidal lower bound",
    "gl2": "GL2 degree-1 trace and bound",
    "table": "bound table over a grid",
    "verify": "run oracle verification suites",
}


def build_parser() -> _Parser:
    parser = _Parser(prog="bianchi-lefschetz", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for words, func, options in _LEAVES:
        top, *leaf = words.split()
        if not leaf:
            p = sub.add_parser(top, help=_HELP[top])
        else:
            if top not in groups:
                groups[top] = sub.add_parser(top, help=_HELP[top]).add_subparsers(
                    dest="subcommand", required=True)
            p = groups[top].add_parser(leaf[0])
        for name in options:
            p.add_argument("--involution" if name == "sigma" else f"--{name}",
                           **_OPTIONS[name])
        p.add_argument("--format", choices=("json", "csv", "tex"), default="json")
        p.set_defaults(func=func)
    sub.add_parser("verify", help=_HELP["verify"]).add_argument(
        "suite", nargs="?", default="all")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args, extras = parser.parse_known_args(argv)
        if extras:      # named as parse_args would, but a long one by its length
            raise InputError("unrecognized arguments: "
                             + " ".join(a if len(a) <= 40 else brief_text(a) for a in extras))
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "table":   # a grid: one field and one record per point
            records = args.func(args)
        else:
            field = make_field(args.d)
            records = [_record(_query(args), field, *args.func(args, field))]
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
