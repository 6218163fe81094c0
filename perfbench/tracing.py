"""Per-layer tracing from outside the library, and the traced-run child.

`Tracer.install` replaces each function listed in LAYERS by a wrapper at
every place the name is bound: the defining module, every module that did
`from .x import f`, the package namespace and module-level dicts (the
verify suite table).  Each call becomes a span (name, start, end, parent
span, operation id) kept in memory; spans are written out when the child
exits.  A span's self time is its duration minus the durations of its
child spans.

Run as a script, this file is the traced-run child of one workload:

    PYTHONPATH=src python3 perfbench/tracing.py --workload verify-all \
        --seed 1 --seconds 20 --spans perfbench/out/spans.tsv.gz --tmp perfbench/out/tmp

After one untraced warm-up operation it runs each operation (a CLI deck
in-process through `cli.main`, one `verify all` through `cli.main`, or
one sweep pass) once untraced and once traced, checks every output, and
prints one JSON line with the per-operation counts and self times.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import importlib
import io
import json
import os
import sys
import time
import tracemalloc
from array import array
from collections import defaultdict

PACKAGE = "bianchi_lefschetz"
SUITES = ("symbols", "classgroup", "cusps", "fixedpoints", "sczech", "integrality", "anchors")
LAYERS = {
    "quadfield": ("make_field", "reduced_forms", "class_number_from_discriminant"),
    "exactmath": ("legendre", "kronecker", "hilbert2", "factorize", "is_prime", "sym_power_trace"),
    "oracles": ("hilbert2_norm_search", "ideal_class_count", "min_poly_splitting"),
    "finitering": ("projective_line", "enumerate_sl2", "sl2_order", "fixed_coset_count",
                   "cusp_count_bruteforce"),
    "eisenstein": ("sczech_operator", "SczechOperator.trace", "SczechOperator.involution_defect",
                   "write_matrix_dump"),
    "lefschetz": ("lefschetz_level_one", "lefschetz_sigma_principal", "adjudicate_brackets"),
    "bounds": ("cusp_lower_bound", "gl2_trace_sigma1"),
    "verify": tuple(f"suite_{s}" for s in SUITES),
    "cli": ("main", "emit"),
}
# Censuses whose work is |R|^2 pairs of ring elements, R = O/(N).
CENSUSES = ("finitering.projective_line", "finitering.enumerate_sl2",
            "finitering.sl2_order", "finitering.fixed_coset_count")
EXTRA_METRICS = {
    "finitering.pairs_examined": "count",
    "eisenstein.sczech_operator.peak_alloc_mb": "MB",
    "eisenstein.write_matrix_dump.bytes": "bytes",
    "cli.emit.bytes": "bytes",
}
IMPORT_METRICS = ("import.python_ms", "import.numpy_ms", "import.package_ms")


def span_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


def metric_units() -> dict[str, str]:
    """Every per-layer metric of a traced run, with its unit."""
    units = {name: "ms" for name in IMPORT_METRICS}
    for name in span_names():
        if not name.startswith("verify."):
            units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    units.update(EXTRA_METRICS)
    units["repo.src_lines"] = "lines"
    units["trace.overhead_ratio"] = "ratio"
    return units


class Tracer:
    def __init__(self) -> None:
        self.names = span_names()
        self.span_id = array("q")
        self.parent = array("q")
        self.name = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.extras: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.stack: list[int] = []
        self.next_id = 0
        self.op_id = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self.names.index(name)
        tracer = self
        hook = _HOOKS.get(name)
        census = name in CENSUSES

        def wrapper(*args, **kwargs):
            state = hook.before(args, kwargs) if hook else None
            sid = tracer.next_id
            tracer.next_id += 1
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer.stack.pop()
                tracer.span_id.append(sid)
                tracer.parent.append(parent)
                tracer.name.append(nid)
                tracer.op.append(tracer.op_id)
                tracer.start.append(t0)
                tracer.end.append(t1)
                if hook:
                    hook.after(tracer.extras[tracer.op_id], args, kwargs, state)
                if census:
                    tracer.extras[tracer.op_id]["finitering.pairs_examined"] += args[0].N ** 4

        return wrapper

    def install(self) -> None:
        """Wrap every listed function at every binding site in the package."""
        wrappers: dict[int, tuple[object, object]] = {}
        for mod_name, fns in LAYERS.items():
            mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
            for fn_name in fns:
                if "." in fn_name:  # a method: patch it on its class
                    cls_name, meth = fn_name.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    self._patch(cls, meth, self._wrap(f"{mod_name}.{fn_name}", orig))
                else:
                    orig = getattr(mod, fn_name)
                    wrappers[id(orig)] = (orig, self._wrap(f"{mod_name}.{fn_name}", orig))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit and hit[0] is val:
                    self._patch(mod, attr, hit[1])
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        hit = wrappers.get(id(item))
                        if hit and hit[0] is item:
                            self._patch(val, key, hit[1])

    def _patch(self, owner, key, new) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = new
        else:
            self._patches.append((owner, key, getattr(owner, key)))
            setattr(owner, key, new)

    def uninstall(self) -> None:
        for owner, key, old in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = old
            else:
                setattr(owner, key, old)
        self._patches.clear()

    # -- results -------------------------------------------------------------------

    def per_op(self, first: int = 0) -> dict[int, dict[str, float]]:
        """Calls and self time (ms) per span name, and the extras, per operation,
        over the spans from index `first` on."""
        child = defaultdict(float)
        for i in range(first, len(self.span_id)):
            if self.parent[i] >= 0:
                child[self.parent[i]] += self.end[i] - self.start[i]
        ops: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i in range(first, len(self.span_id)):
            name, m = self.names[self.name[i]], ops[self.op[i]]
            m[f"{name}.calls"] += 1
            m[f"{name}.self_ms"] += (self.end[i] - self.start[i] - child[self.span_id[i]]) * 1e3
        for op, extras in self.extras.items():
            ops[op].update(extras)
        return ops

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("op\tspan\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.span_id)):
                fh.write(f"{self.op[i]}\t{self.span_id[i]}\t{self.parent[i]}\t"
                         f"{self.names[self.name[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n")


class _EmitBytes:
    """Characters `emit` writes to its stream; the records are ASCII."""

    @staticmethod
    def _stream(args, kwargs):
        out = args[2] if len(args) > 2 else kwargs.get("out")
        return out or sys.stdout

    def before(self, args, kwargs):
        return self._stream(args, kwargs).tell()

    def after(self, extras, args, kwargs, state):
        extras["cli.emit.bytes"] += self._stream(args, kwargs).tell() - state


class _PeakAlloc:
    """tracemalloc peak over one operator build."""

    def before(self, args, kwargs):
        tracemalloc.start()
        tracemalloc.reset_peak()

    def after(self, extras, args, kwargs, state):
        peak = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
        key = "eisenstein.sczech_operator.peak_alloc_mb"
        extras[key] = max(extras[key], peak)


class _DumpBytes:
    def before(self, args, kwargs):
        return None

    def after(self, extras, args, kwargs, state):
        path = args[1] if len(args) > 1 else kwargs["path"]
        extras["eisenstein.write_matrix_dump.bytes"] += os.path.getsize(path)


_HOOKS = {
    "cli.emit": _EmitBytes(),
    "eisenstein.sczech_operator": _PeakAlloc(),
    "eisenstein.write_matrix_dump": _DumpBytes(),
}


# -- the traced-run child ------------------------------------------------------------


def _captured(fn, *args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fn(*args)
    return code, out.getvalue(), err.getvalue()


def _operations(workload: str, seed: int, tmp: str):
    """Yield callables, one per operation; each returns (seconds, failure or None)."""
    import check
    import queries
    import sweep
    from bianchi_lefschetz import cli

    if workload == "cli-queries":
        golden = check.load_cli_golden()
        for deck in queries.decks(seed):
            def op(deck=deck):
                total, reason = 0.0, None
                for q in deck:
                    t0 = time.perf_counter()
                    code, out, err = _captured(cli.main, q.split())
                    total += time.perf_counter() - t0
                    reason = reason or check.check_query(q, golden[q], code, out, err)
                return total, reason
            yield op
    elif workload == "verify-all":
        golden = check.load_verify_golden()
        while True:
            def op():
                t0 = time.perf_counter()
                code, out, err = _captured(cli.main, ["verify", "all"])
                return time.perf_counter() - t0, check.check_verify(code, out, err, golden)
            yield op
    else:
        i = 0
        while True:
            def op(i=i):
                seconds, items = sweep.run_pass(workload, seed, i, tmp)
                return seconds, check.check_pass(sweep.plan(workload, seed, i), items)
            yield op
            i += 1


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--spans", required=True)
    ap.add_argument("--tmp", required=True)
    args = ap.parse_args()

    tracer = Tracer()
    untraced, traced, failures = [], [], []

    def untraced_pass(op) -> None:
        seconds, reason = op()
        untraced.append(seconds)
        failures.append(reason)

    def traced_pass(op) -> None:
        tracer.install()
        tracer.op_id += 1
        first = len(tracer.span_id)
        seconds, reason = op()
        tracer.uninstall()
        self_ms = sum(v for k, v in tracer.per_op(first)[tracer.op_id].items()
                      if k.endswith(".self_ms"))
        if not reason and self_ms > seconds * 1e3:
            reason = f"self times sum to {self_ms:.3f} ms, more than the {seconds * 1e3:.3f} ms traced"
        traced.append(seconds)
        failures.append(reason)

    operations = _operations(args.workload, args.seed, args.tmp)
    failures.append(next(operations)()[1])  # warm-up: first-call costs stay out of the ratio
    began = time.perf_counter()
    for op in operations:
        if traced and time.perf_counter() - began >= args.seconds:
            break
        # Alternate which pass goes first, so a drift in machine speed
        # does not bias the overhead ratio.
        passes = (untraced_pass, traced_pass) if len(traced) % 2 == 0 else (traced_pass, untraced_pass)
        for run_pass in passes:
            run_pass(op)

    ops = tracer.per_op()
    tracer.write_spans(args.spans)
    print(json.dumps({
        "attempted": len(failures),
        "failures": [f for f in failures if f],
        "untraced_s": untraced,
        "traced_s": traced,
        "per_op": [dict(ops.get(i, {})) for i in range(len(traced))],
    }))


if __name__ == "__main__":
    main()
