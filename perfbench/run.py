"""Benchmark of the bianchi_lefschetz library and CLI.

    python3 perfbench/run.py --workload cli-queries --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a checkout; it builds nothing and reads the
library from the checkout's `src/`.  Workloads (see README.md for why each
exists):

  cli-queries    seeded decks of `python -m bianchi_lefschetz ...` processes
  verify-all     one `python -m bianchi_lefschetz verify all` process per operation
  sczech-growth  one child per pass of the Sczech-operator sweep, N = 2..7
  census-growth  one child per pass of the finite-ring census sweep

With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced in-process run.  Every operation's output is
checked.  The last line of stdout is one JSON object; a fuller record,
with the environment, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import queries
import sweep
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("cli-queries", "verify-all", "sczech-growth", "census-growth")
END_TO_END = {"setup_s": "s", "batch_s": "s", "query_p50_ms": "ms", "peak_rss_mb": "MB"}
SETUP_RUNS = 5          # timed set-ups per run, after one untimed warm-up
IMPORTTIME_RUNS = 3
BLAS_THREADS = 1        # one client on a shared machine; never above nproc
CHILD_TIMEOUT = 150
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
INFO_CODE = """
import json, platform, numpy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas.get('name')} {blas.get('version')}"
except Exception as exc:
    blas = f"unknown ({exc})"
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__, "blas": blas}))
"""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # A planted cache file can change a published bound, so no child sees one.
    env.pop("BIANCHI_LEFSCHETZ_CACHE", None)
    # Set-up is timed with bytecode caches in place.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    for var in BLAS_VARS:
        env[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    return env


def spawn(argv: list[str], env: dict[str, str]) -> tuple[float, subprocess.CompletedProcess]:
    """Run one child to completion; returns its wall time from spawn to exit."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT)
    return time.perf_counter() - t0, proc


def environment(env: dict[str, str]) -> dict:
    _, proc = spawn(["-c", INFO_CODE], env)
    info = json.loads(proc.stdout.splitlines()[-1])
    info.update(
        blas_threads=int(env[BLAS_VARS[0]]),
        nproc=len(os.sched_getaffinity(0)),
        mem_total_mb=round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20),
        machine=platform.machine(),
    )
    return info


def setup_seconds(workload: str, seed: int, env: dict[str, str]) -> list[float]:
    """Spawn-to-import-done times of fresh interpreters (plus the first
    make_field for the in-process sweeps), after one untimed warm-up."""
    code = "import bianchi_lefschetz as bl, time\n"
    if workload in sweep.SWEEPS:
        code += f"bl.make_field({sweep.plan(workload, seed, 0)[0]['d']})\n"
    code += "print(time.monotonic_ns())"
    samples = []
    for i in range(SETUP_RUNS + 1):
        t0 = time.monotonic_ns()
        _, proc = spawn(["-c", code], env)
        if proc.returncode:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        if i:
            samples.append((int(proc.stdout.split()[-1]) - t0) / 1e9)
    return samples


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(value, percentile level) of the highest percentile with at least ten
    samples beyond it, or None with fewer than eleven samples."""
    if len(samples) < 11:
        return None
    rank = len(samples) - 10
    return sorted(samples)[rank - 1], 100.0 * rank / len(samples)


def run_untraced(workload: str, seed: int, seconds: float, env: dict[str, str]):
    """Closed loop, one client.  Returns (op walls, batch times, failures, attempted)."""
    walls, batches, failures, attempted = [], [], [], 0
    began = time.perf_counter()

    def time_left() -> bool:
        return not walls or time.perf_counter() - began < seconds

    if workload == "cli-queries":
        golden = check.load_cli_golden()
        for deck in queries.decks(seed):
            if not time_left():
                break
            deck_s = 0.0
            for q in deck:
                wall, proc = spawn(["-m", "bianchi_lefschetz", *q.split()], env)
                walls.append(wall)
                deck_s += wall
                attempted += 1
                reason = check.check_query(q, golden[q], proc.returncode, proc.stdout, proc.stderr)
                if reason:
                    failures.append(f"{q}: {reason}")
            batches.append(deck_s)
    elif workload == "verify-all":
        golden = check.load_verify_golden()
        while time_left():
            wall, proc = spawn(["-m", "bianchi_lefschetz", "verify", "all"], env)
            walls.append(wall)
            batches.append(wall)  # set-up is subtracted by the caller
            attempted += 1
            reason = check.check_verify(proc.returncode, proc.stdout, proc.stderr, golden)
            if reason:
                failures.append(reason)
    else:
        tmp = OUT / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        i = 0
        while time_left():
            wall, proc = spawn([str(HERE / "sweep.py"), "--workload", workload, "--seed", str(seed),
                                "--pass", str(i), "--tmp", str(tmp)], env)
            walls.append(wall)
            attempted += 1
            try:
                result = json.loads(proc.stdout.splitlines()[-1])
                reason = check.check_pass(sweep.plan(workload, seed, i), result["items"])
                batches.append(result["batch_s"])
            except (IndexError, KeyError, ValueError):
                reason = f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
                batches.append(wall)  # no library time to report; the pass counts as failed
            if reason:
                failures.append(f"pass {i}: {reason}")
            i += 1
    return walls, batches, failures, attempted


def import_times(env: dict[str, str]) -> dict[str, float]:
    """import.* per-layer metrics from `python -X importtime`, medians of a few runs.

    python_ms: the interpreter's own start-up imports (top-level entries
    other than the package); numpy_ms: numpy's cumulative time, wherever
    it is imported; package_ms: the package's cumulative time minus numpy.
    """
    runs = []
    for i in range(IMPORTTIME_RUNS + 1):
        _, proc = spawn(["-X", "importtime", "-c", "import bianchi_lefschetz"], env)
        python_us = numpy_us = package_us = 0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "cumulative" in line:
                continue
            _, cumulative, name = (part for part in line[len("import time:"):].split("|"))
            us = int(cumulative)
            if name.strip() == "numpy" and not numpy_us:
                numpy_us = us
            if not name.startswith("  "):
                if name.strip() == "bianchi_lefschetz":
                    package_us = us
                else:
                    python_us += us
        if i:
            runs.append({"import.python_ms": python_us / 1e3, "import.numpy_ms": numpy_us / 1e3,
                         "import.package_ms": (package_us - numpy_us) / 1e3})
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def run_traced(workload: str, seed: int, seconds: float, env: dict[str, str]):
    """Per-layer metrics: medians over the traced operations of one child."""
    spans = OUT / f"spans-{workload}-seed{seed}.tsv.gz"
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    metrics = import_times(env)
    _, proc = spawn([str(HERE / "tracing.py"), "--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--spans", str(spans), "--tmp", str(tmp)], env)
    if proc.returncode:
        raise RuntimeError(f"traced run failed: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    per_op = result["per_op"]
    for name in tracing.metric_units():
        if name.startswith(("import.", "repo.", "trace.")):
            continue
        metrics[name] = statistics.median(op.get(name, 0.0) for op in per_op)
    metrics["repo.src_lines"] = src_lines()
    metrics["trace.overhead_ratio"] = (statistics.median(result["traced_s"])
                                       / statistics.median(result["untraced_s"]))
    report = {"operations": len(per_op), "traced_s": result["traced_s"],
              "untraced_s": result["untraced_s"], "spans_file": str(spans.relative_to(ROOT))}
    return metrics, result["failures"], result["attempted"], report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "bianchi_lefschetz" / "__init__.py").is_file():
        print(f"no library source under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    env = child_env()
    info = environment(env)
    if args.trace:
        metrics, failures, attempted, report = run_traced(args.workload, args.seed, args.seconds, env)
        units = tracing.metric_units()
    else:
        setup = setup_seconds(args.workload, args.seed, env)
        walls, batches, failures, attempted = run_untraced(args.workload, args.seed, args.seconds, env)
        setup_s = statistics.median(setup)
        if args.workload == "verify-all":
            batches = [b - setup_s for b in batches]
        metrics = {
            "setup_s": setup_s,
            "batch_s": statistics.median(batches),
            "query_p50_ms": statistics.median(walls) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        }
        units = END_TO_END
        report = {"operations": len(walls), "batches": len(batches), "setup_samples_s": setup,
                  "op_walls_s": walls, "batch_s_samples": batches}
        if args.workload == "cli-queries" and (t := tail(walls)):
            value, level = t
            report["query_tail_ms"] = {"value": value * 1e3, "unit": "ms",
                                       "percentile": level, "samples": len(walls)}

    failed = len(failures)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": info,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
        "failures": failures[:50], "report": report,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"python {info['python']}, numpy {info['numpy']}, {info['blas']}, "
          f"{info['blas_threads']} BLAS thread(s), nproc {info['nproc']}, "
          f"MemTotal {info['mem_total_mb']} MB")
    for name, m in record["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if "query_tail_ms" in report:
        t = report["query_tail_ms"]
        print(f"query_tail_ms = {t['value']:.6g} ms (p{t['percentile']:.1f} of {t['samples']} queries)")
    print(f"fail_ratio = {failed}/{attempted} = {failed / attempted:.6g}")
    for reason in failures[:10]:
        print(f"FAILED: {reason}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
