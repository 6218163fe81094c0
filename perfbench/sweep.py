"""The in-process sweeps behind sczech-growth and census-growth.

`plan` turns (workload, seed, pass index) into a list of tasks without
touching the library; `run_task` runs one task through the library's
public functions and returns what check.py needs to judge it.  Run as a
script, this file is the child process of one sweep pass:

    PYTHONPATH=src python3 perfbench/sweep.py --workload sczech-growth \
        --seed 1 --pass 0 --tmp perfbench/out/tmp

It prints one JSON line: the pass's library time in seconds and its items.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import time

from check import CLASS_NUMBERS, prime_power, splitting

SWEEPS = ("sczech-growth", "census-growth")
CLASS_NUMBER_ONE = tuple(d for d, h in CLASS_NUMBERS.items() if h == 1) + (-43, -67, -163)
BOTH = ("split", "inert")

# (task kind, levels, splittings of the level's prime).  enumerate_sl2
# refuses split levels past N=4 (the brute filter would be too large), so
# N=5 and N=7 use inert primes only.
CENSUS_GRID = (
    ("projective_line", (3, 4, 5, 7, 8, 9, 11), BOTH),
    ("enumerate_sl2", (3, 4), BOTH),
    ("enumerate_sl2", (5, 7), ("inert",)),
    ("sl2_order", (3, 4, 5, 7, 8, 9), BOTH),
    ("coset_sigma", (3, 5, 7, 9, 11, 13, 25, 27, 49), BOTH),
    ("coset_tau", (3, 5, 7, 9, 11, 13, 25, 27, 49), BOTH),
    ("cusp_count", (3, 4, 5, 7, 8, 9), BOTH),
)


def plan(workload: str, seed: int, pass_index: int) -> list[dict]:
    """The tasks of one pass.  Every pass of a workload has the same shape;
    the seed picks the fields."""
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    if workload == "sczech-growth":
        tasks = [{"kind": "sczech", "d": rng.choice(CLASS_NUMBER_ONE), "N": N}
                 for N in range(2, 8)]
        tasks += [{"kind": "sczech_invdiff", "d": rng.choice(CLASS_NUMBER_ONE), "N": N}
                  for N in range(2, 5)]
        tasks.append({"kind": "matrix_dump", "d": rng.choice(CLASS_NUMBER_ONE), "N": 4})
        return tasks
    if workload == "census-growth":
        tasks = []
        for kind, levels, splittings in CENSUS_GRID:
            for N in levels:
                p = prime_power(N)[0]
                for spl in splittings:
                    fields = [d for d in CLASS_NUMBERS if splitting(d, p) == spl]
                    tasks.append({"kind": kind, "d": rng.choice(fields), "N": N})
        return tasks
    raise ValueError(f"not a sweep workload: {workload}")


def run_task(task: dict, tmp: str) -> dict:
    """Run one task; the item's `seconds` covers the library calls only."""
    import bianchi_lefschetz as bl
    from bianchi_lefschetz import eisenstein, finitering

    kind, d, N = task["kind"], task["d"], task["N"]
    item = dict(task)
    t0 = time.perf_counter()
    field = bl.make_field(d)
    if kind == "sczech":
        op = eisenstein.sczech_operator(field, N)
        tr = op.trace()
        item.update(trace_re=tr.real, trace_im=tr.imag, defect=op.involution_defect())
    elif kind == "sczech_invdiff":
        st = eisenstein.sczech_trace(field, N, "inverse-different")
        item.update(trace_re=st.value, trace_im=st.imag)
    elif kind == "matrix_dump":
        path = os.path.join(tmp, f"matrix-{os.getpid()}.txt")
        eisenstein.write_matrix_dump(eisenstein.sczech_operator(field, N), path)
    elif kind == "cusp_count":
        item["value"] = finitering.cusp_count_bruteforce(field, N)
    else:
        ring = finitering.FiniteRing(field, N)
        if kind == "projective_line":
            item["value"] = len(finitering.projective_line(ring))
        elif kind == "enumerate_sl2":
            item["value"] = len(finitering.enumerate_sl2(ring))
        elif kind == "sl2_order":
            item["value"] = finitering.sl2_order(ring)
        else:
            rep = finitering.fixed_coset_report(ring, kind.split("_")[1])
            item.update(value=rep.census, closed=rep.closed_formula)
    item["seconds"] = time.perf_counter() - t0
    if kind == "matrix_dump":
        lines, diag = 0, 0.0
        with open(path) as fh:
            for line in fh:
                i, j, re_part, _ = line.split()
                lines += 1
                if i == j:
                    diag += float(re_part)
        item.update(lines=lines, diag_sum=diag, bytes=os.path.getsize(path))
        os.remove(path)
    return item


def run_pass(workload: str, seed: int, pass_index: int, tmp: str) -> tuple[float, list[dict]]:
    items = [run_task(t, tmp) for t in plan(workload, seed, pass_index)]
    return sum(item.pop("seconds") for item in items), items


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=SWEEPS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass", dest="pass_index", type=int, required=True)
    ap.add_argument("--tmp", required=True)
    args = ap.parse_args()
    batch_s, items = run_pass(args.workload, args.seed, args.pass_index, args.tmp)
    print(json.dumps({"batch_s": batch_s, "items": items}))


if __name__ == "__main__":
    main()
