"""Write the golden files the output checks compare against.

    python3 perfbench/make_golden.py

Run it only at a commit whose outputs are the accepted reference: it
records, for every query in the pool, the exit code and the query, field
and result blocks, and the PASS lines of `verify all`.
"""

from __future__ import annotations

import json

import check
import queries
from run import child_env, spawn


def main() -> None:
    env = child_env()
    golden = {}
    for q in queries.POOL:
        _, proc = spawn(["-m", "bianchi_lefschetz", *q.split()], env)
        entry = {"exit": proc.returncode}
        if proc.returncode == 0:
            entry["records"] = check.normalize(proc.stdout, check.query_format(q))
        golden[q] = entry
    with open(check.GOLDEN / "cli.json", "w") as fh:
        fh.write("{\n" + ",\n".join(f"{json.dumps(q)}: {json.dumps(e, sort_keys=True)}"
                                    for q, e in golden.items()) + "\n}\n")
    _, proc = spawn(["-m", "bianchi_lefschetz", "verify", "all"], env)
    if proc.returncode:
        raise SystemExit(f"verify all exited {proc.returncode}")
    passes = [line for line in proc.stdout.splitlines() if line.startswith("PASS ")]
    (check.GOLDEN / "verify_pass.txt").write_text("\n".join(passes) + "\n")


if __name__ == "__main__":
    main()
