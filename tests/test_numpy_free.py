"""The library runs on the standard library alone: importing it, every CLI
subcommand and `verify all` leave numpy unimported.  numpy is a test
dependency only, for the tests' own reference implementations."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from bianchi_lefschetz.cli import build_parser

SRC = Path(__file__).resolve().parents[1] / "src"

# at least one argv per leaf subcommand; all three output formats occur
COMMANDS = [
    ["field", "--d", "-2"],
    ["lefschetz", "principal", "--d", "-7", "--N", "3", "--k", "0"],
    ["lefschetz", "level-one", "--d", "-2", "--k", "2", "--involution", "tau", "--format", "csv"],
    ["eisenstein", "h2", "--d", "-7", "--N", "9", "--k", "1", "--involution", "sigma",
     "--format", "tex"],
    ["eisenstein", "h1", "--d", "-2", "--p", "5", "--n", "1"],
    ["sczech", "--d", "-2", "--N", "3", "--emit-matrix", "MATRIX"],
    ["sczech", "--d", "-11", "--N", "4", "--variant", "inverse-different"],
    ["bound", "--d", "-2", "--N", "5", "--k", "0"],
    ["gl2", "--d", "-2", "--k", "24"],
    ["table", "--d-list", "-2", "-7", "--N-list", "3", "5", "--k-list", "0", "2",
     "--format", "csv"],
    ["verify", "all"],
]

# Runs in a fresh interpreter; prints whether numpy was loaded after the
# import and after each command, and after importing numpy by hand (the
# control: there the same check must see it).
SCRIPT = """
import contextlib, io, json, sys
import bianchi_lefschetz
from bianchi_lefschetz import cli

loaded = {"import": "numpy" in sys.modules}
codes = {}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes[" ".join(argv)] = cli.main(argv)
    loaded[" ".join(argv)] = "numpy" in sys.modules
import numpy
print(json.dumps({"codes": codes, "loaded": loaded, "control": "numpy" in sys.modules}))
"""


def leaf_commands(parser, prefix=()):
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {prefix}
    return {leaf for name, p in subs[0].choices.items()
            for leaf in leaf_commands(p, prefix + (name,))}


def test_commands_cover_every_subcommand():
    for leaf in leaf_commands(build_parser()):
        assert any(tuple(argv[:len(leaf)]) == leaf for argv in COMMANDS), leaf


def test_no_runtime_path_imports_numpy(tmp_path):
    matrix = tmp_path / "op.txt"
    argvs = [[str(matrix) if a == "MATRIX" else a for a in argv] for argv in COMMANDS]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert set(out["codes"].values()) == {0}, out["codes"]
    assert not any(out["loaded"].values()), out["loaded"]
    assert matrix.stat().st_size > 0
    assert out["control"]


def test_no_source_file_names_numpy():
    sources = sorted((SRC / "bianchi_lefschetz").glob("*.py"))
    assert sources
    assert not [p.name for p in sources if "numpy" in p.read_text()]
