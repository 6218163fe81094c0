"""What a query loads: importing the package and running any subcommand
other than `verify` leaves `dataclasses` and the verify suites with their
oracles unimported, and only the json and csv formats load the module
that writes them.  Structure only; nothing here is timed."""

import json
import os
import subprocess
import sys

import pytest
from test_numpy_free import COMMANDS, SRC

HEAVY = ("dataclasses", "bianchi_lefschetz.verify", "bianchi_lefschetz.oracles")

# Runs in a fresh interpreter; prints which of the modules named in argv[2]
# are loaded after the import and after each command.
SCRIPT = """
import contextlib, io, json, sys
import bianchi_lefschetz

watched = json.loads(sys.argv[2])
loaded = {"import": [m for m in watched if m in sys.modules]}
from bianchi_lefschetz import cli
codes = {}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes[" ".join(argv)] = cli.main(argv)
    loaded[" ".join(argv)] = [m for m in watched if m in sys.modules]
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def loaded_after(argvs, tmp_path):
    matrix = tmp_path / "op.txt"
    argvs = [[str(matrix) if a == "MATRIX" else a for a in argv] for argv in argvs]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(argvs), json.dumps(HEAVY)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert set(out["codes"].values()) == {0}, out["codes"]
    return out["loaded"]


def test_queries_load_neither_dataclasses_nor_verify(tmp_path):
    queries = [argv for argv in COMMANDS if argv[0] != "verify"]
    assert len(queries) == len(COMMANDS) - 1
    loaded = loaded_after(queries, tmp_path)
    assert len(loaded) == len(queries) + 1
    assert not any(loaded.values()), loaded


def test_verify_loads_the_suites_and_their_oracles(tmp_path):
    loaded = loaded_after([["verify", "all"]], tmp_path)
    assert loaded["import"] == []
    assert loaded["verify all"] == ["bianchi_lefschetz.verify", "bianchi_lefschetz.oracles"]


# The same in a script that itself imports neither csv nor json.
FORMAT_SCRIPT = """
import contextlib, io, sys
from bianchi_lefschetz import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, *sorted(m for m in ("csv", "json") if m in sys.modules))
"""


@pytest.mark.parametrize("argv,want", [
    (["field", "--d", "-7", "--format", "tex"], "0"),
    (["field", "--d", "-7", "--format", "csv"], "0 csv"),
    (["field", "--d", "-7"], "0 json"),
    (["verify", "anchors"], "0"),
])
def test_each_format_loads_only_its_writer(argv, want):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", FORMAT_SCRIPT, *argv],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[0] == want
