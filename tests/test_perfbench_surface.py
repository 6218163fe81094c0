"""The library surface that the benchmark in perfbench/ reaches: the sweeps
run against the library and the tracer finds every function it wraps, so
renaming one of them fails here and not only in a benchmark run."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import check  # noqa: E402
import sweep  # noqa: E402
import tracing  # noqa: E402

from bianchi_lefschetz import quadfield  # noqa: E402


@pytest.mark.parametrize("workload", sweep.SWEEPS)
def test_first_sweep_pass_checks(workload, tmp_path):
    _, items = sweep.run_pass(workload, 1, 0, str(tmp_path))
    assert check.check_pass(sweep.plan(workload, 1, 0), items) is None
    assert not list(tmp_path.iterdir())


def test_tracer_wraps_every_layer():
    make_field = quadfield.make_field
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert quadfield.make_field is not make_field
    finally:
        tracer.uninstall()
    assert quadfield.make_field is make_field
