"""The benchmark checker's own tests (perfbench/test_checker.py) in the
tier-1 suite: each corrupted output they plant must still fail a check."""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import test_checker  # noqa: E402


def test_checker_cases_all_pass():
    result = unittest.TestResult()
    unittest.defaultTestLoader.loadTestsFromModule(test_checker).run(result)
    assert result.testsRun == 15
    assert result.wasSuccessful(), result.failures + result.errors
    assert not result.skipped
