"""Acceptance suite: one test per verification criterion.

Each test runs the corresponding check from ``movingsearch.verify`` over
its full grid and prints a PASS/FAIL line (visible with ``pytest -s``
or on failure).  Criterion 7 compares the exact oracle against formulas
stated without proof; disagreements there are reported as findings and do
not fail the check, per the check's contract.
"""

import pytest

from movingsearch.verify import CHECKS, run_check

CRITERIA = sorted(CHECKS.items(), key=lambda item: item[1][0])


@pytest.mark.parametrize("name", [name for name, _ in CRITERIA])
def test_criterion(name):
    result = run_check(name)
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} criterion {result.criterion} [{name}]: "
          f"{result.checked} checks in {result.seconds:.1f}s")
    for note in result.notes:
        print(f"  note: {note}")
    for finding in result.findings:
        print(f"  finding: {finding}")
    if result.error:
        print(f"  error: {result.error}")
    assert result.passed, f"criterion {result.criterion} [{name}]: {result.error}"


def test_all_criteria_covered():
    assert sorted(crit for _, (crit, _) in CRITERIA) == list(range(1, 10))
