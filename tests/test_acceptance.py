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

# (assertions, findings) per check: a refactor that silently drops checks
# fails here; a change that adds checks updates the table
COUNTS = {
    "example1": (4, 0),
    "eq1": (20, 0),
    "cycle-capacity": (505, 0),
    "path-capacity": (275, 0),
    "accuracy-thresholds": (502, 0),
    "nonadaptive-optimality": (468, 0),
    "restricted-formulas": (32, 12),
    "soundness-suite": (2494, 0),
    "sliding-window": (148, 0),
}


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
    assert (result.checked, len(result.findings)) == COUNTS[name]
    assert result.seconds < 10, f"{name} took {result.seconds:.1f} s, over verify's 10 s budget"


def test_all_criteria_covered():
    assert sorted(crit for _, (crit, _) in CRITERIA) == list(range(1, 10))
    assert sorted(COUNTS) == sorted(CHECKS)
