"""``tools/expected_failures.py``, the gate of the tier-1 job, on planted
JUnit reports: it passes exactly when the two documented acceptance checks
fail and nothing else fails or errors."""

import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "expected_failures.py"
C1B = "test_c1b_reference_matrix_inverse_norm_value"
C6C = "test_c6c_d4_refinement_vs_cascade_level6"


def case(name, outcome=""):
    """One ``<testcase>``; ``outcome`` is "", "failure" or "error"."""
    body = f'<{outcome} message="planted">planted</{outcome}>' if outcome else ""
    return f'<testcase classname="tests.test_acceptance" name="{name}">{body}</testcase>'


def gate(tmp_path, *cases):
    report = tmp_path / "tier1.xml"
    report.write_text(
        '<?xml version="1.0" encoding="utf-8"?><testsuites>'
        f'<testsuite name="pytest">{"".join(cases)}</testsuite></testsuites>'
    )
    return subprocess.run(
        [sys.executable, str(TOOL), str(report)], capture_output=True, text=True
    )


def test_the_documented_pair_passes(tmp_path):
    result = gate(tmp_path, case(C1B, "failure"), case(C6C, "failure"), case("test_ok"))
    assert result.returncode == 0
    assert result.stdout == "3 tests, 2 failed\n"


@pytest.mark.parametrize(("cases", "line"), [
    ([case(C1B, "failure"), case(C6C, "failure"), case("test_third", "failure")],
     "unexpected failure: test_third"),
    ([case(C1B, "failure"), case(C6C, "failure"), case("test_broken", "error")],
     "unexpected failure: test_broken"),
    ([case(C1B), case(C6C, "failure")], f"expected failure passed: {C1B}"),
    ([], "0 tests, 0 failed"),
], ids=["third-failure", "error-entry", "c1b-passing", "no-test-cases"])
def test_any_other_outcome_fails(tmp_path, cases, line):
    result = gate(tmp_path, *cases)
    assert result.returncode == 1
    assert line in result.stdout.splitlines()
