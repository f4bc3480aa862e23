"""Exit 0 exactly when a pytest JUnit report fails the documented tests.

Usage::

    python3 tools/expected_failures.py REPORT.xml

``tests/test_acceptance.py`` documents two acceptance checks as
unattainable; every other test must pass.  Prints each unexpected failure
or error and each expected failure that passed, and exits 1 if there is
any, or if the report holds no test at all.
"""

from __future__ import annotations

import sys
import xml.etree.ElementTree as ET

EXPECTED = {
    "test_c1b_reference_matrix_inverse_norm_value",
    "test_c6c_d4_refinement_vs_cascade_level6",
}


def main(path: str) -> int:
    cases = list(ET.parse(path).getroot().iter("testcase"))
    failed = {
        case.get("name")
        for case in cases
        if case.find("failure") is not None or case.find("error") is not None
    }
    for name in sorted(failed - EXPECTED):
        print(f"unexpected failure: {name}")
    for name in sorted(EXPECTED - failed):
        print(f"expected failure passed: {name}")
    print(f"{len(cases)} tests, {len(failed)} failed")
    return int(not cases or failed != EXPECTED)


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
