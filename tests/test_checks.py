"""The invariant suite as library records, and ``refinable check`` as their
rendering."""

import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from refinable import Check, cli, parse_problem, problem_from_data, run_checks

PROBLEMS = Path(__file__).resolve().parent.parent / "demos" / "problems"
BUNDLED = sorted(PROBLEMS.glob("*.json"))
NAMES = [
    "mask-sum",
    "dilation",
    "coset-uniformity",
    "bound-contains-origin",
    "bound-consistency",
    "cascade-mass",
    "cascade-containment",
    "transfer-eigen-residual",
    "refine-consistency",
    "partition-of-unity",
]


def render(checks):
    return "".join(
        f"{'PASS' if c.passed else 'FAIL'} {c.name}{f' ({c.detail})' if c.detail else ''}\n"
        for c in checks
    )


def run_main(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.stem)
def test_cli_renders_the_records(path):
    checks = run_checks(parse_problem(path.read_text()), 4, 3, 1e-12)
    assert [c.name for c in checks] == NAMES
    assert all(isinstance(c, Check) and type(c.passed) is bool for c in checks)
    assert run_main(["check", str(path)]) == (0, render(checks))


def test_spike_mask_fails_the_eigen_check(tmp_path):
    spike = problem_from_data(1, [[2]], [{"q": [0], "c": 1}])
    checks = {c.name: c for c in run_checks(spike, 4, 3, 1e-12)}
    assert checks["transfer-eigen-residual"] == Check(
        "transfer-eigen-residual", False, "NoUnitEigenvalue"
    )
    assert [name for name, c in checks.items() if not c.passed] == ["transfer-eigen-residual"]
    doc = tmp_path / "spike.json"
    doc.write_text('{"dimension": 1, "matrix": [[2]], "coefficients": [{"q": [0], "c": 1}]}')
    code, stdout = run_main(["check", str(doc)])
    assert code == 3
    assert "FAIL transfer-eigen-residual (NoUnitEigenvalue)\n" in stdout
