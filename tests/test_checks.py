"""The invariant suite as library records, and ``refinable check`` as their
rendering."""

import io
import json
import re
from contextlib import redirect_stdout
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refinable import (
    Check, bounds, cascade, cli, parse_problem, pointwise, problem_from_data, run_checks,
)

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "demos" / "problems"
BUNDLED = sorted(PROBLEMS.glob("*.json"))
NAMES = [
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


def document(dim, matrix, taps):
    return {"dimension": dim, "matrix": matrix,
            "coefficients": [{"q": list(q), "c": c} for q, c in taps]}


@pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.stem)
def test_cli_renders_the_records(path):
    checks = run_checks(parse_problem(path.read_text()), 4, 3, 1e-12)
    assert [c.name for c in checks] == NAMES
    assert all(isinstance(c, Check) and type(c.passed) is bool for c in checks)
    assert all(c.passed and "skipped" not in c.detail for c in checks)
    assert run_main(["check", str(path)]) == (0, render(checks))


def test_spike_mask_fails_the_eigen_check(tmp_path):
    # B has no eigenvalue 1: the spike mask, and c = 3/4, 1/4 on M = [2]
    for taps in ([((0,), 1)], [((0,), "3/4"), ((1,), "1/4")]):
        doc = document(1, [[2]], taps)
        checks = {c.name: c for c in run_checks(parse_problem(json.dumps(doc)), 4, 3, 1e-12)}
        assert checks["transfer-eigen-residual"] == Check(
            "transfer-eigen-residual", False, "NoUnitEigenvalue"
        )
        assert [name for name, c in checks.items() if not c.passed] == ["transfer-eigen-residual"]
        for name in ("refine-consistency", "partition-of-unity"):
            assert checks[name].detail == "NoUnitEigenvalue; skipped"
        path = tmp_path / "spike.json"
        path.write_text(json.dumps(doc))
        code, stdout = run_main(["check", str(path)])
        assert code == 3
        assert "FAIL transfer-eigen-residual (NoUnitEigenvalue)\n" in stdout


def test_refused_tie_break_keeps_the_eigen_residual():
    # eigenvalue 1 of B is not semisimple, so no left-closed values exist
    defective = document(2, [[0, 1], [3, 0]], [
        ((1, 2), "2/9"), ((2, 0), "1/3"), ((0, 2), "1/3"), ((1, 0), "1/9"),
    ])
    checks = run_checks(parse_problem(json.dumps(defective)), 4, 3, 1e-12)
    assert all(c.passed for c in checks)
    assert checks[2].name == "transfer-eigen-residual"
    assert checks[2].detail.startswith("residual ")
    assert [c.detail for c in checks[3:]] == ["NoLeftClosedLimit; skipped"] * 2


def test_check_does_not_enumerate_the_residue_classes(tmp_path):
    # Z^2 / M Z^2 has about 1e12 classes; B has no eigenvalue 1
    doc = document(2, [[1000000, 0], [0, 1000001]], [((0, 0), "1/2"), ((1, 0), "1/2")])
    path = tmp_path / "close.json"
    path.write_text(json.dumps(doc))
    code, stdout = run_main(["check", str(path)])
    assert code == 3
    assert "FAIL transfer-eigen-residual (NoUnitEigenvalue)\n" in stdout


def scale_one_cascade_level(monkeypatch):
    run = cascade.run_cascade

    def scaled(*args, **kwargs):
        iterates = run(*args, **kwargs)
        iterates[2] = replace(iterates[2], values=2.0 * iterates[2].values)
        return iterates
    monkeypatch.setattr(cascade, "run_cascade", scaled)


def shrink_the_selected_bound(monkeypatch):
    def origin(problem):
        return bounds.Box((0.0,) * problem.dim, "the origin")
    monkeypatch.setattr(bounds, "best_bound", origin)


def perturb_one_refined_value(monkeypatch):
    refine = pointwise.refine_values

    def perturbed(problem, level0, levels):
        table = refine(problem, level0, levels)
        level1 = table.samples[1]
        # phi_1 at the origin, the image M 0 of a level-0 row, off by 1e-6
        origin = np.all(level1.indices == 0, axis=1)
        values = level1.values + 1e-6 * origin
        return cascade.ValueTable({**table.samples, 1: replace(level1, values=values)})
    monkeypatch.setattr(pointwise, "refine_values", perturbed)


def drop_one_top_level_row(monkeypatch):
    refine = pointwise.refine_values

    def dropped(problem, level0, levels):
        table = refine(problem, level0, levels)
        top = table.samples[levels]
        keep = np.arange(len(top.values)) != np.argmax(np.abs(top.values))
        top = replace(top, indices=top.indices[keep], values=top.values[keep])
        return cascade.ValueTable({**table.samples, levels: top})
    monkeypatch.setattr(pointwise, "refine_values", dropped)


FAULTS = {
    "cascade-mass": scale_one_cascade_level,
    "cascade-containment": shrink_the_selected_bound,
    "refine-consistency": perturb_one_refined_value,
    "partition-of-unity": drop_one_top_level_row,
}


@pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.stem)
@pytest.mark.parametrize("name", sorted(FAULTS))
def test_a_planted_fault_fails_its_record(name, path, monkeypatch):
    problem = parse_problem(path.read_text())
    FAULTS[name](monkeypatch)
    checks = run_checks(problem, 4, 3, 1e-12)
    assert [c.name for c in checks if not c.passed] == [name]


def convolved_digits(m, p):
    """The p-fold self-convolution of the mask 1/|m| on {0..|m|-1}."""
    mask = [Fraction(1)]
    for _ in range(p):
        out = [Fraction(0)] * (len(mask) + abs(m) - 1)
        for i, a in enumerate(mask):
            for j in range(abs(m)):
                out[i + j] += a / abs(m)
        mask = out
    return mask


@st.composite
def tensor_problems(draw):
    m = [draw(st.sampled_from([2, 3, -2, 4])) for _ in range(2)]
    p = [draw(st.integers(1, 3)) for _ in range(2)]
    perm = draw(st.permutations([0, 1]))
    signs = [draw(st.sampled_from([-1, 1])) for _ in range(2)]
    rows = [[signs[i] if j == perm[i] else 0 for j in range(2)] for i in range(2)]
    P = np.array(rows)
    matrix = (P @ np.diag(m) @ P.T).tolist()
    taps = [
        ((P @ [i, j]).tolist(), str(a * b))
        for i, a in enumerate(convolved_digits(m[0], p[0]))
        for j, b in enumerate(convolved_digits(m[1], p[1]))
    ]
    return problem_from_data(2, matrix, [{"q": q, "c": c} for q, c in taps])


@settings(max_examples=40)
@given(tensor_problems())
def test_every_record_passes_on_tensor_digit_masks(problem):
    checks = run_checks(problem, 4, 3, 1e-12)
    assert [c.name for c in checks] == NAMES
    assert all(c.passed for c in checks), checks


def test_readme_names_the_records():
    text = (ROOT / "README.md").read_text()
    start = text.index("`run_checks(problem, iters, levels, eps)` runs")
    paragraph = text[start : text.index("\n\n", start)]
    listed = re.findall(r"^- `([a-z-]+)`", paragraph, re.M)
    checks = run_checks(parse_problem(BUNDLED[0].read_text()), 4, 3, 1e-12)
    assert listed == [c.name for c in checks]
