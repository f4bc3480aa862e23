"""The left-closed tie-break is the Cesaro limit of the transfer iteration
from the box indicator's integer samples: the projection of the origin
spike e_0 onto ker(B - I) along range(B - I), normalized to sum one.  Where
that limit does not exist the call ends in one ``NoLeftClosedLimit`` line
(exit 3) and prints no values."""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from refinable import (
    candidate_points,
    converged_integer_values,
    integer_values,
    parse_problem,
    resolve_values,
    transfer_matrix,
)
from refinable.errors import NoLeftClosedLimit, NoUnitEigenvalue
from refinable.pointwise import UNIT_EIGENVALUE_TOL, TransferMatrix

from test_error_contract import run_main

PROBLEMS = Path(__file__).resolve().parent.parent / "demos" / "problems"


def document(matrix, taps):
    return json.dumps({
        "dimension": len(matrix),
        "matrix": matrix,
        "coefficients": [{"q": list(q), "c": c} for q, c in taps],
    })


# B has eigenvalues at the 8th roots of unity besides 1
ROTATING = document([[1, 1], [-1, 1]], [((-1, -1), "1/2"), ((2, 2), "1/2")])
# the spectral radius of B is 1 + sqrt(2)
DIVERGENT = document([[2, 0], [0, 2]], [((0, 2), "1/4"), ((0, -1), "1/4"), ((0, 0), "1/2")])
# eigenvalue 1 of B has algebraic multiplicity 3 and geometric multiplicity 2
DEFECTIVE = document(
    [[0, 1], [3, 0]],
    [((1, 2), "2/9"), ((2, 0), "1/3"), ((0, 2), "1/3"), ((1, 0), "1/9")],
)


def origin_spike(points):
    return np.all(points == 0, axis=1).astype(float)


def test_rotating_spectrum_gives_the_cesaro_mean(tmp_path):
    doc = tmp_path / "rotating.json"
    doc.write_text(ROTATING)
    code, out, err = run_main(["values", str(doc), "--left-closed", "--format", "structured"])
    assert code == 0 and err == "", err
    printed = json.loads(out)
    problem = parse_problem(ROTATING)
    points = candidate_points(problem)
    assert printed["points"] == points.tolist()
    # the period-8 rotation averages out exactly over 4000 consecutive powers
    b = transfer_matrix(problem).matrix
    vec = np.linalg.matrix_power(b, 4000) @ origin_spike(points)
    mean = np.zeros_like(vec)
    for _ in range(4000):
        vec = b @ vec
        mean += vec
    mean /= mean.sum()
    assert np.max(np.abs(np.asarray(printed["values"]) - mean)) <= 1e-12


@pytest.mark.parametrize("text", [DIVERGENT, DEFECTIVE], ids=["divergent", "defective"])
@pytest.mark.parametrize("command", [["values"], ["refine", "--levels", "2"]],
                         ids=lambda c: c[0])
def test_no_limit_is_refused(text, command, tmp_path):
    doc = tmp_path / "problem.json"
    doc.write_text(text)
    outdir = tmp_path / "out"
    outdir.mkdir()
    argv = [command[0], str(doc), "--left-closed", *command[1:]]
    if command[0] == "refine":
        argv += ["--outdir", str(outdir)]
    code, out, err = run_main(argv)
    assert code == 3
    assert err.startswith("error: NoLeftClosedLimit: ") and err.count("\n") == 1, err
    assert out == "" and list(outdir.iterdir()) == []


def test_refusal_names_the_failed_condition():
    with pytest.raises(NoLeftClosedLimit, match="spectral radius 2.41421"):
        resolve_values(parse_problem(DIVERGENT), True)
    with pytest.raises(NoLeftClosedLimit, match="not semisimple"):
        resolve_values(parse_problem(DEFECTIVE), True)


@pytest.mark.parametrize("name", ["haar", "quincunx", "shear2d", "skew3"])
def test_projection_is_fixed_and_keeps_the_left_null_coordinates(name):
    problem = parse_problem((PROBLEMS / f"{name}.json").read_text())
    result, _, values = resolve_values(problem, True)
    assert result.eigenspace_dimension > 1
    b = transfer_matrix(problem).matrix
    n = len(b)
    u, sing, _ = np.linalg.svd(b - np.eye(n))
    left = u[:, sing <= UNIT_EIGENVALUE_TOL * max(1.0, sing[0])].T
    spike = origin_spike(values.indices)
    # undo the normalization: r is the multiple of the values that keeps L e_0
    lv = left @ values.values
    r = values.values * (lv @ (left @ spike)) / (lv @ lv)
    assert np.max(np.abs(b @ r - r)) <= 1e-12
    assert np.max(np.abs(left @ (spike - r))) <= 1e-12


def test_converged_values_are_the_tie_break_without_a_warning(haar_problem):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        converged = converged_integer_values(haar_problem)
    assert converged.values.tolist() == resolve_values(haar_problem, True)[2].values.tolist()


def test_solvers_that_disagree_are_refused(monkeypatch):
    # eigvals reports a unit eigenvalue the SVD of B - I cannot confirm
    monkeypatch.setattr(np.linalg, "eigvals", lambda b: np.ones(len(b)))
    transfer = TransferMatrix(np.array([[0], [1]]), 0.5 * np.eye(2))
    with pytest.raises(NoUnitEigenvalue, match="smallest singular value 0.5"):
        integer_values(transfer)


def count_eigensolves(monkeypatch, n):
    """The names of the ``eigvals`` and ``svd`` calls on n x n matrices,
    recorded from now on."""
    calls = []

    def counted(fn):
        def wrapper(a, *args, **kwargs):
            if np.shape(a) == (n, n):
                calls.append(fn.__name__)
            return fn(a, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "eigvals", counted(np.linalg.eigvals))
    monkeypatch.setattr(np.linalg, "svd", counted(np.linalg.svd))
    return calls


@pytest.mark.parametrize("name", ["haar", "quincunx", "skew3"])
def test_tie_break_reuses_the_one_eigensolve(name, monkeypatch, tmp_path):
    doc = str(PROBLEMS / f"{name}.json")
    n = len(candidate_points(parse_problem(Path(doc).read_text())))
    calls = count_eigensolves(monkeypatch, n)
    for argv in (["values", doc, "--left-closed"],
                 ["refine", doc, "--left-closed", "--levels", "1", "--outdir", str(tmp_path)],
                 ["check", doc]):
        calls.clear()
        code, _, err = run_main(argv)
        assert code == 0 and err == "", err
        assert sorted(calls) == ["eigvals", "svd"], argv


def test_library_calls_share_the_one_eigensolve(monkeypatch):
    problem = parse_problem((PROBLEMS / "haar.json").read_text())
    calls = count_eigensolves(monkeypatch, len(candidate_points(problem)))
    _, plain_notes, plain = resolve_values(problem, False)
    _, notes, values = resolve_values(problem, True)
    converged = converged_integer_values(problem)
    assert sorted(calls) == ["eigvals", "svd"]
    assert plain is None and plain_notes == notes[:1]
    _, notes_again, values_again = resolve_values(problem, True)
    assert notes_again == notes
    for again in (values_again, converged, converged_integer_values(problem)):
        assert again.values.tobytes() == values.values.tobytes()
    assert sorted(calls) == ["eigvals", "svd"]
