"""Each per-problem artefact (spectrum, bound, candidate points, transfer
matrix) is computed once per call, is shared read-only, and stays with the
Problem instance it belongs to; a dumping call creates its directory once."""

import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from refinable import bounds, cli, linalg, parse_problem, pointwise
from refinable.mask import serialize_problem

PROBLEMS = Path(__file__).resolve().parent.parent / "demos" / "problems"
BUNDLED = ["daubechies4", "haar", "quincunx", "shear2d", "skew3"]
# ||M^-1|| = 1 and eigenvalues +-i sqrt(2): best_bound falls through to the
# iterated-norm ball after the Jordan form is refused
COMPLEX_DOC = """{"dimension": 2, "matrix": [[0, 2], [-1, 0]],
  "coefficients": [{"q": [0, 0], "c": "1/2"}, {"q": [1, 0], "c": "1/2"}]}"""

SUBCOMMANDS = [
    ["analyze", "--format", "structured"],
    ["bound", "--format", "structured"],
    ["values", "--left-closed", "--format", "structured"],
    ["check"],
    ["refine", "--left-closed", "--levels", "2"],
]


def documents():
    docs = {name: (PROBLEMS / f"{name}.json").read_text() for name in BUNDLED}
    docs["complex"] = COMPLEX_DOC
    return docs


@pytest.fixture()
def counted(monkeypatch):
    """Count calls to the exact analysis and to the per-problem builders."""
    counts = {}

    def count(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    # the Faddeev-LeVerrier pass and the root stage behind the spectrum
    count(linalg, "_faddeev_leverrier")
    count(linalg, "_spectrum")
    count(bounds, "ball_bound")
    count(bounds, "jordan_block_bound")
    count(pointwise, "build_transfer_matrix")
    count(pointwise, "lattice_points_in_bound")
    return counts


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(documents()))
def test_one_spectrum_per_matrix_across_subcommands(name, counted, monkeypatch, tmp_path):
    problem = parse_problem(documents()[name])
    monkeypatch.setattr(cli, "_load_problem", lambda path: problem)
    for args in SUBCOMMANDS:
        argv = args[:1] + [str(tmp_path / "doc.json")] + args[1:]
        if args[0] == "refine":
            argv += ["--outdir", str(tmp_path)]
        code, _, err = run_main(argv)
        assert code in (0, 3), err
    assert counted["_faddeev_leverrier"] == 1
    assert counted["_spectrum"] == 1
    # values, check and refine share one transfer matrix
    assert counted["build_transfer_matrix"] == 1


@pytest.mark.parametrize("args", SUBCOMMANDS, ids=lambda a: a[0])
def test_each_cli_call_analyses_once(args, counted, tmp_path):
    doc = tmp_path / "skew3.json"
    doc.write_text((PROBLEMS / "skew3.json").read_text())
    argv = args[:1] + [str(doc)] + args[1:]
    if args[0] == "refine":
        argv += ["--outdir", str(tmp_path)]
    code, _, err = run_main(argv)
    assert code == 0, err
    assert counted["_faddeev_leverrier"] == 1
    assert counted["_spectrum"] == 1
    assert counted.get("build_transfer_matrix", 0) <= 1


def test_refine_left_closed_sets_up_once(counted, tmp_path):
    doc = tmp_path / "haar.json"
    doc.write_text((PROBLEMS / "haar.json").read_text())
    code, _, err = run_main(["refine", str(doc), "--left-closed", "--levels", "3",
                             "--outdir", str(tmp_path)])
    assert code == 0, err
    # the norm ball is selected once, and so checked once
    assert counted["ball_bound"] == 1
    assert counted["build_transfer_matrix"] == 1
    # one level-0 enumeration for the candidates; the refinement levels store
    # the kernel's rows and their images and enumerate nothing
    assert counted["lattice_points_in_bound"] == 1


def test_bound_builds_the_jordan_parallelepiped_once(counted, tmp_path):
    # best_bound selects the parallelepiped and applicable_bounds lists it
    doc = tmp_path / "skew3.json"
    doc.write_text((PROBLEMS / "skew3.json").read_text())
    code, out, err = run_main(["bound", str(doc)])
    assert code == 0, err
    assert "selected: jordan-parallelepiped" in out
    blocks = parse_problem(doc.read_text()).matrix.jordan_structure.blocks
    assert counted["jordan_block_bound"] == len(blocks)


@pytest.mark.parametrize("command", [["cascade", "--iters", "4"], ["refine", "--levels", "4"]])
def test_dump_directory_is_made_once_per_call(command, tmp_path, monkeypatch):
    doc = tmp_path / "daubechies4.json"
    doc.write_text((PROBLEMS / "daubechies4.json").read_text())
    made = []
    mkdir = Path.mkdir

    def counting(path, *args, **kwargs):
        made.append(path)
        return mkdir(path, *args, **kwargs)

    monkeypatch.setattr(Path, "mkdir", counting)
    outdir = tmp_path / "dumps"
    code, _, err = run_main(command[:1] + [str(doc)] + command[1:] + ["--outdir", str(outdir)])
    assert code == 0, err
    assert len(list(outdir.glob("*.tsv"))) == 5
    assert made == [outdir]


def test_unusable_dump_directory_is_one_parse_error(tmp_path):
    doc = tmp_path / "haar.json"
    doc.write_text((PROBLEMS / "haar.json").read_text())
    taken = tmp_path / "taken"
    taken.write_text("")
    for command in (["cascade"], ["refine", "--left-closed"]):
        for outdir in (taken, taken / "sub"):
            code, _, err = run_main(command[:1] + [str(doc)] + command[1:] + ["--outdir", str(outdir)])
            assert code == 2
            try:
                outdir.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                reason = exc
            assert err == f"error: ParseError: cannot write {outdir / 'haar.level0.tsv'}: {reason}\n"


def test_determinant_adjugate_and_spectrum_share_one_pass(counted):
    for rows in ([[2]], [[1, 1], [-1, 1]], [[0, 1], [3, 1]], [[0, 0, 2], [1, 0, 0], [0, 1, 0]]):
        counted.clear()
        matrix = linalg.DilationMatrix.from_rows(rows)
        matrix.determinant, matrix.adjugate, matrix.spectrum
        assert counted == {"_faddeev_leverrier": 1, "_spectrum": 1}


def test_repeated_calls_return_the_same_object():
    for text in documents().values():
        problem = parse_problem(text)
        assert bounds.best_bound(problem) is bounds.best_bound(problem)
        assert bounds.general_ball_bound(problem) is bounds.general_ball_bound(problem)
        assert pointwise.candidate_points(problem) is pointwise.candidate_points(problem)
        assert pointwise.transfer_matrix(problem) is pointwise.transfer_matrix(problem)
        assert problem.matrix.spectrum is problem.matrix.spectrum


def test_complex_spectrum_raises_from_the_cached_spectrum(counted):
    problem = parse_problem(COMPLEX_DOC)
    assert counted["_spectrum"] == 1
    for _ in range(3):
        with pytest.raises(linalg.ComplexSpectrum):
            problem.matrix.jordan_structure
    bounds.applicable_bounds(problem)
    assert counted["_spectrum"] == 1


def test_shared_arrays_are_read_only():
    problem = parse_problem((PROBLEMS / "skew3.json").read_text())
    transfer = pointwise.transfer_matrix(problem)
    structure = problem.matrix.jordan_structure
    bound = bounds.best_bound(problem)
    assert isinstance(bound, bounds.TransformedBox)
    points = pointwise.candidate_points(problem)
    assert points.dtype == np.int64 and transfer.points is points
    for array in (points, transfer.matrix, structure.transform,
                  structure.transform_inverse, bound.transform, bound.transform_inverse):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0] = 1.0


def test_errors_are_not_kept():
    problem = parse_problem(COMPLEX_DOC)
    artefacts = problem._artefacts
    with pytest.raises(bounds.NormNotContractive):
        bounds.ball_bound(problem)
    bounds.best_bound(problem)
    # only the successful selections are kept, one entry per function
    assert len(artefacts) == 2  # best_bound and general_ball_bound


@pytest.mark.parametrize(
    "fixture", ["haar_problem", "d4_problem", "quincunx_problem",
                "jordan2d_problem", "noncontractive_problem"],
)
def test_memo_cannot_leak_between_tests(fixture, request):
    """The session fixtures share Problems across tests.  What a test gets
    from the memo equals a fresh computation on a new instance, no other
    instance sees it, and it cannot be changed in place."""
    shared = request.getfixturevalue(fixture)
    # whatever earlier tests computed and kept on the shared instance ...
    kept = (bounds.best_bound(shared), pointwise.candidate_points(shared),
            pointwise.transfer_matrix(shared))
    fresh = parse_problem(serialize_problem(shared))
    assert "_artefacts" not in vars(fresh)
    # ... equals what a fresh instance computes for itself, as a new object
    assert bounds.best_bound(fresh).record() == kept[0].record()
    assert bounds.best_bound(fresh) is not kept[0]
    assert np.array_equal(pointwise.candidate_points(fresh), kept[1])
    assert pointwise.candidate_points(fresh) is not kept[1]
    assert np.array_equal(pointwise.transfer_matrix(fresh).matrix, kept[2].matrix)
    # and nothing kept can be modified
    with pytest.raises(ValueError):
        kept[1][0, 0] += 1
    with pytest.raises(ValueError):
        kept[2].matrix[0, 0] += 1.0
    with pytest.raises(AttributeError):
        kept[0].provenance = "changed"
