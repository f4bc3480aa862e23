"""End-to-end tests of the command-line interface via subprocesses."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import D4_COEFFS

# the package under test, also when it is not installed
SRC = str(Path(__file__).resolve().parent.parent / "src")
ENV = dict(os.environ)
ENV["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))


def write_doc(tmp_path, name, dimension, matrix, coefficients):
    path = tmp_path / f"{name}.json"
    path.write_text(
        json.dumps(
            {"dimension": dimension, "matrix": matrix, "coefficients": coefficients}
        )
    )
    return path


@pytest.fixture()
def haar_doc(tmp_path):
    return write_doc(
        tmp_path, "haar", 1, [[2]],
        [{"q": [0], "c": "1/2"}, {"q": [1], "c": "1/2"}],
    )


@pytest.fixture()
def d4_doc(tmp_path):
    records = [{"q": [q], "c": c} for q, c in D4_COEFFS.items()]
    return write_doc(tmp_path, "d4", 1, [[2]], records)


@pytest.fixture()
def skew_doc(tmp_path):
    return write_doc(
        tmp_path, "skew", 2, [[0, 1], [3, 1]],
        [
            {"q": [0, 0], "c": "1/3"},
            {"q": [1, 0], "c": "1/3"},
            {"q": [0, 1], "c": "1/3"},
        ],
    )


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "refinable", *map(str, args)],
        capture_output=True,
        text=True,
        env=ENV,
    )


class TestAnalyze:
    def test_skew_matrix(self, skew_doc):
        result = run_cli("analyze", skew_doc)
        assert result.returncode == 0
        assert "determinant: -3" in result.stdout
        assert "2.302775637731995" in result.stdout
        assert "-1.3027756377319946" in result.stdout
        assert "inverse-norm: 1.0598622671862417" in result.stdout
        assert "dilation: yes" in result.stdout

    def test_jordan_report_for_real_spectrum(self, skew_doc):
        result = run_cli("analyze", skew_doc)
        assert "jordan-blocks:" in result.stdout


class TestBound:
    def test_d4_reports_1d_bound(self, d4_doc):
        result = run_cli("bound", d4_doc)
        assert result.returncode == 0
        assert "1d: half-widths (3.0)" in result.stdout
        assert "norm-ball: radius 3.0" in result.stdout
        assert "selected: norm-ball" in result.stdout


class TestValues:
    def test_haar_reports_nonunique_basis(self, haar_doc):
        result = run_cli("values", haar_doc)
        assert result.returncode == 0
        assert "eigenspace-dimension: 2" in result.stdout
        assert "NonUnique" in result.stdout

    def test_haar_left_closed(self, haar_doc):
        result = run_cli("values", haar_doc, "--left-closed")
        assert result.returncode == 0
        assert "phi[0]: 1.0" in result.stdout
        assert "phi[1]: 0.0" in result.stdout

    def test_d4_values(self, d4_doc):
        result = run_cli("values", d4_doc)
        assert result.returncode == 0
        assert "eigenspace-dimension: 1" in result.stdout
        assert "phi[1]: 1.366025403784" in result.stdout
        assert "phi[2]: -0.366025403784" in result.stdout


class TestOutputFormats:
    def test_structured_analyze_is_json(self, skew_doc):
        result = run_cli("analyze", skew_doc, "--format", "structured")
        assert result.returncode == 0
        data = json.loads(result.stdout)
        assert data["determinant"] == -3
        assert data["dilation"] is True
        assert len(data["eigenvalues"]) == 2

    def test_structured_bound_reports_selection(self, d4_doc):
        result = run_cli("bound", d4_doc, "--format", "structured")
        data = json.loads(result.stdout)
        assert data["selected"] == "norm-ball"
        assert data["integer_box_half_widths"] == [3]

    def test_delimited_values(self, d4_doc):
        result = run_cli("values", d4_doc, "--format", "delimited")
        assert result.returncode == 0
        rows = dict(
            line.split("\t", 1) for line in result.stdout.strip().split("\n")
        )
        assert json.loads(rows["eigenspace_dimension"]) == 1
        values = json.loads(rows["values"])
        assert values[4] == pytest.approx(1.3660254037844386, abs=1e-10)


class TestCascadeCommand:
    def test_writes_level_files(self, haar_doc, tmp_path):
        outdir = tmp_path / "dumps"
        result = run_cli("cascade", haar_doc, "--iters", 3, "--outdir", outdir)
        assert result.returncode == 0
        for level in range(4):
            path = outdir / f"haar.level{level}.tsv"
            assert path.exists()
            assert path.read_text().startswith("level\tk0\tx0\tvalue\n")
        assert "level 3: samples 8" in result.stdout

    def test_deterministic_output(self, d4_doc, tmp_path):
        args = ("cascade", d4_doc, "--iters", 4, "--outdir", tmp_path / "a")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout
        assert (tmp_path / "a" / "d4.level4.tsv").read_text() == (
            tmp_path / "a" / "d4.level4.tsv"
        ).read_text()

    def test_iters_cap(self, haar_doc):
        result = run_cli("cascade", haar_doc, "--iters", 40)
        assert result.returncode == 2


class TestRefineCommand:
    def test_d4_refine(self, d4_doc, tmp_path):
        outdir = tmp_path / "values"
        result = run_cli("refine", d4_doc, "--levels", 3, "--outdir", outdir)
        assert result.returncode == 0
        for level in range(4):
            path = outdir / f"d4.level{level}.tsv"
            assert path.exists()
            assert path.read_text().startswith("level\tk0\tx0\tvalue\n")

    def test_haar_needs_left_closed(self, haar_doc, tmp_path):
        result = run_cli("refine", haar_doc, "--outdir", tmp_path)
        assert result.returncode == 3
        ok = run_cli("refine", haar_doc, "--left-closed", "--outdir", tmp_path)
        assert ok.returncode == 0


class TestCheckCommand:
    @pytest.mark.parametrize("doc_fixture", ["haar_doc", "d4_doc", "skew_doc"])
    def test_all_invariants_pass(self, doc_fixture, request):
        doc = request.getfixturevalue(doc_fixture)
        result = run_cli("check", doc)
        assert result.returncode == 0
        assert "FAIL" not in result.stdout


class TestErrorPaths:
    def test_usage_error_is_exit_one(self):
        result = run_cli("no-such-command")
        assert result.returncode == 1

    def test_missing_file_is_exit_two(self, tmp_path):
        result = run_cli("analyze", tmp_path / "missing.json")
        assert result.returncode == 2
        assert "error: ParseError:" in result.stderr

    def test_mask_sum_violation_is_exit_two(self, tmp_path):
        doc = write_doc(
            tmp_path, "bad", 1, [[2]],
            [{"q": [0], "c": "1/2"}, {"q": [1], "c": "1/4"}],
        )
        result = run_cli("analyze", doc)
        assert result.returncode == 2
        assert "error: MaskSumViolation:" in result.stderr

    def test_not_dilation_is_exit_two(self, tmp_path):
        doc = write_doc(tmp_path, "unit", 1, [[1]], [{"q": [0], "c": 1}])
        result = run_cli("analyze", doc)
        assert result.returncode == 2
        assert "error: NotDilation:" in result.stderr

    def test_no_unit_eigenvalue_is_exit_three(self, tmp_path):
        doc = write_doc(tmp_path, "spike", 1, [[2]], [{"q": [0], "c": 1}])
        result = run_cli("values", doc)
        assert result.returncode == 3
        assert "error: NoUnitEigenvalue:" in result.stderr


class TestNonFiniteArithmetic:
    """m c_q overflows to inf for the mask {0: 1e308, 1: -1e308, 2: 1},
    although it sums to one."""

    @pytest.fixture()
    def huge_doc(self, tmp_path):
        return write_doc(
            tmp_path, "huge", 1, [[2]],
            [{"q": [0], "c": 1e308}, {"q": [1], "c": -1e308}, {"q": [2], "c": 1}],
        )

    @pytest.mark.parametrize(
        "args",
        [["values"], ["refine", "--left-closed"], ["cascade"], ["check"]],
        ids=lambda a: a[0],
    )
    def test_exit_three_with_one_error_line(self, args, huge_doc, tmp_path):
        argv = args[:1] + [huge_doc] + args[1:]
        if args[0] in ("refine", "cascade"):
            argv += ["--outdir", tmp_path / "out"]
        result = run_cli(*argv)
        assert result.returncode == 3
        assert result.stderr.startswith("error: NonFiniteArithmetic: ")
        assert result.stderr.count("\n") == 1
        assert "Traceback" not in result.stderr
