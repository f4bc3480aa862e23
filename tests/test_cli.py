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


def run_cli(*args, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "refinable", *map(str, args)],
        capture_output=True,
        text=True,
        env=ENV,
        timeout=timeout,
    )


# two distinct eigenvalues 1e-6 apart in relative terms, and |det| about 1e12
CLOSE_EIGENVALUES = {
    "diagonal": [[1000000, 0], [0, 1000001]],
    "triangular": [[1000000, 1], [0, 1000001]],
}


def close_doc(tmp_path, matrix):
    return write_doc(
        tmp_path, "close", 2, matrix,
        [{"q": [0, 0], "c": "1/2"}, {"q": [1, 0], "c": "1/2"}],
    )


def assert_one_error_line(result, code):
    assert result.returncode == 3
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {code}: ")


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

    def test_long_shear_reports_its_four_classes(self, tmp_path):
        # m = 4, while the box spanned by M's columns holds 9,000,009 points
        doc = write_doc(tmp_path, "shear", 2, [[2, 3000000], [0, 2]],
                        [{"q": [0, 0], "c": "1/2"}, {"q": [1, 0], "c": "1/2"}])
        result = run_cli("analyze", doc, "--format", "structured")
        assert result.returncode == 0, result.stderr
        reps = [c["representative"] for c in json.loads(result.stdout)["coset_sums"]]
        assert reps == [[0, 0], [1, 0], [1500000, 1], [1500001, 1]]

    @pytest.mark.parametrize("matrix", [[[2, 10**9], [0, 2]], [[2, 10**9], [0, 3]]])
    def test_ill_conditioned_transform_reports_every_other_field(self, tmp_path, matrix):
        doc = write_doc(tmp_path, "ill", 2, matrix,
                        [{"q": [0, 0], "c": "1/2"}, {"q": [1, 0], "c": "1/2"}])
        note = "jordan-blocks: not available (transform condition number exceeds 1e+08)"
        result = run_cli("analyze", doc)
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout.splitlines()[-1] == note
        assert "dilation: yes" in result.stdout
        result = run_cli("analyze", doc, "--format", "structured")
        assert (result.returncode, result.stderr) == (0, "")
        data = json.loads(result.stdout)
        assert data["jordan_blocks"] is None and data["dilation"] is True

    def test_complex_spectrum_line(self, tmp_path):
        doc = write_doc(tmp_path, "quincunx", 2, [[1, 1], [-1, 1]],
                        [{"q": [0, 0], "c": "1/2"}, {"q": [1, 0], "c": "1/2"}])
        result = run_cli("analyze", doc)
        assert result.returncode == 0
        assert result.stdout.splitlines()[-1] == "jordan-blocks: not real (complex eigenvalues)"


class TestBound:
    def test_d4_reports_1d_bound(self, d4_doc):
        result = run_cli("bound", d4_doc)
        assert result.returncode == 0
        assert "1d: half-widths (3.0)" in result.stdout
        assert "norm-ball: radius 3.0" in result.stdout
        assert "selected: norm-ball" in result.stdout

    @pytest.mark.parametrize("name", sorted(CLOSE_EIGENVALUES))
    def test_close_eigenvalues_keep_the_jordan_parallelepiped(self, tmp_path, name):
        result = run_cli("bound", close_doc(tmp_path, CLOSE_EIGENVALUES[name]))
        assert result.returncode == 0
        assert "jordan-parallelepiped" in result.stdout


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

    def test_support_above_every_sample_is_empty(self, haar_doc, tmp_path):
        result = run_cli("cascade", haar_doc, "--iters", 2, "--eps", 1e300,
                         "--outdir", tmp_path)
        assert result.returncode == 0
        lines = result.stdout.splitlines()
        assert [line.split(":")[0] for line in lines] == ["level 0", "level 1", "level 2"]
        assert all(line.endswith(", support empty") for line in lines)


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

    def test_containment_passes_with_no_samples_above_eps(self, haar_doc):
        result = run_cli("check", haar_doc, "--eps", 1e300)
        assert result.returncode == 0
        assert "PASS cascade-containment (no samples above eps)" in result.stdout.splitlines()


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

    @pytest.mark.parametrize(
        "args",
        [
            ["cascade", "--iters", "-1"],
            ["cascade", "--iters", "13"],
            ["cascade", "--eps", "-1"],
            ["refine", "--levels", "0"],
            ["refine", "--levels", "13"],
            ["check", "--iters", "-1"],
            ["check", "--iters", "13"],
            ["check", "--levels", "0"],
            ["check", "--levels", "13"],
            ["check", "--eps", "-1"],
            ["check", "--eps", "nan"],
        ],
        ids=" ".join,
    )
    def test_out_of_range_flag_is_one_parse_error(self, d4_doc, tmp_path, args):
        outdir = [] if args[0] == "check" else ["--outdir", tmp_path]
        result = run_cli(args[0], d4_doc, *args[1:], *outdir)
        assert result.returncode == 2
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ParseError: ")
        assert "Traceback" not in result.stderr
        assert not list(tmp_path.glob("*.tsv"))

    @pytest.mark.parametrize("command", ["analyze"])
    def test_huge_residue_box_is_refused(self, tmp_path, command):
        # Z^2 / M Z^2 has about 1e12 classes
        doc = close_doc(tmp_path, CLOSE_EIGENVALUES["diagonal"])
        assert_one_error_line(run_cli(command, doc, timeout=30), "EnumerationTooLarge")

    @pytest.mark.parametrize("command", ["values", "refine", "check"])
    def test_oversized_transfer_matrix_is_refused(self, tmp_path, command):
        # 6,657 candidate points: a 354 MB dense transfer matrix
        doc = write_doc(
            tmp_path, "wide", 2, [[-3, 3], [-1, 0]],
            [{"q": [q, 0], "c": "1/3"} for q in range(3)],
        )
        args = ["--outdir", tmp_path] if command == "refine" else []
        assert_one_error_line(run_cli(command, doc, *args, timeout=30), "EnumerationTooLarge")

    @pytest.mark.parametrize("command", ["cascade", "check"])
    def test_oversized_cascade_level_is_refused_before_it_allocates(self, tmp_path, command):
        resource = pytest.importorskip("resource")
        # a tile with 512^n samples at level n: level 3 would scatter
        # 512 x 512^2 = 134,217,728 rows, about 2 GB of keys and weights alone
        doc = write_doc(
            tmp_path, "tile512", 1, [[512]],
            [{"q": [q], "c": "1/512"} for q in range(512)],
        )
        args = ["--outdir", tmp_path / "dumps"] if command == "cascade" else []
        result = subprocess.run(
            [sys.executable, "-m", "refinable", command, str(doc), "--iters", "3",
             *map(str, args)],
            capture_output=True,
            text=True,
            env={**ENV, "OPENBLAS_NUM_THREADS": "1"},
            timeout=60,
            # 1 GiB of address space: an allocating level ends in MemoryError
            # instead of exhausting the host's memory
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)),
        )
        assert_one_error_line(result, "EnumerationTooLarge")
        assert not list(tmp_path.glob("dumps/*.tsv"))

    def test_oversized_refine_level_is_refused_before_it_allocates(self, tmp_path):
        resource = pytest.importorskip("resource")
        # 256 taps on M = 16: every level's bound box passes the enumeration
        # cap, level 3 keeps 69,650 kernel rows (a 1.1 M-row scatter), and
        # level 4 would scatter 256 x 69,650 = 17,830,400 rows, over 1 GB
        doc = write_doc(
            tmp_path, "comb16", 1, [[16]],
            [{"q": [q], "c": "1/256"} for q in range(256)],
        )
        # the CLI, with a merge that fails on any scatter over the cap
        main = (
            "import sys\n"
            "from refinable import cascade, cli\n"
            "merge = cascade._merge_runs\n"
            "def capped_merge(keys, weights):\n"
            "    assert len(keys) <= cascade._SCATTER_CAP, 'an over-cap scatter was merged'\n"
            "    return merge(keys, weights)\n"
            "cascade._merge_runs = capped_merge\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", main, "refine", str(doc), "--levels", "4",
             "--outdir", str(tmp_path / "dumps")],
            capture_output=True,
            text=True,
            env={**ENV, "OPENBLAS_NUM_THREADS": "1"},
            timeout=60,
            # 1 GiB of address space, as in the cascade test above
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)),
        )
        assert_one_error_line(result, "EnumerationTooLarge")
        assert result.stderr == (
            "error: EnumerationTooLarge: level 4 would scatter 17830400 rows "
            "(256 taps x 69650 samples), above the cap of 16777216\n"
        )
        assert not list(tmp_path.glob("dumps/*.tsv"))

    def test_allocation_failure_is_one_error_line(self, tmp_path):
        resource = pytest.importorskip("resource")
        # shear2d's level 12 scatters exactly the 2^24 rows the cap allows,
        # which 512 MiB of address space cannot hold
        problem = Path(__file__).resolve().parent.parent / "demos" / "problems" / "shear2d.json"
        result = subprocess.run(
            [sys.executable, "-m", "refinable", "cascade", str(problem), "--iters", "12",
             "--outdir", str(tmp_path / "dumps")],
            capture_output=True,
            text=True,
            env={**ENV, "OPENBLAS_NUM_THREADS": "1"},
            timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**29, 2**29)),
        )
        assert_one_error_line(result, "MemoryError")


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


BIG = 10**400


class TestHugeIntegers:
    """Integers beyond float range in a problem document end in one error
    line: a coefficient is invalid input, a matrix whose characteristic
    polynomial overflows is a numerical outcome."""

    CASES = {
        "coefficient": ([[2]], [{"q": [0], "c": BIG}, {"q": [1], "c": 1 - BIG}], 2, "ParseError"),
        "rational": ([[2]], [{"q": [0], "c": f"{BIG}/1"}, {"q": [1], "c": "1/2"}], 2, "ParseError"),
        "matrix": ([[BIG]], [{"q": [0], "c": "1/2"}, {"q": [1], "c": "1/2"}], 3, "NonFiniteArithmetic"),
    }

    @pytest.mark.parametrize("command", ["analyze", "bound"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_one_error_line(self, tmp_path, command, case):
        matrix, coefficients, code, error = self.CASES[case]
        result = run_cli(command, write_doc(tmp_path, case, 1, matrix, coefficients))
        assert result.returncode == code
        assert result.stderr.startswith(f"error: {error}: ")
        assert result.stderr.count("\n") == 1
        assert result.stdout == ""

    # matrix entries that a problem document holds but int64 lattice indices
    # (and, for the 2-D case, a float m = |det M|) cannot
    OVERSIZED = {
        "scalar": (1, [[10**100]], [{"q": [0], "c": "1/2"}, {"q": [1], "c": "1/2"}]),
        "diagonal": (
            2, [[10**155, 1], [0, 10**155]],
            [{"q": [0, 0], "c": "1/2"}, {"q": [1, 0], "c": "1/2"}],
        ),
    }

    @pytest.mark.parametrize(
        ("case", "command"),
        [("scalar", "values"), ("scalar", "refine"),
         ("diagonal", "values"), ("diagonal", "refine"), ("diagonal", "cascade")],
    )
    def test_oversized_matrix_is_index_overflow(self, tmp_path, case, command):
        dimension, matrix, coefficients = self.OVERSIZED[case]
        doc = write_doc(tmp_path, case, dimension, matrix, coefficients)
        extra = [] if command == "values" else ["--outdir", tmp_path / "out"]
        result = run_cli(command, doc, *extra)
        assert result.returncode == 3
        assert result.stderr.startswith("error: IndexOverflow: ")
        assert result.stderr.count("\n") == 1
        assert result.stdout == ""

    # below two levels no power of M is formed, but m = |det M| = 10**310
    # scales every level's values and every iterate's mass
    @pytest.mark.parametrize("initial", ["box", "hat"])
    @pytest.mark.parametrize("iters", [0, 1])
    def test_shallow_cascade_with_huge_determinant(self, tmp_path, iters, initial):
        dimension, matrix, coefficients = self.OVERSIZED["diagonal"]
        doc = write_doc(tmp_path, "diagonal", dimension, matrix, coefficients)
        outdir = tmp_path / "out"
        result = run_cli("cascade", doc, "--iters", iters, "--initial", initial,
                         "--outdir", outdir)
        assert result.returncode == 3
        assert result.stderr.startswith("error: NonFiniteArithmetic: ")
        assert result.stderr.count("\n") == 1
        assert result.stdout == ""
        # refused before any level is written
        assert not outdir.exists()


def run_with_closed_stdout(*args):
    """Run the CLI with stdout a pipe whose reading end is already closed."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(
            [sys.executable, "-m", "refinable", *map(str, args)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=ENV,
        )
    finally:
        os.close(write_end)


class TestBrokenPipe:
    """A reader that goes away early (``refinable ... | head -1``) ends the
    run with exit code 1 and nothing on stderr, however long the output."""

    def test_short_output_fails_at_the_final_flush(self, haar_doc):
        result = run_with_closed_stdout("analyze", haar_doc)
        assert (result.returncode, result.stderr) == (1, "")

    def test_long_output_fails_while_printing(self, tmp_path):
        # 3-D tensor product of D4 with M = 2I: about 67 kB of JSON
        records = [
            {"q": [i, j, k], "c": D4_COEFFS[i] * D4_COEFFS[j] * D4_COEFFS[k]}
            for i in range(4) for j in range(4) for k in range(4)
        ]
        doc = write_doc(tmp_path, "d4x3", 3, [[2, 0, 0], [0, 2, 0], [0, 0, 2]], records)
        assert len(run_cli("values", doc, "--format", "structured").stdout) > 8192
        result = run_with_closed_stdout("values", doc, "--format", "structured")
        assert (result.returncode, result.stderr) == (1, "")
