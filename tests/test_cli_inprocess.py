"""Repeated in-process calls of ``cli.main``: the parser is built once per
process, so a second call must behave exactly like the first."""

import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from refinable import cli

PROBLEMS = Path(__file__).resolve().parent.parent / "demos" / "problems"


def call(argv, outdir: Path):
    """Exit code, stdout, stderr and the dump files of one ``cli.main`` call."""
    for path in outdir.glob("*"):
        path.unlink()
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    dumps = {path.name: path.read_bytes() for path in sorted(outdir.glob("*"))}
    return code, out.getvalue(), err.getvalue(), dumps


@pytest.fixture()
def docs(tmp_path):
    huge = tmp_path / "huge.json"
    huge.write_text(
        '{"dimension": 1, "matrix": [[2]], "coefficients": [{"q": [0], "c": 1e308},'
        ' {"q": [1], "c": -1e308}, {"q": [2], "c": 1}]}'
    )
    return {"skew3": str(PROBLEMS / "skew3.json"), "haar": str(PROBLEMS / "haar.json"),
            "huge": str(huge)}


CASES = {
    "analyze": (["analyze", "skew3", "--format", "delimited"], 0),
    "bound": (["bound", "skew3"], 0),
    "cascade": (["cascade", "haar", "--iters", "3", "--outdir", "{out}"], 0),
    "values": (["values", "haar", "--left-closed", "--format", "structured"], 0),
    "refine": (["refine", "skew3", "--left-closed", "--levels", "2", "--outdir", "{out}"], 0),
    "check": (["check", "skew3"], 0),
    "usage-error": (["values", "haar", "--no-such-flag"], 1),
    "missing-command": ([], 1),
    "typed-error": (["values", "huge"], 3),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_second_call_repeats_the_first(case, docs, tmp_path):
    template, expected = CASES[case]
    outdir = tmp_path / "out"
    outdir.mkdir()
    argv = [docs.get(a, a).replace("{out}", str(outdir)) for a in template]
    first = call(argv, outdir)
    second = call(argv, outdir)
    assert first[0] == expected, first[2]
    assert second == first
    assert first[1] or first[2]
    if "--outdir" in template:
        assert first[3]
