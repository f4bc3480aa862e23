"""The bench harness's tracer still fits the library: ``bench/tracing.py``,
imported as it is, wraps the library's functions, and a traced run of the
value, refine, cascade, check, analyze and bound subcommands records every
hooked span with its sizes and without an error.  A change of what those functions take or
return would otherwise break only traced benchmark runs."""

import importlib.util
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from refinable import cli, parse_problem, pointwise

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "demos" / "problems"


def load_tracing(monkeypatch):
    """``bench/tracing.py`` as a module of its own; its dataclasses need it
    registered while it runs."""
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["haar", "quincunx"])
def test_traced_runs_record_every_hooked_span(name, tmp_path, monkeypatch):
    tracing = load_tracing(monkeypatch)
    doc = str(PROBLEMS / f"{name}.json")
    runs = [
        ["values", doc, "--left-closed"],
        ["refine", doc, "--left-closed", "--levels", "2", "--outdir", str(tmp_path)],
        ["cascade", doc, "--iters", "3", "--outdir", str(tmp_path)],
        ["check", doc, "--levels", "2"],
        ["analyze", doc],
        ["bound", doc],
    ]
    original = pointwise.refine_values
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert pointwise.refine_values is not original
        for argv in runs:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
                assert cli.main(argv) == 0, err.getvalue()
    finally:
        tracer.uninstall()
    assert pointwise.refine_values is original
    assert [s.name for s in tracer.spans if s.error] == []
    hooked = [s for s in tracer.spans if s.name in tracing.HOOKS]
    assert [s.name for s in hooked if not s.sizes] == []
    expected = {
        "pointwise.candidate_points", "pointwise.lattice_points_in_bound",
        "pointwise.build_transfer_matrix", "pointwise.integer_values",
        "pointwise.refine_values", "pointwise.export_values",
        "cascade.refinement_step", "cascade.cascade_step", "cascade.write_samples",
        "pointwise.converged_integer_values", "pointwise.periodization_check",
    }
    assert expected <= {s.name for s in tracer.spans}
    refine = next(s for s in hooked if s.name == "pointwise.refine_values")
    assert refine.sizes["levels"] == 2 and refine.sizes["points"] > 0
    candidates = next(s for s in hooked if s.name == "pointwise.candidate_points")
    problem = parse_problem(Path(doc).read_text())
    assert candidates.sizes["n"] == len(pointwise.candidate_points(problem))
