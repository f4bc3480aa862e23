"""The one writer on real data: the cascade and refine dumps of the five
bundled problems equal the per-row reference byte for byte.  Their columns
mostly repeat values (tile masks give small-integer cascade values,
refinement stores exact zeros at the images M k, and a coordinate that
depends only on the leading indices is constant along runs of the sorted
rows), which the writer's run path, one formatted head per run of equal
cells, relies on; the Daubechies cascade is the all-distinct contrast.  Each
refine level's dump is the padded oracle's dump less rows whose value is
0.0."""

import io
from pathlib import Path

import numpy as np
import pytest

from refinable import (
    ValueTable,
    export_values,
    parse_problem,
    refine_values,
    resolve_values,
    run_cascade,
    write_samples,
)

from oracle import per_row_reference, reference_refine

PROBLEMS = Path(__file__).resolve().parent.parent / "demos" / "problems"
NAMES = sorted(path.stem for path in PROBLEMS.glob("*.json"))


def test_five_bundled_problems():
    assert NAMES == ["daubechies4", "haar", "quincunx", "shear2d", "skew3"]


@pytest.fixture(scope="module", params=NAMES)
def problem(request):
    return parse_problem((PROBLEMS / f"{request.param}.json").read_text())


def assert_dump(problem, dump, blocks):
    # compared as lists of lines, so a failure names the first differing line
    expected = per_row_reference(problem.matrix, blocks)
    assert dump.splitlines(keepends=True) == expected.splitlines(keepends=True)


def test_cascade_dump_matches_per_row_format(problem):
    iterates = run_cascade(problem, levels=5)
    buffer = io.StringIO()
    write_samples(problem, iterates, buffer)
    assert_dump(problem, buffer.getvalue(), [(f.level, f.indices, f.values) for f in iterates])


def test_refine_dump_matches_per_row_format(problem):
    _, _, values = resolve_values(problem, left_closed=True)
    table = refine_values(problem, values, 3)
    buffer = io.StringIO()
    export_values(problem, table, buffer)
    blocks = [(j, f.indices, f.values) for j, f in sorted(table.samples.items())]
    # every refinement level still stores exact zeros, at the images M k the
    # kernel did not reach and at exact-zero sums
    assert all(np.count_nonzero(f.values == 0.0) > 1 for f in table.samples.values() if f.level)
    assert_dump(problem, buffer.getvalue(), blocks)


def is_subsequence(short, long):
    rest = iter(long)
    return all(line in rest for line in short)


def test_refine_dump_is_the_padded_dump_without_zero_rows(problem):
    """Levels 0-6: a level's dump keeps every line of the padded oracle's
    dump whose value is not 0.0 and writes no line the oracle does not, in
    the oracle's order."""
    _, _, values = resolve_values(problem, left_closed=True)
    table = refine_values(problem, values, 6)
    oracle = reference_refine(problem, values.as_dict(), 6)
    assert sorted(table.samples) == sorted(oracle) == list(range(7))
    for level, sampled in sorted(table.samples.items()):
        buffer = io.StringIO()
        export_values(problem, ValueTable({level: sampled}), buffer)
        got = buffer.getvalue().splitlines(keepends=True)
        rows = oracle[level]
        indices = np.asarray(list(rows), dtype=np.int64).reshape(len(rows), problem.dim)
        block = [(level, indices, list(rows.values()))]
        expected = per_row_reference(problem.matrix, block).splitlines(keepends=True)
        nonzero = [line for line in expected if not line.endswith("\t0.0\n")]
        assert is_subsequence(nonzero, got)
        assert is_subsequence(got, expected)
