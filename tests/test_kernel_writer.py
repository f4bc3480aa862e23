"""The refinement kernel, the column-wise sample writer, and the typed errors
for oversized enumerations and int64 index overflow."""

import io
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from refinable import cascade, cli, parse_problem, pointwise, problem_from_data, run_cascade
from refinable.cascade import (
    _RUN_MIN, _WRITE_CHUNK, _formatted, refinement_step, sample_header, write_rows,
    write_samples,
)
from refinable.errors import EnumerationTooLarge, IndexOverflow, RefinableError
from refinable.linalg import DilationMatrix

from oracle import apply, fraction_power, per_row_reference

PROBLEMS = Path(__file__).resolve().parent.parent / "demos" / "problems"
SKEW3 = PROBLEMS / "skew3.json"


# ---------------------------------------------------------------------------
# the kernel against a plain dict accumulation
# ---------------------------------------------------------------------------

def reference_step(problem, indices, values, step):
    """out(k) = m sum_q c_q in(k - M^(step-1) q), accumulated tap by tap in
    a dict; keys in lexicographic order."""
    power = problem.matrix.power(step - 1)
    m = float(problem.m)
    acc = {}
    for q, coeff in problem.mask.coefficients.items():
        shift = apply(power, q)
        for idx, value in zip(indices.tolist(), values.tolist()):
            key = tuple(a + b for a, b in zip(idx, shift))
            acc[key] = acc.get(key, 0.0) + value * (m * coeff)
    keys = sorted(acc)
    return keys, [acc[k] for k in keys]


@st.composite
def dilations(draw):
    d = draw(st.integers(1, 3))
    rows = draw(
        st.lists(
            st.lists(st.integers(-3, 3), min_size=d, max_size=d),
            min_size=d, max_size=d,
        )
    )
    assume(bool(DilationMatrix.from_rows(rows).dilation_check))
    return d, rows


@st.composite
def kernel_inputs(draw):
    d, rows = draw(dilations())
    vector = st.tuples(*[st.integers(-2, 2)] * d)
    taps = draw(st.lists(vector, min_size=1, max_size=5, unique=True))
    # dyadic coefficients summing to one: products and sums stay exact, so
    # cancellations to an exact zero happen often
    nums = draw(st.lists(st.integers(-4, 4).filter(bool), min_size=len(taps) - 1,
                         max_size=len(taps) - 1))
    nums.append(8 - sum(nums))
    assume(nums[-1] != 0)
    records = [{"q": list(q), "c": f"{n}/8"} for q, n in zip(taps, nums)]
    problem = problem_from_data(d, rows, records)
    points = draw(st.lists(st.tuples(*[st.integers(-5, 5)] * d), min_size=1,
                           max_size=25, unique=True))
    value = st.one_of(
        st.sampled_from([-1.0, -0.5, 0.0, -0.0, 0.5, 1.0, 2.0]),
        st.floats(-10, 10, allow_nan=False),
    )
    values = draw(st.lists(value, min_size=len(points), max_size=len(points)))
    step = draw(st.integers(1, 3))
    return problem, np.asarray(points, dtype=np.int64), np.asarray(values), step


@settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
@given(kernel_inputs())
def test_kernel_matches_dict_accumulation(case):
    problem, indices, values, step = case
    out, sums = refinement_step(problem, indices, values, step)
    keys, expected = reference_step(problem, indices, values, step)
    assert out.dtype == np.int64
    assert [tuple(row) for row in out.tolist()] == keys
    # bit-equal, so exact zeros and their signs must agree too
    assert np.array_equal(sums.view(np.int64), np.asarray(expected).view(np.int64))


def test_kernel_keeps_exact_zero_sums(haar_problem):
    indices = np.array([[0], [1]], dtype=np.int64)
    values = np.array([1.0, -1.0])
    out, sums = refinement_step(haar_problem, indices, values, 1)
    assert out.tolist() == [[0], [1], [2]]
    assert sums.tolist() == [1.0, 0.0, -1.0]


def test_kernel_on_empty_input(quincunx_problem):
    out, sums = refinement_step(
        quincunx_problem, np.zeros((0, 2), dtype=np.int64), np.zeros(0), 2
    )
    assert out.shape == (0, 2) and sums.shape == (0,)


# ---------------------------------------------------------------------------
# the column-wise writer against the per-row format
# ---------------------------------------------------------------------------

def written(matrix, blocks):
    buffer = io.StringIO()
    write_rows(buffer, matrix, blocks)
    return buffer.getvalue()


MATRICES = {
    1: DilationMatrix.from_rows([[2]]),
    2: DilationMatrix.from_rows([[0, 1], [3, 1]]),
    3: DilationMatrix.from_rows([[1, 1, 0], [0, 1, 1], [2, 0, 1]]),
}
# non-finite values, and the neighbours of the ends of the ranges in which
# orjson and repr share a notation (below 1e-9, and [1e-4, 1e16)), besides
# zeros, subnormals and extremes; the writer tests negate them too
EDGE_VALUES = [
    0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e300, -1.5, 1 / 3,
    math.nan, math.inf, -math.inf, 1e15, 2.0**53 + 2,
    *(float(np.nextafter(x, to)) for x in (1e-9, 1e-4, 1e16) for to in (0.0, math.inf)),
    1e-9, -1e-9, 1e-4, 1e16,
]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_writer_edge_cases(d):
    matrix = MATRICES[d]
    big = 2**62 - 1
    rows = [[big] * d, [-big] * d, [0] * d, [1] * d, [-(2**53) - 1] * d,
            [7, -3, 11][:d], [2**40] * d, [-1] * d]
    indices = np.resize(np.array(rows, dtype=np.int64), (len(EDGE_VALUES), d))
    blocks = [
        (0, np.zeros((0, d), dtype=np.int64), np.zeros(0)),
        (1, indices, np.asarray(EDGE_VALUES)),
        (4, indices[::-1].copy(), -np.asarray(EDGE_VALUES)),
    ]
    assert written(matrix, blocks) == per_row_reference(matrix, blocks)


def test_formatted_matches_repr_across_exponent_range():
    # every power of 2 and of 10 of float64 with its neighbours within 50 ulps,
    # of both signs: about 550 k values, subnormals and both zeros among them
    bases = np.concatenate([
        np.ldexp(1.0, np.arange(-1074, 1024)),
        10.0 ** np.arange(-323, 309),
    ])
    bits = bases.view(np.int64)[:, None] + np.arange(-50, 51)
    inf_bits = np.array(math.inf).view(np.int64)
    column = np.clip(bits, 0, inf_bits - 1).ravel().view(np.float64)
    column = np.concatenate([column, -column])
    assert np.count_nonzero(column == 0) and np.count_nonzero(column < 5e-308)
    assert _formatted(column) == list(map(repr, column.tolist()))


def counted_repr(monkeypatch):
    """The values ``refinable.cascade`` passes to ``repr`` from now on."""
    calls = []

    def counting(x):
        calls.append(x)
        return repr(x)

    monkeypatch.setattr(cascade, "repr", counting, raising=False)
    return calls


def test_roundoff_keeps_orjson_text(monkeypatch):
    # the roundoff left where phi vanishes is spelled alike by orjson and
    # repr, so a column of it calls repr for no cell; [1e-9, 1e-4) is not
    rng = np.random.default_rng(20)
    calls = counted_repr(monkeypatch)
    roundoff = rng.standard_normal(4096) * 1e-16
    assert _formatted(roundoff) == list(map(repr, roundoff.tolist()))
    assert calls == []
    small = 10.0 ** rng.uniform(-9, -4, 4096)
    assert _formatted(small) == list(map(repr, small.tolist()))
    assert len(calls) == len(small)


@settings(max_examples=500)
@given(st.integers(0, 2**64 - 1))
def test_any_finite_float_formats_like_repr(bits):
    x = float(np.uint64(bits).view(np.float64))
    assume(math.isfinite(x))
    assert _formatted(np.array([x]))[0] == repr(x)


def test_formatted_empty_column_is_empty():
    assert _formatted(np.zeros(0)) == []
    assert _formatted(np.zeros(0, dtype=np.int64)) == []


def test_writer_header_only_when_empty():
    matrix = MATRICES[2]
    assert written(matrix, []) == sample_header(2) + "\n"
    empty = [(3, np.zeros((0, 2), dtype=np.int64), np.zeros(0))]
    assert written(matrix, empty) == sample_header(2) + "\n"


def test_writer_across_chunk_boundaries():
    matrix = MATRICES[3]
    rng = np.random.default_rng(5)
    n = 3 * _WRITE_CHUNK + 17
    indices = rng.integers(-10**6, 10**6, size=(n, 3))
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, size=n)
    blocks = [(2, indices, values)]
    assert written(matrix, blocks) == per_row_reference(matrix, blocks)


@settings(max_examples=60)
@given(
    st.integers(1, 3).flatmap(
        lambda d: st.tuples(
            st.just(d),
            st.lists(
                st.tuples(
                    st.tuples(*[st.integers(-(2**62), 2**62)] * d),
                    st.floats(allow_nan=False, allow_infinity=False),
                ),
                max_size=30,
            ),
            st.integers(0, 6),
        )
    )
)
def test_writer_matches_per_row_format(case):
    d, rows, level = case
    indices = np.array([r[0] for r in rows], dtype=np.int64).reshape(len(rows), d)
    values = np.array([r[1] for r in rows], dtype=float)
    blocks = [(level, indices, values)]
    assert written(MATRICES[d], blocks) == per_row_reference(MATRICES[d], blocks)


# small pools, so that most cells of a chunk repeat a value; each float pool
# holds both zeros, and subnormals, so that telling values apart by anything
# but their bits shows
INDEX_POOLS = [[0, 1, -1], [2**62 - 1, -(2**62) + 1, 0, 7], [-(2**53) - 1, 2**53 + 1]]
VALUE_POOLS = [
    [0.0, -0.0],
    [0.0, -0.0, 5e-324, -5e-324],
    [0.0, -0.0, 2.5e-310, -2.2250738585072014e-308, 1.0, -1.5, 1 / 3, 1e300],
]
LENGTHS = [0, 1, 7, 300, _WRITE_CHUNK - 1, _WRITE_CHUNK, _WRITE_CHUNK + 1, 2 * _WRITE_CHUNK + 5]


def drawn_column(rng, kind, pool, n, dtype):
    """One column of length n: drawn from a pool, constant, or all distinct."""
    if kind == "pool":
        return rng.choice(np.asarray(pool, dtype=dtype), size=n)
    if kind == "constant":
        return np.full(n, pool[int(rng.integers(len(pool)))], dtype=dtype)
    if dtype == np.int64:
        return rng.permutation(np.arange(n, dtype=np.int64) * 3 - n)
    # distinct bit patterns, zeros of both signs among them
    return np.concatenate([[0.0, -0.0], rng.standard_normal(n)])[rng.permutation(n + 2)][:n]


@st.composite
def repeated_blocks(draw):
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = st.sampled_from(["pool", "constant", "distinct"])
    blocks = []
    for level in sorted(draw(st.sets(st.integers(0, 6), min_size=1, max_size=3))):
        n = draw(st.sampled_from(LENGTHS))
        columns = [
            drawn_column(rng, draw(kinds), draw(st.sampled_from(INDEX_POOLS)), n, np.int64)
            for _ in range(d)
        ]
        indices = np.stack(columns, axis=1) if n else np.zeros((0, d), dtype=np.int64)
        values = drawn_column(rng, draw(kinds), draw(st.sampled_from(VALUE_POOLS)), n, float)
        blocks.append((level, indices, values))
    return d, blocks


@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
@given(repeated_blocks())
def test_writer_matches_per_row_format_on_repeated_values(case):
    d, blocks = case
    # compared as lists of lines, so a failure reports the first differing line
    # without a text diff of the whole dump
    got = written(MATRICES[d], blocks).splitlines(keepends=True)
    assert got == per_row_reference(MATRICES[d], blocks).splitlines(keepends=True)


# ---------------------------------------------------------------------------
# runs of bitwise-equal cells: one head formatted per run
# ---------------------------------------------------------------------------

def runs(bits, lengths):
    """The float column holding each head, given by its bits, repeated by
    its run length; NaN payloads and the sign of zero are kept."""
    heads = np.asarray(bits, dtype=np.int64).view(np.float64)
    return np.repeat(heads, lengths)


def bits_of(*values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


NAN_PAYLOADS = [0x7FF8000000000000, 0x7FF8000000000001, -0x0008000000000000,
                0x7FF0000000000001]


def assert_formats_like_repr(column):
    for suffix in ("", "\n7"):
        assert _formatted(column, suffix) == [repr(x) + suffix for x in column.tolist()]


def formatted_lengths(monkeypatch, column):
    """The lengths of the columns ``_formatted(column)`` hands to orjson,
    checked against ``repr``."""
    seen = []
    cells = cascade._cells

    def spy(part, suffix):
        seen.append(len(part))
        return cells(part, suffix)

    monkeypatch.setattr(cascade, "_cells", spy)
    assert_formats_like_repr(column)
    return seen[:1]


@pytest.mark.parametrize(
    ("bits", "lengths"),
    [
        (bits_of(1.0), [5000]),
        (bits_of(-0.0), [3]),
        (bits_of(0.0, -0.0) * 4, [3, 1, 2, 5, 1, 1, 4, 2]),
        (NAN_PAYLOADS + bits_of(math.inf, -math.inf, math.inf), [2, 3, 2, 4, 3, 5, 2]),
        (bits_of(1e-05, 1e16, 5e-324, -1e-05, 1e300, 2.5e-310), [4, 2, 3, 2, 6, 2]),
    ],
    ids=["constant", "one-zero", "zeros", "non-finite", "exponents"],
)
def test_runs_format_like_repr(monkeypatch, bits, lengths):
    # as drawn, and with every run stretched until the column is long
    # enough to be formatted one head per run
    assert_formats_like_repr(runs(bits, lengths))
    stretch = -(-_RUN_MIN // sum(lengths))
    long = runs(bits, [k * stretch for k in lengths])
    assert formatted_lengths(monkeypatch, long) == [len(bits)]


def test_short_columns_are_formatted_cell_by_cell(monkeypatch):
    column = np.full(_RUN_MIN - 1, 0.25)
    assert formatted_lengths(monkeypatch, column) == [_RUN_MIN - 1]
    assert formatted_lengths(monkeypatch, np.append(column, 0.25)) == [1]


@pytest.mark.parametrize("n", [_RUN_MIN, _RUN_MIN + 1, _RUN_MIN + 10, _WRITE_CHUNK])
def test_runs_taken_when_they_halve_the_cells(monkeypatch, n):
    # n // 2 runs format one head each; one run more formats every cell
    half = n // 2
    below = runs(bits_of(*np.arange(half, dtype=float)), [2] * (half - 1) + [n - 2 * half + 2])
    assert formatted_lengths(monkeypatch, below) == [half]
    lengths = [1] * (half + 1)
    lengths[-1] = n - half
    above = runs(bits_of(*np.arange(half + 1, dtype=float)), lengths)
    assert formatted_lengths(monkeypatch, above) == [n]


def test_integer_columns_are_formatted_cell_by_cell(monkeypatch):
    column = np.repeat(np.arange(3, dtype=np.int64), 100)
    assert formatted_lengths(monkeypatch, column) == [300]


def test_run_across_a_chunk_boundary():
    matrix = MATRICES[2]
    n = 2 * _WRITE_CHUNK + 9
    # one run of each value spans the first boundary and one the second
    values = runs(bits_of(0.25, -0.0, 1e-05, 0.25), [_WRITE_CHUNK - 3, 6, _WRITE_CHUNK, 6])
    indices = np.stack([np.repeat(np.arange(3), [_WRITE_CHUNK - 1, 4, n - _WRITE_CHUNK - 3]),
                        np.arange(n)], axis=1).astype(np.int64)
    blocks = [(3, indices, values)]
    assert written(matrix, blocks) == per_row_reference(matrix, blocks)


RUN_HEADS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-05, 1e16, 5e-324, 0.5, math.inf, -math.inf]),
    st.floats(allow_nan=False),
)


@st.composite
def run_length_columns(draw):
    """d, lexicographically sorted index rows whose leading column runs
    with the values, and a sorted value column given as runs of drawn
    heads."""
    d = draw(st.integers(1, 3))
    heads = sorted(draw(st.lists(RUN_HEADS, min_size=1, max_size=12)))
    lengths = draw(st.lists(st.integers(1, 300), min_size=len(heads), max_size=len(heads)))
    values = runs(bits_of(*heads), lengths)
    n = len(values)
    leading = np.repeat(np.arange(len(heads), dtype=np.int64) - 5, lengths)
    rest = [np.arange(n, dtype=np.int64)] * (d - 1)
    return d, np.stack([leading, *rest], axis=1), values


@settings(max_examples=40)
@given(run_length_columns())
def test_writer_matches_per_row_format_on_runs(case):
    d, indices, values = case
    assert_formats_like_repr(values)
    blocks = [(2, indices, values)]
    got = written(MATRICES[d], blocks).splitlines(keepends=True)
    assert got == per_row_reference(MATRICES[d], blocks).splitlines(keepends=True)


class Discard:
    def write(self, text):
        pass


# The largest levels the cascade-deep benchmark dumps, and a bound on the
# writer's tracemalloc peak on each: at 4096-row chunks it read 1.90 MB on
# skew3 (19,683 rows) and 1.37 MB on shear2d (16,384 rows), and 3.48 and
# 2.47 MB at 8192 rows, so a longer chunk fails here before it can raise the
# benchmark's peak RSS unnoticed.
WRITER_PEAKS_MB = {"skew3": (9, 2.4), "shear2d": (7, 1.8)}


@pytest.mark.parametrize("name", sorted(WRITER_PEAKS_MB))
def test_writer_memory_peak(name):
    level, limit_mb = WRITER_PEAKS_MB[name]
    problem = parse_problem((PROBLEMS / f"{name}.json").read_text())
    top = run_cascade(problem, levels=level)[-1]
    write_samples(problem, [top], Discard())  # imports orjson, caches M^-n
    tracemalloc.start()
    try:
        write_samples(problem, [top], Discard())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(top.values) > 16_000
    assert peak <= limit_mb * 1e6, peak


def read_x_columns(outdir):
    """Map (level, k) to the printed x columns over every dump in outdir."""
    columns = {}
    for path in sorted(Path(outdir).glob("*.tsv")):
        lines = path.read_text().splitlines()
        d = (len(lines[0].split("\t")) - 2) // 2
        for line in lines[1:]:
            parts = line.split("\t")
            columns[tuple(parts[: 1 + d])] = parts[1 + d : 1 + 2 * d]
    return columns


def test_cascade_and_refine_dumps_agree_on_x(tmp_path, capsys):
    assert cli.main(["cascade", str(SKEW3), "--iters", "4",
                     "--outdir", str(tmp_path / "cascade")]) == 0
    assert cli.main(["refine", str(SKEW3), "--left-closed", "--levels", "4",
                     "--outdir", str(tmp_path / "refine")]) == 0
    capsys.readouterr()
    cascade = read_x_columns(tmp_path / "cascade")
    refine = read_x_columns(tmp_path / "refine")
    shared = cascade.keys() & refine.keys()
    assert len(shared) > 100
    assert all(cascade[key] == refine[key] for key in shared)


# ---------------------------------------------------------------------------
# memoized matrix powers
# ---------------------------------------------------------------------------

def test_powers_are_memoized_and_read_only():
    matrix = DilationMatrix.from_rows([[0, 1], [3, 1]])
    assert matrix.power(3) is matrix.power(3)
    assert matrix.power(3).rows == ((3, 4), (12, 7))
    assert matrix.adjugate_power(4) is matrix.adjugate_power(4)
    assert matrix.inverse_power(4)[0] is matrix.adjugate_power(4)
    array = matrix.inverse_power_array(2)
    assert array is matrix.inverse_power_array(2)
    assert not array.flags.writeable
    adj, det = matrix.inverse_power(2)
    np.testing.assert_array_equal(array, np.asarray(adj.rows) / det)
    assert not matrix.inverse_power_array(0).flags.writeable


def test_powers_requested_out_of_order_are_exact():
    matrix = DilationMatrix.from_rows([[1, -1, 2], [0, 2, 1], [3, 0, -2]])
    for n in (7, 3, 12, 0, 12, 5):
        assert [list(row) for row in matrix.power(n).rows] == fraction_power(matrix.matrix, n)
    with pytest.raises(ValueError):
        matrix.power(-1)
    with pytest.raises(ValueError):
        matrix.adjugate_power(-1)


# ---------------------------------------------------------------------------
# typed errors, exit code 3
# ---------------------------------------------------------------------------

def error_lines(capsys):
    return capsys.readouterr().err.strip().splitlines()


def test_index_overflow_is_typed(tmp_path, capsys):
    doc = tmp_path / "wide.json"
    doc.write_text(json.dumps({
        "dimension": 1, "matrix": [[100000]],
        "coefficients": [{"q": [0], "c": "1/2"}, {"q": [1], "c": "1/2"}],
    }))
    rc = cli.main(["cascade", str(doc), "--iters", "5", "--outdir", str(tmp_path)])
    lines = error_lines(capsys)
    assert rc == 3
    assert len(lines) == 1 and lines[0].startswith("error: IndexOverflow: ")
    assert issubclass(IndexOverflow, RefinableError)


def test_enumeration_refused_before_refining(tmp_path, capsys, monkeypatch):
    def no_refinement(*args):
        raise AssertionError("refinement ran before the enumeration check")

    monkeypatch.setattr(pointwise, "refinement_step", no_refinement)
    rc = cli.main(["refine", str(SKEW3), "--left-closed", "--levels", "9",
                   "--outdir", str(tmp_path)])
    lines = error_lines(capsys)
    assert rc == 3
    assert len(lines) == 1 and lines[0].startswith("error: EnumerationTooLarge: ")
    assert not list(tmp_path.glob("*.tsv"))


def test_lattice_enumeration_cap_is_typed(quincunx_problem):
    bound = pointwise.best_bound(quincunx_problem)
    with pytest.raises(EnumerationTooLarge):
        pointwise.lattice_points_in_bound(quincunx_problem, bound, 60)
