"""Array-backed value refinement: the enumeration rows, the per-level sorted
lookup, transfer assembly by lookup, and the export/read round trip, each
against the dict- and tuple-based algorithm it replaced."""

import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st

from refinable import (
    ValueTable,
    build_transfer_matrix,
    candidate_points,
    export_values,
    lattice_points_in_bound,
    periodization_check,
    problem_from_data,
    read_values,
    refine_consistency,
    refine_values,
    refinement_step,
)
from refinable.bounds import best_bound
from refinable.cascade import SampledFunction
from refinable.errors import (
    ContractionSearchExhausted,
    DomainTooSmall,
    EnumerationTooLarge,
    IndexOverflow,
)
from refinable.pointwise import _enumeration_halves

from oracle import apply, reference_refine, seed_from
from test_kernel_writer import MATRICES, dilations

# enumeration boxes above this many points make an example too slow
_VOLUME_LIMIT = 40_000


# ---------------------------------------------------------------------------
# the dict- and tuple-based references
# ---------------------------------------------------------------------------

def reference_consistency(problem, table):
    """max |phi_j(M k) - phi_(j-1)(k)| by a per-index dict lookup."""
    worst = 0.0
    for level in range(1, max(table) + 1):
        for idx, value in table[level - 1].items():
            upper = table[level].get(apply(problem.matrix.matrix, idx))
            if upper is not None:
                worst = max(worst, abs(upper - value))
    return worst


def reference_transfer(problem, points):
    """The O(N^2) assembly: one mask lookup per (row, column) pair."""
    m = float(problem.m)
    coeffs = problem.mask.coefficients
    n = len(points)
    matrix = np.zeros((n, n))
    for i, ki in enumerate(points):
        mki = apply(problem.matrix.matrix, ki)
        for j, kj in enumerate(points):
            c = coeffs.get(tuple(a - b for a, b in zip(mki, kj)))
            if c is not None:
                matrix[i, j] = m * c
    return matrix


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def same_levels(got, expected):
    """Equal keys in equal order and bit-equal values, -0.0 included."""
    assert list(got) == list(expected)
    for level in expected:
        assert list(got[level]) == list(expected[level])
        assert np.array_equal(
            bits(list(got[level].values())), bits(list(expected[level].values()))
        )


# ---------------------------------------------------------------------------
# random problems with small enumerations
# ---------------------------------------------------------------------------

@st.composite
def refine_cases(draw):
    d, rows = draw(dilations())
    vector = st.tuples(*[st.integers(-2, 2)] * d)
    taps = draw(st.lists(vector, min_size=1, max_size=4, unique=True))
    nums = draw(st.lists(st.integers(-4, 4).filter(bool), min_size=len(taps) - 1,
                         max_size=len(taps) - 1))
    nums.append(8 - sum(nums))
    assume(nums[-1] != 0)
    records = [{"q": list(q), "c": f"{n}/8"} for q, n in zip(taps, nums)]
    problem = problem_from_data(d, rows, records)
    levels = draw(st.integers(1, 2))
    try:
        points = candidate_points(problem)
        bound = best_bound(problem)
        volumes = [
            math.prod(2 * h + 1 for h in _enumeration_halves(problem, bound, level))
            for level in range(1, levels + 1)
        ]
    except (ContractionSearchExhausted, EnumerationTooLarge):
        assume(False)
    assume(len(points) <= 200 and max(volumes) <= _VOLUME_LIMIT)
    value = st.one_of(
        st.sampled_from([0.0, -0.0, 0.5, 1.0, -0.25]),
        st.floats(-4, 4, allow_nan=False),
    )
    rows = list(map(tuple, points.tolist()))
    chosen = draw(st.lists(st.sampled_from(rows), min_size=1, max_size=6, unique=True))
    seed = {p: draw(value) for p in chosen}
    return problem, seed, levels


_PROPERTY = settings(
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


@_PROPERTY
@given(refine_cases())
def test_refine_matches_dict_reference(case):
    """The stored rows are a subset of the padded oracle's with the same
    bits, every oracle row left out is +0.0, and each level holds the image
    M k of every row k one level down."""
    problem, seed, levels = case
    try:
        expected = reference_refine(problem, seed, levels)
    except DomainTooSmall:
        event("escaped the bound")
        with pytest.raises(DomainTooSmall):
            refine_values(problem, seed_from(seed), levels)
        return
    table = refine_values(problem, seed_from(seed), levels)
    assert sorted(table.samples) == sorted(expected)
    got = table.levels
    for level, oracle in expected.items():
        stored = got[level]
        # a subsequence of the oracle's lexicographic order
        assert list(stored) == [k for k in oracle if k in stored]
        assert np.array_equal(
            bits([stored[k] for k in stored]), bits([oracle[k] for k in stored])
        )
        left_out = [v for k, v in oracle.items() if k not in stored]
        assert np.all(bits(left_out) == bits(0.0))
        if level:
            images = {apply(problem.matrix.matrix, k) for k in got[level - 1]}
            assert images <= set(stored)
    for level, sampled in table.samples.items():
        assert sampled.level == level
        assert sampled.indices.dtype == np.int64
    assert refine_consistency(problem, table) == reference_consistency(problem, expected)


@_PROPERTY
@given(refine_cases(), st.randoms(use_true_random=False))
def test_transfer_matches_quadratic_reference(case, rnd):
    problem = case[0]
    points = list(candidate_points(problem))
    rnd.shuffle(points)
    transfer = build_transfer_matrix(problem, points)
    assert transfer.points.tolist() == [p.tolist() for p in points]
    assert np.array_equal(bits(transfer.matrix), bits(reference_transfer(problem, points)))


@_PROPERTY
@given(refine_cases())
def test_enumeration_rows_sorted_and_distinct(case):
    problem, _, levels = case
    bound = best_bound(problem)
    for level in range(levels + 1):
        rows = lattice_points_in_bound(problem, bound, level)
        assert rows.dtype == np.int64 and rows.ndim == 2 and rows.shape[1] == problem.dim
        as_tuples = list(map(tuple, rows.tolist()))
        assert as_tuples == sorted(set(as_tuples))
        coords = rows.astype(float) @ problem.matrix.inverse_power_array(level).T
        assert bool(np.all(bound.contains_many(coords)))
        if level == 0:
            assert candidate_points(problem).tolist() == rows.tolist()


def test_refine_refuses_images_beyond_int64():
    # a zero-radius mask keeps every level's bound box tiny, so only the
    # images M k meet the matrix entry beyond int64
    problem = problem_from_data(1, [[10**100]], [{"q": [0], "c": "1/1"}])
    with pytest.raises(IndexOverflow):
        refine_values(problem, seed_from({(0,): 1.0}), 1)


def test_transfer_rejects_empty_points(haar_problem):
    # repeated points are covered in test_pointwise
    with pytest.raises(ValueError, match="nonempty"):
        build_transfer_matrix(haar_problem, [])


# ---------------------------------------------------------------------------
# export and read
# ---------------------------------------------------------------------------

def sampled(level, rows, values, d):
    indices = np.asarray(rows, dtype=np.int64).reshape(len(rows), d)
    return SampledFunction(level, indices, np.asarray(values, dtype=float))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_export_read_round_trip(d):
    matrix_problem = problem_from_data(
        d, [list(row) for row in MATRICES[d].matrix.rows], [{"q": [0] * d, "c": "1/1"}]
    )
    rng = np.random.default_rng(d)
    full = sorted({tuple(row) for row in rng.integers(-40, 40, size=(30, d)).tolist()})
    edge = [0.0, -0.0, 5e-324, -2.5e-310, 1e300, 1 / 3]
    values = edge + rng.standard_normal(len(full) - len(edge)).tolist()
    table = ValueTable(
        {
            0: sampled(0, [(0,) * d], [1.0], d),
            1: sampled(1, [], [], d),
            3: sampled(3, full, values, d),
        }
    )
    buffer = io.StringIO()
    export_values(matrix_problem, table, buffer)
    buffer.seek(0)
    again = read_values(buffer)
    # a level without rows leaves nothing in the file to read back
    assert sorted(again.samples) == [0, 3]
    same_levels(again.levels, {j: table.levels[j] for j in (0, 3)})
    assert again.samples[0].values.tolist() == [1.0]
    for j in (0, 3):
        assert np.array_equal(again.samples[j].indices, table.samples[j].indices)


def test_read_sorts_rows_and_rejects_repeats():
    header = "level\tk0\tk1\tx0\tx1\tvalue\n"
    rows = ["2\t1\t0\t0.0\t0.0\t0.5", "2\t-1\t3\t0.0\t0.0\t0.25", "2\t1\t-2\t0.0\t0.0\t-0.0"]
    table = read_values(io.StringIO(header + "\n".join(rows) + "\n"))
    assert table.samples[2].indices.tolist() == [[-1, 3], [1, -2], [1, 0]]
    assert bits(table.samples[2].values).tolist() == bits([0.25, -0.0, 0.5]).tolist()
    assert sorted(table.samples) == [2]
    with pytest.raises(ValueError, match="repeats"):
        read_values(io.StringIO(header + rows[0] + "\n" + rows[0] + "\n"))


@pytest.mark.parametrize("text", ["level\tk0\tx0\tvalue\n", "level\tk0\tx0\tvalue\n\n"])
def test_read_refuses_a_dump_without_rows(text):
    with pytest.raises(ValueError, match="^the dump has no rows below its header$"):
        read_values(io.StringIO(text))


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
def test_read_rejects_non_finite_values(text):
    header = "level\tk0\tx0\tvalue\n"
    with pytest.raises(ValueError, match="^values must be finite$"):
        read_values(io.StringIO(header + f"0\t0\t0.0\t{text}\n"))


@pytest.mark.parametrize(
    ("text", "match"),
    [
        # d = 1.5 columns: read as d = 1, the x0 cell 0.5 was taken for the value
        ("level\tk0\tk1\tx0\tvalue\n0\t1\t2\t0.5\t0.25\n", "header"),
        ("level\tfoo\tbar\tvalue\n0\t1\t0.5\t0.25\n", "header"),
        ("level\tk0\tk1\tx0\tx1\tvalue\n0\t1\t2\t0.5\n", "6 fields"),
        ("level\tk0\tx0\tvalue\n0\t1\t0.5\t0.25\t9\n", "4 fields"),
    ],
    ids=["half-a-dimension", "foreign-names", "short-row", "long-row"],
)
def test_read_refuses_any_layout_but_the_writers(text, match):
    with pytest.raises(ValueError, match=match):
        read_values(io.StringIO(text))


@pytest.mark.parametrize(
    ("row", "cell"),
    [
        ("99999999999999999999\t0\t0.0\t0.5", "level cell 99999999999999999999"),
        ("0\t99999999999999999999\t0.0\t0.5", "k0 cell 99999999999999999999"),
        ("0\t-9223372036854775809\t0.0\t0.5", "k0 cell -9223372036854775809"),
    ],
    ids=["level", "index", "index-below"],
)
def test_read_refuses_cells_beyond_int64(row, cell):
    with pytest.raises(ValueError, match=f"^{cell} does not fit in int64$"):
        read_values(io.StringIO(f"level\tk0\tx0\tvalue\n0\t1\t0.0\t0.25\n{row}\n"))


class TestSampledFunction:
    def test_rejects_negative_level(self):
        with pytest.raises(ValueError, match="level must be nonnegative"):
            SampledFunction(-1, np.zeros((1, 1), dtype=np.int64), np.ones(1))

    @pytest.mark.parametrize(
        "indices, values",
        [
            (np.zeros((2, 1), dtype=np.int64), np.ones(1)),
            (np.zeros(2, dtype=np.int64), np.ones(2)),
        ],
    )
    def test_rejects_misaligned_arrays(self, indices, values):
        with pytest.raises(ValueError, match="indices and values must align"):
            SampledFunction(0, indices, values)

    @pytest.mark.parametrize(
        "indices", [np.array([[0.5, 1.9]]), np.array([[0, 1]], dtype=np.uint64)]
    )
    def test_rejects_non_integer_indices(self, indices):
        # a float row would be truncated by the kernel and the writer
        with pytest.raises(ValueError, match="^indices must be integers, not "):
            SampledFunction(0, indices, np.ones(1))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_values(self, bad):
        with pytest.raises(ValueError, match="values must be finite"):
            SampledFunction(2, np.array([[0], [1]], dtype=np.int64), np.array([1.0, bad]))

    def test_holds_level_indices_and_values(self):
        f = sampled(1, [(0, 1), (2, -3)], [0.5, 0.25], 2)
        assert [field.name for field in dataclasses.fields(f)] == ["level", "indices", "values"]
        assert f.as_dict() == {(0, 1): 0.5, (2, -3): 0.25}


# ---------------------------------------------------------------------------
# index rows of another width or of a non-integer type
# ---------------------------------------------------------------------------

THREE_WIDE = np.array([[0, 1, 2], [3, 4, 5]])


def test_residues_refuse_rows_of_another_width(quincunx_problem):
    with pytest.raises(ValueError, match=r"^index rows must have width 2, not shape \(2, 3\)$"):
        quincunx_problem.matrix.residues(1, THREE_WIDE)


def test_periodization_refuses_rows_of_another_width(quincunx_problem):
    table = refine_values(quincunx_problem, seed_from({(0, 0): 1.0}), 1)
    with pytest.raises(ValueError, match=r"^level-1 index rows must have width 2"):
        periodization_check(quincunx_problem, table, 1, THREE_WIDE)


def test_kernel_refuses_rows_of_another_width(quincunx_problem):
    with pytest.raises(ValueError, match=r"^index rows must have width 2, not shape \(1, 3\)$"):
        refinement_step(quincunx_problem, [[0, 1, 2]], [1.0], 1)


def test_kernel_refuses_non_integer_rows(quincunx_problem):
    with pytest.raises(ValueError, match="^index rows must be integers, not float64$"):
        refinement_step(quincunx_problem, np.array([[0.5, 1.9]]), np.ones(1), 1)


@pytest.mark.parametrize(("indices", "values", "shape"), [
    ([[0]], [1.0, 2.0], r"\(2,\)"),
    ([[0], [1]], [1.0], r"\(1,\)"),
    ([[0]], [[1.0]], r"\(1, 1\)"),
], ids=["two-values-one-row", "one-value-two-rows", "values-as-a-column"])
def test_kernel_refuses_values_that_do_not_align_with_the_rows(
    haar_problem, indices, values, shape
):
    rows = np.array(indices)
    message = rf"^values must have shape \({len(rows)},\), one per index row, not {shape}$"
    with pytest.raises(ValueError, match=message):
        refinement_step(haar_problem, rows, np.array(values), 1)


@pytest.mark.parametrize(("points", "message"), [
    ([[0.4], [1.9]], "^points must be integers, not float64$"),
    ([[0, 0], [1, 0]], r"^points must have width 1, not shape \(2, 2\)$"),
], ids=["float", "wide"])
def test_transfer_refuses_points_that_are_not_index_rows(haar_problem, points, message):
    with pytest.raises(ValueError, match=message):
        build_transfer_matrix(haar_problem, np.array(points))


def test_refine_refuses_a_seed_of_another_width(quincunx_problem):
    seed = SampledFunction(0, np.array([[0, 1, 2]]), np.ones(1))
    with pytest.raises(ValueError, match=r"^seed indices must have width 2"):
        refine_values(quincunx_problem, seed, 1)
