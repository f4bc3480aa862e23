"""DilationMatrix.images, the one move of int64 lattice rows by a power of M,
and Mask.tap_rows, the taps it moves: exact against Python ints, refused
exactly at the int64 rule, and refused by the cascade before any level."""

import io

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from refinable import cascade, problem_from_data, run_cascade
from refinable.errors import IndexOverflow
from refinable.linalg import DilationMatrix
from refinable.pointwise import read_values, refine_consistency

LIMIT = 2**62


@st.composite
def matrices_and_rows(draw):
    d = draw(st.integers(1, 3))
    entries = st.lists(st.integers(-4, 4), min_size=d, max_size=d)
    matrix = DilationMatrix.from_rows(draw(st.lists(entries, min_size=d, max_size=d)))
    assume(abs(matrix.determinant) >= 2)
    row = st.lists(st.integers(-(2**20) + 1, 2**20 - 1), min_size=d, max_size=d)
    rows = draw(st.lists(row, max_size=8))
    return matrix, np.asarray(rows, dtype=np.int64).reshape(-1, d), draw(st.integers(0, 6))


@given(matrices_and_rows())
def test_images_match_python_int_products(case):
    matrix, rows, n = case
    images = matrix.images(rows, n)
    assert images.dtype == np.int64 and images.shape == rows.shape
    power = matrix.power(n)
    assert [tuple(r) for r in images.tolist()] == [power.apply(k) for k in rows.tolist()]


# (matrix rows, n): the largest absolute row sum S of M^n is 2, 4 and 4
RULES = [([[2]], 1), ([[1, 1], [0, 2]], 2), ([[0, 1, 0], [0, 0, 1], [2, 0, 0]], 6)]


@pytest.mark.parametrize(("rows", "n"), RULES)
def test_images_refused_exactly_at_the_rule(rows, n):
    matrix = DilationMatrix.from_rows(rows)
    s = max(sum(map(abs, row)) for row in matrix.power(n).rows)
    d = matrix.dim
    largest = (LIMIT - 1) // s  # the last magnitude below the rule
    for sign in (1, -1):
        kept = np.zeros((2, d), dtype=np.int64)
        kept[1, -1] = sign * largest
        images = matrix.images(kept, n)
        assert images.tolist() == [list(matrix.power(n).apply(k)) for k in kept.tolist()]
        refused = kept.copy()
        refused[1, -1] = sign * (largest + 1)
        assert (largest + 1) * s >= LIMIT
        with pytest.raises(IndexOverflow, match=rf"^images M\^{n} k "):
            matrix.images(refused, n)


def test_images_of_no_rows_or_zero_rows_read_one_as_the_largest_entry():
    matrix = DilationMatrix.from_rows([[2**61]])
    for rows in (np.zeros((0, 1), dtype=np.int64), np.zeros((3, 1), dtype=np.int64)):
        assert matrix.images(rows, 1).tolist() == [[0]] * len(rows)
    wide = DilationMatrix.from_rows([[2**62]])
    for rows in (np.zeros((0, 1), dtype=np.int64), np.zeros((3, 1), dtype=np.int64)):
        with pytest.raises(IndexOverflow):
            wide.images(rows, 1)


def test_the_most_negative_int64_row_is_refused():
    # |-2^63| does not fit in int64, so the largest entry is read in Python ints;
    # read as -2^63 it would let M k wrap to 0 and meet the level-1 row 0
    problem = problem_from_data(1, [[2]], [{"q": [0], "c": "1/2"}, {"q": [1], "c": "1/2"}])
    dump = "level\tk0\tx0\tvalue\n0\t-9223372036854775808\t0.0\t1.0\n1\t0\t0.0\t0.25\n"
    with pytest.raises(IndexOverflow):
        refine_consistency(problem, read_values(io.StringIO(dump)))


def test_tap_rows_are_sorted_read_only_and_refused_at_the_limit():
    problem = problem_from_data(
        2, [[1, -1], [1, 1]],
        [{"q": [1, 0], "c": "1/2"}, {"q": [0, -3], "c": "1/4"}, {"q": [0, 2], "c": "1/4"}],
    )
    rows = problem.mask.tap_rows
    assert rows.dtype == np.int64
    assert rows.tolist() == [[0, -3], [0, 2], [1, 0]]
    assert not rows.flags.writeable
    assert problem.mask.tap_rows is rows
    for q, ok in ((LIMIT - 1, True), (-(LIMIT - 1), True), (LIMIT, False), (-LIMIT, False)):
        mask = problem_from_data(
            1, [[2]], [{"q": [0], "c": "1/2"}, {"q": [q], "c": "1/2"}]
        ).mask
        if ok:
            assert mask.tap_rows.tolist() == sorted([[0], [q]])
        else:
            with pytest.raises(IndexOverflow, match="^mask indices do not fit in int64$"):
                mask.tap_rows


def test_cascade_refuses_overflowing_tap_images_before_any_level(monkeypatch):
    # M^2 q = 2^62 for the tap q = 2^60, which kernel step 3 would scatter
    def no_refinement(*args):
        raise AssertionError("a level was refined before the tap images were checked")

    monkeypatch.setattr(cascade, "refinement_step", no_refinement)
    problem = problem_from_data(
        1, [[2]], [{"q": [0], "c": "1/2"}, {"q": [2**60], "c": "1/2"}]
    )
    with pytest.raises(IndexOverflow, match=r"^images M\^2 k "):
        run_cascade(problem, levels=4)
