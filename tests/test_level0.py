"""Level 0 as one array-backed lattice function: the candidate rows exist
once, as a read-only ``(N, d)`` int64 array that the transfer matrix, the
eigenspace and every level-0 function share, and a refinement seed is a
level-0 ``SampledFunction`` placed on those rows."""

import warnings

import numpy as np
import pytest

from refinable import (
    SampledFunction,
    candidate_points,
    converged_integer_values,
    integer_values,
    refine_values,
    resolve_values,
    transfer_matrix,
)
from refinable.errors import DomainTooSmall, NonUniqueWarning

from oracle import seed_from
from test_value_arrays import bits

FIXTURES = ["haar_problem", "d4_problem", "quincunx_problem", "jordan2d_problem"]


def eigenspace(problem):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonUniqueWarning)
        return integer_values(transfer_matrix(problem))


@pytest.mark.parametrize("fixture", FIXTURES)
def test_one_read_only_candidate_array(fixture, request):
    problem = request.getfixturevalue(fixture)
    points = candidate_points(problem)
    result = eigenspace(problem)
    assert points is transfer_matrix(problem).points is result.points
    assert points.dtype == np.int64 and points.shape == (len(points), problem.dim)
    assert not points.flags.writeable
    with pytest.raises(ValueError):
        points[0, 0] = 7
    assert converged_integer_values(problem).indices is points
    for left_closed in (False, True):
        _, _, values = resolve_values(problem, left_closed)
        if values is not None:
            assert values.level == 0 and values.indices is points


def test_structural_zeros_are_candidate_rows(d4_problem, haar_problem):
    result = eigenspace(d4_problem)
    assert result.values.indices is result.points
    assert result.structural_zeros.dtype == np.int64
    assert result.structural_zeros.tolist() == [[-3], [-2], [-1], [0], [3]]
    assert eigenspace(haar_problem).structural_zeros.shape == (0, 1)


def test_refine_refuses_a_repeated_seed_row(haar_problem):
    seed = SampledFunction(0, np.array([[0], [1], [0]]), np.array([1.0, 0.0, 1.0]))
    with pytest.raises(ValueError, match="repeats"):
        refine_values(haar_problem, seed, 2)


@pytest.mark.parametrize("row", [[5], [2**62], [-(2**62)]])
def test_refine_refuses_a_seed_row_outside_the_candidates(haar_problem, row):
    seed = SampledFunction(0, np.array([[0], row]), np.array([1.0, 0.0]))
    with pytest.raises(DomainTooSmall):
        refine_values(haar_problem, seed, 1)


def test_refine_refuses_a_seed_above_level_zero(haar_problem):
    seed = SampledFunction(1, np.array([[0]]), np.array([1.0]))
    with pytest.raises(ValueError, match="level-0"):
        refine_values(haar_problem, seed, 1)


def test_partial_seed_equals_the_full_seed_with_zeros(haar_problem):
    partial = refine_values(haar_problem, seed_from({(0,): 1.0}), 6)
    full = refine_values(haar_problem, seed_from({(-1,): 0.0, (0,): 1.0, (1,): 0.0}), 6)
    assert sorted(partial.samples) == sorted(full.samples) == list(range(7))
    for level, f in full.samples.items():
        g = partial.samples[level]
        assert np.array_equal(g.indices, f.indices)
        assert np.array_equal(bits(g.values), bits(f.values))
    assert partial.samples[0].values.sum() == full.samples[0].values.sum() == 1.0


def test_seed_rows_in_any_order(quincunx_problem):
    points = candidate_points(quincunx_problem)
    values = np.linspace(-1.0, 1.0, len(points))
    ordered = refine_values(quincunx_problem, SampledFunction(0, points, values), 2)
    reverse = SampledFunction(0, points[::-1].copy(), values[::-1].copy())
    shuffled = refine_values(quincunx_problem, reverse, 2)
    for level, f in ordered.samples.items():
        assert np.array_equal(shuffled.samples[level].indices, f.indices)
        assert np.array_equal(bits(shuffled.samples[level].values), bits(f.values))
