"""Tests for integer-point values and lattice refinement."""

import io
import math
from fractions import Fraction

import numpy as np
import pytest

from refinable import (
    InitialFunctionKind,
    TransferMatrix,
    build_transfer_matrix,
    candidate_points,
    converged_integer_values,
    export_values,
    integer_values,
    periodization_check,
    problem_from_data,
    read_values,
    refine_values,
    resolve_values,
    run_cascade,
)
from refinable.errors import (
    DomainTooSmall,
    NonUniqueValues,
    NonUniqueWarning,
    NormalizationImpossible,
    NoUnitEigenvalue,
)
from refinable.pointwise import _sum_to_one

from oracle import seed_from

SQRT3 = math.sqrt(3.0)


class Q3:
    """Exact arithmetic in the field a + b*sqrt(3) over the rationals; the
    independent high-precision oracle for the 4-tap refinement tests."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        self.a = Fraction(a)
        self.b = Fraction(b)

    def __add__(self, other):
        return Q3(self.a + other.a, self.b + other.b)

    def __mul__(self, other):
        return Q3(
            self.a * other.a + 3 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    def __float__(self):
        return float(self.a) + float(self.b) * SQRT3


D4_EXACT = {
    0: Q3(Fraction(1, 8), Fraction(1, 8)),
    1: Q3(Fraction(3, 8), Fraction(1, 8)),
    2: Q3(Fraction(3, 8), Fraction(-1, 8)),
    3: Q3(Fraction(1, 8), Fraction(-1, 8)),
}


def d4_oracle_refine(levels):
    """Exact refinement of the 4-tap integer values on [0, 3], straight from
    the two-scale relation; returns float views of the exact values."""
    two = Q3(2)
    table = {0: {k: Q3(0) for k in range(0, 4)}}
    table[0][1] = Q3(Fraction(1, 2), Fraction(1, 2))
    table[0][2] = Q3(Fraction(1, 2), Fraction(-1, 2))
    for j in range(1, levels + 1):
        prev = table[j - 1]
        current = {}
        for k in range(0, 3 * 2**j + 1):
            acc = Q3(0)
            for q, coeff in D4_EXACT.items():
                source = k - 2 ** (j - 1) * q
                if source in prev:
                    acc = acc + two * coeff * prev[source]
            current[k] = acc
        table[j] = current
    return {
        j: {k: float(v) for k, v in level.items()} for j, level in table.items()
    }


class TestCandidatePoints:
    def test_haar(self, haar_problem):
        assert candidate_points(haar_problem).tolist() == [[-1], [0], [1]]

    def test_d4(self, d4_problem):
        points = candidate_points(d4_problem)
        assert points.tolist() == [[k] for k in range(-3, 4)]
        assert len(points) == 7

    def test_quincunx_matches_brute_enumeration(self, quincunx_problem):
        radius = math.sqrt(2.0) + 1.0
        expected = [
            [i, j]
            for i in range(-3, 4)
            for j in range(-3, 4)
            if math.hypot(i, j) <= radius + 1e-9
        ]
        assert candidate_points(quincunx_problem).tolist() == expected

    def test_lexicographic_order(self, jordan2d_problem):
        points = candidate_points(jordan2d_problem).tolist()
        assert points == sorted(points)


class TestTransferMatrix:
    def test_haar_on_two_points(self, haar_problem):
        transfer = build_transfer_matrix(haar_problem, [(0,), (1,)])
        assert transfer.matrix.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_d4_reduced_block_by_hand(self, d4_problem):
        transfer = build_transfer_matrix(d4_problem, [(1,), (2,)])
        expected = np.array(
            [
                [(3 + SQRT3) / 4, (1 + SQRT3) / 4],
                [(1 - SQRT3) / 4, (3 - SQRT3) / 4],
            ]
        )
        assert transfer.matrix == pytest.approx(expected, abs=1e-15)

    def test_single_point_system(self):
        # a 1x1 transfer matrix [m * c_0] with a unit fixed point
        transfer = TransferMatrix(np.array([[0]]), np.array([[1.0]]))
        result = integer_values(transfer)
        assert result.values.as_dict() == {(0,): 1.0}

    def test_rejects_duplicates(self, haar_problem):
        with pytest.raises(ValueError):
            build_transfer_matrix(haar_problem, [(0,), (0,)])


class TestIntegerValues:
    def test_d4_unique_values(self, d4_problem):
        transfer = build_transfer_matrix(d4_problem, candidate_points(d4_problem))
        result = integer_values(transfer)
        assert result.eigenspace_dimension == 1
        values = result.values.as_dict()
        assert values[(1,)] == pytest.approx((1 + SQRT3) / 2, abs=1e-10)
        assert values[(2,)] == pytest.approx((1 - SQRT3) / 2, abs=1e-10)
        for point in ((-3,), (-2,), (-1,), (0,), (3,)):
            assert abs(values[point]) <= 1e-10
            assert list(point) in result.structural_zeros.tolist()
        assert math.fsum(values.values()) == pytest.approx(1.0, abs=1e-12)

    def test_d4_eigen_residual(self, d4_problem):
        transfer = build_transfer_matrix(d4_problem, candidate_points(d4_problem))
        result = integer_values(transfer)
        vec = result.basis[0]
        residual = np.max(np.abs(transfer.matrix @ vec - vec))
        assert residual <= 1e-8 * np.max(np.abs(vec))

    def test_haar_eigenspace_dimension_two(self, haar_problem):
        transfer = build_transfer_matrix(haar_problem, candidate_points(haar_problem))
        with pytest.warns(NonUniqueWarning):
            result = integer_values(transfer)
        assert result.eigenspace_dimension == 2
        with pytest.raises(NonUniqueValues, match="not one-dimensional") as info:
            result.values
        assert "--" not in str(info.value)  # a library caller has no CLI option
        # the eigenspace is spanned by spikes at 0 and 1
        span = result.basis
        for vec in span:
            assert abs(vec[0]) <= 1e-12  # entry at point -1 is forced to zero

    def test_no_unit_eigenvalue(self):
        transfer = TransferMatrix(np.array([[0], [1]]), 0.5 * np.eye(2))
        with pytest.raises(NoUnitEigenvalue):
            integer_values(transfer)

    def test_normalization_impossible(self):
        transfer = TransferMatrix(np.array([[0], [1]]), np.array([[0.0, -1.0], [-1.0, 0.0]]))
        with pytest.raises(NormalizationImpossible):
            integer_values(transfer)

    def test_sum_to_one_is_relative_to_the_entries(self):
        # the sum 4e-13 is below the former absolute 1e-12 floor of the
        # left-closed path, but far from zero next to entries near 1e-13
        vector = np.array([1e-13, 2e-13, 1e-13])
        assert np.array_equal(_sum_to_one(vector, "v"), vector / vector.sum())
        assert math.isclose(_sum_to_one(vector, "v").sum(), 1.0)

    def test_sum_to_one_refuses_a_zero_sum(self):
        with pytest.raises(NormalizationImpossible, match="^v has entry sum"):
            _sum_to_one(np.array([1.0, -1.0, 0.0]), "v")

    def test_converged_iteration_matches_eigenvector(self, d4_problem):
        converged = converged_integer_values(d4_problem).as_dict()
        transfer = build_transfer_matrix(d4_problem, candidate_points(d4_problem))
        values = integer_values(transfer).values.as_dict()
        for point, value in converged.items():
            assert value == pytest.approx(values[point], abs=1e-12)

    def test_converged_iteration_haar_left_closed(self, haar_problem):
        converged = converged_integer_values(haar_problem).as_dict()
        assert converged[(0,)] == pytest.approx(1.0, abs=1e-14)
        assert converged[(1,)] == pytest.approx(0.0, abs=1e-14)


class TestResolveValues:
    def test_unique_eigenspace_needs_no_tie_break(self, d4_problem):
        for left_closed in (False, True):
            result, notes, values = resolve_values(d4_problem, left_closed)
            assert result.eigenspace_dimension == 1 and notes == []
            assert values is result.values

    def test_haar_without_tie_break_has_no_values(self, haar_problem):
        result, notes, values = resolve_values(haar_problem, False)
        assert result.eigenspace_dimension == 2 and values is None
        assert len(notes) == 1 and "not unique" in notes[0]

    def test_haar_left_closed_is_the_indicator(self, haar_problem):
        result, notes, values = resolve_values(haar_problem, True)
        assert notes[-1] == "left-closed tie-break applied"
        assert values.indices is result.points
        values = values.as_dict()
        assert values.keys() == set(map(tuple, result.points.tolist()))
        assert values[(0,)] == pytest.approx(1.0, abs=1e-12)
        assert values[(1,)] == pytest.approx(0.0, abs=1e-12)
        assert math.fsum(values.values()) == pytest.approx(1.0, abs=1e-12)


class TestRefineValues:
    def test_haar_is_exact_indicator(self, haar_problem):
        table = refine_values(haar_problem, seed_from({(0,): 1.0, (1,): 0.0}), 6)
        assert table.samples[0].values.sum() == 1.0
        for level in range(0, 7):
            for k, value in table.levels[level].items():
                expected = 1.0 if 0 <= k[0] < 2**level else 0.0
                assert value == expected

    def test_coarse_points_keep_level_zero_values(self, d4_problem):
        transfer = build_transfer_matrix(d4_problem, candidate_points(d4_problem))
        values = integer_values(transfer).values
        table = refine_values(d4_problem, values, 1)
        for (k,), value in table.levels[0].items():
            assert table.levels[1][(2 * k,)] == pytest.approx(value, abs=1e-13)

    def test_cross_level_consistency(self, d4_problem):
        transfer = build_transfer_matrix(d4_problem, candidate_points(d4_problem))
        values = integer_values(transfer).values
        table = refine_values(d4_problem, values, 4)
        for level in range(1, 5):
            for (k,), value in table.levels[level - 1].items():
                upper = table.levels[level].get((2 * k,))
                assert upper is not None
                assert abs(upper - value) <= 1e-12

    def test_d4_matches_exact_oracle(self, d4_problem):
        transfer = build_transfer_matrix(d4_problem, candidate_points(d4_problem))
        values = integer_values(transfer).values
        table = refine_values(d4_problem, values, 6)
        oracle = d4_oracle_refine(6)
        for level in range(0, 7):
            got = table.levels[level]
            exact = oracle[level]
            for (k,), value in got.items():
                assert value == pytest.approx(exact.get(k, 0.0), abs=1e-10)

    def test_seed_outside_candidates_rejected(self, haar_problem):
        with pytest.raises(DomainTooSmall):
            refine_values(haar_problem, seed_from({(5,): 1.0}), 1)

    def test_escaping_seed_aborts(self):
        # contractive ball and parallelepiped bounds are one-step invariant
        # regions, so only the iterated-norm bound (k >= 2) can be escaped:
        # a spike at an extremal candidate point scatters outside it
        problem = problem_from_data(
            2,
            [[1, 2], [-2, -1]],
            [
                {"q": [0, 0], "c": "1/3"},
                {"q": [1, 0], "c": "1/3"},
                {"q": [0, 1], "c": "1/3"},
            ],
        )
        points = candidate_points(problem)
        assert [2, 0] in points.tolist()
        # (2,0) + (1,0) maps to M^-1 (3,0) = (-1, 2), norm sqrt(5) > 2
        with pytest.raises(DomainTooSmall):
            refine_values(problem, seed_from({(2, 0): 1.0}), 2)

    def test_matches_cascade_bitwise_for_haar(self, haar_problem):
        # identical seeds drive the identical kernel: the box-seeded cascade
        # and the left-closed refinement agree exactly on common indices
        table = refine_values(haar_problem, seed_from({(0,): 1.0}), 6)
        cascade = run_cascade(haar_problem, InitialFunctionKind.INDICATOR_BOX, 6)
        for f in cascade:
            stored = table.levels[f.level]
            for key, value in f.as_dict().items():
                assert stored[key] == value


class TestPeriodization:
    def test_haar_dyadic_probes_exact(self, haar_problem):
        table = refine_values(haar_problem, seed_from({(0,): 1.0, (1,): 0.0}), 3)
        checks = periodization_check(haar_problem, table, 3, np.array([[0], [1], [4], [7]]))
        for _, total, deviation in checks:
            assert total == 1.0
            assert deviation == 0.0

    def test_d4_probes(self, d4_problem):
        transfer = build_transfer_matrix(d4_problem, candidate_points(d4_problem))
        values = integer_values(transfer).values
        table = refine_values(d4_problem, values, 2)
        checks = periodization_check(d4_problem, table, 2, np.array([[1], [2], [3]]))
        for _, _, deviation in checks:
            assert deviation <= 1e-8

    def test_non_integer_rows_rejected(self, haar_problem):
        table = refine_values(haar_problem, seed_from({(0,): 1.0}), 1)
        with pytest.raises(ValueError, match="must be integers, not float64"):
            periodization_check(haar_problem, table, 1, np.array([[1.0 / 3.0]]))


class TestExport:
    def test_haar_row_count(self, haar_problem):
        # level 0 stores the three candidates, level 1 the five indices with
        # lattice point inside [-1, 1]
        table = refine_values(haar_problem, seed_from({(0,): 1.0, (1,): 0.0}), 1)
        buffer = io.StringIO()
        export_values(haar_problem, table, buffer)
        lines = buffer.getvalue().strip().split("\n")
        assert lines[0] == "level\tk0\tx0\tvalue"
        assert len(lines) - 1 == 3 + 5

    def test_round_trip_bit_exact(self, d4_problem):
        transfer = build_transfer_matrix(d4_problem, candidate_points(d4_problem))
        values = integer_values(transfer).values
        table = refine_values(d4_problem, values, 2)
        buffer = io.StringIO()
        export_values(d4_problem, table, buffer)
        buffer.seek(0)
        again = read_values(buffer)
        assert again.levels == table.levels

    def test_deterministic_bytes(self, quincunx_problem):
        transfer = build_transfer_matrix(
            quincunx_problem, candidate_points(quincunx_problem)
        )
        with pytest.warns(NonUniqueWarning):
            result = integer_values(transfer)
        # refine from an explicit seed since the eigenspace is not unique
        seed = {p: 0.0 for p in map(tuple, result.points.tolist())}
        seed[(0, 0)] = 1.0
        table = refine_values(quincunx_problem, seed_from(seed), 2)
        one, two = io.StringIO(), io.StringIO()
        export_values(quincunx_problem, table, one)
        export_values(quincunx_problem, table, two)
        assert one.getvalue() == two.getvalue()
