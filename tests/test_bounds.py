"""Tests for the support-bound formulas and their consistency."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refinable import (
    Ball,
    Box,
    TransformedBox,
    applicable_bounds,
    ball_bound,
    best_bound,
    bound_1d,
    diagonal_bound,
    enclosing_integer_box,
    finite_level_ball,
    general_ball_bound,
    jordan_block_bound,
    jordan_recurrence_table,
    parallelepiped_bound,
    cli,
    empirical_support,
    problem_from_data,
)
from refinable.cascade import SampledFunction
from refinable.errors import (
    IllConditionedTransform,
    NormNotContractive,
    NotDiagonal,
    NotDilation1D,
    NotDilationEigenvalue,
)

from oracle import as_floats, fraction_inverse_power


def make_problem(dimension, matrix, coefficients):
    return problem_from_data(dimension, matrix, coefficients)


@pytest.fixture(scope="module")
def wide_haar():
    # 1-D, m = 2, Q = 3
    return make_problem(1, [[2]], [{"q": [0], "c": "1/2"}, {"q": [3], "c": "1/2"}])


@pytest.fixture(scope="module")
def spike_mask_problem():
    # single coefficient at the origin: Q = 0
    return make_problem(1, [[2]], [{"q": [0], "c": 1}])


class TestBallBound:
    def test_one_dimensional(self, wide_haar):
        # hand evaluation: 3 * (1/2) / (1 - 1/2)
        assert ball_bound(wide_haar).radius == pytest.approx(3.0, abs=1e-12)

    def test_quincunx(self, quincunx_problem):
        # singular values of the inverse are both 1/sqrt(2)
        expected = math.sqrt(2.0) + 1.0
        assert ball_bound(quincunx_problem).radius == pytest.approx(expected, abs=1e-12)

    def test_not_contractive(self, noncontractive_problem):
        with pytest.raises(NormNotContractive):
            ball_bound(noncontractive_problem)


class TestFiniteLevelBall:
    def test_first_level_by_hand(self, haar_problem):
        # (1/2)*1 + 1*(1/2) with Q = 1, R = 1
        assert finite_level_ball(haar_problem, 1.0, 1) == pytest.approx(1.0, abs=1e-15)

    def test_limit_is_ball_radius(self, haar_problem, quincunx_problem):
        for problem in (haar_problem, quincunx_problem):
            limit = ball_bound(problem).radius
            assert finite_level_ball(problem, 1.0, 200) == pytest.approx(limit, abs=1e-10)

    def test_monotone_when_started_above_limit(self, d4_problem):
        limit = ball_bound(d4_problem).radius
        start = limit + 2.0
        radii = [finite_level_ball(d4_problem, start, n) for n in range(1, 20)]
        assert all(a >= b - 1e-12 for a, b in zip(radii, radii[1:]))

    def test_spike_mask_pure_decay(self, spike_mask_problem):
        for n in (1, 3, 7):
            assert finite_level_ball(spike_mask_problem, 5.0, n) == pytest.approx(
                5.0 * 0.5**n, abs=1e-14
            )


class TestGeneralBallBound:
    def test_reduces_to_ball_bound_when_contractive(
        self, haar_problem, d4_problem, quincunx_problem, jordan2d_problem
    ):
        for problem in (haar_problem, d4_problem, quincunx_problem, jordan2d_problem):
            assert general_ball_bound(problem).radius == pytest.approx(
                ball_bound(problem).radius, abs=1e-12
            )

    def test_noncontractive_matches_exact_power_oracle(self, noncontractive_problem):
        # oracle: norms of the exact rational powers, combined by hand
        mat = noncontractive_problem.matrix.matrix
        n1 = float(np.linalg.norm(as_floats(fraction_inverse_power(mat, 1)), 2))
        n2 = float(np.linalg.norm(as_floats(fraction_inverse_power(mat, 2)), 2))
        assert n1 >= 1.0 and n2 < 1.0
        expected = noncontractive_problem.mask.radius * (n1 + n2) / (1.0 - n2)
        bound = general_ball_bound(noncontractive_problem)
        assert bound.radius == pytest.approx(expected, rel=1e-10)
        assert "k=2" in bound.provenance

    def test_diagonal_by_hand(self):
        problem = make_problem(
            2,
            [[2, 0], [0, 2]],
            [{"q": [0, 0], "c": "1/2"}, {"q": [2, 0], "c": "1/2"}],
        )
        assert general_ball_bound(problem).radius == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize(("call", "error"), [
    (lambda p: empirical_support(p, SampledFunction(0, np.array([[0]]), np.ones(1)), math.nan),
     ValueError),
    (lambda p: jordan_block_bound(math.nan, 2, 1.0), NotDilationEigenvalue),
    (lambda p: jordan_recurrence_table(math.nan, 2, 1.0, 1.0, 3), NotDilationEigenvalue),
    (lambda p: finite_level_ball(p, math.nan, 2), ValueError),
    (lambda p: bound_1d(2, math.nan), ValueError),
    (lambda p: bound_1d(2, -1.0), ValueError),
], ids=["support-eps", "block-eigenvalue", "table-eigenvalue", "level-ball-radius",
        "1d-radius-nan", "1d-radius-negative"])
def test_nan_and_negative_inputs_are_refused(haar_problem, call, error):
    with pytest.raises(error):
        call(haar_problem)


class TestCoordinateBounds:
    def test_bound_1d_values(self):
        assert bound_1d(2, 1.0) == 1.0
        assert bound_1d(2, 3.0) == 3.0
        assert bound_1d(3, 2.0) == 1.0
        assert bound_1d(-2, 1.0) == 1.0

    def test_bound_1d_rejects_unit_factor(self):
        with pytest.raises(NotDilation1D):
            bound_1d(1, 1.0)

    def test_diagonal_bound(self):
        problem = make_problem(
            2,
            [[2, 0], [0, 4]],
            [{"q": [0, 0], "c": "1/2"}, {"q": [1, 0], "c": "1/2"}],
        )
        box = diagonal_bound(problem)
        assert box.half_widths == pytest.approx((1.0, 1.0 / 3.0), abs=1e-15)

    def test_diagonal_equal_eigenvalues(self):
        problem = make_problem(
            2,
            [[2, 0], [0, 2]],
            [{"q": [0, 0], "c": "1/2"}, {"q": [1, 0], "c": "1/2"}],
        )
        assert diagonal_bound(problem).half_widths == (1.0, 1.0)

    def test_diagonal_degenerate_mask(self):
        problem = make_problem(2, [[2, 0], [0, 3]], [{"q": [0, 0], "c": 1}])
        assert diagonal_bound(problem).half_widths == (0.0, 0.0)

    def test_not_diagonal(self, quincunx_problem):
        with pytest.raises(NotDiagonal):
            diagonal_bound(quincunx_problem)


class TestJordanBlockBound:
    def test_eigenvalue_two_is_linear(self):
        assert jordan_block_bound(2.0, 3, 1.0) == (1.0, 2.0, 3.0)
        assert jordan_block_bound(2.0, 4, 2.5) == (2.5, 5.0, 7.5, 10.0)

    def test_eigenvalue_three_by_hand(self):
        # Q/(a-2) (1 - (a-1)^-k) at a = 3: 1/2, 3/4, 7/8
        assert jordan_block_bound(3.0, 3, 1.0) == pytest.approx(
            (0.5, 0.75, 0.875), abs=1e-12
        )

    def test_first_coordinate_matches_simple_bound(self):
        for lam in (1.5, 2.0, 2.7, -3.0):
            assert jordan_block_bound(lam, 1, 2.0)[0] == 2.0 / (abs(lam) - 1.0)

    def test_rejects_unit_eigenvalue(self):
        with pytest.raises(NotDilationEigenvalue):
            jordan_block_bound(1.0, 2, 1.0)

    def test_continuity_across_two(self):
        for k in range(1, 7):
            for lam in (2.0 - 1e-6, 2.0 + 1e-6):
                smooth = jordan_block_bound(lam, k, 1.0)[-1]
                assert abs(smooth - k) <= 1e-4 * k

    def test_strictly_increasing_in_k_and_q(self):
        for lam in (1.3, 2.0, 3.7):
            values = jordan_block_bound(lam, 5, 1.0)
            assert all(a < b for a, b in zip(values, values[1:]))
            bigger = jordan_block_bound(lam, 5, 2.0)
            assert all(a < b for a, b in zip(values, bigger))


def exact_block_sums(a: float, size: int, q: float) -> list[Fraction]:
    """Q sum_{i=1..k} (a-1)^-i for k = 1..size, in exact rationals."""
    step = 1 / (Fraction(a) - 1)
    return [Fraction(q) * sum(step**i for i in range(1, k + 1)) for k in range(1, size + 1)]


class TestJordanBlockFixedPoint:
    def test_near_two_within_rounding_of_exact_sum(self):
        # the closed form Q/(a-2) (1 - (a-1)^-k) cancels near a = 2; a bound
        # short of the true half-width by more than the 1e-9 membership
        # tolerance could cut off part of the support
        for a in (2.0 - 1e-9, 2.0 + 1e-9):
            for q in (1.0, 2.5, 0.3):
                exact = exact_block_sums(a, 4, q)
                for value, true in zip(jordan_block_bound(a, 4, q), exact):
                    assert abs(Fraction(value) - true) <= Fraction(1e-15) * true

    @settings(max_examples=150)
    @given(st.floats(1.0, 8.0, exclude_min=True), st.integers(1, 6), st.floats(1e-6, 10.0))
    def test_block_bound_is_the_exact_sum(self, a, size, q):
        exact = exact_block_sums(a, size, q)
        for k, (value, true) in enumerate(zip(jordan_block_bound(a, size, q), exact), 1):
            # k additions and k divisions, each off by at most half an ulp
            assert abs(Fraction(value) - true) <= Fraction(2 * k, 2**53) * true

    @settings(max_examples=100)
    @given(st.floats(1.0 + 1 / 64, 8.0), st.integers(1, 6), st.floats(1e-6, 10.0))
    def test_table_columns_increase_to_the_block_bound(self, a, size, q):
        # column k trails its limit by about n^(k-1) a^-n; a nearer 1 would
        # need more levels than a test should spend
        levels = 1
        while math.comb(levels + size, size) * a**-levels > 1e-15:
            levels *= 2
        table = jordan_recurrence_table(a, size, q, 0.0, levels)
        limits = np.array(jordan_block_bound(a, size, q))
        assert np.all(table[1:] >= table[:-1])
        assert np.all(table <= limits * (1.0 + 1e-12))
        assert table[-1] == pytest.approx(limits, rel=1e-12)


class TestJordanRecurrenceTable:
    def test_seed_entry_by_hand(self):
        # A_{2,1} = R/a^2 + Q (1/a + 1/a^2) at a = 2, Q = R = 1
        table = jordan_recurrence_table(2.0, 1, 1.0, 1.0, 2)
        assert table[1, 0] == pytest.approx(1.0, abs=1e-15)

    def test_first_row_matches_closed_form(self):
        q, r, a, s = 1.5, 0.5, 3.0, 5
        table = jordan_recurrence_table(a, s, q, r, 3)
        for k in range(1, s + 1):
            expected = (q + r) * sum(a**-i for i in range(1, k + 1))
            assert table[0, k - 1] == pytest.approx(expected, rel=1e-14)

    def test_convergence_to_block_bound(self):
        table = jordan_recurrence_table(3.0, 3, 1.0, 1.0, 200)
        limits = jordan_block_bound(3.0, 3, 1.0)
        assert table[-1, 1] == pytest.approx(0.75, abs=1e-10)
        assert table[-1, :] == pytest.approx(limits, abs=1e-10)

    def test_convergence_at_eigenvalue_two(self):
        table = jordan_recurrence_table(2.0, 4, 1.0, 2.0, 200)
        assert table[-1, :] == pytest.approx((1.0, 2.0, 3.0, 4.0), abs=1e-10)


class TestParallelepipedBound:
    def test_diagonal_reduces_exactly(self):
        problem = make_problem(
            2,
            [[2, 0], [0, 4]],
            [{"q": [0, 0], "c": "1/2"}, {"q": [1, 0], "c": "1/2"}],
        )
        box = diagonal_bound(problem)
        para = parallelepiped_bound(problem)
        assert para.half_widths == box.half_widths
        assert np.abs(para.transform) == pytest.approx(np.eye(2), abs=1e-12)

    def test_defective_two_by_two(self, jordan2d_problem):
        para = parallelepiped_bound(jordan2d_problem)
        # transform is the identity, so the scaled radius equals Q = sqrt(2)
        q = math.sqrt(2.0)
        assert np.abs(para.transform) == pytest.approx(np.eye(2), abs=1e-12)
        assert para.half_widths == pytest.approx((q, 2 * q), rel=1e-12)

    def test_one_dimensional(self, haar_problem):
        para = parallelepiped_bound(haar_problem)
        assert para.half_widths == pytest.approx((1.0,), abs=1e-12)

    def test_contains_origin_everywhere(
        self, haar_problem, d4_problem, quincunx_problem, jordan2d_problem,
        noncontractive_problem,
    ):
        problems = (
            haar_problem, d4_problem, quincunx_problem, jordan2d_problem,
            noncontractive_problem,
        )
        for problem in problems:
            for bound in applicable_bounds(problem):
                assert bound.contains_many(np.zeros((1, problem.dim)))[0]


class TestEnclosingIntegerBox:
    def test_ball(self):
        box = enclosing_integer_box(Ball(math.sqrt(2) + 1, 2, "test"))
        assert box.half_widths == (3.0, 3.0)

    def test_exact_integer_radius_snaps(self):
        assert enclosing_integer_box(Ball(1.0, 1, "test")).half_widths == (1.0,)
        assert enclosing_integer_box(Ball(3.0, 1, "test")).half_widths == (3.0,)

    def test_box(self):
        box = enclosing_integer_box(Box((1.0, 1.0 / 3.0), "test"))
        assert box.half_widths == (1.0, 1.0)

    def test_transformed_identity(self):
        tb = TransformedBox(np.eye(2), np.eye(2), (1.2, 2.0), "test")
        assert enclosing_integer_box(tb).half_widths == (2.0, 2.0)

    def test_transformed_rotation(self):
        c = np.array([[1.0, 1.0], [1.0, -1.0]])
        tb = TransformedBox(c, np.linalg.inv(c), (1.0, 1.0), "test")
        assert enclosing_integer_box(tb).half_widths == (2.0, 2.0)


class TestBestBound:
    def test_selection_order(
        self, haar_problem, noncontractive_problem
    ):
        assert best_bound(haar_problem).provenance == "norm-ball"
        # real spectrum but no contraction: the parallelepiped wins
        assert "jordan" in best_bound(noncontractive_problem).provenance

    def test_complex_noncontractive_falls_back_to_iterated(self):
        problem = make_problem(
            2,
            [[1, 2], [-2, -1]],
            [
                {"q": [0, 0], "c": "1/3"},
                {"q": [1, 0], "c": "1/3"},
                {"q": [0, 1], "c": "1/3"},
            ],
        )
        bound = best_bound(problem)
        assert "iterated-norm-ball" in bound.provenance
        # M^2 = -3 I, so k = 2 and the radius is (1 + 1/3) / (2/3) = 2
        assert bound.radius == pytest.approx(2.0, abs=1e-12)

    def test_ill_conditioned_transform_falls_back_to_iterated(self, tmp_path, capsys):
        # eigenvalue 2 with a single Jordan block scaled by 1e9: the
        # transform's condition number passes CONDITION_LIMIT, so neither the
        # selection nor the report has a Jordan parallelepiped
        doc = {
            "dimension": 2,
            "matrix": [[2, 10**9], [0, 2]],
            "coefficients": [{"q": [0, 0], "c": "1/2"}, {"q": [1, 0], "c": "1/2"}],
        }
        problem = make_problem(doc["dimension"], doc["matrix"], doc["coefficients"])
        with pytest.raises(IllConditionedTransform, match="condition number"):
            problem.matrix.jordan_structure
        with pytest.raises(IllConditionedTransform):
            parallelepiped_bound(problem)
        selected = "iterated-norm-ball (k=34)"
        assert best_bound(problem).provenance == selected
        assert [b.provenance for b in applicable_bounds(problem)] == [selected]
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["bound", str(path), "--format", "structured"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["selected"] == selected
        assert [b["provenance"] for b in report["bounds"]] == [selected]
