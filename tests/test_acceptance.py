"""Acceptance suite: one test (or test group) per acceptance criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion.  Two checks assert quoted reference values that are
mathematically unattainable and fail by design; their docstrings and the
project notes explain the discrepancy they document.
"""

import math

import numpy as np
import pytest

from refinable import (
    DilationMatrix,
    InitialFunctionKind,
    ball_bound,
    best_bound,
    bound_1d,
    build_transfer_matrix,
    candidate_points,
    converged_integer_values,
    discrete_mass,
    empirical_support,
    enclosing_integer_box,
    general_ball_bound,
    integer_values,
    jordan_block_bound,
    jordan_recurrence_table,
    periodization_check,
    refine_values,
    run_cascade,
)
from refinable.errors import NonUniqueWarning

from oracle import seed_from
from test_pointwise import d4_oracle_refine

BOX = InitialFunctionKind.INDICATOR_BOX
SQRT3 = math.sqrt(3.0)


def _passed(criterion: str) -> None:
    print(f"[acceptance] {criterion}: PASS")


# --- criterion 1: worked 2x2 example ----------------------------------------

def test_c1a_reference_matrix_eigenvalues():
    matrix = DilationMatrix.from_rows([[0, 1], [3, 1]])
    eigs = sorted(z.real for z in matrix.spectrum.eigenvalues)
    assert eigs[1] == pytest.approx(2.3028, abs=1e-3)
    assert eigs[0] == pytest.approx(-1.3028, abs=1e-3)
    _passed("criterion 1a (reference-matrix eigenvalues)")


def test_c1b_reference_matrix_inverse_norm_value():
    """Documents a defect in the quoted reference number.

    The quoted value 1.1233 for the inverse norm of [[0,1],[3,1]] equals the
    largest eigenvalue of M^-1 (M^-1)^T, i.e. the squared operator norm; the
    operator norm itself (largest singular value, which every bound formula
    in this library requires, and which the quincunx criterion below checks)
    is sqrt(1.1233...) = 1.0599.  The check asserts the quoted number as
    stated and therefore fails.
    """
    matrix = DilationMatrix.from_rows([[0, 1], [3, 1]])
    assert matrix.inverse_norm == pytest.approx(1.1233, abs=1e-3), (
        "operator norm is sqrt((11+sqrt(85))/18) = 1.0599; the quoted 1.1233 "
        "is its square"
    )
    _passed("criterion 1b (reference-matrix inverse norm)")


def test_c1c_reference_matrix_dilation_verdict():
    matrix = DilationMatrix.from_rows([[0, 1], [3, 1]])
    assert bool(matrix.dilation_check)
    _passed("criterion 1c (reference-matrix dilation verdict)")


# --- criterion 2: 1-D bounds and classical supports --------------------------

def test_c2_one_dimensional_bounds_and_supports(haar_problem, d4_problem):
    assert bound_1d(2, haar_problem.mask.radius) == 1.0
    assert bound_1d(2, d4_problem.mask.radius) == 3.0
    delta = 2.0**-8
    for problem, hi in ((haar_problem, 1.0), (d4_problem, 3.0)):
        level8 = run_cascade(problem, BOX, 8)[8]
        support = empirical_support(problem, level8)
        assert support.lo[0] >= 0.0 - delta
        assert support.hi[0] <= hi + delta
    _passed("criterion 2 (1-D bounds and level-8 supports)")


# --- criterion 3: per-block closed forms -------------------------------------

def test_c3_jordan_block_closed_forms():
    for size in (1, 2, 3, 5):
        for q in (1.0, 2.5):
            assert jordan_block_bound(2.0, size, q) == tuple(
                q * k for k in range(1, size + 1)
            )
    assert jordan_block_bound(3.0, 3, 1.0) == pytest.approx(
        (0.5, 0.75, 0.875), abs=1e-12
    )
    table = jordan_recurrence_table(3.0, 3, 1.0, 1.0, 200)
    assert table[-1, :] == pytest.approx((0.5, 0.75, 0.875), abs=1e-10)
    _passed("criterion 3 (block bound closed forms and recurrence limit)")


# --- criterion 4: ball-bound consistency --------------------------------------

def test_c4_ball_bound_consistency(
    haar_problem, d4_problem, quincunx_problem, jordan2d_problem
):
    for problem in (haar_problem, d4_problem, quincunx_problem, jordan2d_problem):
        ball = ball_bound(problem)
        general = general_ball_bound(problem)
        assert abs(ball.radius - general.radius) <= 1e-12
    assert ball_bound(quincunx_problem).radius == pytest.approx(
        math.sqrt(2.0) + 1.0, abs=1e-12
    )
    _passed("criterion 4 (ball-bound consistency and quincunx radius)")


# --- criterion 5: eigenvector method at integers ------------------------------

def test_c5_integer_values(haar_problem, d4_problem):
    transfer = build_transfer_matrix(d4_problem, candidate_points(d4_problem))
    result = integer_values(transfer)
    assert result.eigenspace_dimension == 1
    values = result.values.as_dict()
    assert values[(1,)] == pytest.approx((1 + SQRT3) / 2, abs=1e-10)
    assert values[(2,)] == pytest.approx((1 - SQRT3) / 2, abs=1e-10)
    for point, value in values.items():
        if point not in ((1,), (2,)):
            assert abs(value) <= 1e-10
    haar_transfer = build_transfer_matrix(haar_problem, candidate_points(haar_problem))
    with pytest.warns(NonUniqueWarning):
        haar_result = integer_values(haar_transfer)
    assert haar_result.eigenspace_dimension == 2
    _passed("criterion 5 (integer values and non-unique detection)")


# --- criterion 6: refinement fidelity -----------------------------------------

def test_c6a_haar_refinement_is_exact_indicator(haar_problem):
    table = refine_values(haar_problem, seed_from({(0,): 1.0, (1,): 0.0}), 6)
    for level in range(7):
        for (k,), value in table.levels[level].items():
            assert value == (1.0 if 0 <= k < 2**level else 0.0)
    _passed("criterion 6a (exact indicator refinement)")


def test_c6b_d4_refinement_vs_exact_oracle(d4_problem):
    transfer = build_transfer_matrix(d4_problem, candidate_points(d4_problem))
    values = integer_values(transfer).values
    table = refine_values(d4_problem, values, 6)
    oracle = d4_oracle_refine(6)
    worst = 0.0
    for level in range(7):
        exact = oracle[level]
        for (k,), value in table.levels[level].items():
            worst = max(worst, abs(value - exact.get(k, 0.0)))
    assert worst <= 1e-10
    _passed("criterion 6b (refinement matches the exact-field oracle)")


def test_c6c_d4_refinement_vs_cascade_level6(d4_problem):
    """Documents that the stated cascade tolerance is unattainable.

    Refined values are exact samples of the limit function, while the
    level-6 cascade iterate still carries the scheme's uniform-convergence
    error, about 0.19 in sup norm for this mask (the gap shrinks like the
    Hoelder rate, so 1e-6 agreement would need roughly forty levels, far
    beyond desk scale).  The check asserts the stated 1e-6 tolerance and
    therefore fails.  The corresponding comparison for the unit indicator
    is exact (criterion 6a and the bitwise kernel equality test in
    test_pointwise.py).
    """
    seed = converged_integer_values(d4_problem)
    table = refine_values(d4_problem, seed, 6)
    cascade6 = run_cascade(d4_problem, BOX, 6)[6].as_dict()
    stored = table.levels[6]
    worst = 0.0
    for key in set(stored) | set(cascade6):
        worst = max(worst, abs(stored.get(key, 0.0) - cascade6.get(key, 0.0)))
    assert worst <= 1e-6, (
        f"cascade level-6 iterate differs from the limit samples by {worst:.3g}; "
        f"finite-level cascade error decays only at the scheme's regularity rate"
    )
    _passed("criterion 6c (refinement vs cascade at level 6)")


# --- criterion 7: conservation and consistency --------------------------------

def test_c7_conservation_and_consistency(haar_problem, d4_problem, quincunx_problem,
                                         jordan2d_problem):
    for problem in (haar_problem, d4_problem, quincunx_problem, jordan2d_problem):
        levels = run_cascade(problem, BOX, 6)
        masses = [discrete_mass(problem, f) for f in levels]
        for mass in masses[1:]:
            assert mass == pytest.approx(masses[0], rel=1e-12)

    transfer = build_transfer_matrix(d4_problem, candidate_points(d4_problem))
    d4_values = integer_values(transfer).values
    d4_table = refine_values(d4_problem, d4_values, 4)
    haar_table = refine_values(haar_problem, seed_from({(0,): 1.0, (1,): 0.0}), 4)
    for problem, table in ((d4_problem, d4_table), (haar_problem, haar_table)):
        for level in range(1, 5):
            for (k,), value in table.levels[level - 1].items():
                upper = table.levels[level].get((2 * k,))
                assert upper is not None
                assert abs(upper - value) <= 1e-12

    haar_checks = periodization_check(haar_problem, haar_table, 3, np.array([[0], [3], [5]]))
    d4_checks = periodization_check(d4_problem, d4_table, 2, np.array([[1], [2], [3]]))
    for _, _, deviation in (*haar_checks, *d4_checks):
        assert deviation <= 1e-8
    _passed("criterion 7 (mass, cross-level consistency, partition of unity)")


# --- criterion 8: containment property suite ----------------------------------

def test_c8_containment_suite(haar_problem, d4_problem, quincunx_problem,
                              jordan2d_problem):
    problems = (haar_problem, d4_problem, quincunx_problem, jordan2d_problem)
    for problem in problems:
        bound = best_bound(problem)
        box = enclosing_integer_box(bound)
        level8 = run_cascade(problem, BOX, 8)[8]
        support = empirical_support(problem, level8)
        assert support is not None
        inv_power = problem.matrix.inverse_power_array(8)
        cell = np.abs(inv_power).sum(axis=1)
        for lo, hi, half, c in zip(support.lo, support.hi, box.half_widths, cell):
            assert lo >= -(half + c)
            assert hi <= half + c
    _passed("criterion 8 (level-8 empirical supports inside reported bounds)")
