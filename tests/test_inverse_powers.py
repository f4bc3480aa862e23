"""M^-n kept as the integer pair (adj(M)^n, det(M)^n) against the Fraction
Gauss-Jordan oracle: every float derived from it agrees bit for bit."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from refinable import fourier_truncated_product, general_ball_bound, m0_eval, operator_norm
from refinable.bounds import CONTRACTION_SEARCH_CAP
from refinable.errors import ContractionSearchExhausted

from oracle import (
    as_floats,
    fourier_product,
    fraction_inverse_power,
    fraction_norm,
    general_ball_radius,
)
from test_congruences import problems

SETTINGS = settings(
    max_examples=100, suppress_health_check=[HealthCheck.filter_too_much]
)


def bits(x):
    return np.asarray(x).tobytes()


@SETTINGS
@given(problems(), st.integers(1, 6))
def test_inverse_power_array_and_norm(problem, n):
    matrix = problem.matrix
    exact = fraction_inverse_power(matrix.matrix, n)
    assert bits(matrix.inverse_power_array(n)) == bits(as_floats(exact))
    assert bits(operator_norm(*matrix.inverse_power(n))) == bits(fraction_norm(exact))
    if n == 1:
        assert bits(matrix.inverse_norm) == bits(fraction_norm(exact))


@SETTINGS
@given(problems())
def test_general_ball_bound_radius(problem):
    expected = general_ball_radius(problem, CONTRACTION_SEARCH_CAP)
    try:
        radius = general_ball_bound(problem).radius
    except ContractionSearchExhausted:
        radius = None
    if expected is None:
        assert radius is None
    else:
        assert bits(radius) == bits(expected)


@SETTINGS
@given(
    problems(),
    st.lists(st.floats(-2.0, 2.0, allow_nan=False, width=64), min_size=3, max_size=3),
    st.integers(1, 6),
)
def test_fourier_truncated_product(problem, u, terms):
    u = u[: problem.dim]
    expected = fourier_product(problem, u, terms, m0_eval)
    assert bits(fourier_truncated_product(problem, u, terms)) == bits(expected)
