"""Shared problem fixtures: the classical test masks of the suite, and the
one Hypothesis profile every property test runs under."""

import math

import pytest
from hypothesis import settings

from refinable import problem_from_data

# Every run draws the same examples, so two revisions are tested on the same
# inputs; no deadline, since timing varies between machines; no example
# database, so earlier failures do not change what a run draws.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")

SQRT3 = math.sqrt(3.0)

# Orthonormal 4-tap mask with sum 1; its limit function is supported in [0, 3]
# and continuous, which makes it the standard nontrivial 1-D test case.
D4_COEFFS = {
    0: (1 + SQRT3) / 8,
    1: (3 + SQRT3) / 8,
    2: (3 - SQRT3) / 8,
    3: (1 - SQRT3) / 8,
}


@pytest.fixture(scope="session")
def haar_problem():
    return problem_from_data(
        1, [[2]], [{"q": [0], "c": "1/2"}, {"q": [1], "c": "1/2"}]
    )


@pytest.fixture(scope="session")
def d4_problem():
    records = [{"q": [q], "c": c} for q, c in D4_COEFFS.items()]
    return problem_from_data(1, [[2]], records)


@pytest.fixture(scope="session")
def quincunx_problem():
    return problem_from_data(
        2,
        [[1, 1], [1, -1]],
        [{"q": [0, 0], "c": "1/2"}, {"q": [1, 0], "c": "1/2"}],
    )


@pytest.fixture(scope="session")
def jordan2d_problem():
    # defective dilation [[2,0],[1,2]] with the 2-D box mask
    records = [
        {"q": [0, 0], "c": "1/4"},
        {"q": [1, 0], "c": "1/4"},
        {"q": [0, 1], "c": "1/4"},
        {"q": [1, 1], "c": "1/4"},
    ]
    return problem_from_data(2, [[2, 0], [1, 2]], records)


@pytest.fixture(scope="session")
def noncontractive_problem():
    # ||M^-1|| > 1 although M is a dilation matrix
    records = [
        {"q": [0, 0], "c": "1/3"},
        {"q": [1, 0], "c": "1/3"},
        {"q": [0, 1], "c": "1/3"},
    ]
    return problem_from_data(2, [[0, 1], [3, 1]], records)
