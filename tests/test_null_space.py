"""Property test of ``linalg._null_space``, the one numerical-rank decision
behind the Jordan block sizes and the transfer eigenspace.

Integer matrices A = X Y with X of size d x r and Y of size r x d have
rank at most r.  Small entries keep every nonzero singular value far above
the relative tolerance, so the numerical nullity must equal d minus the
rank found exactly, by elimination in Fractions.
"""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from refinable.linalg import RANK_RTOL, _null_space


def exact_rank(rows: list[list[int]]) -> int:
    """Rank by Gaussian elimination over the rationals."""
    work = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((i for i in range(rank, len(work)) if work[i][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for i in range(len(work)):
            if i != rank and work[i][col] != 0:
                factor = work[i][col] / work[rank][col]
                work[i] = [a - factor * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


@st.composite
def low_rank_products(draw):
    d = draw(st.integers(1, 6))
    r = draw(st.integers(0, d))
    entries = st.integers(-2, 2)
    x = draw(st.lists(st.lists(entries, min_size=r, max_size=r), min_size=d, max_size=d))
    y = draw(st.lists(st.lists(entries, min_size=d, max_size=d), min_size=r, max_size=r))
    return [[sum(x[i][k] * y[k][j] for k in range(r)) for j in range(d)] for i in range(d)]


@settings(max_examples=150)
@given(low_rank_products(), st.sampled_from([0.0, 1.0]))
def test_null_space_matches_the_exact_rank(rows, floor):
    a = np.array(rows, dtype=float)
    d = len(rows)
    sing, right, left = _null_space(a, RANK_RTOL, floor)
    assert sing.shape == (d,) and np.all(np.diff(sing) <= 0)
    assert len(right) == len(left) == d - exact_rank(rows)
    assert right.shape == left.shape == (len(right), d)
    for rows_ in (right, left):
        assert np.allclose(rows_ @ rows_.T, np.eye(len(rows_)), atol=1e-12)
    # sign-canonical: each right row's first largest-magnitude entry is positive
    assert all(row[np.argmax(np.abs(row))] > 0 for row in right)
    slack = RANK_RTOL * max(floor, sing[0]) + 1e-12 * max(1.0, sing[0])
    assert np.all(np.abs(a @ right.T) <= slack)
    assert np.all(np.abs(left @ a) <= slack)


def test_floor_raises_the_tolerance():
    # singular values 1 and 1e-10: relative to sigma_0 = 1 the second is
    # zero, and it stays zero when the floor is larger still
    a = np.diag([1.0, 1e-10])
    assert len(_null_space(a, RANK_RTOL, 0.0)[1]) == 1
    assert len(_null_space(a, 1e-11, 0.0)[1]) == 0
    assert len(_null_space(a, 1e-11, 100.0)[1]) == 1
