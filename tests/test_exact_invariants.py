"""The determinant, adjugate and characteristic polynomial that one
Faddeev-LeVerrier pass gives, against independent references bit for bit:
Bareiss elimination and the cofactor adjugate from ``oracle``, and the
``Fraction`` recursion for the polynomial.

Draws have d = 1..8 with small entries or entries up to 10^40 in modulus;
some are made singular by replacing a row with an integer combination of
the others, or with zeros.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from refinable import DilationMatrix, IntMatrix
from refinable.linalg import _matmul

ENTRIES = {"small": st.integers(-3, 3), "huge": st.integers(-(10**40), 10**40)}


@st.composite
def matrices(draw):
    d = draw(st.integers(1, 8))
    entry = ENTRIES[draw(st.sampled_from(sorted(ENTRIES)))]
    rows = draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=d, max_size=d))
    if draw(st.booleans()):
        # a dependent row makes the matrix singular
        target = draw(st.integers(0, d - 1))
        weights = draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d))
        rows[target] = [
            sum(w * rows[r][j] for r, w in enumerate(weights) if r != target)
            for j in range(d)
        ]
    return rows


@settings(max_examples=300)
@given(matrices())
def test_one_pass_matches_the_references(rows):
    matrix = IntMatrix.from_rows(rows)
    det = oracle.determinant(matrix)
    adj = oracle.adjugate(matrix)
    fresh = DilationMatrix(matrix)
    assert fresh.characteristic_polynomial == oracle.characteristic_polynomial(matrix)
    assert fresh.determinant == det
    assert fresh.adjugate == adj
    # adj(M) M = det(M) I, singular matrices included
    d = matrix.dim
    assert _matmul(adj, matrix).rows == tuple(
        tuple(det if i == j else 0 for j in range(d)) for i in range(d)
    )
