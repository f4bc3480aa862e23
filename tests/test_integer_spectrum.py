"""The integer characteristic polynomial and spectrum against the Fraction
oracle, bit for bit.

The library runs Faddeev-LeVerrier and Yun's squarefree split on integer
polynomials; the oracle runs the same algorithms in ``Fraction`` with every
factor made monic.  Both must give the same coefficients and the same
eigenvalue bits, or raise the same error type.  Draws are random matrices
with d <= 6 and entries -20..20; block upper-triangular matrices whose
diagonal blocks repeat (so eigenvalues repeat), hidden by a unimodular
change of basis and sometimes scaled so the coefficients pass 2^53; and
matrices with a few entries far beyond 2^53 or beyond float range.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from refinable import DilationMatrix, IntMatrix, linalg
from refinable.errors import RootFindingFailure

# p(x) = x^4 - 1152921504606846977 x^3 + 13835058055282163801 x^2
#        - 63410682753376585479 x - 654859414616689087480, squarefree, whose
# companion-matrix roots from np.roots are too coarse for three of its four
# roots: Newton's update in linalg._roots_of_squarefree has to run on it
POLISHED = [1, -1152921504606846977, 13835058055282163801, -63410682753376585479,
            -654859414616689087480]
POLISHED_COMPANION = [
    [0, 0, 0, -POLISHED[4]],
    [1, 0, 0, -POLISHED[3]],
    [0, 1, 0, -POLISHED[2]],
    [0, 0, 1, -POLISHED[1]],
]

HUGE_ENTRIES = [2**60, -(10**40), 10**160, -(10**200), 2**1023, 10**310, -(3**700)]


def square(d, entry):
    return st.lists(st.lists(entry, min_size=d, max_size=d), min_size=d, max_size=d)


@st.composite
def small_matrices(draw, max_dim=6):
    d = draw(st.integers(1, max_dim))
    return draw(square(d, st.integers(-20, 20)))


@st.composite
def repeated_spectra(draw):
    """Block upper-triangular, with one 1x1 or 2x2 diagonal block repeated
    and perhaps a few 1x1 blocks, conjugated by integer shears."""
    size = draw(st.integers(1, 2))
    block = draw(square(size, st.integers(-5, 5)))
    copies = draw(st.integers(2, 6 // size))
    extras = draw(st.lists(st.integers(-5, 5), max_size=6 - size * copies))
    d = size * copies + len(extras)
    rows = [[0] * d for _ in range(d)]
    starts = [i * size for i in range(copies)]
    for s in starts:
        for a in range(size):
            for b in range(size):
                rows[s + a][s + b] = block[a][b]
    for i, value in enumerate(extras, start=size * copies):
        rows[i][i] = value
    # entries above the diagonal blocks
    for a in range(d):
        for b in range(a + 1, d):
            if not (a in starts and b == a + 1 and size == 2):
                rows[a][b] = draw(st.integers(-3, 3))
    # U A U^-1 with U = I + t E_ab: row a += t row b, then column b -= t column a
    for a, b, t in draw(st.lists(st.tuples(st.integers(0, d - 1), st.integers(0, d - 1),
                                           st.integers(-2, 2)), max_size=4)):
        if a == b:
            continue
        rows[a] = [x + t * y for x, y in zip(rows[a], rows[b])]
        for row in rows:
            row[b] -= t * row[a]
    scale = draw(st.sampled_from([1, 1, 1, 10**6, 2**40]))
    return [[scale * x for x in row] for row in rows]


@st.composite
def huge_entries(draw):
    rows = draw(small_matrices(max_dim=4))
    d = len(rows)
    for _ in range(draw(st.integers(1, 2))):
        i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        rows[i][j] = draw(st.sampled_from(HUGE_ENTRIES))
    return rows


def outcome(func, matrix):
    """The result with every float as its bits, or the error type."""
    try:
        result = func(matrix)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)
    if isinstance(result, tuple):
        return result
    return (
        tuple((z.real.hex(), z.imag.hex()) for z in result.eigenvalues),
        result.all_real,
    )


@settings(max_examples=400)
@given(st.one_of(small_matrices(), repeated_spectra(), huge_entries()))
@example(POLISHED_COMPANION)
def test_integer_spectrum_matches_the_fraction_oracle(rows):
    matrix = IntMatrix.from_rows(rows)
    assert outcome(lambda m: DilationMatrix(m).characteristic_polynomial, matrix) == outcome(
        oracle.characteristic_polynomial, matrix
    )
    assert outcome(lambda m: DilationMatrix(m).spectrum, matrix) == outcome(
        oracle.eigenvalues, matrix
    )


def test_newton_polish_runs_on_the_companion_example(monkeypatch):
    matrix = DilationMatrix(IntMatrix.from_rows(POLISHED_COMPANION))
    assert list(matrix.characteristic_polynomial) == POLISHED
    # the start values, judged by the backward-error test of
    # _roots_of_squarefree: |p(z)| <= 1e-14 times the evaluation scale
    cf = [float(c) for c in POLISHED]
    n = len(cf) - 1

    def backward_error(z):
        scale = sum(abs(c) * max(1.0, abs(z)) ** (n - i) for i, c in enumerate(cf))
        return abs(linalg._poly_eval(cf, z)) / max(scale, 1.0)

    assert max(backward_error(complex(z)) for z in np.roots(cf)) > 1e-14
    # without the update those start values are refused
    monkeypatch.setattr(linalg, "NEWTON_MAX_ITER", 0)
    with pytest.raises(RootFindingFailure):
        linalg._roots_of_squarefree(POLISHED)
