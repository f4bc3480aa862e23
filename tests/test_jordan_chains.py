"""The generalized-eigenvector chains behind the real Jordan form.

A matrix M = P J P^-1, with J a planted integer Jordan matrix and P a
unimodular product of integer shears, is an integer matrix whose Jordan
blocks are known in advance; the shears tilt every kernel of (M - lambda I)^k
off the coordinate axes.  The chain step must recover the planted blocks, in
the library's order (eigenvalues ascending, taller chains first), with a
transform that reconstructs M, or refuse with IllConditionedTransform.
"""

import json
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from refinable import DilationMatrix, cli, linalg
from refinable.errors import IllConditionedTransform
from refinable.linalg import RECONSTRUCTION_RTOL

JORDAN3 = [[3, 1, 0], [0, 3, 1], [0, 0, 3]]


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def shear(d, i, j, c):
    return [[int(r == s) + (c if (r, s) == (i, j) else 0) for s in range(d)] for r in range(d)]


@st.composite
def conjugated_jordan_forms(draw, dims=st.integers(1, 4),
                            coefficients=st.sampled_from([-2, -1, 1, 2]), shears=(0, 4)):
    """(rows of P J P^-1, the planted blocks in the library's order), with d
    drawn from ``dims`` and P a product of ``shears`` (least, most) shears
    whose coefficients are drawn from ``coefficients``."""
    d = draw(dims)
    blocks = []
    while sum(size for _, size in blocks) < d:
        lam = draw(st.sampled_from([-3, -2, 2, 3]))
        blocks.append((lam, draw(st.integers(1, d - sum(size for _, size in blocks)))))
    jordan = [[0] * d for _ in range(d)]
    p = 0
    for lam, size in blocks:
        for i in range(p, p + size):
            jordan[i][i] = lam
            if i + 1 < p + size:
                jordan[i + 1][i] = 1
        p += size
    pairs = [(i, j) for i in range(d) for j in range(d) if i != j]
    steps = draw(st.lists(
        st.tuples(st.sampled_from(pairs), coefficients), min_size=shears[0], max_size=shears[1]
    )) if pairs else []
    forward = backward = [[int(r == s) for s in range(d)] for r in range(d)]
    for (i, j), c in steps:
        forward = matmul(forward, shear(d, i, j, c))
        backward = matmul(shear(d, i, j, -c), backward)
    rows = matmul(matmul(forward, jordan), backward)
    return rows, tuple(sorted(((float(lam), size) for lam, size in blocks),
                              key=lambda b: (b[0], -b[1])))


@settings(max_examples=300)
@given(conjugated_jordan_forms())
def test_planted_blocks_are_recovered(case):
    assert_planted_or_refused(*case)


def assert_planted_or_refused(rows, planted):
    try:
        structure = DilationMatrix.from_rows(rows).jordan_structure
    except IllConditionedTransform:
        return
    assert structure.blocks == planted
    a = np.array(rows, dtype=float)
    recon = structure.transform @ structure.jordan_matrix() @ structure.transform_inverse
    assert np.max(np.abs(recon - a)) <= RECONSTRUCTION_RTOL * max(np.max(np.abs(a)), 1.0)


@pytest.fixture()
def non_concave_nullities(monkeypatch):
    """Make the rank tests of JORDAN3 report nullities 1 and 3 for N and N^2
    (1 and 2 are right).  No chains fit: the one chain that ker N allows
    cannot supply the two new dimensions of ker N^2."""
    real = linalg._null_space

    def reported(matrix, rtol, floor):
        sing, basis, _ = real(matrix, rtol, floor)
        fake = np.eye(len(matrix))[: {1: 1, 2: 3}[len(basis)]]
        return sing, fake, fake

    monkeypatch.setattr(linalg, "_null_space", reported)


REFUSAL = "rank sequence of (M - 3.0 I)^k is inconsistent"


@pytest.mark.usefixtures("non_concave_nullities")
def test_non_concave_nullities_are_refused():
    with pytest.raises(IllConditionedTransform, match="^" + re.escape(REFUSAL)):
        DilationMatrix.from_rows(JORDAN3).jordan_structure


@pytest.mark.usefixtures("non_concave_nullities")
def test_analyze_reports_the_refusal(tmp_path, capsys):
    doc = tmp_path / "jordan3.json"
    doc.write_text(json.dumps({"dimension": 3, "matrix": JORDAN3,
                               "coefficients": [{"q": [0, 0, 0], "c": 1}]}))
    assert cli.main(["analyze", str(doc)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines()[-1] == f"jordan-blocks: not available ({REFUSAL})"


# ---------------------------------------------------------------------------
# float rank tests against the exact ranks of integer eigenvalues
# ---------------------------------------------------------------------------

# one size-3 block at -3 and a simple eigenvalue 2; the SVD rank tests read
# two blocks of sizes 2 and 1 at -3
SHEARED_MINUS3 = [[-3, 0, 0, 0], [1, -3, 0, 0], [-642, 252151, -367773, 1230],
                  [-192163, 75394174, -109964725, 367772]]
# one size-3 block at 2 and a simple eigenvalue -2, read as blocks of sizes
# 2 and 1 at 2
SHEARED_PLUS2 = [[2, 0, 0, 0], [1, 2, 0, 0], [-6213550, 7101601, -51070, -4902528],
                 [64731, -73975, 532, 51070]]


@pytest.mark.parametrize(("rows", "lam"), [(SHEARED_MINUS3, -3.0), (SHEARED_PLUS2, 2.0)])
def test_rank_tests_disagreeing_with_exact_ranks_are_refused(rows, lam):
    refusal = f"numerical ranks of (M - {lam} I)^k disagree with the exact ranks"
    with pytest.raises(IllConditionedTransform, match="^" + re.escape(refusal) + "$"):
        DilationMatrix.from_rows(rows).jordan_structure


def test_refused_blocks_fall_back_to_the_iterated_ball(tmp_path, capsys):
    doc = tmp_path / "sheared.json"
    doc.write_text(json.dumps({"dimension": 4, "matrix": SHEARED_MINUS3, "coefficients": [
        {"q": [0, 0, 0, 0], "c": "1/2"}, {"q": [1, 0, 0, 0], "c": "1/2"}]}))
    assert cli.main(["analyze", str(doc)]) == 0
    out = capsys.readouterr().out
    assert "jordan-blocks: not available (numerical ranks of (M - -3.0 I)^k" in out
    assert cli.main(["bound", str(doc)]) == 0
    assert "selected: iterated-norm-ball (k=25)" in capsys.readouterr().out.splitlines()


# ill-conditioned forms: about 2 % of them got wrong blocks from the float
# ranks alone, and 600 examples meet such a form
STEEP_SHEARS = conjugated_jordan_forms(
    st.integers(3, 4),
    st.builds(lambda c, sign: sign * c, st.integers(5, 400), st.sampled_from([-1, 1])),
    (1, 5),
)


@settings(max_examples=600)
@given(STEEP_SHEARS)
def test_steep_shears_give_the_exact_blocks_or_a_refusal(case):
    rows, planted = case
    assume(max(abs(x) for row in rows for x in row) < 2**50)
    assert_planted_or_refused(rows, planted)
