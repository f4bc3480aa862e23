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
from hypothesis import given, settings
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
def conjugated_jordan_forms(draw):
    """(rows of P J P^-1, the planted blocks in the library's order)."""
    d = draw(st.integers(1, 4))
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
    shears = draw(st.lists(
        st.tuples(st.sampled_from(pairs), st.sampled_from([-2, -1, 1, 2])), max_size=4
    )) if pairs else []
    forward = backward = [[int(r == s) for s in range(d)] for r in range(d)]
    for (i, j), c in shears:
        forward = matmul(forward, shear(d, i, j, c))
        backward = matmul(shear(d, i, j, -c), backward)
    rows = matmul(matmul(forward, jordan), backward)
    return rows, tuple(sorted(((float(lam), size) for lam, size in blocks),
                              key=lambda b: (b[0], -b[1])))


@settings(max_examples=300)
@given(conjugated_jordan_forms())
def test_planted_blocks_are_recovered(case):
    rows, planted = case
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
