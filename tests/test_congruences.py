"""Lattice congruences decided in integers (adj(M)^k v = 0 mod det^k) against
the exact Fraction solves they replace, bit for bit."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from refinable import problem_from_data
from refinable.cascade import IntBox, SampledFunction
from refinable.errors import IndexOverflow
from refinable.linalg import DilationMatrix, IntMatrix, adjugate, determinant, is_dilation
from refinable.mask import COSET_UNIFORM_TOL, _coset_representatives, coset_sum_report
from refinable.pointwise import ValueTable, periodization_check


# ---------------------------------------------------------------------------
# the Fraction algorithms as they were, kept as the reference
# ---------------------------------------------------------------------------

def apply(matrix, vector):
    vec = [Fraction(v) for v in vector]
    return tuple(sum(a * v for a, v in zip(row, vec)) for row in matrix.rows)


def reference_representatives(matrix):
    d = matrix.dim
    rows = matrix.matrix.rows
    lo = [sum(min(rows[i][j], 0) for j in range(d)) for i in range(d)]
    hi = [sum(max(rows[i][j], 0) for j in range(d)) for i in range(d)]
    inv = matrix.inverse
    reps = []

    def scan(prefix):
        if len(prefix) == d:
            preimage = apply(inv, prefix)
            if all(0 <= x < 1 for x in preimage):
                reps.append(tuple(prefix))
            return
        i = len(prefix)
        for value in range(lo[i], hi[i] + 1):
            scan(prefix + [value])

    scan([])
    reps.sort()
    return reps


def reference_coset_sums(problem):
    reps = reference_representatives(problem.matrix)
    inv = problem.matrix.inverse
    sums = [0.0] * len(reps)
    for q, value in problem.mask.items_sorted():
        for i, rep in enumerate(reps):
            delta = [a - b for a, b in zip(q, rep)]
            if all(x.denominator == 1 for x in apply(inv, delta)):
                sums[i] += value
                break
        else:
            raise ArithmeticError(f"index {q} matched no residue class")
    target = 1.0 / problem.m
    uniform = all(abs(s - target) <= COSET_UNIFORM_TOL for s in sums)
    return tuple(reps), tuple(sums), uniform


def reference_periodization(problem, table, level, probes):
    stored = table.samples[level]
    power = problem.matrix.power(level)
    inv_power = problem.matrix.inverse_power(level) if level else None
    results = []
    for probe in probes:
        x = tuple(float(v) for v in probe)
        kx_float = np.asarray(power.as_array() @ np.asarray(x))
        kx = tuple(int(round(v)) for v in kx_float)
        if np.max(np.abs(kx_float - np.asarray(kx, dtype=float))) > 1e-6:
            raise ValueError(f"probe {x} is not on the level-{level} lattice")
        total = 0.0
        for idx, value in zip(stored.indices.tolist(), stored.values.tolist()):
            delta = [a - b for a, b in zip(idx, kx)]
            if level == 0:
                integral = True
            else:
                integral = all(f.denominator == 1 for f in apply(inv_power, delta))
            if integral:
                total += value
        results.append((x, total, abs(total - 1.0)))
    return tuple(results)


# ---------------------------------------------------------------------------
# random dilations (d <= 3) and rational masks
# ---------------------------------------------------------------------------

@st.composite
def dilation_rows(draw):
    d = draw(st.integers(1, 3))
    rows = draw(
        st.lists(
            st.lists(st.integers(-3, 3), min_size=d, max_size=d),
            min_size=d, max_size=d,
        )
    )
    assume(bool(is_dilation(IntMatrix.from_rows(rows))))
    return d, rows


@st.composite
def problems(draw):
    d, rows = draw(dilation_rows())
    vector = st.tuples(*[st.integers(-3, 3)] * d)
    taps = draw(st.lists(vector, min_size=1, max_size=8, unique=True))
    denominator = draw(st.integers(1, 30))
    nums = draw(st.lists(st.integers(-20, 20).filter(bool),
                         min_size=len(taps) - 1, max_size=len(taps) - 1))
    coeffs = [Fraction(n, denominator) for n in nums]
    last = 1 - sum(coeffs, Fraction(0))
    assume(last != 0)
    coeffs.append(last)
    records = [{"q": list(q), "c": f"{c.numerator}/{c.denominator}"}
               for q, c in zip(taps, coeffs)]
    return problem_from_data(d, rows, records)


@st.composite
def tables(draw):
    """A problem and a value table on levels 0..2 with arbitrary values (the
    congruence test does not need a refinable table), plus probes on each
    level's lattice."""
    problem = draw(problems())
    d = problem.dim
    index = st.tuples(*[st.integers(-12, 12)] * d)
    value = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False, width=64)
    samples, probes = {}, {}
    for level in range(3):
        keys = sorted(draw(st.lists(index, min_size=0, max_size=40, unique=True)))
        indices = np.asarray(keys, dtype=np.int64).reshape(len(keys), d)
        values = np.asarray(draw(st.lists(value, min_size=len(keys), max_size=len(keys))))
        samples[level] = SampledFunction(level, indices, values, IntBox.hull(indices))
        ks = draw(st.lists(index, min_size=1, max_size=6))
        inv = problem.matrix.inverse_power_array(level)
        probes[level] = [tuple((np.asarray(k, dtype=float) @ inv.T).tolist()) for k in ks]
    return problem, ValueTable(samples, False), probes


SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
)


@SETTINGS
@given(problems())
def test_coset_sums_match_fraction_solves(problem):
    report = coset_sum_report(problem)
    reps, sums, uniform = reference_coset_sums(problem)
    assert report.representatives == reps
    # tuples of floats compare by value; compare bit patterns as well
    assert np.asarray(report.sums).tobytes() == np.asarray(sums).tobytes()
    assert report.uniform == uniform


@SETTINGS
@given(tables())
def test_periodization_matches_fraction_solves(case):
    problem, table, probes = case
    for level in range(3):
        new = periodization_check(problem, table, level, probes[level])
        old = reference_periodization(problem, table, level, probes[level])
        assert [p for p, _, _ in new] == [p for p, _, _ in old]
        for (_, total, dev), (_, total_old, dev_old) in zip(new, old):
            assert np.float64(total).tobytes() == np.float64(total_old).tobytes()
            assert np.float64(dev).tobytes() == np.float64(dev_old).tobytes()


# ---------------------------------------------------------------------------
# fixed cases
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "rows",
    [[[2]], [[-3]], [[1, 1], [-1, 1]], [[0, 1], [3, 1]], [[2, 0], [1, 2]],
     [[0, 0, 2], [0, 2, 0], [1, 0, 0]], [[1, 2, 0], [0, 1, 2], [2, 0, 1]]],
)
def test_adjugate_is_det_times_inverse(rows):
    matrix = IntMatrix.from_rows(rows)
    adj = adjugate(matrix)
    det = determinant(matrix)
    inv = DilationMatrix(matrix).inverse
    assert all(
        Fraction(a) == det * b
        for row_a, row_b in zip(adj.rows, inv.rows) for a, b in zip(row_a, row_b)
    )


def test_residues_classify_congruence():
    matrix = DilationMatrix.from_rows([[1, 1], [1, -1]])
    points = np.asarray([[i, j] for i in range(-4, 5) for j in range(-4, 5)], dtype=np.int64)
    for level in range(4):
        keys = matrix.residues(level, points)
        inv = matrix.inverse_power(level) if level else None
        for a in range(0, len(points), 7):
            for b in range(0, len(points), 5):
                delta = (points[a] - points[b]).tolist()
                same = level == 0 or all(x.denominator == 1 for x in apply(inv, delta))
                assert same == bool(np.array_equal(keys[a], keys[b]))


def test_residues_fall_back_to_python_ints_without_wrapping():
    # |det| = 50000: at level 2 the modulus is 2.5e9, so d (modulus - 1)^2
    # does not fit in int64 and the products are taken in Python ints
    matrix = DilationMatrix.from_rows([[50000]])
    big = np.asarray([[3 * 50000**2 + 7], [7], [-(50000**2) + 7]], dtype=np.int64)
    keys = matrix.residues(2, big)
    assert keys.dtype == np.int64
    assert keys[:, 0].tolist() == [7, 7, 7]
    with pytest.raises(IndexOverflow):
        DilationMatrix.from_rows([[2]]).residues(63, big)


def test_representatives_are_exactly_m_sorted_points():
    for rows in ([[2]], [[-3]], [[0, 1], [3, 1]], [[1, 1], [1, -1]], [[-2, 1], [0, -2]]):
        matrix = DilationMatrix.from_rows(rows)
        reps = _coset_representatives(matrix)
        assert reps.dtype == np.int64 and len(reps) == matrix.m
        assert list(map(tuple, reps.tolist())) == reference_representatives(matrix)
    # a 1-D box wider than one scan chunk
    wide = DilationMatrix.from_rows([[-100003]])
    reps = _coset_representatives(wide)
    assert reps[:, 0].tolist() == list(range(-100002, 1))
    assert math.prod(reps.shape) == 100003


def test_coset_sums_of_indices_beyond_int64():
    problem = problem_from_data(
        2, [[1, 1], [-1, 1]],
        [{"q": [0, 0], "c": "1/2"}, {"q": [10**20, 1], "c": "1/4"},
         {"q": [-(10**19) - 1, 0], "c": "1/4"}],
    )
    report = coset_sum_report(problem)
    assert (report.representatives, report.sums, report.uniform) == reference_coset_sums(problem)
