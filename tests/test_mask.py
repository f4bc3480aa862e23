"""Tests for problem ingestion, validation, and residue-class sums."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from refinable import (
    Mask,
    coset_sum_report,
    parse_problem,
    problem_from_data,
    serialize_problem,
)
from refinable.errors import (
    DimensionMismatch,
    EmptyMask,
    MaskSumViolation,
    NotDilation,
    ParseError,
)
from conftest import D4_COEFFS
from test_congruences import dilation_rows


def doc(dimension, matrix, coefficients):
    return json.dumps(
        {"dimension": dimension, "matrix": matrix, "coefficients": coefficients}
    )


HAAR_DOC = doc(1, [[2]], [{"q": [0], "c": "1/2"}, {"q": [1], "c": "1/2"}])


class TestParsing:
    def test_haar(self):
        problem = parse_problem(HAAR_DOC)
        assert problem.m == 2
        assert problem.mask.radius == 1.0
        assert problem.mask.rational is not None

    def test_d4_decimal_coefficients(self):
        # 17+ significant digits keep the sum within 1e-12 of one
        records = [{"q": [q], "c": repr(c)} for q, c in D4_COEFFS.items()]
        text = doc(1, [[2]], [{"q": [q], "c": c} for q, c in D4_COEFFS.items()])
        problem = parse_problem(text)
        assert problem.mask.radius == 3.0
        assert problem.mask.rational is None
        total = math.fsum(problem.mask.coefficients.values())
        assert abs(total - 1.0) <= 1e-12
        # hand sum: (1 + 3 + 3 + 1)/8 plus cancelling sqrt(3) terms
        assert records  # decimal strings intentionally unused as 'c' values

    def test_sum_violation(self):
        with pytest.raises(MaskSumViolation):
            parse_problem(doc(1, [[2]], [{"q": [0], "c": "1/2"}, {"q": [1], "c": "1/4"}]))

    def test_exact_masks_sum_to_exactly_one(self):
        # 1e-13 off: inside the float tolerance, refused on exact data
        with pytest.raises(MaskSumViolation, match=r"^mask coefficients must sum to 1 \(off by 1e-13\)$"):
            parse_problem(doc(1, [[2]], [{"q": [0], "c": "1/2"},
                                         {"q": [1], "c": "5000000000001/10000000000000"}]))
        twin = parse_problem(doc(1, [[2]], [{"q": [0], "c": 0.5}, {"q": [1], "c": 0.5000000000001}]))
        assert twin.mask.rational is None

    def test_unknown_top_level_field(self):
        data = json.loads(HAAR_DOC)
        data["comment"] = "nope"
        with pytest.raises(ParseError):
            parse_problem(json.dumps(data))

    def test_unknown_record_field(self):
        bad = doc(1, [[2]], [{"q": [0], "c": "1/2", "note": 1}, {"q": [1], "c": "1/2"}])
        with pytest.raises(ParseError):
            parse_problem(bad)

    def test_duplicate_index(self):
        bad = doc(1, [[2]], [{"q": [0], "c": "1/2"}, {"q": [0], "c": "1/2"}])
        with pytest.raises(ParseError):
            parse_problem(bad)

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            parse_problem("{not json")

    def test_bad_rational_string(self):
        bad = doc(1, [[2]], [{"q": [0], "c": "1/0"}, {"q": [1], "c": "1/2"}])
        with pytest.raises(ParseError):
            parse_problem(bad)

    def test_float_matrix_entry_rejected(self):
        bad = doc(1, [[2.0]], [{"q": [0], "c": 1}])
        with pytest.raises(ParseError):
            parse_problem(bad)

    def test_dimension_mismatch_in_index(self):
        bad = doc(2, [[2, 0], [0, 2]], [{"q": [0], "c": 1}])
        with pytest.raises(DimensionMismatch):
            parse_problem(bad)

    def test_dimension_mismatch_in_matrix(self):
        bad = doc(2, [[2, 0]], [{"q": [0, 0], "c": 1}])
        with pytest.raises(DimensionMismatch):
            parse_problem(bad)

    def test_not_dilation(self):
        bad = doc(1, [[1]], [{"q": [0], "c": 1}])
        with pytest.raises(NotDilation):
            parse_problem(bad)

    def test_zero_coefficients_dropped_from_support(self):
        problem = parse_problem(
            doc(1, [[2]], [
                {"q": [0], "c": "1/2"},
                {"q": [1], "c": "1/2"},
                {"q": [7], "c": 0},
            ])
        )
        assert (7,) not in problem.mask.coefficients
        assert problem.mask.radius == 1.0

    def test_empty_mask(self):
        with pytest.raises(EmptyMask):
            Mask(1, {})


class TestRoundTrip:
    def test_rational_round_trip(self, haar_problem):
        text = serialize_problem(haar_problem)
        again = parse_problem(text)
        assert again.mask == haar_problem.mask
        assert again.matrix.matrix == haar_problem.matrix.matrix
        assert serialize_problem(again) == text

    def test_float_round_trip(self, d4_problem):
        text = serialize_problem(d4_problem)
        again = parse_problem(text)
        assert again.mask.coefficients == d4_problem.mask.coefficients


@st.composite
def documents(draw):
    """A problem document on a random dilation (d <= 3) whose mask sums to
    one, in exact "p/q" or int coefficients or in floats, with some explicit
    zero coefficients among the records."""
    d, rows = draw(dilation_rows())
    vector = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    taps = draw(st.lists(vector, min_size=1, max_size=8, unique_by=tuple))
    if draw(st.booleans()):
        denominator = draw(st.integers(1, 30))
        nums = [draw(st.integers(-20, 20)) for _ in taps[1:]]
        coeffs = [Fraction(n, denominator) for n in nums]
        coeffs.insert(0, 1 - sum(coeffs, Fraction(0)))
        values = [
            c.numerator if c.denominator == 1 and draw(st.booleans())
            else f"{c.numerator}/{c.denominator}"
            for c in coeffs
        ]
    else:
        floats = st.floats(-4.0, 4.0, allow_nan=False, width=64)
        values = [draw(st.one_of(st.just(0.0), st.just(-0.0), floats)) for _ in taps[1:]]
        values.insert(0, 1.0 - math.fsum(values))
    return json.dumps({
        "dimension": d,
        "matrix": rows,
        "coefficients": [{"q": q, "c": c} for q, c in zip(taps, values)],
    })


@settings(
    max_examples=150, suppress_health_check=[HealthCheck.filter_too_much]
)
@given(documents())
def test_serialize_parse_round_trip(text):
    problem = parse_problem(text)
    assert parse_problem(serialize_problem(problem)) == problem


class TestRadius:
    def test_haar(self, haar_problem):
        assert haar_problem.mask.radius == 1.0

    def test_d4(self, d4_problem):
        assert d4_problem.mask.radius == 3.0

    def test_euclidean_2d(self):
        problem = problem_from_data(
            2,
            [[2, 0], [0, 2]],
            [{"q": [0, 0], "c": "1/2"}, {"q": [1, 1], "c": "1/2"}],
        )
        assert problem.mask.radius == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_permutation_invariance(self):
        records = [{"q": [q], "c": c} for q, c in D4_COEFFS.items()]
        r1 = problem_from_data(1, [[2]], records).mask.radius
        r2 = problem_from_data(1, [[2]], records[::-1]).mask.radius
        assert r1 == r2


def test_taps_are_sorted_once():
    # the kernel, the transfer assembly and the bounds read the taps on every
    # call; they share one sorted tuple, and the support is its keys
    mask = Mask(2, {(1, 0): 0.25, (0, 1): 0.25, (0, 0): 0.5})
    taps = mask.items_sorted()
    assert taps == (((0, 0), 0.5), ((0, 1), 0.25), ((1, 0), 0.25))
    assert mask.items_sorted() is taps
    assert mask.support == ((0, 0), (0, 1), (1, 0))


class TestCosetSums:
    def test_haar(self, haar_problem):
        report = coset_sum_report(haar_problem)
        assert report.representatives == ((0,), (1,))
        assert report.sums == (0.5, 0.5)
        assert report.uniform

    def test_d4(self, d4_problem):
        report = coset_sum_report(d4_problem)
        assert report.sums[0] == pytest.approx(0.5, abs=1e-12)
        assert report.sums[1] == pytest.approx(0.5, abs=1e-12)
        assert report.uniform

    def test_non_uniform(self):
        problem = problem_from_data(1, [[2]], [{"q": [0], "c": 1}])
        report = coset_sum_report(problem)
        assert report.sums == (1.0, 0.0)
        assert not report.uniform

    def test_quincunx_representatives(self, quincunx_problem):
        report = coset_sum_report(quincunx_problem)
        assert report.representatives == ((0, 0), (1, 0))
        assert report.uniform

    @pytest.mark.parametrize(
        "fixture",
        ["haar_problem", "d4_problem", "quincunx_problem", "jordan2d_problem",
         "noncontractive_problem"],
    )
    def test_sums_total_one(self, fixture, request):
        problem = request.getfixturevalue(fixture)
        report = coset_sum_report(problem)
        assert len(report.representatives) == problem.m
        assert math.fsum(report.sums) == pytest.approx(1.0, abs=1e-12)
