"""The per-level column passes against the row-wise forms they replaced, bit
for bit: the kernel's sort-free merge, the bounds' containment tests, the
image join of value refinement, the cascade's support extent and the
one-pass transfer assembly.  Also the kernel's memory per scattered row and
the scatter cap on refinement levels."""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from refinable import build_transfer_matrix, candidate_points, cli, problem_from_data
from refinable import cascade as cascade_mod
from refinable import pointwise
from refinable.bounds import _MEMBERSHIP_TOL, Ball, Box, TransformedBox, _row_norms
from refinable.cascade import (
    RealBox,
    SampledFunction,
    empirical_support,
    refinement_step,
    run_cascade,
)
from refinable.pointwise import _locate, _with_images

from oracle import apply
from test_kernel_writer import dilations, reference_step
from test_value_arrays import refine_cases

PROBLEMS = Path(__file__).resolve().parent.parent / "demos" / "problems"
BUNDLED = sorted(PROBLEMS.glob("*.json"))
_PROPERTY = settings(
    max_examples=80,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def bundled(path):
    doc = json.loads(path.read_text())
    return problem_from_data(doc["dimension"], doc["matrix"], doc["coefficients"])


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


# ---------------------------------------------------------------------------
# the kernel's merge
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("step", [1, 2])
def test_kernel_adds_each_key_in_tap_order(step):
    # sixteen inexact taps reach every inner key, so any other order of
    # addition changes some sums in the last bits; the rows come unsorted,
    # and zeros of both signs and cancelling pairs give exact-zero sums
    rng = np.random.default_rng(16)
    coeffs = rng.uniform(0.5, 1.5, 16)
    records = [{"q": [q], "c": float(c)} for q, c in enumerate(coeffs / coeffs.sum())]
    problem = problem_from_data(1, [[2]], records)
    indices = rng.permutation(np.arange(-2000, 2000, dtype=np.int64)).reshape(-1, 1)
    values = rng.standard_normal(4000) * 10.0 ** rng.integers(-8, 8, 4000)
    values[:1000] = np.resize([0.0, -0.0, 1.0, -1.0], 1000)
    out, sums = refinement_step(problem, indices, values, step)
    keys, expected = reference_step(problem, indices, values, step)
    assert [tuple(row) for row in out.tolist()] == keys
    assert np.array_equal(bits(sums), bits(expected))


# ---------------------------------------------------------------------------
# containment
# ---------------------------------------------------------------------------

def old_contains_many(bound, points):
    """The row-wise forms the column passes replaced."""
    pts = np.asarray(points, dtype=float)
    if isinstance(bound, Ball):
        return np.linalg.norm(pts, axis=1) <= bound.radius + _MEMBERSHIP_TOL * max(
            1.0, bound.radius
        )
    if isinstance(bound, TransformedBox):
        pts = pts @ bound.transform_inverse.T
    h = np.asarray(bound.half_widths, dtype=float)
    return np.all(np.abs(pts) <= h + _MEMBERSHIP_TOL * np.maximum(1.0, h), axis=1)


@st.composite
def bounds_and_points(draw, exact):
    """A bound of each kind in dimension 1..8 and points whose extents set
    some of its radius or half-widths, so that points lie on the boundary.
    With ``exact``, coordinates and the inverse transform are multiples of
    1/4, so every sum of products is exact in any order."""
    d = draw(st.integers(1, 8))
    n = draw(st.integers(1, 12))
    if exact:
        coordinate = st.integers(-32, 32).map(lambda k: k / 4)
    else:
        coordinate = st.floats(-1e3, 1e3, allow_nan=False)
    pts = np.array(draw(st.lists(st.lists(coordinate, min_size=d, max_size=d),
                                 min_size=n, max_size=n)))
    kind = draw(st.sampled_from(["ball", "box", "transformed"]))
    if kind == "ball":
        norms = np.linalg.norm(pts, axis=1)
        radius = draw(st.one_of(st.sampled_from(norms.tolist()), st.floats(0, 1e3)))
        return Ball(radius, d, "test"), pts
    inverse = np.eye(d)
    if kind == "transformed":
        entries = st.integers(-8, 8).map(lambda k: k / 4)
        inverse = np.array(draw(st.lists(st.lists(entries, min_size=d, max_size=d),
                                         min_size=d, max_size=d)))
    extents = np.abs(pts @ inverse.T)
    halves = tuple(
        float(draw(st.one_of(st.sampled_from(extents[:, i].tolist()), st.floats(0, 1e3))))
        for i in range(d)
    )
    if kind == "box":
        return Box(halves, "test"), pts
    return TransformedBox(np.eye(d), inverse, halves, "test"), pts


@_PROPERTY
@given(st.one_of(bounds_and_points(exact=False), bounds_and_points(exact=True)))
def test_contains_many_matches_row_wise_form(case):
    bound, pts = case
    assert bound.contains_many(pts).tolist() == old_contains_many(bound, pts).tolist()


@pytest.mark.parametrize("d", range(1, 11))
def test_row_norms_match_numpy_bitwise(d):
    rng = np.random.default_rng(d)
    pts = rng.standard_normal((5000, d)) * 10.0 ** rng.integers(-150, 150, size=(5000, d))
    assert np.array_equal(bits(_row_norms(pts)), bits(np.linalg.norm(pts, axis=1)))


# ---------------------------------------------------------------------------
# the image join of value refinement
# ---------------------------------------------------------------------------

def old_with_images(indices, values, images):
    _, found = _locate(indices, images)
    extra = images[~found]
    if len(extra) == 0:
        return indices, values
    rows = np.concatenate([indices, extra])
    order = np.lexsort(rows.T[::-1])
    return rows[order], np.concatenate([values, np.zeros(len(extra))])[order]


@st.composite
def image_joins(draw):
    d = draw(st.integers(1, 3))
    point = st.tuples(*[st.integers(-6, 6)] * d)
    rows = sorted(draw(st.sets(point, max_size=30)))
    fresh = draw(st.sets(point, max_size=30))
    shared = draw(st.sets(st.sampled_from(rows), max_size=10)) if rows else set()
    images = list(fresh | shared)
    draw(st.randoms(use_true_random=False)).shuffle(images)
    value = st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-300])
    values = draw(st.lists(value, min_size=len(rows), max_size=len(rows)))

    def as_array(points):
        return np.array(points, dtype=np.int64).reshape(len(points), d)

    return as_array(rows), np.array(values, dtype=float), as_array(images)


@_PROPERTY
@given(image_joins())
def test_with_images_matches_lexsort_join(case):
    indices, values, images = case
    rows, vals = _with_images(indices, values, images)
    old_rows, old_vals = old_with_images(indices, values, images)
    assert rows.dtype == np.int64 and rows.tolist() == old_rows.tolist()
    assert np.array_equal(bits(vals), bits(old_vals))


# ---------------------------------------------------------------------------
# the cascade's support extent
# ---------------------------------------------------------------------------

def old_support(problem, sampled, eps):
    keep = np.abs(sampled.values) > eps
    if not np.any(keep):
        return None
    inv_power = problem.matrix.inverse_power_array(sampled.level)
    coords = sampled.indices[keep].astype(float) @ inv_power.T
    return RealBox(
        tuple(float(x) for x in coords.min(axis=0)),
        tuple(float(x) for x in coords.max(axis=0)),
    )


@_PROPERTY
@given(dilations(), st.data())
def test_empirical_support_matches_row_wise_form(dilation, data):
    d, rows = dilation
    problem = problem_from_data(d, rows, [{"q": [0] * d, "c": 1}])
    n = data.draw(st.integers(1, 40))
    indices = np.array(
        data.draw(st.lists(st.lists(st.integers(-20, 20), min_size=d, max_size=d),
                           min_size=n, max_size=n)),
        dtype=np.int64,
    )
    value = st.sampled_from([0.0, -0.0, 1e-13, -1e-13, 1.0, -0.5])
    values = np.array(data.draw(st.lists(value, min_size=n, max_size=n)))
    sampled = SampledFunction(data.draw(st.integers(0, 4)), indices, values)
    eps = data.draw(st.sampled_from([0.0, 1e-12]))
    # repr tells the zeros apart
    assert repr(empirical_support(problem, sampled, eps)) == repr(
        old_support(problem, sampled, eps)
    )


# ---------------------------------------------------------------------------
# transfer assembly in one pass
# ---------------------------------------------------------------------------

def per_tap_transfer(problem, points):
    """Row i gets m c_q at the column of M k_i - q, one tap at a time, with a
    dict from point to column."""
    column = {tuple(p): j for j, p in enumerate(points)}
    m = float(problem.m)
    matrix = np.zeros((len(points), len(points)))
    for q, c in problem.mask.coefficients.items():
        for i, k in enumerate(points):
            image = apply(problem.matrix.matrix, k)
            j = column.get(tuple(a - b for a, b in zip(image, q)))
            if j is not None:
                matrix[i, j] = m * c
    return matrix


@pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.stem)
def test_transfer_matches_per_tap_reference_on_bundled_problems(path):
    problem = bundled(path)
    points = list(candidate_points(problem))
    for arrangement in (points, points[::-1], points[1::2] + points[::2]):
        got = build_transfer_matrix(problem, arrangement).matrix
        assert np.array_equal(bits(got), bits(per_tap_transfer(problem, arrangement)))


@_PROPERTY
@given(refine_cases(), st.randoms(use_true_random=False))
def test_transfer_matches_per_tap_reference(case, rnd):
    problem = case[0]
    points = list(candidate_points(problem))
    rnd.shuffle(points)
    got = build_transfer_matrix(problem, points).matrix
    assert np.array_equal(bits(got), bits(per_tap_transfer(problem, points)))


# ---------------------------------------------------------------------------
# kernel memory and the scatter cap on refinement
# ---------------------------------------------------------------------------

def test_kernel_peak_is_at_most_70_bytes_per_scattered_row():
    problem = bundled(PROBLEMS / "shear2d.json")
    level9 = run_cascade(problem, levels=9)[-1]
    scatter = len(problem.mask.coefficients) * len(level9.values)
    assert scatter == 2**20
    tracemalloc.start()
    try:
        refinement_step(problem, level9.indices, level9.values, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 70 * scatter


def test_refine_level_over_the_scatter_cap_is_refused_before_the_kernel(
    tmp_path, capsys, monkeypatch
):
    doc = str(PROBLEMS / "skew3.json")
    steps = []
    kernel = pointwise.refinement_step

    def recorded(problem, indices, values, step):
        steps.append((step, len(indices)))
        return kernel(problem, indices, values, step)

    monkeypatch.setattr(pointwise, "refinement_step", recorded)
    args = ["refine", doc, "--left-closed", "--levels", "3", "--outdir"]
    assert cli.main(args + [str(tmp_path / "full")]) == 0
    assert [step for step, _ in steps] == [1, 2, 3]
    samples = steps[2][1]
    scatter = 3 * samples  # skew3 has three taps
    capsys.readouterr()

    merge = cascade_mod._merge_runs

    def capped_merge(keys, weights):
        if len(keys) > cascade_mod._SCATTER_CAP:
            raise AssertionError("a scatter over the cap reached the merge")
        return merge(keys, weights)

    steps.clear()
    monkeypatch.setattr(cascade_mod, "_SCATTER_CAP", scatter - 1)
    monkeypatch.setattr(cascade_mod, "_merge_runs", capped_merge)
    assert cli.main(args + [str(tmp_path / "capped")]) == 3
    lines = capsys.readouterr().err.strip().splitlines()
    assert lines == [
        f"error: EnumerationTooLarge: level 3 would scatter {scatter} rows "
        f"(3 taps x {samples} samples), above the cap of {scatter - 1}"
    ]
    # the kernel is called for level 3 and refuses it before the merge
    assert [step for step, _ in steps] == [1, 2, 3] and steps[2][1] == samples
    assert not list(tmp_path.glob("capped/*.tsv"))
