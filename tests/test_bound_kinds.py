"""A bound kind's geometry lives in its own class.

``extents(power)`` and ``enclosing_integer_box`` are checked bit for bit
against the per-kind forms they replaced: the vertex enumeration of the
integer box and the level > 0 formulas of the enumeration box.  An AST scan
then keeps type dispatch on the bound kinds out of the package, so a new or
reshaped kind changes ``bounds.py`` alone.
"""

import ast
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from refinable import applicable_bounds, problem_from_data
from refinable.bounds import Ball, Box, TransformedBox, _snapped_ceil, enclosing_integer_box

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "refinable"
BUNDLED = sorted((ROOT / "demos" / "problems").glob("*.json"))
KINDS = {"Ball", "Box", "TransformedBox"}
# attributes only some kinds have, which a ``hasattr`` would dispatch on
KIND_FIELDS = {"radius", "transform", "transform_inverse", "half_widths"}
_PROPERTY = settings(
    max_examples=80,
    suppress_health_check=[HealthCheck.too_slow],
)


def vertex_box_halves(bound):
    """The integer half-widths that ``enclosing_integer_box`` computed by
    type, a transformed box through the images of its 2^d vertices."""
    if hasattr(bound, "radius"):
        return (float(_snapped_ceil(bound.radius)),) * bound.dim
    if not hasattr(bound, "transform"):
        return tuple(float(_snapped_ceil(x)) for x in bound.half_widths)
    extremes = np.zeros(bound.dim)
    for signs in itertools.product((-1.0, 1.0), repeat=bound.dim):
        vertex = bound.transform @ (np.asarray(signs) * np.asarray(bound.half_widths))
        extremes = np.maximum(extremes, np.abs(vertex))
    return tuple(float(_snapped_ceil(x)) for x in extremes)


def level_extents(bound, power):
    """The per-kind half-extents of ``power . bound`` that the level > 0
    enumeration box was built from."""
    if hasattr(bound, "radius"):
        return [bound.radius * float(np.linalg.norm(row)) for row in power]
    if not hasattr(bound, "transform"):
        return list(np.abs(power) @ np.asarray(bound.half_widths))
    return list(np.abs(power @ bound.transform) @ np.asarray(bound.half_widths))


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


@st.composite
def bounds(draw):
    """A bound of each kind in dimension 1..8; transforms are arbitrary
    floats, so the vertex maximum is not exact arithmetic."""
    d = draw(st.integers(1, 8))
    width = st.floats(0, 1e3, allow_nan=False)
    kind = draw(st.sampled_from(["ball", "box", "transformed"]))
    if kind == "ball":
        return Ball(draw(width), d, "test")
    halves = tuple(draw(st.lists(width, min_size=d, max_size=d)))
    if kind == "box":
        return Box(halves, "test")
    entry = st.floats(-1e3, 1e3, allow_nan=False)
    transform = np.array(draw(st.lists(st.lists(entry, min_size=d, max_size=d),
                                       min_size=d, max_size=d)))
    # membership is not asked here, so the inverse is left as a placeholder
    return TransformedBox(transform, np.eye(d), halves, "test")


def bundled_bounds():
    for path in BUNDLED:
        doc = json.loads(path.read_text())
        problem = problem_from_data(doc["dimension"], doc["matrix"], doc["coefficients"])
        for bound in applicable_bounds(problem):
            yield problem, bound


@_PROPERTY
@given(bounds())
def test_integer_box_matches_vertex_enumeration(bound):
    assert enclosing_integer_box(bound).half_widths == vertex_box_halves(bound)


@_PROPERTY
@given(bounds(), st.data())
def test_extents_match_level_formulas(bound, data):
    d = bound.dim
    rows = data.draw(st.lists(st.lists(st.integers(-4, 4), min_size=d, max_size=d),
                              min_size=d, max_size=d))
    level = data.draw(st.integers(1, 3))
    power = np.linalg.matrix_power(np.array(rows, dtype=float), level)
    assert bits(bound.extents(power)) == bits(level_extents(bound, power))


def test_bundled_bounds_match_both_forms():
    checked = 0
    for problem, bound in bundled_bounds():
        assert enclosing_integer_box(bound).half_widths == vertex_box_halves(bound)
        for level in range(1, 5):
            power = problem.matrix.power(level).as_array()
            assert bits(bound.extents(power)) == bits(level_extents(bound, power))
        checked += 1
    assert checked >= len(BUNDLED)


def test_record_names_kind_and_shape():
    ball = Ball(1.5, 2, "b").record()
    box = Box((1.0, 2.0), "x").record()
    tb = TransformedBox(np.eye(2), np.eye(2), (1.0, 2.0), "t").record()
    assert ball == {"provenance": "b", "kind": "ball", "radius": 1.5}
    assert box == {"provenance": "x", "kind": "box", "half_widths": [1.0, 2.0]}
    assert tb == {
        "provenance": "t",
        "kind": "transformed-box",
        "half_widths": [1.0, 2.0],
        "transform": [[1.0, 0.0], [0.0, 1.0]],
    }
    assert all(type(x) is float for row in tb["transform"] for x in row)


# ---------------------------------------------------------------------------
# no dispatch on the bound kinds outside their classes
# ---------------------------------------------------------------------------

def _names(node: ast.AST) -> set[str]:
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.add(sub.value)
    return found


def kind_dispatches(source: str) -> list[tuple[str, int]]:
    """(called name, line) of every ``isinstance`` or ``hasattr`` call that
    names a bound kind, or a ``hasattr`` asking for an attribute that only
    some kinds have."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        if node.func.id not in ("isinstance", "hasattr"):
            continue
        named = set().union(*(_names(arg) for arg in node.args))
        fields = KIND_FIELDS if node.func.id == "hasattr" else set()
        if named & (KINDS | fields):
            found.append((node.func.id, node.lineno))
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_dispatch_on_bound_kinds(path):
    assert kind_dispatches(path.read_text()) == []


def test_scan_catches_planted_dispatches():
    planted = (
        "def f(bound, bounds_mod):\n"
        "    if isinstance(bound, Ball):\n"
        "        pass\n"
        "    if isinstance(bound, (bounds_mod.Box, bounds_mod.TransformedBox)):\n"
        "        pass\n"
        "    if hasattr(bound, 'radius') or hasattr(bound, 'transform'):\n"
        "        pass\n"
        "    if isinstance(bound, dict) or hasattr(bound, 'provenance'):\n"
        "        pass\n"
    )
    assert sorted(kind_dispatches(planted)) == [
        ("hasattr", 6), ("hasattr", 6), ("isinstance", 2), ("isinstance", 4),
    ]

