"""Support bounds for the limit function of a refinement scheme.

Every bound is a region that provably contains the support of the limit
function, derived from the mask radius Q and the contraction behaviour of
the inverse dilation matrix:

* a Euclidean ball of radius Q ||M^-1|| / (1 - ||M^-1||) when the inverse
  is norm-contractive, the iterated-norm ball below at k = 1;
* per-coordinate boxes for 1-D and diagonal matrices, |x_k| <= Q/(|l_k|-1),
  the 1-D rule on each axis;
* a transformed parallelepiped C P for any real spectrum, built block by
  block from the Jordan structure;
* an iterated-norm fallback that works for every dilation matrix by taking
  k steps at a time until ||M^-k|| < 1.

All bounds are centered at the origin and carry a ``provenance`` string
naming the rule that produced them.  Each kind answers three questions, and
callers ask nothing else of it: ``contains_many`` (which rows of points lie
inside), ``extents(power)`` (the per-coordinate half-extents of the image
``power . bound``) and ``record()`` (the plain dict that reports print).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ComplexSpectrum,
    ContractionSearchExhausted,
    IllConditionedTransform,
    NonFiniteArithmetic,
    NormNotContractive,
    NotDiagonal,
    NotDilation1D,
    NotDilationEigenvalue,
)
from .linalg import operator_norm
from .mask import Problem, per_problem

CONTRACTION_SEARCH_CAP = 64
_MEMBERSHIP_TOL = 1e-9


def _row_norms(pts: np.ndarray) -> np.ndarray:
    """The Euclidean norm of every row of ``(n, d)`` points, bit-equal to
    ``np.linalg.norm(pts, axis=1)``.  numpy adds a row of fewer than eight
    squares left to right, which one pass per column repeats; from eight on
    it adds them pairwise, so those rows are left to numpy."""
    d = pts.shape[1]
    if d >= 8:
        return np.linalg.norm(pts, axis=1)
    total = pts[:, 0] * pts[:, 0]
    for i in range(1, d):
        total += pts[:, i] * pts[:, i]
    return np.sqrt(total, out=total)


def _within(ys: np.ndarray, half_widths: tuple[float, ...]) -> np.ndarray:
    """Rows of ``(n, d)`` coordinates with |y_i| <= h_i for every i, up to
    the membership tolerance, tested one column at a time."""
    inside = np.ones(len(ys), dtype=bool)
    for i, h in enumerate(half_widths):
        inside &= np.abs(ys[:, i]) <= h + _MEMBERSHIP_TOL * max(1.0, h)
    return inside


@dataclass(frozen=True)
class Ball:
    """Euclidean ball centered at the origin."""

    radius: float
    dim: int
    provenance: str

    def contains_many(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return _row_norms(pts) <= self.radius + _MEMBERSHIP_TOL * max(1.0, self.radius)

    def extents(self, power: np.ndarray) -> np.ndarray:
        return np.array([self.radius * float(np.linalg.norm(row)) for row in power])

    def record(self) -> dict:
        return {"provenance": self.provenance, "kind": "ball", "radius": self.radius}


@dataclass(frozen=True)
class Box:
    """Axis-aligned box |x_i| <= half_widths[i]."""

    half_widths: tuple[float, ...]
    provenance: str

    @property
    def dim(self) -> int:
        return len(self.half_widths)

    def contains_many(self, points: np.ndarray) -> np.ndarray:
        return _within(np.asarray(points, dtype=float), self.half_widths)

    def extents(self, power: np.ndarray) -> np.ndarray:
        return np.abs(power) @ np.asarray(self.half_widths)

    def record(self) -> dict:
        return {
            "provenance": self.provenance,
            "kind": "box",
            "half_widths": list(self.half_widths),
        }


@dataclass(frozen=True)
class TransformedBox:
    """The image C P of an axis-aligned box P under an invertible matrix."""

    transform: np.ndarray
    transform_inverse: np.ndarray
    half_widths: tuple[float, ...]
    provenance: str

    @property
    def dim(self) -> int:
        return len(self.half_widths)

    def contains_many(self, points: np.ndarray) -> np.ndarray:
        ys = np.asarray(points, dtype=float) @ self.transform_inverse.T
        return _within(ys, self.half_widths)

    def extents(self, power: np.ndarray) -> np.ndarray:
        # the largest |coordinate| over the vertices of power C P, reached at
        # the vertex whose signs match each row of power C
        return np.abs(power @ self.transform) @ np.asarray(self.half_widths)

    def record(self) -> dict:
        return {
            "provenance": self.provenance,
            "kind": "transformed-box",
            "half_widths": list(self.half_widths),
            "transform": [list(map(float, row)) for row in self.transform],
        }


SupportBound = Ball | Box | TransformedBox


# ---------------------------------------------------------------------------
# ball bounds
# ---------------------------------------------------------------------------

def ball_bound(problem: Problem) -> Ball:
    """Ball of radius Q ||M^-1|| / (1 - ||M^-1||), the iterated-norm ball
    of :func:`general_ball_bound` at k = 1; needs ||M^-1|| < 1."""
    nrm = problem.matrix.inverse_norm
    if nrm >= 1.0:
        raise NormNotContractive(
            f"||M^-1|| = {nrm:.6g} >= 1; use general_ball_bound or "
            f"parallelepiped_bound"
        )
    return Ball(general_ball_bound(problem).radius, problem.dim, "norm-ball")


def finite_level_ball(problem: Problem, initial_radius: float, level: int) -> float:
    """Support radius after ``level`` refinement steps, starting from an
    initial function supported in a ball of ``initial_radius``: the
    recurrence R <- ||M^-1|| (R + Q), whose fixed point is the radius of
    :func:`ball_bound`."""
    if level < 1:
        raise ValueError("level must be positive")
    if initial_radius < 0:
        raise ValueError("initial radius must be nonnegative")
    nrm = problem.matrix.inverse_norm
    if nrm >= 1.0:
        raise NormNotContractive(f"||M^-1|| = {nrm:.6g} >= 1")
    radius = initial_radius
    for _ in range(level):
        radius = nrm * (radius + problem.mask.radius)
    return radius


@per_problem
def general_ball_bound(problem: Problem) -> Ball:
    """Ball bound valid for every dilation matrix.

    Iterating the one-step support recursion in blocks of k steps gives the
    radius Q (||M^-1|| + ... + ||M^-k||) / (1 - ||M^-k||) for the smallest k
    with ||M^-k|| < 1; for k = 1 this is exactly the norm-ball radius.
    Computed once per problem.
    """
    norms: list[float] = []
    for k in range(1, CONTRACTION_SEARCH_CAP + 1):
        if k == 1:
            norms.append(problem.matrix.inverse_norm)
        else:
            norms.append(operator_norm(*problem.matrix.inverse_power(k)))
        if norms[-1] < 1.0:
            radius = problem.mask.radius * math.fsum(norms) / (1.0 - norms[-1])
            return Ball(radius, problem.dim, f"iterated-norm-ball (k={k})")
    raise ContractionSearchExhausted(
        f"no power up to {CONTRACTION_SEARCH_CAP} has contractive inverse norm"
    )


# ---------------------------------------------------------------------------
# coordinate bounds
# ---------------------------------------------------------------------------

def bound_1d(m: int, radius: float) -> float:
    """One-dimensional half-width Q / (|m| - 1)."""
    if abs(m) <= 1:
        raise NotDilation1D(f"|m| must exceed 1, got {m}")
    return radius / (abs(m) - 1)


def diagonal_bound(problem: Problem) -> Box:
    """Per-coordinate half-widths Q / (|l_k| - 1) for a diagonal matrix,
    :func:`bound_1d` on each diagonal entry l_k."""
    mat = problem.matrix.matrix
    if not mat.is_diagonal():
        raise NotDiagonal("matrix is not diagonal")
    halves = [bound_1d(mat.rows[i][i], problem.mask.radius) for i in range(mat.dim)]
    return Box(tuple(halves), "diagonal")


def jordan_block_bound(eigenvalue: float, size: int, radius: float) -> tuple[float, ...]:
    """Limit half-widths for the s coupled coordinates of one Jordan block.

    With a = |eigenvalue|, coordinate k (1-based) is bounded by the fixed
    point of :func:`jordan_recurrence_table`'s column k,
    h_k = (Q + h_(k-1)) / (a - 1) from h_0 = 0, that is
    Q sum_{i=1..k} (a-1)^-i; at a = 2 every step is exact and h_k = Q k.
    """
    a = abs(eigenvalue)
    if a <= 1.0:
        raise NotDilationEigenvalue(f"|eigenvalue| must exceed 1, got {a:.6g}")
    if size < 1:
        raise ValueError("block size must be positive")
    halves = [0.0]
    for _ in range(size):
        halves.append((radius + halves[-1]) / (a - 1.0))
    return tuple(halves[1:])


def jordan_recurrence_table(
    eigenvalue: float,
    size: int,
    radius: float,
    initial_radius: float,
    n_max: int,
) -> np.ndarray:
    """Finite-level table A[n, k] of per-coordinate support radii for one
    Jordan block: A_{n,k} = (Q + A_{n-1,k} + A_{n,k-1}) / a from
    A_{0,k} = R and A_{n,0} = 0.

    Row indices are levels 1..n_max, columns coordinates 1..size; row
    n -> infinity converges to :func:`jordan_block_bound`, the recurrence's
    fixed point.
    """
    a = abs(eigenvalue)
    if a <= 1.0:
        raise NotDilationEigenvalue(f"|eigenvalue| must exceed 1, got {a:.6g}")
    if size < 1 or n_max < 1:
        raise ValueError("size and n_max must be positive")
    table = np.zeros((n_max + 1, size + 1))
    table[0, 1:] = initial_radius
    for n in range(1, n_max + 1):
        for k in range(1, size + 1):
            table[n, k] = (radius + table[n - 1, k] + table[n, k - 1]) / a
    return table[1:, 1:]


@per_problem
def parallelepiped_bound(problem: Problem) -> TransformedBox:
    """Transformed-parallelepiped bound C P for matrices with real spectrum.

    P collects the per-block half-widths of :func:`jordan_block_bound`; the
    translations seen in the transformed coordinates are C^-1 q, so their
    largest norm replaces the plain mask radius (the two agree whenever C
    is orthogonal).  Translations or half-widths beyond float range are
    refused with NonFiniteArithmetic.
    """
    structure = problem.matrix.jordan_structure
    cinv = structure.transform_inverse
    # a norm that overflows is refused below, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        norms = [
            float(np.linalg.norm(cinv @ np.asarray(q, dtype=float)))
            for q in problem.mask.coefficients
        ]
    q_eff = max([0.0, *norms])
    halves: list[float] = []
    for lam, size in structure.blocks:
        halves.extend(jordan_block_bound(lam, size, q_eff))
    if not all(map(math.isfinite, [*norms, *halves])):
        raise NonFiniteArithmetic(
            "the Jordan parallelepiped's translations or half-widths overflow a float"
        )
    return TransformedBox(
        structure.transform,
        cinv,
        tuple(halves),
        "jordan-parallelepiped (translation-scaled)",
    )


# ---------------------------------------------------------------------------
# enclosing boxes and bound selection
# ---------------------------------------------------------------------------

def _snapped_ceil(x: float) -> int:
    # absorb float dust so that radii computed as exact values stay exact
    return max(0, math.ceil(x - 1e-9))


def enclosing_integer_box(bound: SupportBound) -> Box:
    """Smallest origin-centered box with integer half-widths containing the
    bound."""
    halves = tuple(float(_snapped_ceil(e)) for e in bound.extents(np.eye(bound.dim)))
    return Box(halves, f"integer box of [{bound.provenance}]")


def _if_applicable(rule, problem: Problem) -> SupportBound | None:
    """The bound ``rule(problem)``, or None when the inverse norm does not
    contract, the spectrum is complex or the Jordan transform is refused."""
    try:
        return rule(problem)
    except (NormNotContractive, ComplexSpectrum, IllConditionedTransform):
        return None


@per_problem
def best_bound(problem: Problem) -> SupportBound:
    """The preferred available bound: norm ball when contractive, otherwise
    the Jordan parallelepiped, otherwise the iterated-norm ball.  Selected
    once per problem."""
    return (
        _if_applicable(ball_bound, problem)
        or _if_applicable(parallelepiped_bound, problem)
        or general_ball_bound(problem)
    )


def applicable_bounds(problem: Problem) -> list[SupportBound]:
    """Every bound whose preconditions hold, in a fixed report order."""
    results: list[SupportBound | None] = []
    if problem.dim == 1:
        half = bound_1d(problem.matrix.determinant, problem.mask.radius)
        results.append(Box((half,), "1d"))
    results.append(_if_applicable(ball_bound, problem))
    if problem.matrix.matrix.is_diagonal():
        results.append(diagonal_bound(problem))
    results.append(_if_applicable(parallelepiped_bound, problem))
    results.append(general_ball_bound(problem))
    return [bound for bound in results if bound is not None]
