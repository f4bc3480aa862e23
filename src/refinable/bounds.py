"""Support bounds for the limit function of a refinement scheme.

Every bound is a region that provably contains the support of the limit
function, derived from the mask radius Q and the contraction behaviour of
the inverse dilation matrix:

* a Euclidean ball of radius Q ||M^-1|| / (1 - ||M^-1||) when the inverse
  is norm-contractive;
* per-coordinate boxes for 1-D and diagonal matrices, |x_k| <= Q/(|l_k|-1);
* a transformed parallelepiped C P for any real spectrum, built block by
  block from the Jordan structure;
* an iterated-norm fallback that works for every dilation matrix by taking
  k steps at a time until ||M^-k|| < 1.

All bounds are centered at the origin and carry a ``provenance`` string
naming the rule that produced them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ComplexSpectrum,
    ContractionSearchExhausted,
    IllConditionedTransform,
    NormNotContractive,
    NotDiagonal,
    NotDilation1D,
    NotDilationEigenvalue,
)
from .linalg import operator_norm
from .mask import Problem, per_problem

CONTRACTION_SEARCH_CAP = 64
EQUAL_TWO_TOL = 1e-12
_MEMBERSHIP_TOL = 1e-9


@dataclass(frozen=True)
class Ball:
    """Euclidean ball centered at the origin."""

    radius: float
    dim: int
    provenance: str

    def contains(self, point) -> bool:
        x = np.asarray(point, dtype=float)
        return float(np.linalg.norm(x)) <= self.radius + _MEMBERSHIP_TOL * max(1.0, self.radius)

    def contains_many(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return np.linalg.norm(pts, axis=1) <= self.radius + _MEMBERSHIP_TOL * max(1.0, self.radius)


@dataclass(frozen=True)
class Box:
    """Axis-aligned box |x_i| <= half_widths[i]."""

    half_widths: tuple[float, ...]
    provenance: str

    @property
    def dim(self) -> int:
        return len(self.half_widths)

    def contains(self, point) -> bool:
        x = np.asarray(point, dtype=float)
        h = np.asarray(self.half_widths, dtype=float)
        return bool(np.all(np.abs(x) <= h + _MEMBERSHIP_TOL * np.maximum(1.0, h)))

    def contains_many(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        h = np.asarray(self.half_widths, dtype=float)
        return np.all(np.abs(pts) <= h + _MEMBERSHIP_TOL * np.maximum(1.0, h), axis=1)


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

    def contains(self, point) -> bool:
        y = self.transform_inverse @ np.asarray(point, dtype=float)
        h = np.asarray(self.half_widths, dtype=float)
        return bool(np.all(np.abs(y) <= h + _MEMBERSHIP_TOL * np.maximum(1.0, h)))

    def contains_many(self, points: np.ndarray) -> np.ndarray:
        ys = np.asarray(points, dtype=float) @ self.transform_inverse.T
        h = np.asarray(self.half_widths, dtype=float)
        return np.all(np.abs(ys) <= h + _MEMBERSHIP_TOL * np.maximum(1.0, h), axis=1)


SupportBound = Ball | Box | TransformedBox


# ---------------------------------------------------------------------------
# ball bounds
# ---------------------------------------------------------------------------

def ball_bound(problem: Problem) -> Ball:
    """Ball of radius Q ||M^-1|| / (1 - ||M^-1||); needs ||M^-1|| < 1."""
    nrm = problem.matrix.inverse_norm
    if nrm >= 1.0:
        raise NormNotContractive(
            f"||M^-1|| = {nrm:.6g} >= 1; use general_ball_bound or "
            f"parallelepiped_bound"
        )
    radius = problem.mask.radius * nrm / (1.0 - nrm)
    return Ball(radius, problem.dim, "norm-ball")


def finite_level_ball(problem: Problem, initial_radius: float, level: int) -> float:
    """Support radius after ``level`` refinement steps, starting from an
    initial function supported in a ball of ``initial_radius``:
    ||M^-1||^n R + Q (||M^-1|| + ... + ||M^-1||^n)."""
    if level < 1:
        raise ValueError("level must be positive")
    if initial_radius < 0:
        raise ValueError("initial radius must be nonnegative")
    nrm = problem.matrix.inverse_norm
    if nrm >= 1.0:
        raise NormNotContractive(f"||M^-1|| = {nrm:.6g} >= 1")
    geometric = 0.0
    power = 1.0
    for _ in range(level):
        power *= nrm
        geometric += power
    return power * initial_radius + problem.mask.radius * geometric


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
            norms.append(operator_norm(problem.matrix.inverse_power(k)))
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
    """Per-coordinate half-widths Q / (|l_k| - 1) for a diagonal matrix."""
    mat = problem.matrix.matrix
    if not mat.is_diagonal():
        raise NotDiagonal("matrix is not diagonal")
    q = problem.mask.radius
    halves = []
    for i in range(mat.dim):
        lam = abs(mat.rows[i][i])
        if lam <= 1:
            raise NotDilationEigenvalue(f"diagonal entry {mat.rows[i][i]} has modulus <= 1")
        halves.append(q / (lam - 1))
    return Box(tuple(halves), "diagonal")


def jordan_block_bound(eigenvalue: float, size: int, radius: float) -> tuple[float, ...]:
    """Limit half-widths for the s coupled coordinates of one Jordan block.

    With a = |eigenvalue|, coordinate k (1-based) is bounded by the
    geometric sum Q sum_{i=1..k} (a-1)^-i, which closes to
    Q/(a-2) (1 - (a-1)^-k) for a != 2 and degenerates to Q k at a = 2.
    """
    a = abs(eigenvalue)
    q = float(radius)
    if a <= 1.0:
        raise NotDilationEigenvalue(f"|eigenvalue| must exceed 1, got {a:.6g}")
    if size < 1:
        raise ValueError("block size must be positive")
    halves = []
    for k in range(1, size + 1):
        if k == 1:
            halves.append(q / (a - 1.0))
        elif abs(a - 2.0) <= EQUAL_TWO_TOL:
            halves.append(q * k)
        else:
            halves.append(q / (a - 2.0) * (1.0 - (a - 1.0) ** -k))
    return tuple(halves)


def jordan_recurrence_table(
    eigenvalue: float,
    size: int,
    radius: float,
    initial_radius: float,
    n_max: int,
) -> np.ndarray:
    """Finite-level table A[n, k] of per-coordinate support radii for one
    Jordan block, seeded by the explicit first row and first column and
    filled with A_{n,k} = (Q + A_{n-1,k} + A_{n,k-1}) / a.

    Row indices are levels 1..n_max, columns coordinates 1..size; row
    n -> infinity converges to :func:`jordan_block_bound`.
    """
    a = abs(eigenvalue)
    if a <= 1.0:
        raise NotDilationEigenvalue(f"|eigenvalue| must exceed 1, got {a:.6g}")
    if size < 1 or n_max < 1:
        raise ValueError("size and n_max must be positive")
    q, r = radius, initial_radius
    table = np.zeros((n_max, size))
    # first column: A_{n,1} = R a^-n + Q (a^-1 + ... + a^-n)
    power = 1.0
    geometric = 0.0
    for n in range(1, n_max + 1):
        power /= a
        geometric += power
        table[n - 1, 0] = r * power + q * geometric
    # first row: A_{1,k} = (Q + R)(a^-1 + ... + a^-k)
    geometric = 0.0
    power = 1.0
    for k in range(1, size + 1):
        power /= a
        geometric += power
        table[0, k - 1] = (q + r) * geometric
    for n in range(2, n_max + 1):
        for k in range(2, size + 1):
            table[n - 1, k - 1] = (q + table[n - 2, k - 1] + table[n - 1, k - 2]) / a
    return table


def parallelepiped_bound(problem: Problem) -> TransformedBox:
    """Transformed-parallelepiped bound C P for matrices with real spectrum.

    P collects the per-block half-widths of :func:`jordan_block_bound`; the
    translations seen in the transformed coordinates are C^-1 q, so their
    largest norm replaces the plain mask radius (the two agree whenever C
    is orthogonal).
    """
    structure = problem.matrix.jordan_structure
    cinv = structure.transform_inverse
    q_eff = 0.0
    for q in problem.mask.support:
        q_eff = max(q_eff, float(np.linalg.norm(cinv @ np.asarray(q, dtype=float))))
    halves: list[float] = []
    for lam, size in structure.blocks:
        halves.extend(jordan_block_bound(lam, size, q_eff))
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
    bound; transformed boxes are measured through their vertex images."""
    if isinstance(bound, Ball):
        h = _snapped_ceil(bound.radius)
        halves = (float(h),) * bound.dim
    elif isinstance(bound, Box):
        halves = tuple(float(_snapped_ceil(x)) for x in bound.half_widths)
    else:
        extremes = np.zeros(bound.dim)
        for signs in itertools.product((-1.0, 1.0), repeat=bound.dim):
            vertex = bound.transform @ (np.asarray(signs) * np.asarray(bound.half_widths))
            extremes = np.maximum(extremes, np.abs(vertex))
        halves = tuple(float(_snapped_ceil(x)) for x in extremes)
    return Box(halves, f"integer box of [{bound.provenance}]")


@per_problem
def best_bound(problem: Problem) -> SupportBound:
    """The preferred available bound: norm ball when contractive, otherwise
    the Jordan parallelepiped, otherwise the iterated-norm ball.  Selected
    once per problem."""
    try:
        return ball_bound(problem)
    except NormNotContractive:
        pass
    try:
        return parallelepiped_bound(problem)
    except (ComplexSpectrum, IllConditionedTransform):
        pass
    return general_ball_bound(problem)


def applicable_bounds(problem: Problem) -> list[SupportBound]:
    """Every bound whose preconditions hold, in a fixed report order."""
    results: list[SupportBound] = []
    if problem.dim == 1:
        half = bound_1d(problem.matrix.determinant, problem.mask.radius)
        results.append(Box((half,), "1d"))
    try:
        results.append(ball_bound(problem))
    except NormNotContractive:
        pass
    if problem.matrix.matrix.is_diagonal():
        results.append(diagonal_bound(problem))
    try:
        results.append(parallelepiped_bound(problem))
    except (ComplexSpectrum, IllConditionedTransform):
        pass
    results.append(general_ball_bound(problem))
    return results
