"""Values of the limit function on the dense lattice {M^-j k}.

The two-scale relation restricted to integer points is a finite eigenvalue
problem: with candidate points k_1..k_N, the transfer matrix
B = m (c_{M k_i - k_j}) fixes the vector of integer-point values, and the
eigenvector for eigenvalue one (normalized to sum one) gives them.  Finer
lattice levels then follow from the same refinement kernel the cascade
module uses, level by level.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import IO

import numpy as np

from .bounds import SupportBound, best_bound, enclosing_integer_box
from .cascade import (
    SampledFunction,
    ValueTable,
    _hull_keys,
    _locate,
    _row_runs,
    _search,
    initial_samples,
    refinement_step,
    write_rows,
)
from .errors import (
    DomainTooSmall,
    EnumerationTooLarge,
    IndexOverflow,
    NoLeftClosedLimit,
    NonFiniteArithmetic,
    NonUniqueValues,
    NonUniqueWarning,
    NormalizationImpossible,
    NoUnitEigenvalue,
)
from .linalg import CONDITION_LIMIT, _index_rows, _null_space
from .mask import _ENUMERATION_CAP, Problem, per_problem

UNIT_EIGENVALUE_TOL = 1e-9
STRUCTURAL_ZERO_TOL = 1e-10
# the most candidate points a dense N x N transfer matrix may have (34 MB)
_TRANSFER_CAP = 2048
_ESCAPE_RTOL = 1e-9


# ---------------------------------------------------------------------------
# candidate points and the transfer matrix
# ---------------------------------------------------------------------------

@per_problem
def candidate_points(problem: Problem) -> np.ndarray:
    """All integer points inside the best available support bound, as
    sorted ``(N, d)`` int64 rows; enumerated once per problem, read-only."""
    points = lattice_points_in_bound(problem, best_bound(problem), 0)
    points.flags.writeable = False
    return points


def _enumeration_halves(problem: Problem, bound: SupportBound, level: int) -> list[int]:
    """Half-widths of the origin-centred index box that holds every k with
    M^-level k inside the bound; raises EnumerationTooLarge when the box
    holds more points than the enumeration cap."""
    if level == 0:
        box = enclosing_integer_box(bound)
        halves = [int(h) for h in box.half_widths]
    else:
        extents = bound.extents(problem.matrix.power(level).as_array())
        # one cell of margin so membership-tolerance slop cannot drop points
        halves = [int(math.ceil(e + 1e-6)) + 1 for e in extents]
    volume = math.prod(2 * h + 1 for h in halves)
    if volume > _ENUMERATION_CAP:
        raise EnumerationTooLarge(
            f"level-{level} lattice enumeration of {volume} points exceeds "
            f"the cap of {_ENUMERATION_CAP}"
        )
    return halves


def lattice_points_in_bound(
    problem: Problem, bound: SupportBound, level: int
) -> np.ndarray:
    """Integer indices k with M^-level k inside the bound, as distinct
    ``(n, d)`` int64 rows in lexicographic order, enumerated from the
    origin-centred box of :func:`_enumeration_halves`.  The library calls it
    at level 0 only, for :func:`candidate_points`; refinement levels store
    the kernel's reachable rows instead."""
    halves = _enumeration_halves(problem, bound, level)
    grids = np.meshgrid(
        *[np.arange(-h, h + 1, dtype=np.int64) for h in halves], indexing="ij"
    )
    points = np.stack([g.reshape(-1) for g in grids], axis=1)
    coords = problem.matrix.coordinates(points, level)
    return np.compress(bound.contains_many(coords), points, axis=0)


@dataclass(frozen=True)
class TransferMatrix:
    """The matrix m (c_{M k_i - k_j}) over distinct ``(N, d)`` int64 rows."""

    points: np.ndarray
    matrix: np.ndarray

    @property
    def size(self) -> int:
        return len(self.points)


def build_transfer_matrix(problem: Problem, points: np.ndarray) -> TransferMatrix:
    """Assemble the transfer matrix over the ``(N, d)`` rows ``points`` by
    exact integer index arithmetic: row i holds m c_q at the column of
    M k_i - q for every mask tap q whose point is a candidate.  All N |mask|
    points M k_i - q are looked up among the sorted candidates at once, so
    the cost is O(N |mask|) up to a sort, and one assignment places every
    entry: each entry gets at most one tap, since q = M k_i - k_j is fixed by
    (i, j).  Raises EnumerationTooLarge when N exceeds the cap on the dense
    matrix, before that matrix is allocated, and ValueError unless
    ``points`` are distinct signed integer rows of width d."""
    n, d = len(points), problem.dim
    if n == 0:
        raise ValueError("points must be nonempty")
    # keys are computed in int64
    points = _index_rows(points, d, "points").astype(np.int64, copy=False)
    if n > _TRANSFER_CAP:
        raise EnumerationTooLarge(
            f"transfer matrix over {n} candidate points exceeds the cap of "
            f"{_TRANSFER_CAP}"
        )
    # first, since M's entries bound m = |det M|, which is rounded below
    images = problem.matrix.images(points, 1)
    m = float(problem.m)
    taps = [(q, m * c) for q, c in problem.mask.coefficients.items()]
    for q, w in taps:
        if not math.isfinite(w):
            raise NonFiniteArithmetic(f"transfer entry m c_q overflows at q = {list(q)}")
    # the points M k_i - q, tap-major: query t n + i is tap t of point i
    queries = (images - problem.mask.tap_rows[:, None]).reshape(-1, d)
    keys, probes = _hull_keys(points, queries)
    order = np.argsort(keys, kind="stable")
    keys = keys.take(order)
    if np.any(keys[1:] == keys[:-1]):
        raise ValueError("points must be distinct")
    pos, found = _search(keys, probes)
    hits = np.flatnonzero(found)
    weights = np.asarray([w for _, w in taps])
    matrix = np.zeros((n, n))
    matrix[hits % n, order.take(pos.take(hits))] = weights.take(hits // n)
    matrix.flags.writeable = False
    return TransferMatrix(points, matrix)


@per_problem
def transfer_matrix(problem: Problem) -> TransferMatrix:
    """The transfer matrix over :func:`candidate_points`, assembled once per
    problem; its array is read-only."""
    return build_transfer_matrix(problem, candidate_points(problem))


# ---------------------------------------------------------------------------
# integer-point values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntegerValues:
    """Eigenvalue-1 eigenspace of the transfer matrix B.

    With a one-dimensional eigenspace the single basis vector is scaled so
    its entries sum to one, ``values`` is that level-0 function on
    ``points`` and ``structural_zeros`` are the rows where it is within
    ``STRUCTURAL_ZERO_TOL`` of zero; otherwise the orthonormal basis is
    returned as-is and callers must resolve the ambiguity themselves.
    ``left_basis`` holds orthonormal rows spanning the left null space of
    B - I, and ``spectral_radius`` is the largest eigenvalue modulus of B.
    """

    points: np.ndarray
    basis: np.ndarray
    eigenspace_dimension: int
    structural_zeros: np.ndarray
    left_basis: np.ndarray
    spectral_radius: float

    @cached_property
    def values(self) -> SampledFunction:
        """The level-0 function; refused with NonUniqueValues when the
        eigenspace is not one-dimensional, where only a tie-break such as
        :func:`converged_integer_values` picks one."""
        if self.eigenspace_dimension != 1:
            raise NonUniqueValues("transfer eigenspace is not one-dimensional")
        return SampledFunction(0, self.points, self.basis[0])


def integer_values(transfer: TransferMatrix) -> IntegerValues:
    """Solve B r = r.

    Raises NoUnitEigenvalue when no eigenvalue lies within
    ``UNIT_EIGENVALUE_TOL`` of one, or B - I has no null vector within it.
    The eigenspace basis comes from an SVD null-space computation, so
    repeated unit eigenvalues yield a full geometric basis; a basis of
    dimension above one is reported with a NonUniqueWarning instead of being
    silently resolved.
    """
    b = transfer.matrix
    n = transfer.size
    try:
        # The gate tests |lambda - 1| absolutely; the null-space test below
        # is relative to sigma_0 and cannot stand alone: for the mask
        # {0: 1e300, 1: -1e300, 2: 1}, sigma_0 is about 2e300, so every
        # singular value of B - I would pass a tolerance of about 2e291.
        eigs = np.linalg.eigvals(b)
        if not np.any(np.abs(eigs - 1.0) <= UNIT_EIGENVALUE_TOL):
            nearest = eigs[np.argmin(np.abs(eigs - 1.0))]
            raise NoUnitEigenvalue(
                f"no eigenvalue within {UNIT_EIGENVALUE_TOL:g} of 1 (nearest: {nearest:.6g})"
            )
        sing, right, left = _null_space(b - np.eye(n), UNIT_EIGENVALUE_TOL, 1.0)
    except np.linalg.LinAlgError as exc:
        raise NonFiniteArithmetic(f"transfer eigensolve failed: {exc}") from exc
    dimension = len(right)
    if dimension == 0:
        null_tol = UNIT_EIGENVALUE_TOL * max(1.0, float(sing[0]))
        raise NoUnitEigenvalue(
            f"B - I has no null vector: smallest singular value {sing[-1]:.6g} > {null_tol:.6g}"
        )
    basis = right[::-1].copy()
    zeros = transfer.points[:0]
    if dimension == 1:
        basis[0] = _sum_to_one(basis[0], "unit eigenvector")
        zeros = np.compress(np.abs(basis[0]) <= STRUCTURAL_ZERO_TOL, transfer.points, axis=0)
    else:
        warnings.warn(_non_unique(dimension), NonUniqueWarning, stacklevel=2)
    radius = float(np.abs(eigs).max())
    return IntegerValues(transfer.points, basis, dimension, zeros, left, radius)


def _sum_to_one(vector: np.ndarray, what: str) -> np.ndarray:
    """``vector`` divided by its entry sum, refused with
    NormalizationImpossible when that sum is within 1e-12 of zero relative
    to the largest entry magnitude; ``what`` names the vector."""
    total = vector.sum()
    if abs(total) <= 1e-12 * np.abs(vector).max():
        raise NormalizationImpossible(f"{what} has entry sum within 1e-12 of zero")
    return vector / total


def _non_unique(dimension: int) -> str:
    """The NonUniqueWarning message, also the note resolve_values reports."""
    return f"eigenvalue-1 eigenspace has dimension {dimension}; integer values are not unique"


@per_problem
def _eigenspace(problem: Problem) -> IntegerValues:
    """:func:`integer_values` of :func:`transfer_matrix`, solved once per
    problem; its arrays are read-only.  The NonUniqueWarning is suppressed,
    since its callers report the eigenspace dimension themselves."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonUniqueWarning)
        result = integer_values(transfer_matrix(problem))
    for array in (result.basis, result.structural_zeros, result.left_basis):
        array.flags.writeable = False
    return result


def _on_candidates(points: np.ndarray, seed: SampledFunction) -> np.ndarray:
    """The values of the level-0 function ``seed`` at the candidate
    ``points``, zero where it has no row.  A seed row outside the candidates
    raises DomainTooSmall, a repeated one or one not as wide as the points
    ValueError."""
    if seed.level != 0:
        raise ValueError("the seed must be a level-0 function")
    _index_rows(seed.indices, points.shape[1], "seed indices")
    try:
        pos, found = _locate(points, seed.indices)
    except IndexOverflow:
        # the candidates' hull fits in int64 keys, so a seed row lies outside
        raise DomainTooSmall("a seed index is outside the candidate set") from None
    if not found.all():
        row = seed.indices[int(np.argmin(found))].tolist()
        raise DomainTooSmall(f"seed index {tuple(row)} is outside the candidate set")
    if np.any(np.bincount(pos, minlength=len(points)) > 1):
        raise ValueError("the seed repeats an index")
    values = np.zeros(len(points))
    values[pos] = seed.values
    return values


def converged_integer_values(problem: Problem) -> SampledFunction:
    """The limit of the transfer iteration on the box indicator's integer
    samples e_0, the cascade restricted to the integer lattice: the Cesaro
    limit of B^n e_0, normalized to sum one.  That is the projection
    R^T (L R^T)^-1 L e_0 of e_0 onto ker(B - I) along range(B - I), R and L
    the right and left null rows of the problem's one eigensolve.  It
    resolves a non-unique eigenspace toward the half-open box indicator's
    limit, without a NonUniqueWarning.  Refused where no limit exists: B has
    an eigenvalue beyond the unit circle, or eigenvalue 1 is not semisimple
    (L R^T is singular)."""
    result = _eigenspace(problem)
    if result.spectral_radius > 1.0 + UNIT_EIGENVALUE_TOL:
        raise NoLeftClosedLimit(
            f"transfer spectral radius {result.spectral_radius:.6g} exceeds 1; "
            f"the box-indicator iteration diverges"
        )
    right, left = result.basis, result.left_basis
    gram = left @ right.T
    condition = float(np.linalg.cond(gram))
    if not condition <= CONDITION_LIMIT:
        raise NoLeftClosedLimit(
            f"eigenvalue 1 is not semisimple: cond(L R^T) = {condition:.3g} "
            f"exceeds {CONDITION_LIMIT:g}"
        )
    spike = _on_candidates(result.points, initial_samples(problem))
    projected = right.T @ np.linalg.solve(gram, left @ spike)
    return SampledFunction(0, result.points, _sum_to_one(projected, "left-closed selection"))


def resolve_values(
    problem: Problem, left_closed: bool
) -> tuple[IntegerValues, list[str], SampledFunction | None]:
    """Integer-point values as ``values`` and ``refine`` report them: the
    eigenspace, a note on its dimension when it is above one plus a note
    when the tie-break applied, and the level-0 function of the values, or
    None when the eigenspace is not one-dimensional and no tie-break was
    asked for.

    With ``left_closed`` a larger eigenspace is resolved toward the limit of
    :func:`converged_integer_values`, read off the same eigensolve.
    """
    result = _eigenspace(problem)
    if result.eigenspace_dimension == 1:
        return result, [], result.values
    notes = [_non_unique(result.eigenspace_dimension)]
    if not left_closed:
        return result, notes, None
    return result, notes + ["left-closed tie-break applied"], converged_integer_values(problem)


# ---------------------------------------------------------------------------
# refinement to finer lattice levels
# ---------------------------------------------------------------------------

def _with_images(
    indices: np.ndarray, values: np.ndarray, images: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The sorted rows of ``indices`` joined by the distinct ``images`` not
    among them, which get the value +0.0; still in lexicographic order.
    Rows and images are keyed in their common hull (:func:`_hull_keys`), so
    a stable argsort of the joined keys puts the joined rows in order."""
    keys, probes = _hull_keys(indices, images)
    extra = ~_search(keys, probes)[1]
    count = int(np.count_nonzero(extra))
    if count == 0:
        return indices, values
    order = np.argsort(np.concatenate([keys, probes[extra]]), kind="stable")
    rows = np.concatenate([indices, np.compress(extra, images, axis=0)])
    return rows.take(order, axis=0), np.concatenate([values, np.zeros(count)]).take(order)


def refine_values(
    problem: Problem,
    level0: SampledFunction,
    levels: int,
) -> ValueTable:
    """Extend the level-0 function ``level0`` to M^-j Z^d, j = 1..levels.

    Level 0 stores every candidate point, with value zero where ``level0``
    has no row; a seed row outside the candidates raises DomainTooSmall and
    a repeated one ValueError.  Level j stores the rows the shared
    refinement kernel reaches from the kernel rows one level down whose
    lattice points lie inside the support bound, that is the discrete
    attractor approximant C + sum_(i<j) M^i supp c cut to the bound, plus the
    image M k of every row k stored at level j-1, with value +0.0 where the
    kernel produced none, so that phi_(j-1)(k) = phi_j(M k) can be checked
    at every stored row.  Only the kernel rows are scattered to the next
    level.  Values escaping the bound abort with DomainTooSmall when they
    exceed the noise floor (that signals a bound or seed inconsistency), and
    are discarded as roundoff dust otherwise.

    Every stored row lies in the bound's index box of its level, and each
    requested level's box is checked against the enumeration cap
    (EnumerationTooLarge) before any refinement work.
    """
    if levels < 1:
        raise ValueError("levels must be positive")
    indices = candidate_points(problem)
    values = _on_candidates(indices, level0)
    bound = best_bound(problem)
    # refuse an oversized level before any refinement work is spent
    for level in range(1, levels + 1):
        _enumeration_halves(problem, bound, level)
    samples = {0: SampledFunction(0, indices, values)}
    for level in range(1, levels + 1):
        indices, values = refinement_step(problem, indices, values, level)
        inside = bound.contains_many(problem.matrix.coordinates(indices, level))
        escaped = np.abs(values[~inside])
        floor = _ESCAPE_RTOL * max(1.0, float(np.abs(values).max(initial=0.0)))
        if escaped.size and float(escaped.max()) > floor:
            raise DomainTooSmall(
                f"value {escaped.max():.3g} escaped the support bound at "
                f"level {level}; bound, seed, or enumeration is inconsistent"
            )
        indices, values = np.compress(inside, indices, axis=0), values[inside]
        images = problem.matrix.images(samples[level - 1].indices, 1)
        samples[level] = SampledFunction(level, *_with_images(indices, values, images))
    return ValueTable(samples)


def refine_consistency(problem: Problem, table: ValueTable) -> float:
    """Largest |phi_j(M k) - phi_(j-1)(k)| over the indices k of each level
    below the top whose image M k is stored one level up; both sides sample
    phi at the same point M^-(j-1) k."""
    worst = 0.0
    for level in range(1, table.max_level + 1):
        coarse, fine = table.samples[level - 1], table.samples[level]
        pos, found = _locate(fine.indices, problem.matrix.images(coarse.indices, 1))
        if found.any():
            gap = np.abs(fine.values[pos[found]] - coarse.values[found])
            worst = max(worst, float(gap.max()))
    return worst


def periodization_check(
    problem: Problem,
    table: ValueTable,
    level: int,
    rows: np.ndarray,
) -> tuple[tuple[tuple[int, ...], float, float], ...]:
    """For each level-j index row k, the lattice point x = M^-j k, sum the
    stored values over the integer translates x + n and report (k, total,
    |total - 1|).

    A stored index k' samples x + n exactly when k' = k (mod M^j Z^d), so
    the stored values are grouped by residue class
    (:meth:`DilationMatrix.residues`) and each class adds its values in
    stored order.  At level 0 every stored value counts.  Refused with
    ValueError unless ``rows`` are signed integer rows of width d.
    """
    if level not in table.samples:
        raise ValueError(f"table has no level {level}")
    rows = _index_rows(rows, problem.dim, f"level-{level} index rows").astype(np.int64)
    stored = table.samples[level]
    keys = problem.matrix.residues(level, np.concatenate([stored.indices, rows]))
    order, starts = _row_runs(keys)
    inverse = np.empty(len(keys), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    n = len(stored.indices)
    # bincount adds each class's values in stored order, starting from 0.0
    sums = np.bincount(inverse[:n], weights=stored.values, minlength=np.count_nonzero(starts))
    totals = sums[inverse[n:]].tolist()
    return tuple(
        (tuple(row), total, abs(total - 1.0)) for row, total in zip(rows.tolist(), totals)
    )


# ---------------------------------------------------------------------------
# serialization (same delimited layout as the cascade dumps)
# ---------------------------------------------------------------------------

def export_values(problem: Problem, table: ValueTable, stream: IO[str]) -> None:
    """Serialize a ValueTable deterministically, sorted by (level, index)."""
    write_rows(
        stream,
        problem.matrix,
        ((j, f.indices, f.values) for j, f in sorted(table.samples.items())),
    )
