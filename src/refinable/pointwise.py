"""Values of the limit function on the dense lattice {M^-j k}.

The two-scale relation restricted to integer points is a finite eigenvalue
problem: with candidate points k_1..k_N, the transfer matrix
B = m (c_{M k_i - k_j}) fixes the vector of integer-point values, and the
eigenvector for eigenvalue one (normalized to sum one) gives them.  Finer
lattice levels then follow from the same refinement kernel the cascade
module uses, level by level.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Mapping, Sequence

import numpy as np

from .bounds import (
    Ball,
    Box,
    SupportBound,
    TransformedBox,
    best_bound,
    enclosing_integer_box,
)
from .cascade import IntBox, SampledFunction, read_rows, refinement_step, write_rows
from .errors import (
    ContractionSearchExhausted,
    DomainTooSmall,
    EnumerationTooLarge,
    IndexOverflow,
    NoBoundAvailable,
    NonFiniteArithmetic,
    NonUniqueWarning,
    NormalizationImpossible,
    NoUnitEigenvalue,
)
from .mask import Problem, per_problem

UNIT_EIGENVALUE_TOL = 1e-9
STRUCTURAL_ZERO_TOL = 1e-10
_ENUMERATION_CAP = 5_000_000
_ESCAPE_RTOL = 1e-9


# ---------------------------------------------------------------------------
# candidate points and the transfer matrix
# ---------------------------------------------------------------------------

@per_problem
def candidate_points(problem: Problem) -> tuple[tuple[int, ...], ...]:
    """All integer points inside the best available support bound, in
    lexicographic order; enumerated once per problem."""
    try:
        bound = best_bound(problem)
    except ContractionSearchExhausted as exc:
        raise NoBoundAvailable(str(exc)) from exc
    return tuple(map(tuple, lattice_points_in_bound(problem, bound, 0).tolist()))


def _enumeration_halves(problem: Problem, bound: SupportBound, level: int) -> list[int]:
    """Half-widths of the origin-centred index box that holds every k with
    M^-level k inside the bound; raises EnumerationTooLarge when the box
    holds more points than the enumeration cap."""
    if level == 0:
        box = enclosing_integer_box(bound)
        halves = [int(h) for h in box.half_widths]
    else:
        power = problem.matrix.power(level).as_array()
        if isinstance(bound, Ball):
            extents = [bound.radius * float(np.linalg.norm(row)) for row in power]
        elif isinstance(bound, Box):
            extents = list(np.abs(power) @ np.asarray(bound.half_widths))
        else:
            mapped = np.abs(power @ bound.transform)
            extents = list(mapped @ np.asarray(bound.half_widths))
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
    ``(n, d)`` int64 rows in lexicographic order."""
    halves = _enumeration_halves(problem, bound, level)
    grids = np.meshgrid(
        *[np.arange(-h, h + 1, dtype=np.int64) for h in halves], indexing="ij"
    )
    points = np.stack([g.reshape(-1) for g in grids], axis=1)
    coords = points.astype(float) @ problem.matrix.inverse_power_array(level).T
    return points[bound.contains_many(coords)]


def _locate(rows: np.ndarray, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the ``queries`` among the distinct, lexicographically
    sorted ``rows``, and a mask of the queries found there.

    Both are keyed by their row-major position in the common hull; that key
    preserves lexicographic order, so the row keys are already sorted and one
    binary search per query suffices.
    """
    if len(rows) == 0 or len(queries) == 0:
        return np.zeros(len(queries), dtype=np.int64), np.zeros(len(queries), dtype=bool)
    lo = np.minimum(rows.min(axis=0), queries.min(axis=0))
    hi = np.maximum(rows.max(axis=0), queries.max(axis=0))
    widths = [int(b) - int(a) + 1 for a, b in zip(lo, hi)]
    if math.prod(widths) >= 2**63:
        raise IndexOverflow("lattice index hull does not fit in int64 keys")
    strides = np.asarray(
        [math.prod(widths[i + 1 :]) for i in range(len(widths))], dtype=np.int64
    )
    keys = (rows - lo) @ strides
    probes = (queries - lo) @ strides
    pos = np.minimum(np.searchsorted(keys, probes), len(keys) - 1)
    return pos, keys[pos] == probes


@dataclass(frozen=True)
class TransferMatrix:
    """The matrix m (c_{M k_i - k_j}) over an ordered candidate set."""

    points: tuple[tuple[int, ...], ...]
    matrix: np.ndarray

    @property
    def size(self) -> int:
        return len(self.points)


def build_transfer_matrix(
    problem: Problem, points: Sequence[Sequence[int]]
) -> TransferMatrix:
    """Assemble the transfer matrix by exact integer index arithmetic: row i
    holds m c_q at the column of M k_i - q for every mask tap q whose point
    is a candidate, one array lookup per tap, so the cost is O(N |mask|) up
    to a sort.  Each entry gets at most one tap, since q = M k_i - k_j is
    fixed by (i, j)."""
    pts = tuple(tuple(int(x) for x in p) for p in points)
    if not pts:
        raise ValueError("points must be nonempty")
    n, d = len(pts), problem.dim
    m = float(problem.m)
    taps = [(q, m * c) for q, c in problem.mask.items_sorted()]
    for q, w in taps:
        if not math.isfinite(w):
            raise NonFiniteArithmetic(f"transfer entry m c_q overflows at q = {list(q)}")
    rows = problem.matrix.matrix.rows
    reach = max(map(abs, itertools.chain(*pts))) * max(sum(map(abs, r)) for r in rows)
    if reach + max(abs(x) for q, _ in taps for x in q) >= 2**62:
        raise IndexOverflow("images M k of the points do not fit in int64")
    ks = np.asarray(pts, dtype=np.int64).reshape(n, d)
    order = np.lexsort(ks.T[::-1])
    ordered = ks[order]
    if np.any(np.all(ordered[1:] == ordered[:-1], axis=1)):
        raise ValueError("points must be distinct")
    images = ks @ np.asarray(rows, dtype=np.int64).T
    matrix = np.zeros((n, n))
    for q, w in taps:
        pos, found = _locate(ordered, images - np.asarray(q, dtype=np.int64))
        matrix[np.flatnonzero(found), order[pos[found]]] = w
    matrix.flags.writeable = False
    return TransferMatrix(pts, matrix)


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
    """Eigenvalue-1 eigenspace of the transfer matrix.

    With a one-dimensional eigenspace the single basis vector is scaled so
    its entries sum to one and ``values`` maps each candidate point to its
    value; otherwise the orthonormal basis is returned as-is and callers
    must resolve the ambiguity themselves.
    """

    points: tuple[tuple[int, ...], ...]
    basis: np.ndarray
    eigenspace_dimension: int
    normalized: bool
    structural_zeros: tuple[tuple[int, ...], ...]

    @property
    def values(self) -> dict[tuple[int, ...], float]:
        if not self.normalized:
            raise ValueError(
                "eigenspace is not one-dimensional; no canonical values"
            )
        return {p: float(v) for p, v in zip(self.points, self.basis[0])}


def integer_values(
    transfer: TransferMatrix,
    unit_tol: float = UNIT_EIGENVALUE_TOL,
    zero_tol: float = STRUCTURAL_ZERO_TOL,
) -> IntegerValues:
    """Solve B r = r.

    Raises NoUnitEigenvalue when no eigenvalue lies within ``unit_tol`` of
    one.  The eigenspace basis comes from an SVD null-space computation, so
    repeated unit eigenvalues yield a full geometric basis; a basis of
    dimension above one is reported with a NonUniqueWarning instead of being
    silently resolved.
    """
    b = transfer.matrix
    n = transfer.size
    try:
        eigs = np.linalg.eigvals(b)
        if not np.any(np.abs(eigs - 1.0) <= unit_tol):
            nearest = eigs[np.argmin(np.abs(eigs - 1.0))]
            raise NoUnitEigenvalue(
                f"no eigenvalue within {unit_tol:g} of 1 (nearest: {nearest:.6g})"
            )
        _, sing, vt = np.linalg.svd(b - np.eye(n))
    except np.linalg.LinAlgError as exc:
        raise NonFiniteArithmetic(f"transfer eigensolve failed: {exc}") from exc
    null_tol = unit_tol * max(1.0, float(sing[0]))
    dimension = int(np.sum(sing <= null_tol))
    if dimension == 0:
        dimension = 1
    basis = vt[n - dimension :][::-1].copy()
    for row in basis:
        k = int(np.argmax(np.abs(row)))
        if row[k] < 0:
            row *= -1.0
    if dimension == 1:
        vec = basis[0]
        total = float(vec.sum())
        if abs(total) <= 1e-12 * float(np.abs(vec).max()):
            raise NormalizationImpossible(
                "unit eigenvector has entry sum within 1e-12 of zero"
            )
        vec = vec / total
        zeros = tuple(
            p for p, v in zip(transfer.points, vec) if abs(v) <= zero_tol
        )
        return IntegerValues(transfer.points, vec[None, :], 1, True, zeros)
    warnings.warn(
        f"eigenvalue-1 eigenspace has dimension {dimension}; integer values "
        f"are not unique",
        NonUniqueWarning,
        stacklevel=2,
    )
    return IntegerValues(transfer.points, basis, dimension, False, ())


def converged_integer_values(
    problem: Problem,
    iterations: int = 200,
) -> dict[tuple[int, ...], float]:
    """Integer-point values obtained by iterating the transfer matrix on the
    integer samples of the box indicator (a unit spike at the origin).

    This is the cascade iteration restricted to the integer lattice; when
    the eigenvalue-1 eigenspace is not unique it selects the limit that a
    half-open box indicator produces, which is the usual tie-break.
    """
    points = candidate_points(problem)
    transfer = transfer_matrix(problem)
    vec = np.zeros(len(points))
    vec[points.index((0,) * problem.dim)] = 1.0
    acc = np.zeros_like(vec)
    tail = max(1, iterations // 4)
    for i in range(iterations):
        vec = transfer.matrix @ vec
        if i >= iterations - tail:
            acc += vec
    # averaging the tail tolerates slowly rotating transient components
    vec = acc / tail
    if not np.all(np.isfinite(vec)):
        raise NonFiniteArithmetic("the transfer iteration overflowed")
    return {p: float(v) for p, v in zip(points, vec)}


# ---------------------------------------------------------------------------
# refinement to finer lattice levels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValueTable:
    """Limit-function values phi(M^-j k) for levels j = 0..J; level j is
    stored as the sorted index and value arrays of a SampledFunction."""

    samples: dict[int, SampledFunction]
    normalized: bool

    @property
    def max_level(self) -> int:
        return max(self.samples)

    @cached_property
    def levels(self) -> dict[int, dict[tuple[int, ...], float]]:
        """The same values keyed by index tuples, built once on first use;
        treat it as read-only."""
        return {j: f.as_dict() for j, f in self.samples.items()}


def _sampled(level: int, indices: np.ndarray, values: np.ndarray) -> SampledFunction:
    return SampledFunction(level, indices, values, IntBox.hull(indices))


def refine_values(
    problem: Problem,
    level0: Mapping[tuple[int, ...], float],
    levels: int,
) -> ValueTable:
    """Extend integer-point values to the lattices M^-j Z^d, j = 1..levels.

    Each level applies the shared refinement kernel and stores every index
    whose lattice point lies inside the support bound, with value zero where
    the kernel produced none.  Values escaping the bound abort with
    DomainTooSmall when they exceed the noise floor (that signals a bound or
    seed inconsistency), and are discarded as roundoff dust otherwise.
    """
    if levels < 1:
        raise ValueError("levels must be positive")
    points = candidate_points(problem)
    position = {p: i for i, p in enumerate(points)}
    values = np.zeros(len(points))
    for key, value in level0.items():
        i = position.get(tuple(key))
        if i is None:
            raise DomainTooSmall(
                f"seed index {tuple(key)} is outside the candidate set"
            )
        values[i] = float(value)
    bound = best_bound(problem)
    # refuse an oversized level before any refinement work is spent
    for level in range(1, levels + 1):
        _enumeration_halves(problem, bound, level)
    indices = np.asarray(points, dtype=np.int64).reshape(len(points), problem.dim)
    samples = {0: _sampled(0, indices, values)}
    for level in range(1, levels + 1):
        indices, values = refinement_step(problem, indices, values, level)
        coords = indices.astype(float) @ problem.matrix.inverse_power_array(level).T
        inside = bound.contains_many(coords)
        escaped = np.abs(values[~inside])
        floor = _ESCAPE_RTOL * max(1.0, float(np.abs(values).max(initial=0.0)))
        if escaped.size and float(escaped.max()) > floor:
            raise DomainTooSmall(
                f"value {escaped.max():.3g} escaped the support bound at "
                f"level {level}; bound, seed, or enumeration is inconsistent"
            )
        kept = values[inside]
        targets = lattice_points_in_bound(problem, bound, level)
        pos, found = _locate(indices[inside], targets)
        values = np.zeros(len(targets))
        values[found] = kept[pos[found]]
        indices = targets
        samples[level] = _sampled(level, indices, values)
    total = math.fsum(samples[0].values.tolist())
    return ValueTable(samples, abs(total - 1.0) <= 1e-12)


def refine_consistency(problem: Problem, table: ValueTable) -> float:
    """Largest |phi_j(M k) - phi_(j-1)(k)| over the indices k of each level
    below the top whose image M k is stored one level up; both sides sample
    phi at the same point M^-(j-1) k."""
    transpose = np.asarray(problem.matrix.matrix.rows, dtype=np.int64).T
    worst = 0.0
    for level in range(1, table.max_level + 1):
        coarse, fine = table.samples[level - 1], table.samples[level]
        pos, found = _locate(fine.indices, coarse.indices @ transpose)
        if found.any():
            gap = np.abs(fine.values[pos[found]] - coarse.values[found])
            worst = max(worst, float(gap.max()))
    return worst


def periodization_check(
    problem: Problem,
    table: ValueTable,
    level: int,
    probes: Sequence[Sequence[float]],
) -> tuple[tuple[tuple[float, ...], float, float], ...]:
    """For each probe x on the level-j lattice, sum the stored values over
    the integer translates x + k and report (probe, total, |total - 1|).

    A stored index k' samples x + k exactly when k' = M^j x (mod M^j Z^d),
    so the stored values are grouped by residue class
    (:meth:`DilationMatrix.residues`) and each class adds its values in
    stored order.  At level 0 every stored value counts.
    """
    if level not in table.samples:
        raise ValueError(f"table has no level {level}")
    stored = table.samples[level]
    x = np.asarray(probes, dtype=float).reshape(-1, problem.dim)
    kx_float = x @ problem.matrix.power(level).as_array().T
    kx = np.round(kx_float)
    off = np.max(np.abs(kx_float - kx), axis=1, initial=0.0) > 1e-6
    if off.any():
        probe = tuple(x[int(np.argmax(off))].tolist())
        raise ValueError(f"probe {probe} is not on the level-{level} lattice")
    if np.any(np.abs(kx) >= 2.0**62):
        raise IndexOverflow(f"level-{level} probe indices do not fit in int64")
    keys = problem.matrix.residues(
        level, np.concatenate([stored.indices, kx.astype(np.int64)])
    )
    classes, inverse = np.unique(keys, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    n = len(stored.indices)
    # bincount adds each class's values in stored order, starting from 0.0
    sums = np.bincount(inverse[:n], weights=stored.values, minlength=len(classes))
    totals = sums[inverse[n:]].tolist()
    probes = map(tuple, x.tolist())
    return tuple((probe, total, abs(total - 1.0)) for probe, total in zip(probes, totals))


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


def read_values(stream: IO[str]) -> ValueTable:
    """Parse an exported ValueTable; values round-trip bit-exactly.  A level
    without rows is absent from the file and so from the table."""
    rows: dict[int, tuple[list, list]] = {}
    for level, index, _, value in read_rows(stream):
        indices, values = rows.setdefault(level, ([], []))
        indices.append(index)
        values.append(value)
    samples = {}
    for level, (index_rows, value_list) in sorted(rows.items()):
        indices = np.asarray(index_rows, dtype=np.int64)
        order = np.lexsort(indices.T[::-1])
        indices = indices[order]
        if np.any(np.all(indices[1:] == indices[:-1], axis=1)):
            raise ValueError(f"level {level} repeats an index")
        samples[level] = _sampled(level, indices, np.asarray(value_list)[order])
    level0 = samples.get(0)
    normalized = (
        level0 is not None and abs(math.fsum(level0.values.tolist()) - 1.0) <= 1e-12
    )
    return ValueTable(samples, normalized)
