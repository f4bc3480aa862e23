"""Cascade iteration on refinement lattices, plus frequency-domain helpers.

Level-n samples live on the lattice M^-n Z^d and are stored by integer
index: G_n(k) represents F_n(M^-n k).  On that lattice the refinement
recurrence

    G_n(k) = m * sum_q c_q G_{n-1}(k - M^(n-1) q)

is an exact identity, so no interpolation between lattices ever happens.
The same kernel drives both the cascade iteration here and the value
refinement in :mod:`refinable.pointwise`, and this module alone decides how
a lattice row is keyed (one int64 key space), looked up, merged, dumped
and read back (:class:`ValueTable`, :func:`read_values`).
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterable, Sequence

import numpy as np

from .errors import EnumerationTooLarge, IndexOverflow, NonFiniteArithmetic
from .linalg import _INDEX_LIMIT, DilationMatrix, _index_rows
from .mask import Mask, Problem

DEFAULT_SUPPORT_EPS = 1e-12
DEFAULT_LEVEL_CAP = 12
# The most rows one cascade or refinement step may scatter, |mask| x input
# samples.  The kernel peaks at about 43 bytes per scattered row in 2-D
# (tracemalloc, 45.1 MB on shear2d's level 10), so this bounds a level near
# 0.72 GB; shear2d's level 12 scatters 4^11 x 4 = 2^24 rows, the most of any
# bundled problem up to level 12.
_SCATTER_CAP = 2**24


# ---------------------------------------------------------------------------
# start functions and sampled functions
# ---------------------------------------------------------------------------

class InitialFunctionKind(enum.Enum):
    """Starting functions for the cascade; both are piecewise continuous,
    compactly supported, and sum to one over integer translates.

    The choice changes no output: the lattice cascade reads the start
    function only at integer points, where both kinds are the unit spike.
    """

    INDICATOR_BOX = "box"
    TENSOR_HAT = "hat"


@dataclass(frozen=True)
class SampledFunction:
    """Values of a level-n function on the lattice M^-n Z^d: row i of
    ``indices`` is the integer index k of the point M^-n k and ``values[i]``
    is the value there; rows are kept lexicographically sorted."""

    level: int
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ValueError("level must be nonnegative")
        if self.indices.ndim != 2 or len(self.indices) != len(self.values):
            raise ValueError("indices and values must align")
        _index_rows(self.indices, self.indices.shape[1], "indices")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")

    def as_dict(self) -> dict[tuple[int, ...], float]:
        return dict(zip(map(tuple, self.indices.tolist()), self.values.tolist()))


@dataclass(frozen=True)
class ValueTable:
    """Limit-function values phi(M^-j k) for levels j = 0..J; level j is
    stored as the sorted index and value arrays of a SampledFunction."""

    samples: dict[int, SampledFunction]

    @property
    def max_level(self) -> int:
        return max(self.samples)

    @cached_property
    def levels(self) -> dict[int, dict[tuple[int, ...], float]]:
        """The same values keyed by index tuples, built once on first use;
        treat it as read-only."""
        return {j: f.as_dict() for j, f in self.samples.items()}


def initial_samples(problem: Problem) -> SampledFunction:
    """Level-0 samples of the initial function at integer points.

    Both starting functions vanish at every nonzero integer and equal one at
    the origin, so the sample set is the same single unit spike for either.
    """
    d = problem.dim
    return SampledFunction(0, np.zeros((1, d), dtype=np.int64), np.ones(1))


# ---------------------------------------------------------------------------
# the shared refinement kernel
# ---------------------------------------------------------------------------

def _float_m(problem: Problem) -> float:
    """m = |det M| as a float, refused with NonFiniteArithmetic when it lies
    beyond float range."""
    try:
        return float(problem.m)
    except OverflowError:
        raise NonFiniteArithmetic("m = |det M| overflows a float") from None


def _column_hull(rows: np.ndarray) -> tuple[list, list]:
    """Per-coordinate least and greatest entries of nonempty ``(n, d)``
    rows, as Python ints for integer rows and floats for float rows."""
    columns = [rows[:, i] for i in range(rows.shape[1])]
    return [c.min().item() for c in columns], [c.max().item() for c in columns]


def _key_strides(lo: Sequence[int], hi: Sequence[int], refusal: str) -> list[int]:
    """Row-major strides of the hull with corners ``lo`` and ``hi``; refused
    with IndexOverflow(refusal) when its keys would reach 2^63."""
    widths = [b - a + 1 for a, b in zip(lo, hi)]
    if math.prod(widths) >= 2**63:
        raise IndexOverflow(refusal)
    return [math.prod(widths[i + 1 :]) for i in range(len(widths))]


def _row_keys(rows: np.ndarray, lo: Sequence[int], strides: Sequence[int]) -> np.ndarray:
    """The int64 keys (k - lo) . strides of the ``(n, d)`` rows k: their
    row-major positions in a hull with corner ``lo``, which keep the rows'
    lexicographic order; the caller guarantees the keys fit in int64."""
    keys = (rows[:, 0] - lo[0]) * strides[0]
    for i in range(1, rows.shape[1]):
        keys += (rows[:, i] - lo[i]) * strides[i]
    return keys


def _hull_keys(*blocks: np.ndarray) -> list[np.ndarray]:
    """The int64 keys of the rows of each ``(n, d)`` block: their row-major
    positions in the common hull of the nonempty blocks, which keep the rows'
    lexicographic order.  Raises IndexOverflow when that hull's keys do not
    fit in int64."""
    hulls = [_column_hull(block) for block in blocks if len(block)]
    if not hulls:
        return [np.zeros(0, dtype=np.int64) for _ in blocks]
    lo = [min(column) for column in zip(*(low for low, _ in hulls))]
    hi = [max(column) for column in zip(*(high for _, high in hulls))]
    strides = _key_strides(lo, hi, "lattice index hull does not fit in int64 keys")
    return [_row_keys(block, lo, strides) for block in blocks]


def _search(keys: np.ndarray, probes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the ``probes`` among the sorted distinct ``keys`` by one
    binary search each, and a mask of the probes found there."""
    if len(keys) == 0:
        return np.zeros(len(probes), dtype=np.int64), np.zeros(len(probes), dtype=bool)
    pos = np.minimum(np.searchsorted(keys, probes), len(keys) - 1)
    return pos, keys.take(pos) == probes


def _locate(rows: np.ndarray, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the ``queries`` among the distinct, lexicographically
    sorted ``rows``, and a mask of the queries found there.

    Both are keyed in their common hull (:func:`_hull_keys`), so the row
    keys are already sorted and one binary search per query suffices.
    """
    return _search(*_hull_keys(rows, queries))


def _row_runs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The permutation that sorts the ``(n, d)`` rows lexicographically, by
    one stable argsort per column from the last column to the first, and a
    mask of the sorted rows that differ from the row before them (the first
    row included).  Needs no int64 key, so any hull of rows may be given."""
    order = np.arange(len(rows))
    for i in range(rows.shape[1] - 1, -1, -1):
        order = order.take(np.argsort(rows[:, i].take(order), kind="stable"))
    same = np.ones(max(len(rows) - 1, 0), dtype=bool)
    for i in range(rows.shape[1]):
        column = rows[:, i].take(order)
        same &= column[1:] == column[:-1]
    starts = np.ones(len(rows), dtype=bool)
    starts[1:] = ~same
    return order, starts


def _merge_runs(keys: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``keys`` in increasing order and the sum of the
    ``weights`` at each, added in input order from 0.0.

    A stable argsort groups equal keys while keeping their input order, so
    ``bincount`` over the run index adds each key's weights in the same
    order as a bincount over the input would.  The input being a few
    sorted runs, the sort is a merge of them."""
    order = np.argsort(keys, kind="stable")
    keys = keys.take(order)
    starts = np.empty(len(keys), dtype=bool)
    starts[0] = True
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    unique = keys[starts]
    del keys
    run = np.cumsum(starts)
    run -= 1
    weights = weights.take(order)
    del order
    return unique, np.bincount(run, weights=weights, minlength=len(unique))


def refinement_step(
    problem: Problem,
    indices: np.ndarray,
    values: np.ndarray,
    step: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One application of the lattice recurrence, taking level step-1 samples
    to level ``step``: out(k) = m * sum_q c_q in(k - M^(step-1) q).

    Implemented as a tap-major scatter over the stored samples followed by a
    deterministic duplicate merge, so the output support is exactly the
    reachable index set (exact-zero sums included), in lexicographic order.
    Each scattered index is keyed by its row-major position in the hull of
    the scattered indices, one ``(|mask|, n)`` array of keys; a stable
    argsort merges the taps' sorted runs of keys and ``bincount`` sums each
    run in tap order (:func:`_merge_runs`).  This function is the single
    kernel shared by :func:`cascade_step` and value refinement.

    ``indices`` must be signed integer ``(n, d)`` rows (ValueError).  A step
    that would scatter more than ``_SCATTER_CAP`` rows is refused with
    EnumerationTooLarge before anything is allocated.
    """
    if step < 1:
        raise ValueError("step must be positive")
    d = problem.dim
    indices = _index_rows(indices, d)
    taps, samples = len(problem.mask.tap_rows), len(indices)
    if taps * samples > _SCATTER_CAP:
        raise EnumerationTooLarge(
            f"level {step} would scatter {taps * samples} rows "
            f"({taps} taps x {samples} samples), above the cap of {_SCATTER_CAP}"
        )
    shifts = problem.matrix.images(problem.mask.tap_rows, step - 1)
    if samples == 0:
        return np.zeros((0, d), dtype=np.int64), np.zeros(0)
    indices = indices.astype(np.int64, copy=False)  # keys are computed in int64
    # Row arrays are (n, d) with d small, and numpy reduces or broadcasts
    # along such an array in inner loops of length d, one call per row: one
    # contiguous pass per column is 8-20x faster, so the hull and the keys
    # are computed column by column.  The hull of indices + shifts is exact,
    # in Python ints, so nothing can wrap.
    first, last = _column_hull(indices)
    low, high = _column_hull(shifts)
    lo = [a + b for a, b in zip(first, low)]
    hi = [a + b for a, b in zip(last, high)]
    refusal = f"level-{step} lattice indices do not fit in int64"
    if max(map(abs, lo + hi)) >= _INDEX_LIMIT:
        raise IndexOverflow(refusal)
    strides = _key_strides(lo, hi, refusal)
    # key(k + shift) = key of k relative to the input hull + key of the shift
    # relative to the lowest shift; both parts are nonnegative
    offsets = _row_keys(shifts, low, strides)
    base = _row_keys(indices, first, strides)
    m = _float_m(problem)
    weights = [m * coeff for coeff in problem.mask.coefficients.values()]
    # the caller keeps no reference to the scattered keys and weights, so
    # the merge frees each one as soon as it has been reordered; products and
    # sums beyond float range are refused just below, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        unique, sums = _merge_runs(
            (offsets[:, None] + base).reshape(-1),
            (np.asarray(weights)[:, None] * values).reshape(-1),
        )
    if not np.all(np.isfinite(sums)):
        raise NonFiniteArithmetic(f"level-{step} values overflow to inf or NaN")
    # decode the keys in place, leading coordinate first; the last stride is 1
    out = np.empty((len(unique), d), dtype=np.int64)
    for i in range(d - 1):
        column = out[:, i]
        np.floor_divide(unique, strides[i], out=column)
        np.remainder(unique, strides[i], out=unique)
        column += lo[i]
    np.add(unique, lo[-1], out=out[:, -1])
    return out, sums


def cascade_step(problem: Problem, sampled: SampledFunction) -> SampledFunction:
    """Advance the cascade one level, keeping every reachable index."""
    indices, values = refinement_step(
        problem, sampled.indices, sampled.values, sampled.level + 1
    )
    return SampledFunction(sampled.level + 1, indices, values)


def run_cascade(
    problem: Problem,
    kind: InitialFunctionKind = InitialFunctionKind.INDICATOR_BOX,
    levels: int = 6,
) -> list[SampledFunction]:
    """Run the cascade and return the iterates for levels 0..levels, each on
    its exact reachable support.  ``kind`` changes nothing: both start
    functions give the same unit spike at level 0 (see
    :class:`InitialFunctionKind`)."""
    if levels < 0:
        raise ValueError("levels must be nonnegative")
    # refuse a run whose tap images M^n q overflow before any level is spent,
    # and one whose m = |det M| overflows a float, which every level's values
    # and the mass of every iterate, level 0 included, are scaled by
    for level in range(1, levels):
        problem.matrix.images(problem.mask.tap_rows, level)
    _float_m(problem)
    result = [initial_samples(problem)]
    for _ in range(levels):
        result.append(cascade_step(problem, result[-1]))
    return result


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RealBox:
    """Axis-aligned real box given by per-coordinate extents."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]


def empirical_support(
    problem: Problem,
    sampled: SampledFunction,
    eps: float = DEFAULT_SUPPORT_EPS,
) -> RealBox | None:
    """Componentwise extent of M^-n k over samples with |value| > eps;
    None when nothing exceeds the threshold."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    keep = np.abs(sampled.values) > eps
    if not np.any(keep):
        return None
    coords = problem.matrix.coordinates(sampled.indices[keep], sampled.level)
    return RealBox(*map(tuple, _column_hull(coords)))


def discrete_mass(problem: Problem, sampled: SampledFunction) -> float:
    """Riemann-sum mass m^-n sum_k G_n(k); invariant under cascade steps."""
    return _float_m(problem) ** (-sampled.level) * float(np.sum(sampled.values))


# ---------------------------------------------------------------------------
# frequency domain
# ---------------------------------------------------------------------------

def m0_eval(mask: Mask, u: Sequence[float]) -> complex:
    """The 1-periodic symbol m0(u) = sum_q c_q e^{-2 pi i (q, u)}."""
    uvec = tuple(float(x) for x in u)
    if len(uvec) != mask.dim:
        raise ValueError(f"u must have dimension {mask.dim}")
    total = 0.0 + 0.0j
    for q, coeff in mask.coefficients.items():
        phase = -2.0 * math.pi * sum(qi * ui for qi, ui in zip(q, uvec))
        total += coeff * cmath.exp(1j * phase)
    return total


def fourier_truncated_product(
    problem: Problem, u: Sequence[float], terms: int
) -> complex:
    """Truncation prod_{j=1..terms} m0((M^T)^-j u) of the infinite product
    defining the Fourier transform of the limit function; (M^T)^-j is the
    transpose of the exact M^-j, rounded once per entry."""
    if terms < 1:
        raise ValueError("terms must be positive")
    uvec = np.asarray([float(x) for x in u])
    result = 1.0 + 0.0j
    for j in range(1, terms + 1):
        # a C-ordered copy, so the product sums in the order of any other
        # row-major matrix and not in that of a transposed view
        inv_t = np.ascontiguousarray(problem.matrix.inverse_power_array(j).T)
        result *= m0_eval(problem.mask, inv_t @ uvec)
    return result


# ---------------------------------------------------------------------------
# delimited sample dumps
# ---------------------------------------------------------------------------

def sample_header(dim: int) -> str:
    ks = "\t".join(f"k{i}" for i in range(dim))
    xs = "\t".join(f"x{i}" for i in range(dim))
    return f"level\t{ks}\t{xs}\tvalue"


# Rows formatted per write.  Runs of equal cells are found within a chunk,
# so longer chunks format fewer heads.  Writing the cascade-deep levels
# (2-core Xeon, Python 3.11, numpy 2.4, medians of 30 alternated runs) took
# 53.4, 50.0, 49.9 and 49.6 ms at 1024, 2048, 4096 and 8192 rows, and the
# writer's tracemalloc peak on skew3's level 9 read 0.72, 1.11, 1.90 and
# 3.48 MB.  At 4096 rows the benchmark's peak RSS read 48.61-48.89 MB, and
# 48.68-49.04 MB with every column formatted directly at 1024 rows (10 runs
# each).
_WRITE_CHUNK = 4096
# Float columns shorter than this are formatted cell by cell without a
# search for runs.  The search and the repeat cost about 8 us per column on
# top of the cells, and formatting a cell about 100 ns, so below about 160
# cells halving the formatted cells saves less than it costs.
_RUN_MIN = 256


def _formatted(column: np.ndarray, suffix: str = "") -> list[str]:
    """``repr`` of every entry of an int64 or float64 column, each followed
    by ``suffix``.

    A float column of at least ``_RUN_MIN`` cells whose runs of
    bitwise-equal adjacent cells number at most half its cells formats one
    head per run and repeats it by the run's length; repeating a cell costs
    about a sixth of formatting one.  Runs are told apart by bits, so ``0.0``
    and ``-0.0`` and NaNs of different payloads stay apart.  Integer columns,
    which orjson formats for less than a repeat costs, are always formatted
    cell by cell.
    """
    if not len(column):
        return []
    if column.dtype.kind == "f" and len(column) >= _RUN_MIN:
        # bounds[i] is True where a run starts, and at the end of the column
        bits = column.view(np.int64)
        bounds = np.empty(len(column) + 1, dtype=bool)
        bounds[0] = bounds[-1] = True
        np.not_equal(bits[1:], bits[:-1], out=bounds[1:-1])
        if 2 * (np.count_nonzero(bounds) - 1) <= len(column):
            bounds = np.flatnonzero(bounds)
            heads = np.empty(len(bounds) - 1, dtype=object)
            heads[:] = _cells(column[bounds[:-1]], suffix)
            return heads.repeat(bounds[1:] - bounds[:-1]).tolist()
    return _cells(column, suffix)


def _cells(column: np.ndarray, suffix: str) -> list[str]:
    """``repr`` of every entry of a nonempty int64 or float64 column, each
    followed by ``suffix``.

    orjson writes the whole column with the shortest round-trip digits, the
    same digits as ``repr``, and the same notation for magnitudes below 1e-9
    (zeros and subnormals included), whose exponents have two or three
    digits, and in [1e-4, 1e16).  Only the cells whose notation differs go
    through ``repr``: non-finite values, which orjson writes as ``null``, and
    magnitudes in [1e-9, 1e-4) or from 1e16 on, where ``repr`` writes
    ``1e-05`` or ``1e+16`` and orjson ``0.00001`` or ``1e16``.  So the
    roundoff where phi vanishes keeps orjson's text.
    """
    import orjson  # imported at the first dump, so other commands skip it

    column = np.ascontiguousarray(column)  # orjson reads contiguous arrays only
    text = orjson.dumps(column, option=orjson.OPT_SERIALIZE_NUMPY).decode()
    if suffix:
        text = text.replace(",", suffix + ",")
    cells = (text[1:-1] + suffix).split(",")
    if column.dtype.kind == "f":
        size = np.abs(column)
        fixed = ((size >= 1e-4) & (size < 1e16)) | (size < 1e-9)
        odd = np.flatnonzero(~fixed)
        for i, x in zip(odd.tolist(), column[odd].tolist()):
            cells[i] = repr(x) + suffix
    return cells


def _chunk_text(level: str, columns: list[np.ndarray]) -> str:
    """The rows of one chunk, each ended by a newline.

    The cells are laid out row by row in one list, a column at a time by
    slice assignment, and joined once with tabs; each value cell carries the
    newline and the level that open the next row; the first cell carries the
    first row's level and the last cell drops its own."""
    width = len(columns)
    cells = [""] * (len(columns[0]) * width)
    for j, column in enumerate(columns[:-1]):
        cells[j::width] = _formatted(column)
    cells[width - 1 :: width] = _formatted(columns[-1], f"\n{level}")
    cells[0] = f"{level}\t{cells[0]}"
    cells[-1] = cells[-1][: -len(level)]
    return "\t".join(cells)


def write_rows(
    stream: IO[str],
    matrix: DilationMatrix,
    levels: Iterable[tuple[int, np.ndarray, np.ndarray]],
) -> None:
    """Write ``(level, indices, values)`` blocks as delimited rows (level,
    index, coordinates, value) under a mandatory header.

    The coordinates x of a level come from one :meth:`DilationMatrix.coordinates`
    call; floats use shortest round-trip formatting.  Rows are
    written a chunk at a time, so no level's text is held in memory at once;
    each column of a chunk, or the heads of its runs of equal cells, is
    formatted in one call and the chunk's cells are joined in one
    (:func:`_chunk_text`).
    """
    stream.write(sample_header(matrix.dim) + "\n")
    for level, indices, values in levels:
        indices = np.asarray(indices, dtype=np.int64)
        coords = matrix.coordinates(indices, level)
        columns = [*indices.T, *coords.T, np.asarray(values, dtype=np.float64)]
        for start in range(0, len(values), _WRITE_CHUNK):
            part = slice(start, start + _WRITE_CHUNK)
            stream.write(_chunk_text(str(level), [column[part] for column in columns]))


def write_samples(
    problem: Problem,
    sampled_functions: Iterable[SampledFunction],
    stream: IO[str],
) -> None:
    """Dump one or more cascade iterates in the shared delimited layout."""
    funcs = sorted(sampled_functions, key=lambda f: f.level)
    write_rows(stream, problem.matrix, ((f.level, f.indices, f.values) for f in funcs))


def read_values(stream: IO[str]) -> ValueTable:
    """Parse a delimited dump (an exported ValueTable or cascade samples)
    into per-level arrays; values round-trip bit-exactly, and a level without
    rows is absent.  Raises ValueError unless the header is
    :func:`sample_header` of some d, the dump has a row, every row has its
    2d + 2 fields and every level and index cell fits in int64."""
    header = stream.readline().rstrip("\n")
    dim = (header.count("\t") - 1) // 2
    if header != sample_header(dim):
        raise ValueError("missing or malformed header row")
    rows = [line.split("\t") for line in stream.read().splitlines() if line]
    if not rows:
        raise ValueError("the dump has no rows below its header")
    if any(len(parts) != 2 * dim + 2 for parts in rows):
        raise ValueError(f"a row does not have the header's {2 * dim + 2} fields")
    keys = [[int(x) for x in parts[: 1 + dim]] for parts in rows]
    try:
        key_array = np.array(keys, dtype=np.int64).reshape(-1, 1 + dim)
    except OverflowError:
        cells = [(n, c) for key in keys for n, c in zip(header.split("\t"), key)]
        name, cell = next(nc for nc in cells if not -(2**63) <= nc[1] < 2**63)
        raise ValueError(f"{name} cell {cell} does not fit in int64") from None
    levels, index_rows = key_array[:, 0], key_array[:, 1:]
    value_col = np.array([float(parts[1 + 2 * dim]) for parts in rows])
    samples = {}
    for level in np.unique(levels).tolist():
        at_level = levels == level
        indices = index_rows[at_level]
        order, starts = _row_runs(indices)
        if not starts.all():
            raise ValueError(f"level {level} repeats an index")
        samples[level] = SampledFunction(
            level, indices.take(order, axis=0), value_col[at_level][order]
        )
    return ValueTable(samples)
