"""Finitely supported masks paired with a dilation matrix.

A problem document is JSON with exactly three top-level fields::

    {
      "dimension": 1,
      "matrix": [[2]],
      "coefficients": [
        {"q": [0], "c": "1/2"},
        {"q": [1], "c": 0.5}
      ]
    }

``c`` is either a number or an exact "p/q" rational string.  Unknown fields
anywhere in the document are rejected.
"""

from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyMask,
    EnumerationTooLarge,
    IndexOverflow,
    MaskSumViolation,
    NotDilation,
    ParseError,
)
from .linalg import _INDEX_LIMIT, MAX_DIM, DilationMatrix, IntMatrix

MASK_SUM_TOL = 1e-12
COSET_UNIFORM_TOL = 1e-10
# the most residue classes here, and the most points in a pointwise index box
_ENUMERATION_CAP = 5_000_000

_RATIONAL_RE = re.compile(r"^[+-]?\d+/[1-9]\d*$")


@dataclass(frozen=True)
class Mask:
    """Finite map from integer translation vectors to real coefficients.

    ``rational`` carries the exact values when every input coefficient was
    rational, and is None otherwise.  Zero coefficients are dropped, so the
    support is exactly the key set.
    """

    dim: int
    coefficients: dict[tuple[int, ...], float]
    rational: dict[tuple[int, ...], Fraction] | None = None

    def __post_init__(self) -> None:
        if not self.coefficients:
            raise EmptyMask("mask has no nonzero coefficient")
        for q in self.coefficients:
            if len(q) != self.dim:
                raise DimensionMismatch(
                    f"index {q} does not have dimension {self.dim}"
                )
        # exact data sums to exactly one; floats within MASK_SUM_TOL
        if self.rational is not None:
            deviation, tol = abs(sum(self.rational.values()) - 1), 0
        else:
            try:
                deviation = abs(math.fsum(self.coefficients.values()) - 1.0)
            except OverflowError as exc:
                raise MaskSumViolation(f"coefficient sum leaves float range ({exc})") from exc
            tol = MASK_SUM_TOL
        if deviation > tol:
            raise MaskSumViolation(
                f"mask coefficients must sum to 1 (off by {float(deviation):.3g})"
            )

    @property
    def support(self) -> tuple[tuple[int, ...], ...]:
        return tuple(q for q, _ in self._taps)

    @cached_property
    def radius(self) -> float:
        """Largest Euclidean norm over the support indices."""
        return max(math.sqrt(sum(x * x for x in q)) for q in self.coefficients)

    @cached_property
    def _taps(self) -> tuple[tuple[tuple[int, ...], float], ...]:
        return tuple(sorted(self.coefficients.items()))

    def items_sorted(self) -> tuple[tuple[tuple[int, ...], float], ...]:
        return self._taps

    @cached_property
    def tap_rows(self) -> np.ndarray:
        """The sorted taps q as read-only ``(T, d)`` int64 rows, refused with
        IndexOverflow when an entry reaches ``_INDEX_LIMIT``."""
        if max(abs(x) for q in self.coefficients for x in q) >= _INDEX_LIMIT:
            raise IndexOverflow("mask indices do not fit in int64")
        rows = np.array(self.support, dtype=np.int64)
        rows.flags.writeable = False
        return rows


@dataclass(frozen=True)
class Problem:
    """A validated dilation matrix plus mask, ready for analysis."""

    matrix: DilationMatrix
    mask: Mask

    def __post_init__(self) -> None:
        if self.mask.dim != self.matrix.dim:
            raise DimensionMismatch(
                f"mask dimension {self.mask.dim} vs matrix dimension {self.matrix.dim}"
            )
        check = self.matrix.dilation_check
        if not check:
            raise NotDilation(check.reason)

    @property
    def dim(self) -> int:
        return self.matrix.dim

    @property
    def m(self) -> int:
        return self.matrix.m

    # Artefacts of the analysis that depend on nothing but the problem (the
    # selected bound, the candidate points, the transfer matrix), kept by
    # :func:`per_problem` so that one call computes each of them once.
    @cached_property
    def _artefacts(self) -> dict:
        return {}


def per_problem(func):
    """Decorate ``func(problem)`` so that it runs once per Problem instance
    and later calls return the same object.  Errors are raised again on
    every call, never kept.  Only immutable results (frozen dataclasses,
    read-only arrays) may be kept this way, since every caller of the
    problem shares them."""

    @functools.wraps(func)
    def memoized(problem: Problem):
        artefacts = problem._artefacts
        if func not in artefacts:
            artefacts[func] = func(problem)
        return artefacts[func]

    return memoized


# ---------------------------------------------------------------------------
# parsing / serialization
# ---------------------------------------------------------------------------

def _require_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


def _exact_coefficient(exact: Fraction) -> tuple[float, Fraction]:
    try:
        return float(exact), exact
    except OverflowError as exc:
        raise ParseError(
            "coefficient has no finite float value (magnitude above 1.8e308)"
        ) from exc


def _parse_coefficient(value) -> tuple[float, Fraction | None]:
    if isinstance(value, str):
        if not _RATIONAL_RE.match(value):
            raise ParseError(
                f"coefficient string {value!r} is not of the form 'p/q'"
            )
        try:
            return _exact_coefficient(Fraction(value))
        except ValueError as exc:  # past the int-conversion digit limit
            raise ParseError(f"coefficient string: {exc}") from exc
    if isinstance(value, bool):
        raise ParseError(f"coefficient must be a number or 'p/q' string, got {value!r}")
    if isinstance(value, int):
        return _exact_coefficient(Fraction(value))
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ParseError(f"coefficient {value!r} is not finite")
        return value, None
    raise ParseError(f"coefficient must be a number or 'p/q' string, got {value!r}")


def problem_from_data(
    dimension: int,
    matrix_rows,
    coefficients,
) -> Problem:
    """Build a validated Problem from already-decoded document fields."""
    d = _require_int(dimension, "dimension")
    if d < 1 or d > MAX_DIM:
        raise ParseError(f"dimension must be in 1..{MAX_DIM}, got {d}")
    if not isinstance(matrix_rows, list) or len(matrix_rows) != d:
        raise DimensionMismatch(f"matrix must have {d} rows")
    rows = []
    for row in matrix_rows:
        if not isinstance(row, list) or len(row) != d:
            raise DimensionMismatch(f"matrix rows must have {d} entries")
        rows.append(tuple(_require_int(x, "matrix entry") for x in row))
    try:
        int_matrix = IntMatrix(tuple(rows))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc

    if not isinstance(coefficients, list) or not coefficients:
        raise ParseError("coefficients must be a nonempty list")
    coeffs: dict[tuple[int, ...], float] = {}
    rational: dict[tuple[int, ...], Fraction] = {}
    all_rational = True
    for record in coefficients:
        if not isinstance(record, dict):
            raise ParseError(f"coefficient record must be an object, got {record!r}")
        unknown = set(record) - {"q", "c"}
        if unknown:
            raise ParseError(f"unknown coefficient fields: {sorted(unknown)}")
        if "q" not in record or "c" not in record:
            raise ParseError("coefficient records need both 'q' and 'c'")
        qraw = record["q"]
        if not isinstance(qraw, list) or len(qraw) != d:
            raise DimensionMismatch(
                f"index {qraw!r} must be an integer list of length {d}"
            )
        q = tuple(_require_int(x, "index entry") for x in qraw)
        if q in coeffs:
            raise ParseError(f"duplicate coefficient index {list(q)}")
        value, frac = _parse_coefficient(record["c"])
        if frac is not None and frac == 0:
            continue
        if frac is None and value == 0.0:
            continue
        try:  # Mask.radius takes the square root of this exact integer
            float(sum(x * x for x in q))
        except OverflowError as exc:
            raise ParseError("index has a squared norm above 1.8e308") from exc
        coeffs[q] = value
        if frac is None:
            all_rational = False
        else:
            rational[q] = frac
    if not coeffs:
        raise MaskSumViolation("all coefficients are zero; they must sum to 1")
    mask = Mask(d, coeffs, rational if all_rational else None)
    return Problem(DilationMatrix(int_matrix), mask)


def parse_problem(source: str) -> Problem:
    """Parse and validate one problem document."""
    try:
        data = json.loads(source)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # an integer past the int-conversion digit limit, or nesting past
        # the recursion limit
        raise ParseError(f"unreadable JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("document root must be an object")
    unknown = set(data) - {"dimension", "matrix", "coefficients"}
    if unknown:
        raise ParseError(f"unknown document fields: {sorted(unknown)}")
    for field in ("dimension", "matrix", "coefficients"):
        if field not in data:
            raise ParseError(f"missing document field: {field!r}")
    return problem_from_data(data["dimension"], data["matrix"], data["coefficients"])


def serialize_problem(problem: Problem) -> str:
    """Canonical JSON for a problem; parse(serialize(p)) reproduces p."""
    records = []
    for q, value in problem.mask.items_sorted():
        if problem.mask.rational is not None:
            frac = problem.mask.rational[q]
            c = (
                frac.numerator
                if frac.denominator == 1
                else f"{frac.numerator}/{frac.denominator}"
            )
        else:
            c = value
        records.append({"q": list(q), "c": c})
    doc = {
        "dimension": problem.dim,
        "matrix": [list(row) for row in problem.matrix.matrix.rows],
        "coefficients": records,
    }
    return json.dumps(doc, indent=2)


# ---------------------------------------------------------------------------
# residue classes modulo M Z^d
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CosetSums:
    """Coefficient sums over the m residue classes of Z^d modulo M Z^d.

    ``uniform`` reports whether every class sums to 1/m; that condition is
    friendly to cascade convergence but never enforced here.
    """

    representatives: tuple[tuple[int, ...], ...]
    sums: tuple[float, ...]
    uniform: bool


def _hermite_diagonal(rows: tuple[tuple[int, ...], ...]) -> list[int]:
    """|H_ii| for a lower-triangular H = M U with U unimodular, so that
    H Z^d = M Z^d and the product of the entries is m.

    Row by row, Euclid's algorithm on pairs of columns leaves the gcd of the
    row's entries on and right of the diagonal on the diagonal, and zeros to
    its right.
    """
    a = [list(row) for row in rows]
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            while a[i][j]:
                q = a[i][i] // a[i][j]
                for row in a:
                    row[i], row[j] = row[j], row[i] - q * row[j]
    return [abs(a[i][i]) for i in range(len(a))]


def _coset_representatives(matrix: DilationMatrix) -> np.ndarray:
    """The integer points of M [0,1)^d, exactly m class representatives, as
    lexicographically sorted int64 rows.

    Walking Z^d / M Z^d from the origin by unit steps, e_d reaches t_d
    classes before it returns to the origin's, e_(d-1) then reaches t_(d-1)
    cosets of those, and so on down to e_1, where t_i = |H_ii|
    (:func:`_hermite_diagonal`): the box 0 <= r_i < t_i holds one point of
    each of the m classes.  Each r moves into M [0,1)^d as
    p = M frac(M^-1 r) = M u / m in integers, where u = s adj(M) r mod m
    is r's residue key (:meth:`DilationMatrix.residues`) times s, the sign
    of det M.
    """
    m = matrix.m
    rows = matrix.matrix.rows
    # |M u| < m times M's largest absolute row sum
    if max(sum(map(abs, row)) for row in rows) * m >= 2**63:
        raise IndexOverflow("residue representatives do not fit in int64")
    if m > _ENUMERATION_CAP:
        raise EnumerationTooLarge(
            f"{m} residue classes exceed the cap of {_ENUMERATION_CAP}"
        )
    sign = 1 if matrix.determinant > 0 else -1
    box = np.indices(_hermite_diagonal(rows), dtype=np.int64).reshape(matrix.dim, -1).T
    keys = sign * matrix.residues(1, box) % m
    reps = keys @ np.asarray(rows, dtype=np.int64).T // m
    return reps[np.lexsort(reps.T[::-1])]


def coset_sum_report(problem: Problem) -> CosetSums:
    """Per-residue-class coefficient sums, decided in exact arithmetic.

    Two indices are congruent iff adj(M) (q - q') = 0 (mod m), an integer
    test on residue rows (:meth:`DilationMatrix.residues`), so no digit-set
    enumeration is involved.  Each class adds its coefficients in sorted
    index order.
    """
    matrix = problem.matrix
    reps = _coset_representatives(matrix)
    classes = {
        key: i for i, key in enumerate(map(tuple, matrix.residues(1, reps).tolist()))
    }
    taps = problem.mask.items_sorted()
    # q = q mod m (mod M Z^d), since m Z^d lies in M Z^d; this keeps every
    # index, however large, inside int64
    reduced = [[x % matrix.m for x in q] for q, _ in taps]
    tap_keys = matrix.residues(1, np.asarray(reduced, dtype=np.int64))
    try:
        which = [classes[key] for key in map(tuple, tap_keys.tolist())]
    except KeyError as exc:
        raise ArithmeticError(f"an index matched no residue class: {exc}") from exc
    # bincount adds each class's weights in input order, starting from 0.0
    sums = np.bincount(which, weights=[c for _, c in taps], minlength=len(reps))
    target = 1.0 / problem.m
    uniform = all(abs(s - target) <= COSET_UNIFORM_TOL for s in sums.tolist())
    return CosetSums(tuple(map(tuple, reps.tolist())), tuple(sums.tolist()), uniform)
