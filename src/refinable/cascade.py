"""Cascade iteration on refinement lattices, plus frequency-domain helpers.

Level-n samples live on the lattice M^-n Z^d and are stored by integer
index: G_n(k) represents F_n(M^-n k).  On that lattice the refinement
recurrence

    G_n(k) = m * sum_q c_q G_{n-1}(k - M^(n-1) q)

is an exact identity, so no interpolation between lattices ever happens.
The same kernel drives both the cascade iteration here and the value
refinement in :mod:`refinable.pointwise`.
"""

from __future__ import annotations

import cmath
import enum
import itertools
import math
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

import numpy as np

from .errors import (
    DomainTooSmall,
    IndexOverflow,
    NonFiniteArithmetic,
    NormNotContractive,
)
from .linalg import DilationMatrix, RationalMatrix, inverse
from .mask import Mask, Problem
from .bounds import finite_level_ball

DEFAULT_SUPPORT_EPS = 1e-12
DEFAULT_LEVEL_CAP = 12
_INDEX_LIMIT = 2**62


# ---------------------------------------------------------------------------
# integer boxes and sampled functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntBox:
    """Axis-aligned box of integer lattice indices, inclusive on both ends."""

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi):
            raise ValueError("lo and hi must have equal length")
        if any(a > b for a, b in zip(self.lo, self.hi)):
            raise ValueError("box must be nonempty")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @staticmethod
    def hull(indices: np.ndarray) -> "IntBox":
        if len(indices) == 0:
            d = indices.shape[1] if indices.ndim == 2 else 1
            return IntBox((0,) * d, (0,) * d)
        lo = tuple(int(x) for x in indices.min(axis=0))
        hi = tuple(int(x) for x in indices.max(axis=0))
        return IntBox(lo, hi)

    @staticmethod
    def centered(half_widths: Sequence[int]) -> "IntBox":
        return IntBox(
            tuple(-int(h) for h in half_widths),
            tuple(int(h) for h in half_widths),
        )

    def union(self, other: "IntBox") -> "IntBox":
        return IntBox(
            tuple(min(a, b) for a, b in zip(self.lo, other.lo)),
            tuple(max(a, b) for a, b in zip(self.hi, other.hi)),
        )

    def contains_indices(self, indices: np.ndarray) -> np.ndarray:
        lo = np.asarray(self.lo, dtype=np.int64)
        hi = np.asarray(self.hi, dtype=np.int64)
        return np.all((indices >= lo) & (indices <= hi), axis=1)


class InitialFunctionKind(enum.Enum):
    """Starting functions for the cascade; both are piecewise continuous,
    compactly supported, and sum to one over integer translates."""

    INDICATOR_BOX = "box"
    TENSOR_HAT = "hat"


def initial_support_radius(kind: InitialFunctionKind, dim: int) -> float:
    """Radius of a ball containing the initial function's support."""
    if kind is InitialFunctionKind.INDICATOR_BOX:
        return 0.5 * math.sqrt(dim)
    return float(math.sqrt(dim))


@dataclass(frozen=True)
class SampledFunction:
    """Values of a level-n iterate on the lattice M^-n Z^d, keyed by the
    integer index k; indices are kept lexicographically sorted."""

    level: int
    indices: np.ndarray
    values: np.ndarray
    domain_box: IntBox

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ValueError("level must be nonnegative")
        if self.indices.ndim != 2 or len(self.indices) != len(self.values):
            raise ValueError("indices and values must align")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")
        if len(self.indices) and not bool(
            np.all(self.domain_box.contains_indices(self.indices))
        ):
            raise ValueError("stored indices must lie inside the domain box")

    @property
    def dim(self) -> int:
        return self.indices.shape[1]

    def as_dict(self) -> dict[tuple[int, ...], float]:
        return dict(zip(map(tuple, self.indices.tolist()), self.values.tolist()))


def initial_samples(
    kind: InitialFunctionKind,
    problem: Problem,
    box: IntBox | None = None,
) -> SampledFunction:
    """Level-0 samples of the initial function at integer points.

    Both starting functions vanish at every nonzero integer and equal one at
    the origin, so the sample set is a single unit spike; the optional box
    only widens the stored domain.
    """
    d = problem.dim
    indices = np.zeros((1, d), dtype=np.int64)
    values = np.ones(1)
    domain = IntBox((0,) * d, (0,) * d)
    if box is not None:
        domain = domain.union(box)
    return SampledFunction(0, indices, values, domain)


# ---------------------------------------------------------------------------
# the shared refinement kernel
# ---------------------------------------------------------------------------

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
    The merge keys each index by its row-major position in the hull of the
    scattered indices, so one 1-D unique replaces a sort of rows.  This
    function is the single kernel shared by :func:`cascade_step` and value
    refinement.
    """
    if step < 1:
        raise ValueError("step must be positive")
    power = problem.matrix.power(step - 1)
    if max(abs(x) for row in power.rows for x in row) >= _INDEX_LIMIT:
        raise IndexOverflow(
            f"M^{step - 1} has entries too large for int64 lattice indices"
        )
    d = problem.dim
    if len(indices) == 0:
        return np.zeros((0, d), dtype=np.int64), np.zeros(0)
    taps = problem.mask.items_sorted()
    shifts = [power.apply(q) for q, _ in taps]
    # the exact hull of indices + shifts, in Python ints so nothing can wrap
    first = [int(x) for x in indices.min(axis=0)]
    last = [int(x) for x in indices.max(axis=0)]
    low = [min(s[i] for s in shifts) for i in range(d)]
    high = [max(s[i] for s in shifts) for i in range(d)]
    lo = [a + b for a, b in zip(first, low)]
    hi = [a + b for a, b in zip(last, high)]
    widths = [b - a + 1 for a, b in zip(lo, hi)]
    if max(map(abs, lo + hi)) >= _INDEX_LIMIT or math.prod(widths) >= 2**63:
        raise IndexOverflow(f"level-{step} lattice indices do not fit in int64")
    strides = [math.prod(widths[i + 1 :]) for i in range(d)]
    # key(k + shift) = key of k relative to the input hull + key of the shift
    # relative to the lowest shift; both parts are nonnegative
    base = (indices - np.asarray(first, dtype=np.int64)) @ np.asarray(strides, dtype=np.int64)
    m = float(problem.m)
    keys = np.concatenate([
        base + sum((s[i] - low[i]) * strides[i] for i in range(d)) for s in shifts
    ])
    scaled = np.concatenate([values * (m * coeff) for _, coeff in taps])
    unique, inv = np.unique(keys, return_inverse=True)
    sums = np.bincount(inv, weights=scaled, minlength=len(unique))
    if not np.all(np.isfinite(sums)):
        raise NonFiniteArithmetic(f"level-{step} values overflow to inf or NaN")
    out = np.empty((len(unique), d), dtype=np.int64)
    rest = unique
    for i in range(d):
        out[:, i], rest = np.divmod(rest, strides[i])
        out[:, i] += lo[i]
    return out, sums


def cascade_step(
    problem: Problem,
    sampled: SampledFunction,
    domain_box: IntBox | None = None,
) -> SampledFunction:
    """Advance the cascade one level.

    Without an explicit ``domain_box`` the output box is the exact hull of
    the reachable indices.  With one, any nonzero sample falling outside it
    raises DomainTooSmall instead of being truncated silently; indices whose
    value is exactly zero may be dropped because the recurrence cannot
    create mass outside the reachable set.
    """
    indices, values = refinement_step(
        problem, sampled.indices, sampled.values, sampled.level + 1
    )
    if domain_box is None:
        box = IntBox.hull(indices)
    else:
        inside = domain_box.contains_indices(indices)
        if np.any(values[~inside] != 0.0):
            worst = np.max(np.abs(values[~inside]))
            raise DomainTooSmall(
                f"nonzero sample (|value| up to {worst:.3g}) outside the "
                f"target box; enlarge the domain"
            )
        indices, values = indices[inside], values[inside]
        box = domain_box
    return SampledFunction(sampled.level + 1, indices, values, box)


def level_domain_box(problem: Problem, kind: InitialFunctionKind, level: int) -> IntBox:
    """Integer box certified to contain the level-n support: the image under
    M^n of the finite-level support ball, rounded outward."""
    if level == 0:
        return IntBox((0,) * problem.dim, (0,) * problem.dim)
    radius = finite_level_ball(
        problem, initial_support_radius(kind, problem.dim), level
    )
    power = problem.matrix.power(level).as_array()
    halves = [
        int(math.ceil(radius * float(np.linalg.norm(power[i])) + 1e-9))
        for i in range(problem.dim)
    ]
    return IntBox.centered(halves)


def run_cascade(
    problem: Problem,
    kind: InitialFunctionKind = InitialFunctionKind.INDICATOR_BOX,
    levels: int = 6,
    boxes: str = "auto",
) -> list[SampledFunction]:
    """Run the cascade and return the iterates for levels 0..levels.

    ``boxes="auto"`` tracks the exact reachable support; ``boxes="bound"``
    precomputes every domain box from the finite-level ball radii (requires
    ||M^-1|| < 1) so that the no-truncation guarantee is exercised.
    """
    if levels < 0:
        raise ValueError("levels must be nonnegative")
    if boxes not in ("auto", "bound"):
        raise ValueError("boxes must be 'auto' or 'bound'")
    if boxes == "bound" and problem.matrix.inverse_norm >= 1.0:
        raise NormNotContractive(
            "bound-derived domain boxes need ||M^-1|| < 1; use boxes='auto'"
        )
    result = [initial_samples(kind, problem)]
    for level in range(1, levels + 1):
        box = level_domain_box(problem, kind, level) if boxes == "bound" else None
        result.append(cascade_step(problem, result[-1], box))
    return result


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RealBox:
    """Axis-aligned real box given by per-coordinate extents."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    @property
    def dim(self) -> int:
        return len(self.lo)


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
    inv_power = problem.matrix.inverse_power_array(sampled.level)
    coords = sampled.indices[keep].astype(float) @ inv_power.T
    return RealBox(
        tuple(float(x) for x in coords.min(axis=0)),
        tuple(float(x) for x in coords.max(axis=0)),
    )


def discrete_mass(problem: Problem, sampled: SampledFunction) -> float:
    """Riemann-sum mass m^-n sum_k G_n(k); invariant under cascade steps."""
    return float(problem.m) ** (-sampled.level) * float(np.sum(sampled.values))


# ---------------------------------------------------------------------------
# frequency domain
# ---------------------------------------------------------------------------

def m0_eval(mask: Mask, u: Sequence[float]) -> complex:
    """The 1-periodic symbol m0(u) = sum_q c_q e^{-2 pi i (q, u)}."""
    uvec = tuple(float(x) for x in u)
    if len(uvec) != mask.dim:
        raise ValueError(f"u must have dimension {mask.dim}")
    total = 0.0 + 0.0j
    for q, coeff in mask.items_sorted():
        phase = -2.0 * math.pi * sum(qi * ui for qi, ui in zip(q, uvec))
        total += coeff * cmath.exp(1j * phase)
    return total


def fourier_truncated_product(
    problem: Problem, u: Sequence[float], terms: int
) -> complex:
    """Truncation prod_{j=1..terms} m0((M^T)^-j u) of the infinite product
    defining the Fourier transform of the limit function; the matrix powers
    are exact rationals rounded once per factor."""
    if terms < 1:
        raise ValueError("terms must be positive")
    uvec = np.asarray([float(x) for x in u])
    inv_t = inverse(problem.matrix.matrix.transpose())
    acc_power: RationalMatrix = inv_t
    result = 1.0 + 0.0j
    for j in range(1, terms + 1):
        uj = acc_power.as_array() @ uvec
        result *= m0_eval(problem.mask, uj)
        if j < terms:
            acc_power = acc_power.matmul(inv_t)
    return result


# ---------------------------------------------------------------------------
# delimited sample dumps
# ---------------------------------------------------------------------------

def sample_header(dim: int) -> str:
    ks = "\t".join(f"k{i}" for i in range(dim))
    xs = "\t".join(f"x{i}" for i in range(dim))
    return f"level\t{ks}\t{xs}\tvalue"


# Rows formatted per write.  Larger chunks are no faster, and from about 4096
# rows on their transient strings raise the process's peak memory.
_WRITE_CHUNK = 1024


def write_rows(
    stream: IO[str],
    matrix: DilationMatrix,
    levels: Iterable[tuple[int, np.ndarray, np.ndarray]],
) -> None:
    """Write ``(level, indices, values)`` blocks as delimited rows (level,
    index, coordinates, value) under a mandatory header.

    The coordinates of a level are x = k (M^-n)^T, computed once for the
    whole level; floats use shortest round-trip formatting.  Columns are
    formatted whole and rows joined a chunk at a time, so no level's text is
    held in memory at once.
    """
    stream.write(sample_header(matrix.dim) + "\n")
    for level, indices, values in levels:
        coords = indices.astype(float) @ matrix.inverse_power_array(level).T
        prefix = itertools.repeat(str(level))
        for start in range(0, len(values), _WRITE_CHUNK):
            part = slice(start, start + _WRITE_CHUNK)
            columns = [map(str, column.tolist()) for column in indices[part].T]
            columns += [map(repr, column.tolist()) for column in coords[part].T]
            columns.append(map(repr, values[part].tolist()))
            stream.write("\n".join(map("\t".join, zip(prefix, *columns))) + "\n")


def write_samples(
    problem: Problem,
    sampled_functions: Iterable[SampledFunction],
    stream: IO[str],
) -> None:
    """Dump one or more cascade iterates in the shared delimited layout."""
    funcs = sorted(sampled_functions, key=lambda f: f.level)
    write_rows(stream, problem.matrix, ((f.level, f.indices, f.values) for f in funcs))


def read_rows(stream: IO[str]) -> list[tuple[int, tuple[int, ...], tuple[float, ...], float]]:
    """Parse a delimited dump back into (level, index, coords, value) rows."""
    header = stream.readline().rstrip("\n")
    fields = header.split("\t")
    if not fields or fields[0] != "level" or fields[-1] != "value":
        raise ValueError("missing or malformed header row")
    dim = (len(fields) - 2) // 2
    rows = []
    for line in stream:
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        level = int(parts[0])
        index = tuple(int(x) for x in parts[1 : 1 + dim])
        coords = tuple(float(x) for x in parts[1 + dim : 1 + 2 * dim])
        value = float(parts[1 + 2 * dim])
        rows.append((level, index, coords, value))
    return rows
