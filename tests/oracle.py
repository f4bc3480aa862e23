"""Independent oracles the tests compare the library against, bit for bit.

For inverse powers: a ``Fraction`` Gauss-Jordan inverse and rational matrix
products, with every float derived from them by one rounding per entry.  The
library keeps M^-n as the integer pair (adj(M)^n, det(M)^n); these helpers
reach the same numbers by a different road.

For sample dumps: the per-row layout the column-wise writer must reproduce.

For value refinement: the dict-based refinement that stores every lattice
point of the bound's box at every level, with 0.0 where the kernel produced
nothing.  The library stores only the reachable rows and the images M k, so
its rows are a subset of the oracle's, with the same bits.
"""

import math
from fractions import Fraction

import numpy as np

from refinable import candidate_points, lattice_points_in_bound
from refinable.bounds import best_bound
from refinable.cascade import refinement_step, sample_header
from refinable.errors import DomainTooSmall, SingularMatrix
from refinable.pointwise import _ESCAPE_RTOL


def fraction_inverse(matrix):
    """Exact rational inverse of an IntMatrix, as rows of Fractions; raises
    SingularMatrix when det = 0."""
    n = matrix.dim
    a = [[Fraction(x) for x in row] for row in matrix.rows]
    inv = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot_row is None:
            raise SingularMatrix("matrix has determinant zero")
        a[col], a[pivot_row] = a[pivot_row], a[col]
        inv[col], inv[pivot_row] = inv[pivot_row], inv[col]
        pivot = a[col][col]
        a[col] = [x / pivot for x in a[col]]
        inv[col] = [x / pivot for x in inv[col]]
        for r in range(n):
            if r == col or a[r][col] == 0:
                continue
            factor = a[r][col]
            a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
            inv[r] = [x - factor * y for x, y in zip(inv[r], inv[col])]
    return [list(row) for row in inv]


def fraction_matmul(x, y):
    cols = list(zip(*y))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in x]


def fraction_inverse_power(matrix, n):
    """Exact M^-n (n >= 1) as rows of Fractions."""
    inv = fraction_inverse(matrix)
    result = inv
    for _ in range(n - 1):
        result = fraction_matmul(result, inv)
    return result


def as_floats(rows):
    return np.array([[float(x) for x in row] for row in rows], dtype=float)


def fraction_norm(rows):
    """Operator norm from the exact rational Gram matrix, rounded once per
    entry, then a symmetric eigensolve."""
    n = len(rows)
    gram = np.empty((n, n), dtype=float)
    for i in range(n):
        for j in range(i, n):
            gram[i, j] = gram[j, i] = float(sum(a * b for a, b in zip(rows[i], rows[j])))
    return math.sqrt(max(np.linalg.eigvalsh(gram).max(), 0.0))


def general_ball_radius(problem, cap=64):
    """Radius Q (||M^-1|| + ... + ||M^-k||) / (1 - ||M^-k||) for the first k
    with ||M^-k|| < 1, or None when no k up to ``cap`` qualifies."""
    norms = []
    for k in range(1, cap + 1):
        norms.append(fraction_norm(fraction_inverse_power(problem.matrix.matrix, k)))
        if norms[-1] < 1.0:
            return problem.mask.radius * math.fsum(norms) / (1.0 - norms[-1])
    return None


def fourier_product(problem, u, terms, m0_eval):
    """prod_{j=1..terms} m0((M^T)^-j u) with (M^T)^-1 inverted in Fractions."""
    transpose = type(problem.matrix.matrix)(tuple(zip(*problem.matrix.matrix.rows)))
    inv_t = fraction_inverse(transpose)
    uvec = np.asarray([float(x) for x in u])
    power = inv_t
    result = 1.0 + 0.0j
    for j in range(1, terms + 1):
        result *= m0_eval(problem.mask, as_floats(power) @ uvec)
        if j < terms:
            power = fraction_matmul(power, inv_t)
    return result


def per_row_reference(matrix, blocks):
    """The per-row f-string layout the writer must reproduce byte for byte."""
    lines = [sample_header(matrix.dim)]
    for level, indices, values in blocks:
        coords = indices.astype(float) @ matrix.inverse_power_array(level).T
        for idx, xrow, value in zip(indices, coords, values):
            ks = "\t".join(str(int(k)) for k in idx)
            xs = "\t".join(repr(float(x)) for x in xrow)
            lines.append(f"{level}\t{ks}\t{xs}\t{float(value)!r}")
    return "\n".join(lines) + "\n"


def reference_refine(problem, level0, levels):
    """Refinement with every level rebuilt as a dict keyed by index tuples."""
    points = candidate_points(problem)
    point_set = set(points)
    for key in level0:
        if tuple(key) not in point_set:
            raise DomainTooSmall("seed outside the candidate set")
    bound = best_bound(problem)
    seed = {p: 0.0 for p in points}
    seed.update({tuple(k): float(v) for k, v in level0.items()})
    table = {0: seed}
    indices = np.asarray(points, dtype=np.int64)
    values = np.asarray([seed[p] for p in points])
    for level in range(1, levels + 1):
        indices, values = refinement_step(problem, indices, values, level)
        coords = indices.astype(float) @ problem.matrix.inverse_power_array(level).T
        inside = bound.contains_many(coords)
        escaped = np.abs(values[~inside])
        floor = _ESCAPE_RTOL * max(1.0, float(np.abs(values).max(initial=0.0)))
        if escaped.size and float(escaped.max()) > floor:
            raise DomainTooSmall("escaped")
        stored = {
            tuple(int(x) for x in idx): float(v)
            for idx, v in zip(indices[inside], values[inside])
        }
        targets = [
            tuple(row) for row in lattice_points_in_bound(problem, bound, level).tolist()
        ]
        level_values = {p: stored.get(p, 0.0) for p in targets}
        table[level] = level_values
        indices = np.asarray(targets, dtype=np.int64)
        values = np.asarray([level_values[p] for p in targets])
    return table
