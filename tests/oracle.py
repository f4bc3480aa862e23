"""Independent oracles the tests compare the library against, bit for bit.

For inverse powers: a ``Fraction`` Gauss-Jordan inverse and rational matrix
products, with every float derived from them by one rounding per entry.  The
library keeps M^-n as the integer pair (adj(M)^n, det(M)^n); these helpers
reach the same numbers by a different road.

For sample dumps: the per-row layout the column-wise writer must reproduce.
"""

import math
from fractions import Fraction

import numpy as np

from refinable.cascade import sample_header
from refinable.errors import SingularMatrix


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
