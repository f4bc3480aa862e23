"""Exact integer and rational arithmetic the benchmark checks against.

Nothing here calls ``refinable``: the correctness checks must not trust the
code they measure.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Sequence

Vector = tuple[int, ...]


def matmul_vec(matrix: Sequence[Sequence[int]], vec: Sequence[int]) -> Vector:
    return tuple(sum(a * b for a, b in zip(row, vec)) for row in matrix)


def matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def matpow(matrix: Sequence[Sequence[int]], n: int) -> list[list[int]]:
    d = len(matrix)
    result = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(n):
        result = matmul(result, matrix)
    return result


def inverse(matrix: Sequence[Sequence[int | Fraction]]) -> list[list[Fraction]]:
    """Gauss-Jordan inverse over the rationals."""
    n = len(matrix)
    rows = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(matrix)
    ]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [x / lead for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def determinant(matrix: Sequence[Sequence[int]]) -> int:
    d = len(matrix)
    if d == 1:
        return int(matrix[0][0])
    return sum(
        (-1) ** j * matrix[0][j] * determinant([row[:j] + row[j + 1 :] for row in matrix[1:]])
        for j in range(d)
    )


def adjugate(matrix: Sequence[Sequence[int]]) -> list[list[int]]:
    """adj(M) = det(M) M^-1, an integer matrix."""
    det = determinant(matrix)
    return [[int(x * det) for x in row] for row in inverse(matrix)]


def complete_residues(matrix: Sequence[Sequence[int]]) -> list[Vector]:
    """The integer points of M [0,1)^d: one representative of each of the
    m = |det M| classes of Z^d modulo M Z^d, in lexicographic order."""
    d = len(matrix)
    inv = inverse(matrix)
    lo = [sum(min(x, 0) for x in row) for row in matrix]
    hi = [sum(max(x, 0) for x in row) for row in matrix]
    reps = []
    for p in product(*[range(a, b + 1) for a, b in zip(lo, hi)]):
        pre = [sum(inv[i][j] * p[j] for j in range(d)) for i in range(d)]
        if all(0 <= x < 1 for x in pre):
            reps.append(tuple(p))
    if len(reps) != abs(determinant(matrix)):
        raise ArithmeticError(f"found {len(reps)} residues for {matrix}")
    return reps


def shortest_residues(matrix: Sequence[Sequence[int]]) -> list[Vector]:
    """One representative of each class of Z^d modulo M Z^d, each of least
    Euclidean norm in its class (the lexicographically first of equally
    short ones), in lexicographic order."""
    key = ResidueKey(matrix, 1)
    reach = max(abs(x) for rep in complete_residues(matrix) for x in rep)
    shortest: dict[Vector, tuple[int, Vector]] = {}
    for p in product(range(-reach, reach + 1), repeat=len(matrix)):
        candidate = (sum(x * x for x in p), p)
        shortest[key(p)] = min(shortest.get(key(p), candidate), candidate)
    return sorted(p for _, p in shortest.values())


class ResidueKey:
    """Classes of Z^d modulo M^j Z^d by integer arithmetic only.

    k and k' are congruent iff M^-j (k - k') is integral, i.e. iff
    adj(M^j) (k - k') is divisible by det(M^j); so ``adj(M^j) k mod det``
    names the class of k.
    """

    def __init__(self, matrix: Sequence[Sequence[int]], level: int):
        power = matpow(matrix, level)
        self.adj = adjugate(power) if level else None
        self.modulus = abs(determinant(power))

    def __call__(self, index: Sequence[int]) -> Vector:
        if self.adj is None:
            return ()
        return tuple(x % self.modulus for x in matmul_vec(self.adj, index))


def null_space(rows: list[dict[int, Fraction]], n: int) -> list[list[Fraction]]:
    """Exact basis of {x : A x = 0} for a sparse matrix given by its rows
    (column -> value dicts with no zero entries), by Gauss-Jordan elimination
    with sparsest-row pivoting."""
    pending = [dict(r) for r in rows if r]
    pivots: dict[int, dict[int, Fraction]] = {}
    while pending:
        pending.sort(key=len)
        row = pending.pop(0)
        if not row:
            continue
        col = min(row, key=lambda c: (c in pivots, c))
        lead = row[col]
        row = {c: v / lead for c, v in row.items()}
        # eliminate col from every other row
        for other in (*pending, *pivots.values()):
            f = other.get(col)
            if f is None:
                continue
            for c, v in row.items():
                x = other.get(c, 0) - f * v
                if x:
                    other[c] = x
                else:
                    other.pop(c, None)
        pending = [r for r in pending if r]
        pivots[col] = row
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        x = [Fraction(0)] * n
        x[f] = Fraction(1)
        for col, row in pivots.items():
            x[col] = -row.get(f, Fraction(0))
        basis.append(x)
    return basis


def attractor_points(
    matrix: Sequence[Sequence[int]], digits: Sequence[Vector], max_len: int, limit: int
) -> list[tuple[Fraction, ...]]:
    """Fixed points of compositions of x -> M^-1 (x + q), q in ``digits``.

    For the word q_1 .. q_L the composition is x -> M^-L x + sum_i M^-i q_i,
    whose fixed point is (M^L - I)^-1 sum_i M^(L-i) q_i.  Every such point
    lies in the attractor of the maps.  Words of length 1..max_len are used,
    at most ``limit`` of them, in lexicographic order per length.
    """
    d = len(matrix)
    points = []
    for length in range(1, max_len + 1):
        power = matpow(matrix, length)
        shifted = inverse([[power[i][j] - int(i == j) for j in range(d)] for i in range(d)])
        powers = [matpow(matrix, length - i) for i in range(1, length + 1)]
        for word in product(digits, repeat=length):
            if len(points) >= limit:
                return points
            total = [0] * d
            for p, q in zip(powers, word):
                total = [a + b for a, b in zip(total, matmul_vec(p, q))]
            points.append(tuple(sum(r[j] * total[j] for j in range(d)) for r in shifted))
    return points
