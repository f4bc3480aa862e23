"""Independent oracles the tests compare the library against, bit for bit.

For lattice images: M k as a Python-int matrix-vector product.

For powers and inverse powers: a ``Fraction`` Gauss-Jordan inverse and
rational matrix products, with every float derived from them by one
rounding per entry.  The library memoizes M^n and keeps M^-n as the integer
pair (adj(M)^n, det(M)^n); these helpers reach the same numbers by a
different road.

For sample dumps: the per-row layout the column-wise writer must reproduce.

For value refinement: the dict-based refinement that stores every lattice
point of the bound's box at every level, with 0.0 where the kernel produced
nothing.  The library stores only the reachable rows and the images M k, so
its rows are a subset of the oracle's, with the same bits.

For the determinant and the adjugate: Bareiss fraction-free elimination
and the cofactor expansion, with one Bareiss determinant per minor.  The
library reads both off its Faddeev-LeVerrier recursion instead.

For the spectrum: the Faddeev-LeVerrier recursion, Yun's squarefree split
and the root finder carried out in ``Fraction`` arithmetic, with each factor
made monic.  The library runs the same algorithms on integer polynomials, so
its characteristic polynomial and eigenvalues must equal these bit for bit.
"""

import math
from fractions import Fraction

import numpy as np

from refinable import candidate_points, lattice_points_in_bound
from refinable.bounds import best_bound
from refinable.cascade import SampledFunction, refinement_step, sample_header
from refinable.errors import (
    DomainTooSmall,
    NonFiniteArithmetic,
    RootFindingFailure,
    SingularMatrix,
)
from refinable.linalg import (
    NEWTON_MAX_ITER,
    REALNESS_RTOL,
    IntMatrix,
    Spectrum,
    _poly_eval,
)
from refinable.pointwise import _ESCAPE_RTOL


def apply(matrix, vector):
    """M k in Python ints, for an IntMatrix M and an integer vector k."""
    return tuple(sum(a * int(v) for a, v in zip(row, vector)) for row in matrix.rows)


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


def fraction_power(matrix, n):
    """Exact M^n (n >= 0) as rows of Fractions: n products from the
    identity."""
    d = matrix.dim
    rows = [[Fraction(x) for x in row] for row in matrix.rows]
    result = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    for _ in range(n):
        result = fraction_matmul(result, rows)
    return result


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


def seed_from(values):
    """The level-0 SampledFunction with the rows and values of a dict keyed
    by index tuples, in the dict's order."""
    indices = np.asarray(list(values), dtype=np.int64).reshape(len(values), -1)
    return SampledFunction(0, indices, np.asarray(list(values.values()), dtype=float))


def reference_refine(problem, level0, levels):
    """Refinement with every level rebuilt as a dict keyed by index tuples."""
    points = tuple(map(tuple, candidate_points(problem).tolist()))
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


def determinant(matrix: IntMatrix) -> int:
    """Exact integer determinant via Bareiss fraction-free elimination."""
    a = [list(row) for row in matrix.rows]
    n = matrix.dim
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def adjugate(matrix: IntMatrix) -> IntMatrix:
    """Exact adjugate from cofactors: adj(M)[i][j] is the (j, i) cofactor."""
    n = matrix.dim
    if n == 1:
        return IntMatrix(((1,),))

    def minor(i: int, j: int) -> IntMatrix:
        return IntMatrix(tuple(
            tuple(x for c, x in enumerate(row) if c != j)
            for r, row in enumerate(matrix.rows) if r != i
        ))

    return IntMatrix(tuple(
        tuple((-1) ** (i + j) * determinant(minor(j, i)) for j in range(n))
        for i in range(n)
    ))


def characteristic_polynomial(matrix: IntMatrix) -> tuple[int, ...]:
    """Exact monic characteristic polynomial, highest degree first, via the
    Faddeev-LeVerrier recursion carried out in rational arithmetic."""
    d = matrix.dim
    a = [[Fraction(x) for x in row] for row in matrix.rows]

    def trace(m):
        return sum(m[i][i] for i in range(d))

    def matmul(x, y):
        return [
            [sum(x[i][k] * y[k][j] for k in range(d)) for j in range(d)]
            for i in range(d)
        ]

    coeffs = [Fraction(1)]
    mk = [row[:] for row in a]
    c = -trace(mk)
    coeffs.append(c)
    for k in range(2, d + 1):
        shifted = [
            [mk[i][j] + (c if i == j else 0) for j in range(d)] for i in range(d)
        ]
        mk = matmul(a, shifted)
        c = -trace(mk) / k
        coeffs.append(c)
    out = []
    for coeff in coeffs:
        if coeff.denominator != 1:
            raise ArithmeticError("characteristic polynomial must be integral")
        out.append(int(coeff))
    return tuple(out)


def _poly_derivative(p: list[Fraction]) -> list[Fraction]:
    n = len(p) - 1
    return [c * (n - i) for i, c in enumerate(p[:-1])]


def _poly_trim(p: list[Fraction]) -> list[Fraction]:
    i = 0
    while i < len(p) - 1 and p[i] == 0:
        i += 1
    return p[i:]


def _poly_divmod(num: list[Fraction], den: list[Fraction]):
    num = num[:]
    quot: list[Fraction] = []
    dn = len(den) - 1
    lead = den[0]
    while len(num) - 1 >= dn:
        factor = num[0] / lead
        quot.append(factor)
        for i in range(len(den)):
            num[i] -= factor * den[i]
        num.pop(0)
    rem = _poly_trim(num) if num else [Fraction(0)]
    return (quot if quot else [Fraction(0)]), rem


def _poly_monic(p: list[Fraction]) -> list[Fraction]:
    lead = p[0]
    return [c / lead for c in p]


def _poly_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = _poly_trim(a[:]), _poly_trim(b[:])
    while not (len(b) == 1 and b[0] == 0):
        _, r = _poly_divmod(a, b)
        a, b = b, r
    return _poly_monic(a)


def _squarefree_factors(p: list[Fraction]) -> list[tuple[list[Fraction], int]]:
    """Yun's algorithm: exact squarefree decomposition p = prod f_i^i."""
    dp = _poly_derivative(p)
    g = _poly_gcd(p, dp)
    if len(g) == 1:
        return [(_poly_monic(p), 1)]
    w, _ = _poly_divmod(p, g)
    y, _ = _poly_divmod(dp, g)
    # z = y - w', with the shorter coefficient list left-padded
    dw = _poly_derivative(w)
    pad = len(y) - len(dw)
    z = _poly_trim([y[i] - (dw[i - pad] if i >= pad else Fraction(0)) for i in range(len(y))])
    factors = []
    i = 1
    while len(w) > 1:
        gi = _poly_gcd(w, z)
        if len(gi) > 1:
            factors.append((gi, i))
        w, _ = _poly_divmod(w, gi)
        y, _ = _poly_divmod(z, gi)
        dw = _poly_derivative(w)
        pad = len(y) - len(dw)
        z = _poly_trim([y[i2] - (dw[i2 - pad] if i2 >= pad else Fraction(0)) for i2 in range(len(y))])
        i += 1
    return factors


def _exact_value(coeffs: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in coeffs:
        acc = acc * x + c
    return acc


def _roots_of_squarefree(coeffs: list[Fraction]) -> list[complex]:
    """Roots of a squarefree polynomial: companion-matrix start values
    polished by Newton iteration against the exact coefficients.

    Near-integer roots are confirmed by exact evaluation and snapped, so
    integer eigenvalues come out exactly (for a monic integer polynomial
    every rational root is an integer).
    """
    cf = [float(c) for c in coeffs]
    if len(cf) == 2:
        root = -coeffs[1] / coeffs[0]
        return [complex(float(root))]
    try:
        start = np.roots(cf)
    except np.linalg.LinAlgError as exc:
        raise RootFindingFailure(str(exc)) from exc
    dcf = [float(c) for c in _poly_derivative(coeffs)]
    roots = []
    for z0 in start:
        z = complex(z0)
        converged = False
        for _ in range(NEWTON_MAX_ITER):
            fz = _poly_eval(cf, z)
            # backward-error bound: |f(z)| against the evaluation scale
            scale = sum(abs(c) * max(1.0, abs(z)) ** (len(cf) - 1 - i) for i, c in enumerate(cf))
            if abs(fz) <= 1e-14 * max(scale, 1.0):
                converged = True
                break
            dfz = _poly_eval(dcf, z)
            if dfz == 0:
                break
            z = z - fz / dfz
        if not converged:
            fz = _poly_eval(cf, z)
            scale = sum(abs(c) * max(1.0, abs(z)) ** (len(cf) - 1 - i) for i, c in enumerate(cf))
            if abs(fz) > 1e-10 * max(scale, 1.0):
                raise RootFindingFailure(
                    f"Newton polish did not converge within {NEWTON_MAX_ITER} iterations"
                )
        if abs(z.imag) <= 1e-8 * max(1.0, abs(z)):
            nearest = Fraction(round(z.real))
            if (
                abs(z.real - nearest) <= 1e-6 * max(1.0, abs(z))
                and _exact_value(coeffs, nearest) == 0
            ):
                z = complex(float(nearest))
        roots.append(z)
    return roots


def eigenvalues(matrix: IntMatrix) -> Spectrum:
    """All complex roots of the exact characteristic polynomial.

    The polynomial is made squarefree first (exact gcd arithmetic), so
    multiple eigenvalues are found with their exact multiplicities and do
    not suffer the usual accuracy collapse of clustered roots.  Raises
    NonFiniteArithmetic when the polynomial or its roots overflow a float.
    """
    coeffs = [Fraction(c) for c in characteristic_polynomial(matrix)]
    values: list[complex] = []
    try:
        for factor, multiplicity in _squarefree_factors(coeffs):
            for root in _roots_of_squarefree(factor):
                values.extend([root] * multiplicity)
    except OverflowError as exc:
        raise NonFiniteArithmetic(
            f"characteristic polynomial beyond float range: {exc}"
        ) from exc
    realified = []
    all_real = True
    for z in values:
        if abs(z.imag) <= REALNESS_RTOL * max(1.0, abs(z)):
            realified.append(complex(z.real, 0.0))
        else:
            realified.append(z)
            all_real = False
    realified.sort(key=lambda z: (-z.real, -z.imag))
    return Spectrum(tuple(realified), all_real)
