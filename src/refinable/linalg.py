"""Exact and floating-point analysis of small integer matrices.

Integer inputs keep the expensive questions cheap: determinants, inverses,
characteristic polynomials, and matrix powers are computed exactly with
``int``/``fractions.Fraction`` arithmetic, so the only floating point in the
pipeline is root finding, operator norms, and the Jordan transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    ComplexSpectrum,
    IllConditionedTransform,
    IndexOverflow,
    RootFindingFailure,
    SingularMatrix,
)

MAX_DIM = 8

# Numerical classification thresholds.  Eigenvalues are roots of an exact
# integer polynomial, so these only have to absorb root-finder noise.
REALNESS_RTOL = 1e-8
CLUSTER_RTOL = 1e-6
RANK_RTOL = 1e-9
DILATION_TOL = 1e-8
CONDITION_LIMIT = 1e8
RECONSTRUCTION_RTOL = 1e-8


# ---------------------------------------------------------------------------
# matrix containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntMatrix:
    """A square integer matrix, stored as nested tuples of Python ints."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        d = len(self.rows)
        if d < 1 or d > MAX_DIM:
            raise ValueError(f"dimension must be in 1..{MAX_DIM}, got {d}")
        for row in self.rows:
            if len(row) != d:
                raise ValueError("matrix must be square")
            for entry in row:
                if not isinstance(entry, int) or isinstance(entry, bool):
                    raise ValueError(f"matrix entries must be integers, got {entry!r}")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "IntMatrix":
        return IntMatrix(tuple(tuple(int(x) for x in row) for row in rows))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def as_array(self) -> np.ndarray:
        return np.array(self.rows, dtype=float)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.rows)))

    def is_diagonal(self) -> bool:
        return all(
            self.rows[i][j] == 0
            for i in range(self.dim)
            for j in range(self.dim)
            if i != j
        )

    def apply(self, vector: Sequence[int]) -> tuple[int, ...]:
        return tuple(
            sum(a * int(v) for a, v in zip(row, vector)) for row in self.rows
        )


@dataclass(frozen=True)
class RationalMatrix:
    """A square matrix of exact rationals."""

    rows: tuple[tuple[Fraction, ...], ...]

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Fraction | int]]) -> "RationalMatrix":
        return RationalMatrix(tuple(tuple(Fraction(x) for x in row) for row in rows))

    @staticmethod
    def identity(d: int) -> "RationalMatrix":
        return RationalMatrix(
            tuple(
                tuple(Fraction(1 if i == j else 0) for j in range(d))
                for i in range(d)
            )
        )

    @property
    def dim(self) -> int:
        return len(self.rows)

    def as_array(self) -> np.ndarray:
        return np.array([[float(x) for x in row] for row in self.rows], dtype=float)

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(tuple(zip(*self.rows)))

    def matmul(self, other: "RationalMatrix") -> "RationalMatrix":
        d = self.dim
        cols = other.transpose().rows
        return RationalMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.rows
            )
        )


@dataclass(frozen=True)
class Spectrum:
    """All complex eigenvalues of an integer matrix, with a realness flag."""

    eigenvalues: tuple[complex, ...]
    all_real: bool

    def real_values(self) -> tuple[float, ...]:
        if not self.all_real:
            raise ComplexSpectrum("spectrum has genuinely complex eigenvalues")
        return tuple(ev.real for ev in self.eigenvalues)


@dataclass(frozen=True)
class JordanStructure:
    """Real Jordan data M = C G C^-1 with ones on the subdiagonal of each
    block of G.

    ``blocks`` lists (eigenvalue, size) in the order the corresponding
    columns appear in ``transform``; within a block the first column is the
    top of the generalized-eigenvector chain and the last is an eigenvector.
    """

    blocks: tuple[tuple[float, int], ...]
    transform: np.ndarray
    transform_inverse: np.ndarray

    @property
    def dim(self) -> int:
        return sum(size for _, size in self.blocks)

    def jordan_matrix(self) -> np.ndarray:
        d = self.dim
        g = np.zeros((d, d))
        p = 0
        for lam, size in self.blocks:
            for i in range(size):
                g[p + i, p + i] = lam
                if i + 1 < size:
                    g[p + i + 1, p + i] = 1.0
            p += size
        return g


@dataclass(frozen=True)
class DilationCheck:
    """Result of the dilation test; falsy when the matrix fails, with the
    offending eigenvalues listed."""

    ok: bool
    offending: tuple[complex, ...]
    reason: str

    def __bool__(self) -> bool:
        return self.ok


# ---------------------------------------------------------------------------
# exact operations
# ---------------------------------------------------------------------------

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
    """Exact adjugate adj(M) = det(M) M^-1, from cofactors; it exists for
    singular matrices too."""
    n = matrix.dim
    if n == 1:
        return IntMatrix(((1,),))

    def minor(i: int, j: int) -> IntMatrix:
        return IntMatrix(tuple(
            tuple(x for c, x in enumerate(row) if c != j)
            for r, row in enumerate(matrix.rows) if r != i
        ))

    # adj(M)[i][j] is the (j, i) cofactor
    return IntMatrix(tuple(
        tuple((-1) ** (i + j) * determinant(minor(j, i)) for j in range(n))
        for i in range(n)
    ))


def inverse(matrix: IntMatrix) -> RationalMatrix:
    """Exact rational inverse; raises SingularMatrix when det = 0."""
    n = matrix.dim
    a = [[Fraction(x) for x in row] for row in matrix.rows]
    inv = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot_row = next(
            (r for r in range(col, n) if a[r][col] != 0), None
        )
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
    return RationalMatrix(tuple(tuple(row) for row in inv))


def integer_power(matrix: IntMatrix, n: int) -> IntMatrix:
    """Exact n-th power (n >= 0) in integer arithmetic."""
    if n < 0:
        raise ValueError("use rational_inverse_power for negative powers")
    d = matrix.dim
    result = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    base = [list(row) for row in matrix.rows]
    for _ in range(n):
        result = [
            [sum(result[i][k] * base[k][j] for k in range(d)) for j in range(d)]
            for i in range(d)
        ]
    return IntMatrix(tuple(tuple(row) for row in result))


def rational_inverse_power(matrix: IntMatrix, n: int) -> RationalMatrix:
    """Exact M^-n (n >= 1) as a rational matrix."""
    if n < 1:
        raise ValueError("power must be positive")
    inv = inverse(matrix)
    result = inv
    for _ in range(n - 1):
        result = result.matmul(inv)
    return result


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def _exact_gram(rows: Sequence[Sequence[Fraction]]) -> np.ndarray:
    n = len(rows)
    gram = np.empty((n, n), dtype=float)
    for i in range(n):
        for j in range(i, n):
            val = sum(a * b for a, b in zip(rows[i], rows[j]))
            gram[i, j] = gram[j, i] = float(val)
    return gram


def operator_norm(matrix: IntMatrix | RationalMatrix | np.ndarray | Sequence) -> float:
    """Largest singular value: the square root of the top eigenvalue of
    M M^T, from a symmetric eigensolver.

    Integer and rational inputs have their Gram matrix formed exactly before
    the single rounding to float, which keeps the result deterministic and
    accurate to the eigensolver's precision.
    """
    if isinstance(matrix, (IntMatrix, RationalMatrix)):
        rows = [[Fraction(x) for x in row] for row in matrix.rows]
        gram = _exact_gram(rows)
    else:
        arr = np.asarray(matrix)
        if arr.dtype == object:
            rows = [[Fraction(x) for x in row] for row in arr.tolist()]
            gram = _exact_gram(rows)
        else:
            a = arr.astype(float)
            gram = a @ a.T
    top = max(np.linalg.eigvalsh(gram).max(), 0.0)
    return math.sqrt(top)


def power_inverse_norm(matrix: IntMatrix, n: int) -> float:
    """Operator norm of M^-n, with the power taken in exact rationals."""
    return operator_norm(rational_inverse_power(matrix, n))


# ---------------------------------------------------------------------------
# characteristic polynomial and eigenvalues
# ---------------------------------------------------------------------------

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


def _poly_eval(coeffs: list[float], z: complex) -> complex:
    acc = 0.0 + 0.0j
    for c in coeffs:
        acc = acc * z + c
    return acc


def _exact_value(coeffs: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in coeffs:
        acc = acc * x + c
    return acc


def _roots_of_squarefree(coeffs: list[Fraction], max_iter: int = 60) -> list[complex]:
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
        for _ in range(max_iter):
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
                    f"Newton polish did not converge within {max_iter} iterations"
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
    not suffer the usual accuracy collapse of clustered roots.
    """
    coeffs = [Fraction(c) for c in characteristic_polynomial(matrix)]
    values: list[complex] = []
    for factor, multiplicity in _squarefree_factors(coeffs):
        for root in _roots_of_squarefree(factor):
            values.extend([root] * multiplicity)
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


def is_dilation(matrix: IntMatrix) -> DilationCheck:
    """True iff the matrix is invertible and every eigenvalue modulus
    exceeds one (with a small classification tolerance)."""
    return DilationMatrix(matrix).dilation_check


def _spectrum_verdict(spec: Spectrum) -> DilationCheck:
    offending = tuple(
        z for z in spec.eigenvalues if abs(z) <= 1.0 + DILATION_TOL
    )
    if offending:
        mods = ", ".join(f"{abs(z):.6g}" for z in offending)
        return DilationCheck(False, offending, f"eigenvalue modulus not above one: {mods}")
    return DilationCheck(True, (), "all eigenvalue moduli above one")


# ---------------------------------------------------------------------------
# real Jordan structure
# ---------------------------------------------------------------------------

def _cluster_real(values: Sequence[float], counts: Sequence[int]) -> list[tuple[float, int]]:
    pairs = sorted(zip(values, counts))
    clusters: list[list[float | int]] = []
    for value, count in pairs:
        if clusters and abs(value - clusters[-1][0]) <= CLUSTER_RTOL * max(1.0, abs(value)):
            total = clusters[-1][1] + count
            clusters[-1][0] = (clusters[-1][0] * clusters[-1][1] + value * count) / total
            clusters[-1][1] = total
        else:
            clusters.append([value, count])
    return [(float(v), int(c)) for v, c in clusters]


def _null_basis(matrix: np.ndarray, tol: float) -> np.ndarray:
    _, sing, vt = np.linalg.svd(matrix)
    nullity = int(np.sum(sing <= tol))
    if nullity == 0:
        return np.zeros((matrix.shape[0], 0))
    basis = vt[-nullity:].T
    # canonical signs for determinism
    for j in range(basis.shape[1]):
        col = basis[:, j]
        k = int(np.argmax(np.abs(col)))
        if col[k] < 0:
            basis[:, j] = -col
    return basis


def real_jordan_structure(matrix: IntMatrix) -> JordanStructure:
    """Real Jordan decomposition M = C G C^-1, with blocks grouped by
    distinct eigenvalue and generalized-eigenvector chains as columns.

    Block sizes come from SVD rank tests of (M - lambda I)^k; the chain for
    a block of size s is v, Nv, ..., N^(s-1)v with N = M - lambda I, which
    matches a Jordan matrix carrying ones on the subdiagonal.
    """
    return DilationMatrix(matrix).jordan_structure


def _real_jordan_structure(matrix: IntMatrix, spec: Spectrum) -> JordanStructure:
    if not spec.all_real:
        raise ComplexSpectrum(
            "matrix has complex eigenvalues; no real Jordan form"
        )
    d = matrix.dim
    a = matrix.as_array()

    unique_vals: list[float] = []
    unique_counts: list[int] = []
    for z in spec.eigenvalues:
        for i, u in enumerate(unique_vals):
            if z.real == u:
                unique_counts[i] += 1
                break
        else:
            unique_vals.append(z.real)
            unique_counts.append(1)
    clusters = _cluster_real(unique_vals, unique_counts)

    blocks: list[tuple[float, int]] = []
    columns: list[np.ndarray] = []
    for lam, mult in clusters:
        nmat = a - lam * np.eye(d)
        base_scale = np.linalg.norm(nmat, 2)
        kernels: list[np.ndarray] = [np.zeros((d, 0))]
        nullities = [0]
        power = np.eye(d)
        while nullities[-1] < mult:
            if len(nullities) > d:
                raise IllConditionedTransform(
                    f"rank sequence of (M - {lam} I)^k is inconsistent"
                )
            power = power @ nmat
            tol = RANK_RTOL * max(base_scale, np.linalg.norm(power, 2), 1e-300)
            basis = _null_basis(power, tol)
            if basis.shape[1] > mult:
                raise IllConditionedTransform(
                    "numerical kernel exceeds the algebraic multiplicity"
                )
            kernels.append(basis)
            nullities.append(basis.shape[1])
        smax = len(nullities) - 1
        chains_ge = [0] * (smax + 2)
        for k in range(1, smax + 1):
            chains_ge[k] = nullities[k] - nullities[k - 1]

        avoid = np.zeros((d, 0))

        def extend_avoid(avoid: np.ndarray, vec: np.ndarray) -> np.ndarray:
            if avoid.shape[1]:
                vec = vec - avoid @ (avoid.T @ vec)
            nrm = np.linalg.norm(vec)
            if nrm < 1e-12:
                return avoid
            return np.column_stack([avoid, vec / nrm])

        tops: list[tuple[np.ndarray, int]] = []
        for k in range(smax, 0, -1):
            # seed the avoid space: ker N^{k-1} plus taller chains mapped down
            avoid = np.zeros((d, 0))
            for col in kernels[k - 1].T:
                avoid = extend_avoid(avoid, col.copy())
            for top, height in tops:
                vec = top.copy()
                for _ in range(height - k):
                    vec = nmat @ vec
                avoid = extend_avoid(avoid, vec)
            needed = chains_ge[k] - chains_ge[k + 1]
            for _ in range(needed):
                cand = kernels[k].copy()
                if avoid.shape[1]:
                    cand = cand - avoid @ (avoid.T @ cand)
                norms = np.linalg.norm(cand, axis=0)
                j = int(np.argmax(norms))
                if norms[j] < 1e-8:
                    raise IllConditionedTransform(
                        "could not extract an independent chain top"
                    )
                vec = cand[:, j] / norms[j]
                kidx = int(np.argmax(np.abs(vec)))
                if vec[kidx] < 0:
                    vec = -vec
                tops.append((vec, k))
                avoid = extend_avoid(avoid, vec.copy())

        for top, height in tops:
            chain = [top]
            for _ in range(height - 1):
                chain.append(nmat @ chain[-1])
            scale = max(np.linalg.norm(v) for v in chain)
            chain = [v / scale for v in chain]
            blocks.append((lam, height))
            columns.extend(chain)

    transform = np.column_stack(columns)
    sing = np.linalg.svd(transform, compute_uv=False)
    if sing[-1] <= 0 or sing[0] / sing[-1] > CONDITION_LIMIT:
        raise IllConditionedTransform(
            f"transform condition number exceeds {CONDITION_LIMIT:g}"
        )
    transform_inverse = np.linalg.inv(transform)
    # shared through DilationMatrix.jordan_structure and the bounds built on it
    transform.flags.writeable = False
    transform_inverse.flags.writeable = False
    structure = JordanStructure(tuple(blocks), transform, transform_inverse)
    recon = transform @ structure.jordan_matrix() @ transform_inverse
    residual = np.max(np.abs(recon - a))
    if residual > RECONSTRUCTION_RTOL * max(np.max(np.abs(a)), 1.0):
        raise IllConditionedTransform(
            f"reconstruction residual {residual:.3g} too large"
        )
    return structure


# ---------------------------------------------------------------------------
# dilation matrix with cached analytics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DilationMatrix:
    """An integer matrix with cached analysis results.

    Construction does not require the matrix to pass the dilation test;
    callers that need the guarantee check :attr:`dilation_check`.
    """

    matrix: IntMatrix

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "DilationMatrix":
        return DilationMatrix(IntMatrix.from_rows(rows))

    @property
    def dim(self) -> int:
        return self.matrix.dim

    @cached_property
    def determinant(self) -> int:
        return determinant(self.matrix)

    @cached_property
    def m(self) -> int:
        return abs(self.determinant)

    @cached_property
    def inverse(self) -> RationalMatrix:
        return inverse(self.matrix)

    @cached_property
    def spectrum(self) -> Spectrum:
        return eigenvalues(self.matrix)

    @cached_property
    def norm(self) -> float:
        return operator_norm(self.matrix)

    @cached_property
    def inverse_norm(self) -> float:
        return operator_norm(self.inverse)

    @cached_property
    def adjugate(self) -> IntMatrix:
        return adjugate(self.matrix)

    # The dilation test and the Jordan form both read the one cached
    # spectrum.  A complex spectrum is not cached as an error, but it raises
    # from ``spectrum.all_real`` without new work.
    @cached_property
    def dilation_check(self) -> DilationCheck:
        if self.determinant == 0:
            return DilationCheck(False, (), "determinant is zero")
        return _spectrum_verdict(self.spectrum)

    @cached_property
    def jordan_structure(self) -> JordanStructure:
        return _real_jordan_structure(self.matrix, self.spectrum)

    # Powers are memoized per exponent: the cascade, the refinement, the
    # enumeration and the writers all ask for the same few levels.
    @cached_property
    def _powers(self) -> dict[int, IntMatrix]:
        return {}

    @cached_property
    def _inverse_powers(self) -> list[RationalMatrix]:
        return []

    @cached_property
    def _inverse_arrays(self) -> dict[int, np.ndarray]:
        return {}

    def power(self, n: int) -> IntMatrix:
        """Exact M^n (n >= 0)."""
        if n not in self._powers:
            self._powers[n] = integer_power(self.matrix, n)
        return self._powers[n]

    def inverse_power(self, n: int) -> RationalMatrix:
        """Exact M^-n (n >= 1); each exponent not seen before costs one
        product with M^-1."""
        if n < 1:
            raise ValueError("power must be positive")
        powers = self._inverse_powers
        while len(powers) < n:
            powers.append(powers[-1].matmul(self.inverse) if powers else self.inverse)
        return powers[n - 1]

    def inverse_power_array(self, n: int) -> np.ndarray:
        """M^-n rounded to floats, as a read-only array."""
        if n not in self._inverse_arrays:
            array = np.eye(self.dim) if n == 0 else self.inverse_power(n).as_array()
            array.flags.writeable = False
            self._inverse_arrays[n] = array
        return self._inverse_arrays[n]

    def residues(self, n: int, indices: np.ndarray) -> np.ndarray:
        """Residue classes of the integer rows ``indices`` modulo M^n Z^d.

        M^-n = adj(M)^n / det^n, so v lies in M^n Z^d exactly when
        adj(M)^n v = 0 (mod |det|^n).  The rows of adj(M)^n v mod |det|^n
        are returned as int64; two indices are congruent exactly when their
        rows are equal.  At n = 0 every row is zero.
        """
        modulus = self.m**n
        if modulus >= 2**63:
            raise IndexOverflow(f"residues modulo {self.m}^{n} do not fit in int64")
        adj = [[x % modulus for x in row] for row in integer_power(self.adjugate, n).rows]
        vectors = np.asarray(indices, dtype=np.int64).reshape(-1, self.dim) % modulus
        # with both factors reduced, a dot product stays below d (modulus - 1)^2
        dtype = np.int64 if self.dim * (modulus - 1) ** 2 < 2**63 else object
        images = vectors.astype(dtype) @ np.asarray(adj, dtype=dtype).T
        return (images % modulus).astype(np.int64)
