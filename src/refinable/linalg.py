"""Exact and floating-point analysis of small integer matrices.

:class:`DilationMatrix` is the one way in to the exact invariants.  Integer
inputs keep the expensive questions cheap: one Faddeev-LeVerrier pass in
``int`` arithmetic per matrix gives its characteristic polynomial,
determinant and adjugate exactly, matrix powers are memoized exact integer
products, and the inverse power M^-n is kept as the integer pair
(adj(M)^n, det(M)^n) and rounded once per entry where a float is needed.
The characteristic polynomial is split into squarefree factors over the
integers, so every eigenvalue carries its exact multiplicity and no
tolerance decides which roots coincide; the only floating point in the
pipeline is root finding, operator norms, and the Jordan transform.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    ComplexSpectrum,
    IllConditionedTransform,
    IndexOverflow,
    NonFiniteArithmetic,
    RootFindingFailure,
    SingularMatrix,
)

MAX_DIM = 8

# Numerical classification thresholds.  Eigenvalues are roots of an exact
# integer polynomial, so these only have to absorb root-finder noise.
REALNESS_RTOL = 1e-8
RANK_RTOL = 1e-9
DILATION_TOL = 1e-8
CONDITION_LIMIT = 1e8
RECONSTRUCTION_RTOL = 1e-8
NEWTON_MAX_ITER = 60
# int64 lattice indices stay below this magnitude, so the sum or difference
# of two of them never leaves int64
_INDEX_LIMIT = 2**62


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
class Spectrum:
    """All complex eigenvalues of an integer matrix, with a realness flag."""

    eigenvalues: tuple[complex, ...]
    all_real: bool


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
    offending eigenvalue moduli listed in the reason."""

    ok: bool
    reason: str

    def __bool__(self) -> bool:
        return self.ok


# ---------------------------------------------------------------------------
# exact operations
# ---------------------------------------------------------------------------

def _faddeev_leverrier(matrix: IntMatrix) -> tuple[tuple[int, ...], IntMatrix]:
    """The monic characteristic polynomial, highest degree first, and the
    adjugate, from one Faddeev-LeVerrier recursion carried out in integers:
    M_k = M (M_{k-1} + c_{k-1} I) from M_0 = 0 and c_0 = 1, and c_k =
    -trace(M_k) / k, a division that is exact for an integer matrix and is
    checked.  By Cayley-Hamilton M (M_{d-1} + c_{d-1} I) = -c_d I, so
    adj(M) = (-1)^(d-1) (M_{d-1} + c_{d-1} I) and det(M) = (-1)^d c_d."""
    d = matrix.dim
    coeffs = [1]
    mk = [[0] * d for _ in range(d)]
    for k in range(1, d + 1):
        for i in range(d):
            mk[i][i] += coeffs[-1]
        shifted = mk  # M_{k-1} + c_{k-1} I
        mk = [[sum(x * y for x, y in zip(row, col)) for col in zip(*mk)] for row in matrix.rows]
        c, rem = divmod(-sum(mk[i][i] for i in range(d)), k)
        if rem:
            raise ArithmeticError("characteristic polynomial must be integral")
        coeffs.append(c)
    return tuple(coeffs), IntMatrix(tuple(tuple(x if d % 2 else -x for x in r) for r in shifted))


def _matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    cols = tuple(zip(*b.rows))
    return IntMatrix(tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a.rows
    ))


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def operator_norm(matrix: IntMatrix, denominator: int = 1) -> float:
    """Largest singular value of ``matrix / denominator``: the square root of
    the top eigenvalue of its Gram matrix, from a symmetric eigensolver.

    The Gram matrix is formed exactly in Python ints and each entry rounded
    once, as ``g / denominator**2`` (int true division is correctly
    rounded), which keeps the result deterministic and accurate to the
    eigensolver's precision.  M^-n is ``operator_norm(*inverse_power(n))``.
    """
    rows = matrix.rows
    n = len(rows)
    scale = denominator * denominator
    gram = np.empty((n, n), dtype=float)
    for i in range(n):
        for j in range(i, n):
            g = sum(a * b for a, b in zip(rows[i], rows[j]))
            gram[i, j] = gram[j, i] = g / scale
    top = max(np.linalg.eigvalsh(gram).max(), 0.0)
    return math.sqrt(top)


# ---------------------------------------------------------------------------
# characteristic polynomial and eigenvalues
# ---------------------------------------------------------------------------

# Polynomials over Z are coefficient lists, highest degree first, with no
# leading zeros; the zero polynomial is [0].

def _derivative(p: list[int]) -> list[int]:
    n = len(p) - 1
    return [c * (n - i) for i, c in enumerate(p[:-1])]


def _trim(p: list[int]) -> list[int]:
    while len(p) > 1 and p[0] == 0:
        p = p[1:]
    return p or [0]


def _primitive(p: list[int]) -> list[int]:
    """p divided by its content, with a positive leading coefficient."""
    content = math.gcd(*p) or 1
    return [c // (content if p[0] > 0 else -content) for c in p]


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """A remainder of lead(b)^e a on division by b, for some e >= 0."""
    r = a
    while len(r) >= len(b) and r != [0]:
        pad = [0] * (len(r) - len(b))
        r = _trim([b[0] * x - r[0] * y for x, y in zip(r[1:], b[1:] + pad)])
    return r


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd with a positive leading coefficient, by the primitive
    remainder sequence."""
    a, b = _primitive(a), _primitive(b)
    while b != [0]:
        a, b = b, _primitive(_pseudo_remainder(a, b))
    return a


def _exact_quotient(num: list[int], den: list[int]) -> list[int]:
    """num / den for a primitive den that divides num: such a quotient is
    integral (Gauss's lemma), so every step divides exactly, and this is
    checked."""
    quot: list[int] = []
    while len(num) >= len(den):
        factor, rem = divmod(num[0], den[0])
        if rem:
            raise ArithmeticError("polynomial division is not exact")
        quot.append(factor)
        num = [x - factor * y for x, y in zip(num[1:], den[1:])] + num[len(den):]
    if any(num):
        raise ArithmeticError("polynomial division leaves a remainder")
    return quot or [0]


def _minus_derivative(y: list[int], w: list[int]) -> list[int]:
    """y - w', the shorter list left-padded."""
    dw = _derivative(w)
    pad = len(y) - len(dw)
    return _trim([c - (dw[i - pad] if i >= pad else 0) for i, c in enumerate(y)])


def _squarefree_factors(p: list[int]) -> list[tuple[list[int], int]]:
    """Yun's algorithm over Z[x]: p = lead * prod f_i^i with each f_i
    primitive and squarefree, found with pseudo-remainder gcds and exact
    quotients; step 0 divides out gcd(p, p').  For a monic p every f_i is
    monic."""
    w, z = p, _derivative(p)
    factors = []
    i = 0
    while len(w) > 1:
        gi = _gcd(w, z)
        if i and len(gi) > 1:
            factors.append((gi, i))
        w = _exact_quotient(w, gi)
        z = _minus_derivative(_exact_quotient(z, gi), w)
        i += 1
    return factors


def _poly_eval(coeffs: list[float], z: complex) -> complex:
    acc = 0.0 + 0.0j
    for c in coeffs:
        acc = acc * z + c
    return acc


def _is_root(coeffs: list[int], x: int) -> bool:
    acc = 0
    for c in coeffs:
        acc = acc * x + c
    return acc == 0


def _roots_of_squarefree(coeffs: list[int]) -> list[complex]:
    """Roots of a squarefree integer polynomial: companion-matrix start
    values polished by Newton iteration against the exact coefficients.

    Every float is a correctly rounded int quotient: the coefficients of the
    monic polynomial as ``c / lead``, its derivative as ``c (n - i) / lead``.
    A root within ``REALNESS_RTOL`` of the real axis is real: snapped to an
    integer that exact evaluation confirms, so integer eigenvalues come out
    exactly (every rational root of a monic integer polynomial is an
    integer), and otherwise stripped of its imaginary part.
    """
    lead = coeffs[0]
    n = len(coeffs) - 1
    if n == 1:
        return [complex(-coeffs[1] / lead)]
    cf = [c / lead for c in coeffs]
    try:
        start = np.roots(cf)
    except np.linalg.LinAlgError as exc:
        raise RootFindingFailure(str(exc)) from exc
    dcf = [c * (n - i) / lead for i, c in enumerate(coeffs[:-1])]

    def scale(z: complex) -> float:
        # backward-error bound: |f(z)| is judged against the evaluation scale
        return max(sum(abs(c) * max(1.0, abs(z)) ** (n - i) for i, c in enumerate(cf)), 1.0)

    roots = []
    for z0 in start:
        z = complex(z0)
        converged = False
        for _ in range(NEWTON_MAX_ITER):
            fz = _poly_eval(cf, z)
            if abs(fz) <= 1e-14 * scale(z):
                converged = True
                break
            dfz = _poly_eval(dcf, z)
            if dfz == 0:
                break
            z = z - fz / dfz
        if not converged:
            fz = _poly_eval(cf, z)
            if abs(fz) > 1e-10 * scale(z):
                raise RootFindingFailure(
                    f"Newton polish did not converge within {NEWTON_MAX_ITER} iterations"
                )
        if abs(z.imag) <= REALNESS_RTOL * max(1.0, abs(z)):
            nearest = round(z.real)
            if abs(z.real - nearest) <= 1e-6 * max(1.0, abs(z)) and _is_root(coeffs, nearest):
                z = complex(float(nearest))
            else:
                z = complex(z.real, 0.0)
        roots.append(z)
    return roots


def _spectrum(coeffs: Sequence[int]) -> Spectrum:
    """All complex roots of a monic integer polynomial.

    The polynomial is split into squarefree factors first (exact integer
    gcds), so multiple eigenvalues are found with their exact
    multiplicities, as one float repeated, and do not suffer the usual
    accuracy collapse of clustered roots.  Raises
    NonFiniteArithmetic when the polynomial or its roots overflow a float.
    """
    values: list[complex] = []
    try:
        for factor, multiplicity in _squarefree_factors(list(coeffs)):
            for root in _roots_of_squarefree(factor):
                values.extend([root] * multiplicity)
    except OverflowError as exc:
        raise NonFiniteArithmetic(
            f"characteristic polynomial beyond float range: {exc}"
        ) from exc
    values.sort(key=lambda z: (-z.real, -z.imag))
    return Spectrum(tuple(values), all(z.imag == 0 for z in values))


def _spectrum_verdict(spec: Spectrum) -> DilationCheck:
    moduli = [abs(z) for z in spec.eigenvalues if abs(z) <= 1.0 + DILATION_TOL]
    if moduli:
        mods = ", ".join(f"{r:.6g}" for r in moduli)
        return DilationCheck(False, f"eigenvalue modulus not above one: {mods}")
    return DilationCheck(True, "all eigenvalue moduli above one")


# ---------------------------------------------------------------------------
# real Jordan structure
# ---------------------------------------------------------------------------

def _canonical_signs(rows: np.ndarray) -> np.ndarray:
    """The signs, shaped to multiply ``rows`` (or one vector), that make the
    largest-magnitude entry of each row positive, whatever sign the SVD
    picked."""
    peak = np.take_along_axis(rows, np.argmax(np.abs(rows), axis=-1)[..., None], axis=-1)
    return np.where(peak < 0, -1.0, 1.0)


def _null_space(matrix: np.ndarray, rtol: float, floor: float) -> tuple[np.ndarray, ...]:
    """One SVD of the square ``matrix``: its singular values, largest first,
    and orthonormal rows spanning its right and left null spaces, where a
    singular value at or below ``rtol * max(floor, sigma_0)`` counts as
    zero.  Row i of each belongs to the same singular value, and both take
    the sign that makes the right row canonical (:func:`_canonical_signs`)."""
    u, sing, vt = np.linalg.svd(matrix)
    rank = len(sing) - int(np.sum(sing <= rtol * max(floor, sing[0])))
    signs = _canonical_signs(vt[rank:])
    return sing, vt[rank:] * signs, np.ascontiguousarray(u[:, rank:].T) * signs


def _real_jordan_structure(matrix: IntMatrix, spec: Spectrum) -> JordanStructure:
    """Real Jordan decomposition M = C G C^-1, with blocks grouped by
    distinct eigenvalue and generalized-eigenvector chains as columns.

    Block sizes come from SVD rank tests of N^k, N = M - lambda I: with
    nullities n_k, 2 n_k - n_(k-1) - n_(k+1) chains have height exactly k
    (n_(s+1) = n_s at the top height s).  Their tops are the leading left
    singular vectors of ker N^k projected off ker N^(k-1) and the taller
    chains mapped down to height k.  A chain is v, Nv, ..., N^(k-1)v, which
    matches a Jordan matrix carrying ones on the subdiagonal.
    """
    if not spec.all_real:
        raise ComplexSpectrum(
            "matrix has complex eigenvalues; no real Jordan form"
        )
    d = matrix.dim
    a = matrix.as_array()

    # a root of multiplicity k is the same float k times, so distinct
    # eigenvalues are told apart by exact equality
    distinct = [
        (lam, len(list(group)))
        for lam, group in itertools.groupby(sorted(z.real for z in spec.eigenvalues))
    ]

    blocks: list[tuple[float, int]] = []
    columns: list[np.ndarray] = []
    for lam, mult in distinct:
        nmat = a - lam * np.eye(d)
        norm = 0.0  # ||N||_2, read off the first rank test
        kernels: list[np.ndarray] = [np.zeros((d, 0))]
        nullities = [0]
        power = np.eye(d)
        while nullities[-1] < mult:
            if len(nullities) > d:
                raise IllConditionedTransform(
                    f"rank sequence of (M - {lam} I)^k is inconsistent"
                )
            power = power @ nmat
            sing, basis, _ = _null_space(power, RANK_RTOL, norm)
            norm = norm or float(sing[0])
            if len(basis) > mult:
                raise IllConditionedTransform(
                    "numerical kernel exceeds the algebraic multiplicity"
                )
            kernels.append(basis.T)
            nullities.append(len(basis))
        nullities.append(mult)  # n_(s+1) = n_s
        chains: list[list[np.ndarray]] = []
        for k in range(len(nullities) - 2, 0, -1):
            count = 2 * nullities[k] - nullities[k - 1] - nullities[k + 1]
            if count < 0:
                raise IllConditionedTransform(
                    f"rank sequence of (M - {lam} I)^k is inconsistent"
                )
            span = np.column_stack([kernels[k - 1], *(c[len(c) - k] for c in chains)])
            tops = kernels[k].T  # semisimple: the kernel rows are the tops
            if span.shape[1]:
                q = np.linalg.qr(span)[0]
                u = np.linalg.svd(kernels[k] - q @ (q.T @ kernels[k]), full_matrices=False)[0]
                tops = u.T[:count] * _canonical_signs(u.T[:count])
            for top in tops:
                chains.append([top])
                for _ in range(k - 1):
                    chains[-1].append(nmat @ chains[-1][-1])
        for chain in chains:
            scale = max(np.linalg.norm(v) for v in chain)
            blocks.append((lam, len(chain)))
            columns.extend(v / scale for v in chain)

    transform = np.column_stack(columns)
    if not np.linalg.cond(transform) <= CONDITION_LIMIT:
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

    # one Faddeev-LeVerrier pass serves the characteristic polynomial, the
    # determinant, the adjugate and the spectrum
    @cached_property
    def _invariants(self) -> tuple[tuple[int, ...], IntMatrix]:
        return _faddeev_leverrier(self.matrix)

    @cached_property
    def characteristic_polynomial(self) -> tuple[int, ...]:
        """Exact monic characteristic polynomial, highest degree first."""
        return self._invariants[0]

    @cached_property
    def determinant(self) -> int:
        return (-1) ** self.dim * self.characteristic_polynomial[-1]

    @cached_property
    def m(self) -> int:
        return abs(self.determinant)

    @cached_property
    def inverse(self) -> tuple[IntMatrix, int]:
        """Exact M^-1 as the integer pair (adj(M), det(M))."""
        return self.inverse_power(1)

    @cached_property
    def spectrum(self) -> Spectrum:
        return _spectrum(self.characteristic_polynomial)

    @cached_property
    def norm(self) -> float:
        return operator_norm(self.matrix)

    @cached_property
    def inverse_norm(self) -> float:
        return operator_norm(*self.inverse)

    @cached_property
    def adjugate(self) -> IntMatrix:
        return self._invariants[1]

    # The dilation test and the Jordan form both read the one cached
    # spectrum.  A complex spectrum is not cached as an error, but it raises
    # from ``spectrum.all_real`` without new work.
    @cached_property
    def dilation_check(self) -> DilationCheck:
        """True iff the matrix is invertible and every eigenvalue modulus
        exceeds one (with a small classification tolerance)."""
        if self.determinant == 0:
            return DilationCheck(False, "determinant is zero")
        return _spectrum_verdict(self.spectrum)

    @cached_property
    def jordan_structure(self) -> JordanStructure:
        return _real_jordan_structure(self.matrix, self.spectrum)

    # Powers are memoized per exponent: the cascade, the refinement, the
    # enumeration and the writers all ask for the same few levels.  Each
    # base ("matrix" or "adjugate") keeps its powers from the identity up.
    @cached_property
    def _powers(self) -> dict[str, list[IntMatrix]]:
        d = self.dim
        identity = IntMatrix(tuple(tuple(int(i == j) for j in range(d)) for i in range(d)))
        return {"matrix": [identity], "adjugate": [identity]}

    @cached_property
    def _inverse_arrays(self) -> dict[int, np.ndarray]:
        return {}

    def _memoized_power(self, base: str, n: int) -> IntMatrix:
        """Exact base^n (n >= 0); each exponent not seen before costs one
        integer product with the base."""
        if n < 0:
            raise ValueError("use DilationMatrix.inverse_power for negative powers")
        powers = self._powers[base]
        while len(powers) <= n:
            powers.append(_matmul(powers[-1], getattr(self, base)))
        return powers[n]

    def power(self, n: int) -> IntMatrix:
        """Exact M^n (n >= 0)."""
        return self._memoized_power("matrix", n)

    def adjugate_power(self, n: int) -> IntMatrix:
        """Exact adj(M)^n (n >= 0)."""
        return self._memoized_power("adjugate", n)

    def inverse_power(self, n: int) -> tuple[IntMatrix, int]:
        """Exact M^-n (n >= 1) as the integer pair (adj(M)^n, det(M)^n):
        M^-n = adj(M)^n / det(M)^n.  Raises SingularMatrix when det = 0."""
        if n < 1:
            raise ValueError("power must be positive")
        if self.determinant == 0:
            raise SingularMatrix("matrix has determinant zero")
        return self.adjugate_power(n), self.determinant**n

    def inverse_power_array(self, n: int) -> np.ndarray:
        """M^-n with each entry a / det^n rounded once, as a read-only
        array."""
        if n not in self._inverse_arrays:
            if n == 0:
                array = np.eye(self.dim)
            else:
                adj, den = self.inverse_power(n)
                # the sign goes into the numerators, so a zero entry is 0.0, not -0.0
                sign = -1 if den < 0 else 1
                array = np.array([[sign * a / abs(den) for a in row] for row in adj.rows])
            array.flags.writeable = False
            self._inverse_arrays[n] = array
        return self._inverse_arrays[n]

    def coordinates(self, indices: np.ndarray, n: int) -> np.ndarray:
        """The points x = k (M^-n)^T of the level-n indices k, the rows of
        ``indices``; the library's one coordinate formula."""
        return np.asarray(indices, dtype=float) @ self.inverse_power_array(n).T

    def images(self, rows: np.ndarray, n: int) -> np.ndarray:
        """The images M^n k of the ``(N, d)`` int64 rows k; the library's one
        move of lattice rows by a power of M.  Refused with IndexOverflow
        when max(1, largest |k_i|) times the largest absolute row sum of M^n
        reaches ``_INDEX_LIMIT``, which bounds every image entry."""
        power = self.power(n).rows
        # at least one, so an entry of M^n beyond int64 is refused even for k = 0
        largest = max(1, -int(rows.min(initial=0)), int(rows.max(initial=0)))
        if largest * max(sum(map(abs, row)) for row in power) >= _INDEX_LIMIT:
            raise IndexOverflow(f"images M^{n} k of the lattice indices do not fit in int64")
        return rows @ np.asarray(power, dtype=np.int64).T

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
        adj = [[x % modulus for x in row] for row in self.adjugate_power(n).rows]
        vectors = np.asarray(indices, dtype=np.int64).reshape(-1, self.dim) % modulus
        # with both factors reduced, a dot product stays below d (modulus - 1)^2
        dtype = np.int64 if self.dim * (modulus - 1) ** 2 < 2**63 else object
        images = vectors.astype(dtype) @ np.asarray(adj, dtype=dtype).T
        return (images % modulus).astype(np.int64)
