"""Tests for the exact/float matrix analysis layer."""

import math
from fractions import Fraction

import numpy as np
import pytest

from refinable import DilationMatrix, IntMatrix, operator_norm
from refinable.errors import ComplexSpectrum, SingularMatrix

from oracle import as_floats, fraction_inverse, fraction_inverse_power

SKEW = IntMatrix.from_rows([[0, 1], [3, 1]])


def random_int_matrices(count, dim, low=-4, high=5, seed=0):
    rng = np.random.RandomState(seed)
    out = []
    while len(out) < count:
        rows = rng.randint(low, high, size=(dim, dim))
        out.append(IntMatrix.from_rows(rows.tolist()))
    return out


class TestDeterminant:
    def test_identity(self):
        assert DilationMatrix.from_rows([[1, 0], [0, 1]]).determinant == 1

    def test_diagonal(self):
        assert DilationMatrix.from_rows([[2, 0], [0, 2]]).determinant == 4

    def test_skew_matrix(self):
        # cofactor expansion by hand: 0*1 - 1*3
        assert DilationMatrix(SKEW).determinant == -3

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_matches_float_determinant(self, dim):
        for mat in random_int_matrices(10, dim, seed=dim):
            expected = round(float(np.linalg.det(mat.as_array())))
            assert DilationMatrix(mat).determinant == expected


def inverse_fractions(matrix):
    """M^-1 from the library's integer pair, as rows of Fractions."""
    adj, det = DilationMatrix(matrix).inverse
    return [[Fraction(a, det) for a in row] for row in adj.rows]


def power_inverse_norm(matrix, n):
    return operator_norm(*DilationMatrix(matrix).inverse_power(n))


class TestInverse:
    def test_identity(self):
        ident = IntMatrix.from_rows([[1, 0], [0, 1]])
        assert DilationMatrix(ident).inverse == (ident, 1)
        assert inverse_fractions(ident) == [[1, 0], [0, 1]]

    def test_diagonal(self):
        mat = IntMatrix.from_rows([[2, 0], [0, 2]])
        assert DilationMatrix(mat).inverse == (mat, 4)
        assert inverse_fractions(mat) == [[Fraction(1, 2), 0], [0, Fraction(1, 2)]]

    def test_skew_matrix(self):
        # adjugate over determinant, checked by exact product with A
        assert DilationMatrix(SKEW).inverse == (IntMatrix.from_rows([[1, -1], [-3, 0]]), -3)
        assert inverse_fractions(SKEW) == [
            [Fraction(-1, 3), Fraction(1, 3)],
            [Fraction(1), Fraction(0)],
        ]

    def test_singular(self):
        singular = DilationMatrix.from_rows([[1, 2], [2, 4]])
        with pytest.raises(SingularMatrix):
            singular.inverse_power(1)
        with pytest.raises(SingularMatrix):
            singular.inverse
        with pytest.raises(SingularMatrix):
            fraction_inverse(singular.matrix)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_exact_product_is_identity(self, dim):
        for mat in random_int_matrices(8, dim, seed=10 + dim):
            if DilationMatrix(mat).determinant == 0:
                continue
            # both the library's pair and the Fraction oracle invert exactly
            for inv in (inverse_fractions(mat), fraction_inverse(mat)):
                ident = [
                    [
                        sum(Fraction(mat.rows[i][k]) * inv[k][j] for k in range(dim))
                        for j in range(dim)
                    ]
                    for i in range(dim)
                ]
                for i in range(dim):
                    for j in range(dim):
                        assert ident[i][j] == (1 if i == j else 0)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_powers_match_the_fraction_oracle(self, dim):
        for mat in random_int_matrices(6, dim, seed=30 + dim):
            matrix = DilationMatrix(mat)
            if matrix.determinant == 0:
                continue
            for n in range(1, 5):
                adj, det = matrix.inverse_power(n)
                exact = [[Fraction(a, det) for a in row] for row in adj.rows]
                assert exact == fraction_inverse_power(mat, n)
                assert np.array_equal(
                    matrix.inverse_power_array(n), as_floats(exact)
                )


class TestOperatorNorm:
    def test_identity_is_exactly_one(self):
        assert operator_norm(IntMatrix.from_rows([[1, 0], [0, 1]])) == 1.0

    def test_diagonal(self):
        assert operator_norm(IntMatrix.from_rows([[2, 0], [0, 3]])) == pytest.approx(3.0, abs=1e-12)

    def test_skew_matrix_inverse(self):
        # hand Gram of A^-1: eigenvalues ((11 +- sqrt(85)) / 18), largest
        # singular value is the square root of the larger one
        expected = math.sqrt((11 + math.sqrt(85)) / 18)
        assert operator_norm(*DilationMatrix(SKEW).inverse) == pytest.approx(expected, rel=1e-12)


class TestEigenvalues:
    def test_skew_matrix(self):
        # roots of x^2 - x - 3 by the quadratic formula
        spec = DilationMatrix(SKEW).spectrum
        expected = [(1 + math.sqrt(13)) / 2, (1 - math.sqrt(13)) / 2]
        got = sorted(z.real for z in spec.eigenvalues)
        assert got == pytest.approx(sorted(expected), abs=1e-10)
        assert spec.all_real

    def test_defective_double_eigenvalue_is_exact(self):
        spec = DilationMatrix.from_rows([[2, 0], [1, 2]]).spectrum
        assert spec.eigenvalues == ((2 + 0j), (2 + 0j))
        assert spec.all_real

    def test_complex_pair(self):
        # roots of x^2 - 2x + 2
        spec = DilationMatrix.from_rows([[1, 1], [-1, 1]]).spectrum
        assert not spec.all_real
        got = sorted((z.real, z.imag) for z in spec.eigenvalues)
        assert got[0] == pytest.approx((1.0, -1.0), abs=1e-10)
        assert got[1] == pytest.approx((1.0, 1.0), abs=1e-10)

    def test_characteristic_polynomial_skew(self):
        assert DilationMatrix(SKEW).characteristic_polynomial == (1, -1, -3)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_trace_and_determinant_identities(self, dim):
        for mat in random_int_matrices(8, dim, seed=20 + dim):
            matrix = DilationMatrix(mat)
            spec = matrix.spectrum
            trace = sum(mat.rows[i][i] for i in range(dim))
            prod = np.prod(np.asarray(spec.eigenvalues))
            total = np.sum(np.asarray(spec.eigenvalues))
            scale = max(1.0, abs(trace))
            assert abs(total - trace) <= 1e-8 * scale
            det = matrix.determinant
            assert abs(prod - det) <= 1e-8 * max(1.0, abs(det))


class TestDilationCheck:
    def test_skew_matrix_is_dilation(self):
        assert bool(DilationMatrix(SKEW).dilation_check)

    def test_identity_is_not(self):
        check = DilationMatrix.from_rows([[1, 0], [0, 1]]).dilation_check
        assert not check
        assert check.offending

    def test_triangular_spectrum_with_unit_eigenvalue(self):
        check = DilationMatrix.from_rows([[1, 1], [0, 2]]).dilation_check
        assert not check
        assert any(abs(z - 1) < 1e-9 for z in check.offending)

    def test_singular_is_not(self):
        assert not DilationMatrix.from_rows([[1, 2], [2, 4]]).dilation_check


class TestPowerInverseNorm:
    def test_diagonal(self):
        assert power_inverse_norm(IntMatrix.from_rows([[2, 0], [0, 2]]), 3) == pytest.approx(
            0.125, abs=1e-15
        )

    def test_first_power_matches_inverse_norm(self):
        assert power_inverse_norm(SKEW, 1) == DilationMatrix(SKEW).inverse_norm

    def test_trend_to_zero_and_first_contractive_power(self):
        # independent oracle: exact rational powers, then float SVD norms
        norms = []
        for n in range(1, 9):
            exact = fraction_inverse_power(SKEW, n)
            norms.append(float(np.linalg.norm(as_floats(exact), 2)))
            assert power_inverse_norm(SKEW, n) == pytest.approx(norms[-1], rel=1e-10)
        first = next(i + 1 for i, v in enumerate(norms) if v < 1)
        assert first == 2
        assert norms[-1] < norms[0]

    def test_dilation_implies_eventual_contraction(self):
        matrices = [
            SKEW,
            IntMatrix.from_rows([[2, 0], [1, 2]]),
            IntMatrix.from_rows([[1, 1], [1, -1]]),
            IntMatrix.from_rows([[1, 2], [-2, -1]]),
        ]
        for mat in matrices:
            assert bool(DilationMatrix(mat).dilation_check)
            assert any(power_inverse_norm(mat, n) < 1 for n in range(1, 65))


class TestJordanStructure:
    def test_diagonal(self):
        structure = DilationMatrix.from_rows([[2, 0], [0, 3]]).jordan_structure
        assert structure.blocks == ((2.0, 1), (3.0, 1))
        # identity up to column scaling
        c = np.abs(structure.transform)
        assert c == pytest.approx(np.eye(2), abs=1e-12)

    def test_defective_block(self):
        structure = DilationMatrix.from_rows([[2, 0], [1, 2]]).jordan_structure
        assert structure.blocks == ((2.0, 2),)

    @pytest.mark.parametrize(
        "rows", [[[1000000, 0], [0, 1000001]], [[1000000, 1], [0, 1000001]]]
    )
    def test_close_distinct_eigenvalues_stay_apart(self, rows):
        # the two eigenvalues differ by 1e-6 relative; exact multiplicities
        # keep them as two blocks
        structure = DilationMatrix.from_rows(rows).jordan_structure
        assert structure.blocks == ((1000000.0, 1), (1000001.0, 1))

    def test_complex_spectrum_rejected(self):
        with pytest.raises(ComplexSpectrum):
            DilationMatrix.from_rows([[1, 1], [-1, 1]]).jordan_structure

    def test_mixed_blocks_3x3(self):
        structure = DilationMatrix(
            IntMatrix.from_rows([[2, 0, 0], [1, 2, 0], [0, 0, 3]])
        ).jordan_structure
        assert sorted(structure.blocks) == [(2.0, 2), (3.0, 1)]

    def test_two_blocks_with_equal_eigenvalue(self):
        structure = DilationMatrix(
            IntMatrix.from_rows(
                [[2, 0, 0, 0], [1, 2, 0, 0], [0, 0, 2, 0], [0, 0, 1, 2]]
            )
        ).jordan_structure
        assert structure.blocks == ((2.0, 2), (2.0, 2))

    def test_repeated_irrational_eigenvalues_are_semisimple(self):
        # block-diagonal pair with spectrum {sqrt(2), -sqrt(2)}, each twice
        structure = DilationMatrix(
            IntMatrix.from_rows(
                [[1, 1, 0, 0], [1, -1, 0, 0], [0, 0, 1, 1], [0, 0, 1, -1]]
            )
        ).jordan_structure
        assert tuple(size for _, size in structure.blocks) == (1, 1, 1, 1)
        root2 = 2.0**0.5
        for lam, _ in structure.blocks:
            assert abs(abs(lam) - root2) <= 1e-10

    @pytest.mark.parametrize(
        "rows",
        [
            [[2, 0], [1, 2]],
            [[1, 1], [1, -1]],
            [[0, 1], [3, 1]],
            [[2, 0, 0], [1, 2, 0], [0, 0, 3]],
            [[3, 1, 0], [0, 3, 1], [0, 0, 3]],
        ],
    )
    def test_reconstruction(self, rows):
        mat = IntMatrix.from_rows(rows)
        structure = DilationMatrix(mat).jordan_structure
        a = mat.as_array()
        recon = structure.transform @ structure.jordan_matrix() @ structure.transform_inverse
        assert np.max(np.abs(recon - a)) <= 1e-8 * max(1.0, np.max(np.abs(a)))

    def test_block_sizes_reproduce_rank_sequence(self):
        mat = IntMatrix.from_rows([[3, 1, 0], [0, 3, 1], [0, 0, 3]])
        structure = DilationMatrix(mat).jordan_structure
        assert structure.blocks == ((3.0, 3),)
        n = mat.as_array() - 3 * np.eye(3)
        ranks = [np.linalg.matrix_rank(np.linalg.matrix_power(n, k)) for k in (1, 2, 3)]
        assert ranks == [2, 1, 0]


class TestDilationMatrixCache:
    def test_cached_analytics(self):
        dm = DilationMatrix.from_rows([[0, 1], [3, 1]])
        assert dm.determinant == -3
        assert dm.m == 3
        assert bool(dm.dilation_check)
        assert dm.inverse_norm == pytest.approx(math.sqrt((11 + math.sqrt(85)) / 18), rel=1e-12)
        assert dm.spectrum.all_real
        assert dm.power(2).rows == ((3, 1), (3, 4))
