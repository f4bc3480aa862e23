"""Exception and warning types shared across the library."""

from __future__ import annotations


class RefinableError(Exception):
    """Base class for every error raised by this library."""


# --- matrix analysis ---------------------------------------------------------

class SingularMatrix(RefinableError):
    """The matrix has determinant zero and cannot be inverted."""


class RootFindingFailure(RefinableError):
    """The characteristic-polynomial root finder did not converge."""


class ComplexSpectrum(RefinableError):
    """A real Jordan decomposition was requested for a matrix with
    genuinely complex eigenvalues."""


class IllConditionedTransform(RefinableError):
    """The Jordan transform is too ill-conditioned for the result to be
    numerically meaningful."""


# --- problem ingestion -------------------------------------------------------

class ParseError(RefinableError):
    """The problem document is malformed."""


class DimensionMismatch(RefinableError):
    """Matrix, mask indices, and the declared dimension disagree."""


class NotDilation(RefinableError):
    """The matrix is not a dilation matrix (singular, or some eigenvalue
    modulus is not above one)."""


class MaskSumViolation(RefinableError):
    """The mask coefficients do not sum to one."""


class EmptyMask(RefinableError):
    """The mask has no nonzero coefficient."""


# --- support bounds ----------------------------------------------------------

class NormNotContractive(RefinableError):
    """The inverse-matrix operator norm is >= 1, so the single-step ball
    bound does not apply."""


class ContractionSearchExhausted(RefinableError):
    """No matrix power with contractive inverse norm was found within the
    search cap; the input is not behaving like a dilation matrix."""


class NotDilation1D(RefinableError):
    """A one-dimensional dilation factor must have modulus above one."""


class NotDiagonal(RefinableError):
    """The diagonal-matrix bound was requested for a non-diagonal matrix."""


class NotDilationEigenvalue(RefinableError):
    """A per-block bound was requested for an eigenvalue with modulus <= 1."""


class NoBoundAvailable(RefinableError):
    """No support bound could be computed for the problem."""


# --- lattice evaluation ------------------------------------------------------

class DomainTooSmall(RefinableError):
    """Sample values escaped the stored domain; the caller must enlarge it."""


class NoUnitEigenvalue(RefinableError):
    """The transfer matrix has no eigenvalue within tolerance of one."""


class NormalizationImpossible(RefinableError):
    """The unit eigenvector has (near) zero entry sum and cannot be scaled
    to a partition of unity."""


class EnumerationTooLarge(RefinableError):
    """A level's lattice enumeration box holds more points than the
    enumeration cap allows."""


class IndexOverflow(RefinableError):
    """Lattice indices at the requested level would not fit in int64."""


class NonFiniteArithmetic(RefinableError):
    """A floating-point result overflowed to inf or NaN (huge mask
    coefficients can do this to the transfer matrix or to a refinement
    level), or numpy's linear algebra failed on such values."""


# --- warnings ----------------------------------------------------------------

class NonUniqueWarning(UserWarning):
    """The eigenvalue-1 eigenspace of the transfer matrix has dimension
    above one; integer-point values are not uniquely determined."""
