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

class InputError(RefinableError):
    """Base class of the errors that reject the input itself; the command
    line exits 2 on these and 3 on every other RefinableError."""


class ParseError(InputError):
    """The problem document is malformed."""


class DimensionMismatch(InputError):
    """Matrix, mask indices, and the declared dimension disagree."""


class NotDilation(InputError):
    """The matrix is not a dilation matrix (singular, or some eigenvalue
    modulus is not above one)."""


class MaskSumViolation(InputError):
    """The mask coefficients do not sum to one."""


class EmptyMask(InputError):
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


# --- lattice evaluation ------------------------------------------------------

class DomainTooSmall(RefinableError):
    """Refinement left its domain: a seed value lies outside the candidate
    set, or a value above the noise floor escaped the support bound."""


class NoUnitEigenvalue(RefinableError):
    """The transfer matrix has no eigenvalue within tolerance of one."""


class NonUniqueValues(RefinableError):
    """Values were asked for without a tie-break, but the eigenvalue-1
    eigenspace of the transfer matrix has dimension above one."""


class NoLeftClosedLimit(RefinableError):
    """The left-closed tie-break has no limit: the transfer matrix has an
    eigenvalue beyond the unit circle, or its eigenvalue 1 is not
    semisimple."""


class NormalizationImpossible(RefinableError):
    """The unit eigenvector or the left-closed selection has (near) zero
    entry sum and cannot be scaled to a partition of unity."""


class EnumerationTooLarge(RefinableError):
    """A lattice enumeration exceeds its cap: a level's index box holds
    more points than the enumeration cap, the matrix has more residue
    classes than that cap, the candidate set is too large for a dense
    transfer matrix, or a cascade or refinement level would scatter more
    rows than the scatter cap."""


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
