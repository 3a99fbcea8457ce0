"""Exception types raised by the library."""


class SignConjError(Exception):
    """Base class for every error raised by this package."""


class MalformedSignError(SignConjError, ValueError):
    """A sign token or sign value is not one of +1 / -1."""


class EmptySignVectorError(SignConjError, ValueError):
    """A sign vector must have length >= 1."""


class FirstCoordinateNotOneError(SignConjError, ValueError):
    """Sign vectors are normalized so that coordinate 1 is +1."""


class DimensionMismatchError(SignConjError, ValueError):
    """Operands have incompatible shapes or lengths."""


class NotSquareError(SignConjError, ValueError):
    """The operation is defined for square matrices only."""


class SizeCapExceededError(SignConjError, ValueError):
    """Input exceeds the configured size cap for an exponential-cost operation."""


class RangeError(SignConjError, ValueError):
    """A numeric argument is outside its documented range."""


class NotSignSymmetricError(SignConjError, ValueError):
    """The matrix is not fixed by the requested sign conjugation."""


class NotSignAntisymmetricError(SignConjError, ValueError):
    """The matrix is not negated by the requested sign conjugation."""


class MatrixParseError(SignConjError, ValueError):
    """A matrix file or document could not be parsed into exact rationals."""


class InternalConsistencyError(SignConjError):
    """Two independent routes inside the library disagree: a defect in the
    library, not in its input, and never reported as a failed check."""
