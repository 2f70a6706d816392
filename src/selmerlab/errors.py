"""Exception hierarchy shared by all selmerlab modules.

Every error raised on purpose by this package derives from
:class:`SelmerLabError`, so callers can catch one type at the boundary.
Validation failures (bad input data) and numeric failures (a quantity
that was supposed to be small is not) are distinct subclasses because
the command line maps them to different exit codes.
"""


class SelmerLabError(Exception):
    """Base class for all errors raised by selmerlab."""


class ValidationError(SelmerLabError, ValueError):
    """Input data violates a documented precondition.

    Also a ``ValueError``, so callers that catch the builtin still work.
    """


class NumericError(SelmerLabError):
    """A computed quantity exceeded its documented threshold."""


class NegativeEntry(ValidationError):
    """A probability vector or stochastic matrix has a negative entry."""


class NotNormalized(ValidationError):
    """A probability vector or matrix row does not sum to 1 within tolerance."""


class TruncationMismatch(ValidationError):
    """Operands live on rank windows of different sizes."""


class InvalidPrime(ValidationError):
    """The modulus p is not a prime number."""


class DegenerateConfig(ValidationError):
    """A stream or rate configuration admits no valid draws."""


class InfeasibleFan(ValidationError):
    """No level of the requested shape exists: need m <= k <= 2m."""


class EmptyFan(ValidationError):
    """The stream contains no level satisfying the fan constraints."""


class NotSubset(ValidationError):
    """Mixture comparison requires one index set to contain the other."""


class DisparityOutOfRange(ValidationError):
    """A disparity value outside the interval [-1/2, 1/2]."""


class EmptyCharacterList(ValidationError):
    """A local place carries no characters, so its average is undefined."""


class NoConvergence(NumericError):
    """Iteration failed to reach the requested tolerance in the step budget."""
