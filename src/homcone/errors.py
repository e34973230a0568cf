"""Exception types shared across the package."""


class HomconeError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(HomconeError):
    """Vector length does not match the ambient dimension of the set."""


class UnsupportedProjection(HomconeError):
    """The set variant does not provide a nearest-point projector."""


class NonPositiveAlpha(HomconeError):
    """The scaling parameter was out of range: not positive, or negative
    where 0 is allowed."""


class CenterOutsideRadius(HomconeError):
    """Ball parameters would exclude the origin from the set."""


class CapabilityMissing(HomconeError):
    """The set variant does not expose the requested capability,
    typically a recession-cone projector."""


class MaxIterationsExceeded(HomconeError):
    """The bracket search did not stabilize within the allowed steps."""


class NoClosedFormAvailable(HomconeError):
    """No cataloged closed-form polar description for this set."""


class InvalidSetSpec(HomconeError):
    """Malformed JSON set specification."""
