"""Exception hierarchy shared across the package."""


class NlsLabError(Exception):
    """Base class for all package errors."""


class GridError(NlsLabError, ValueError):
    """Invalid grid construction parameters."""


class ResolutionError(NlsLabError, ValueError):
    """Requested feature cannot be resolved on the given grid."""


class NormalizationError(NlsLabError, ValueError):
    """Input expected to be a probability density is not."""


class EnvelopeError(NlsLabError, ValueError):
    """Inconsistent or invalid dispersive-envelope state."""


class BlowUpError(NlsLabError, RuntimeError):
    """NaN/Inf or mass-drift tripwire during time stepping.

    Defocusing equations should never blow up; a trip indicates a
    numerics bug or under-resolution, not physics.
    """

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class VerificationError(NlsLabError, RuntimeError):
    """Run-record re-verification failure (missing or corrupt artifacts)."""
