"""Exception types shared across the package."""


class KernelTriError(Exception):
    """Base class for all package errors."""


class SpaceError(KernelTriError):
    """Malformed measure space or standard set."""


class DimensionMismatchError(KernelTriError):
    """Objects defined over incompatible spaces or shapes."""


class PreconditionError(KernelTriError):
    """A documented operation precondition does not hold for the input."""


class TheoremViolationError(KernelTriError):
    """A structural guarantee failed on input that was asserted to satisfy
    the corresponding hypotheses; carries diagnostic payload."""

    def __init__(self, message: str, **details):
        self.details = details
        super().__init__(message)
