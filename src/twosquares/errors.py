"""Exception hierarchy shared by all modules.

The CLI maps ArgumentError -> exit 2 and ResourceError/AccuracyError -> exit 3.
"""


class TwoSquaresError(Exception):
    """Base class for library errors."""


class ArgumentError(TwoSquaresError, ValueError):
    """Invalid argument (wrong modulus class, bad interval, ...)."""


class ResourceError(TwoSquaresError, RuntimeError):
    """A configured memory/size budget would be exceeded."""


class AccuracyError(TwoSquaresError, RuntimeError):
    """A numerical procedure failed to certify its accuracy target."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial

