"""Exception types shared across the package."""


class BraidmatError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(BraidmatError, ValueError):
    """Matrix/vector dimensions are inconsistent with the operation."""


class SizeLimitError(BraidmatError, ValueError):
    """A side length or tensor product would exceed its size cap."""


class AccuracyError(BraidmatError, ValueError):
    """Inputs fall outside the range where the accuracy guarantee holds."""


class ModeError(BraidmatError, ValueError):
    """The operation requires the other coefficient mode (real vs unitary)."""


class DomainError(BraidmatError, ValueError):
    """Arguments hit a pole or excluded point of the formula."""


class ConfigError(BraidmatError, ValueError):
    """Malformed or inconsistent configuration input."""


class ConstructionError(BraidmatError, RuntimeError):
    """A derived object failed its defining self-checks."""
