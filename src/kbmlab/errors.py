"""Exception types shared across the package."""


class KbmLabError(Exception):
    """Base class for all errors raised by kbmlab."""


class LadderRangeError(KbmLabError):
    """Invalid Casimir data or a ladder range the block cannot support."""


class TruncationError(KbmLabError):
    """A truncation policy could not produce a certified range."""


class EigensolveError(KbmLabError):
    """Dense solve, tridiagonal solve or Newton polishing failed."""


class BranchCollisionError(KbmLabError):
    """A tracked eigenvalue branch ceased to be numerically simple."""


class ContourPlacementError(KbmLabError):
    """A quadrature contour passes too close to spectrum."""


class SpectrumValidationError(KbmLabError):
    """A surface spectrum violates its structural requirements."""


class ConfigError(KbmLabError):
    """A run configuration failed validation."""
