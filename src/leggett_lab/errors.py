"""Exception types shared across the package."""


class LeggettLabError(Exception):
    """Base class for all package-specific errors."""


class ConvergenceError(LeggettLabError):
    """A multi-start search did not settle on a reproducible optimum."""
