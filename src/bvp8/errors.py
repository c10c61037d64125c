"""Exception types shared across the package."""


class Bvp8Error(Exception):
    """Base class for every error raised by this package."""


class ConfigurationError(Bvp8Error, ValueError):
    """Invalid setup: degenerate domain, bad grid size, mismatched domains."""


class SingularSystemError(Bvp8Error, RuntimeError):
    """A linear system turned out numerically rank deficient."""


class EvaluationError(Bvp8Error, RuntimeError):
    """A residual or partials callback raised, or gave a non-finite value."""
