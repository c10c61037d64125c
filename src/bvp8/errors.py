"""Exception types shared across the package, and the one wrapper of a user callback."""


class Bvp8Error(Exception):
    """Base class for every error raised by this package."""


class ConfigurationError(Bvp8Error, ValueError):
    """Invalid setup: degenerate domain, bad grid size, mismatched domains."""


class SingularSystemError(Bvp8Error, RuntimeError):
    """A linear system turned out numerically rank deficient."""


class EvaluationError(Bvp8Error, RuntimeError):
    """A residual, partials or boundary callback raised, or gave a non-finite value."""


def call_callback(name: str, fn, *args):
    """fn(*args); an exception from fn is an EvaluationError naming `name`, a Bvp8Error passes."""
    try:
        return fn(*args)
    except Bvp8Error:
        raise
    except Exception as exc:
        raise EvaluationError(f"{name} raised {type(exc).__name__}: {exc}") from exc
