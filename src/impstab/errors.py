"""Exception types shared across the package."""


class ImpstabError(Exception):
    """Base class for all package-specific errors."""


class OutOfRange(ImpstabError, ValueError):
    """A value fell outside the domain an operation can handle."""


class NotMonotone(ImpstabError, ValueError):
    """Numeric evidence that a function is not monotone where it must be."""


class ClassViolation(ImpstabError, ValueError):
    """A function failed the comparison-class checks it declared."""


class InvalidInterval(ImpstabError, ValueError):
    """An interval endpoint ordering or sign constraint was violated."""


class InvalidPhi(ImpstabError, ValueError):
    """A jump-count envelope is not a valid nondecreasing bound."""


class NonFiniteState(ImpstabError, ArithmeticError):
    """The state became NaN or infinite, or a map raised an arithmetic
    error, during strict simulation; or the initial state is not finite."""


class InvalidSystem(ImpstabError, ValueError):
    """A system definition is malformed or unsuitable for the operation."""


class HypothesisFailed(ImpstabError):
    """The integral-inequality hypothesis does not hold on the data.

    Carries ``witness_time`` so callers can locate the first failure.
    """

    def __init__(self, message: str, witness_time: float | None = None):
        super().__init__(message)
        self.witness_time = witness_time


class NonZeroInput(ImpstabError, ValueError):
    """A zero-input check was handed a trajectory driven by nonzero input."""


class InconsistentInput(ImpstabError, ValueError):
    """The input supplied to a check differs from the one the trajectory used."""


class ConfigError(ImpstabError, ValueError):
    """A configuration mapping could not be interpreted."""
