"""Exception types shared across the package.

Every error that callers are expected to catch has its own class; plain
ValueError/TypeError are reserved for programming mistakes.
"""


class NullcodeError(Exception):
    """Base class for all package errors."""


class InvOfZero(NullcodeError, ZeroDivisionError):
    """Multiplicative inverse of zero requested."""


class DomainMismatch(NullcodeError):
    """A value is not an element of the field, i.e. lies outside [0, q)."""


class LengthMismatch(NullcodeError):
    """Vector or message length does not match the code geometry."""


class BudgetExceeded(NullcodeError):
    """An enumeration or state-size budget would be exceeded."""


class SplitRequiresEvenN(NullcodeError, ValueError):
    """Bipartite splits need an even number of oracle coordinates."""


class EmptySupport(NullcodeError):
    """A table maps every symbol to 1, so no superposition exists."""


class EmptySet(NullcodeError):
    """A set-valued argument must be nonempty."""


class BadDistribution(NullcodeError):
    """Probabilities must be positive and sum to one."""


class DistinctnessViolated(NullcodeError):
    """Hash independence checks require distinct evaluation points."""


class EncodingOverflow(NullcodeError, ValueError):
    """Domain point does not fit into the hash key field."""


class RetriesExhausted(NullcodeError):
    """Per-coordinate measurement retries hit the configured cap."""


class UsageError(NullcodeError):
    """A command-line argument, or a file one names, is malformed."""


class ParseError(NullcodeError):
    """A result or config file could not be parsed."""

    def __init__(self, path, line, message):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line
