"""Exception types shared across the package, and how their messages print a count."""


class HidenetError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(HidenetError):
    """A network, game, or file violates a model constraint."""


class PreconditionError(HidenetError):
    """An algorithm's entry condition does not hold for the given input."""


class BudgetExceededError(HidenetError):
    """The instance is too large for an exhaustive search."""


def count_text(count: int) -> str:
    """A count for an error message: exact while it fits in 64 bits, else
    ``2^N`` with N its bit length (``str`` refuses an int past 4,300 digits)."""
    return str(count) if count.bit_length() <= 64 else f"2^{count.bit_length()}"
