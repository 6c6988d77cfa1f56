"""Exception types shared across the package."""


class PadicError(Exception):
    """Base class for all arithmetic errors raised by this package."""


class DivisionByZeroPadic(PadicError):
    """Division or inversion of an element that is zero at working precision."""


class InsufficientPrecision(PadicError):
    """An operation needed more known digits than the operand carries."""


class ValuationOfZero(PadicError):
    """The valuation of an (indistinguishable-from-)zero element was requested."""


class DomainError(PadicError):
    """Input is outside the mathematical domain of the operation."""


def brief(value) -> str:
    """A user-supplied value as an error message names it, in at most about
    40 characters: its repr when short, an int of more than 20 digits by its
    digit count, and any other long value by its type and a repr prefix."""
    if type(value) is int and abs(value) >= 10**20:
        digits = (abs(value).bit_length() - 1) * 3 // 10  # 10^digits <= |value|
        while 10**digits <= abs(value):
            digits += 1
        return f"<int of {digits} digits>"
    text = repr(value)
    return text if len(text) <= 24 else f"<{type(value).__name__} {text[:20]}...>"
