"""Exception types shared across the engine."""


class QSeriesError(Exception):
    """Base class for all engine errors."""


class NonUnitLeadingCoefficient(QSeriesError):
    """Division attempted by a series whose leading coefficient is not +-1.

    Over the integers only units are invertible; hitting this almost always
    means an identity was entered with a wrong factor.
    """


class OrderExceeded(QSeriesError):
    """A coefficient beyond the trusted truncation order was requested."""


class NegativeValuation(QSeriesError):
    """An operation that requires a power series got a Laurent series."""


class NotUnit(QSeriesError):
    """Product recovery needs valuation 0 and leading coefficient +1."""


class NonIntegralExponent(QSeriesError):
    """The input has no (1-q^n)^a product form with integer exponents.

    Carries the first index n where the defining recurrence fails to divide.
    """

    def __init__(self, n, message=None):
        self.n = n
        super().__init__(message or f"no integral product exponent at n={n}")


class RegistryError(QSeriesError):
    """The registry file cannot be read or is not valid JSON."""


class ParseError(QSeriesError):
    """Syntax error in the expression language, with a byte offset."""

    def __init__(self, pos, message):
        self.pos = pos
        super().__init__(f"{message} (at offset {pos})")
