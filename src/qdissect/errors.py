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


class BudgetExceeded(QSeriesError):
    """An input needs more than a fixed bound of the engine allows, found
    before the work starts."""


class RegistryError(QSeriesError):
    """The registry file cannot be read, is not JSON, or breaks the schema."""


class UsageError(QSeriesError):
    """A command-line argument is out of range, names nothing, or names a
    file that cannot be written."""


class ParseError(QSeriesError):
    """Syntax error in the expression language, with a byte offset."""

    def __init__(self, pos, message):
        self.pos = pos
        super().__init__(f"{message} (at offset {pos})")
