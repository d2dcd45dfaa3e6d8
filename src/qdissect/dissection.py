"""m-dissection of power series into residue-class slices, and back."""

from ._value import Value
from .errors import NegativeValuation
from .series import Series


class Dissection(Value):
    """Slices of f mod m: slice l collects the coefficients of q^(m*n+l)."""

    __slots__ = ("modulus", "slices", "source_order")


def dissect(f, m):
    if m < 1:
        raise ValueError("modulus must be >= 1")
    if not f.is_zero() and f.val < 0:
        raise NegativeValuation(
            f"dissection needs a power series, got valuation {f.val}"
        )
    n = f.order
    cs = f.coefficients(0, n)
    # slice l holds the trusted exponents l, l+m, ... below n
    slices = tuple(Series(0, cs[l::m], len(range(l, n, m))) for l in range(m))
    return Dissection(m, slices, n)


def recombine(d):
    """Sum of q^l * slice_l(q^m), truncated to the source order."""
    total = Series.zero(d.source_order)
    for l, sl in enumerate(d.slices):
        total = total.add(sl.substitute_power(d.modulus).shift(l).truncate(d.source_order))
    return total
