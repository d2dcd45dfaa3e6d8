"""m-dissection of power series into residue-class slices, and back."""

from dataclasses import dataclass

from .errors import NegativeValuation
from .series import Series


@dataclass(frozen=True)
class Dissection:
    """Slices of f mod m: slice l collects the coefficients of q^(m*n+l)."""

    modulus: int
    slices: tuple
    source_order: int


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


def residues_present(f, m):
    """Residue classes mod m that carry a nonzero coefficient."""
    return sorted({e % m for e, c in f.terms()})


def slice_support_check(terms, m, expected=None):
    """Check that each term lives in a single residue class mod m.

    ``terms`` is a Series or a list of Series; ``expected`` optionally maps
    term index to the residue it must occupy.  Returns a plain dict report
    (JSON-ready) rather than raising: violations are data here.
    """
    if isinstance(terms, Series):
        terms = [terms]
    report = {"modulus": m, "terms": [], "passed": True}
    for i, t in enumerate(terms):
        res = residues_present(t, m)
        entry = {"index": i, "residues": res, "passed": True, "first_violation": None}
        want = None if expected is None else expected.get(i)
        if t.is_zero():
            entry["passed"] = want is None
        elif len(res) > 1 or (want is not None and res != [want]):
            entry["passed"] = False
            bad = [e for e, c in t.terms() if want is not None and e % m != want]
            if not bad and len(res) > 1:
                # no expectation given: flag the first exponent off the
                # dominant (first-seen) residue
                first = t.terms()[0][0] % m
                bad = [e for e, c in t.terms() if e % m != first]
            entry["first_violation"] = bad[0] if bad else None
        if not entry["passed"]:
            report["passed"] = False
        report["terms"].append(entry)
    return report
