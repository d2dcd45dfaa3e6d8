"""Helpers that only the tests call: building a series from its terms, and
the residue-class views of products and series the dissection theorems are
checked against."""

from qdissect.series import Series


def make_series(coeff_pairs, order):
    """Build a series from (exponent, coefficient) pairs.

    Exponents must be distinct and below ``order``.
    """
    seen = {}
    for e, c in coeff_pairs:
        if e in seen:
            raise ValueError(f"duplicate exponent {e}")
        if e >= order:
            raise ValueError(f"exponent {e} not below order {order}")
        seen[e] = c
    if not seen:
        return Series(order, [], order)
    lo = min(seen)
    hi = max(seen)
    coeffs = [0] * (hi - lo + 1)
    for e, c in seen.items():
        coeffs[e - lo] = c
    return Series(lo, coeffs, order)


def exponent_pattern(p, m):
    """Aggregate the factor exponents of the QProduct p by residue class mod m.

    Returns (eta, eta_plus): eta[r] is the net power of (1-q^n) over
    n = r (mod m) coming from plus-sign factors, eta_plus[r] the net
    power of (1+q^n) from minus-sign factors.  Requires every factor
    modulus to divide m.
    """
    eta = {}
    plus = {}
    for f in p.factors:
        if m % f.modulus:
            raise ValueError(f"period {m} not a multiple of modulus {f.modulus}")
        target = eta if f.sign == 1 else plus
        for r in range(f.offset % f.modulus, m, f.modulus):
            target[r] = target.get(r, 0) + f.power
    eta = {r: e for r, e in sorted(eta.items()) if e}
    plus = {r: e for r, e in sorted(plus.items()) if e}
    return eta, plus


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
