"""Coefficient sign scanning for the four dissected series.

alpha, beta, gamma, delta are the coefficient sequences of

    R(q)*R(q^2)^2,  1/(R(q)*R(q^2)^2),  R(q)^2/R(q^2),  R(q^2)/R(q)^2.

Each has a strict sign determined by the index's residue class, with three
exceptional zeros in total: alpha(4), beta(5), delta(2).
"""

from ._value import Value
from .exprlang import Evaluator
from .registry import load_registry

SERIES_NAMES = ("alpha", "beta", "gamma", "delta")


class SignRule(Value):
    __slots__ = ("modulus", "positive", "negative", "exceptions")  # exceptions: indices forced to 0
    _defaults = {"exceptions": frozenset()}

    @staticmethod
    def _check(modulus, positive, negative, exceptions):
        positive, negative = frozenset(positive), frozenset(negative)
        if positive | negative != set(range(modulus)) or positive & negative:
            raise ValueError("positive/negative residues must partition 0..modulus-1")
        return modulus, positive, negative, frozenset(exceptions)

    def expected(self, n):
        """'zero', 'positive' or 'negative' for index n."""
        if n in self.exceptions:
            return "zero"
        return "positive" if n % self.modulus in self.positive else "negative"

    def to_json(self):
        return {
            "modulus": self.modulus,
            "positive": sorted(self.positive),
            "negative": sorted(self.negative),
            "exceptions": [[n, 0] for n in sorted(self.exceptions)],
        }


# The residue classes follow directly from the dissection theorems: each
# residue mod 5 is covered by a single product term, whose expansion fixes
# the signs.  In particular alpha(9) = +1 and alpha(14) = -3, so among the
# indices = 4 (mod 5) the positive class is 9 (mod 10) and the negative
# class is 4 (mod 10).
DEFAULT_RULES = {
    "alpha": SignRule(10, {0, 3, 6, 7, 9}, {1, 2, 4, 5, 8}, {4}),
    "beta": SignRule(10, {0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}, {5}),
    "gamma": SignRule(5, {0, 2, 4}, {1, 3}),
    "delta": SignRule(5, {0, 1}, {2, 3, 4}, {2}),
}


def series_for(name, n):
    """Expansion to order n of the named series' registry source text."""
    return Evaluator().eval(load_registry().dissection(name).source, n)


class Violation(Value):
    __slots__ = ("n", "coefficient", "residue", "expected")

    def to_json(self):
        return {
            "n": self.n,
            "coefficient": str(self.coefficient),
            "residue": self.residue,
            "expected": self.expected,
        }


class ScanReport(Value):
    # zeros: all indices with a zero coefficient, exceptional or not
    __slots__ = ("name", "order", "rule", "violations", "zeros")

    @property
    def passed(self):
        return not self.violations

    def to_json(self):
        return {
            "series": self.name,
            "order": self.order,
            "rule": self.rule.to_json(),
            "passed": self.passed,
            "violations": [v.to_json() for v in self.violations],
            "zeros": list(self.zeros),
        }


def scan(name, rule=None, n=1000, series=None):
    """Check every coefficient below n against the sign rule.

    Violations are returned as data, never raised: an unexpected zero, a
    wrong strict sign, or a nonzero value at a declared exceptional index
    all land in the report.
    """
    if rule is None:
        rule = DEFAULT_RULES[name]
    f = series if series is not None else series_for(name, n)
    violations = []
    zeros = []
    for i, c in enumerate(f.coefficients(0, n)):
        want = rule.expected(i)
        if c == 0:
            zeros.append(i)
        if want != ("zero" if c == 0 else "positive" if c > 0 else "negative"):
            violations.append(Violation(i, c, i % rule.modulus, want))
    return ScanReport(name, n, rule, tuple(violations), tuple(zeros))


def scan_rows(report, series):
    """(n, coefficient, residue, verdict) rows of the series the report scanned."""
    bad = {v.n for v in report.violations}
    return [
        (i, c, i % report.rule.modulus, "violation" if i in bad else "ok")
        for i, c in enumerate(series.coefficients(0, report.order))
    ]


def write_csv(fh, report, series):
    import csv  # only the --csv report needs it

    w = csv.writer(fh)
    w.writerow(["n", "coefficient", "residue", "verdict"])
    for row in scan_rows(report, series):
        w.writerow(row)
