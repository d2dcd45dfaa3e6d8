"""Recover an infinite-product form prod (1-q^n)^(a_n) from a series.

This is the conjecturing step: expand a slice, pull out its product
exponents, and look for a periodic pattern.  The recurrence comes from the
logarithmic derivative: with t = -q f'/f one has t_m = sum_{d|m} d*a_d, so

    a_n = (t_n - sum_{d|n, d<n} d*a_d) / n

and the division is exact: every integer series 1 + O(q) has integer
exponents (divide out (1-q^k)^(-c_k) for its first nonzero c_k, k = 1, 2,
...).  A series F(q^g), with g the gcd of its exponents (a multiple of 5
for every 5-dissection slice), is recovered from F at order ceil(n/g): t
and the divisor sums both scale by g, so a_(gk) = b_k and every other a_n
is 0, the inverse of ``products.product_expand``'s rule that a product in
q^g expands in q.
"""

from math import gcd

from ._value import Value
from .errors import NotUnit, OrderExceeded
from .series import Series
from .products import _apply_factor


class PeriodView(Value):
    """Eventually periodic description of product exponents.

    ``eta[r]`` is the exponent of (1-q^n) for n = r (mod modulus) and
    ``eta_plus[r]`` the exponent of (1+q^n); the plus part is nonempty only
    when the raw exponents are 2M-periodic with the (1-q^2n)/(1-q^n)
    signature of negative-argument Pochhammer factors.  Exponents below the
    modulus that disagree with the pattern are listed separately.
    """

    __slots__ = ("modulus", "eta", "eta_plus", "leading_exceptions")

    def predicted(self, n):
        m = self.modulus
        v = self.eta.get(n % m, 0) - self.eta_plus.get(n % m, 0)
        if n % 2 == 0:
            v += self.eta_plus.get((n // 2) % m, 0)
        return v

    def to_json(self):
        return {
            "modulus": self.modulus,
            "eta": {str(r): e for r, e in sorted(self.eta.items())},
            "eta_plus": {str(r): e for r, e in sorted(self.eta_plus.items())},
            "leading_exceptions": {
                str(n): e for n, e in sorted(self.leading_exceptions.items())
            },
        }


class EtaExponents(Value):
    """Product exponents a_n for 1 <= n < order, zeros omitted."""

    __slots__ = ("exponents", "order", "period_view")
    _defaults = {"period_view": None}

    def exponent(self, n):
        return self.exponents.get(n, 0)

    def to_json(self):
        return {
            "exponents": {str(n): a for n, a in sorted(self.exponents.items())},
            "order": self.order,
            "period": self.period_view.modulus if self.period_view else None,
            "residue_pattern": self.period_view.to_json() if self.period_view else None,
            "leading_exceptions": (
                self.period_view.to_json()["leading_exceptions"]
                if self.period_view
                else None
            ),
        }


def expand_exponents(exponents, n):
    """Re-expand prod (1-q^k)^(a_k) to order n."""
    c = [0] * n
    c[0] = 1
    for k, a in sorted(exponents.items()):
        if 0 < k < n and a:
            _apply_factor(c, k, 1, a, n)
    return Series(0, c, n)


def prodmake(f, n):
    """Product exponents of f for 1 <= k < n.  f must start with 1*q^0."""
    if f.is_zero() or f.val != 0 or f.coeffs[0] != 1:
        raise NotUnit("prodmake needs valuation 0 and leading coefficient +1")
    if f.order < n:
        raise OrderExceeded(f"need coefficients below {n}, trusted below {f.order}")
    f = f.truncate(n)
    g = gcd(*(i for i, c in enumerate(f.coeffs) if c)) or 1
    m = -(-n // g)
    f = Series(0, f.coeffs[::g], m)  # the input is exactly f(q^g)
    t = f.q_derivative().negate().div(f).coefficients(0, m)
    exponents = {}
    divsum = [0] * m
    for k in range(1, m):
        a = (t[k] - divsum[k]) // k
        if a:
            exponents[k] = a
            for mult in range(2 * k, m, k):
                divsum[mult] += k * a
    # soundness: the recovered product must reproduce the input exactly
    if expand_exponents(exponents, m) != f:
        raise AssertionError("product re-expansion does not match input")
    return EtaExponents({g * k: a for k, a in exponents.items()}, n)


def detect_period(e, m):
    """Look for an m-periodic pattern in product exponents.

    Returns a PeriodView or None.  For odd m, exponents that are only
    2m-periodic are additionally tried against the (1+q^n) signature left
    by negative-argument factors; the decomposition is solved exactly and
    verified before being reported.
    """
    n = e.order
    if n < 3 * m:
        raise OrderExceeded(f"period {m} needs exponents to at least 3*{m}, have {n}")

    def fit(period):
        pat = {}
        for k in range(m, n):
            r = k % period
            a = e.exponent(k)
            if r in pat:
                if pat[r] != a:
                    return None
            else:
                pat[r] = a
        if len(pat) < period:
            return None
        return pat

    view = None
    pat = fit(m)
    if pat is not None:
        view = PeriodView(m, {r: a for r, a in pat.items() if a}, {}, {})
    elif m % 2 == 1 and n >= 6 * m:
        pat2 = fit(2 * m)
        if pat2 is not None:
            # split a_n = c_(n mod m) - d_(n mod m) + [n even] d_(n/2 mod m)
            d = {}
            for r in range(m):
                odd = r if r % 2 else r + m
                even = r + m if r % 2 else r
                d[(even // 2) % m] = pat2[even] - pat2[odd]
            c = {r: pat2[r if r % 2 else r + m] + d[r] for r in range(m)}
            ok = all(
                pat2[s]
                == c[s % m] - d[s % m] + (d[(s // 2) % m] if s % 2 == 0 else 0)
                for s in range(2 * m)
            )
            if ok:
                view = PeriodView(
                    m,
                    {r: a for r, a in c.items() if a},
                    {r: a for r, a in d.items() if a},
                    {},
                )
    if view is None:
        return None
    exceptions = {}
    for k in range(1, min(m, n)):
        a = e.exponent(k)
        if a != view.predicted(k):
            exceptions[k] = a
    if exceptions:
        view = PeriodView(m, view.eta, view.eta_plus, exceptions)
    return view


def with_period(e, m):
    """Attach a period view (if one exists) to an exponent table."""
    return EtaExponents(e.exponents, e.order, detect_period(e, m))
