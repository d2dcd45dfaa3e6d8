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
is 0, as ``products._run`` runs the passes on a grid q^h at ceil(n/h).

Every result is checked: the recovered product must re-expand to F, on
one packed integer (``_kernels.matches_product``).  ``expand_exponents``,
the dense re-expansion, stays the public one and the tests' oracle for the
check.
"""

from math import gcd

from . import _kernels
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
        pattern = self.period_view.to_json() if self.period_view else None
        return {
            "exponents": {str(n): a for n, a in sorted(self.exponents.items())},
            "order": self.order,
            "period": self.period_view.modulus if self.period_view else None,
            "residue_pattern": pattern,
            "leading_exceptions": pattern["leading_exceptions"] if pattern else None,
        }


def expand_exponents(exponents, n):
    """Re-expand prod (1-q^k)^(a_k) to order n."""
    c = [0] * n
    c[0] = 1
    for k, a in sorted(exponents.items()):
        if 0 < k < n and a:
            _apply_factor(c, k, 1, a)
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
    # soundness: the recovered product must reproduce the input exactly;
    # the check is packed, the dense ``expand_exponents`` its test oracle
    if not _kernels.matches_product(f.coefficients(0, m), exponents.items()):
        raise AssertionError("product re-expansion does not match input")
    return EtaExponents({g * k: a for k, a in exponents.items()}, n)


def detect_period(e, m):
    """Look for an eventually m-periodic pattern in product exponents.

    Returns a PeriodView or None.  The pattern is read from the exponents
    a_k with k >= m, which must reach k = 3m.  For odd m with exponents to
    6m the read also splits off the (1+q^n) part that negative-argument
    factors leave, a_k = c_(k mod m) - d_(k mod m) + [k even] d_(k/2 mod m),
    solved from one k of each residue mod 2m in m <= k < 3m; otherwise d
    is 0 and c is read from m <= k < 2m.  The view is reported only if its
    ``predicted`` reproduces every a_k from k = m on.  The a_k below m that
    it misses are listed as leading exceptions.
    """
    if m < 1:
        raise ValueError("period must be >= 1")
    n = e.order
    if n < 3 * m:
        raise OrderExceeded(f"period {m} needs exponents to at least 3*{m}, have {n}")
    a = e.exponent
    if m % 2 and n >= 6 * m:
        odd = {k % m: a(k) for k in range(m, 3 * m, 2)}  # a_k = c_r - d_r
        d = {(k // 2) % m: a(k) - odd[k % m] for k in range(m + 1, 3 * m, 2)}
        c = {r: odd[r] + d[r] for r in range(m)}
    else:
        c, d = {k % m: a(k) for k in range(m, 2 * m)}, {}
    exceptions = {}  # filled in once the view is accepted
    view = PeriodView(
        m,
        {r: x for r, x in c.items() if x},
        {r: x for r, x in d.items() if x},
        exceptions,
    )
    # predicted is 2m-periodic: one period of it checks every k
    table = [view.predicted(k) for k in range(2 * m)]
    if any(a(k) != table[k % (2 * m)] for k in range(m, n)):
        return None
    exceptions.update((k, a(k)) for k in range(1, m) if a(k) != table[k])
    return view


def with_period(e, m):
    """Attach a period view (if one exists) to an exponent table."""
    return EtaExponents(e.exponents, e.order, detect_period(e, m))
