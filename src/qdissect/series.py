"""Exact truncated Laurent series over arbitrary-precision integers.

A series is a triple (valuation, coeffs, order): ``coeffs[i]`` is the
coefficient of q**(valuation+i), and coefficients are trusted only for
exponents strictly below ``order``.  Every operation propagates the order
pessimistically (min rule), so a trusted coefficient is never fabricated.

Values are immutable after construction and all operations are pure, so
series can be shared freely across threads.
"""

import operator
from math import gcd

from . import _kernels
from ._value import Value
from .errors import BudgetExceeded, NonUnitLeadingCoefficient, OrderExceeded

# The longest coefficient list an operation may allocate, some 50 times the
# longest that the paper's orders (sign scans to 10^4) and the tests need.
MAX_LENGTH = 1 << 20


def check_length(n):
    """Refuse a list of more than MAX_LENGTH coefficients before allocating."""
    if n > MAX_LENGTH:
        raise BudgetExceeded(f"a list of {n} coefficients is past the limit of {MAX_LENGTH}")


class Series(Value):
    __slots__ = ("val", "coeffs", "order")

    @staticmethod
    def _check(val, coeffs, order):
        # normalize: no leading/trailing zeros, nothing at or past order
        i = 0
        n = len(coeffs)
        while i < n and coeffs[i] == 0:
            i += 1
        if i == n:
            return order, [], order
        if val + n > order:
            n = max(order - val, 0)
        j = n
        while j > i and coeffs[j - 1] == 0:
            j -= 1
        coeffs = list(coeffs[i:j])
        val += i
        if not coeffs:
            return order, [], order
        return val, coeffs, order

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, order):
        return cls(order, [], order)

    @classmethod
    def one(cls, order):
        return cls(0, [1], order)

    @classmethod
    def monomial(cls, c, e, order):
        return cls(e, [c], order)

    # -- basic queries -----------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    def coefficient(self, n):
        """Exact coefficient of q**n; raises OrderExceeded for n >= order."""
        return self.coefficients(n, n + 1)[0]

    def coefficients(self, lo, hi):
        """Coefficients of q**lo .. q**(hi-1) as a list, zero-padded outside
        the stored run; empty when hi <= lo.

        Raises OrderExceeded, naming the first exponent at or past the order,
        when the window reaches the order.
        """
        if hi <= lo:
            return []
        if hi > self.order:
            raise OrderExceeded(
                f"coefficient {max(lo, self.order)} beyond trusted order {self.order}"
            )
        i = lo - self.val
        run = self.coeffs[max(i, 0):max(hi - self.val, 0)]
        pad = min(max(-i, 0), hi - lo)
        return [0] * pad + run + [0] * (hi - lo - pad - len(run))

    def leading_coefficient(self):
        if not self.coeffs:
            return 0
        return self.coeffs[0]

    # -- ring operations ---------------------------------------------------

    def add(self, other):
        # a zero operand leaves the other one, truncated to the common order
        order = min(self.order, other.order)
        if self.is_zero():
            return other.truncate(order)
        if other.is_zero():
            return self.truncate(order)
        lo = min(self.val, other.val)
        hi = min(max(self.val + len(self.coeffs), other.val + len(other.coeffs)), order)
        check_length(hi - lo)
        window = map(operator.add, self.coefficients(lo, hi), other.coefficients(lo, hi))
        return Series(lo, list(window), order)

    def negate(self):
        return Series(self.val, [-c for c in self.coeffs], self.order)

    def sub(self, other):
        return self.add(other.negate())

    def mul(self, other):
        order = min(self.order + other.val, other.order + self.val)
        if self.is_zero() or other.is_zero():
            return Series(order, [], order)
        val = self.val + other.val
        out = _kernels.conv(self.coeffs, other.coeffs, order - val)
        return Series(val, out, order)

    def scalar_mul(self, c):
        if c == 0:
            return Series(self.order, [], self.order)
        return Series(self.val, [c * x for x in self.coeffs], self.order)

    def exact_scalar_div(self, c):
        """Divide by a nonzero integer, requiring exact divisibility."""
        out = []
        for x in self.coeffs:
            d, r = divmod(x, c)
            if r:
                raise ValueError(f"coefficient {x} not divisible by {c}")
            out.append(d)
        return Series(self.val, out, self.order)

    def invert(self):
        """Multiplicative inverse, requiring leading coefficient +-1.

        Newton iteration w <- w*(2 - u*w) doubles the correct prefix each
        round, so inversion costs a few convolutions of the working length.
        """
        if self.is_zero():
            raise NonUnitLeadingCoefficient("cannot invert the zero series")
        lc = self.coeffs[0]
        if lc not in (1, -1):
            raise NonUnitLeadingCoefficient(
                f"leading coefficient {lc} is not a unit in the integers"
            )
        u = self.coeffs
        m = self.order - self.val
        w = [lc]
        k = 1
        while k < m:
            k = min(2 * k, m)
            t = _kernels.conv(u[: min(len(u), k)], w, k)
            e = [2 - t[0]] + [-x for x in t[1:]]
            w = _kernels.conv(w, e, k)
        return Series(-self.val, w, self.order - 2 * self.val)

    def div(self, other):
        """Exact quotient self/other over the integers.

        A divisor with leading coefficient +-1 inverts by Newton.  One whose
        leading coefficient equals its content g in absolute value is g times
        a unit: divide by the unit, then by g, which must be exact.  Anything
        else raises NonUnitLeadingCoefficient.
        """
        lead = other.leading_coefficient()
        if lead not in (1, -1):
            g = gcd(*other.coeffs)
            if lead and abs(lead) == g:
                scaled = self.mul(other.exact_scalar_div(g).invert())
                try:
                    return scaled.exact_scalar_div(g)
                except ValueError:
                    raise NonUnitLeadingCoefficient(
                        f"quotient needs rational coefficients (content {g} of the "
                        "denominator does not divide the numerator)"
                    ) from None
        return self.mul(other.invert())  # raises with the precise message

    def pow(self, n):
        if n < 0:
            p = self.pow(-n)
            return Series.one(p.order).div(p)
        if n == 0:
            return Series.one(self.order)
        base = self
        acc = None
        while n:
            if n & 1:
                acc = base if acc is None else acc.mul(base)
            n >>= 1
            if n:
                base = base.mul(base)
        return acc

    # -- structural operations ----------------------------------------------

    def substitute_power(self, m):
        """q -> q**m.  Trusted below m * order."""
        if m < 1:
            raise ValueError("substitution power must be >= 1")
        out = [0] * ((len(self.coeffs) - 1) * m + 1)
        out[::m] = self.coeffs
        return Series(self.val * m, out, self.order * m)

    def shift(self, k):
        """Multiply by q**k (k may be negative)."""
        return Series(self.val + k, self.coeffs, self.order + k)

    def q_derivative(self):
        """q * d/dq: the coefficient of q**n becomes n times itself."""
        return Series(
            self.val, [(self.val + i) * c for i, c in enumerate(self.coeffs)], self.order
        )

    def truncate(self, m):
        order = min(self.order, m)
        return Series(self.val, self.coeffs[: max(order - self.val, 0)], order)

    # -- comparison / presentation -------------------------------------------

    def to_json(self):
        return {
            "valuation": self.val,
            "order": self.order,
            "coeffs": [str(c) for c in self.coeffs],
        }

    def terms(self):
        """Nonzero (exponent, coefficient) pairs in exponent order."""
        return [(self.val + i, c) for i, c in enumerate(self.coeffs) if c]

    def __str__(self):
        parts = []
        for e, c in self.terms()[:12]:
            mag = abs(c)
            if e == 0:
                t = str(mag)
            else:
                var = "q" if e == 1 else f"q^{e}"
                t = var if mag == 1 else f"{mag}*{var}"
            parts.append(("- " if c < 0 else "+ ") + t)
        body = " ".join(parts).lstrip("+ ") if parts else "0"
        if body.startswith("- "):
            body = "-" + body[2:]
        if len(self.terms()) > 12:
            body += " + ..."
        return f"{body} + O(q^{self.order})"

    def __repr__(self):
        return f"Series({self})"
