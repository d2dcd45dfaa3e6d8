"""Expansion of q-Pochhammer products and the named series built from them.

A ``QProduct`` is a finite list of factors (s*q^j; q^m)^e with s = +-1.
``product_expand`` rewrites it into Jacobi-triple-product theta series
(Garvan 1999, "A q-product tutorial for a q-series MAPLE package";
Hirschhorn 2017, "The Power of q"): each has O(sqrt(N/m)) terms below q^N,
so multiplying or dividing by it is one O(N*sqrt(N/m)) pass, made of
list-slice updates (``_theta_pass``).  Unpaired factors keep dense
O(N^2/m) passes, one O(N) pass of slice updates per linear factor
(``_apply_factor``).  The evaluator folds every term c*q^k*(products and
quotients of products) into one ``QProduct`` (``exprlang._as_term``), so a
series such as 1/(R(q)*R(q^2)^2), or k = q*R(q)*R(q^2)^2, is one
expansion, shifted and scaled, with no convolution or Newton step.
The sum sides (``G_sum``, ``H_sum``, ``phi``, ``psi``) are independent of
all this and act as oracles for it.
"""

from collections import Counter
from itertools import accumulate
from math import comb, gcd
from operator import add, sub

from . import _kernels
from ._value import Value
from .series import Series

# Block length of a dividing theta pass: terms with d at least this long
# read only finished values and become one slice update per block.
_THETA_BLOCK = 64


class PochFactor(Value):
    """One factor (sign*q^offset; q^modulus)^power."""

    __slots__ = ("sign", "offset", "modulus", "power")
    _defaults = {"power": 1}

    @staticmethod
    def _check(sign, offset, modulus, power):
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if modulus < 1:
            raise ValueError("modulus must be positive")
        if offset < 0:
            raise ValueError("offset must be nonnegative")
        if offset == 0:
            # (q^0;q^m) vanishes and (-q^0;q^m) has the non-unit constant 2;
            # no valid product needs either, so reject typos loudly.
            raise ValueError("offset 0 would make a zero or non-unit factor")
        return sign, offset, modulus, power


class QProduct(Value):
    __slots__ = ("factors",)

    @staticmethod
    def _check(factors):
        return (tuple(factors),)

    def transform(self, subst=1, scale=1):
        """The product with q -> q^subst and every power times scale."""
        return QProduct(
            PochFactor(f.sign, f.offset * subst, f.modulus * subst, f.power * scale)
            for f in self.factors
        )


def _apply_factor(c, d, s, e, n):
    """Multiply the coefficient list c by (1 - s*q^d)^e in place.

    Small |e| uses one O(n) pass per power, made of list-slice updates.
    Multiplying subtracts s times the shifted input, one slice update.
    Dividing (c[i] += s*c[i-d] upwards) is a running sum over each residue
    class mod d when d*d < n and s = 1 (a running sum only adds); otherwise
    it is one slice update per block of d indices, each reading only the
    finished block before it.
    Large |e| (prodmake output can carry necklace-sized exponents) expands
    the binomial series of the factor power and does a single convolution
    instead.
    """
    if abs(e) <= 8:
        if d >= n:
            return
        op = add if s * e < 0 else sub
        for _ in range(abs(e)):
            if e > 0:
                c[d:n] = map(op, c[d:n], c[:n - d])
            elif s > 0 and d * d < n:
                for r in range(d):
                    c[r:n:d] = accumulate(c[r:n:d])
            else:
                for lo in range(d, n, d):
                    hi = min(lo + d, n)
                    c[lo:hi] = map(op, c[lo:hi], c[lo - d:hi - d])
        return
    fc = [0] * n
    for k in range(0, (n - 1) // d + 1):
        if e > 0:
            if k > e:
                break
            fc[k * d] = comb(e, k) * (-s) ** k
        else:
            fc[k * d] = comb(-e - 1 + k, k) * s**k
    c[:] = _kernels.conv(c, fc, n)


def _theta_pass(c, a, m, divide):
    """Multiply (or divide: the unit-constant recurrence) c in place by
    theta(a, m) = sum_k (-1)^k q^(m*k*(k-1)/2 + a*k), 0 < a < m, which is
    (q^a;q^m)(q^(m-a);q^m)(q^m;q^m) by the Jacobi triple product.

    Multiplying adds each term's shifted copy of the input as one slice
    update.  Dividing runs over blocks of _THETA_BLOCK indices: a term with
    d >= _THETA_BLOCK reads only finished values, so it is one slice update
    per block, and the recurrence runs over the few shorter terms alone.
    """
    n = len(c)
    terms = []  # (d, sign) for 0 < d < n, ascending
    for step in (1, -1):
        k = step
        while (d := m * k * (k - 1) // 2 + a * k) < n:
            terms.append((d, -1 if k % 2 else 1))
            k += step
    terms.sort()
    if not divide:
        src = c[:]
        for d, s in terms:
            c[d:] = map(add if s > 0 else sub, c[d:], src)
        return
    near = [(d, s) for d, s in terms if d < _THETA_BLOCK]
    far = [(d, sub if s > 0 else add) for d, s in terms if d >= _THETA_BLOCK]
    for lo in range(0, n, _THETA_BLOCK):
        hi = min(lo + _THETA_BLOCK, n)
        for d, op in far:
            if d >= hi:
                break
            start = max(lo, d)
            c[start:hi] = map(op, c[start:hi], c[start - d:hi - d])
        for i in range(lo, hi):
            c[i] -= sum([s * c[i - d] for d, s in near if d <= i])


def poch_expand(f, n):
    """Expansion of a single Pochhammer factor to order n."""
    return product_expand(QProduct((f,)), n)


def product_expand(p, n):
    """Expansion of a QProduct to order n (empty product gives 1).

    Normal form: (-x;q^m) = (x^2;q^2m)/(x;q^m); (q^m;q^m) = theta(m, 3m)
    (Euler); (q^a;q^2a) = (q^a;q^a)/(q^2a;q^2a); a pair (q^a, q^(m-a); q^m)
    gives its common power of theta(a, m)/(q^m;q^m).  A product in q^g
    expands in q.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    # the empty product is one in q^n, so 1 costs one coefficient, whatever n
    g = gcd(*(x for f in p.factors for x in (f.offset, f.modulus))) or n
    plus = Counter()  # (a, m) -> net power of (q^a;q^m)
    for f in p.factors:
        a, m = f.offset // g, f.modulus // g
        if f.sign < 0:
            plus[2 * a, 2 * m] += f.power
        plus[a, m] += f.sign * f.power
    theta, dense = Counter(), []  # theta: (a, m) -> power of theta(a, m)
    for a, m in sorted(plus):
        e = plus[a, m]
        if m in (a, 2 * a):  # (q^a;q^a), or (q^a;q^2a) = (q^a;q^a)/(q^2a;q^2a)
            theta[a, 3 * a] += e
            theta[m, 3 * m] -= e if m > a else 0
            continue
        pair = plus[m - a, m] if 2 * a < m else 0
        common = min(e, pair, key=abs) if e * pair > 0 else 0
        theta[a, m] += common
        theta[m, 3 * m] -= common
        plus[m - a, m] -= common
        if e != common:
            dense.append((a, m, e - common))
    c = [1] + [0] * (-(-n // g) - 1)
    for a, m, e in dense:
        for d in range(a, len(c), m):
            _apply_factor(c, d, 1, e, len(c))
    # multiplying first keeps the intermediate coefficients small
    for (a, m), e in sorted(theta.items(), key=lambda item: -item[1]):
        for _ in range(abs(e)):
            _theta_pass(c, a, m, e < 0)
    return Series(0, c, len(c)).substitute_power(g).truncate(n)


# ---------------------------------------------------------------------------
# Rogers-Ramanujan functions and friends
# ---------------------------------------------------------------------------

def _rr_sum(n, step_bump):
    # terms t_k = q^(k^2 + bump*k) / (q;q)_k, built incrementally:
    # t_k = t_{k-1} * q^(2k-1+bump) / (1 - q^k)
    out = [0] * n
    t = [0] * n
    t[0] = 1
    out[0] = 1
    k = 0
    shift_total = 0
    while True:
        k += 1
        shift_total += 2 * k - 1 + step_bump
        if shift_total >= n:
            break
        t = [0] * (2 * k - 1 + step_bump) + t[: n - (2 * k - 1 + step_bump)]
        _apply_factor(t, k, 1, -1, n)
        out[shift_total:] = map(add, out[shift_total:], t[shift_total:])
    return Series(0, out, n)


def G_sum(n):
    """Sum side of the first Rogers-Ramanujan identity (exponents k^2)."""
    return _rr_sum(n, 0)


def H_sum(n):
    """Sum side of the second Rogers-Ramanujan identity (exponents k^2+k)."""
    return _rr_sum(n, 1)


def phi(sign, n):
    """Theta series phi(sign*q) = sum over all integers of (sign*q)^(k^2)."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    c = [0] * n
    c[0] = 1
    k = 1
    while k * k < n:
        c[k * k] = 2 * (sign if k % 2 else 1)
        k += 1
    return Series(0, c, n)


def psi(n):
    """Theta series psi(q) = sum of q^(k(k+1)/2)."""
    c = [0] * n
    k = 0
    while k * (k + 1) // 2 < n:
        c[k * (k + 1) // 2] = 1
        k += 1
    return Series(0, c, n)
