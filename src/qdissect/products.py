"""Expansion of q-Pochhammer products and the named series built from them.

A ``QProduct`` is a finite list of factors (s*q^j; q^m)^e with s = +-1.
``product_expand`` plans it (``_plan``) as passes over one coefficient
list: Jacobi-triple-product theta series (Garvan 1999, "A q-product
tutorial for a q-series MAPLE package"; Hirschhorn 2017, "The Power of
q"), each with O(sqrt(N/m)) terms below q^N, so that theta(a, m)^e is
one ``_kernels.sparse_power`` of those terms (``_theta_pass``), and, for
unpaired factors, one O(N) dense pass per linear factor (``_apply_factor``).

Each part runs on its coarsest grid (``_run``).  A pass whose offset and
modulus are multiples of h lies on q^h.  The passes on the grid that saves
the most pass length run first, as one sub-product in q^h at length
ceil(N/h), spread onto every h-th coefficient; the other passes run on
the result.  Sub-products choose their grids the same way, so grids nest:
in G(q)*G(q^2)^2, (q^5;q^5)*(q^10;q^10)^2 runs at a fifth of the length
and its (q^10;q^10)^2 at a tenth.  A product on q^g as a whole is one
sub-product with no passes beside it.  A memo dict that the caller keeps
(``exprlang.Evaluator`` does) shares short sub-products between products,
such as that (q^5;q^5)*(q^10;q^10)^2, which H(q)*G(q^2)^2 has too.

The parser folds every term c*q^k*(products and quotients of products)
into one ``QProduct`` (``exprlang.Term``), so a series such as
1/(R(q)*R(q^2)^2), or k = q*R(q)*R(q^2)^2, is one expansion, shifted and
scaled, with no convolution or Newton step.  The sum sides (``G_sum``,
``H_sum``, ``phi``, ``psi``) are independent of all this and act as
oracles for it.
"""

from collections import Counter
from itertools import accumulate
from math import comb, gcd
from operator import add, sub

from . import _kernels
from ._value import Value
from .series import Series, check_length

# A memo of ``product_expand`` keeps at most _MEMO_MAX sub-products, each
# at most _MEMO_LEN long: most reuse is of short ones, soon after storing.
_MEMO_MAX = 16
_MEMO_LEN = 256


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


def _theta_terms(a, m, n):
    """The terms (d, sign) of theta(a, m) with 0 < d < n, ascending."""
    terms = []
    for step in (1, -1):
        k = step
        while (d := m * k * (k - 1) // 2 + a * k) < n:
            terms.append((d, -1 if k % 2 else 1))
            k += step
    return sorted(terms)


def _theta_pass(c, a, m, e):
    """Multiply c in place by theta(a, m)^e, where theta(a, m) =
    sum_k (-1)^k q^(m*k*(k-1)/2 + a*k) = (q^a;q^m)(q^(m-a);q^m)(q^m;q^m),
    0 < a < m, by the Jacobi triple product: a sparse power of its terms."""
    _kernels.sparse_power(c, _theta_terms(a, m, len(c)), e)


def poch_expand(f, n):
    """Expansion of a single Pochhammer factor to order n."""
    return product_expand(QProduct((f,)), n)


def _plan(p):
    """The passes of p's normal form, in the order they run.

    A pass (a, m, e, False) multiplies by (q^a;q^m)^e, one dense pass per
    linear factor; (a, m, e, True) multiplies by theta(a, m)^e, |e| theta
    passes.  Dense passes come first, then theta passes by falling e:
    multiplying first keeps the intermediate coefficients small.  Equal
    products give equal plans, which the sub-product memo keys on.
    """
    plus = Counter()  # (a, m) -> net power of (q^a;q^m)
    for f in p.factors:
        a, m = f.offset, f.modulus
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
            dense.append((a, m, e - common, False))
    thetas = sorted(((a, m, e, True) for (a, m), e in theta.items() if e),
                    key=lambda x: (-x[2], x[0], x[1]))
    return tuple(dense) + tuple(thetas)


def _primes(x):
    """The prime factors of x >= 1."""
    ps, p = set(), 2
    while p * p <= x:
        while x % p == 0:
            ps.add(p)
            x //= p
        p += 1
    return ps | {x} - {1}


def _grid(weights, n):
    """The prime h whose grid q^h saves the most pass length at length n,
    or 1 if none does; ``weights`` maps each grid gcd(a, m) of the passes
    (a, m, e, ...) to their number of passes, sum |e|.  Taking primes one
    at a time nests them, which is never worse than a composite step."""
    best, h = 0, 1
    for p in {p for x in weights for p in _primes(x)}:
        saved = (n - -(-n // p)) * sum(w for x, w in weights.items() if x % p == 0)
        if saved > best:
            best, h = saved, p
    return h


def _sub_product(passes, n, memo, share):
    """``_run(passes, n, memo)``, read from ``memo`` or, when ``share`` and
    n <= _MEMO_LEN, stored there, the oldest entry making room."""
    key = (passes, n)
    sub = memo.get(key)
    if sub is None:
        sub = _run(passes, n, memo)
        if share and n <= _MEMO_LEN:
            if len(memo) >= _MEMO_MAX:
                del memo[next(iter(memo))]
            memo[key] = sub
    return sub


def _run(passes, n, memo):
    """Coefficients below q^n of the product of ``passes`` (each with a < n).

    The passes on the grid q^h that ``_grid`` picks run first as one
    sub-product in q^h at length ceil(n/h), read from ``memo`` or stored
    there; it is spread onto every h-th coefficient and the other passes run
    in place on the result.  Stored lists are only ever read.
    """
    check_length(n)
    weights = Counter()
    for a, m, e, _ in passes:
        weights[gcd(a, m)] += abs(e)
    h = _grid(weights, n)
    if h > 1:
        inner = tuple((a // h, m // h, e, t) for a, m, e, t in passes
                      if a % h == 0 and m % h == 0)
        passes = [x for x in passes if x[0] % h or x[1] % h]
        c = [0] * n
        c[::h] = _sub_product(inner, -(-n // h), memo, bool(passes))
    else:
        c = [1] + [0] * (n - 1)
    for a, m, e, theta in passes:
        if theta:
            _theta_pass(c, a, m, e)
        else:
            for d in range(a, n, m):
                _apply_factor(c, d, 1, e, n)
    return c


def product_expand(p, n, memo=None):
    """Expansion of a QProduct to order n (empty product gives 1).

    Normal form (``_plan``): (-x;q^m) = (x^2;q^2m)/(x;q^m); (q^m;q^m) =
    theta(m, 3m) (Euler); (q^a;q^2a) = (q^a;q^a)/(q^2a;q^2a); a pair
    (q^a, q^(m-a); q^m) gives its common power of theta(a, m)/(q^m;q^m).
    The passes run grid by grid (``_run``).  ``memo``, a dict the caller
    keeps, shares the sub-products on coarser grids between calls.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    # a pass whose first term lies at or past q^n does nothing, and the
    # empty product is one in q^n, so 1 costs one coefficient, whatever n
    passes = [x for x in _plan(p) if x[0] < n]
    c = _run(passes, n, {} if memo is None else memo) if passes else [1]
    return Series(0, c, n)


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
