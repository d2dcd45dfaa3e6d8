"""Exact arithmetic on truncated integer coefficient lists.

``conv`` is the truncated convolution of two lists by Kronecker
substitution: each list is packed into one big integer, k bits per
coefficient, the two are multiplied once by CPython's Karatsuba, and the
k-bit slots of the product are its coefficients (Harvey, "Faster
polynomial multiplication via multipoint Kronecker substitution",
J. Symbolic Comput. 44, 2009).  ``sparse_power`` multiplies a list by a
power of a sparse series with unit coefficients, such as a theta series:
to multiply, by shift-adds on the packed list; to divide, by a recurrence
that sums each block's far terms in one zip and reads the near terms of
each index through itemgetters over one window.  ``matches_product``
checks a list against a product prod (1-q^d)^a on one packed integer,
with slots sized by a saddle-point bound on the product (``_product_bits``).
Each kernel sizes its slots from its own arguments.  The slot format
(``_pack``, ``_unpack``, ``_slot_bytes``) is private here, and each call
builds its slot mask (``_top``) once.
"""

from bisect import bisect_left, bisect_right
from math import comb, exp, frexp, inf, log1p
from operator import add, itemgetter, sub

BACKEND = "python"

# ``_pack`` encodes this many slots per list of bytes objects, so it never
# holds one bytes object per coefficient of a long list at once.
_PACK_SLOTS = 256

_BLOCK = 64  # the block length of a dividing ``sparse_power``

# ``_product_bits`` ends its search once its two probes agree within half
# a nat (0.72 bits), or after this many golden-section steps
_SEARCH_STEPS = 40
_LN2 = 0.6931471805599453  # just below log 2, so dividing by it rounds up


def _getter(offsets):
    """A callable taking a list to the tuple of its items at offsets."""
    if len(offsets) > 1:
        return itemgetter(*offsets)
    if offsets:
        j, = offsets
        return lambda x: (x[j],)
    return lambda x: ()


def _top(kb, n):
    """The integer with bit k-1 of each of n k-bit slots set, k = 8*kb: the
    slot mask of ``_pack`` and ``_unpack`` on lists of at most n slots."""
    return int.from_bytes((bytes(kb - 1) + b"\x80") * n, "little")


def _slot_bytes(bits):
    """Bytes per slot that hold every |x| < 2**bits with a sign bit."""
    return bits // 8 + 1


def _pack(xs, kb, top):
    """The integer sum xs[i] * 2**(k*i), k = 8*kb, for |xs[i]| < 2**(k-1).

    Each slot holds its digit in k-bit two's complement; a negative digit's
    borrow is taken from the slot above.
    """
    u = int.from_bytes(b"".join([
        b"".join([x.to_bytes(kb, "little", signed=True) for x in xs[i:i + _PACK_SLOTS]])
        for i in range(0, len(xs), _PACK_SLOTS)]), "little")
    return u - ((u & top) << 1)


def _unpack(x, kb, n, top):
    """The n digits y[i] of x = sum y[i] * 2**(k*i) (mod 2**(k*n)), k = 8*kb,
    each |y[i]| < 2**(k-1).

    Adding 2**(k-1) per slot makes every digit nonnegative, so no digit
    borrows; flipping those bits back gives the two's complement slots.
    """
    buf = (((x + top) ^ top) & ((1 << (8 * kb * n)) - 1)).to_bytes(kb * n, "little")
    return [int.from_bytes(buf[i:i + kb], "little", signed=True) for i in range(0, len(buf), kb)]


def conv(a, b, out_len):
    """Truncated convolution out[n] = sum a[i]*b[n-i], n < out_len.

    Every |out[n]| is below 2**(bits(a) + bits(b) + L), L the bit length
    of min(len): it is a sum of at most min(len) products, each below
    2**(bits(a) + bits(b)).
    """
    if out_len <= 0:
        return []
    a, b = a[:out_len], b[:out_len]
    if not a or not b:
        return [0] * out_len
    kb = _slot_bytes(max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
                     + min(len(a), len(b)).bit_length())
    top = _top(kb, out_len)
    return _unpack(_pack(a, kb, top) * _pack(b, kb, top), kb, out_len, top)


def sparse_power(c, terms, e):
    """Multiply c in place by P^e mod q^n, n = len(c), e != 0, where
    P = 1 + sum s*q^d over the ascending terms (d, s), 0 < d, s = +-1; a
    term with d >= n does not act mod q^n.

    For e > 0, c is packed once into one integer x, k bits per coefficient,
    and each of the e multiplications is T shift-adds,
    x <- x + sum_d s * (x << k*d) mod 2**(k*n), for the T terms.  Setting
    q = 2**k is a ring homomorphism from series mod q^n onto integers mod
    2**(k*n), so only the final coefficients have to fit their slots: each
    is at most max|c| times the l1 norm of P^e mod q^n, which is at most
    (T+1)^e and, by the majorant 1/(1-q)^e, at most C(n-1+e, e).

    For e < 0, c is divided |e| times by the unit-constant recurrence
    c[i] -= sum_d s * c[i-d], over blocks [lo, hi) of _BLOCK indices.  A far
    term, d >= _BLOCK, reads only finished values: the windows c[lo-d:hi-d]
    of the far terms with d <= lo are summed in one zip per sign and
    applied as one slice update, and a term with lo < d < hi is a slice
    update of its own.  The near terms, d < _BLOCK, run index by index:
    from the largest near d, w, on, each index takes one slice c[i-w:i], and
    one itemgetter per sign picks its near terms out of it in C.
    """
    n = len(c)
    if e > 0:
        growth = min(e * (len(terms) + 1).bit_length(), comb(n - 1 + e, e).bit_length())
        kb = _slot_bytes(max(map(abs, c)).bit_length() + growth)
        top = _top(kb, n)
        x = _pack(c, kb, top)
        c.clear()
        shifts = [(8 * kb * d, s > 0) for d, s in terms]
        mask = (1 << (8 * kb * n)) - 1
        for _ in range(e):
            y = x
            for shift, plus in shifts:
                if plus:
                    y += x << shift
                else:
                    y -= x << shift
            x = y & mask
        c[:] = _unpack(x, kb, n, top)
        return
    k = sum(d < _BLOCK for d, _ in terms)
    near, far = terms[:k], terms[k:]
    # below the smallest near d an index reads no near term; from the
    # largest, w, on, it reads them all from one window c[i-w:i]
    lead, w = (near[0][0], near[-1][0]) if near else (n, n)
    plus = _getter([w - d for d, s in near if s > 0])
    minus = _getter([w - d for d, s in near if s < 0])
    far_ds = ([d for d, s in far if s > 0], sub), ([d for d, s in far if s < 0], add)
    for _ in range(-e):
        for i in range(lead, min(w, n)):
            c[i] -= sum([s * c[i - d] for d, s in near if d <= i])
        for lo in range(0, n, _BLOCK):
            hi = min(lo + _BLOCK, n)
            for ds, op in far_ds:
                j = bisect_right(ds, lo)
                if j:
                    c[lo:hi] = map(op, c[lo:hi], map(sum, zip(*[c[lo - d:hi - d] for d in ds[:j]])))
                for d in ds[j:bisect_left(ds, hi, j)]:
                    c[d:hi] = map(op, c[d:hi], c[:hi - d])
            for i in range(max(lo, w), hi):
                x = c[i - w:i]
                c[i] += sum(minus(x)) - sum(plus(x))


def _product_bits(pairs, n):
    """A bit length b with |P_i| < 2**b for every i < n, where P =
    prod (1-q^k)^a over the pairs (k, a), each with 0 < k < n and a != 0.

    The majorant M = prod_{a>0} (1+q^k)^a * prod_{a<0} (1-q^k)^a has
    nonnegative coefficients and |P_i| <= M_i, so |P_i| <= M(r) r^-(n-1)
    for every 0 < r < 1 (a saddle-point bound).  With r = e^-t,
    phi = log M(r) - (n-1) log r = sum a*log1p(sign(a) e^-kt) + (n-1) t
    is convex in t.  A golden-section search over log t from 1/(2n) to
    t_hi keeps the least phi it sees.  At t_hi, the largest
    (bits(a) + bits(n)) log 2 / k, every |a| e^-kt is at most 1/n: phi is
    finite there and grows past it.  Every t gives a bound, and a relative
    margin covers rounding.  An |a| past float range enters through
    bits(a) log 2 >= log|a|, as a*log1p(x) <= a*x and
    a*log1p(-x) <= |a|*x/(1-x).
    """
    plus, minus, huge, t_hi = [], [], [], 0
    for k, a in pairs:
        if a.bit_length() > 900:
            huge.append((k, a.bit_length() * _LN2, a > 0))
        else:
            (plus if a > 0 else minus).append((k, float(a)))
        t_hi = max(t_hi, (a.bit_length() + n.bit_length()) * _LN2 / k)
    if not t_hi:
        return 1

    def phi(u):
        t = exp(u)
        total = ((n - 1) * t + sum(a * log1p(exp(-k * t)) for k, a in plus)
                 + sum(a * log1p(-exp(-k * t)) for k, a in minus))
        for k, la, positive in huge:
            v = la - k * t
            if v > 700:
                return inf
            total += exp(v) if positive else exp(v) / (1 - exp(-k * t))
        return total

    lo = -(2 * n).bit_length() * _LN2
    top = hi = frexp(t_hi)[1] * _LN2
    g = 0.618  # golden section
    c, d = hi - g * (hi - lo), lo + g * (hi - lo)
    fc, fd = phi(c), phi(d)
    best = min(fc, fd)
    for _ in range(_SEARCH_STEPS):
        if abs(fc - fd) < 0.5:
            break
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - g * (hi - lo)
            fc = phi(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + g * (hi - lo)
            fd = phi(d)
        best = min(best, fc, fd)
    if best == inf:
        best = phi(top)
    return int(best * (1 + 1e-6) / _LN2) + 1


def matches_product(c, exponents):
    """Whether c == prod (1-q^d)^a mod q^n, n = len(c), over the pairs
    (d, a) of ``exponents``; a pair with d >= n does not act.

    As in ``sparse_power``, q = 2**k maps series mod q^n onto integers mod
    2**(k*n), k = 8*kb, and the map is one-to-one on series whose
    coefficients fit a k-bit slot with a sign bit.  So the product is built
    from x = 1 in one integer, kept mod 2**(k*n) only through its shifted
    copies, and compared with the packed c, never unpacked: only c and the
    product, not the partial products, must fit the slot, sized by
    ``_product_bits`` and the bits of max|c|.  A factor (1-q^d) is
    x -= x << k*d and 1/(1-q^d) the doubling product (1+q^d)(1+q^2d)...,
    one shift-add each, every shifted copy cut to n slots.  A factor power
    with |a| > 8, (1-q^d)^a = 1 + q^d * v below q^n by the binomial series,
    is x += q^d * x * v: one multiplication by v at q = 2**k.
    """
    n = len(c)
    pairs = [(d, a) for d, a in exponents if 0 < d < n and a]
    kb = _slot_bytes(max(_product_bits(pairs, n), max(map(abs, c), default=0).bit_length()))
    k = 8 * kb
    mask = (1 << k * n) - 1
    x = 1
    for d, a in pairs:
        if abs(a) > 8:
            # v = sum_(i>0) C(a, i) (-1)^i q^(d(i-1)); for a > 0 it ends at i = a
            low = (1 << k * (n - d)) - 1
            v, b, i = 0, -a, 1
            while b and d * i < n:
                v += b << k * d * (i - 1)
                b = -b * (a - i) // (i + 1)
                i += 1
            x += ((x & low) * (v & low) & low) << k * d
        elif a > 0:
            for _ in range(a):
                x -= (x & (mask >> k * d)) << k * d
        else:
            for _ in range(-a):
                j = d
                while j < n:
                    x += (x & (mask >> k * j)) << k * j
                    j *= 2
    return (x - _pack(c, kb, _top(kb, n))) & mask == 0
