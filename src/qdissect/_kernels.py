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
each index through itemgetters over one window.
The slot format (``_pack``, ``_unpack``, ``_slot_bytes``) is private here,
and each call builds its slot mask (``_top``) once.
"""

from bisect import bisect_left, bisect_right
from math import comb
from operator import add, itemgetter, sub

BACKEND = "python"

# ``_pack`` encodes this many slots per list of bytes objects, so it never
# holds one bytes object per coefficient of a long list at once.
_PACK_SLOTS = 256

_BLOCK = 64  # the block length of a dividing ``sparse_power``


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
