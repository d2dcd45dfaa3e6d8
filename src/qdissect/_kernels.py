"""Exact arithmetic on truncated integer coefficient lists.

``conv`` is the truncated convolution of two lists by Kronecker
substitution: each list is packed into one big integer, k bits per
coefficient, the two are multiplied once by CPython's Karatsuba, and the
k-bit slots of the product are its coefficients (Harvey, "Faster
polynomial multiplication via multipoint Kronecker substitution",
J. Symbolic Comput. 44, 2009).  ``sparse_power`` multiplies a list by a
power of a sparse series with unit coefficients, such as a theta series.
The slot format (``_pack``, ``_unpack``, ``_slot_bytes``) is private here,
and each call builds its slot mask (``_top``) once.
"""

from math import comb
from operator import add, sub

BACKEND = "python"

# ``_pack`` encodes this many slots per list of bytes objects, so it never
# holds one bytes object per coefficient of a long list at once.
_PACK_SLOTS = 256

_BLOCK = 64  # the block length of a dividing ``sparse_power``


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
    P = 1 + sum s*q^d over the ascending terms (d, s), 0 < d < n, s = +-1.

    For e > 0, c is packed once into one integer x, k bits per coefficient,
    and each of the e multiplications is T shift-adds,
    x <- x + sum_d s * (x << k*d) mod 2**(k*n), for the T terms.  Setting
    q = 2**k is a ring homomorphism from series mod q^n onto integers mod
    2**(k*n), so only the final coefficients have to fit their slots: each
    is at most max|c| times the l1 norm of P^e mod q^n, which is at most
    (T+1)^e and, by the majorant 1/(1-q)^e, at most C(n-1+e, e).

    For e < 0, c is divided |e| times by the unit-constant recurrence over
    blocks of _BLOCK indices: a term with d >= _BLOCK reads only finished
    values, so it is one slice update per block, and the recurrence runs
    over the few shorter terms alone.
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
    for _ in range(-e):
        # the first block: no far term reaches it, and a near term only from i = d
        for i in range(1, min(_BLOCK, n)):
            c[i] -= sum([s * c[i - d] for d, s in near if d <= i])
        for lo in range(_BLOCK, n, _BLOCK):
            hi = min(lo + _BLOCK, n)
            for d, s in far:
                if d >= hi:
                    break
                start = max(lo, d)
                c[start:hi] = map(sub if s > 0 else add, c[start:hi], c[start - d:hi - d])
            for i in range(lo, hi):
                c[i] -= sum([s * c[i - d] for d, s in near])
