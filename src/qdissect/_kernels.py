"""Exact truncated convolution of integer coefficient lists.

Every product goes through Kronecker substitution: each list is packed into
one big integer, k bits per coefficient, the two integers are multiplied
once by CPython's Karatsuba, and the k-bit slots of the product are the
coefficients of the truncated product (Harvey, "Faster polynomial
multiplication via multipoint Kronecker substitution", J. Symbolic Comput.
44, 2009).

``pack``, ``unpack`` and ``slot_bytes`` are the one slot format: ``conv``
and the multiplying theta pass (``products._theta_pass``) both use them.
"""

BACKEND = "python"

# ``pack`` encodes this many slots per list of bytes objects, so it never
# holds one bytes object per coefficient of a long list at once.
_PACK_SLOTS = 256


def _top(kb, n):
    """The integer with bit k-1 of each of n k-bit slots set, k = 8*kb."""
    return int.from_bytes((bytes(kb - 1) + b"\x80") * n, "little")


def slot_bytes(bits):
    """Bytes per slot that hold every |x| < 2**bits with a sign bit."""
    return bits // 8 + 1


def pack(xs, kb):
    """The integer sum xs[i] * 2**(k*i), k = 8*kb, for |xs[i]| < 2**(k-1).

    Each slot holds its digit in k-bit two's complement; a negative digit's
    borrow is taken from the slot above.
    """
    u = int.from_bytes(b"".join([
        b"".join([x.to_bytes(kb, "little", signed=True) for x in xs[i:i + _PACK_SLOTS]])
        for i in range(0, len(xs), _PACK_SLOTS)]), "little")
    return u - ((u & _top(kb, len(xs))) << 1)


def unpack(x, kb, n):
    """The n digits y[i] of x = sum y[i] * 2**(k*i) (mod 2**(k*n)), k = 8*kb,
    each |y[i]| < 2**(k-1).

    Adding 2**(k-1) per slot makes every digit nonnegative, so no digit
    borrows; flipping those bits back gives the two's complement slots.
    """
    top = _top(kb, n)
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
    kb = slot_bytes(max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
                    + min(len(a), len(b)).bit_length())
    return unpack(pack(a, kb) * pack(b, kb), kb, out_len)
