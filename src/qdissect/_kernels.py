"""Exact truncated convolution of integer coefficient lists.

Every product goes through Kronecker substitution: each list is packed into
one big integer, k bits per coefficient, the two integers are multiplied
once by CPython's Karatsuba, and the k-bit slots of the product are the
coefficients of the truncated product (Harvey, "Faster polynomial
multiplication via multipoint Kronecker substitution", J. Symbolic Comput.
44, 2009).
"""

BACKEND = "python"


def conv(a, b, out_len):
    """Truncated convolution out[n] = sum a[i]*b[n-i], n < out_len.

    Every |out[n]| is below 2**(k-1): it is a sum of at most min(len)
    products, each below 2**(bits(a) + bits(b)).  Slots hold k-bit two's
    complement digits; packing subtracts each negative digit's borrow from
    the slot above, and unpacking adds 2**(k-1) per slot so that no digit
    borrows, then flips those bits back to read signed slots.
    """
    if out_len <= 0:
        return []
    a, b = a[:out_len], b[:out_len]
    if not a or not b:
        return [0] * out_len
    bits = max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
    kb = (bits + min(len(a), len(b)).bit_length() + 9) // 8  # bytes per slot
    k = 8 * kb
    top = int.from_bytes((bytes(kb - 1) + b"\x80") * out_len, "little")  # bit k-1 of each slot

    def pack(xs):
        slots = b"".join([x.to_bytes(kb, "little", signed=True) for x in xs])
        u = int.from_bytes(slots, "little")
        return u - ((u & top) << 1)

    r = ((pack(a) * pack(b) + top) ^ top) & ((1 << (k * out_len)) - 1)
    buf = r.to_bytes(kb * out_len, "little")
    return [int.from_bytes(buf[i:i + kb], "little", signed=True) for i in range(0, len(buf), kb)]
