"""Exact truncated convolution of integer coefficient lists.

Dense operands go through Kronecker substitution: each list is packed into
one big integer, k bits per coefficient, the two integers are multiplied
once by CPython's Karatsuba, and the k-bit slots of the product are the
coefficients of the truncated product (Harvey, "Faster polynomial
multiplication via multipoint Kronecker substitution", J. Symbolic Comput.
44, 2009).  When one operand has only a few nonzero entries (a Pochhammer
factor, a monomial) a zero-skipping schoolbook loop is cheaper.
"""

BACKEND = "python"

# The schoolbook loop is faster while the sparser operand has at most this
# many nonzero entries.  The measured crossover grows with coefficient size:
# about 16 nonzeros at 10 bits, 32 at 40 bits and 64 at 120 bits.
_SCHOOLBOOK_MAX_NONZEROS = 32


def conv(a, b, out_len):
    """Truncated convolution out[n] = sum a[i]*b[n-i], n < out_len."""
    if out_len <= 0:
        return []
    a, b = a[:out_len], b[:out_len]
    nza = len(a) - a.count(0)
    nzb = len(b) - b.count(0)
    if nzb < nza:
        a, b, nza = b, a, nzb
    if nza <= _SCHOOLBOOK_MAX_NONZEROS:
        return _schoolbook(a, b, out_len)
    return _kronecker(a, b, out_len)


def _schoolbook(a, b, out_len):
    """Zero-skipping loop over the nonzero entries of ``a``."""
    out = [0] * out_len
    lb = len(b)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        hi = min(lb, out_len - i)
        for j in range(hi):
            bj = b[j]
            if bj:
                out[i + j] += ai * bj
    return out


def _kronecker(a, b, out_len):
    """One big-integer product; both operands nonempty and truncated to out_len.

    Every |out[n]| is below 2**(k-1): it is a sum of at most min(len)
    products, each below 2**(bits(a) + bits(b)).  Slots hold k-bit two's
    complement digits; packing subtracts each negative digit's borrow from
    the slot above, and unpacking adds 2**(k-1) per slot so that no digit
    borrows, then flips those bits back to read signed slots.
    """
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
