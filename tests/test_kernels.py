import pytest
from hypothesis import given
from hypothesis import strategies as st

from qdissect import _kernels


def naive_conv(a, b, out_len):
    out = [0] * out_len
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < out_len:
                out[i + j] += x * y
    return out


# zero-heavy lists of mixed-sign coefficients up to 10^40, of any length up
# to 80: sparse and dense operands, and empty ones
coefficients = st.integers(0, 80).flatmap(
    lambda n: st.lists(
        st.one_of(st.just(0), st.integers(-(10**40), 10**40)), min_size=n, max_size=n
    )
)


@given(coefficients, coefficients, st.integers(0, 180))
def test_pure_python_matches_naive(a, b, n):
    # n ranges below and beyond len(a) + len(b) - 1, so operands longer
    # than the output are truncated
    expected = naive_conv(a, b, n)
    assert _kernels.conv(a, b, n) == expected
    assert _kernels.conv(b, a, n) == expected


@pytest.mark.parametrize("bits", [7, 8, 63, 64, 127])
def test_slot_boundary(bits):
    # every |coefficient| is 2^b - 1, so the accumulators reach the packing bound
    m = (1 << bits) - 1
    for length in (33, 64, 65):
        a = [m] * length
        for b in ([m] * length, [-m] * length, [m if i % 3 else -m for i in range(length)]):
            # the largest accumulator, at length - 1, in full and truncated products
            for n in (length, 2 * length - 1, 2 * length):
                assert _kernels.conv(a, b, n) == naive_conv(a, b, n)
                assert _kernels.conv(b[:length // 2], a, n) == naive_conv(b[:length // 2], a, n)


@pytest.mark.parametrize("ba, bb", [(8, 8), (8, 9), (32, 32), (64, 65)])
def test_slot_holds_the_longest_sum_of_largest_products(ba, bb):
    # out[126] of two 127-term lists is 127 products (2^ba - 1)(2^bb - 1),
    # just under 2^(ba + bb + 7): with ba + bb + 7 = 7 or 0 (mod 8) it
    # fills the top bits of its slot
    x, y = 2**ba - 1, 2**bb - 1
    for sign in (1, -1):
        assert _kernels.conv([x] * 127, [sign * y] * 127, 127) == [
            (i + 1) * sign * x * y for i in range(127)]


def test_slot_bytes_holds_the_bound_and_a_sign_bit():
    for b in range(301):
        kb = _kernels.slot_bytes(b)
        for x in (2**b - 1, 1 - 2**b):
            assert _kernels.unpack(_kernels.pack([x, -x, x], kb), kb, 3) == [x, -x, x]
        if b % 8 == 7:  # the bound plus a sign bit fills the slot
            with pytest.raises(OverflowError):
                (2**b - 1).to_bytes(kb - 1, "little", signed=True)


def test_zero_skipping_paths():
    a = [0, 3, 0, 0, -2, 0]
    b = [0] * 6 + [7]
    assert _kernels.conv(a, b, 14) == naive_conv(a, b, 14)
    assert _kernels.conv(a, b, 3) == [0] * 3
    assert _kernels.conv(a, [], 5) == [0] * 5
    assert _kernels.conv([], b, 5) == [0] * 5
    assert _kernels.conv([0, 0], [0, 0, 0], 4) == [0] * 4
    assert _kernels.conv(a, b, 0) == []
    assert _kernels.conv(a, b, -3) == []
