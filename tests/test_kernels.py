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
# to 80, so that both operands can be dense enough for the Kronecker path
coefficients = st.integers(0, 80).flatmap(
    lambda n: st.lists(
        st.one_of(st.just(0), st.integers(-(10**40), 10**40)), min_size=n, max_size=n
    )
)


@given(coefficients, coefficients, st.integers(0, 180))
def test_pure_python_matches_naive(a, b, n):
    # n ranges below and beyond len(a) + len(b) - 1
    assert _kernels.conv(a, b, n) == naive_conv(a, b, n)


@given(coefficients, coefficients, st.integers(1, 180))
def test_both_paths_match_naive(a, b, n):
    a, b = a[:n], b[:n]
    expected = naive_conv(a, b, n)
    assert _kernels._schoolbook(a, b, n) == expected
    assert _kernels._schoolbook(b, a, n) == expected
    if a and b:
        assert _kernels._kronecker(a, b, n) == expected


@pytest.mark.parametrize("bits", [7, 8, 63, 64, 127])
def test_slot_boundary(bits):
    # every |coefficient| is 2^b - 1, so the accumulators reach the packing bound
    m = (1 << bits) - 1
    for length in (33, 64, 65):
        a = [m] * length
        for b in ([m] * length, [-m] * length, [m if i % 3 else -m for i in range(length)]):
            expected = naive_conv(a, b, 2 * length)
            assert _kernels._kronecker(a, b, 2 * length) == expected
            assert _kernels._schoolbook(a, b, 2 * length) == expected
            assert _kernels.conv(a, b, 2 * length) == expected


def test_zero_skipping_paths():
    a = [0, 3, 0, 0, -2, 0]
    b = [0] * 6 + [7]
    assert _kernels.conv(a, b, 14) == naive_conv(a, b, 14)
    assert _kernels.conv(a, [], 5) == [0] * 5
    assert _kernels.conv([], b, 5) == [0] * 5
    assert _kernels.conv(a, b, 0) == []
