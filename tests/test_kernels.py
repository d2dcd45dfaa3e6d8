import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdissect import _kernels
from qdissect.series import Series


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
        kb = _kernels._slot_bytes(b)
        top = _kernels._top(kb, 3)
        for x in (2**b - 1, 1 - 2**b):
            assert _kernels._unpack(_kernels._pack([x, -x, x], kb, top), kb, 3, top) == [x, -x, x]
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


def test_one_slot_mask_per_call():
    # conv packs both operands and unpacks its product with one mask, sized
    # for the output; a multiplying sparse_power packs and unpacks with one,
    # and a dividing one packs nothing
    a, b = [3, -1, 0, 7], [-2, 5]
    with mock.patch.object(_kernels, "_top", wraps=_kernels._top) as tops:
        for n in (1, 3, 5, 12):
            assert _kernels.conv(a, b, n) == naive_conv(a, b, n)
            assert _kernels.conv(b, a, n) == naive_conv(b, a, n)
        assert tops.call_count == 8
        assert _kernels.conv(a, [], 5) == [0] * 5
        assert _kernels.conv([], b, 5) == [0] * 5
        assert tops.call_count == 8
        for e in (1, 3):
            c = [1, 2, 3, 4, 5]
            _kernels.sparse_power(c, [(1, -1), (3, 1)], e)
            assert c == naive_sparse_power([1, 2, 3, 4, 5], [(1, -1), (3, 1)], e)
        assert tops.call_count == 10
        c = [1, 2, 3, 4, 5]
        _kernels.sparse_power(c, [(1, -1), (3, 1)], -2)
        assert c == naive_sparse_power([1, 2, 3, 4, 5], [(1, -1), (3, 1)], -2)
        assert tops.call_count == 10


def naive_sparse_power(c, terms, e):
    """Oracle: c times P^e mod q^n, P = 1 + sum s*q^d, by repeated naive
    products and, for e < 0, long division by P^|e|; terms at or past q^n
    do not act."""
    n = len(c)
    p = [1] + [0] * (n - 1)
    for d, s in terms:
        if d < n:
            p[d] = s
    power = [1] + [0] * (n - 1)
    for _ in range(abs(e)):
        power = naive_conv(power, p, n)
    if e > 0:
        return naive_conv(c, power, n)
    quotient = []
    for i in range(n):
        quotient.append(c[i] - sum(power[j] * quotient[i - j] for j in range(1, i + 1)))
    return quotient


def test_getter_returns_a_tuple_for_any_number_of_offsets():
    # the dividing recurrence sums what the getter returns, so one offset
    # gives a 1-tuple (not a bare item) and none an empty tuple
    x = [5, 6, 7]
    assert _kernels._getter([0, 2])(x) == (5, 7)
    assert _kernels._getter([2])(x) == (7,)
    assert _kernels._getter([])(x) == ()


@pytest.mark.parametrize("bits", [7, 15, 63])
def test_sparse_power_slot_holds_the_largest_coefficients(bits):
    # every |c[i]| is 2^bits - 1, which leaves its slot only the sign bit
    # spare, and every term of P is +1: out[n-1] is max|c| times the l1
    # norm of P^e mod q^n, the bound the slot must hold; for the dense P it
    # is C(n-1+e, e) exactly
    x = 2**bits - 1
    for n, terms in ((5, [(1, 1)]), (40, [(d, 1) for d in range(1, 40)]),
                     (65, [(1, 1), (3, 1), (64, 1)])):
        for e in (1, 2, 3, 4):
            for sign in (1, -1):
                c = [sign * x] * n
                expected = naive_sparse_power(c, terms, e)
                _kernels.sparse_power(c, terms, e)
                assert c == expected


LENGTHS = st.sampled_from([1, 2, 63, 64, 65, 128, 129, 400])


def sparse_terms(n):
    """Ascending terms (d, s) with distinct 0 < d < n and s = +-1."""
    if n < 2:
        return st.just([])
    return st.lists(st.integers(1, n - 1), unique=True).flatmap(
        lambda ds: st.lists(st.sampled_from((-1, 1)), min_size=len(ds), max_size=len(ds))
        .map(lambda ss: sorted(zip(ds, ss))))


# the block length of a dividing pass is 64: a term at d = 63 is near (in
# the per-index recurrence, read through one itemgetter per sign from index
# w, the largest near d, on), one at d = 64 far (summed with the other far
# terms of its sign per block, or its own slice update in the block it
# starts in)
@given(LENGTHS.flatmap(lambda n: st.tuples(st.just(n), sparse_terms(n))),
       st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4]), st.integers(0, 2**32))
@example((64, [(63, 1)]), -1, 1)
@example((65, [(64, -1)]), -2, 2)
@example((129, [(63, -1), (64, 1)]), -3, 3)
@example((129, [(63, -1), (64, 1)]), 2, 4)
@example((400, [(1, 1), (63, -1), (64, -1), (399, 1)]), -4, 5)
@example((400, [(1, 1), (63, -1), (64, -1), (399, 1)]), 4, 6)
@example((129, [(5, 1)]), -2, 7)  # one near term: a one-index and an empty getter
@example((200, [(2, -1), (9, -1), (40, -1), (70, 1), (90, 1)]), -1, 8)  # near terms of one sign
@example((129, [(100, 1)]), -1, 9)  # a far term starting inside a block: 64 < 100 < 128
@example((200, [(3, 1), (100, -1), (130, 1), (150, -1)]), -3, 10)
@example((40, [(2, 1), (50, -1)]), -2, 11)  # n <= w: the window loop never starts
@example((40, [(2, 1), (39, -1)]), -3, 12)  # n = w + 1: one window
@example((40, [(2, 1), (50, -1)]), 3, 13)
@settings(deadline=None)
def test_sparse_power_matches_naive(case, e, seed):
    # mixed-sign coefficients of up to 200 bits times an arbitrary sparse P^e
    n, terms = case
    rng = random.Random(seed)
    c = [rng.choice((-1, 1)) * rng.getrandbits(rng.randint(0, 200)) for _ in range(n)]
    expected = naive_sparse_power(c, terms, e)
    _kernels.sparse_power(c, terms, e)
    assert c == expected


# -- the packed 2-adic quotient -----------------------------------------------

def series_div(a, b):
    """Oracle: a/b mod q^n by ``Series.div`` (Newton inversion and ``conv``)."""
    n = len(a)
    return Series(0, a, n).div(Series(0, b, n)).coefficients(0, n)


@st.composite
def quotient_operands(draw):
    """(a, b) of one length 1-80, b[0] = +-1, the other entries of 0-200 bits.

    Either a is drawn too, so a/b is wider than both (1/b grows with the
    index), or a = x*b for a drawn x of 0-20 bits, a quotient narrower
    than b (and than a) that wraps the first slots it is tried in.
    """
    n = draw(st.integers(1, 80))
    rng = random.Random(draw(st.integers(0, 2**32)))
    word = lambda bits: rng.choice((-1, 1)) * rng.getrandbits(rng.randint(0, bits))
    b = [rng.choice((-1, 1))] + [word(200) for _ in range(n - 1)]
    if draw(st.booleans()):
        return [word(200) for _ in range(n)], b
    return _kernels.conv([word(20) for _ in range(n)], b, n), b


def first_quotient(a, b):
    """The first candidate x of ``_kernels.quotients`` with x*b == a, and the
    candidates refused before it."""
    refused = []
    for x in _kernels.quotients(a, b):
        if _kernels.conv(x, b, len(a)) == a:
            return x, refused
        refused.append(x)


# at q = 2^16 the quotient [2^16 + 5, -1] reads as the digits [5, 0]: they
# leave the slots' top bits unused, so ``quotients`` yields them, and only
# the exact product x*b == a refuses that width
WRAPS_UNSEEN = ([2**16 + 5, 3 * (2**16 + 5) - 1], [1, 3])
assert _kernels.conv([2**16 + 5, -1], WRAPS_UNSEEN[1], 2) == WRAPS_UNSEEN[0]
assert _kernels._unpack(_kernels._pack_exact([2**16 + 5, -1], 2), 2, 2, _kernels._top(2, 2)) == [5, 0]


@given(quotient_operands())
@example(([7], [1]))
@example(([-(2**200)], [-1]))
@example(([3, -7], [-1, 2**150]))
@example(([0, 0, 0], [1, -(2**199), 2**200]))
@example(WRAPS_UNSEEN)
@settings(max_examples=60, deadline=None)  # a wide quotient takes up to ~1 s
def test_quotient_matches_series_div(operands):
    a, b = operands
    assert first_quotient(a, b)[0] == series_div(a, b)


def test_quotients_yield_a_wrapped_candidate_that_the_product_refuses():
    x, refused = first_quotient(*WRAPS_UNSEEN)
    assert x == [2**16 + 5, -1]
    assert [5, 0] in refused


def test_pack_exact_takes_entries_wider_than_the_slot():
    xs = [2**70 + 3, -(2**9), 0, -1, 2**200 - 1]
    for kb in (1, 2, 3, 8, 26):
        assert _kernels._pack_exact(xs, kb) == sum(x << 8 * kb * i for i, x in enumerate(xs))
