from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qdissect.errors import NonUnitLeadingCoefficient, OrderExceeded
from qdissect.series import Series

from helpers import make_series


def poly_mul(a, b):
    """Oracle: dict-based polynomial multiplication over (exponent -> coeff)."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def as_dict(s):
    return dict(s.terms())


# -- strategies ---------------------------------------------------------------

coeffs = st.lists(st.integers(-9, 9), min_size=0, max_size=8)


@st.composite
def series_st(draw, laurent=True, unit_lead=False):
    cs = draw(coeffs)
    val = draw(st.integers(-4 if laurent else 0, 4))
    if unit_lead:
        cs = [draw(st.sampled_from([1, -1]))] + cs
    order = val + len(cs) + draw(st.integers(1, 4))
    return Series(val, cs, order)


# -- construction -------------------------------------------------------------

def test_make_examples():
    one = make_series([(0, 1)], 10)
    assert one.val == 0 and one.coeffs == [1] and one.order == 10

    zero = make_series([], 10)
    assert zero.is_zero() and zero.order == 10

    laurent = make_series([(-1, 1), (0, 1)], 5)
    assert laurent.val == -1 and laurent.coeffs == [1, 1]


def test_make_rejects_duplicates_and_high_exponents():
    with pytest.raises(ValueError, match="duplicate"):
        make_series([(2, 1), (2, 3)], 10)
    with pytest.raises(ValueError, match="not below order"):
        make_series([(10, 1)], 10)


def test_normalization_strips_zeros():
    s = Series(2, [0, 0, 3, 0, 1, 0, 0], 20)
    assert s.val == 4 and s.coeffs == [3, 0, 1]


def test_coefficient_and_order_exceeded():
    s = make_series([(1, 5)], 4)
    assert s.coefficient(1) == 5
    assert s.coefficient(0) == 0
    assert s.coefficient(3) == 0
    assert s.coefficient(-7) == 0
    with pytest.raises(OrderExceeded, match="^coefficient 4 beyond trusted order 4$"):
        s.coefficient(4)
    with pytest.raises(OrderExceeded, match="^coefficient 9 beyond trusted order 4$"):
        s.coefficient(9)


# -- arithmetic examples -------------------------------------------------------

def test_add_sub_examples():
    one = Series.one(10)
    assert one.add(one.negate()).is_zero()
    q = Series.monomial(1, 1, 10)
    assert as_dict(q.add(q)) == {1: 2}
    g = make_series([(0, 1), (3, 2)], 7)
    assert g.sub(g).is_zero()


def test_mul_examples():
    q2 = Series.monomial(1, 2, 30)
    q3 = Series.monomial(1, 3, 30)
    assert as_dict(q2.mul(q3)) == {5: 1}

    one_minus_q = make_series([(0, 1), (1, -1)], 30)
    geom = Series(0, [1] * 30, 30)
    assert as_dict(one_minus_q.mul(geom)) == {0: 1}


def test_mul_order_rule():
    a = Series(2, [1, 1], 10)   # trusted below q^10
    b = Series(3, [1], 9)       # trusted below q^9
    prod = a.mul(b)
    assert prod.order == min(10 + 3, 9 + 2)
    assert prod.val == 5


def test_invert_examples():
    one_minus_q = make_series([(0, 1), (1, -1)], 12)
    inv = one_minus_q.invert()
    assert inv.coeffs == [1] * 12

    with pytest.raises(NonUnitLeadingCoefficient):
        make_series([(0, 2), (1, 1)], 12).invert()
    with pytest.raises(NonUnitLeadingCoefficient):
        Series.zero(5).invert()


def test_invert_laurent_valuation_and_order():
    a = Series(2, [1, 5], 10)
    b = a.invert()
    assert b.val == -2
    assert b.order == 10 - 4
    prod = a.mul(b)
    assert prod.coefficient(0) == 1 and len(prod.terms()) == 1


def test_substitute_power_examples():
    s = make_series([(0, 1), (1, 1)], 5)
    t = s.substitute_power(2)
    assert as_dict(t) == {0: 1, 2: 1}
    assert t.order == 10
    assert Series.zero(4).substitute_power(5).is_zero()


def test_shift_examples():
    assert as_dict(Series.one(10).shift(3)) == {3: 1}
    qinv = Series.monomial(1, -1, 4)
    assert as_dict(qinv.shift(1)) == {0: 1}
    assert qinv.shift(1).order == 5


def test_q_derivative_examples():
    assert Series.one(10).q_derivative().is_zero()
    q3 = Series.monomial(1, 3, 10)
    assert as_dict(q3.q_derivative()) == {3: 3}
    geom = Series(0, [1] * 10, 10)
    assert as_dict(geom.q_derivative()) == {n: n for n in range(1, 10)}


def test_exact_scalar_div():
    s = make_series([(0, 2), (3, -4)], 10)
    assert as_dict(s.exact_scalar_div(2)) == {0: 1, 3: -2}
    assert as_dict(s.exact_scalar_div(-2)) == {0: -1, 3: 2}
    with pytest.raises(ValueError):
        s.exact_scalar_div(4)


def test_pow():
    s = make_series([(0, 1), (1, 1)], 12)
    assert as_dict(s.pow(2)) == {0: 1, 1: 2, 2: 1}
    assert as_dict(s.pow(0)) == {0: 1}
    assert s.pow(-1).mul(s).coefficient(0) == 1


def test_to_json_uses_decimal_strings():
    s = make_series([(-1, 1), (0, -12345678901234567890)], 5)
    assert s.to_json() == {
        "valuation": -1,
        "order": 5,
        "coeffs": ["1", "-12345678901234567890"],
    }


# -- ring axioms and structural properties (hypothesis) ------------------------

@given(series_st(), series_st())
def test_add_commutes(a, b):
    assert a.add(b) == b.add(a)


@given(series_st(), series_st())
def test_mul_commutes(a, b):
    assert a.mul(b) == b.mul(a)


@given(series_st(), series_st(), series_st())
@settings(max_examples=60)
def test_mul_associates(a, b, c):
    assert a.mul(b).mul(c) == a.mul(b.mul(c))


@given(series_st(), series_st(), series_st())
@settings(max_examples=60)
def test_distributive_on_trusted_range(a, b, c):
    lhs = a.mul(b.add(c))
    rhs = a.mul(b).add(a.mul(c))
    n = min(lhs.order, rhs.order)
    assert lhs.truncate(n) == rhs.truncate(n)


@given(series_st(), series_st())
def test_mul_matches_poly_oracle(a, b):
    prod = a.mul(b)
    expect = poly_mul(as_dict(a), as_dict(b))
    for e, c in expect.items():
        if e < prod.order:
            assert prod.coefficient(e) == c


@given(series_st(unit_lead=True))
def test_invert_is_two_sided(a):
    inv = a.invert()
    left = a.mul(inv)
    right = inv.mul(a)
    assert as_dict(left) == {0: 1}
    assert as_dict(right) == {0: 1}


@given(series_st(), series_st(), st.integers(1, 5))
def test_substitute_power_is_ring_hom(a, b, m):
    assert a.add(b).substitute_power(m) == a.substitute_power(m).add(b.substitute_power(m))
    assert a.mul(b).substitute_power(m) == a.substitute_power(m).mul(b.substitute_power(m))


@given(series_st(), series_st(), st.integers(1, 6))
def test_truncation_soundness(a, b, k):
    assume(not a.is_zero() and not b.is_zero())
    full = a.mul(b)
    m = full.order - k
    assume(m > a.val + b.val)
    direct = a.truncate(m - b.val).mul(b.truncate(m - a.val))
    assert direct.order >= m
    assert full.truncate(m) == direct.truncate(m)


# -- exact division against rational long division -------------------------------

def fraction_div(a, b):
    """Oracle: a/b by the naive long-division recurrence over the rationals,
    as (valuation, coefficients, order).  b's leading coefficient is nonzero."""
    val = a.val - b.val
    order = min(a.order - b.val, b.order - 2 * b.val + a.val)
    A, B = a.coeffs, b.coeffs
    c = []
    for k in range(order - val):
        s = Fraction(A[k] if k < len(A) else 0)
        for j in range(1, min(k, len(B) - 1) + 1):
            s -= B[j] * c[k - j]
        c.append(s / B[0])
    return val, c, order


def check_exact_quotient(num, den, quotient):
    """quotient() is num/den when den's leading coefficient is +-1, or when
    it equals den's content and the rational quotient is integral; otherwise
    it raises NonUnitLeadingCoefficient."""
    lead = den.leading_coefficient()
    if lead in (1, -1) or (lead and abs(lead) == gcd(*den.coeffs)):
        val, c, order = fraction_div(num, den)
        if all(x.denominator == 1 for x in c):
            assert quotient() == Series(val, [int(x) for x in c], order)
            return
    with pytest.raises(NonUnitLeadingCoefficient):
        quotient()


@st.composite
def int_series(draw, g=1, lead=None):
    """Valuation 0..2, at most 12 coefficients in -9..9, all multiples of g."""
    cs = draw(st.lists(st.integers(-(9 // g), 9 // g), max_size=12 if lead is None else 11))
    if lead is not None:
        cs = [lead] + cs
    val = draw(st.integers(0, 2))
    return Series(val, [g * c for c in cs], val + len(cs) + draw(st.integers(1, 4)))


@st.composite
def quotients(draw):
    """(a, b) with b's leading coefficient a unit, equal to its content 2 or 3,
    or anything; a is sometimes a multiple of that content."""
    g = draw(st.sampled_from([1, 2, 3]))
    kind = draw(st.sampled_from(["unit", "content", "any"]))
    if kind == "any":
        b = draw(int_series())
    else:
        g_b = g if kind == "content" else 1
        b = draw(int_series(g_b, lead=draw(st.sampled_from([1, -1]))))
    return draw(int_series(draw(st.sampled_from([1, g])))), b


@given(quotients())
@example((Series(0, [2, 3], 10), Series(0, [2, 3], 10)))
@example((Series(0, [2, 4], 10), Series(0, [2, 2], 10)))
@example((Series(0, [1], 10), Series(0, [2, 2], 10)))
@settings(max_examples=300)
def test_div_matches_rational_long_division(ab):
    a, b = ab
    check_exact_quotient(a, b, lambda: a.div(b))
    square = {e: c for e, c in poly_mul(as_dict(b), as_dict(b)).items() if e < b.order + b.val}
    b2 = make_series(square.items(), b.order + b.val)
    check_exact_quotient(Series.one(b2.order), b2, lambda: b.pow(-2))


def test_first_difference_handles_laurent_and_equal():
    # the first trusted exponent where two series differ is the valuation of
    # their difference
    x = make_series([(-2, 1), (0, 3)], 10)
    y = make_series([(-2, 1), (0, 4)], 10)
    assert x.sub(y).val == 0
    z = make_series([(-3, 1)], 10)
    assert x.sub(z).val == -3
    assert x.sub(x).is_zero()


# -- coefficient windows against the per-index loops they replaced ---------------

def coefficients_by_index(s, lo, hi):
    return [s.coefficient(n) for n in range(lo, hi)]


def add_by_index(a, b):
    order = min(a.order, b.order)
    if a.is_zero():
        return b.truncate(order)
    if b.is_zero():
        return a.truncate(order)
    lo = min(a.val, b.val)
    hi = min(max(a.val + len(a.coeffs), b.val + len(b.coeffs)), order)
    out = [0] * max(hi - lo, 0)
    for s in (a, b):
        for i, c in enumerate(s.coeffs):
            e = s.val + i
            if e < order:
                out[e - lo] += c
    return Series(lo, out, order)


def first_difference_by_index(a, b):
    n = min(a.order, b.order)
    for e in range(min(a.val, b.val, n), n):
        if a.coefficient(e) != b.coefficient(e):
            return e
    return None


def substitute_power_by_index(s, m):
    if m == 1 or s.is_zero():
        return Series(s.val * m, s.coeffs, s.order * m)
    out = [0] * ((len(s.coeffs) - 1) * m + 1)
    for i, c in enumerate(s.coeffs):
        out[i * m] = c
    return Series(s.val * m, out, s.order * m)


@st.composite
def truncated_series_st(draw):
    """Laurent series, zero series among them, whose order may fall below the
    valuation of another drawn series."""
    return draw(series_st()).truncate(draw(st.integers(-6, 16)))


@given(truncated_series_st(), st.integers(-8, 20), st.integers(-8, 20))
@example(Series(2, [1, 2], 6), -1, 3)    # lo below the valuation
@example(Series(2, [1, 2], 6), 0, 6)     # hi past the support
@example(Series(2, [1, 2], 6), 5, 1)     # lo > hi: empty
@example(Series(2, [1, 2], 6), 3, 9)     # hi past the order
@example(Series(2, [1, 2], 6), 7, 9)     # lo past the order
@example(Series.zero(4), -2, 4)
@settings(max_examples=400)
def test_coefficients_matches_index_loop(s, lo, hi):
    try:
        want = coefficients_by_index(s, lo, hi)
    except OrderExceeded as exc:
        with pytest.raises(OrderExceeded) as got:
            s.coefficients(lo, hi)
        assert str(got.value) == str(exc)
    else:
        assert s.coefficients(lo, hi) == want


@given(truncated_series_st(), truncated_series_st())
@example(Series(-3, [1, 2], 2), Series(5, [4], 9))     # disjoint supports
@example(Series.zero(3), Series(-2, [1, 0, 5], 7))
@example(Series.zero(-2), Series(1, [3], 6))           # order below both valuations
@example(Series.zero(3), Series.zero(-1))
@settings(max_examples=400)
def test_add_and_sub_match_index_loops(a, b):
    assert a.add(b) == add_by_index(a, b)
    d = a.sub(b)
    assert (None if d.is_zero() else d.val) == first_difference_by_index(a, b)


@pytest.mark.parametrize("zero_order", [-5, -2, 0, 3, 9])
def test_adding_zero_gives_the_other_operand_truncated(zero_order):
    # a Laurent operand; the zero's order lies below, inside and past its support
    s = Series(-3, [2, 0, -7, 1, 5], 4)
    z = Series.zero(zero_order)
    got = z.add(s)
    assert got == s.add(z) == s.sub(z) == z.sub(s).negate()
    assert got.order == min(4, zero_order)
    assert got.terms() == [(e, c) for e, c in s.terms() if e < zero_order]
    assert z.add(z) == z


@given(truncated_series_st(), st.integers(1, 6))
@example(Series.zero(4), 3)
@example(Series.zero(-2), 1)
@example(Series(-2, [1, 0, 3], 5), 1)
def test_substitute_power_matches_index_loop(s, m):
    assert s.substitute_power(m) == substitute_power_by_index(s, m)
